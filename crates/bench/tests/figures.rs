//! The `figures` binary end to end: the figures that train nothing write
//! exactly their committed `results/` files, byte for byte, and an argument
//! it does not know writes nothing.

use osml_core::ScratchDir;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// The figures that train no model; each writes `<name>.json`.
const UNTRAINED: [&str; 6] = [
    "table1_max_load",
    "table3_features",
    "fig1_rcliff_heatmap",
    "fig2_rcliff_vs_rps",
    "fig3_oaa_threads",
    "fig4_heuristic_trace",
];

fn figures(results: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .env("OSML_RESULTS_DIR", results)
        .output()
        .expect("run the figures binary")
}

/// The file names under `dir`, sorted; none if it does not exist.
fn listing(dir: &Path) -> Vec<String> {
    let Ok(entries) = std::fs::read_dir(dir) else { return Vec::new() };
    let mut names: Vec<String> =
        entries.map(|e| e.unwrap().file_name().into_string().unwrap()).collect();
    names.sort();
    names
}

fn committed(file: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results").join(file)
}

#[test]
fn untrained_figures_reproduce_their_committed_files() {
    let scratch = ScratchDir::new("figures-untrained");
    let out = figures(scratch.path(), &UNTRAINED);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let mut expected: Vec<String> = UNTRAINED.iter().map(|n| format!("{n}.json")).collect();
    expected.sort();
    assert_eq!(listing(scratch.path()), expected);
    for file in &expected {
        let written = std::fs::read(scratch.path().join(file)).unwrap();
        let committed = std::fs::read(committed(file)).unwrap();
        assert!(written == committed, "{file} differs from the committed results/{file}");
    }
}

#[test]
fn an_unknown_argument_fails_and_writes_nothing() {
    let scratch = ScratchDir::new("figures-unknown");
    for args in [&["table3_features", "no_such_figure"][..], &["--smok", "table3_features"]] {
        let out = figures(scratch.path(), args);
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("fig10_colocation3") && stderr.contains("ablations"),
            "{args:?}: the error lists the valid names:\n{stderr}"
        );
        assert_eq!(listing(scratch.path()), Vec::<String>::new(), "{args:?} wrote a file");
    }
}
