//! Human-readable tables and machine-readable JSON output for the
//! figures.

use crate::grid::ColocationGrid;
use serde::Serialize;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Renders a co-location heatmap the way the paper's Figs. 10–12 panels
/// read: rows are the y service's load, columns the x service's load, cells
/// the probe service's max supported load ("." = infeasible).
pub fn render_grid(grid: &ColocationGrid) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "[{}] max load of {} (%) vs x={} / y={}{}",
        grid.policy,
        grid.probe,
        grid.x_service,
        grid.y_service,
        if grid.background.is_empty() {
            String::new()
        } else {
            format!(
                " (background: {})",
                grid.background
                    .iter()
                    .map(|(s, p)| format!("{s}@{p:.0}%"))
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        }
    );
    let _ = write!(out, "{:>6} |", format!("y\\x"));
    for &x in &grid.steps {
        let _ = write!(out, "{x:>5}");
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "{}", "-".repeat(8 + 5 * grid.steps.len()));
    for (yi, &y) in grid.steps.iter().enumerate() {
        let _ = write!(out, "{y:>6} |");
        for cell in &grid.cells[yi] {
            if *cell == 0 {
                let _ = write!(out, "{:>5}", ".");
            } else {
                let _ = write!(out, "{cell:>5}");
            }
        }
        let _ = writeln!(out);
    }
    out
}

/// The directory figure outputs land in: `$OSML_RESULTS_DIR` when set,
/// otherwise `<workspace root>/results`. Resolving against the workspace
/// root (two levels above this crate's manifest) instead of the current
/// working directory means `cargo run -p osml-bench` writes the same place
/// no matter where it is invoked from.
pub fn results_dir() -> PathBuf {
    results_dir_from(std::env::var_os("OSML_RESULTS_DIR"))
}

/// [`results_dir`] with the environment override injected (testable without
/// mutating the process environment).
fn results_dir_from(env_override: Option<std::ffi::OsString>) -> PathBuf {
    if let Some(dir) = env_override {
        return PathBuf::from(dir);
    }
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crate lives two levels under the workspace root")
        .join("results")
}

/// Writes `value` as pretty JSON to `<results_dir()>/<name>.json` (creating
/// the directory) and prints a `saved <path>` line. The write is
/// crash-atomic (temp file plus rename via [`osml_ml::store::write_atomic`]):
/// a kill mid-write leaves the previous result intact rather than a torn
/// JSON. Panics on I/O errors, since a figure has nothing useful to do
/// without its output.
pub fn save_json<T: Serialize>(name: &str, value: &T) {
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create results directory");
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serialize result");
    osml_ml::store::write_atomic(&path, &json).expect("write result file");
    println!("saved {}", path.display());
}

/// Renders a simple aligned table from rows of strings. Rows may be wider
/// than the header row; the extra columns get empty headers instead of
/// being dropped or panicking.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let columns = rows.iter().map(Vec::len).chain([headers.len()]).max().unwrap_or(0);
    let mut widths = vec![0usize; columns];
    for (i, h) in headers.iter().enumerate() {
        widths[i] = h.len();
    }
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    for (i, &w) in widths.iter().enumerate() {
        let _ = write!(out, "{:<w$}  ", headers.get(i).copied().unwrap_or(""), w = w);
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "{}", "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            let _ = write!(out, "{:<w$}  ", cell, w = widths[i]);
        }
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use osml_workloads::Service;

    #[test]
    fn grid_rendering_marks_infeasible_cells() {
        let grid = ColocationGrid {
            policy: "osml".into(),
            x_service: Service::ImgDnn,
            y_service: Service::Xapian,
            probe: Service::Moses,
            background: vec![],
            steps: vec![10, 50],
            cells: vec![vec![50, 10], vec![10, 0]],
        };
        let text = render_grid(&grid);
        assert!(text.contains("osml"));
        assert!(text.contains('.'), "infeasible cell must render as a dot:\n{text}");
        assert!(text.contains("50"));
    }

    #[test]
    fn table_aligns_columns() {
        let text = render_table(
            &["service", "rps"],
            &[vec!["moses".into(), "3000".into()], vec!["memcached".into(), "1280000".into()]],
        );
        assert!(text.lines().count() >= 4);
        assert!(text.contains("memcached"));
    }

    #[test]
    fn table_keeps_cells_beyond_the_header_count() {
        let text = render_table(
            &["service"],
            &[vec!["moses".into(), "3000".into(), "extra-wide-cell".into()]],
        );
        assert!(text.contains("3000"), "cell beyond headers must render:\n{text}");
        assert!(text.contains("extra-wide-cell"), "all extra cells must render:\n{text}");
    }

    #[test]
    fn results_dir_honours_env_override_and_defaults_to_workspace() {
        // Default: anchored at the workspace root, not the CWD.
        let default_dir = results_dir();
        assert!(default_dir.is_absolute(), "must not depend on the CWD: {default_dir:?}");
        assert!(default_dir.ends_with("results"));
        assert!(default_dir.parent().unwrap().join("Cargo.toml").exists());
        // The env override redirects wholesale (injected rather than via
        // set_var, which is unsound with parallel tests).
        let overridden = results_dir_from(Some("/tmp/osml-results-override".into()));
        assert_eq!(overridden, PathBuf::from("/tmp/osml-results-override"));
    }
}
