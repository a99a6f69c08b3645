//! `cargo run --release --manifest-path benchmark/Cargo.toml -- [--workload W]
//! [--seed N] [--seconds S] [--trace 0|1] [--smoke]`
//!
//! Prints every metric of the run's kind by name with its unit, then — as
//! the last line of standard output — the result object the driver reads.
//! Exits non-zero if a correctness check failed.

use osml_benchmark::churn::NodeChurn;
use osml_benchmark::fleet::ClusterFaults;
use osml_benchmark::logreplay::LogReplay;
use osml_benchmark::report::{Outcome, END_TO_END, PER_LAYER, WORKLOADS};
use osml_benchmark::runner::{run_plain, run_traced, Args};
use osml_benchmark::steady::NodeSteady;
use std::process::ExitCode;

fn usage(problem: &str) -> ExitCode {
    eprintln!(
        "{problem}\nusage: osml-benchmark [--workload {}] [--seed N] [--seconds S] [--trace 0|1] [--smoke]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn run(workload: &str, args: &Args) -> Option<Outcome> {
    let models = |t: &osml_core::OsmlScheduler| Some(t.models().clone());
    Some(match (workload, args.trace) {
        ("node-steady", false) => run_plain::<NodeSteady>(args),
        ("node-steady", true) => run_traced::<NodeSteady>(args, |_| None),
        ("node-churn", false) => run_plain::<NodeChurn>(args),
        ("node-churn", true) => run_traced::<NodeChurn>(args, |w| models(w.template())),
        ("cluster-faults", false) => run_plain::<ClusterFaults>(args),
        ("cluster-faults", true) => run_traced::<ClusterFaults>(args, |w| models(w.template())),
        ("log-replay", false) => run_plain::<LogReplay>(args),
        ("log-replay", true) => run_traced::<LogReplay>(args, |w| models(w.template())),
        _ => return None,
    })
}

fn main() -> ExitCode {
    let mut args = Args { seed: 1, seconds: 10.0, trace: false, smoke: false };
    let mut workload: Option<String> = None;
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--smoke" => args.smoke = true,
            // `--trace 1` / `--trace 0` as the driver passes it; a bare
            // `--trace` means 1.
            "--trace" => {
                args.trace = argv.next_if(|v| v == "0" || v == "1").is_none_or(|v| v == "1")
            }
            "--workload" | "--seed" | "--seconds" => {
                let Some(value) = argv.next() else {
                    return usage(&format!("{flag} needs a value"));
                };
                let parsed = match flag.as_str() {
                    "--workload" => {
                        workload = Some(value.clone());
                        WORKLOADS.contains(&value.as_str())
                    }
                    "--seed" => value.parse().map(|v| args.seed = v).is_ok(),
                    _ => value
                        .parse()
                        .map(|v: f64| args.seconds = v)
                        .is_ok_and(|()| args.seconds > 0.0 && args.seconds <= 60.0),
                };
                if !parsed {
                    return usage(&format!("bad value for {flag}: {value:?}"));
                }
            }
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }

    let defs: &[_] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let chosen: Vec<&str> = match &workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let mut all_correct = true;
    for name in chosen {
        let outcome = run(name, &args).expect("workload names were validated");
        for e in &outcome.errors {
            eprintln!("FAILED CHECK [{name}]: {e}");
        }
        all_correct &= outcome.correct();
        println!("{}", outcome.result_line(defs));
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
