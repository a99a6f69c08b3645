//! Regenerates the paper's tables and figures in one process.
//!
//! ```sh
//! cargo run -p osml-bench --release --bin figures                       # every figure
//! cargo run -p osml-bench --release --bin figures -- fig10_colocation3  # just some
//! cargo run -p osml-bench --release --bin figures -- --smoke fig17_fault_tolerance
//! ```
//!
//! The named figures run in table order (all of them when none is named).
//! Each prints a human-readable table and writes its JSON under
//! [`osml_bench::report::results_dir`]. `--smoke` shortens the figures that
//! have a CI-sized variant (Figs. 17–23) and changes nothing else. Every
//! argument is checked before any figure runs: an unknown name or flag
//! writes nothing and exits non-zero. One process means one training run:
//! [`osml_bench::suite::trained_suite`] trains on its first call and hands
//! every later figure a clone.

mod ablations;
mod colocation;
mod fig13_resource_usage;
mod fig14_dynamic_load;
mod fig15_emu_overhead;
mod fig16_case_study;
mod fig17_fault_tolerance;
mod fig18_telemetry;
mod fig19_crash_recovery;
mod fig1_rcliff_heatmap;
mod fig20_overload;
mod fig22_cluster_failover;
mod fig23_control_plane;
mod fig2_rcliff_vs_rps;
mod fig3_oaa_threads;
mod fig4_heuristic_trace;
mod model_accuracy;
mod replay_divergence;
mod table1_max_load;
mod table3_features;

use std::process::ExitCode;

/// A figure's name and its body, which is told whether `--smoke` was given.
type Figure = (&'static str, fn(bool));

/// Every figure, in the order a full run regenerates them.
const FIGURES: &[Figure] = &[
    ("table1_max_load", table1_max_load::run),
    ("table3_features", table3_features::run),
    ("fig1_rcliff_heatmap", fig1_rcliff_heatmap::run),
    ("fig2_rcliff_vs_rps", fig2_rcliff_vs_rps::run),
    ("fig3_oaa_threads", fig3_oaa_threads::run),
    ("fig4_heuristic_trace", fig4_heuristic_trace::run),
    ("fig10_colocation3", |_| colocation::run(&colocation::FIG10)),
    ("fig11_colocation4", |_| colocation::run(&colocation::FIG11)),
    ("fig12_colocation_oracle", |_| colocation::run(&colocation::FIG12)),
    ("fig13_resource_usage", fig13_resource_usage::run),
    ("fig14_dynamic_load", fig14_dynamic_load::run),
    ("fig15_emu_overhead", fig15_emu_overhead::run),
    ("fig16_case_study", fig16_case_study::run),
    ("fig17_fault_tolerance", fig17_fault_tolerance::run),
    ("fig18_telemetry", fig18_telemetry::run),
    ("fig19_crash_recovery", fig19_crash_recovery::run),
    ("fig20_overload", fig20_overload::run),
    ("replay_divergence", replay_divergence::run),
    ("fig22_cluster_failover", fig22_cluster_failover::run),
    ("fig23_control_plane", fig23_control_plane::run),
    ("model_accuracy", model_accuracy::run),
    ("ablations", ablations::run),
];

fn main() -> ExitCode {
    let mut smoke = false;
    let mut names = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else if FIGURES.iter().any(|&(name, _)| name == arg) {
            names.push(arg);
        } else {
            eprintln!("figures: unknown argument `{arg}`");
            eprintln!("usage: figures [--smoke] [NAME ...]");
            eprintln!("names:");
            for (name, _) in FIGURES {
                eprintln!("  {name}");
            }
            return ExitCode::from(2);
        }
    }
    for &(name, run) in FIGURES {
        if names.is_empty() || names.iter().any(|n| n == name) {
            println!("==================== {name} ====================");
            run(smoke);
        }
    }
    ExitCode::SUCCESS
}
