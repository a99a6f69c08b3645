//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! ```sh
//! cargo run -p osml-bench --release --bin ablations              # all studies
//! cargo run -p osml-bench --release --bin ablations -- margin    # just one
//! ```
//!
//! Studies: `margin` (OAA safety margin), `model-c-only` (§IV-D),
//! `withdrawal` (trial withdrawal of ineffective actions), `interval`
//! (sampling window), `bpoint-depth` (Model-B matching width).

use osml_bench::report;
use osml_bench::scenario::run_colocation_with_noise;
use osml_bench::suite::trained_suite;
use osml_core::OsmlConfig;
use osml_platform::Topology;
use osml_workloads::oaa::LatencyGrid;
use osml_workloads::{LaunchSpec, Service};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    study: String,
    setting: String,
    metric: String,
    value: f64,
}

fn mix() -> Vec<LaunchSpec> {
    vec![
        LaunchSpec::at_percent_load(Service::Moses, 40.0),
        LaunchSpec::at_percent_load(Service::ImgDnn, 40.0),
        LaunchSpec::at_percent_load(Service::Xapian, 20.0),
    ]
}

/// A crowded five-service mix where newcomers must be funded by neighbours.
fn crowded() -> Vec<LaunchSpec> {
    vec![
        LaunchSpec::at_percent_load(Service::Moses, 30.0),
        LaunchSpec::at_percent_load(Service::ImgDnn, 25.0),
        LaunchSpec::at_percent_load(Service::MongoDb, 15.0),
        LaunchSpec::at_percent_load(Service::Login, 15.0),
        LaunchSpec::at_percent_load(Service::Xapian, 25.0),
    ]
}

/// OAA margin: QoS-safety vs resource waste. For each margin, place the OAA
/// and bump the load 10 % — a margin-less OAA sits on the cliff and breaks.
fn margin(rows: &mut Vec<Row>) {
    println!("--- ablation: OAA safety margin ---");
    let topo = Topology::xeon_e5_2697_v4();
    let services = [Service::Moses, Service::Xapian, Service::Specjbb, Service::Masstree];
    for m in 0..=3usize {
        let mut survived = 0usize;
        let mut total = 0usize;
        let mut extra_resources = 0usize;
        for s in services {
            for frac in [0.3, 0.5, 0.7] {
                let rps = s.params().nominal_max_rps() * frac;
                let grid = LatencyGrid::sweep(&topo, s, s.params().default_threads, rps);
                let (Some(oaa), Some(cliff)) = (grid.oaa_with_margin(m), grid.rcliff()) else {
                    continue;
                };
                total += 1;
                extra_resources += oaa.total() - cliff.total();
                // Does the allocation survive a 10 % load bump?
                let bumped = LatencyGrid::sweep(&topo, s, s.params().default_threads, rps * 1.10);
                if bumped.meets_qos(oaa) {
                    survived += 1;
                }
            }
        }
        let survival = survived as f64 / total.max(1) as f64;
        let waste = extra_resources as f64 / total.max(1) as f64;
        println!(
            "margin {m}: survives a +10% load bump in {:.0}% of cases, costs {:.1} extra units",
            survival * 100.0,
            waste
        );
        rows.push(Row {
            study: "margin".into(),
            setting: m.to_string(),
            metric: "bump_survival".into(),
            value: survival,
        });
        rows.push(Row {
            study: "margin".into(),
            setting: m.to_string(),
            metric: "extra_units".into(),
            value: waste,
        });
    }
}

/// §IV-D: Model-C alone (no Model-A/B placement) vs the full collaboration,
/// on a crowded noisy machine within a tight convergence window.
fn model_c_only(rows: &mut Vec<Row>) {
    println!("--- ablation: Model-C without Model-A/B ---");
    let template = trained_suite();
    for (name, via_models) in [("full osml", true), ("model-c only", false)] {
        let mut ok = 0usize;
        let mut actions = 0usize;
        for seed in 0..5u64 {
            let mut sched = template.clone().with_config(OsmlConfig {
                placement_via_models: via_models,
                ..OsmlConfig::default()
            });
            let out = run_colocation_with_noise(&mut sched, &crowded(), 100, 0xAB1 + seed, 0.02);
            ok += out.qos_ok as usize;
            actions += out.actions;
        }
        println!(
            "{name}: qos_ok {ok}/5, {:.1} mean actions (paper: Model-C alone wastes exploration time)",
            actions as f64 / 5.0
        );
        rows.push(Row {
            study: "model-c-only".into(),
            setting: name.into(),
            metric: "mean_actions".into(),
            value: actions as f64 / 5.0,
        });
        rows.push(Row {
            study: "model-c-only".into(),
            setting: name.into(),
            metric: "qos_rate".into(),
            value: ok as f64 / 5.0,
        });
    }
}

/// Trial withdrawal: the paper says ineffective actions "will be
/// withdrawn"; in this reproduction that mechanism (plus the ε-greedy
/// exploration it replaces on the decision path) is what keeps Model-C from
/// repeating a fruitless growth. Disable it and watch resources leak.
fn withdrawal(rows: &mut Vec<Row>) {
    println!("--- ablation: withdrawal of ineffective growth actions ---");
    let template = trained_suite();
    for (name, on) in [("withdrawal on", true), ("withdrawal off", false)] {
        let mut ok = 0usize;
        let mut actions = 0usize;
        for seed in 0..5u64 {
            let mut sched = template.clone().with_config(OsmlConfig {
                withdraw_ineffective_growth: on,
                ..OsmlConfig::default()
            });
            let out = run_colocation_with_noise(&mut sched, &crowded(), 100, 0xAB2 + seed, 0.02);
            ok += out.qos_ok as usize;
            actions += out.actions;
        }
        println!("{name}: qos_ok {ok}/5, {:.1} mean actions", actions as f64 / 5.0);
        rows.push(Row {
            study: "withdrawal".into(),
            setting: name.into(),
            metric: "mean_actions".into(),
            value: actions as f64 / 5.0,
        });
        rows.push(Row {
            study: "withdrawal".into(),
            setting: name.into(),
            metric: "qos_rate".into(),
            value: ok as f64 / 5.0,
        });
    }
}

/// Sampling window before Model-A runs (§V-B: 2 s default; shorter windows
/// sample cache-warmup transients).
fn interval(rows: &mut Vec<Row>) {
    println!("--- ablation: profiling window before Model-A ---");
    let template = trained_suite();
    for window in [0.5f64, 1.0, 2.0, 4.0] {
        let mut qos_ok = 0usize;
        let mut actions = 0usize;
        const SEEDS: [u64; 5] = [1, 2, 3, 4, 5];
        for seed in SEEDS {
            let mut sched = template
                .clone()
                .with_config(OsmlConfig { sampling_window_s: window, ..OsmlConfig::default() });
            // Noise on: short windows sample cache-warmup transients, which
            // corrupts Model-A's inputs (§V-B's rationale for 2 s).
            let out = run_colocation_with_noise(&mut sched, &mix(), 60, 0xAB3 + seed, 0.02);
            qos_ok += out.qos_ok as usize;
            actions += out.actions;
        }
        println!(
            "window {window:.1}s: qos_ok {qos_ok}/5 runs, {:.1} mean actions",
            actions as f64 / 5.0
        );
        rows.push(Row {
            study: "interval".into(),
            setting: format!("{window}"),
            metric: "mean_actions".into(),
            value: actions as f64 / SEEDS.len() as f64,
        });
    }
}

/// Model-B matching width (Algorithm 1 line 17: at most 3 apps involved).
fn bpoint_depth(rows: &mut Vec<Row>) {
    println!("--- ablation: B-point matching width ---");
    let template = trained_suite();
    for depth in [1usize, 2, 3] {
        let mut ok = 0usize;
        let mut actions = 0usize;
        for seed in 0..5u64 {
            let mut sched = template
                .clone()
                .with_config(OsmlConfig { max_deprived_apps: depth, ..OsmlConfig::default() });
            let out = run_colocation_with_noise(&mut sched, &crowded(), 120, 0xAB4 + seed, 0.02);
            ok += out.qos_ok as usize;
            actions += out.actions;
        }
        println!("depth {depth}: qos_ok {ok}/5, {:.1} mean actions", actions as f64 / 5.0);
        rows.push(Row {
            study: "bpoint-depth".into(),
            setting: depth.to_string(),
            metric: "qos_rate".into(),
            value: ok as f64 / 5.0,
        });
    }
}

fn main() {
    let which = std::env::args().nth(1);
    let mut rows = Vec::new();
    let all = which.is_none();
    let is = |name: &str| all || which.as_deref() == Some(name);
    if is("margin") {
        margin(&mut rows);
    }
    if is("model-c-only") {
        model_c_only(&mut rows);
    }
    if is("withdrawal") {
        withdrawal(&mut rows);
    }
    if is("interval") {
        interval(&mut rows);
    }
    if is("bpoint-depth") {
        bpoint_depth(&mut rows);
    }
    let path = report::save_json("ablations", &rows);
    println!("saved {}", path.display());
}
