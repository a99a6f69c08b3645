//! The paper's Fig. 14 scenario as a runnable demo: six services arrive over
//! five minutes (including the never-trained-on txt-index), loads step, and
//! OSML re-stabilizes after every disturbance while PARTIES churns.
//!
//! ```sh
//! cargo run --release --example dynamic_load
//! ```

use osml::baselines::Parties;
use osml::bench::suite::trained_suite;
use osml::bench::timeline::{run_timeline, TimelineSummary};
use osml::workloads::loadgen::ArrivalScript;

fn main() {
    let script = ArrivalScript::fig14();
    println!("arrival script:");
    for e in &script.events {
        println!(
            "  t={:>3.0}s  {} ({} threads, {:.0} RPS at arrival)",
            e.arrive_s,
            e.service,
            e.threads,
            e.load.rps_at(e.arrive_s)
        );
    }

    println!("\nrunning PARTIES...");
    let mut parties = Parties::new();
    let parties_records = run_timeline(&mut parties, &script, 42);

    println!("training and running OSML...");
    let mut osml = trained_suite();
    let osml_records = run_timeline(&mut osml, &script, 42);

    println!(
        "\n{:<8} {:>8} {:>12} {:>10} {:>10} {:>10}",
        "policy", "actions", "peak lat/tgt", "qos frac", "migrations", "last viol"
    );
    for (name, records) in [("parties", &parties_records), ("osml", &osml_records)] {
        let s = TimelineSummary::from_records(name, records);
        println!(
            "{:<8} {:>8} {:>11.1}x {:>9.1}% {:>10} {:>9}s",
            s.policy,
            s.total_actions,
            s.peak_violation,
            s.qos_fraction * 100.0,
            s.migrations,
            s.last_violation_s.map(|t| format!("{t:.0}")).unwrap_or("-".into()),
        );
    }

    println!("\nOSML timeline (every 30 s):");
    for r in osml_records.iter().step_by(30) {
        let svc: Vec<String> = r
            .services
            .iter()
            .map(|s| format!("{}={:.1}x", s.service, s.latency_over_target))
            .collect();
        println!("  t={:>3.0} actions={:>3}  {}", r.time_s, r.actions, svc.join("  "));
    }
}
