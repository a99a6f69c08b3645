//! Fig. 14: the dynamic-load timeline — Moses arrives at 50 %, Img-dnn and
//! Xapian at 40 %, MongoDB joins at t=80 s, Login at t=160 s, the unseen
//! Txt-index at t=190 s, and Xapian's load steps up at t=224 s. OSML should
//! re-stabilize quickly after each disturbance; PARTIES lags and may have to
//! migrate services away.

use osml_baselines::Parties;
use osml_bench::report;
use osml_bench::suite::trained_suite;
use osml_bench::timeline::{run_timeline, TimelineRecord, TimelineSummary};
use osml_workloads::loadgen::ArrivalScript;

fn print_trace(name: &str, records: &[TimelineRecord]) {
    println!("--- {name} ---");
    println!("time  actions  service=latency/target (cores,ways)");
    for r in records.iter().step_by(20) {
        let svc: Vec<String> = r
            .services
            .iter()
            .map(|s| format!("{}={:.1}x({},{})", s.service, s.latency_over_target, s.cores, s.ways))
            .collect();
        let migrated = if r.migrated.is_empty() {
            String::new()
        } else {
            format!(
                "  [migrated: {}]",
                r.migrated.iter().map(|s| s.to_string()).collect::<Vec<_>>().join(",")
            )
        };
        println!("{:>4.0}  {:>7}  {}{}", r.time_s, r.actions, svc.join("  "), migrated);
    }
    println!();
}

fn main() {
    let script = ArrivalScript::fig14();
    println!("== Fig. 14: dynamic load timeline ==\n");

    let mut parties = Parties::new();
    let parties_records = run_timeline(&mut parties, &script, 0x14);
    print_trace("parties", &parties_records);

    let mut osml = trained_suite();
    let osml_records = run_timeline(&mut osml, &script, 0x14);
    print_trace("osml", &osml_records);

    let summaries = vec![
        TimelineSummary::from_records("parties", &parties_records),
        TimelineSummary::from_records("osml", &osml_records),
    ];
    for s in &summaries {
        println!("{s:?}");
    }
    println!("\nExpected shape (paper): OSML re-stabilizes within a few actions after each");
    println!("arrival/load change and handles the unseen txt-index; PARTIES churns through");
    println!("many more actions and keeps Moses in violation until it is migrated.");
    report::save_json("fig14_dynamic_load_parties", &parties_records);
    report::save_json("fig14_dynamic_load_osml", &osml_records);
    let path = report::save_json("fig14_summaries", &summaries);
    println!("saved {}", path.display());
}
