//! Fig. 4: a heuristic (PARTIES-style) scheduler untangling three co-located
//! services by fine-grained trial and error — latency spikes of hundreds of
//! times the target and a long convergence tail, because the scheduler is
//! blind to RCliffs.

use osml_baselines::Parties;
use osml_bench::report;
use osml_bench::timeline::{run_timeline, TimelineSummary};
use osml_workloads::loadgen::ArrivalScript;

pub(super) fn run(_smoke: bool) {
    let script = ArrivalScript::fig4();
    let mut parties = Parties::new();
    let records = run_timeline(&mut parties, &script, 0x04);
    println!("== Fig. 4: heuristic scheduling of img-dnn + xapian + moses (40% load each) ==\n");
    println!("time  actions  idle-cores  per-service latency/target");
    for r in records.iter().step_by(5) {
        let lat: Vec<String> = r
            .services
            .iter()
            .map(|s| format!("{}={:.1}x", s.service, s.latency_over_target))
            .collect();
        println!("{:>4.0}  {:>7}  {:>10}  {}", r.time_s, r.actions, r.idle_cores, lat.join("  "));
    }
    let summary = TimelineSummary::from_records("parties", &records);
    println!("\nsummary: {summary:?}");
    println!("\nExpected shape (paper): latency spiking to hundreds of times the target during");
    println!("exploration, convergence only after tens of seconds, many scheduling actions.");
    report::save_json("fig4_heuristic_trace", &records);
}
