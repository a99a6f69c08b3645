//! Fig. 13: resource usage while scheduling the Fig. 10 workloads — OSML
//! converges with fewer actions and leaves more idle cores/ways than
//! PARTIES.

use osml_baselines::Parties;
use osml_bench::report;
use osml_bench::suite::trained_suite;
use osml_bench::timeline::{run_timeline, TimelineSummary};
use osml_platform::Scheduler;
use osml_workloads::loadgen::ArrivalScript;
use serde::Serialize;

#[derive(Serialize)]
struct UsageSeries {
    policy: String,
    time_s: Vec<f64>,
    idle_cores: Vec<usize>,
    idle_ways: Vec<usize>,
    actions: Vec<usize>,
}

fn run<Sched: Scheduler>(name: &str, sched: &mut Sched) -> (UsageSeries, TimelineSummary) {
    let script = ArrivalScript::fig4(); // the Fig. 10 workloads
    let records = run_timeline(sched, &script, 0x13);
    let series = UsageSeries {
        policy: name.to_owned(),
        time_s: records.iter().map(|r| r.time_s).collect(),
        idle_cores: records.iter().map(|r| r.idle_cores).collect(),
        idle_ways: records.iter().map(|r| r.idle_ways).collect(),
        actions: records.iter().map(|r| r.actions).collect(),
    };
    let summary = TimelineSummary::from_records(name, &records);
    (series, summary)
}

fn main() {
    println!("== Fig. 13: resource usage during scheduling (img-dnn + xapian + moses @40%) ==\n");
    let mut parties = Parties::new();
    let (parties_series, parties_summary) = run("parties", &mut parties);
    let mut osml = trained_suite();
    let (osml_series, osml_summary) = run("osml", &mut osml);

    println!("time   parties: idle-c idle-w actions | osml: idle-c idle-w actions");
    for i in (0..parties_series.time_s.len().min(osml_series.time_s.len())).step_by(10) {
        println!(
            "{:>4.0}   {:>14} {:>6} {:>7} | {:>11} {:>6} {:>7}",
            parties_series.time_s[i],
            parties_series.idle_cores[i],
            parties_series.idle_ways[i],
            parties_series.actions[i],
            osml_series.idle_cores[i],
            osml_series.idle_ways[i],
            osml_series.actions[i],
        );
    }
    println!("\nparties: {parties_summary:?}");
    println!("osml:    {osml_summary:?}");
    println!("\nExpected shape (paper): OSML reaches its steady allocation in a handful of");
    println!("actions and keeps more cores/ways idle for future services; PARTIES keeps");
    println!("trialing units for tens of seconds.");
    let path = report::save_json("fig13_resource_usage", &vec![parties_series, osml_series]);
    println!("saved {}", path.display());
}
