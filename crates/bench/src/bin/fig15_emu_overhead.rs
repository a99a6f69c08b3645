//! Fig. 15: OSML's headline numbers — higher EMU (effective machine
//! utilization) than PARTIES and roughly 1/5 the scheduling actions.

use osml_baselines::{Parties, Unmanaged};
use osml_bench::grid::colocation_grid;
use osml_bench::report;
use osml_bench::suite::trained_suite;
use osml_bench::timeline::{run_timeline, TimelineSummary};
use osml_workloads::loadgen::ArrivalScript;
use osml_workloads::Service;
use serde::Serialize;

#[derive(Serialize)]
struct Fig15 {
    emu: Vec<(String, f64)>,
    actions: Vec<(String, usize)>,
    action_ratio_parties_over_osml: f64,
}

fn main() {
    println!("== Fig. 15: EMU and scheduling overhead ==\n");
    // EMU over a coarse Fig. 10-style grid (25 cells keeps this quick).
    let steps: Vec<usize> = vec![20, 40, 60, 80, 100];
    let settle = 60;
    let (x, y, probe) = (Service::ImgDnn, Service::Xapian, Service::Moses);
    let osml_template = trained_suite();

    let mut emu = Vec::new();
    let unmanaged = colocation_grid("unmanaged", Unmanaged::new, x, y, probe, &[], &steps, settle);
    emu.push(("unmanaged".to_owned(), unmanaged.mean_emu()));
    let parties = colocation_grid("parties", Parties::new, x, y, probe, &[], &steps, settle);
    emu.push(("parties".to_owned(), parties.mean_emu()));
    let osml = colocation_grid("osml", || osml_template.clone(), x, y, probe, &[], &steps, settle);
    emu.push(("osml".to_owned(), osml.mean_emu()));

    for (name, v) in &emu {
        println!("EMU[{name}] = {v:.3}");
    }

    // Scheduling overhead: total actions over the Fig. 14 dynamic scenario.
    let script = ArrivalScript::fig14();
    let mut parties_sched = Parties::new();
    let parties_actions =
        TimelineSummary::from_records("parties", &run_timeline(&mut parties_sched, &script, 0x15))
            .total_actions;
    let mut osml_sched = osml_template.clone();
    let osml_actions =
        TimelineSummary::from_records("osml", &run_timeline(&mut osml_sched, &script, 0x15))
            .total_actions;
    let ratio = parties_actions as f64 / osml_actions.max(1) as f64;
    println!("\nscheduling actions over the Fig. 14 scenario:");
    println!("  parties: {parties_actions}");
    println!("  osml:    {osml_actions}");
    println!("  ratio:   {ratio:.1}x (paper: OSML needs ~1/5 of PARTIES' actions)");

    let out = Fig15 {
        emu,
        actions: vec![("parties".into(), parties_actions), ("osml".into(), osml_actions)],
        action_ratio_parties_over_osml: ratio,
    };
    let path = report::save_json("fig15_emu_overhead", &out);
    println!("saved {}", path.display());
}
