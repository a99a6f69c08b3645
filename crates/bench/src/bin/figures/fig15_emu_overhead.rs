//! Fig. 15: OSML's headline numbers against PARTIES — EMU (effective
//! machine utilization) and scheduling actions (paper: higher EMU, ≈1/5 the
//! actions). On this grid, Fig. 10's services at 20 % steps, PARTIES' EMU is
//! the higher (0.432 vs 0.384) where Fig. 10's 10 % steps put OSML ahead, so
//! the ordering depends on grid resolution; OSML takes ≈1/2.4 of PARTIES'
//! actions.

use super::colocation;
use osml_baselines::Parties;
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

pub(super) fn run(_smoke: bool) {
    println!("== Fig. 15: EMU and scheduling overhead ==\n");
    // EMU over a coarse Fig. 10-style grid (25 cells keeps this quick).
    let steps = [20, 40, 60, 80, 100];
    let grids =
        colocation::grids(Service::ImgDnn, Service::Xapian, Service::Moses, &[], &steps, false);
    let emu: Vec<(String, f64)> = grids.iter().map(|g| (g.policy.clone(), g.mean_emu())).collect();
    for (name, v) in &emu {
        println!("EMU[{name}] = {v:.3}");
    }

    // Scheduling overhead: total actions over the Fig. 14 dynamic scenario.
    let script = ArrivalScript::fig14();
    let mut parties_sched = Parties::new();
    let parties_actions =
        TimelineSummary::from_records("parties", &run_timeline(&mut parties_sched, &script, 0x15))
            .total_actions;
    let mut osml_sched = trained_suite();
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
    report::save_json("fig15_emu_overhead", &out);
}
