//! Co-locate a set of services under all four policies — Unmanaged, PARTIES,
//! OSML, and the Oracle — and compare steady-state QoS, allocations and
//! scheduling overhead (a single cell of the paper's Figs. 10–12).
//!
//! ```sh
//! cargo run --release --example colocate_services
//! # or pick your own mix (service:load_pct, comma-separated):
//! cargo run --release --example colocate_services moses:50,img-dnn:40,xapian:30
//! ```

use osml::baselines::{Oracle, Parties, Unmanaged};
use osml::bench::run_colocation;
use osml::bench::suite::trained_suite;
use osml::platform::Scheduler;
use osml::workloads::{LaunchSpec, Service};

fn parse_mix(arg: Option<String>) -> Vec<LaunchSpec> {
    let default = "moses:40,img-dnn:40,xapian:20";
    let text = arg.unwrap_or_else(|| default.to_owned());
    text.split(',')
        .map(|part| {
            let (name, pct) = part.split_once(':').expect("format: service:pct");
            let service = Service::from_name(name.trim())
                .unwrap_or_else(|| panic!("unknown service '{name}'"));
            let pct: f64 = pct.trim().parse().expect("load must be a number");
            LaunchSpec::at_percent_load(service, pct)
        })
        .collect()
}

fn report<Sched: Scheduler>(name: &str, mut sched: Sched, specs: &[LaunchSpec], settle: usize) {
    let out = run_colocation(&mut sched, specs, settle, 0xC0C0);
    println!(
        "{name:<10} success={} actions={:>3}",
        if out.success() { "yes" } else { "NO " },
        out.actions
    );
    for a in &out.apps {
        println!(
            "    {:<10} p95 {:>8.2} ms / {:>6.1} ms  [{} cores, {} ways]  {}",
            a.service.to_string(),
            a.p95_ms,
            a.qos_ms,
            a.cores,
            a.ways,
            if a.qos_met { "ok" } else { "VIOLATED" }
        );
    }
}

fn main() {
    let specs = parse_mix(std::env::args().nth(1));
    println!("co-locating:");
    for s in &specs {
        println!("  {} @ {:.0} RPS", s.service, s.offered_rps);
    }
    println!();

    report("unmanaged", Unmanaged::new(), &specs, 30);
    report("parties", Parties::new(), &specs, 120);
    println!("(training OSML's models...)");
    report("osml", trained_suite(), &specs, 60);

    print!("oracle     ");
    match Oracle::new().best_partition(&specs) {
        Some(plan) => {
            println!("feasible with static partition:");
            for (spec, (c, w)) in specs.iter().zip(&plan.shares) {
                println!("    {:<10} [{} cores, {} ways]", spec.service.to_string(), c, w);
            }
        }
        None => println!("infeasible: no static partition meets every QoS"),
    }
}
