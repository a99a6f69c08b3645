//! Quickstart: train the OSML model suite, co-locate two latency-critical
//! services on the simulated testbed, and watch the controller keep both
//! within QoS.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use osml::bench::scenario::bootstrap_allocation;
use osml::bench::suite::trained_suite;
use osml::platform::{Scheduler, Substrate};
use osml::workloads::{LaunchSpec, Service, SimServer};

fn main() {
    // 1. Train Model-A/B/B'/C from simulator sweeps (seconds; deterministic).
    println!("training the OSML model suite...");
    let mut osml = trained_suite();

    // 2. Boot a simulated 36-core / 20-way Xeon and launch two services.
    let mut server = SimServer::deterministic();
    for (service, pct) in [(Service::Moses, 40.0), (Service::Xapian, 40.0)] {
        let spec = LaunchSpec::at_percent_load(service, pct);
        let alloc = bootstrap_allocation(&mut server, spec.threads);
        let id = server.launch(spec, alloc).expect("bootstrap allocation is valid");
        server.advance(1.0);
        let placement = osml.on_arrival(&mut server, id);
        let prediction = osml.prediction(id).expect("profiled on arrival");
        println!(
            "{service} @ {pct:.0}% load: {placement:?}; Model-A says OAA = <{} cores, {} ways>, RCliff = <{}, {}>",
            prediction.oaa.cores, prediction.oaa.ways,
            prediction.rcliff.cores, prediction.rcliff.ways,
        );
    }

    // 3. Let the 1 Hz monitoring loop run and report the steady state.
    for _ in 0..30 {
        server.advance(1.0);
        osml.tick(&mut server);
    }
    println!("\nafter 30 s of monitoring ({} scheduling actions):", osml.action_count());
    for id in server.apps() {
        let lat = server.latency(id).expect("placed");
        let alloc = server.allocation(id).expect("placed");
        println!(
            "  {:<8} p95 {:>6.2} ms / target {:>5.1} ms  [{} cores, {} ways]  QoS {}",
            server.service_of(id).expect("placed").to_string(),
            lat.p95_ms,
            lat.qos_target_ms,
            alloc.cores.count(),
            alloc.ways.count(),
            if lat.violates_qos() { "VIOLATED" } else { "met" },
        );
    }
}
