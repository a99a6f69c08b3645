//! Cluster-level scheduling: the upper tier the paper defers to. Several
//! OSML-managed nodes accept a stream of services; a node that cannot keep
//! a service within QoS reports it, and the upper scheduler migrates it to
//! another node (Algorithm 4, line 9).
//!
//! ```sh
//! cargo run --release --example cluster_scheduling
//! ```

use osml::bench::suite::trained_suite;
use osml::scheduler::{Cluster, ClusterPlacement, OsmlConfig};
use osml::workloads::{LaunchSpec, Service};

fn main() {
    println!("training the OSML model suite (shared by every node)...");
    let template = trained_suite();
    let mut cluster = Cluster::new(3, template, OsmlConfig::default(), 0xC105);

    // A stream of arrivals that would overload any single node.
    let arrivals = [
        (Service::Moses, 50.0),
        (Service::ImgDnn, 60.0),
        (Service::Specjbb, 50.0),
        (Service::Xapian, 40.0),
        (Service::Memcached, 40.0),
        (Service::MongoDb, 40.0),
        (Service::Masstree, 30.0),
        (Service::Login, 20.0),
    ];
    let mut ids = Vec::new();
    for (service, pct) in arrivals {
        match cluster.submit(LaunchSpec::at_percent_load(service, pct)) {
            ClusterPlacement::Placed(h) => {
                println!("{service} @ {pct:.0}% -> node {}", h.node);
                ids.push((service, h.id));
            }
            ClusterPlacement::ClusterFull => {
                println!("{service} @ {pct:.0}% -> REJECTED (cluster full)");
            }
        }
        cluster.run(10.0);
    }

    cluster.run(60.0);
    println!(
        "\nafter settling: {} total scheduling actions, {} migrations",
        cluster.total_actions(),
        cluster.migrations()
    );
    for node in 0..cluster.len() {
        let on: Vec<String> = cluster.services_on(node).iter().map(|s| s.to_string()).collect();
        println!("  node {node}: {}", if on.is_empty() { "idle".into() } else { on.join(", ") });
    }
    let mut ok = 0;
    for (service, id) in &ids {
        if let Some(r) = cluster.latency_over_target(*id) {
            println!(
                "  {service:<10} p95/target = {r:.2}x {}",
                if r <= 1.0 { "" } else { " VIOLATED" }
            );
            ok += (r <= 1.0) as usize;
        }
    }
    println!("{ok}/{} placed services within QoS", ids.len());
}
