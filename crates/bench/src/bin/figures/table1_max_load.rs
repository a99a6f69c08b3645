//! Table 1 + Table 2: per-service maximum load at the 95th-percentile QoS
//! target, measured on the simulated testbed, against the paper's numbers;
//! plus the platform spec.

use osml_bench::report;
use osml_platform::{ServerSpec, Topology};
use osml_workloads::{oaa, Service, ALL_SERVICES};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    service: String,
    domain: String,
    table1_max_rps: f64,
    measured_max_rps: f64,
    ratio: f64,
    qos_ms: f64,
}

pub(super) fn run(_smoke: bool) {
    let topo = Topology::xeon_e5_2697_v4();
    println!("== Table 2: platform specification ==");
    for spec in [ServerSpec::xeon_e5_2697_v4(), ServerSpec::i7_860()] {
        println!(
            "{}: {} physical / {} logical cores @ {} GHz, {} MB {}-way LLC, {} GB/s, {} GB DRAM",
            spec.cpu_model,
            spec.physical_cores,
            spec.physical_cores * spec.threads_per_core,
            spec.frequency_ghz,
            spec.llc_mb,
            spec.llc_ways,
            spec.memory_bw_gbps,
            spec.memory_gb
        );
    }
    println!();
    println!("== Table 1: max load (RPS) with the 95th-percentile QoS target ==");
    let rows: Vec<Row> = ALL_SERVICES
        .into_iter()
        .filter(|s| Service::table1().contains(s))
        .map(|s| {
            let p = s.params();
            let measured = oaa::max_load(&topo, s);
            Row {
                service: s.name().to_owned(),
                domain: p.domain.to_owned(),
                table1_max_rps: p.nominal_max_rps(),
                measured_max_rps: measured,
                ratio: measured / p.nominal_max_rps(),
                qos_ms: p.qos_ms,
            }
        })
        .collect();
    let table = report::render_table(
        &["service", "domain", "paper max", "measured max", "ratio", "QoS (ms)"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.service.clone(),
                    r.domain.clone(),
                    format!("{:.0}", r.table1_max_rps),
                    format!("{:.0}", r.measured_max_rps),
                    format!("{:.2}", r.ratio),
                    format!("{:.1}", r.qos_ms),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("{table}");
    report::save_json("table1_max_load", &rows);
}
