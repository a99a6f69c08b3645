//! Fig. 3: the OAA exists regardless of the number of concurrent threads.
//! More threads raise overall latency (context switching, §III-B) but
//! barely move the optimal allocation area.

use osml_bench::report;
use osml_platform::Topology;
use osml_workloads::oaa::{AllocPoint, LatencyGrid};
use osml_workloads::Service;
use serde::Serialize;

#[derive(Serialize)]
struct ThreadCase {
    service: String,
    offered_rps: f64,
    threads: usize,
    oaa: Option<AllocPoint>,
    /// p95 at the thread-invariant reference allocation, ms.
    p95_at_reference_ms: f64,
}

pub(super) fn run(_smoke: bool) {
    let topo = Topology::xeon_e5_2697_v4();
    let cases = [(Service::Moses, 1800.0), (Service::Xapian, 4400.0), (Service::ImgDnn, 4000.0)];
    let thread_counts = [8usize, 16, 20, 28, 36];
    println!("== Fig. 3: OAA vs number of launched threads ==\n");
    let mut out = Vec::new();
    let mut rows = Vec::new();
    for (service, rps) in cases {
        // Reference allocation: the OAA of the default thread count.
        let reference = LatencyGrid::sweep(&topo, service, service.params().default_threads, rps)
            .oaa()
            .expect("case is feasible");
        for &threads in &thread_counts {
            let grid = LatencyGrid::sweep(&topo, service, threads, rps);
            let oaa = grid.oaa();
            let p95 = grid.p95(reference);
            rows.push(vec![
                service.name().to_owned(),
                threads.to_string(),
                oaa.map(|p| format!("({}, {})", p.cores, p.ways)).unwrap_or("-".into()),
                format!("{p95:.2}"),
            ]);
            out.push(ThreadCase {
                service: service.name().to_owned(),
                offered_rps: rps,
                threads,
                oaa,
                p95_at_reference_ms: p95,
            });
        }
    }
    println!(
        "{}",
        report::render_table(
            &["service", "threads", "OAA (cores, ways)", "p95 @ reference alloc (ms)"],
            &rows
        )
    );
    println!("Expected shape: per service, the OAA column is nearly constant while the");
    println!("latency column rises gently with thread count (context-switch overhead).");
    report::save_json("fig3_oaa_threads", &out);
}
