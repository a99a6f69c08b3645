//! Fig. 1: sensitivity to resource allocation — p95 latency over the
//! (cores, ways) plane with the RCliff frontier and OAA marked, for the six
//! services the paper showcases.

use osml_bench::report;
use osml_platform::Topology;
use osml_workloads::oaa::{AllocPoint, LatencyGrid};
use osml_workloads::Service;
use serde::Serialize;

#[derive(Serialize)]
struct Panel {
    service: String,
    offered_rps: f64,
    threads: usize,
    rcliff: Option<AllocPoint>,
    oaa: Option<AllocPoint>,
    cliff_magnitude: f64,
    /// p95 (ms) for cores 1..=36 x ways 1..=20, row-major by cores.
    p95_ms: Vec<f64>,
}

fn render_panel(grid: &LatencyGrid) {
    let qos = grid.service.params().qos_ms;
    let frontier = grid.rcliff_frontier();
    println!(
        "--- {} @ {:.0} RPS (QoS {} ms) — rcliff {:?}, OAA {:?}, cliff magnitude {:.0}x ---",
        grid.service,
        grid.offered_rps,
        qos,
        grid.rcliff(),
        grid.oaa(),
        grid.cliff_magnitude()
    );
    // Compact glyph heatmap: rows = cores (descending, subsampled), cols =
    // ways. '#': > 100x QoS (deep cliff), 'x': violating, '.': within QoS,
    // 'O': the OAA cell, '|': the cliff frontier cell of that row.
    let oaa = grid.oaa();
    print!("cores\\ways ");
    for w in 1..=grid.max_ways {
        print!("{}", if w % 5 == 0 { (w / 5).to_string() } else { " ".into() });
    }
    println!("  (way tens-digit ruler)");
    for cores in (1..=grid.max_cores).rev().step_by(2) {
        print!("{cores:>10} ");
        for ways in 1..=grid.max_ways {
            let p = AllocPoint::new(cores, ways);
            let v = grid.p95(p);
            let is_oaa = oaa == Some(p);
            let is_frontier = frontier[cores - 1] == Some(ways);
            let c = if is_oaa {
                'O'
            } else if is_frontier {
                '|'
            } else if v > 100.0 * qos {
                '#'
            } else if v > qos {
                'x'
            } else {
                '.'
            };
            print!("{c}");
        }
        println!();
    }
    println!();
}

pub(super) fn run(_smoke: bool) {
    let topo = Topology::xeon_e5_2697_v4();
    // The services and loads of Fig. 1's panels (moderate Table-1 loads).
    let cases = [
        (Service::Moses, 2200.0),
        (Service::ImgDnn, 4000.0),
        (Service::Xapian, 4400.0),
        (Service::Sphinx, 8.0),
        (Service::Masstree, 3400.0),
        (Service::MongoDb, 5000.0),
    ];
    let mut panels = Vec::new();
    println!("== Fig. 1: RCliff heatmaps ('#' = >100x QoS, 'x' = violating, '.' = ok, '|' = cliff frontier, 'O' = OAA) ==\n");
    for (service, rps) in cases {
        let grid = LatencyGrid::sweep(&topo, service, service.params().default_threads, rps);
        render_panel(&grid);
        panels.push(Panel {
            service: service.name().to_owned(),
            offered_rps: rps,
            threads: service.params().default_threads,
            rcliff: grid.rcliff(),
            oaa: grid.oaa(),
            cliff_magnitude: grid.cliff_magnitude(),
            p95_ms: grid.p95_ms.clone(),
        });
    }
    // The paper's headline example: Moses at 6 cores loses one way.
    let moses = LatencyGrid::sweep(&topo, Service::Moses, 16, 2200.0);
    if let Some(cliff) = moses.rcliff() {
        let on = moses.p95(cliff);
        let off = moses.p95(AllocPoint::new(cliff.cores, cliff.ways.saturating_sub(1).max(1)));
        println!(
            "Moses at its cliff <{} cores, {} ways>: {:.0} ms -> {:.0} ms when one way is deprived (paper: 34 -> 4644 ms)",
            cliff.cores, cliff.ways, on, off
        );
    }
    report::save_json("fig1_rcliff_heatmap", &panels);
}
