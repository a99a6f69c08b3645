//! Fig. 2: sensitivity of the RCliff to the offered load. The cliff persists
//! at every Table-1 RPS and shifts outward as load grows; the paper reports
//! an average positional variation of 8.80 % (Moses max 15.0 %, MongoDB min
//! 2.77 %).

use osml_bench::report;
use osml_platform::Topology;
use osml_workloads::oaa::{rcliff_shift, AllocPoint};
use osml_workloads::Service;
use serde::Serialize;

#[derive(Serialize)]
struct ServiceShift {
    service: String,
    points: Vec<(f64, Option<AllocPoint>)>,
    /// Mean relative step of the cliff's total resources between adjacent
    /// loads (the paper's "variation").
    mean_variation_pct: f64,
}

pub(super) fn run(_smoke: bool) {
    let topo = Topology::xeon_e5_2697_v4();
    let services = [
        Service::Moses,
        Service::ImgDnn,
        Service::Xapian,
        Service::Specjbb,
        Service::Sphinx,
        Service::MongoDb,
    ];
    println!("== Fig. 2: RCliff position across Table-1 loads ==\n");
    let mut out = Vec::new();
    let mut rows = Vec::new();
    for service in services {
        let points = rcliff_shift(&topo, service);
        let feasible: Vec<(f64, AllocPoint)> =
            points.iter().filter_map(|&(rps, p)| p.map(|p| (rps, p))).collect();
        let mut variations = Vec::new();
        for pair in feasible.windows(2) {
            let (a, b) = (pair[0].1, pair[1].1);
            let step = (b.total() as f64 - a.total() as f64).abs() / a.total() as f64;
            variations.push(step * 100.0);
        }
        let mean_variation = if variations.is_empty() {
            0.0
        } else {
            variations.iter().sum::<f64>() / variations.len() as f64
        };
        rows.push(vec![
            service.name().to_owned(),
            feasible
                .iter()
                .map(|(rps, p)| format!("{rps:.0}:({},{})", p.cores, p.ways))
                .collect::<Vec<_>>()
                .join("  "),
            format!("{mean_variation:.1}%"),
        ]);
        out.push(ServiceShift {
            service: service.name().to_owned(),
            points,
            mean_variation_pct: mean_variation,
        });
    }
    println!(
        "{}",
        report::render_table(&["service", "rps:(cliff cores, ways)", "mean shift/step"], &rows)
    );
    let grand = out.iter().map(|s| s.mean_variation_pct).sum::<f64>() / out.len() as f64;
    println!(
        "mean per-step cliff variation across services: {grand:.1}% (paper reports 8.80% average)"
    );
    report::save_json("fig2_rcliff_vs_rps", &out);
}
