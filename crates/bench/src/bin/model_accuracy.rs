//! §IV / §VI-D(1): model accuracy — how close Model-A's OAA/RCliff
//! predictions land to ground truth on held-out loads, and Model-B′'s
//! slowdown pricing error.

use osml_bench::report;
use osml_dataset::{train_model_a, train_model_b_prime, FeatureProbe, TrainingConfig};
use osml_models::Scratch;
use osml_platform::Topology;
use osml_workloads::oaa::LatencyGrid;
use osml_workloads::Service;
use serde::Serialize;

#[derive(Serialize)]
struct AccuracyRow {
    service: String,
    held_out_rps: f64,
    truth_oaa: (usize, usize),
    predicted_oaa: (usize, usize),
    cores_error: i64,
    ways_error: i64,
}

fn main() {
    println!("== Model accuracy on held-out loads ==\n");
    let cfg = TrainingConfig::default();
    let (model_a, report_a) = train_model_a(&cfg);
    println!(
        "model-a training: {} epochs, final val metrics {:?}",
        report_a.epoch_losses.len(),
        report_a.validation_metrics
    );
    let (model_bp, report_bp) = train_model_b_prime(&cfg);
    println!("model-b' training: final val metrics {:?}\n", report_bp.validation_metrics);

    let topo = Topology::xeon_e5_2697_v4();
    let mut scratch = Scratch::default();
    // Held-out loads: Table-1 indices 1 and 3 were never in the default
    // sweep (which uses 0, 2, 4 plus fractions).
    let mut rows = Vec::new();
    for service in Service::table1() {
        for &idx in &[1usize, 3] {
            let Some(&rps) = service.params().table1_rps.get(idx) else { continue };
            let threads = service.params().default_threads;
            let grid = LatencyGrid::sweep(&topo, *service, threads, rps);
            let Some(truth) = grid.oaa() else { continue };
            let mut probe = FeatureProbe::new(*service, threads, rps, 0.0, 0xACC);
            let sample = probe.sample_at(12, 10);
            let pred = model_a.predict(&sample, &mut scratch);
            rows.push(AccuracyRow {
                service: service.name().to_owned(),
                held_out_rps: rps,
                truth_oaa: (truth.cores, truth.ways),
                predicted_oaa: (pred.oaa.cores, pred.oaa.ways),
                cores_error: pred.oaa.cores as i64 - truth.cores as i64,
                ways_error: pred.oaa.ways as i64 - truth.ways as i64,
            });
        }
    }
    println!(
        "{}",
        report::render_table(
            &["service", "rps", "truth OAA", "predicted OAA", "Δcores", "Δways"],
            &rows
                .iter()
                .map(|r| vec![
                    r.service.clone(),
                    format!("{:.0}", r.held_out_rps),
                    format!("{:?}", r.truth_oaa),
                    format!("{:?}", r.predicted_oaa),
                    r.cores_error.to_string(),
                    r.ways_error.to_string(),
                ])
                .collect::<Vec<_>>()
        )
    );
    let n = rows.len() as f64;
    let mae_c = rows.iter().map(|r| r.cores_error.abs() as f64).sum::<f64>() / n;
    let mae_w = rows.iter().map(|r| r.ways_error.abs() as f64).sum::<f64>() / n;
    let within2 =
        rows.iter().filter(|r| r.cores_error.abs() <= 2 && r.ways_error.abs() <= 2).count() as f64
            / n;
    println!(
        "OAA MAE: {mae_c:.2} cores, {mae_w:.2} ways; within +/-2 of truth: {:.0}%",
        within2 * 100.0
    );

    // Model-B' spot check: pricing a known deprivation for Moses.
    let grid = LatencyGrid::sweep(&topo, Service::Moses, 16, 2400.0);
    if let Some(oaa) = grid.oaa() {
        let mut probe = FeatureProbe::new(Service::Moses, 16, 2400.0, 0.0, 0xACD);
        let sample = probe.sample_at(oaa.cores, oaa.ways);
        for (dc, dw) in [(1usize, 0usize), (2, 1), (4, 2)] {
            let truth_p = osml_workloads::oaa::AllocPoint::new(
                oaa.cores.saturating_sub(dc).max(1),
                oaa.ways.saturating_sub(dw).max(1),
            );
            let truth = (grid.p95(truth_p) / grid.p95(oaa) - 1.0).clamp(0.0, 2.0);
            let pred = model_bp.predict(&sample, dc, dw, &mut scratch);
            println!(
                "model-b' moses deprive ({dc},{dw}): predicted slowdown {pred:.3}, ground truth {truth:.3}"
            );
        }
    }
    let path = report::save_json("model_accuracy", &rows);
    println!("saved {}", path.display());
}
