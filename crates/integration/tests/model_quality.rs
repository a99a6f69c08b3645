//! Cross-crate model-quality checks: models trained by `osml-dataset` must
//! reproduce the ground truth `osml-workloads` computes, on held-out loads.

use osml_dataset::{
    train_model_a, train_model_b, train_model_b_prime, FeatureProbe, TrainingConfig,
};
use osml_models::Scratch;
use osml_platform::Topology;
use osml_workloads::oaa::LatencyGrid;
use osml_workloads::Service;

fn cfg() -> TrainingConfig {
    TrainingConfig::default()
}

#[test]
fn model_a_generalizes_to_held_out_loads() {
    let (model, report) = train_model_a(&cfg());
    assert!(
        report.validation_metrics.expect("split held out").within_one > 0.9,
        "validation within-one too low: {:?}",
        report.validation_metrics
    );

    // Held-out loads: Table-1 indices 1 and 3 are not in the default sweep.
    let topo = Topology::xeon_e5_2697_v4();
    let mut total = 0usize;
    let mut close = 0usize;
    let mut scratch = Scratch::default();
    for service in [Service::Moses, Service::Xapian, Service::ImgDnn, Service::Masstree] {
        for idx in [1usize, 3] {
            let Some(&rps) = service.params().table1_rps.get(idx) else { continue };
            let threads = service.params().default_threads;
            let Some(truth) = LatencyGrid::sweep(&topo, service, threads, rps).oaa() else {
                continue;
            };
            let mut probe = FeatureProbe::new(service, threads, rps, 0.0, 77);
            let pred = model.predict(&probe.sample_at(12, 10), &mut scratch);
            total += 1;
            if (pred.oaa.cores as i64 - truth.cores as i64).abs() <= 4
                && (pred.oaa.ways as i64 - truth.ways as i64).abs() <= 4
            {
                close += 1;
            }
        }
    }
    assert!(close * 10 >= total * 6, "only {close}/{total} held-out OAA predictions within +/-4");
}

#[test]
fn model_b_offers_grow_with_the_budget() {
    let (model, _) = train_model_b(&cfg());
    let mut probe = FeatureProbe::new(Service::Specjbb, 36, 9000.0, 0.0, 78);
    let sample = probe.sample_at(20, 10);
    let mut scratch = Scratch::default();
    let tight = model.predict(&sample, 0.05, &mut scratch).most_generous().total();
    let loose = model.predict(&sample, 0.20, &mut scratch).most_generous().total();
    assert!(loose + 1 >= tight, "bigger budget must not shrink offers: {tight} vs {loose}");
}

#[test]
fn model_b_prime_prices_deeper_deprivations_higher() {
    let (model, _) = train_model_b_prime(&cfg());
    let mut probe = FeatureProbe::new(Service::Moses, 16, 2600.0, 0.0, 79);
    let sample = probe.sample_at(16, 10);
    let mut scratch = Scratch::default();
    let shallow = model.predict(&sample, 1, 1, &mut scratch);
    let deep = model.predict(&sample, 6, 5, &mut scratch);
    assert!(
        deep >= shallow - 0.02,
        "slowdown must not fall with deprivation depth: {shallow:.3} vs {deep:.3}"
    );
    // And the deep one should be clearly expensive for a loaded Moses.
    assert!(deep > 0.10, "deep deprivation of a loaded service must cost: {deep:.3}");
}

#[test]
fn rcliff_predictions_sit_at_or_below_the_oaa() {
    let (model, _) = train_model_a(&cfg());
    let mut scratch = Scratch::default();
    for service in [Service::Moses, Service::Xapian, Service::Specjbb] {
        let rps = service.params().nominal_max_rps() * 0.5;
        let mut probe = FeatureProbe::new(service, service.params().default_threads, rps, 0.0, 80);
        let pred = model.predict(&probe.sample_at(14, 10), &mut scratch);
        assert!(
            pred.rcliff.cores <= pred.oaa.cores + 1 && pred.rcliff.ways <= pred.oaa.ways + 1,
            "{service}: rcliff {:?} should not exceed oaa {:?}",
            pred.rcliff,
            pred.oaa
        );
    }
}
