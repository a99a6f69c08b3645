//! The ledger's own guarantees at `--smoke` sizes: determinism per seed,
//! transparency of the observers, exact allocation counting, and agreement
//! between the names the program prints and `BENCHMARK.json`.

use osml_benchmark::alloc;
use osml_benchmark::churn::NodeChurn;
use osml_benchmark::fleet::ClusterFaults;
use osml_benchmark::logreplay::LogReplay;
use osml_benchmark::report::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use osml_benchmark::runner::{run_plain, run_traced, Args};
use osml_benchmark::stats::Better;
use osml_benchmark::steady::NodeSteady;
use osml_benchmark::traced::{Mode, Tracer};
use osml_benchmark::workload::{Round, Workload};
use serde::Deserialize;

fn one_round<W: Workload>(seed: u64) -> Round {
    let round = W::setup(seed, true).round(Mode::Plain);
    assert!(round.errors.is_empty(), "{}: {:?}", W::NAME, round.errors);
    round
}

fn seed_decides_the_work<W: Workload>() {
    let (a, again, b) = (one_round::<W>(11), one_round::<W>(11), one_round::<W>(12));
    assert_eq!(a.digest, again.digest, "{}: same seed, same digest", W::NAME);
    assert_eq!(a.counts, again.counts, "{}: same seed, same counts", W::NAME);
    assert_ne!(a.digest, b.digest, "{}: another seed, another digest", W::NAME);
    assert!(a.counts.steps > 0 && a.counts.ops > 0 && a.step_ns.len() as u64 == a.counts.steps);
}

#[test]
fn same_seed_same_digest_other_seed_other_digest() {
    seed_decides_the_work::<NodeSteady>();
    seed_decides_the_work::<NodeChurn>();
    seed_decides_the_work::<ClusterFaults>();
    seed_decides_the_work::<LogReplay>();
}

fn observers_are_transparent<W: Workload>() {
    let mut w = W::setup(5, true);
    let plain = w.round(Mode::Plain);
    let counted = w.round(Mode::Allocs);
    let mut tracer = Tracer::default();
    let traced = w.round(Mode::Traced(&mut tracer));
    for (what, r) in [("allocs", &counted), ("traced", &traced)] {
        assert_eq!(r.digest, plain.digest, "{} {what}: digest", W::NAME);
        assert_eq!(r.counts, plain.counts, "{} {what}: counts", W::NAME);
    }
    assert!(counted.allocs > 0 && plain.allocs == 0, "{}: only the armed round counts", W::NAME);
    // One `step` span per step, every other span parented inside one.
    let spans = tracer.spans();
    let steps = spans.iter().filter(|s| s.name == "step").count() as u64;
    assert_eq!(steps, plain.counts.steps);
    for s in spans {
        assert!(s.end_ns >= s.start_ns);
        match s.parent {
            None => assert_eq!(s.name, "step"),
            Some(p) => assert!(spans[p as usize].start_ns <= s.start_ns, "{}", s.name),
        }
    }
}

#[test]
fn traced_and_counted_rounds_equal_the_plain_round() {
    observers_are_transparent::<NodeSteady>();
    observers_are_transparent::<NodeChurn>();
    observers_are_transparent::<ClusterFaults>();
    observers_are_transparent::<LogReplay>();
}

#[test]
fn counting_allocator_counts_a_known_pattern_exactly() {
    let (allocs0, bytes0) = alloc::counts();
    let ignored = vec![0u8; 4096];
    alloc::arm();
    // `black_box` keeps the optimizer from eliding the heap allocations.
    let boxed = std::hint::black_box(Box::new(7u64));
    let mut v: Vec<u8> = std::hint::black_box(Vec::with_capacity(100));
    v.extend_from_slice(&[1; 100]);
    v.reserve_exact(100); // one realloc, to 200 bytes
    let v = std::hint::black_box(v);
    alloc::disarm();
    let after = vec![0u8; 4096];
    let (allocs, bytes) = alloc::counts();
    assert_eq!((allocs - allocs0, bytes - bytes0), (3, 8 + 100 + 200));
    drop((ignored, boxed, v, after));
}

#[derive(Deserialize)]
struct Listed {
    name: String,
    unit: String,
    better: String,
}

#[derive(Deserialize)]
struct ListedWorkload {
    name: String,
}

#[derive(Deserialize)]
struct Manifest {
    paths: Vec<String>,
    workloads: Vec<ListedWorkload>,
    end_to_end: Vec<Listed>,
    per_layer: Vec<Listed>,
}

fn assert_listed(listed: &[Listed], defs: &[MetricDef]) {
    assert_eq!(listed.len(), defs.len());
    for (l, d) in listed.iter().zip(defs) {
        let better = if d.better == Better::Higher { "higher" } else { "lower" };
        assert_eq!((l.name.as_str(), l.unit.as_str(), l.better.as_str()), (d.name, d.unit, better));
    }
}

#[test]
fn printed_names_match_the_manifest_and_the_name_grammar() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let manifest: Manifest =
        serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
            .expect("BENCHMARK.json parses");
    assert_eq!(manifest.paths, ["benchmark"]);
    let names: Vec<&str> = manifest.workloads.iter().map(|w| w.name.as_str()).collect();
    assert_eq!(names, WORKLOADS);
    assert_listed(&manifest.end_to_end, &END_TO_END);
    assert_listed(&manifest.per_layer, &PER_LAYER);

    let mut seen = std::collections::BTreeSet::new();
    for name in WORKLOADS.iter().copied().chain(END_TO_END.iter().chain(&PER_LAYER).map(|d| d.name))
    {
        assert!(
            name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()),
            "{name}"
        );
        assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
        assert!(seen.insert(name), "{name} is used twice");
    }
}

#[test]
fn both_kinds_of_run_print_every_metric_of_their_kind() {
    let mut args = Args { seed: 2, seconds: 1.0, trace: false, smoke: true };
    let plain = run_plain::<NodeChurn>(&args);
    assert!(plain.correct(), "{:?}", plain.errors);
    let line = plain.result_line(&END_TO_END);
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{line}");
    for def in END_TO_END {
        assert!(plain.value(def.name).is_some_and(|v| v.is_finite() && v > 0.0), "{}", def.name);
    }

    args.trace = true;
    let traced = run_traced::<NodeChurn>(&args, |w| Some(w.template().models().clone()));
    assert!(traced.correct(), "{:?}", traced.errors);
    assert_eq!(traced.metrics.len(), PER_LAYER.len());
    for def in PER_LAYER {
        assert!(traced.value(def.name).is_some_and(f64::is_finite), "{}", def.name);
    }
    let _ = traced.result_line(&PER_LAYER);
    assert!(osml_benchmark::out_dir().join("trace-node-churn.json").exists());
}
