//! The two kinds of run: the plain run every end-to-end metric comes from,
//! and the traced run that produces the per-layer metrics.

use crate::kernels;
use crate::report::Outcome;
use crate::setup::{dataset_split, trained_template, training_config};
use crate::stats::{percentile, summarize, tail_quantile, Better, Summary};
use crate::traced::{Method, Mode, Phase, Tracer};
use crate::workload::{Round, Workload};
use osml_core::Models;
use std::fmt::Write as _;
use std::time::Instant;

/// The paper's monitoring step: the budget a controller step is stated
/// against.
const MONITORING_STEP_US: f64 = 1e6;

/// Command-line arguments of one invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Feeds every generated input.
    pub seed: u64,
    /// How long the measured phase of a plain run lasts.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of plain (end-to-end).
    pub trace: bool,
    /// Shrunken rounds, one set-up: for tests.
    pub smoke: bool,
}

/// The per-round end-to-end timings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundTimes {
    /// Ops per host second over the round's steps.
    pub ops_per_s: f64,
    /// Median step, µs.
    pub p50_us: f64,
    /// Tail step (p99 when ≥ 10 samples lie beyond it), µs.
    pub tail_us: f64,
}

/// Reduces one round's step times.
pub fn round_times(round: &Round) -> RoundTimes {
    let mut sorted = round.step_ns.clone();
    sorted.sort_unstable();
    RoundTimes {
        ops_per_s: round.counts.ops as f64 / (round.wall_ns() as f64 / 1e9),
        p50_us: percentile(&sorted, 0.5) as f64 / 1e3,
        tail_us: percentile(&sorted, tail_quantile(sorted.len())) as f64 / 1e3,
    }
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kb.map_or(0.0, |kb| kb / 1024.0)
}

/// Checks that every round did the same work as the first.
fn check_identical(rounds: &[&Round], what: &str, errors: &mut Vec<String>) {
    let first = rounds[0];
    for (i, r) in rounds.iter().enumerate().skip(1) {
        if r.digest != first.digest {
            errors.push(format!("{what} {i}: digest {:016x} != {:016x}", r.digest, first.digest));
        }
        if r.counts != first.counts {
            errors.push(format!("{what} {i}: counts {:?} != {:?}", r.counts, first.counts));
        }
    }
}

fn line(out: &mut String, name: &str, unit: &str, s: Summary, rounds: usize) {
    let _ = writeln!(
        out,
        "  {name:<28} {:>14.3} {unit:<5} (best of {rounds} rounds; median {:.3}, spread {:.1} %)",
        s.best,
        s.median,
        s.spread * 100.0
    );
}

/// The plain run: set up `setups` times (the reported `setup_s` is the
/// median), then closed-loop rounds of identical work for `args.seconds`
/// (at least three), nothing attached. Prints the table and returns the
/// end-to-end metrics.
pub fn run_plain<W: Workload>(args: &Args) -> Outcome {
    let (setups, min_rounds) = if args.smoke { (1, 2) } else { (3, 3) };
    let mut setup_s = Vec::new();
    let mut workload = None;
    for _ in 0..setups {
        drop(workload.take());
        let t = Instant::now();
        workload = Some(W::setup(args.seed, args.smoke));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("at least one set-up");

    let started = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    loop {
        rounds.push(workload.round(Mode::Plain));
        let elapsed = started.elapsed().as_secs_f64();
        let per_round = elapsed / rounds.len() as f64;
        if rounds.len() >= min_rounds && (args.smoke || elapsed + per_round > args.seconds) {
            break;
        }
    }

    let mut outcome = Outcome::default();
    let refs: Vec<&Round> = rounds.iter().collect();
    check_identical(&refs, "round", &mut outcome.errors);
    for r in &rounds {
        outcome.attempted += r.counts.steps;
        if !r.errors.is_empty() {
            outcome.failed += r.counts.steps;
            outcome.errors.extend(r.errors.iter().cloned());
        }
    }
    if !outcome.errors.is_empty() && outcome.failed == 0 {
        outcome.failed = outcome.attempted;
    }

    let times: Vec<RoundTimes> = rounds.iter().map(round_times).collect();
    let col = |f: fn(&RoundTimes) -> f64| times.iter().map(f).collect::<Vec<f64>>();
    let setup = summarize(&setup_s, Better::Lower);
    let ops = summarize(&col(|t| t.ops_per_s), Better::Higher);
    let p50 = summarize(&col(|t| t.p50_us), Better::Lower);
    let tail = summarize(&col(|t| t.tail_us), Better::Lower);
    let rss = peak_rss_mb();
    outcome.metrics = vec![
        ("setup_s", setup.median),
        ("ops_per_s", ops.best),
        ("step_p50_us", p50.best),
        ("step_p99_us", tail.best),
        ("peak_rss_mb", rss),
    ];

    let first = &rounds[0];
    let n = rounds.len();
    let steps = first.step_ns.len();
    let q = tail_quantile(steps);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} seed {} — {n} rounds of {steps} steps, {} ops each",
        W::NAME,
        args.seed,
        first.counts.ops
    );
    let _ = writeln!(
        out,
        "  {:<28} {:>14.3} s     (median of {} set-ups; best {:.3}, spread {:.1} %)",
        "setup_s",
        setup.median,
        setup_s.len(),
        setup.best,
        setup.spread * 100.0
    );
    line(&mut out, "ops_per_s", "1/s", ops, n);
    line(&mut out, "step_p50_us", "us", p50, n);
    line(&mut out, "step_p99_us", "us", tail, n);
    let _ = writeln!(
        out,
        "  {:<28} p{:.1} of {steps} steps, {} beyond it; {:.3} % of the paper's 1 s monitoring step",
        "",
        q * 100.0,
        crate::stats::samples_beyond(steps, q),
        tail.best / MONITORING_STEP_US * 100.0
    );
    let _ = writeln!(out, "  {:<28} {rss:>14.3} MB    (VmHWM)", "peak_rss_mb");
    let _ = writeln!(
        out,
        "  {:<28} {:>14.6} share (simulated: {} of {} demanded; repeats exactly for a seed)",
        "failed_ops_share",
        first.counts.failed_ops as f64 / first.counts.demanded.max(1) as f64,
        first.counts.failed_ops,
        first.counts.demanded
    );
    let _ = writeln!(out, "  digest {:016x}  counts {:?}", first.digest, first.counts);
    print!("{out}");
    outcome
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics one traced round yields (everything but the
/// kernels and the dataset split).
fn layer_metrics(
    plain: &Round,
    allocs: &Round,
    traced: &Round,
    tracer: &Tracer,
) -> Vec<(&'static str, f64)> {
    let c = &traced.counts;
    let ops = c.ops as f64;
    let step_ns = traced.phase_ns.iter().sum::<u64>() as f64;
    let advance_ns = traced.phase_ns[Phase::Advance as usize] as f64;
    let controller_ns = step_ns - advance_ns;
    let calls = |m: Method| tracer.step_calls.calls_to(m) as f64 / ops;
    let hist = |names: &[&str]| -> (f64, f64) {
        names.iter().map(|n| tracer.histogram(n)).fold((0.0, 0.0), |a, h| (a.0 + h.0, a.1 + h.1))
    };
    let (a_n, a_us) = hist(&["model.a.predict_us"]);
    let (b_n, b_us) = hist(&["model.b.predict_us", "model.b_prime.predict_us"]);
    let (ci_n, ci_us) = hist(&["model.c.infer_us", "model.c.batch_us"]);
    let (ct_n, ct_us) = hist(&["model.c.train_us"]);
    let share = |us: f64| ratio(us * 1e3, controller_ns);
    let substrate_share = ratio(tracer.controller_calls.total_busy_ns() as f64, controller_ns);
    let modelled = share(a_us) + share(b_us) + share(ci_us) + share(ct_us);
    let ksteps = c.steps as f64 / 1e3;
    let envelopes = c.envelopes as f64;
    vec![
        ("failed_ops_share", ratio(c.failed_ops as f64, c.demanded as f64)),
        ("platform.sample_calls_per_op", calls(Method::Sample)),
        ("platform.peek_calls_per_op", calls(Method::PeekSample)),
        ("platform.latency_calls_per_op", calls(Method::Latency)),
        ("platform.allocation_calls_per_op", calls(Method::Allocation)),
        ("platform.reallocate_calls_per_op", calls(Method::Reallocate)),
        ("platform.substrate_share", substrate_share),
        ("platform.envelopes_per_node_step", envelopes / ops),
        ("platform.envelopes_dropped_share", ratio(c.envelopes_dropped as f64, envelopes)),
        ("platform.envelopes_duplicated_share", ratio(c.envelopes_duplicated as f64, envelopes)),
        ("platform.envelopes_partitioned_share", ratio(c.envelopes_partitioned as f64, envelopes)),
        ("workloads.advance_share", ratio(advance_ns, step_ns)),
        ("models.a_forwards_per_op", a_n / ops),
        ("models.a_share", share(a_us)),
        ("models.b_forwards_per_op", b_n / ops),
        ("models.b_share", share(b_us)),
        ("models.c_infers_per_op", ci_n / ops),
        ("models.c_infer_share", share(ci_us)),
        ("models.c_train_steps_per_op", ct_n / ops),
        ("models.c_train_share", share(ct_us)),
        ("models.decisions_per_op", c.decisions as f64 / ops),
        ("core.tick_self_share", (1.0 - substrate_share - modelled).max(0.0)),
        ("core.actions_per_op", c.actions as f64 / ops),
        ("core.log_events_per_op", c.log_events as f64 / ops),
        ("core.log_bytes_per_event", ratio(c.log_bytes as f64, c.log_events as f64)),
        ("core.allocs_per_op", allocs.allocs as f64 / ops),
        ("core.alloc_bytes_per_op", allocs.alloc_bytes as f64 / ops),
        ("core.failovers_per_kstep", c.failovers as f64 / ksteps),
        ("core.migrations_per_kstep", c.migrations as f64 / ksteps),
        ("core.suspicions_per_kstep", c.suspicions as f64 / ksteps),
        ("core.false_suspicion_share", ratio(c.false_suspicions as f64, c.suspicions as f64)),
        ("core.fenced_ghosts_per_kstep", c.fenced_ghosts as f64 / ksteps),
        ("core.ghosts_after_settle", c.ghosts_after_settle as f64),
        ("core.command_backoff_ms_per_kstep", c.command_backoff_us as f64 / 1e3 / ksteps),
        ("telemetry.trace_overhead_ratio", ratio(traced.wall_ns() as f64, plain.wall_ns() as f64)),
    ]
}

/// The traced run: one set-up, then the same round three times — plain
/// (the reference), with the counting allocator armed, and fully traced —
/// which must agree on digest and counts; then the kernels and the dataset
/// split. Prints the per-layer table, writes
/// `benchmark/out/trace-<workload>.json`, returns the per-layer metrics.
pub fn run_traced<W: Workload>(args: &Args, models_of: impl Fn(&W) -> Option<Models>) -> Outcome {
    let mut workload = W::setup(args.seed, args.smoke);
    let plain = workload.round(Mode::Plain);
    let allocs = workload.round(Mode::Allocs);
    let mut tracer = Tracer::default();
    let traced = workload.round(Mode::Traced(&mut tracer));

    let mut outcome = Outcome::default();
    check_identical(&[&plain, &allocs, &traced], "observed round", &mut outcome.errors);
    for r in [&plain, &allocs, &traced] {
        outcome.attempted += r.counts.steps;
        outcome.errors.extend(r.errors.iter().cloned());
    }
    outcome.metrics = layer_metrics(&plain, &allocs, &traced, &tracer);

    let kernels = kernels::run(args.smoke, crate::Scratch::new().path());
    outcome.metrics.extend(kernels.values.iter().copied());
    outcome.errors.extend(kernels.errors);

    // The set-up split is the same program: the suite built piece by
    // piece must encode byte-identically to the one the workload set up
    // with (or, for the untrained `node-steady`, one trained here).
    let cfg = training_config(args.smoke);
    let reference = models_of(&workload).unwrap_or_else(|| trained_template(&cfg).models().clone());
    let split = dataset_split(&cfg, &reference);
    if !split.identical {
        outcome
            .errors
            .push("models built from the timed pieces differ from TrainedModels::train".into());
    }
    outcome.metrics.extend([
        ("dataset.sweep_s", split.sweep_s),
        ("dataset.fit_a_s", split.fit_a_s),
        ("dataset.fit_b_s", split.fit_b_s),
        ("dataset.fit_b_prime_s", split.fit_b_prime_s),
        ("dataset.fit_c_s", split.fit_c_s),
        ("dataset.corpus_rows", split.corpus_rows as f64),
    ]);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} seed {} — traced: {} steps, {} ops",
        W::NAME,
        args.seed,
        traced.counts.steps,
        traced.counts.ops
    );
    for def in crate::report::PER_LAYER {
        let v = outcome.value(def.name).unwrap_or(f64::NAN);
        let _ = writeln!(out, "  {:<40} {v:>16.6} {}", def.name, def.unit);
    }
    let _ = writeln!(out, "  self time by span (span − children):");
    let selfs = tracer.self_time_ns();
    let total: u64 = selfs.iter().map(|s| s.1).sum();
    for (name, ns, n) in &selfs {
        let _ = writeln!(
            out,
            "    {name:<32} {:>10.3} ms {:>6.2} %  ({n} calls)",
            *ns as f64 / 1e6,
            ratio(*ns as f64, total as f64) * 100.0
        );
    }
    let _ = writeln!(out, "  digest {:016x}  counts {:?}", traced.digest, traced.counts);
    print!("{out}");

    let mut json =
        format!("{{\"workload\":\"{}\",\"seed\":{},\"per_layer\":{{", W::NAME, args.seed);
    for (i, (name, v)) in outcome.metrics.iter().enumerate() {
        let _ = write!(
            json,
            "{}\"{name}\":{}",
            if i > 0 { "," } else { "" },
            if v.is_finite() { *v } else { 0.0 }
        );
    }
    json.push_str("},\"self_time_ns\":{");
    for (i, (name, ns, _)) in selfs.iter().enumerate() {
        let _ = write!(json, "{}\"{name}\":{ns}", if i > 0 { "," } else { "" });
    }
    let _ = writeln!(json, "}},\"spans\":{}}}", tracer.spans_json());
    let path = crate::out_dir().join(format!("trace-{}.json", W::NAME));
    if let Err(e) = std::fs::write(&path, json) {
        outcome.errors.push(format!("cannot write {}: {e}", path.display()));
    }
    if !outcome.errors.is_empty() {
        outcome.failed = outcome.attempted;
    }
    outcome
}
