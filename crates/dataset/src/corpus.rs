use crate::probe::FeatureProbe;
use osml_ml::par::parallel_map_jobs;
use osml_ml::Matrix;
use osml_models::features;
use osml_models::{Action, ModelA, ModelB};
use osml_platform::{CounterSample, Topology};
use osml_workloads::oaa::{AllocPoint, LatencyGrid};
use osml_workloads::Service;
use serde::{Deserialize, Serialize};

/// Density and scope of a data-collection sweep.
///
/// The paper's full methodology (36 thread counts × 36 core counts × 20 way
/// counts × every Table-1 load × 11 services ≈ 1.4 M allocation cases) is
/// [`SweepConfig::paper`]; the default is a laptop-scale subsample that
/// trains usable models in seconds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepConfig {
    /// Services to sweep.
    pub services: Vec<Service>,
    /// Stride over core counts (1 = every count, the paper's setting).
    pub core_step: usize,
    /// Stride over way counts.
    pub way_step: usize,
    /// Thread counts to launch (the paper sweeps 36 down to 1).
    pub thread_counts: Vec<usize>,
    /// Which of each service's Table-1 loads to use (indices; out-of-range
    /// indices are skipped so one config fits all services).
    pub rps_indices: Vec<usize>,
    /// Additional loads expressed as fractions of the nominal max RPS. The
    /// co-location experiments sweep 10..100 % of max load, which dips below
    /// the smallest Table-1 RPS; training must cover that range or Model-A
    /// extrapolates.
    pub extra_load_fractions: Vec<f64>,
    /// Trace noise during collection (real traces jitter; a little noise
    /// regularizes training).
    pub noise_sigma: f64,
    /// Base seed.
    pub seed: u64,
    /// Worker threads for the sweep; `None` defers to `OSML_JOBS` (and then
    /// the machine). Any value yields bit-identical corpora: every load
    /// point derives its seed from its own coordinates.
    pub jobs: Option<usize>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            services: Service::table1().to_vec(),
            core_step: 2,
            way_step: 2,
            thread_counts: vec![16, 36],
            rps_indices: vec![0, 2, 4],
            extra_load_fractions: vec![0.15, 0.3, 0.5],
            noise_sigma: 0.01,
            seed: 0x0a11,
            jobs: None,
        }
    }
}

impl SweepConfig {
    /// The paper's full sweep (§IV-A): every thread count 1..=36, every core
    /// count, every way count, every Table-1 load. Expensive — minutes of
    /// CPU — but faithful.
    pub fn paper() -> Self {
        SweepConfig {
            services: Service::table1().to_vec(),
            core_step: 1,
            way_step: 1,
            thread_counts: (1..=36).rev().collect(),
            rps_indices: (0..6).collect(),
            extra_load_fractions: vec![0.1, 0.2, 0.3, 0.4, 0.5],
            noise_sigma: 0.01,
            seed: 0x0a11,
            jobs: None,
        }
    }

    /// A tiny sweep for unit tests.
    pub fn tiny(services: &[Service]) -> Self {
        SweepConfig {
            services: services.to_vec(),
            core_step: 6,
            way_step: 5,
            thread_counts: vec![16],
            rps_indices: vec![0, 3],
            extra_load_fractions: vec![],
            noise_sigma: 0.0,
            seed: 0x7e57,
            jobs: None,
        }
    }

    fn cores_swept(&self, topo: &Topology) -> Vec<usize> {
        (1..=topo.logical_cores()).step_by(self.core_step.max(1)).collect()
    }

    fn ways_swept(&self, topo: &Topology) -> Vec<usize> {
        (1..=topo.llc_ways()).step_by(self.way_step.max(1)).collect()
    }

    /// The worker-thread count this sweep will actually use: the explicit
    /// [`jobs`](SweepConfig::jobs) override if set, else
    /// [`osml_ml::par::jobs_from_env`].
    pub(crate) fn effective_jobs(&self) -> usize {
        self.jobs.unwrap_or_else(osml_ml::par::jobs_from_env)
    }

    /// The `(service, offered_rps)` pairs this sweep covers.
    pub fn load_points(&self) -> Vec<(Service, f64)> {
        let mut out = Vec::new();
        for &s in &self.services {
            for &i in &self.rps_indices {
                if let Some(&rps) = s.params().table1_rps.get(i) {
                    out.push((s, rps));
                }
            }
            for &f in &self.extra_load_fractions {
                let rps = s.params().nominal_max_rps() * f;
                if rps > 0.0 {
                    out.push((s, rps));
                }
            }
        }
        out
    }
}

/// A supervised training corpus: one feature row per case in `x`, the
/// matching label row in `y`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Corpus {
    /// Feature matrix (row per sample).
    pub x: Matrix,
    /// Label matrix (row per sample).
    pub y: Matrix,
}

impl Corpus {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.x.rows()
    }

    /// Lays the swept cases out one per row, in order: `write` is the
    /// model's feature-row writer, the label is copied as it is.
    fn build<R, const L: usize>(
        cases: &[Vec<(R, [f32; L])>],
        inputs: usize,
        write: impl Fn(&R, &mut [f32]),
    ) -> Corpus {
        let n = cases.iter().map(Vec::len).sum();
        assert!(n > 0, "corpus must not be empty");
        let (mut x, mut y) = (Matrix::zeros(n, inputs), Matrix::zeros(n, L));
        for (i, (input, label)) in cases.iter().flatten().enumerate() {
            write(input, x.row_mut(i));
            y.row_mut(i).copy_from_slice(label);
        }
        Corpus { x, y }
    }
}

/// Builds the Model-A corpus (§IV-A, Fig. 5): counters at every swept
/// allocation, labelled with that `(service, threads, load)`'s OAA, OAA
/// bandwidth and RCliff. Cases whose load is infeasible even on the whole
/// machine are skipped (they have no OAA to learn).
pub fn model_a_corpus(cfg: &SweepConfig) -> Corpus {
    let topo = Topology::xeon_e5_2697_v4();
    let cores = cfg.cores_swept(&topo);
    let ways = cfg.ways_swept(&topo);
    let jobs: Vec<(Service, f64, usize)> = cfg
        .load_points()
        .into_iter()
        .flat_map(|(s, rps)| cfg.thread_counts.iter().map(move |&t| (s, rps, t)))
        .collect();

    let cases: Vec<Vec<(CounterSample, [f32; 5])>> =
        parallel_map_jobs(cfg.effective_jobs(), &jobs, |&(service, rps, threads)| {
            let grid = LatencyGrid::sweep(&topo, service, threads, rps);
            let (Some(oaa), Some(cliff), Some(bw)) =
                (grid.oaa(), grid.rcliff(), grid.oaa_bandwidth_gbps())
            else {
                return Vec::new();
            };
            let label = ModelA::encode_label(oaa, bw, cliff);
            let seed = cfg.seed ^ (service as u64) << 8 ^ threads as u64 ^ (rps as u64) << 16;
            let mut probe = FeatureProbe::new(service, threads, rps, cfg.noise_sigma, seed);
            let mut rows = Vec::with_capacity(cores.len() * ways.len());
            for &c in &cores {
                for &w in &ways {
                    rows.push((probe.sample_at(c, w), label));
                }
            }
            rows
        });
    Corpus::build(&cases, features::BASE_FEATURES, features::write_model_a_input)
}

/// QoS-slowdown budgets the Model-B corpus labels (≤ 5 %, 10 %, … as in
/// Fig. 6).
pub(crate) const SLOWDOWN_BUDGETS: [f64; 4] = [0.05, 0.10, 0.15, 0.20];

/// Base allocations the Model-B/B′ sweeps start from: the OAA itself plus
/// over-provisioned holdings (a service OSML later deprives is often above
/// its OAA, and the models must price trades from *any* current holding).
const BASE_OFFSETS: [(usize, usize); 4] = [(0, 0), (2, 1), (4, 2), (6, 4)];

/// Builds the Model-B corpus (§IV-B, Fig. 6): starting from each
/// `(service, load)`'s OAA, reduce resources along the three angles and
/// label the largest deprivation whose QoS slowdown stays within each
/// budget.
pub fn model_b_corpus(cfg: &SweepConfig) -> Corpus {
    let topo = Topology::xeon_e5_2697_v4();
    let jobs = cfg.load_points();
    let cases = parallel_map_jobs(cfg.effective_jobs(), &jobs, |&(service, rps)| {
        let threads = service.params().default_threads;
        let grid = LatencyGrid::sweep(&topo, service, threads, rps);
        let Some(oaa) = grid.oaa() else { return Vec::new() };
        let seed = cfg.seed ^ 0xb ^ (service as u64) << 8 ^ (rps as u64) << 16;
        let mut probe = FeatureProbe::new(service, threads, rps, cfg.noise_sigma, seed);
        let mut rows = Vec::new();
        for &(oc, ow) in &BASE_OFFSETS {
            let base = AllocPoint::new(
                (oaa.cores + oc).min(grid.max_cores),
                (oaa.ways + ow).min(grid.max_ways),
            );
            let sample = probe.sample_at(base.cores, base.ways);
            for &budget in &SLOWDOWN_BUDGETS {
                let balanced = walk_deprivation(&grid, base, budget, 1, 1);
                let cores_dom = walk_deprivation(&grid, base, budget, 2, 1);
                let ways_dom = walk_deprivation(&grid, base, budget, 1, 2);
                rows.push((
                    (sample, budget),
                    ModelB::encode_label([balanced, cores_dom, ways_dom]),
                ));
            }
        }
        rows
    });
    Corpus::build(&cases, features::MODEL_B_INPUTS, |(sample, budget), row| {
        features::write_model_b_input(sample, *budget, row)
    })
}

/// Builds the Model-B′ corpus: counters at the OAA plus a proposed
/// deprivation, labelled with the slowdown that deprivation causes (clipped
/// at 200 %; infeasible deprivations — below 1 core / 1 way — are labelled
/// 0, the paper's "non-existent case" convention; a genuinely free trade is
/// labelled a hair above 0 so the masked loss still trains it).
pub fn model_b_prime_corpus(cfg: &SweepConfig) -> Corpus {
    let topo = Topology::xeon_e5_2697_v4();
    let jobs = cfg.load_points();
    let cases = parallel_map_jobs(cfg.effective_jobs(), &jobs, |&(service, rps)| {
        let threads = service.params().default_threads;
        let grid = LatencyGrid::sweep(&topo, service, threads, rps);
        let Some(oaa) = grid.oaa() else { return Vec::new() };
        let seed = cfg.seed ^ 0xbb ^ (service as u64) << 8 ^ (rps as u64) << 16;
        let mut probe = FeatureProbe::new(service, threads, rps, cfg.noise_sigma, seed);
        let mut rows = Vec::new();
        for &(oc, ow) in &BASE_OFFSETS {
            let base = AllocPoint::new(
                (oaa.cores + oc).min(grid.max_cores),
                (oaa.ways + ow).min(grid.max_ways),
            );
            let sample = probe.sample_at(base.cores, base.ways);
            let base_p95 = grid.p95(base);
            for dc in 0..=8usize {
                for dw in 0..=8usize {
                    let label = if base.cores > dc && base.ways > dw {
                        let p = AllocPoint::new(base.cores - dc, base.ways - dw);
                        let slowdown = qos_slowdown(grid.p95(p), base_p95);
                        (slowdown as f32).max(REAL_ZERO_LABEL)
                    } else {
                        0.0 // non-existent case
                    };
                    rows.push(((sample, dc, dw), [label]));
                }
            }
        }
        rows
    });
    Corpus::build(&cases, features::MODEL_B_PRIME_INPUTS, |(sample, dc, dw), row| {
        features::write_model_b_prime_input(sample, *dc, *dw, row)
    })
}

/// One offline Model-C training tuple: counters before, the action, counters
/// after. The reward is recomputed by `ModelC::observe` from the latencies.
pub(crate) type CTransition = (CounterSample, Action, CounterSample);

/// Builds Model-C's offline corpus (§IV-C): for each swept base allocation,
/// pair it with every neighbour reachable by one action (≤ 3 cores and ≤ 3
/// ways of difference — the paper only pairs tuples within that distance),
/// yielding `<Status, Action, Status'>` transitions.
pub fn model_c_transitions(cfg: &SweepConfig) -> Vec<CTransition> {
    model_c_stream(cfg).collect()
}

/// [`model_c_transitions`] as a stream, in the same order: load points are
/// swept in chunks of the job count, so one chunk's tuples are alive at most.
pub(crate) fn model_c_stream(cfg: &SweepConfig) -> impl Iterator<Item = CTransition> + '_ {
    let topo = Topology::xeon_e5_2697_v4();
    let cores = cfg.cores_swept(&topo);
    let ways = cfg.ways_swept(&topo);
    let max_cores = topo.logical_cores() as i32;
    let max_ways = topo.llc_ways() as i32;
    let at_load_point = move |&(service, rps): &(Service, f64)| {
        let threads = service.params().default_threads;
        let seed = cfg.seed ^ 0xc ^ (service as u64) << 8 ^ (rps as u64) << 16;
        let mut probe = FeatureProbe::new(service, threads, rps, cfg.noise_sigma, seed);
        let mut out = Vec::new();
        for &c in &cores {
            for &w in &ways {
                let before = probe.sample_at(c, w);
                for action_idx in 0..osml_models::ACTIONS {
                    let action = Action::from_index(action_idx);
                    if action.dcores == 0 && action.dways == 0 {
                        continue;
                    }
                    let c2 = c as i32 + action.dcores;
                    let w2 = w as i32 + action.dways;
                    if c2 < 1 || c2 > max_cores || w2 < 1 || w2 > max_ways {
                        continue;
                    }
                    let after = probe.sample_at(c2 as usize, w2 as usize);
                    out.push((before, action, after));
                }
            }
        }
        out
    };
    let jobs = cfg.effective_jobs().max(1);
    let points = cfg.load_points();
    (0..points.len()).step_by(jobs).flat_map(move |start| {
        let chunk = &points[start..points.len().min(start + jobs)];
        parallel_map_jobs(jobs, chunk, &at_load_point).into_iter().flatten()
    })
}

/// Label given to a slowdown that is genuinely ~0 (free trade), so the
/// zero-masked loss distinguishes it from the paper's "non-existent case"
/// (which is labelled exactly 0 and masked out).
const REAL_ZERO_LABEL: f32 = 1e-3;

/// QoS slowdown of a deprivation, measured against the service's latency at
/// its OAA (the paper's Fig. 6 labels deprivation steps with graduated
/// ≤5 %, ≤10 %, … slowdowns — gradation that only exists relative to the
/// current latency, since the QoS frontier hugs the saturation cliff).
fn qos_slowdown(p95_new: f64, p95_base: f64) -> f64 {
    (p95_new / p95_base.max(1e-9) - 1.0).clamp(0.0, 2.0)
}

/// Walks a deprivation from `oaa` with the given per-step core/way ratio,
/// returning the largest `(cores_taken, ways_taken)` whose slowdown stays
/// within `budget`. Returns `None` when even the first step busts the budget
/// (the paper's non-existent case).
fn walk_deprivation(
    grid: &LatencyGrid,
    oaa: AllocPoint,
    budget: f64,
    core_stride: usize,
    way_stride: usize,
) -> Option<(usize, usize)> {
    let base = grid.p95(oaa);
    let slowdown = |p: AllocPoint| qos_slowdown(grid.p95(p), base);
    let mut best: Option<(usize, usize)> = None;
    let (mut dc, mut dw) = (0usize, 0usize);
    loop {
        let (next_dc, next_dw) = (dc + core_stride, dw + way_stride);
        if oaa.cores <= next_dc || oaa.ways <= next_dw {
            break;
        }
        let p = AllocPoint::new(oaa.cores - next_dc, oaa.ways - next_dw);
        if slowdown(p) > budget {
            break;
        }
        dc = next_dc;
        dw = next_dw;
        best = Some((dc, dw));
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_a_corpus_has_consistent_shapes() {
        let cfg = SweepConfig::tiny(&[Service::Moses]);
        let corpus = model_a_corpus(&cfg);
        assert!(corpus.len() > 0);
        assert_eq!(corpus.x.cols(), features::BASE_FEATURES);
        assert_eq!(corpus.y.cols(), 5);
        // All labels of a (service, threads, rps) group are identical; with
        // one service, one thread count and two loads there are at most two
        // distinct label rows.
        let mut labels: Vec<Vec<u32>> = (0..corpus.len())
            .map(|i| corpus.y.row(i).iter().map(|v| v.to_bits()).collect())
            .collect();
        labels.sort();
        labels.dedup();
        assert!(labels.len() <= 2, "expected at most 2 label groups, got {}", labels.len());
    }

    #[test]
    fn corpus_sweep_is_bit_identical_across_job_counts() {
        let base = SweepConfig::tiny(&[Service::Moses, Service::Xapian]);
        let at_jobs = |jobs: usize| SweepConfig { jobs: Some(jobs), ..base.clone() };
        // Bit-exact equality (Matrix compares raw f32 data): every load
        // point derives its seed from its own coordinates, so the worker
        // count must not matter.
        assert_eq!(model_a_corpus(&at_jobs(1)), model_a_corpus(&at_jobs(4)));
        assert_eq!(model_b_corpus(&at_jobs(1)), model_b_corpus(&at_jobs(4)));
        assert_eq!(model_b_prime_corpus(&at_jobs(1)), model_b_prime_corpus(&at_jobs(4)));
        assert_eq!(model_c_transitions(&at_jobs(1)), model_c_transitions(&at_jobs(4)));
    }

    #[test]
    fn infeasible_loads_are_skipped() {
        // Sphinx at its lowest load is feasible; at an impossible load the
        // sweep must produce nothing rather than bogus labels. Build a config
        // whose only load index is out of range => empty load points.
        let cfg = SweepConfig {
            rps_indices: vec![99],
            services: vec![Service::Moses],
            ..SweepConfig::tiny(&[Service::Moses])
        };
        assert!(cfg.load_points().is_empty());
    }

    #[test]
    fn model_b_corpus_budget_monotonicity() {
        let cfg = SweepConfig::tiny(&[Service::Moses]);
        let corpus = model_b_corpus(&cfg);
        assert!(corpus.len() > 0);
        assert_eq!(corpus.x.cols(), features::MODEL_B_INPUTS);
        assert_eq!(corpus.y.cols(), 6);
        // Rows come in budget groups of 4 per load point; within a group the
        // balanced-policy total must not shrink as the budget grows.
        for group in (0..corpus.len()).step_by(4) {
            let mut last = -1.0f32;
            for k in 0..4 {
                let row = corpus.y.row(group + k);
                let total = row[0] + row[1];
                assert!(total >= last - 1e-6, "budget increase must not shrink the trade");
                last = total;
            }
        }
    }

    #[test]
    fn model_b_prime_labels_grow_with_deprivation_depth() {
        let cfg = SweepConfig::tiny(&[Service::Xapian]);
        let corpus = model_b_prime_corpus(&cfg);
        assert_eq!(corpus.x.cols(), features::MODEL_B_PRIME_INPUTS);
        // Per base allocation rows iterate dc 0..=8 × dw 0..=8; the (0, 0)
        // row is a free trade — labelled with the tiny real-zero marker, not
        // the masked non-existent 0.
        assert_eq!(corpus.len() % 81, 0);
        let mut grew = 0;
        for block in corpus.y.as_slice().chunks_exact(81) {
            assert_eq!(block[0], 1e-3);
            let label = |dc: usize, dw: usize| block[dc * 9 + dw];
            for (dc, dw) in (0..9).flat_map(|dc| (0..9).map(move |dw| (dc, dw))) {
                let here = label(dc, dw);
                assert!((0.0..=2.0).contains(&here), "label {here} out of range");
                // Taking one more core or way never costs less, unless it
                // takes the last one (a non-existent case, 0).
                for deeper in [(dc + 1, dw), (dc, dw + 1)] {
                    if deeper.0 < 9 && deeper.1 < 9 && label(deeper.0, deeper.1) != 0.0 {
                        assert!(label(deeper.0, deeper.1) >= here, "({dc}, {dw}) → {deeper:?}");
                        grew += usize::from(label(deeper.0, deeper.1) > here);
                    }
                }
            }
        }
        assert!(grew > 0, "no deeper deprivation ever cost more");
    }

    #[test]
    fn model_c_transitions_respect_the_action_range() {
        let cfg = SweepConfig::tiny(&[Service::Moses]);
        let ts = model_c_transitions(&cfg);
        assert!(!ts.is_empty());
        for (before, action, after) in &ts {
            assert!(action.dcores.abs() <= 3 && action.dways.abs() <= 3);
            assert!(action.dcores != 0 || action.dways != 0);
            let dc = after.allocated_cores as i32 - before.allocated_cores as i32;
            let dw = after.allocated_ways as i32 - before.allocated_ways as i32;
            assert_eq!((dc, dw), (action.dcores, action.dways), "action must match the cells");
        }
    }

    #[test]
    fn walk_deprivation_respects_budget() {
        // The walk budgets against the base allocation's own p95, not the QoS
        // target. From Moses' most over-provisioned base at 2200 RPS it finds
        // a trade at every budget and stride, so no case passes vacuously;
        // the trade is the largest: one more step busts the budget.
        let topo = Topology::xeon_e5_2697_v4();
        let grid = LatencyGrid::sweep(&topo, Service::Moses, 16, 2200.0);
        let oaa = grid.oaa().unwrap();
        let (oc, ow) = BASE_OFFSETS[BASE_OFFSETS.len() - 1];
        let base = AllocPoint::new(oaa.cores + oc, oaa.ways + ow);
        let slowdown = |dc: usize, dw: usize| {
            qos_slowdown(grid.p95(AllocPoint::new(base.cores - dc, base.ways - dw)), grid.p95(base))
        };
        for budget in SLOWDOWN_BUDGETS {
            for (core_stride, way_stride) in [(1, 1), (2, 1), (1, 2)] {
                let (dc, dw) = walk_deprivation(&grid, base, budget, core_stride, way_stride)
                    .expect("the over-provisioned base has something to give");
                assert!(slowdown(dc, dw) <= budget, "({dc}, {dw}) busts the budget {budget}");
                assert!(
                    slowdown(dc + core_stride, dw + way_stride) > budget,
                    "({dc}, {dw}) stops early"
                );
            }
        }
    }

    #[test]
    fn paper_config_is_full_density() {
        let cfg = SweepConfig::paper();
        assert_eq!(cfg.core_step, 1);
        assert_eq!(cfg.way_step, 1);
        assert_eq!(cfg.thread_counts.len(), 36);
        assert_eq!(cfg.services.len(), 11);
    }
}
