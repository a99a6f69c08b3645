//! The closed-form performance model: service time, capacity, queueing tail
//! latency and synthesized hardware counters for one service under a given
//! resource allocation.
//!
//! # Model
//!
//! Per-request service time (µs) at effective frequency `f`:
//!
//! ```text
//! t = [ cpu_us * (f_nom / f)  +  misses_per_req(cache) * stall_per_miss * mem_stall ]
//!     * cs_overhead(threads, logical_cores)
//! ```
//!
//! * `misses_per_req(cache) = peak_misses_per_req * (1 - cache/wss)^gamma`
//!   (clamped at 0 once the working set is resident) — a concave miss-ratio
//!   curve,
//! * `stall_per_miss = DRAM_LATENCY_US / mem_parallelism`,
//! * `mem_stall ≥ 1` is the bandwidth-contention multiplier handed in by the
//!   co-location simulator (1 when DRAM is uncontended),
//! * `cs_overhead = 1 + 0.04 * max(0, threads/cores - 1)` models context
//!   switching when more threads than cores are mapped (§III-B of the paper:
//!   more threads never help, but only mildly hurt).
//!
//! Capacity: `effective cores` come from the core set (HT-aware, see
//! [`osml_platform::CoreSet::effective_cores`]) possibly discounted by the
//! simulator for time-shared cores, then squashed through the service's
//! scalability curve `knee * (1 - exp(-c/knee))` and capped by the thread
//! count. Capacity in RPS is `servers / t`.
//!
//! Tail latency: an M/M/m-flavoured approximation. With utilization
//! `ρ = offered / capacity`:
//!
//! * below `RHO_SATURATION` the mean wait uses Sakasegawa's approximation
//!   `Wq = t * ρ^√(2(m+1)) / (m (1-ρ))` and `p95 = t + 3 Wq` (exponential
//!   wait tail),
//! * beyond it the queue is unstable; the backlog that accumulates over a
//!   sustained overload horizon dominates:
//!   `p95 += OVERLOAD_HORIZON_MS * (ρ - RHO_SATURATION) / ρ`.
//!
//! Crossing `ρ = 1` therefore lifts p95 from tens of milliseconds to seconds
//! within one core or one LLC way — the paper's **Resource Cliff**. The
//! magnitudes match Fig. 1 (e.g. Moses jumping 34 ms → 4644 ms when one way
//! is deprived).

use crate::params::{ServiceParams, BYTES_PER_MISS, DRAM_LATENCY_US};
use serde::{Deserialize, Serialize};

/// Utilization beyond which the queue is treated as saturated.
pub(crate) const RHO_SATURATION: f64 = 0.99;

/// Backlog horizon for an overloaded service, ms. A queue that has been
/// unstable for ~100 s serves newly arriving requests after roughly
/// `horizon * (ρ-1)/ρ` — this produces the paper's multi-second cliff
/// latencies.
pub(crate) const OVERLOAD_HORIZON_MS: f64 = 100_000.0;

/// Hard ceiling on reported p95, ms (requests time out eventually).
pub(crate) const MAX_LATENCY_MS: f64 = 120_000.0;

/// Context-switch overhead per excess thread per core.
const CS_OVERHEAD_PER_THREAD: f64 = 0.04;

/// p95 is the mean plus three mean waits for an exponential-ish wait tail.
const P95_WAIT_MULTIPLIER: f64 = 3.0;

/// Scale on the Sakasegawa waiting term. Latency-critical services run open
/// loop with deep parallelism, so measured tails hug the service time until
/// utilization is close to 1 (the "hockey stick"); the raw M/M/m wait rises
/// too early. The scale keeps the QoS frontier adjacent to the saturation
/// frontier — which is precisely what makes the paper's Resource Cliff so
/// abrupt (one way off a 34 ms cell lands at 4644 ms).
const WAIT_SCALE: f64 = 0.25;

/// Inputs to one evaluation of the performance model.
///
/// The co-location simulator fills these from the current allocation and the
/// contention fixed point; standalone analyses (the Fig. 1 grids) fill them
/// directly.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PerfInput {
    /// Number of threads the service runs.
    pub threads: usize,
    /// Offered load, requests per second.
    pub offered_rps: f64,
    /// HT-aware effective core count available to this service (possibly
    /// fractional when cores are time-shared with other services).
    pub effective_cores: f64,
    /// Number of logical cores in the service's affinity mask (for the
    /// context-switch term).
    pub logical_cores: usize,
    /// LLC capacity effectively available, MB (after sharing splits).
    pub cache_mb: f64,
    /// Current core frequency, GHz.
    pub frequency_ghz: f64,
    /// Nominal platform frequency, GHz.
    pub nominal_frequency_ghz: f64,
    /// Memory-stall multiplier from bandwidth contention (≥ 1).
    pub mem_stall: f64,
}

impl PerfInput {
    /// A solo, uncontended run: `threads` threads on `effective_cores`
    /// dedicated cores with `cache_mb` of LLC at nominal frequency.
    pub fn solo(threads: usize, offered_rps: f64, effective_cores: f64, cache_mb: f64) -> Self {
        PerfInput {
            threads,
            offered_rps,
            effective_cores,
            logical_cores: effective_cores.ceil() as usize,
            cache_mb,
            frequency_ghz: 2.3,
            nominal_frequency_ghz: 2.3,
            mem_stall: 1.0,
        }
    }
}

/// Outputs of one evaluation: latency statistics plus the raw quantities the
/// simulator turns into Table-3 counter samples.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PerfOutcome {
    /// Per-request service time after cache/memory effects, ms.
    pub service_time_ms: f64,
    /// Mean response latency, ms.
    pub mean_ms: f64,
    /// 95th-percentile latency, ms.
    pub p95_ms: f64,
    /// Utilization `ρ` (may exceed 1 under overload).
    pub utilization: f64,
    /// Throughput actually served, RPS.
    pub achieved_rps: f64,
    /// Capacity at this allocation, RPS.
    pub capacity_rps: f64,
    /// LLC misses per second at the achieved throughput.
    pub misses_per_sec: f64,
    /// DRAM bandwidth demanded at the achieved throughput, GB/s.
    pub bw_demand_gbps: f64,
    /// Average instructions per clock.
    pub ipc: f64,
    /// Aggregate core utilization (1.0 = one core busy).
    pub cpu_usage: f64,
    /// LLC occupancy, MB.
    pub llc_occupancy_mb: f64,
}

/// Miss fraction of the working set given `cache_mb` of LLC.
///
/// Floored at the service's uncacheable fraction: a memcached item store or
/// a database's on-disk pages never fit in the LLC, so some miss traffic
/// survives any CAT allocation.
pub(crate) fn miss_fraction(params: &ServiceParams, cache_mb: f64) -> f64 {
    let coverage = (cache_mb / params.wss_mb).clamp(0.0, 1.0);
    (1.0 - coverage).powf(params.miss_curve_gamma).max(params.min_miss_fraction)
}

/// LLC misses per request given `cache_mb` of LLC.
pub(crate) fn misses_per_request(params: &ServiceParams, cache_mb: f64) -> f64 {
    params.peak_misses_per_req * miss_fraction(params, cache_mb)
}

/// Saturating scalability curve: effective servers from raw effective cores.
fn scaled_servers(params: &ServiceParams, effective_cores: f64, threads: usize) -> f64 {
    let knee = params.scaling_knee;
    let scaled = knee * (1.0 - (-effective_cores / knee).exp());
    scaled.min(threads as f64).max(1e-6)
}

/// The allocation-dependent half of one evaluation: what the model derives
/// from the service, its cores, its cache share and the clock — the miss
/// curve's `powf`, the scalability curve's `exp`, the Sakasegawa exponent's
/// `sqrt` — and from nothing that load or DRAM contention moves.
///
/// The co-location simulator keeps one per placed service and rebuilds it
/// only when an allocation or the population changes. A monitoring step then
/// costs twelve [`Prepared::bw_demand_gbps`] rounds (a dozen flops each, no
/// transcendental) and one [`Prepared::outcome`] per service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Prepared {
    /// Compute time per request at the current frequency, µs.
    cpu_us: f64,
    /// LLC misses per request at this cache share.
    misses_per_request: f64,
    /// Uncontended DRAM stall per miss, µs.
    stall_per_miss_us: f64,
    /// Context-switch factor on service time (≥ 1).
    cs: f64,
    /// Effective servers after the scalability curve and the thread cap.
    servers: f64,
    /// Sakasegawa exponent `√(2(m+1))`.
    exponent: f64,
    /// LLC occupancy, MB.
    llc_occupancy_mb: f64,
    /// Copied from the service so an outcome needs no second lookup.
    burstiness: f64,
    base_ipc: f64,
}

/// Computes the allocation-dependent half of [`evaluate`]. Reads every field
/// of `input` except `offered_rps` and `mem_stall`.
pub(crate) fn prepare(params: &ServiceParams, input: &PerfInput) -> Prepared {
    let freq_scale = input.nominal_frequency_ghz / input.frequency_ghz.max(0.1);
    let cs = if input.logical_cores > 0 && input.threads > input.logical_cores {
        1.0 + CS_OVERHEAD_PER_THREAD * (input.threads as f64 / input.logical_cores as f64 - 1.0)
    } else {
        1.0
    };
    let servers = scaled_servers(params, input.effective_cores, input.threads);
    Prepared {
        cpu_us: params.cpu_us * freq_scale,
        misses_per_request: misses_per_request(params, input.cache_mb),
        stall_per_miss_us: DRAM_LATENCY_US / params.mem_parallelism,
        cs,
        servers,
        exponent: (2.0 * (servers + 1.0)).sqrt(),
        llc_occupancy_mb: input.cache_mb.min(params.wss_mb),
        burstiness: params.burstiness,
        base_ipc: params.base_ipc,
    }
}

impl Prepared {
    /// Memory time and service time per request, µs, under `mem_stall`.
    fn service_us(&self, mem_stall: f64) -> (f64, f64) {
        let mem_us = self.misses_per_request * self.stall_per_miss_us * mem_stall.max(1.0);
        (mem_us, (self.cpu_us + mem_us) * self.cs)
    }

    /// DRAM bandwidth demanded at `offered_rps` under `mem_stall`, GB/s:
    /// bit for bit the `bw_demand_gbps` of [`Prepared::outcome`], which is
    /// all the contention fixed point consumes.
    pub(crate) fn bw_demand_gbps(&self, offered_rps: f64, mem_stall: f64) -> f64 {
        let (_, t_us) = self.service_us(mem_stall);
        let capacity_rps = self.servers / t_us * 1e6;
        let misses_per_sec = self.misses_per_request * offered_rps.min(capacity_rps);
        misses_per_sec * BYTES_PER_MISS / 1e9
    }

    /// The load- and stall-dependent half of [`evaluate`].
    pub(crate) fn outcome(&self, offered_rps: f64, mem_stall: f64) -> PerfOutcome {
        let (cpu_us, servers) = (self.cpu_us, self.servers);
        let (mem_us, t_us) = self.service_us(mem_stall);
        let t_ms = t_us / 1000.0;

        let capacity_rps = servers / t_us * 1e6;
        let rho = if capacity_rps > 0.0 { offered_rps / capacity_rps } else { f64::INFINITY };

        // Queueing delay below saturation (Sakasegawa M/M/m approximation).
        let rho_q = rho.min(RHO_SATURATION);
        let wq_ms = self.burstiness * WAIT_SCALE * t_ms * rho_q.powf(self.exponent)
            / (servers * (1.0 - rho_q));

        let mut p95 = t_ms + P95_WAIT_MULTIPLIER * wq_ms;
        let mut mean = t_ms + wq_ms;
        if rho > RHO_SATURATION {
            let backlog_ms = OVERLOAD_HORIZON_MS * (rho - RHO_SATURATION) / rho;
            p95 += backlog_ms;
            mean += backlog_ms * 0.8;
        }

        let achieved_rps = offered_rps.min(capacity_rps);
        let misses_per_sec = self.misses_per_request * achieved_rps;

        PerfOutcome {
            service_time_ms: t_ms,
            mean_ms: mean.min(MAX_LATENCY_MS),
            p95_ms: p95.min(MAX_LATENCY_MS),
            utilization: rho,
            achieved_rps,
            capacity_rps,
            misses_per_sec,
            bw_demand_gbps: misses_per_sec * BYTES_PER_MISS / 1e9,
            // Memory stalls depress IPC in proportion to the stalled
            // fraction of the request's service time.
            ipc: self.base_ipc * cpu_us / (cpu_us + mem_us),
            cpu_usage: rho.min(1.0) * servers,
            llc_occupancy_mb: self.llc_occupancy_mb,
        }
    }
}

/// Evaluates the performance model for one service.
///
/// Pure, and two steps. `prepare` derives what depends only on the
/// allocation: a `powf` (the miss curve), an `exp` (the scalability curve)
/// and a `sqrt` (the queueing exponent). `Prepared::outcome` adds load and
/// memory stall: a second `powf` (the Sakasegawa wait) and some thirty
/// flops. `evaluate` is exactly `prepare(..).outcome(..)`; a caller that
/// re-evaluates one allocation under many loads or stalls, as the
/// simulator's fixed point does, keeps the prepared half.
///
/// **Per-element operation order is the API.** Every `f64` returned here is
/// held bit for bit against the monolithic formula (`evaluate_reference` in
/// this module's tests) and, through the simulator, by the trajectory digest
/// in `tests/smoke.rs`: regrouping a product, fusing a multiply-add or
/// hoisting a division moves results under every figure and every trained
/// model.
pub fn evaluate(params: &ServiceParams, input: &PerfInput) -> PerfOutcome {
    prepare(params, input).outcome(input.offered_rps, input.mem_stall)
}

#[cfg(test)]
/// The model as one formula, as `evaluate` was written before the
/// prepare/outcome split: the oracle the split is held against.
pub(crate) fn evaluate_reference(params: &ServiceParams, input: &PerfInput) -> PerfOutcome {
    let freq_scale = input.nominal_frequency_ghz / input.frequency_ghz.max(0.1);
    let cpu_us = params.cpu_us * freq_scale;

    let mpr = misses_per_request(params, input.cache_mb);
    let stall_per_miss_us = DRAM_LATENCY_US / params.mem_parallelism;
    let mem_us = mpr * stall_per_miss_us * input.mem_stall.max(1.0);

    let cs = if input.logical_cores > 0 && input.threads > input.logical_cores {
        1.0 + CS_OVERHEAD_PER_THREAD * (input.threads as f64 / input.logical_cores as f64 - 1.0)
    } else {
        1.0
    };

    let t_us = (cpu_us + mem_us) * cs;
    let t_ms = t_us / 1000.0;

    let servers = scaled_servers(params, input.effective_cores, input.threads);
    let capacity_rps = servers / t_us * 1e6;
    let rho = if capacity_rps > 0.0 { input.offered_rps / capacity_rps } else { f64::INFINITY };

    // Queueing delay below saturation (Sakasegawa M/M/m approximation).
    let rho_q = rho.min(RHO_SATURATION);
    let exponent = (2.0 * (servers + 1.0)).sqrt();
    let wq_ms =
        params.burstiness * WAIT_SCALE * t_ms * rho_q.powf(exponent) / (servers * (1.0 - rho_q));

    let mut p95 = t_ms + P95_WAIT_MULTIPLIER * wq_ms;
    let mut mean = t_ms + wq_ms;
    if rho > RHO_SATURATION {
        let backlog_ms = OVERLOAD_HORIZON_MS * (rho - RHO_SATURATION) / rho;
        p95 += backlog_ms;
        mean += backlog_ms * 0.8;
    }
    let p95 = p95.min(MAX_LATENCY_MS);
    let mean = mean.min(MAX_LATENCY_MS);

    let achieved_rps = input.offered_rps.min(capacity_rps);
    let misses_per_sec = mpr * achieved_rps;
    let bw_demand_gbps = misses_per_sec * BYTES_PER_MISS / 1e9;

    // Memory stalls depress IPC in proportion to the stalled fraction of
    // the request's service time.
    let ipc = params.base_ipc * cpu_us / (cpu_us + mem_us);
    let cpu_usage = rho.min(1.0) * servers;
    let llc_occupancy_mb = input.cache_mb.min(params.wss_mb);

    PerfOutcome {
        service_time_ms: t_ms,
        mean_ms: mean,
        p95_ms: p95,
        utilization: rho,
        achieved_rps,
        capacity_rps,
        misses_per_sec,
        bw_demand_gbps,
        ipc,
        cpu_usage,
        llc_occupancy_mb,
    }
}

#[cfg(test)]
/// Every field of an outcome, as bits.
pub(crate) fn outcome_bits(o: &PerfOutcome) -> [u64; 11] {
    [
        o.service_time_ms,
        o.mean_ms,
        o.p95_ms,
        o.utilization,
        o.achieved_rps,
        o.capacity_rps,
        o.misses_per_sec,
        o.bw_demand_gbps,
        o.ipc,
        o.cpu_usage,
        o.llc_occupancy_mb,
    ]
    .map(f64::to_bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Service;

    #[test]
    fn the_split_equals_the_formula_bit_for_bit() {
        let (mut saturated, mut calm, mut capped) = (0u32, 0u32, 0u32);
        for s in crate::ALL_SERVICES {
            let p = s.params();
            for cores in [0.5, 1.0, 2.7, 6.0, 11.3, 18.0, 23.4] {
                for cache in [0.0, 1.125, 2.25, 9.0, 20.25, 45.0, 90.0] {
                    for (threads, logical) in [(1, 1), (8, 3), (p.default_threads, 12), (36, 0)] {
                        let at = PerfInput {
                            threads,
                            logical_cores: logical,
                            ..PerfInput::solo(threads, 0.0, cores, cache)
                        };
                        // Loads from idle to twice this cell's own capacity,
                        // so `rho` lands on both sides of the saturation knee
                        // in every cell, under four stalls and two clocks.
                        let capacity = evaluate(p, &at).capacity_rps;
                        for load in [0.0, 0.3, 0.98, 0.99, 0.990_000_1, 1.0, 1.2, 2.0] {
                            for stall in [0.5, 1.0, 1.37, 6.0] {
                                for freq in [2.3, 1.15] {
                                    let input = PerfInput {
                                        offered_rps: capacity * load,
                                        mem_stall: stall,
                                        frequency_ghz: freq,
                                        ..at
                                    };
                                    let (got, want) =
                                        (evaluate(p, &input), evaluate_reference(p, &input));
                                    assert_eq!(
                                        outcome_bits(&got),
                                        outcome_bits(&want),
                                        "{s} {input:?}"
                                    );
                                    let bw = prepare(p, &input)
                                        .bw_demand_gbps(input.offered_rps, input.mem_stall);
                                    assert_eq!(bw.to_bits(), want.bw_demand_gbps.to_bits());
                                    saturated += u32::from(want.utilization > RHO_SATURATION);
                                    calm += u32::from(want.utilization < RHO_SATURATION);
                                    capped += u32::from(want.achieved_rps < input.offered_rps);
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(saturated > 1000 && calm > 1000 && capped > 1000, "{saturated} {calm} {capped}");
    }

    fn eval(service: Service, threads: usize, rps: f64, cores: f64, cache: f64) -> PerfOutcome {
        evaluate(service.params(), &PerfInput::solo(threads, rps, cores, cache))
    }

    #[test]
    fn ample_resources_meet_qos() {
        for s in crate::ALL_SERVICES {
            let p = s.params();
            let rps = 0.5 * p.nominal_max_rps();
            let out = eval(s, p.default_threads, rps, 23.4, 45.0);
            assert!(
                out.p95_ms <= p.qos_ms,
                "{s}: p95 {:.2} ms > QoS {:.2} ms at 50% load with full machine",
                out.p95_ms,
                p.qos_ms
            );
        }
    }

    #[test]
    fn starved_resources_violate_qos() {
        for s in crate::ALL_SERVICES {
            let p = s.params();
            let rps = 0.8 * p.nominal_max_rps();
            let out = eval(s, p.default_threads, rps, 1.0, 2.25);
            assert!(
                out.p95_ms > p.qos_ms,
                "{s}: p95 {:.2} ms unexpectedly meets QoS on 1 core / 1 way",
                out.p95_ms
            );
        }
    }

    #[test]
    fn latency_is_monotone_in_cache() {
        let p = Service::Moses.params();
        let mut last = f64::INFINITY;
        for ways in 1..=20 {
            let out = eval(Service::Moses, 16, 2200.0, 8.0, ways as f64 * 2.25);
            assert!(out.p95_ms <= last + 1e-9, "p95 must not rise with more cache");
            last = out.p95_ms;
        }
        let _ = p;
    }

    #[test]
    fn latency_is_monotone_in_cores() {
        let mut last = f64::INFINITY;
        for cores in 1..=18 {
            let out = eval(Service::Xapian, 24, 4000.0, cores as f64, 45.0);
            assert!(out.p95_ms <= last + 1e-9, "p95 must not rise with more cores");
            last = out.p95_ms;
        }
    }

    #[test]
    fn moses_exhibits_a_cliff_on_the_way_axis() {
        // Find some core count where removing one way takes Moses at RPS
        // 1800 from meeting QoS-ish latency into the multi-second regime.
        let mut found = false;
        for cores in 4..=20 {
            for ways in 2..=20 {
                let good = eval(Service::Moses, 16, 1800.0, cores as f64, ways as f64 * 2.25);
                let bad = eval(Service::Moses, 16, 1800.0, cores as f64, (ways - 1) as f64 * 2.25);
                if good.p95_ms < 50.0 && bad.p95_ms > 1000.0 {
                    found = true;
                }
            }
        }
        assert!(found, "no way-axis cliff found for Moses at RPS 1800");
    }

    #[test]
    fn img_dnn_cliff_is_core_only() {
        // With its 4 MB working set resident in 2 ways, Img-dnn's latency is
        // essentially flat along the way axis...
        let at2 = eval(Service::ImgDnn, 36, 4000.0, 12.0, 2.0 * 2.25);
        let at20 = eval(Service::ImgDnn, 36, 4000.0, 12.0, 20.0 * 2.25);
        assert!(at2.p95_ms / at20.p95_ms < 1.5, "way axis should be flat for img-dnn");

        // ...but a core cliff exists: some k where k-1 cores explodes.
        let mut found = false;
        for cores in 2..=18 {
            let good = eval(Service::ImgDnn, 36, 4000.0, cores as f64, 45.0);
            let bad = eval(Service::ImgDnn, 36, 4000.0, cores as f64 - 1.0, 45.0);
            if good.p95_ms < 100.0 && bad.p95_ms > 1000.0 {
                found = true;
            }
        }
        assert!(found, "no core-axis cliff found for img-dnn");
    }

    #[test]
    fn cliff_magnitude_matches_fig1_scale() {
        // The paper quotes Moses jumping from ~34 ms to ~4644 ms when a way
        // is deprived. Verify our overload model produces multi-second
        // latencies just past the frontier.
        let out = eval(Service::Moses, 16, 2200.0, 6.0, 9.0 * 2.25);
        if out.utilization > 1.0 {
            assert!(out.p95_ms > 1000.0, "overloaded cell must be in the seconds regime");
        }
    }

    #[test]
    fn overload_latency_grows_with_overload_depth() {
        let mild = eval(Service::Xapian, 24, 5000.0, 4.0, 45.0);
        let severe = eval(Service::Xapian, 24, 5000.0, 2.0, 45.0);
        assert!(severe.utilization > mild.utilization);
        assert!(severe.p95_ms >= mild.p95_ms);
    }

    #[test]
    fn more_threads_than_cores_raise_latency_mildly() {
        let p = Service::Moses.params();
        let base = evaluate(
            p,
            &PerfInput {
                threads: 10,
                logical_cores: 10,
                ..PerfInput::solo(10, 1200.0, 10.0, 45.0)
            },
        );
        let over = evaluate(
            p,
            &PerfInput {
                threads: 32,
                logical_cores: 10,
                ..PerfInput::solo(32, 1200.0, 10.0, 45.0)
            },
        );
        assert!(over.p95_ms > base.p95_ms, "oversubscription must cost something");
        assert!(over.p95_ms < base.p95_ms * 3.0, "but not move the cliff dramatically");
    }

    #[test]
    fn fewer_threads_than_cores_limit_capacity() {
        let p = Service::ImgDnn.params();
        let narrow = evaluate(p, &PerfInput::solo(2, 1000.0, 16.0, 45.0));
        let wide = evaluate(p, &PerfInput::solo(16, 1000.0, 16.0, 45.0));
        assert!(narrow.capacity_rps < wide.capacity_rps);
    }

    #[test]
    fn bandwidth_demand_scales_with_misses() {
        let starved = eval(Service::Moses, 16, 2000.0, 12.0, 4.5);
        let rich = eval(Service::Moses, 16, 2000.0, 12.0, 45.0);
        assert!(starved.bw_demand_gbps > rich.bw_demand_gbps);
        assert!(rich.bw_demand_gbps >= 0.0);
    }

    #[test]
    fn mem_stall_raises_latency_and_can_tip_overload() {
        let p = Service::Moses.params();
        let base = PerfInput::solo(16, 2200.0, 7.0, 22.5);
        let calm = evaluate(p, &base);
        let stalled = evaluate(p, &PerfInput { mem_stall: 3.0, ..base });
        assert!(stalled.p95_ms > calm.p95_ms);
        assert!(stalled.service_time_ms > calm.service_time_ms);
    }

    #[test]
    fn ipc_falls_as_cache_shrinks() {
        let rich = eval(Service::Xapian, 24, 3000.0, 10.0, 45.0);
        let poor = eval(Service::Xapian, 24, 3000.0, 10.0, 2.25);
        assert!(poor.ipc < rich.ipc);
    }

    #[test]
    fn latency_is_capped() {
        let out = eval(Service::Sphinx, 36, 16.0, 1.0, 2.25);
        assert!(out.p95_ms <= MAX_LATENCY_MS);
    }

    #[test]
    fn frequency_scaling_slows_service() {
        let p = Service::Nginx.params();
        let base = PerfInput::solo(36, 100_000.0, 18.0, 45.0);
        let slow = PerfInput { frequency_ghz: 1.15, ..base };
        assert!(evaluate(p, &slow).service_time_ms > evaluate(p, &base).service_time_ms);
    }

    #[test]
    fn miss_fraction_boundaries() {
        let p = Service::Moses.params();
        assert!((miss_fraction(p, 0.0) - 1.0).abs() < 1e-12);
        // Fully resident working sets still miss at the uncacheable floor.
        assert!((miss_fraction(p, p.wss_mb) - p.min_miss_fraction).abs() < 1e-12);
        assert!((miss_fraction(p, p.wss_mb * 2.0) - p.min_miss_fraction).abs() < 1e-12);
        let half = miss_fraction(p, p.wss_mb / 2.0);
        assert!(half > 0.0 && half < 1.0);
    }
}
