use osml_platform::{Allocation, CoreSet, MbaThrottle, Substrate, Topology, WayMask};
use osml_workloads::oaa::LatencyGrid;
use osml_workloads::{LaunchSpec, SimConfig, SimServer};

/// A static partition: one `(cores, ways)` per service, in launch order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionPlan {
    /// Resource counts per service.
    pub shares: Vec<(usize, usize)>,
}

impl PartitionPlan {
    /// Total cores committed.
    pub(crate) fn total_cores(&self) -> usize {
        self.shares.iter().map(|&(c, _)| c).sum()
    }

    /// Total ways committed.
    pub(crate) fn total_ways(&self) -> usize {
        self.shares.iter().map(|&(_, w)| w).sum()
    }
}

/// The paper's **Oracle**: exhaustive offline search for the best static
/// disjoint partition — "the ceiling that the schedulers try to achieve"
/// (§VI-A).
///
/// Candidate shares per service come from its solo QoS frontier (plus
/// one-way safety variants, since co-location adds bandwidth contention the
/// solo frontier does not see); every combination that fits the machine is
/// *actually evaluated* on the contention-aware simulator until one meets
/// every service's QoS.
#[derive(Debug, Clone)]
pub struct Oracle {
    topo: Topology,
    /// Cap on full-simulation evaluations per query (a safety valve; the
    /// capacity pruning keeps real queries far below it).
    pub max_evaluations: usize,
}

impl Oracle {
    /// Creates an oracle for the paper's testbed.
    pub fn new() -> Self {
        Oracle { topo: Topology::xeon_e5_2697_v4(), max_evaluations: 20_000 }
    }

    /// Candidate `(cores, ways)` shares for one service at one load: the
    /// Pareto frontier of its solo grid, each with a `ways + 1` variant.
    fn candidates(&self, spec: &LaunchSpec) -> Vec<(usize, usize)> {
        let grid = LatencyGrid::sweep(&self.topo, spec.service, spec.threads, spec.offered_rps);
        let frontier = grid.rcliff_frontier();
        let mut out = Vec::new();
        let mut best_ways = usize::MAX;
        for (idx, ways) in frontier.iter().enumerate() {
            let cores = idx + 1;
            let Some(w) = ways else { continue };
            // Pareto: only keep core counts that reduce the way requirement
            // (plus the very first feasible core count).
            if *w < best_ways {
                best_ways = *w;
                out.push((cores, *w));
                if *w < self.topo.llc_ways() {
                    out.push((cores, *w + 1));
                }
                if *w + 2 <= self.topo.llc_ways() {
                    out.push((cores, *w + 2));
                }
                // Core-padded variants: the frontier assumes full-yield
                // (spread) cores, but a packed multi-service plan lands some
                // services on hyper-thread siblings at reduced yield; extra
                // logical cores compensate.
                for pad in [2usize, 4, 6] {
                    if cores + pad <= self.topo.logical_cores() {
                        out.push((cores + pad, *w));
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        // Cheapest-total first, so the first feasible combo found is also a
        // resource-light one.
        out.sort_by_key(|&(c, w)| c + w);
        out
    }

    /// Evaluates a partition on the contention-aware simulator, returning
    /// each service's QoS slack (negative = violating), or `None` if the
    /// plan does not fit the machine at all.
    fn plan_slacks(&self, specs: &[LaunchSpec], plan: &PartitionPlan) -> Option<Vec<f64>> {
        if plan.total_cores() > self.topo.logical_cores()
            || plan.total_ways() > self.topo.llc_ways()
            || plan.shares.iter().any(|&(c, w)| c == 0 || w == 0)
        {
            return None;
        }
        let mut server =
            SimServer::new(SimConfig { topology: self.topo.clone(), noise_sigma: 0.0, seed: 0 });
        let mut next_core = 0usize;
        let mut next_way = 0usize;
        let mut ids = Vec::new();
        for (spec, &(cores, ways)) in specs.iter().zip(&plan.shares) {
            let all = CoreSet::all(&self.topo);
            let pool: CoreSet = all.iter().skip(next_core).collect();
            let core_set = pool.pick_spread(&self.topo, cores)?;
            let mask = WayMask::contiguous(next_way, ways).ok()?;
            next_core += cores;
            next_way += ways;
            let alloc = Allocation::new(core_set, mask, MbaThrottle::unthrottled());
            ids.push(server.launch(*spec, alloc).ok()?);
        }
        server.advance(2.0);
        ids.iter().map(|&id| server.latency(id).map(|l| l.qos_slack())).collect()
    }

    /// Iterative refinement: starting from a seed partition, greedily move
    /// single cores/ways from the most-slack service to the most-violating
    /// one, accepting moves that raise the minimum slack. This finds the
    /// tight, high-utilization packings (ρ close to 1) that the frontier
    /// lattice of [`Oracle::candidates`] quantizes away.
    fn hill_climb(&self, specs: &[LaunchSpec], seed: PartitionPlan) -> Option<PartitionPlan> {
        let mut plan = seed;
        let mut slacks = self.plan_slacks(specs, &plan)?;
        for _ in 0..400 {
            if slacks.iter().all(|&s| s >= 0.0) {
                return Some(plan);
            }
            let worst = (0..slacks.len())
                .min_by(|&a, &b| slacks[a].total_cmp(&slacks[b]))
                .expect("nonempty");
            // Candidate moves: one core or one way from any other service
            // (or from the idle pool) to the worst one.
            let mut best_move: Option<(PartitionPlan, Vec<f64>, f64)> = None;
            let idle_cores = self.topo.logical_cores() - plan.total_cores();
            let idle_ways = self.topo.llc_ways() - plan.total_ways();
            let mut candidates: Vec<PartitionPlan> = Vec::new();
            if idle_cores > 0 {
                let mut p = plan.clone();
                p.shares[worst].0 += 1;
                candidates.push(p);
            }
            if idle_ways > 0 {
                let mut p = plan.clone();
                p.shares[worst].1 += 1;
                candidates.push(p);
            }
            for (donor, &slack) in slacks.iter().enumerate() {
                if donor == worst || slack <= 0.0 {
                    continue;
                }
                if plan.shares[donor].0 > 1 {
                    let mut p = plan.clone();
                    p.shares[donor].0 -= 1;
                    p.shares[worst].0 += 1;
                    candidates.push(p);
                }
                if plan.shares[donor].1 > 1 {
                    let mut p = plan.clone();
                    p.shares[donor].1 -= 1;
                    p.shares[worst].1 += 1;
                    candidates.push(p);
                }
            }
            let current_min = slacks.iter().copied().fold(f64::INFINITY, f64::min);
            for cand in candidates {
                if let Some(s) = self.plan_slacks(specs, &cand) {
                    let m = s.iter().copied().fold(f64::INFINITY, f64::min);
                    if m > current_min && best_move.as_ref().is_none_or(|&(_, _, bm)| m > bm) {
                        best_move = Some((cand, s, m));
                    }
                }
            }
            match best_move {
                Some((p, s, _)) => {
                    plan = p;
                    slacks = s;
                }
                None => return None, // local optimum, still violating
            }
        }
        None
    }

    /// Evaluates a concrete partition on the contention-aware simulator.
    fn plan_meets_qos(&self, specs: &[LaunchSpec], plan: &PartitionPlan) -> bool {
        let mut server =
            SimServer::new(SimConfig { topology: self.topo.clone(), noise_sigma: 0.0, seed: 0 });
        let mut next_core = 0usize;
        let mut next_way = 0usize;
        let mut ids = Vec::new();
        for (spec, &(cores, ways)) in specs.iter().zip(&plan.shares) {
            let all = CoreSet::all(&self.topo);
            let pool: CoreSet = all.iter().skip(next_core).collect();
            let Some(core_set) = pool.pick_spread(&self.topo, cores) else { return false };
            let Ok(mask) = WayMask::contiguous(next_way, ways) else { return false };
            next_core += cores;
            next_way += ways;
            let alloc = Allocation::new(core_set, mask, MbaThrottle::unthrottled());
            match server.launch(*spec, alloc) {
                Ok(id) => ids.push(id),
                Err(_) => return false,
            }
        }
        server.advance(2.0);
        ids.iter().all(|&id| server.latency(id).map(|l| !l.violates_qos()).unwrap_or(false))
    }

    /// Finds a QoS-feasible static partition for the given co-location, or
    /// `None` if the exhaustive search proves (up to the evaluation cap)
    /// that none exists.
    pub fn best_partition(&self, specs: &[LaunchSpec]) -> Option<PartitionPlan> {
        if specs.is_empty() {
            return Some(PartitionPlan { shares: Vec::new() });
        }
        let candidates: Vec<Vec<(usize, usize)>> =
            specs.iter().map(|s| self.candidates(s)).collect();
        if candidates.iter().any(|c| c.is_empty()) {
            return None; // some service is infeasible even alone
        }
        // Minimal remaining totals for pruning.
        let min_cores: Vec<usize> =
            candidates.iter().map(|c| c.iter().map(|&(x, _)| x).min().unwrap_or(0)).collect();
        let min_ways: Vec<usize> =
            candidates.iter().map(|c| c.iter().map(|&(_, x)| x).min().unwrap_or(0)).collect();
        let suffix = |v: &[usize], i: usize| -> usize { v[i..].iter().sum() };

        let mut evals = 0usize;
        let mut shares: Vec<(usize, usize)> = Vec::with_capacity(specs.len());
        if let Some(plan) = self.search(
            specs,
            &candidates,
            &min_cores,
            &min_ways,
            &suffix,
            0,
            0,
            0,
            &mut shares,
            &mut evals,
        ) {
            return Some(plan);
        }
        // The lattice missed; refine from proportional seeds toward a tight
        // packing.
        let n = specs.len();
        let equal = PartitionPlan {
            shares: (0..n)
                .map(|i| {
                    let c = (self.topo.logical_cores() / n).max(1)
                        + usize::from(i < self.topo.logical_cores() % n);
                    let w = (self.topo.llc_ways() / n).max(1)
                        + usize::from(i < self.topo.llc_ways() % n);
                    (c, w)
                })
                .collect(),
        };
        if let Some(plan) = self.hill_climb(specs, equal) {
            return Some(plan);
        }
        // A work-proportional seed sometimes escapes the equal split's
        // local optimum.
        let weights: Vec<f64> = specs
            .iter()
            .map(|s| (s.offered_rps / s.service.params().nominal_max_rps()).max(0.05))
            .collect();
        let wsum: f64 = weights.iter().sum();
        let proportional = PartitionPlan {
            shares: weights
                .iter()
                .map(|w| {
                    let c = ((self.topo.logical_cores() as f64) * w / wsum).floor() as usize;
                    let wy = ((self.topo.llc_ways() as f64) * w / wsum).floor() as usize;
                    (c.max(1), wy.max(1))
                })
                .collect(),
        };
        self.hill_climb(specs, proportional)
    }

    #[allow(clippy::too_many_arguments)]
    fn search(
        &self,
        specs: &[LaunchSpec],
        candidates: &[Vec<(usize, usize)>],
        min_cores: &[usize],
        min_ways: &[usize],
        suffix: &dyn Fn(&[usize], usize) -> usize,
        depth: usize,
        used_cores: usize,
        used_ways: usize,
        shares: &mut Vec<(usize, usize)>,
        evals: &mut usize,
    ) -> Option<PartitionPlan> {
        if depth == specs.len() {
            *evals += 1;
            if *evals > self.max_evaluations {
                return None;
            }
            let plan = PartitionPlan { shares: shares.clone() };
            return self.plan_meets_qos(specs, &plan).then_some(plan);
        }
        let cores_budget = self.topo.logical_cores() - used_cores;
        let ways_budget = self.topo.llc_ways() - used_ways;
        for &(c, w) in &candidates[depth] {
            if *evals > self.max_evaluations {
                return None;
            }
            // Capacity pruning: this choice plus the minimum possible needs
            // of the remaining services must fit.
            if c + suffix(min_cores, depth + 1) > cores_budget
                || w + suffix(min_ways, depth + 1) > ways_budget
            {
                continue;
            }
            shares.push((c, w));
            if let Some(plan) = self.search(
                specs,
                candidates,
                min_cores,
                min_ways,
                suffix,
                depth + 1,
                used_cores + c,
                used_ways + w,
                shares,
                evals,
            ) {
                return Some(plan);
            }
            shares.pop();
        }
        None
    }
}

impl Default for Oracle {
    fn default() -> Self {
        Oracle::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osml_workloads::Service;

    #[test]
    fn single_light_service_is_feasible() {
        let specs = [LaunchSpec::at_percent_load(Service::Login, 50.0)];
        let plan = Oracle::new().best_partition(&specs).expect("login at 50% fits easily");
        assert_eq!(plan.shares.len(), 1);
        assert!(plan.total_cores() <= 36);
        assert!(plan.total_ways() <= 20);
    }

    #[test]
    fn impossible_load_is_infeasible() {
        let specs = [LaunchSpec::new(Service::Moses, 1.0e9)];
        assert!(Oracle::new().best_partition(&specs).is_none());
    }

    #[test]
    fn three_moderate_services_fit() {
        // The Fig. 10 midpoint: three services at 40 % each. A tight
        // packing (hill-climbed to ρ ≈ 1) fits the machine.
        let specs = [
            LaunchSpec::at_percent_load(Service::Moses, 40.0),
            LaunchSpec::at_percent_load(Service::ImgDnn, 40.0),
            LaunchSpec::at_percent_load(Service::Xapian, 40.0),
        ];
        let plan = Oracle::new().best_partition(&specs).expect("the Fig. 10 midpoint is feasible");
        assert_eq!(plan.shares.len(), 3);
        assert!(plan.total_cores() <= 36, "{plan:?}");
        assert!(plan.total_ways() <= 20, "{plan:?}");

        // The same trio at 80 % each (~240 % aggregate) cannot fit.
        let over = [
            LaunchSpec::at_percent_load(Service::Moses, 80.0),
            LaunchSpec::at_percent_load(Service::ImgDnn, 80.0),
            LaunchSpec::at_percent_load(Service::Xapian, 80.0),
        ];
        assert!(Oracle::new().best_partition(&over).is_none());
    }

    #[test]
    fn overcommitted_machine_is_infeasible() {
        let specs = [
            LaunchSpec::at_percent_load(Service::Moses, 100.0),
            LaunchSpec::at_percent_load(Service::Xapian, 100.0),
            LaunchSpec::at_percent_load(Service::Specjbb, 100.0),
            LaunchSpec::at_percent_load(Service::Masstree, 100.0),
        ];
        assert!(
            Oracle::new().best_partition(&specs).is_none(),
            "four services at max load cannot fit"
        );
    }
}
