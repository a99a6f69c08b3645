use serde::{Deserialize, Serialize};

/// Static description of a server platform (Table 2 of the paper).
///
/// `ServerSpec` captures the catalog-sheet numbers; [`Topology`] adds derived
/// geometry (hyper-thread sibling mapping, per-way cache capacity) and is the
/// type the rest of the system consumes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerSpec {
    /// Marketing name of the CPU, e.g. `"Intel Xeon E5-2697 v4"`.
    pub cpu_model: String,
    /// Number of physical cores.
    pub physical_cores: usize,
    /// Hardware threads per physical core (2 with hyper-threading).
    pub threads_per_core: usize,
    /// Nominal core frequency in GHz.
    pub frequency_ghz: f64,
    /// Shared last-level cache capacity in MB.
    pub llc_mb: f64,
    /// Number of LLC ways (the CAT allocation granularity).
    pub llc_ways: usize,
    /// Total local memory bandwidth in GB/s.
    pub memory_bw_gbps: f64,
    /// Main memory capacity in GB.
    pub memory_gb: f64,
}

impl ServerSpec {
    /// The paper's testbed ("Our Platform" in Table 2): Intel Xeon E5-2697 v4,
    /// 18 physical / 36 logical cores, 45 MB 20-way LLC, 4×DDR4-2400
    /// (76.8 GB/s), 256 GB DRAM.
    pub fn xeon_e5_2697_v4() -> Self {
        ServerSpec {
            cpu_model: "Intel Xeon E5-2697 v4".to_owned(),
            physical_cores: 18,
            threads_per_core: 2,
            frequency_ghz: 2.3,
            llc_mb: 45.0,
            llc_ways: 20,
            memory_bw_gbps: 76.8,
            memory_gb: 256.0,
        }
    }

    /// The decade-old comparison server of Table 2: Intel i7-860, 4 physical /
    /// 8 logical cores, 8 MB 16-way LLC, 2×DDR3-1600 (25.6 GB/s), 8 GB DRAM.
    pub fn i7_860() -> Self {
        ServerSpec {
            cpu_model: "Intel i7-860".to_owned(),
            physical_cores: 4,
            threads_per_core: 2,
            frequency_ghz: 2.8,
            llc_mb: 8.0,
            llc_ways: 16,
            memory_bw_gbps: 25.6,
            memory_gb: 8.0,
        }
    }
}

/// Core/cache/bandwidth geometry of one server.
///
/// Logical cores are numbered the way Linux numbers them on a single-socket
/// hyper-threaded Xeon: logical core `i` and `i + physical_cores` are the two
/// hardware threads (HT siblings) of physical core `i % physical_cores`.
///
/// # Example
///
/// ```
/// use osml_platform::Topology;
/// let t = Topology::xeon_e5_2697_v4();
/// assert_eq!(t.sibling_of(0), Some(18)); // the HT sibling of core 0
/// assert_eq!(t.sibling_of(5), Some(23));
/// assert_eq!(t.sibling_of(23), Some(5));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Topology {
    spec: ServerSpec,
}

impl Topology {
    /// Builds a topology from a hardware spec.
    ///
    /// # Panics
    ///
    /// Panics if the spec has zero cores, zero ways, more than 64 logical
    /// cores (the [`crate::CoreSet`] representation limit) or more than 32
    /// ways (the [`crate::WayMask`] representation limit).
    pub(crate) fn new(spec: ServerSpec) -> Self {
        let logical = spec.physical_cores * spec.threads_per_core;
        assert!(logical > 0, "topology must have at least one core");
        assert!(logical <= 64, "CoreSet supports at most 64 logical cores");
        assert!(spec.llc_ways > 0, "topology must have at least one LLC way");
        assert!(spec.llc_ways <= 32, "WayMask supports at most 32 ways");
        Topology { spec }
    }

    /// The paper's testbed topology (see [`ServerSpec::xeon_e5_2697_v4`]).
    pub fn xeon_e5_2697_v4() -> Self {
        Topology::new(ServerSpec::xeon_e5_2697_v4())
    }

    /// Number of logical cores (hardware threads).
    pub fn logical_cores(&self) -> usize {
        self.spec.physical_cores * self.spec.threads_per_core
    }

    /// Number of physical cores.
    pub(crate) fn physical_cores(&self) -> usize {
        self.spec.physical_cores
    }

    /// Number of LLC ways available to CAT.
    pub fn llc_ways(&self) -> usize {
        self.spec.llc_ways
    }

    /// Capacity of a single LLC way in MB (2.25 MB on the testbed).
    pub fn way_mb(&self) -> f64 {
        self.spec.llc_mb / self.spec.llc_ways as f64
    }

    /// Total local memory bandwidth in GB/s.
    pub fn memory_bw_gbps(&self) -> f64 {
        self.spec.memory_bw_gbps
    }

    /// Nominal core frequency in GHz.
    pub fn frequency_ghz(&self) -> f64 {
        self.spec.frequency_ghz
    }

    /// Physical core that hosts logical core `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub(crate) fn physical_of(&self, core: usize) -> usize {
        assert!(core < self.logical_cores(), "core {core} out of range");
        core % self.spec.physical_cores
    }

    /// The hyper-thread sibling of logical core `core`, or `None` on a
    /// machine without SMT.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn sibling_of(&self, core: usize) -> Option<usize> {
        assert!(core < self.logical_cores(), "core {core} out of range");
        if self.spec.threads_per_core < 2 {
            return None;
        }
        let p = self.spec.physical_cores;
        Some(if core < p { core + p } else { core - p })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_matches_table2() {
        let t = Topology::xeon_e5_2697_v4();
        assert_eq!(t.logical_cores(), 36);
        assert_eq!(t.physical_cores(), 18);
        assert_eq!(t.llc_ways(), 20);
        assert!((t.way_mb() - 2.25).abs() < 1e-12);
        assert!((t.memory_bw_gbps() - 76.8).abs() < 1e-12);
        assert!((t.frequency_ghz() - 2.3).abs() < 1e-12);
    }

    #[test]
    fn old_server_matches_table2() {
        let t = Topology::new(ServerSpec::i7_860());
        assert_eq!(t.logical_cores(), 8);
        assert!((t.memory_bw_gbps() - 25.6).abs() < 1e-12);
    }

    #[test]
    fn sibling_mapping_is_an_involution() {
        let t = Topology::xeon_e5_2697_v4();
        for c in 0..t.logical_cores() {
            let s = t.sibling_of(c).expect("HT machine has siblings");
            assert_ne!(s, c);
            assert_eq!(t.sibling_of(s), Some(c));
            assert_eq!(t.physical_of(s), t.physical_of(c));
        }
    }

    #[test]
    fn no_smt_means_no_sibling() {
        let mut spec = ServerSpec::xeon_e5_2697_v4();
        spec.threads_per_core = 1;
        let t = Topology::new(spec);
        assert_eq!(t.logical_cores(), 18);
        assert_eq!(t.sibling_of(3), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn physical_of_rejects_out_of_range() {
        Topology::xeon_e5_2697_v4().physical_of(36);
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn rejects_too_many_logical_cores() {
        let mut spec = ServerSpec::xeon_e5_2697_v4();
        spec.physical_cores = 64;
        Topology::new(spec);
    }

    #[test]
    fn spec_round_trips_through_serde() {
        let t = Topology::xeon_e5_2697_v4();
        let json = serde_json::to_string(&t).unwrap();
        let back: Topology = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }
}
