//! The repo's performance ledger: four workloads over the node controller,
//! the cluster tier and the unified log, measured from outside — by timing
//! calls into public functions, a counting/timing `Substrate` decorator, a
//! counting global allocator, and the `Telemetry` handle the scheduler
//! already carries. See `benchmark/README.md`.

#![warn(missing_docs)]

pub mod alloc;
pub mod churn;
pub mod fleet;
pub mod kernels;
pub mod logreplay;
pub mod report;
pub mod runner;
pub mod setup;
pub mod stats;
pub mod steady;
pub mod traced;
pub mod workload;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Where the benchmark writes: `benchmark/out/`, inside the checkout.
pub fn out_dir() -> PathBuf {
    let manifest = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")));
    let dir = manifest.join("out");
    std::fs::create_dir_all(&dir).expect("benchmark/out is creatable inside the checkout");
    dir
}

/// A scratch directory under [`out_dir`] for journal and snapshot files,
/// removed when dropped. Fresh per process and per call: tests run
/// workloads on parallel threads.
#[derive(Debug)]
pub struct Scratch(PathBuf);

impl Scratch {
    /// Creates the directory.
    pub fn new() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = out_dir().join(format!("tmp-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch directory is creatable");
        Scratch(dir)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Default for Scratch {
    fn default() -> Self {
        Scratch::new()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
