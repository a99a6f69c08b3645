//! Tier-1 memory budget: the heap a trained set-up holds at its peak.
//!
//! A test binary of its own, because it installs a counting
//! `#[global_allocator]` that sees every allocation in the process: it holds
//! only one test, so no other test's allocations overlap the measured one.
//!
//! The budget is a ratchet. Lowering [`SETUP_PEAK_BUDGET_MB`] is free;
//! raising it needs a line in CHANGES.md saying what now needs the room.

use osml::dataset::{SweepConfig, TrainedModels, TrainingConfig};
use osml::ml::TrainerConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Peak live heap, above what was live before, while the suite trains
/// (5.05 MB when pinned). A set-up that holds Model-C's whole sweep (≈62 k
/// tuples, 12.4 MB) before pooling the last 10 000 of them peaks at 26.7 MB.
const SETUP_PEAK_BUDGET_MB: f64 = 6.0;

/// The system allocator, counting live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::SeqCst);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass through to `System`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`, with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` obligations pass through.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The benchmark's sweep shape (one thread count, every 6th core count and
/// 5th way count, eleven services, one job), which sweeps ≈62 k Model-C
/// tuples and fits Model-B′ on ≈18 k rows. Epochs and DQN steps are few:
/// what set-up holds does not grow with either.
fn benchmark_shaped() -> TrainingConfig {
    TrainingConfig {
        sweep: SweepConfig {
            core_step: 6,
            way_step: 5,
            thread_counts: vec![16],
            jobs: Some(1),
            ..SweepConfig::default()
        },
        trainer: TrainerConfig { epochs: 2, batch_size: 256, ..TrainerConfig::default() },
        dqn_steps: 5,
        seed: 0x0511,
    }
}

#[test]
fn training_the_suite_holds_one_working_set_at_a_time() {
    let cfg = benchmark_shaped();
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let models = TrainedModels::train(&cfg);
    let peak_mb = (PEAK.load(Ordering::SeqCst) - base) as f64 / 1e6;
    assert!(models.model_c.pool_len() > 0);
    drop(models);
    println!("set-up peak live heap: {peak_mb:.2} MB (budget {SETUP_PEAK_BUDGET_MB} MB)");
    assert!(
        peak_mb <= SETUP_PEAK_BUDGET_MB,
        "training held {peak_mb:.2} MB of heap at its peak; the budget is \
         {SETUP_PEAK_BUDGET_MB} MB"
    );
}
