//! A small scoped-thread work pool for the experiment pipeline.
//!
//! Every expensive path in the reproduction — co-location heatmap cells,
//! the Oracle's exhaustive partition search, the data-collection sweep, and
//! supervised training of the independent model heads — is embarrassingly
//! parallel: each unit of work derives its seed deterministically from its
//! own coordinates, so results are **bit-identical regardless of the job
//! count or scheduling order**. This module provides the one primitive they
//! all share: an order-preserving [`parallel_map_jobs`] over a slice, backed by
//! `std::thread::scope` with atomic work-stealing (no external
//! dependencies, no unsafe).
//!
//! The degree of parallelism comes from, in priority order:
//!
//! 1. an explicit `jobs` argument,
//! 2. the `OSML_JOBS` environment variable ([`jobs_from_env`]),
//! 3. [`std::thread::available_parallelism`].
//!
//! `OSML_JOBS=1` (or `jobs = 1`) degrades to a plain sequential loop on the
//! calling thread — handy for profiling and for the determinism tests that
//! pin down the bit-identical guarantee.

use std::sync::atomic::{AtomicUsize, Ordering};

/// The configured job count: `OSML_JOBS` if set to a positive integer,
/// otherwise the machine's available parallelism (falling back to 4 when
/// that is unknown).
pub fn jobs_from_env() -> usize {
    match std::env::var("OSML_JOBS") {
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("warning: ignoring invalid OSML_JOBS={raw:?} (want a positive integer)");
                available()
            }
        },
        Err(_) => available(),
    }
}

fn available() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
}

/// Maps `f` over `items` on up to `jobs` worker threads, returning results
/// in input order.
///
/// Equivalent to `items.iter().map(f).collect()` — bit-identical output,
/// any job count — as long as `f` derives all randomness from its item, as
/// every sweep in this workspace does.
///
/// Work is distributed dynamically (an atomic cursor, one item at a time),
/// so heavily skewed per-item costs — e.g. heatmap cells whose feasibility
/// search terminates early — still balance across workers.
///
/// # Panics
///
/// Panics if a worker panics (the panic is propagated).
pub fn parallel_map_jobs<T: Sync, R: Send>(
    jobs: usize,
    items: &[T],
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let jobs = jobs.max(1).min(items.len());
    if jobs <= 1 {
        return items.iter().map(f).collect();
    }

    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                let cursor = &cursor;
                let f = &f;
                scope.spawn(move || {
                    let mut produced: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            return produced;
                        }
                        produced.push((i, f(&items[i])));
                    }
                })
            })
            .collect();
        for handle in handles {
            for (i, r) in handle.join().expect("worker thread panicked") {
                slots[i] = Some(r);
            }
        }
    });

    slots.into_iter().map(|r| r.expect("every slot filled")).collect()
}

/// Runs two independent closures, in parallel when `jobs > 1`, and returns
/// both results. Building block for fork-join over heterogeneous tasks
/// (e.g. training the independent model heads concurrently).
pub fn join<A: Send, B: Send>(
    jobs: usize,
    a: impl FnOnce() -> A + Send,
    b: impl FnOnce() -> B + Send,
) -> (A, B) {
    if jobs <= 1 {
        return (a(), b());
    }
    std::thread::scope(|scope| {
        let hb = scope.spawn(b);
        let ra = a();
        (ra, hb.join().expect("joined task panicked"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_sequential_map() {
        let items: Vec<u64> = (0..257).collect();
        let seq: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for jobs in [1, 2, 4, 13] {
            assert_eq!(parallel_map_jobs(jobs, &items, |&x| x * x + 1), seq, "jobs = {jobs}");
        }
    }

    #[test]
    fn handles_empty_and_single_item() {
        let empty: Vec<u32> = vec![];
        assert!(parallel_map_jobs(8, &empty, |&x| x).is_empty());
        assert_eq!(parallel_map_jobs(8, &[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn preserves_order_under_skewed_costs() {
        // Early items sleep longer, so naive completion order would invert.
        let items: Vec<u64> = (0..16).collect();
        let out = parallel_map_jobs(4, &items, |&x| {
            std::thread::sleep(std::time::Duration::from_millis(16 - x));
            x
        });
        assert_eq!(out, items);
    }

    #[test]
    fn join_returns_both_results() {
        assert_eq!(join(1, || 1, || "two"), (1, "two"));
        assert_eq!(join(4, || 1, || "two"), (1, "two"));
    }

    #[test]
    #[should_panic(expected = "worker thread panicked")]
    fn worker_panics_propagate() {
        let items = [0u8, 1, 2, 3];
        let _ = parallel_map_jobs(2, &items, |&x| {
            if x == 2 {
                panic!("boom");
            }
            x
        });
    }

    #[test]
    fn jobs_from_env_is_positive() {
        assert!(jobs_from_env() >= 1);
    }
}
