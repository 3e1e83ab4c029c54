//! Dependency-free parallelism: a job budget and two fan-outs over it.
//!
//! Mapping sweeps (the paper's Figure 3/5 suites) run many completely
//! independent machine simulations; [`parallel_map`] fans them out across
//! OS threads with [`std::thread::scope`] — no external crates. A sharded
//! [`crate::Machine`] fans its shards' per-cycle work out the same way
//! ([`try_for_each_chunk`]). Both are deterministic for every job count;
//! only wall-clock time changes, and results always follow input order.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The number of worker threads to use by default: the machine's
/// available parallelism, or 1 if it cannot be determined.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// A budget of worker threads shared by every parallel layer in the
/// process: sweep-level [`parallel_map`] fan-out and the intra-simulation
/// shard workers of a sharded [`crate::Machine`] (see
/// [`crate::Machine::set_jobs`]) draw extra-thread slots from the same
/// pool, so a sweep of sharded simulations never oversubscribes the
/// configured job count (`COMMLOC_JOBS=N` caps live worker threads at
/// `N` across both layers combined).
///
/// The calling thread always counts as one worker; the budget tracks the
/// *extra* threads that may be spawned beyond it. Claims are best-effort:
/// a layer asks for the workers it wants and runs with whatever it is
/// granted (possibly serial), which never changes results — every
/// consumer is bit-deterministic across worker counts.
///
/// All lock sites recover from poisoning rather than panicking: the
/// budget is plain counters (any observed state is consistent), and a
/// long-running server must keep claiming and — critically — *releasing*
/// slots after one batch panics. Panicking in [`WorkerClaim::drop`]
/// during an unwind would abort the process; refusing to release would
/// permanently shrink the pool and starve every later batch.
#[derive(Debug)]
struct JobBudget {
    /// `(total worker budget, extra slots currently available)`;
    /// `None` until first use.
    state: Mutex<Option<(usize, usize)>>,
}

/// The process-wide budget instance.
static BUDGET: JobBudget = JobBudget {
    state: Mutex::new(None),
};

impl JobBudget {
    /// Initializes on first use: `COMMLOC_JOBS` if set to a valid count,
    /// else the machine's available parallelism. (Entry points that
    /// validate `COMMLOC_JOBS` strictly reject bad values before any
    /// claim happens; the budget itself just falls back.)
    fn init(slot: &mut Option<(usize, usize)>) -> &mut (usize, usize) {
        slot.get_or_insert_with(|| {
            let total = std::env::var("COMMLOC_JOBS")
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .filter(|&n| n >= 1)
                .unwrap_or_else(default_jobs);
            (total, total - 1)
        })
    }

    /// Raises the total budget to at least `total` workers. Never lowers
    /// it — outstanding claims cannot be retracted.
    fn raise(&self, total: usize) {
        let mut slot = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let state = Self::init(&mut slot);
        if total > state.0 {
            state.1 += total - state.0;
            state.0 = total;
        }
    }

    /// Claims up to `desired` extra worker slots, returning a guard that
    /// releases them on drop. The grant may be anything in
    /// `0..=desired`.
    fn claim(&self, desired: usize) -> WorkerClaim<'_> {
        let mut slot = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let state = Self::init(&mut slot);
        let granted = desired.min(state.1);
        state.1 -= granted;
        WorkerClaim {
            granted,
            pool: self,
        }
    }

    fn release(&self, n: usize) {
        if n > 0 {
            let mut slot = self
                .state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let state = Self::init(&mut slot);
            state.1 += n;
        }
    }
}

/// A grant of extra worker slots from a job budget; slots return to the
/// pool when dropped (including on unwind).
#[derive(Debug)]
pub(crate) struct WorkerClaim<'a> {
    granted: usize,
    pool: &'a JobBudget,
}

impl WorkerClaim<'_> {
    /// Extra worker threads this claim allows beyond the calling thread.
    pub(crate) fn granted(&self) -> usize {
        self.granted
    }
}

impl Drop for WorkerClaim<'_> {
    fn drop(&mut self) {
        self.pool.release(self.granted);
    }
}

/// Raises the process-wide worker budget to at least `total` threads.
///
/// Entry points that take an explicit job count (the `commloc` CLI's
/// `--jobs`, test harnesses) call this so the request is honoured even on
/// machines with less available parallelism; nested layers then share the
/// raised budget instead of multiplying it. Never lowers the budget.
pub fn set_job_budget(total: usize) {
    BUDGET.raise(total.max(1));
}

/// Claims up to `desired` extra worker slots from the process budget.
pub(crate) fn claim_extra_workers(desired: usize) -> WorkerClaim<'static> {
    BUDGET.claim(desired)
}

/// Applies `f` to every item on up to `jobs` worker threads, returning
/// results in input order.
///
/// Work is distributed dynamically (an atomic cursor), so uneven item
/// costs balance across threads. With `jobs <= 1` the items run inline on
/// the calling thread. A panic in `f` propagates to the caller.
///
/// The worker count is additionally capped by the process-wide job
/// budget (see [`set_job_budget`]): extra threads beyond the caller's own
/// slot are claimed from the shared pool, so nesting — e.g. a sweep whose
/// items each run a sharded simulation — never oversubscribes the
/// configured total. Results are identical for every grant.
pub fn parallel_map<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let desired = jobs.min(items.len());
    if desired <= 1 {
        return items.iter().map(f).collect();
    }
    // The caller's thread transfers its slot to one spawned worker (it
    // only blocks on the scope join below), so `1 + granted` threads run.
    let claim = claim_extra_workers(desired - 1);
    let jobs = 1 + claim.granted();
    if jobs <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let result = f(item);
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("worker filled every claimed slot")
        })
        .collect()
}

/// Applies `f` to every item of `items` in place on up to `workers`
/// threads: inline on the calling thread with one worker, otherwise over
/// contiguous chunks on [`std::thread::scope`] threads, the calling thread
/// taking the first chunk. Each chunk stops at its first error, and the
/// error returned is the first by item order. A panic in `f` propagates.
///
/// Unlike [`parallel_map`] this claims nothing from the job budget: the
/// caller claims `workers` once and holds the claim across many calls
/// ([`crate::Machine::run_network_cycles`] calls this once per cycle).
pub(crate) fn try_for_each_chunk<T, E, F>(items: &mut [T], workers: usize, f: F) -> Result<(), E>
where
    T: Send,
    E: Send,
    F: Fn(&mut T) -> Result<(), E> + Sync,
{
    let chunk = items.len().div_ceil(workers.max(1)).max(1);
    if chunk >= items.len() {
        return items.iter_mut().try_for_each(f);
    }
    let f = &f;
    std::thread::scope(|scope| {
        let mut chunks = items.chunks_mut(chunk);
        let first = chunks.next().expect("more than one chunk");
        let spawned: Vec<_> = chunks
            .map(|chunk| scope.spawn(move || chunk.iter_mut().try_for_each(f)))
            .collect();
        let mut result = first.iter_mut().try_for_each(f);
        for handle in spawned {
            let outcome = handle
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            result = result.and(outcome);
        }
        result
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_input_order() {
        set_job_budget(4);
        let items: Vec<usize> = (0..40).collect();
        let doubled = parallel_map(&items, 4, |&x| x * 2);
        assert_eq!(doubled, (0..40).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn job_budget_grants_and_releases_extra_slots() {
        // A local pool, independent of the process-global one: 4 workers
        // total, 3 extra beyond the caller.
        let pool = JobBudget {
            state: Mutex::new(Some((4, 3))),
        };
        let first = pool.claim(2);
        assert_eq!(first.granted(), 2);
        // Nested layer sees only what is left.
        let nested = pool.claim(10);
        assert_eq!(nested.granted(), 1);
        let starved = pool.claim(5);
        assert_eq!(starved.granted(), 0);
        drop(nested);
        drop(starved);
        drop(first);
        // Everything returned on drop.
        let all = pool.claim(10);
        assert_eq!(all.granted(), 3);
    }

    #[test]
    fn job_budget_raise_never_lowers() {
        let pool = JobBudget {
            state: Mutex::new(Some((4, 3))),
        };
        pool.raise(2);
        assert_eq!(pool.claim(10).granted(), 3, "raise must not shrink");
        pool.raise(6);
        let claim = pool.claim(10);
        assert_eq!(claim.granted(), 5, "raise adds the difference");
    }

    #[test]
    fn panicking_claim_holder_restores_budget() {
        let pool = JobBudget {
            state: Mutex::new(Some((4, 3))),
        };
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let claim = pool.claim(3);
            assert_eq!(claim.granted(), 3);
            panic!("worker died mid-batch");
        }));
        assert!(unwound.is_err());
        // The claim's drop guard ran during the unwind: nothing leaked.
        assert_eq!(
            pool.claim(10).granted(),
            3,
            "a panicked batch must return its slots"
        );
    }

    #[test]
    fn poisoned_budget_lock_still_grants_and_releases() {
        let pool = JobBudget {
            state: Mutex::new(Some((4, 3))),
        };
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = pool.state.lock().unwrap();
            panic!("poison the budget lock");
        }));
        assert!(pool.state.is_poisoned());
        let claim = pool.claim(2);
        assert_eq!(claim.granted(), 2, "poisoned lock must not wedge claims");
        drop(claim);
        assert_eq!(pool.claim(10).granted(), 3, "release must work too");
    }

    #[test]
    fn parallel_map_worker_panic_leaves_budget_whole() {
        set_job_budget(4);
        let items: Vec<usize> = (0..32).collect();
        for _ in 0..8 {
            let unwound = std::panic::catch_unwind(|| {
                parallel_map(&items, 4, |&x| {
                    if x == 5 {
                        panic!("boom");
                    }
                    x
                })
            });
            assert!(unwound.is_err(), "worker panic must propagate");
        }
        // Were each panicked batch leaking its claim, eight rounds would
        // have drained the pool; instead a full-width batch still runs
        // and the full grant eventually returns (bounded retry because
        // concurrently running tests legitimately hold slots).
        assert_eq!(
            parallel_map(&items, 4, |&x| x + 1),
            (1..33).collect::<Vec<_>>()
        );
        let mut granted = 0;
        for _ in 0..500 {
            granted = claim_extra_workers(3).granted();
            if granted == 3 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert_eq!(granted, 3, "panicked batches leaked worker slots");
    }

    #[test]
    fn chunked_fan_out_visits_every_item_and_reports_the_first_error() {
        for workers in [1, 2, 3, 8] {
            let mut items: Vec<u32> = (0..7).collect();
            let ok: Result<(), u32> = try_for_each_chunk(&mut items, workers, |x| {
                *x += 10;
                Ok(())
            });
            assert_eq!(ok, Ok(()));
            assert_eq!(items, (10..17).collect::<Vec<_>>(), "{workers} workers");
            let failed = try_for_each_chunk(&mut items, workers, |&mut x| {
                if x >= 13 && x % 2 == 1 {
                    Err(x)
                } else {
                    Ok(())
                }
            });
            assert_eq!(
                failed,
                Err(13),
                "{workers} workers: first error by item order"
            );
        }
    }

    #[test]
    fn parallel_map_runs_inline_for_single_job() {
        let items = vec![1, 2, 3];
        assert_eq!(parallel_map(&items, 1, |&x| x + 1), vec![2, 3, 4]);
        assert_eq!(parallel_map(&items, 0, |&x| x + 1), vec![2, 3, 4]);
    }
}
