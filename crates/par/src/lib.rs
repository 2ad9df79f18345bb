//! # scanguard-par
//!
//! The workspace's deterministic work pool: a scoped-thread fan-out over
//! an indexed work list, shared by the design-space explorer and the
//! fault-simulation engine (any crate below `scanguard-explore` in the
//! dependency graph can use it without a cycle).
//!
//! Scheduling is a shared atomic cursor — each worker claims the next
//! unevaluated index, so a slow point (a large synthesis, a
//! hard-to-detect fault) never stalls the rest of the queue behind a
//! static partition. Results carry their index and are re-sorted before
//! returning, which makes the output order — and, because every
//! evaluation is a pure function of its index, the output *bytes* —
//! independent of the thread count.
//!
//! # Examples
//!
//! ```
//! let squares = scanguard_par::run_pool(4, 2, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

use scanguard_obs::{arg, Lane, Recorder};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// A shared worker-slot budget: long-running services run many pool
/// fan-outs concurrently, and without coordination an 8-core host
/// asked to serve four 8-thread requests would oversubscribe to 32
/// threads. Each run [`acquire`](Self::acquire)s slots first — it gets
/// as many as are free (at least one, blocking until one frees up), so
/// the total worker count across every concurrent run never exceeds
/// the budget.
///
/// Determinism is untouched: a grant only sizes the pool, and
/// [`run_pool`] results are thread-count-blind by construction.
#[derive(Debug)]
pub struct PoolBudget {
    slots: usize,
    free: Mutex<usize>,
    freed: Condvar,
    waiters: AtomicUsize,
}

impl PoolBudget {
    /// A budget of `slots` worker slots (clamped to at least 1).
    #[must_use]
    pub fn new(slots: usize) -> Self {
        let slots = slots.max(1);
        PoolBudget {
            slots,
            free: Mutex::new(slots),
            freed: Condvar::new(),
            waiters: AtomicUsize::new(0),
        }
    }

    /// Total slots in the budget.
    #[must_use]
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Slots currently unclaimed.
    ///
    /// # Panics
    ///
    /// Propagates a poisoned budget lock.
    #[must_use]
    pub fn available(&self) -> usize {
        *self.free.lock().expect("budget lock")
    }

    /// Requests currently blocked in [`acquire`](Self::acquire) waiting
    /// for a slot to free — the daemon's queue depth gauge. Zero means
    /// every arriving request got at least one slot immediately.
    #[must_use]
    pub fn waiters(&self) -> usize {
        self.waiters.load(Ordering::Relaxed)
    }

    /// Claims up to `want` slots (at least 1), blocking while none are
    /// free. The grant returns its slots on drop.
    ///
    /// # Panics
    ///
    /// Propagates a poisoned budget lock.
    #[must_use]
    pub fn acquire(&self, want: usize) -> BudgetGrant<'_> {
        let want = want.max(1);
        let mut free = self.free.lock().expect("budget lock");
        if *free == 0 {
            self.waiters.fetch_add(1, Ordering::Relaxed);
            while *free == 0 {
                free = self.freed.wait(free).expect("budget lock");
            }
            self.waiters.fetch_sub(1, Ordering::Relaxed);
        }
        let granted = want.min(*free);
        *free -= granted;
        BudgetGrant {
            budget: self,
            threads: granted,
        }
    }

    fn release(&self, n: usize) {
        let mut free = self.free.lock().expect("budget lock");
        *free = (*free + n).min(self.slots);
        drop(free);
        self.freed.notify_all();
    }
}

/// Worker slots claimed from a [`PoolBudget`]; returned on drop.
#[derive(Debug)]
pub struct BudgetGrant<'a> {
    budget: &'a PoolBudget,
    threads: usize,
}

impl BudgetGrant<'_> {
    /// How many slots this grant holds — the thread count to run with.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl Drop for BudgetGrant<'_> {
    fn drop(&mut self) {
        self.budget.release(self.threads);
    }
}

/// A cooperative cancellation flag shared between a pool run and
/// whoever may abort it (a serving daemon's `cancel` request), with an
/// optional deadline after which the token reads as cancelled on its
/// own. Cloning shares the flag.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A fresh, uncancelled token without a deadline.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that shares this one's flag and also reads as cancelled
    /// once `deadline` has passed. `self` keeps no deadline.
    #[must_use]
    pub fn with_deadline(&self, deadline: Instant) -> Self {
        CancelToken {
            flag: self.flag.clone(),
            deadline: Some(deadline),
        }
    }

    /// Raises the flag. Workers stop claiming new tasks; tasks already
    /// running finish normally.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether [`cancel`](Self::cancel) has been called or the deadline,
    /// if any, has passed.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed) || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// A cancellable pool run observed its token mid-run and stopped
/// before evaluating every index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("pool run cancelled")
    }
}

impl std::error::Error for Cancelled {}

/// Evaluates `eval(i)` for every `i < n` on `threads` workers and
/// returns the results in index order.
///
/// `eval` must be a pure function of the index for the determinism
/// guarantee to hold (shared caches are fine: a memoized build is the
/// same value whoever computes it).
///
/// # Panics
///
/// Propagates a panic from any worker.
pub fn run_pool<T, F>(n: usize, threads: usize, eval: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_pool_obs(n, threads, None, |_, i| eval(i))
}

/// [`run_pool`] with observability: `eval` additionally receives the
/// worker index (so callers can emit onto the right [`Lane::Worker`]),
/// and — when a [`Recorder`] is supplied — each worker's whole loop
/// becomes a span on its lane, with per-pool/per-worker metrics:
///
/// * `par.tasks` (deterministic): total tasks executed, `== n`;
/// * `par.workers` (volatile): distinct worker lanes spawned — a
///   function of the requested thread count, so it must not enter
///   snapshot equality;
/// * `par.worker.NN.tasks` / `par.worker.NN.busy_ns` /
///   `par.worker.NN.idle_ns` (volatile): which worker claimed how much
///   work and how long it sat in pool overhead — scheduling noise,
///   excluded from snapshot equality.
///
/// The result (and its byte identity) is unchanged by the recorder:
/// only wall-clock observation is added, never scheduling.
///
/// # Panics
///
/// Propagates a panic from any worker.
pub fn run_pool_obs<T, F>(n: usize, threads: usize, obs: Option<&Recorder>, eval: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, usize) -> T + Sync,
{
    run_pool_cancel(n, threads, obs, None, eval).expect("uncancellable run cannot be cancelled")
}

/// [`run_pool_obs`] with cooperative cancellation: workers check
/// `cancel` before claiming each next index and stop claiming once the
/// token is raised. A run that stopped short returns `Err(Cancelled)`;
/// a run whose tasks all completed returns `Ok` even if the token was
/// raised after the last claim (the result is whole, so it is valid).
///
/// # Errors
///
/// [`Cancelled`] when the token aborted the run before every index was
/// evaluated.
///
/// # Panics
///
/// Propagates a panic from any worker.
pub fn run_pool_cancel<T, F>(
    n: usize,
    threads: usize,
    obs: Option<&Recorder>,
    cancel: Option<&CancelToken>,
    eval: F,
) -> Result<Vec<T>, Cancelled>
where
    T: Send,
    F: Fn(usize, usize) -> T + Sync,
{
    let threads = threads.max(1).min(n.max(1));
    if let Some(rec) = obs {
        rec.counter_volatile("par.workers").add(threads as u64);
    }
    let cursor = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let eval = &eval;
                let cursor = &cursor;
                let collected = &collected;
                s.spawn(move || {
                    let started = obs.map(|rec| {
                        rec.begin(Lane::Worker(w as u32), "worker", 0);
                        Instant::now()
                    });
                    let mut local = Vec::new();
                    let mut busy_ns = 0u64;
                    loop {
                        if cancel.is_some_and(CancelToken::is_cancelled) {
                            break;
                        }
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let t0 = started.map(|_| Instant::now());
                        local.push((i, eval(w, i)));
                        if let Some(t0) = t0 {
                            busy_ns += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                        }
                    }
                    if let (Some(rec), Some(started)) = (obs, started) {
                        let executed = local.len() as u64;
                        let total_ns =
                            u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                        rec.end(
                            Lane::Worker(w as u32),
                            "worker",
                            executed,
                            vec![arg("tasks", executed)],
                        );
                        rec.counter("par.tasks").add(executed);
                        rec.counter_volatile(&format!("par.worker.{w:02}.tasks"))
                            .add(executed);
                        rec.counter_volatile(&format!("par.worker.{w:02}.busy_ns"))
                            .add(busy_ns);
                        rec.counter_volatile(&format!("par.worker.{w:02}.idle_ns"))
                            .add(total_ns.saturating_sub(busy_ns));
                    }
                    collected.lock().expect("result lock").extend(local);
                })
            })
            .collect();
        for h in handles {
            h.join().expect("pool worker panicked");
        }
    });
    let mut results = collected.into_inner().expect("result lock");
    if results.len() < n {
        return Err(Cancelled);
    }
    results.sort_by_key(|&(i, _)| i);
    Ok(results.into_iter().map(|(_, v)| v).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        let out = run_pool(100, 8, |i| {
            // Vary per-item latency to scramble completion order.
            std::thread::sleep(std::time::Duration::from_micros((i % 7) as u64));
            i * 2
        });
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_matches_parallel() {
        let f = |i: usize| i.wrapping_mul(0x9E37_79B9) ^ (i << 3);
        assert_eq!(run_pool(64, 1, f), run_pool(64, 8, f));
    }

    #[test]
    fn empty_and_oversubscribed_pools_work() {
        assert!(run_pool(0, 4, |i| i).is_empty());
        assert_eq!(run_pool(3, 64, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn zero_threads_is_clamped_to_one() {
        assert_eq!(run_pool(5, 0, |i| i + 1), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn observed_pool_emits_one_lane_per_worker_and_counts_tasks() {
        let rec = Recorder::new(scanguard_obs::RecorderConfig {
            trace: true,
            metrics: true,
            ..scanguard_obs::RecorderConfig::default()
        });
        let out = run_pool_obs(40, 4, Some(&rec), |_, i| i);
        assert_eq!(out, (0..40).collect::<Vec<_>>());
        let lanes: std::collections::HashSet<Lane> = rec.events().iter().map(|e| e.lane).collect();
        assert_eq!(lanes.len(), 4, "one span lane per worker: {lanes:?}");
        let snap = rec.metrics_snapshot();
        assert_eq!(snap.counters["par.tasks"], 40);
        assert_eq!(snap.volatile["par.workers"], 4);
        let claimed: u64 = snap
            .volatile
            .iter()
            .filter(|(k, _)| k.ends_with(".tasks"))
            .map(|(_, &v)| v)
            .sum();
        assert_eq!(claimed, 40, "volatile per-worker claims sum to n");
    }

    #[test]
    fn budget_caps_concurrent_grants() {
        let budget = PoolBudget::new(4);
        let a = budget.acquire(3);
        assert_eq!(a.threads(), 3);
        // Only one slot is left: a greedy request gets it, not more.
        let b = budget.acquire(8);
        assert_eq!(b.threads(), 1);
        assert_eq!(budget.available(), 0);
        drop(a);
        assert_eq!(budget.available(), 3);
        drop(b);
        assert_eq!(budget.available(), 4);
    }

    #[test]
    fn budget_blocks_until_a_slot_frees() {
        let budget = PoolBudget::new(2);
        let held = budget.acquire(2);
        let t0 = std::time::Instant::now();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| budget.acquire(1).threads());
            std::thread::sleep(std::time::Duration::from_millis(30));
            assert_eq!(budget.waiters(), 1, "blocked acquire shows as a waiter");
            drop(held);
            assert_eq!(waiter.join().unwrap(), 1);
        });
        assert!(t0.elapsed().as_millis() >= 30, "acquire must have blocked");
        assert_eq!(budget.waiters(), 0, "queue drains back to zero");
    }

    #[test]
    fn zero_slot_budget_is_clamped_to_one() {
        let budget = PoolBudget::new(0);
        assert_eq!(budget.slots(), 1);
        assert_eq!(budget.acquire(5).threads(), 1);
    }

    #[test]
    fn cancelled_run_stops_claiming_and_reports_it() {
        let token = CancelToken::new();
        let started = AtomicUsize::new(0);
        let result = run_pool_cancel(1000, 2, None, Some(&token), |_, i| {
            started.fetch_add(1, Ordering::Relaxed);
            if i == 0 {
                token.cancel();
            }
            i
        });
        assert_eq!(result, Err(Cancelled));
        assert!(
            started.load(Ordering::Relaxed) < 1000,
            "workers must stop claiming after cancel"
        );
    }

    #[test]
    fn passed_deadline_stops_the_run() {
        let token = CancelToken::new();
        let expired = token.with_deadline(Instant::now());
        let started = AtomicUsize::new(0);
        let result = run_pool_cancel(1000, 2, None, Some(&expired), |_, i| {
            started.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(result, Err(Cancelled));
        assert_eq!(started.load(Ordering::Relaxed), 0, "no task is claimed");
        assert!(!token.is_cancelled(), "the deadline stays on its own token");
    }

    #[test]
    fn completed_run_ignores_a_late_cancel() {
        let token = CancelToken::new();
        let out = run_pool_cancel(8, 2, None, Some(&token), |_, i| i).unwrap();
        token.cancel();
        assert_eq!(out, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn uncancelled_token_changes_nothing() {
        let token = CancelToken::new();
        let f = |i: usize| i.wrapping_mul(0x9E37_79B9) ^ (i << 3);
        assert_eq!(
            run_pool_cancel(64, 8, None, Some(&token), |_, i| f(i)).unwrap(),
            run_pool(64, 8, f)
        );
    }

    #[test]
    fn recorder_does_not_change_pool_results() {
        let rec = Recorder::new(scanguard_obs::RecorderConfig {
            trace: true,
            metrics: true,
            ..scanguard_obs::RecorderConfig::default()
        });
        let f = |i: usize| i.wrapping_mul(0x9E37_79B9) ^ (i << 3);
        assert_eq!(
            run_pool_obs(64, 8, Some(&rec), |_, i| f(i)),
            run_pool(64, 8, f)
        );
    }
}
