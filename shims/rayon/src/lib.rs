//! Offline stand-in for `rayon`.
//!
//! Implements the small data-parallel surface the workspace uses —
//! `par_iter()` / `into_par_iter()` with `map(..).collect::<Vec<_>>()`,
//! `for_each`, and `join` — on scoped `std::thread`s. Two properties are
//! load-bearing and guaranteed here:
//!
//! - **Order preservation**: `collect` returns results in input order,
//!   regardless of thread count or scheduling. Combined with per-item
//!   seeded RNGs this is what makes the parallel pipeline byte-identical
//!   for 1 or N threads.
//! - **`RAYON_NUM_THREADS`**: like upstream rayon, the env var caps the
//!   worker count (`1` forces fully sequential in-thread execution).
//!
//! Work is split into one contiguous chunk per worker, so per-item
//! closure panics propagate and nothing is reordered.

use std::num::NonZeroUsize;

/// Number of worker threads: `RAYON_NUM_THREADS` when set and valid,
/// otherwise the machine's available parallelism.
///
/// The env var is re-read on every call (tests and long-lived services
/// flip it at runtime), but `available_parallelism` is resolved once:
/// on Linux it walks cgroup quota files, which is microseconds of
/// filesystem traffic — far too slow for a per-query code path.
pub fn current_num_threads() -> usize {
    if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    static MACHINE: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *MACHINE.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

static WORKER_EXIT: std::sync::OnceLock<fn()> = std::sync::OnceLock::new();

/// Install a function every shim worker thread runs after its last work
/// item, still inside the scope that spawned it. First install wins;
/// later calls are ignored.
///
/// This exists because `std::thread::scope` may unblock before the
/// worker's TLS destructors have run, so thread-local state flushed
/// from a `Drop` impl is not guaranteed visible to the caller when the
/// parallel call returns. `sb-obs` installs its `flush` here so worker
/// metric deltas are always merged before the dispatching thread can
/// snapshot them.
pub fn set_worker_exit_hook(hook: fn()) {
    let _ = WORKER_EXIT.set(hook);
}

#[inline]
fn worker_exit() {
    if let Some(hook) = WORKER_EXIT.get() {
        hook();
    }
}

/// Run two closures, potentially in parallel; returns both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if current_num_threads() <= 1 {
        return (a(), b());
    }
    std::thread::scope(|s| {
        let hb = s.spawn(move || {
            let rb = b();
            worker_exit();
            rb
        });
        let ra = a();
        (ra, hb.join().expect("rayon-shim: joined closure panicked"))
    })
}

/// Order-preserving parallel map over owned items: the workhorse behind
/// every adapter in this shim.
fn parallel_map_vec<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let threads = current_num_threads().min(items.len().max(1));
    if threads <= 1 || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    // Contiguous chunks, one per worker; concatenating chunk outputs in
    // worker order restores the input order exactly.
    let n = items.len();
    let chunk = n.div_ceil(threads);
    let mut chunks: Vec<Vec<T>> = Vec::new();
    let mut it = items.into_iter();
    loop {
        let c: Vec<T> = it.by_ref().take(chunk).collect();
        if c.is_empty() {
            break;
        }
        chunks.push(c);
    }
    let f = &f;
    let outputs: Vec<Vec<R>> = std::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|c| {
                s.spawn(move || {
                    let out = c.into_iter().map(f).collect::<Vec<R>>();
                    worker_exit();
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rayon-shim: worker panicked"))
            .collect()
    });
    outputs.into_iter().flatten().collect()
}

/// What one [`morsel_map`] dispatch did, for observability counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MorselStats {
    /// Morsels dispatched (a pure function of `count` and the caller's
    /// morsel size — never of the worker count or scheduling).
    pub morsels: usize,
    /// Morsels executed by a worker other than their home worker under
    /// the static assignment `home = morsel * workers / morsels`.
    /// Scheduling-dependent by nature; only the *presence* of work
    /// stealing is meaningful, not the exact count.
    pub steals: usize,
    /// Workers that participated in the dispatch.
    pub workers: usize,
}

/// Morsel-driven parallel map: split `0..morsels` across `workers`
/// scoped threads with **dynamic claiming** (each worker grabs the next
/// unclaimed morsel index from a shared atomic), run `f(morsel_index)`
/// per morsel, and return the results **in morsel order** regardless of
/// which worker ran what.
///
/// Dynamic claiming is what makes skewed morsels load-balance: a worker
/// stuck on an expensive morsel simply claims fewer of them. Order
/// preservation is unconditional — each result lands in slot
/// `morsel_index` — so callers that concatenate per-morsel outputs in
/// index order observe a schedule-independent result.
///
/// `workers <= 1` or `morsels <= 1` degenerates to an in-thread loop
/// with zero synchronization.
pub fn morsel_map<R, F>(morsels: usize, workers: usize, f: F) -> (Vec<R>, MorselStats)
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};
    if morsels == 0 {
        return (
            Vec::new(),
            MorselStats {
                morsels: 0,
                steals: 0,
                workers: 0,
            },
        );
    }
    let workers = workers.max(1).min(morsels);
    if workers <= 1 || morsels <= 1 {
        let out: Vec<R> = (0..morsels).map(f).collect();
        return (
            out,
            MorselStats {
                morsels,
                steals: 0,
                workers: 1,
            },
        );
    }
    let next = AtomicUsize::new(0);
    let steals = AtomicUsize::new(0);
    let f = &f;
    let next = &next;
    let steals = &steals;
    let mut parts: Vec<Vec<(usize, R)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                s.spawn(move || {
                    let mut mine: Vec<(usize, R)> = Vec::new();
                    loop {
                        let m = next.fetch_add(1, Ordering::Relaxed);
                        if m >= morsels {
                            break;
                        }
                        // Home worker under the static contiguous split;
                        // running someone else's morsel counts as a steal.
                        let home = m * workers / morsels;
                        if home != w {
                            steals.fetch_add(1, Ordering::Relaxed);
                        }
                        mine.push((m, f(m)));
                    }
                    worker_exit();
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rayon-shim: morsel worker panicked"))
            .collect()
    });
    let mut slots: Vec<Option<R>> = (0..morsels).map(|_| None).collect();
    for part in parts.drain(..) {
        for (m, r) in part {
            slots[m] = Some(r);
        }
    }
    let out: Vec<R> = slots
        .into_iter()
        .map(|s| s.expect("rayon-shim: morsel never ran"))
        .collect();
    let stats = MorselStats {
        morsels,
        steals: steals.load(Ordering::Relaxed),
        workers,
    };
    (out, stats)
}

/// A parallel iterator: a fully-materialized item list plus a composed
/// mapping. Terminal operations run `parallel_map_vec`.
pub struct ParIter<T> {
    items: Vec<T>,
}

/// A mapped parallel iterator.
pub struct ParMap<T, F> {
    items: Vec<T>,
    f: F,
}

impl<T: Send> ParIter<T> {
    /// Apply `f` to every item in parallel.
    pub fn map<R, F>(self, f: F) -> ParMap<T, F>
    where
        F: Fn(T) -> R + Sync,
        R: Send,
    {
        ParMap {
            items: self.items,
            f,
        }
    }

    /// Run `f` on every item for its side effects.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(T) + Sync,
    {
        parallel_map_vec(self.items, f);
    }
}

impl<T: Send, R: Send, F: Fn(T) -> R + Sync> ParMap<T, F> {
    /// Execute the map and collect results in input order.
    pub fn collect<C: FromParallel<R>>(self) -> C {
        C::from_ordered_vec(parallel_map_vec(self.items, self.f))
    }
}

/// Collection targets for [`ParMap::collect`].
pub trait FromParallel<R> {
    /// Build the collection from results already in input order.
    fn from_ordered_vec(v: Vec<R>) -> Self;
}

impl<R> FromParallel<R> for Vec<R> {
    fn from_ordered_vec(v: Vec<R>) -> Self {
        v
    }
}

/// `par_iter()` on borrowed collections.
pub trait IntoParallelRefIterator<'a> {
    /// Borrowed item type.
    type Item: Send + 'a;

    /// A parallel iterator over references.
    fn par_iter(&'a self) -> ParIter<Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;

    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;

    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

/// `into_par_iter()` on owned collections and ranges.
pub trait IntoParallelIterator {
    /// Owned item type.
    type Item: Send;

    /// A parallel iterator over owned items.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;

    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;

    fn into_par_iter(self) -> ParIter<usize> {
        ParIter {
            items: self.collect(),
        }
    }
}

pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<usize> = (0..1000).collect();
        let out: Vec<usize> = v.par_iter().map(|x| x * 2).collect();
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn into_par_iter_owned_and_range() {
        let out: Vec<String> = vec!["a", "b", "c"]
            .into_par_iter()
            .map(|s| s.to_uppercase())
            .collect();
        assert_eq!(out, vec!["A", "B", "C"]);
        let sq: Vec<usize> = (0..17usize).into_par_iter().map(|i| i * i).collect();
        assert_eq!(sq.len(), 17);
        assert_eq!(sq[16], 256);
    }

    #[test]
    fn empty_input_is_fine() {
        let v: Vec<i32> = Vec::new();
        let out: Vec<i32> = v.par_iter().map(|x| *x).collect();
        assert!(out.is_empty());
    }

    #[test]
    fn join_returns_both() {
        let (a, b) = join(|| 1 + 1, || "x".repeat(3));
        assert_eq!(a, 2);
        assert_eq!(b, "xxx");
    }

    #[test]
    fn morsel_map_is_order_preserving_at_any_worker_count() {
        for workers in [1, 2, 3, 8, 64] {
            let (out, stats) = morsel_map(37, workers, |m| m * 10);
            assert_eq!(out, (0..37).map(|m| m * 10).collect::<Vec<_>>());
            assert_eq!(stats.morsels, 37);
            assert_eq!(stats.workers, workers.clamp(1, 37));
        }
        let (empty, stats) = morsel_map(0, 8, |m| m);
        assert!(empty.is_empty());
        assert_eq!(stats.morsels, 0);
    }

    #[test]
    fn worker_exit_hook_has_run_when_the_dispatch_returns() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static EXITS: AtomicUsize = AtomicUsize::new(0);
        set_worker_exit_hook(|| {
            EXITS.fetch_add(1, Ordering::SeqCst);
        });
        // morsel_map returning implies the workers' hooks already ran:
        // no sleep, no waiting on TLS teardown. Other tests in this
        // binary spawn workers concurrently, so assert on the delta,
        // not an absolute count.
        let before = EXITS.load(Ordering::SeqCst);
        let (out, stats) = morsel_map(8, 3, |m| m);
        assert_eq!(out, (0..8).collect::<Vec<_>>());
        assert!(EXITS.load(Ordering::SeqCst) - before >= stats.workers);
    }

    #[test]
    fn for_each_visits_everything() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let sum = AtomicUsize::new(0);
        let v: Vec<usize> = (1..=100).collect();
        v.par_iter().for_each(|x| {
            sum.fetch_add(*x, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 5050);
    }
}
