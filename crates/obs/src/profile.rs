//! Per-query operator profiles — the `EXPLAIN ANALYZE` substrate.
//!
//! The rest of `sb-obs` aggregates across a whole process run; this
//! module answers the question the global counters cannot: *where did
//! this one statement's time and rows go?* A [`QueryProfile`] is a
//! per-statement context the engine threads through execution by
//! reference (never thread-local state), holding a flat arena of
//! node-indexed atomic [`OpStats`] slots that operators write into.
//!
//! ## Layout: blocks and slots
//!
//! Execution of one statement visits one or more SELECT *blocks*: the
//! top-level select, each derived table in FROM/JOIN order (recursively)
//! and each leaf of a set operation, in left-to-right execution order.
//! Each block reserves a contiguous slot range:
//!
//! ```text
//! [scan 0 .. scan R-1][join step 0 .. join step R-2][filter][aggregate][distinct][order]
//! ```
//!
//! Scan slots are indexed by the relation's *source* position (FROM
//! first, then JOINs in order), join slots by execution step. Because
//! the planner may reorder joins, each join slot records which source
//! relation it introduced (`rhs`) so renderers and invariant checkers
//! can re-associate steps with plan nodes without re-deriving the join
//! order.
//!
//! ## Why per-statement contexts, not thread-local globals
//!
//! The process-global registry merges thread-local deltas at thread
//! exit — correct for run totals, useless for attributing rows to one
//! operator of one concurrent request. A `QueryProfile` is owned by the
//! caller that asked for it, costs one arena allocation, and is written
//! by whichever thread coordinates the operator (morsel workers hand
//! their counts back to the dispatching thread, which writes once per
//! operator), so profiles compose under `sb-serve` concurrency without
//! any global state. Profiling is opt-in: when no profile is attached
//! the engine's hot paths skip every write behind an `Option::is_some`
//! check, and results are byte-identical either way. With `SB_OBS` on
//! the engine attaches a statement-local profile itself and folds it
//! into the process-wide `engine.*` counters ([`fold_engine_counters`]),
//! so the profile is the engine's only telemetry record.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Total slot capacity of one profile arena. A block with `R` relations
/// uses `2R - 1 + 4` slots, so this covers dozens of blocks per
/// statement — far beyond anything the dialect can express in practice.
/// When the arena is exhausted, later blocks degrade to unslotted
/// metadata (never a reallocation, never a panic).
pub const PROFILE_SLOT_CAP: usize = 128;

const NO_BASE: usize = usize::MAX;
const FIXED_OPS: usize = 4;

/// Fixed per-block operator slots that follow the scan and join ranges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FixedOp {
    /// Residual (post-join) filter.
    Filter = 0,
    /// Grouped aggregation (including HAVING).
    Aggregate = 1,
    /// DISTINCT deduplication.
    Distinct = 2,
    /// Final ordering stage: Sort, TopK or bare Limit.
    Order = 3,
}

/// Atomic statistics for one operator instance. All counters saturate
/// at `u64::MAX` in theory and in practice never get near it; writes
/// use relaxed ordering because slots are only read after execution
/// completes (the caller owns the happens-before edge).
#[derive(Debug, Default)]
pub struct OpStats {
    touched: AtomicU64,
    rows_in: AtomicU64,
    rows_out: AtomicU64,
    /// Joins: build-side rows. Aggregates: groups created (pre-HAVING).
    aux1: AtomicU64,
    /// Joins: probe-side rows.
    aux2: AtomicU64,
    /// Morsel-parallel dispatches; `morsels` and `steals` sum over them.
    dispatches: AtomicU64,
    morsels: AtomicU64,
    steals: AtomicU64,
    elapsed_ns: AtomicU64,
    /// Joins: ran as a hash join (else a nested loop). Order: ran as a
    /// bounded top-K heap (else a full sort or a bare limit).
    mark: AtomicU64,
    /// Source relation index + 1 of the left input (join step 0 only);
    /// 0 = none.
    lhs: AtomicU64,
    /// Source relation index + 1 of the relation this join step
    /// introduced; 0 = none.
    rhs: AtomicU64,
}

impl OpStats {
    /// Record input/output row counts and mark the operator as run.
    #[inline]
    pub fn rows(&self, rows_in: u64, rows_out: u64) {
        self.touched.store(1, Ordering::Relaxed);
        self.rows_in.fetch_add(rows_in, Ordering::Relaxed);
        self.rows_out.fetch_add(rows_out, Ordering::Relaxed);
    }

    /// Record hash-join build/probe cardinalities.
    #[inline]
    pub fn build_probe(&self, build: u64, probe: u64) {
        self.aux1.fetch_add(build, Ordering::Relaxed);
        self.aux2.fetch_add(probe, Ordering::Relaxed);
    }

    /// Record groups created by an aggregation (before HAVING).
    #[inline]
    pub fn groups(&self, n: u64) {
        self.aux1.fetch_add(n, Ordering::Relaxed);
    }

    /// Record one morsel-parallel dispatch. `morsels` is deterministic
    /// for a fixed workload; `steals` is scheduling noise and is masked
    /// by deterministic renderings.
    #[inline]
    pub fn parallel(&self, morsels: u64, steals: u64) {
        self.dispatches.fetch_add(1, Ordering::Relaxed);
        self.morsels.fetch_add(morsels, Ordering::Relaxed);
        self.steals.fetch_add(steals, Ordering::Relaxed);
    }

    /// Add wall-clock time attributed to this operator.
    #[inline]
    pub fn elapsed(&self, ns: u64) {
        self.elapsed_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Mark a join step as a hash join, or an order stage as a top-K
    /// heap.
    #[inline]
    pub fn mark(&self) {
        self.mark.store(1, Ordering::Relaxed);
    }

    /// Record which source relations fed a join step (see module docs).
    #[inline]
    pub fn link(&self, lhs: Option<usize>, rhs: usize) {
        if let Some(l) = lhs {
            self.lhs.store(l as u64 + 1, Ordering::Relaxed);
        }
        self.rhs.store(rhs as u64 + 1, Ordering::Relaxed);
    }

    fn reset(&self) {
        self.touched.store(0, Ordering::Relaxed);
        self.rows_in.store(0, Ordering::Relaxed);
        self.rows_out.store(0, Ordering::Relaxed);
        self.aux1.store(0, Ordering::Relaxed);
        self.aux2.store(0, Ordering::Relaxed);
        self.dispatches.store(0, Ordering::Relaxed);
        self.morsels.store(0, Ordering::Relaxed);
        self.steals.store(0, Ordering::Relaxed);
        self.elapsed_ns.store(0, Ordering::Relaxed);
        self.mark.store(0, Ordering::Relaxed);
        self.lhs.store(0, Ordering::Relaxed);
        self.rhs.store(0, Ordering::Relaxed);
    }

    fn snap(&self) -> Option<OpSnapshot> {
        if self.touched.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let link = |a: &AtomicU64| match a.load(Ordering::Relaxed) {
            0 => None,
            n => Some((n - 1) as usize),
        };
        Some(OpSnapshot {
            rows_in: self.rows_in.load(Ordering::Relaxed),
            rows_out: self.rows_out.load(Ordering::Relaxed),
            build_rows: self.aux1.load(Ordering::Relaxed),
            probe_rows: self.aux2.load(Ordering::Relaxed),
            dispatches: self.dispatches.load(Ordering::Relaxed),
            morsels: self.morsels.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            elapsed_ns: self.elapsed_ns.load(Ordering::Relaxed),
            marked: self.mark.load(Ordering::Relaxed) != 0,
            lhs: link(&self.lhs),
            rhs: link(&self.rhs),
        })
    }
}

#[derive(Debug, Clone, Copy)]
struct BlockMeta {
    base: usize,
    scans: usize,
    columnar: bool,
    fallback: Option<&'static str>,
}

/// Handle to one SELECT block's slot range in its [`QueryProfile`].
/// `Copy` so the engine can pass it down its call tree freely.
#[derive(Debug, Clone, Copy)]
pub struct Block<'p> {
    prof: &'p QueryProfile,
    idx: usize,
    base: usize,
    scans: usize,
}

impl<'p> Block<'p> {
    /// Number of scan slots (source relations) in this block.
    pub fn scans(&self) -> usize {
        self.scans
    }

    fn slot(&self, off: usize) -> Option<&'p OpStats> {
        if self.base == NO_BASE {
            return None;
        }
        self.prof.slots.get(self.base + off)
    }

    /// The scan slot for source relation `rel`, when slotted.
    #[inline]
    pub fn scan(&self, rel: usize) -> Option<&'p OpStats> {
        if rel >= self.scans {
            return None;
        }
        self.slot(rel)
    }

    /// The join slot for execution step `step`, when slotted.
    #[inline]
    pub fn join(&self, step: usize) -> Option<&'p OpStats> {
        if step + 1 >= self.scans {
            return None;
        }
        self.slot(self.scans + step)
    }

    /// The fixed operator slot, when slotted.
    #[inline]
    pub fn fixed(&self, op: FixedOp) -> Option<&'p OpStats> {
        self.slot(self.scans + self.scans.saturating_sub(1) + op as usize)
    }

    /// Mark which engine ran the block (`true` = columnar/batch).
    pub fn set_columnar(&self, columnar: bool) {
        if let Some(m) = self.prof.metas().get_mut(self.idx) {
            m.columnar = columnar;
        }
    }

    /// Record why the columnar engine fell back to the row engine for
    /// this block. The first recorded reason wins.
    pub fn set_fallback(&self, reason: &'static str) {
        if let Some(m) = self.prof.metas().get_mut(self.idx) {
            if m.fallback.is_none() {
                m.fallback = Some(reason);
            }
        }
    }

    /// Zero every operator slot of the block, keeping its metadata.
    /// Called when the columnar engine bails after partially recording a
    /// block, so the row-engine retry does not double-count.
    pub fn reset(&self) {
        let need = self.scans + self.scans.saturating_sub(1) + FIXED_OPS;
        for off in 0..need {
            if let Some(s) = self.slot(off) {
                s.reset();
            }
        }
        self.set_columnar(false);
    }
}

/// A per-statement profile arena. See the module docs for layout and
/// design rationale.
#[derive(Debug)]
pub struct QueryProfile {
    slots: Box<[OpStats]>,
    next: AtomicUsize,
    blocks: Mutex<Vec<BlockMeta>>,
}

impl Default for QueryProfile {
    fn default() -> Self {
        Self::new()
    }
}

impl QueryProfile {
    /// A fresh arena: one allocation, all slots zero.
    pub fn new() -> QueryProfile {
        QueryProfile {
            slots: (0..PROFILE_SLOT_CAP).map(|_| OpStats::default()).collect(),
            next: AtomicUsize::new(0),
            blocks: Mutex::new(Vec::new()),
        }
    }

    fn metas(&self) -> std::sync::MutexGuard<'_, Vec<BlockMeta>> {
        self.blocks.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Number of blocks begun so far.
    pub fn block_count(&self) -> usize {
        self.metas().len()
    }

    /// Reserve the slot range for one SELECT block with `scans` source
    /// relations. Blocks must be begun in execution order (top-level
    /// select first, derived tables in FROM/JOIN order, set-operation
    /// leaves left to right) — renderers re-walk the statement in the
    /// same order to associate blocks with plan subtrees.
    pub fn begin_block(&self, scans: usize) -> Block<'_> {
        let need = scans + scans.saturating_sub(1) + FIXED_OPS;
        let at = self.next.fetch_add(need, Ordering::Relaxed);
        let base = if at + need <= self.slots.len() {
            at
        } else {
            NO_BASE
        };
        let mut metas = self.metas();
        metas.push(BlockMeta {
            base,
            scans,
            columnar: false,
            fallback: None,
        });
        Block {
            prof: self,
            idx: metas.len() - 1,
            base,
            scans,
        }
    }

    /// An immutable copy of everything recorded so far.
    pub fn snapshot(&self) -> ProfileSnapshot {
        let metas = self.metas().clone();
        let blocks = metas
            .iter()
            .map(|m| {
                let slotted = m.base != NO_BASE;
                let op = |off: usize| {
                    if slotted {
                        self.slots.get(m.base + off).and_then(OpStats::snap)
                    } else {
                        None
                    }
                };
                let joins = m.scans.saturating_sub(1);
                BlockSnapshot {
                    columnar: m.columnar,
                    fallback: m.fallback,
                    slotted,
                    scans: (0..m.scans).map(op).collect(),
                    joins: (0..joins).map(|j| op(m.scans + j)).collect(),
                    filter: op(m.scans + joins + FixedOp::Filter as usize),
                    aggregate: op(m.scans + joins + FixedOp::Aggregate as usize),
                    distinct: op(m.scans + joins + FixedOp::Distinct as usize),
                    order: op(m.scans + joins + FixedOp::Order as usize),
                }
            })
            .collect();
        ProfileSnapshot { blocks }
    }
}

/// Plain-data copy of one [`OpStats`] slot (only produced for operators
/// that actually ran).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpSnapshot {
    /// Rows entering the operator.
    pub rows_in: u64,
    /// Rows leaving the operator.
    pub rows_out: u64,
    /// Hash-join build rows, or groups created for aggregates.
    pub build_rows: u64,
    /// Hash-join probe rows.
    pub probe_rows: u64,
    /// Morsel-parallel dispatches (deterministic).
    pub dispatches: u64,
    /// Morsels dispatched (deterministic).
    pub morsels: u64,
    /// Morsels stolen off the home worker (scheduling noise).
    pub steals: u64,
    /// Wall-clock nanoseconds attributed to the operator.
    pub elapsed_ns: u64,
    /// Joins: a hash join (else a nested loop). Order: a top-K heap.
    pub marked: bool,
    /// Join step 0: source relation index of the left input.
    pub lhs: Option<usize>,
    /// Join steps: source relation index the step introduced.
    pub rhs: Option<usize>,
}

impl OpSnapshot {
    /// Output/input selectivity in whole percent, when defined.
    pub fn selectivity_pct(&self) -> Option<u64> {
        (self.rows_in > 0).then(|| self.rows_out * 100 / self.rows_in)
    }
}

/// Plain-data copy of one SELECT block.
#[derive(Debug, Clone)]
pub struct BlockSnapshot {
    /// Whether the columnar/batch engine produced the block's rows.
    pub columnar: bool,
    /// Why the columnar engine fell back, when it attempted and bailed.
    pub fallback: Option<&'static str>,
    /// False when the arena was exhausted and no slots were recorded.
    pub slotted: bool,
    /// Per source relation, in FROM/JOIN order.
    pub scans: Vec<Option<OpSnapshot>>,
    /// Per join execution step.
    pub joins: Vec<Option<OpSnapshot>>,
    /// Residual filter, when one ran.
    pub filter: Option<OpSnapshot>,
    /// Aggregation, when one ran.
    pub aggregate: Option<OpSnapshot>,
    /// DISTINCT, when one ran.
    pub distinct: Option<OpSnapshot>,
    /// Sort/TopK/Limit stage, when one ran.
    pub order: Option<OpSnapshot>,
}

impl BlockSnapshot {
    fn chain_tail(&self) -> Option<u64> {
        if let Some(last) = self.joins.last() {
            return last.map(|j| j.rows_out);
        }
        match self.scans.as_slice() {
            [Some(s)] => Some(s.rows_out),
            _ => None,
        }
    }
}

/// Plain-data copy of a whole statement profile.
#[derive(Debug, Clone)]
pub struct ProfileSnapshot {
    /// Blocks in execution order (see [`QueryProfile::begin_block`]).
    pub blocks: Vec<BlockSnapshot>,
}

impl ProfileSnapshot {
    /// Verify row-flow conservation through every slotted block:
    ///
    /// - every scan slot was written, and join steps form a chain where
    ///   each step's `rows_in` equals its left input's `rows_out` plus
    ///   the scanned rows of the relation it introduced;
    /// - each downstream operator (filter → aggregate → distinct →
    ///   order) consumes exactly the rows its predecessor produced.
    ///
    /// Returns the first violation as a diagnostic string. The fuzzer
    /// runs this for every statement in its campaign.
    pub fn check_conservation(&self) -> Result<(), String> {
        for (bi, b) in self.blocks.iter().enumerate() {
            if !b.slotted {
                continue;
            }
            let fail = |what: String| Err(format!("block {bi}: {what}"));
            for (i, s) in b.scans.iter().enumerate() {
                if s.is_none() {
                    return fail(format!("scan {i} never ran"));
                }
            }
            let scan_out = |rel: usize| -> Result<u64, String> {
                b.scans
                    .get(rel)
                    .copied()
                    .flatten()
                    .map(|s| s.rows_out)
                    .ok_or(format!("block {bi}: join references missing scan {rel}"))
            };
            let mut last: Option<u64> = None;
            for (j, step) in b.joins.iter().enumerate() {
                let Some(step) = step else {
                    return fail(format!("join step {j} never ran"));
                };
                let Some(rhs) = step.rhs else {
                    return fail(format!("join step {j} has no rhs link"));
                };
                let lhs_rows = match (j, last) {
                    (0, _) => {
                        let Some(lhs) = step.lhs else {
                            return fail("join step 0 has no lhs link".to_string());
                        };
                        scan_out(lhs)?
                    }
                    (_, Some(prev)) => prev,
                    _ => unreachable!("non-first join always has a predecessor"),
                };
                let expect = lhs_rows + scan_out(rhs)?;
                if step.rows_in != expect {
                    return fail(format!(
                        "join step {j} rows_in {} != lhs {} + scan[{rhs}] rows_out {}",
                        step.rows_in,
                        lhs_rows,
                        expect - lhs_rows
                    ));
                }
                last = Some(step.rows_out);
            }
            if last.is_none() {
                last = b.chain_tail();
            }
            for (name, op) in [
                ("filter", b.filter),
                ("aggregate", b.aggregate),
                ("distinct", b.distinct),
                ("order", b.order),
            ] {
                let Some(op) = op else { continue };
                if let Some(prev) = last {
                    if op.rows_in != prev {
                        return fail(format!(
                            "{name} rows_in {} != upstream rows_out {prev}",
                            op.rows_in
                        ));
                    }
                }
                last = Some(op.rows_out);
            }
        }
        Ok(())
    }
}

/// How one `engine.*` counter counts one block's work.
pub type BlockCount = fn(&BlockSnapshot) -> u64;

/// Every `engine.*` counter [`fold_engine_counters`] writes, with what
/// it counts. Scans and nested loops count under both engines; hash
/// joins and groups count under the engine that produced the block's
/// rows, so a block that fell back counts only its row-path work. Each
/// join counts once, under its algorithm: its slot's mark says it
/// hash-joined.
pub const ENGINE_COUNTERS: [(&str, BlockCount); 18] = [
    ("engine.scan.rows", |b| sum(&b.scans, |s| s.rows_in)),
    ("engine.scan.rows_pruned_pushdown", |b| {
        sum(&b.scans, |s| s.rows_in - s.rows_out)
    }),
    ("engine.columnar.selects", |b| b.columnar as u64),
    ("engine.columnar.fallbacks", |b| {
        (!b.columnar && b.fallback.is_some()) as u64
    }),
    ("engine.columnar.join.hash", |b| {
        columnar(b, sum(&b.joins, |j| j.marked as u64))
    }),
    ("engine.columnar.join.build_rows", |b| {
        columnar(b, sum(&b.joins, |j| j.build_rows))
    }),
    ("engine.columnar.join.probe_rows", |b| {
        columnar(b, sum(&b.joins, |j| j.probe_rows))
    }),
    ("engine.columnar.join.output_rows", |b| {
        columnar(b, sum(&b.joins, |j| j.marked as u64 * j.rows_out))
    }),
    ("engine.columnar.agg.groups", |b| {
        columnar(b, b.aggregate.map_or(0, |a| a.build_rows))
    }),
    ("engine.join.hash", |b| {
        row(b, sum(&b.joins, |j| j.marked as u64))
    }),
    ("engine.join.hash.build_rows", |b| {
        row(b, sum(&b.joins, |j| j.build_rows))
    }),
    ("engine.join.hash.probe_rows", |b| {
        row(b, sum(&b.joins, |j| j.probe_rows))
    }),
    ("engine.join.nested_loop", |b| {
        sum(&b.joins, |j| !j.marked as u64)
    }),
    ("engine.group.groups_created", |b| {
        row(b, b.aggregate.map_or(0, |a| a.build_rows))
    }),
    ("engine.order.topk", |b| {
        b.order.is_some_and(|o| o.marked) as u64
    }),
    ("engine.parallel.ops", |b| sum(slots(b), |o| o.dispatches)),
    ("engine.parallel.morsels", |b| sum(slots(b), |o| o.morsels)),
    ("engine.parallel.steals", |b| sum(slots(b), |o| o.steals)),
];

/// Add the operator work recorded in `blocks` to the [`ENGINE_COUNTERS`]
/// — the engine's only writer of them.
pub fn fold_engine_counters(blocks: &[BlockSnapshot]) {
    for (name, count) in ENGINE_COUNTERS {
        crate::count(name, blocks.iter().map(count).sum());
    }
}

/// `f` summed over the operators in `ops` that ran.
fn sum<'a>(
    ops: impl IntoIterator<Item = &'a Option<OpSnapshot>>,
    f: impl Fn(&OpSnapshot) -> u64,
) -> u64 {
    ops.into_iter().flatten().map(f).sum()
}

/// Every operator slot of a block.
fn slots(b: &BlockSnapshot) -> impl Iterator<Item = &Option<OpSnapshot>> {
    let fixed = [&b.filter, &b.aggregate, &b.distinct, &b.order];
    b.scans.iter().chain(&b.joins).chain(fixed)
}

/// `n` when the columnar engine produced the block's rows, else 0.
fn columnar(b: &BlockSnapshot, n: u64) -> u64 {
    if b.columnar {
        n
    } else {
        0
    }
}

/// `n` when the row engine produced the block's rows, else 0.
fn row(b: &BlockSnapshot, n: u64) -> u64 {
    if b.columnar {
        0
    } else {
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_layout_and_snapshot_round_trip() {
        let p = QueryProfile::new();
        let b = p.begin_block(3);
        assert_eq!(b.scans(), 3);
        for (rel, (inn, out)) in [(24u64, 10u64), (24, 24), (8, 8)].iter().enumerate() {
            b.scan(rel).unwrap().rows(*inn, *out);
        }
        let j0 = b.join(0).unwrap();
        j0.rows(34, 30);
        j0.build_probe(10, 24);
        j0.link(Some(0), 1);
        let j1 = b.join(1).unwrap();
        j1.rows(38, 12);
        j1.build_probe(8, 30);
        j1.link(None, 2);
        b.fixed(FixedOp::Filter).unwrap().rows(12, 5);
        b.fixed(FixedOp::Order).unwrap().rows(5, 3);
        b.set_columnar(true);
        b.set_fallback("first");
        b.set_fallback("second"); // first wins

        let snap = p.snapshot();
        assert_eq!(snap.blocks.len(), 1);
        let blk = &snap.blocks[0];
        assert!(blk.columnar);
        assert_eq!(blk.fallback, Some("first"));
        assert_eq!(blk.scans[0].unwrap().rows_out, 10);
        assert_eq!(blk.joins[0].unwrap().rhs, Some(1));
        assert_eq!(blk.joins[0].unwrap().lhs, Some(0));
        assert_eq!(blk.joins[1].unwrap().lhs, None);
        assert_eq!(blk.filter.unwrap().selectivity_pct(), Some(41));
        assert_eq!(blk.order.unwrap().rows_out, 3);
        snap.check_conservation().expect("conserved");
    }

    #[test]
    fn conservation_catches_row_leaks() {
        let p = QueryProfile::new();
        let b = p.begin_block(2);
        b.scan(0).unwrap().rows(10, 10);
        b.scan(1).unwrap().rows(5, 5);
        let j = b.join(0).unwrap();
        j.rows(14, 9); // should be 15 in
        j.link(Some(0), 1);
        let err = p.snapshot().check_conservation().unwrap_err();
        assert!(err.contains("join step 0"), "got: {err}");

        // Fix the join, then break the filter chain.
        j.reset();
        j.rows(15, 9);
        j.link(Some(0), 1);
        b.fixed(FixedOp::Filter).unwrap().rows(8, 8);
        let err = p.snapshot().check_conservation().unwrap_err();
        assert!(err.contains("filter rows_in 8"), "got: {err}");
    }

    #[test]
    fn reset_block_clears_partial_columnar_attempts() {
        let p = QueryProfile::new();
        let b = p.begin_block(1);
        b.scan(0).unwrap().rows(100, 40);
        b.set_columnar(true);
        b.set_fallback("join-kernel");
        b.reset();
        // Row-engine retry records fresh numbers into the same slots.
        b.scan(0).unwrap().rows(100, 40);
        let blk = &p.snapshot().blocks[0];
        assert!(!blk.columnar);
        assert_eq!(blk.fallback, Some("join-kernel"), "reason survives reset");
        assert_eq!(blk.scans[0].unwrap().rows_in, 100);
        p.snapshot().check_conservation().expect("conserved");
    }

    #[test]
    fn arena_exhaustion_degrades_to_unslotted_blocks() {
        let p = QueryProfile::new();
        let big = PROFILE_SLOT_CAP; // needs 2*cap-1+4 slots: never fits
        let b = p.begin_block(big);
        assert!(b.scan(0).is_none());
        assert!(b.join(0).is_none());
        assert!(b.fixed(FixedOp::Order).is_none());
        b.reset(); // no-op, must not panic
        let snap = p.snapshot();
        assert!(!snap.blocks[0].slotted);
        snap.check_conservation()
            .expect("unslotted blocks are skipped");
    }

    #[test]
    fn empty_single_scan_block_conserves_trivially() {
        let p = QueryProfile::new();
        let b = p.begin_block(1);
        b.scan(0).unwrap().rows(7, 7);
        b.fixed(FixedOp::Order).unwrap().rows(7, 2);
        let snap = p.snapshot();
        assert_eq!(snap.blocks[0].order.unwrap().rows_out, 2);
        snap.check_conservation().expect("conserved");
    }
}
