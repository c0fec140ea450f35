//! Vectorized batch execution over columnar storage.
//!
//! [`try_select`] runs one planned `SELECT` batch-at-a-time against the
//! tables' [`crate::column::ColumnarTable`] images: predicate
//! kernels produce selection vectors over typed column vectors, hash
//! joins probe column slices directly, and aggregation runs as
//! per-group accumulators — `Value`s are materialized only at result
//! boundaries.
//!
//! ## The one correctness rule
//!
//! The batch path may give up at **any** point — at compile time (a
//! shape or column kind outside the kernel set) or mid-execution (an
//! arithmetic overflow, a NaN reaching an ordered comparison, anything
//! the row engine would report as an error) — by returning `None`. The
//! caller then silently re-runs the statement on the row path, which is
//! the sole authority on errors. The batch path therefore never
//! *returns* an error; it either produces output byte-identical to the
//! row path's success, or it bails. Bailing is always safe; the only
//! hazard would be succeeding with different bytes, which the kernels
//! below avoid by mirroring row-path semantics exactly:
//!
//! - Three-valued logic is carried as `i8` tristates (`1`/`0`/`-1` for
//!   TRUE/FALSE/NULL); `AND`/`OR` combine via the same
//!   [`combine_logical`] the row engine uses. Both operands of a
//!   logical or arithmetic node are evaluated eagerly — where the row
//!   path would have short-circuited past an error, the batch path
//!   bails and lets the row path decide.
//! - Conjuncts are applied progressively: conjunct *k* is evaluated
//!   only over rows that survived conjuncts *1..k-1*, matching the
//!   row-at-a-time early exit, so a data-dependent error fires for
//!   exactly the same evaluation set.
//! - Join keys reproduce the row path's `sql_eq` hash keys (ints and
//!   integral floats unify; NULL and NaN never match), and reordered
//!   plans restore source row order the same way the row executor does.
//! - Grouping keys use the canonical-key relation ([`canon_num`]
//!   rounding, NaN collapsing) so float keys land in the same groups.
//!
//! Each operator (the pushed-filter scan, hash-join build and probe,
//! single-key grouping, aggregation) is one kernel over a morsel's rows
//! `lo..hi` plus an ordered merge ([`ParConfig::run`]), run over 1..n
//! morsels. Serial execution is the one-morsel case: the kernel runs
//! once inline and its single part moves into place uncopied. Every
//! merge reproduces the one-morsel result byte for byte.
//!
//! Operators record rows, build and probe sizes, groups and morsel
//! dispatches in the statement's profile slots only; the `engine.*`
//! counters are folded from those slots once per statement (see
//! [`crate::exec`]), so observing a run never changes which kernel runs.
//! Only operators that ran over more than one morsel record a dispatch.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

use sb_sql::{
    AggArg, AggFunc, BinaryOp, ColumnRef, Expr, Literal, OrderItem, Query, Select, SelectItem,
    UnaryOp,
};

use crate::column::{Column, ColumnData, ColumnarTable, DictColumn, NullMask};
use crate::error::EngineError;
use crate::eval::{
    apply_cmp, apply_unary, arith, combine_logical, like_match, literal_value, truth_ref,
    EvalContext, Scope,
};
use crate::exec::{Projected, Relation};
use crate::inset::InSet;
use crate::key::{self, FxBuild, KeyIndex};
use crate::value::{canon_num, cmp_int_f64, Value};
use sb_obs::{FixedOp, OpStats};
use std::cmp::Ordering;

/// Resolved parallel-execution configuration for one batch run: the
/// effective worker fan-out and morsel size (see
/// [`crate::exec::ExecOptions::parallel`]), applied by [`ParConfig::run`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct ParConfig {
    pub(crate) workers: usize,
    pub(crate) morsel_rows: usize,
}

impl ParConfig {
    pub(crate) fn from_options(opts: &crate::exec::ExecOptions) -> ParConfig {
        let (workers, morsel_rows) = opts.par_config();
        ParConfig {
            workers,
            morsel_rows,
        }
    }

    /// One morsel, for operators with nothing to split or whose partial
    /// results cannot merge exactly.
    fn one_morsel(self) -> ParConfig {
        ParConfig { workers: 1, ..self }
    }

    /// Number of morsels covering `rows`: one when there is a single
    /// worker or the rows fit one morsel, else a pure function of the
    /// row count and morsel size, whatever the number of workers.
    #[inline]
    fn morsels(&self, rows: usize) -> usize {
        if self.workers <= 1 || rows <= self.morsel_rows {
            1
        } else {
            rows.div_ceil(self.morsel_rows)
        }
    }

    /// Run `kernel(lo, hi)` over each morsel of `rows` rows; parts come
    /// back in morsel order. One morsel runs inline; more go to the
    /// morsel pool, and the dispatch is recorded in `op`'s profile slot.
    fn run<R: Send>(
        &self,
        rows: usize,
        op: Option<&OpStats>,
        kernel: impl Fn(usize, usize) -> R + Sync,
    ) -> Vec<R> {
        let morsels = self.morsels(rows);
        if morsels == 1 {
            return vec![kernel(0, rows)];
        }
        let step = self.morsel_rows;
        let (parts, stats) = rayon::morsel_map(morsels, self.workers, |m| {
            kernel(m * step, ((m + 1) * step).min(rows))
        });
        if let Some(op) = op {
            op.parallel(stats.morsels as u64, stats.steals as u64);
        }
        parts
    }
}

/// Concatenate per-morsel parts in morsel order; a single part moves
/// into place uncopied.
fn concat<T>(mut parts: Vec<Vec<T>>) -> Vec<T> {
    if parts.len() == 1 {
        return parts.pop().expect("one part");
    }
    let mut out = Vec::with_capacity(parts.iter().map(Vec::len).sum());
    for mut part in parts {
        out.append(&mut part);
    }
    out
}

/// Everything the batch executor needs from the planned statement.
pub(crate) struct BatchInput<'a, 'q> {
    pub(crate) select: &'q Select,
    pub(crate) order_by: &'q [OrderItem],
    /// Full statement scope (all relations, original columns).
    pub(crate) scope: &'a Scope,
    pub(crate) relations: &'a [Relation<'a>],
    /// The statement's plan: pushed-down and residual conjuncts, join
    /// order and keys.
    pub(crate) planned: &'a sb_opt::PlannedSelect,
    /// The statement's WHERE conjuncts ([`sb_opt::conjuncts`]), which
    /// the plan's pushed and residual indices name.
    pub(crate) conjuncts: &'a [&'q Expr],
    /// Morsel-parallel execution knobs (workers, morsel size).
    pub(crate) par: ParConfig,
    /// Per-statement profile block (EXPLAIN ANALYZE), if requested.
    pub(crate) bp: Option<sb_obs::Block<'a>>,
    /// The statement's subquery memo, shared with the row path so a
    /// subquery run here is never run again after a bail.
    pub(crate) ctx: &'a EvalContext<'a>,
}

/// Record why the batch path bailed (first reason wins) and fall back.
fn bail(input: &BatchInput<'_, '_>, reason: &'static str) -> Option<Projected> {
    if let Some(bp) = &input.bp {
        bp.set_fallback(reason);
    }
    None
}

/// Attempt batch execution. `None` means "fall back to the row path" —
/// never an error.
pub(crate) fn try_select(input: &BatchInput<'_, '_>) -> Option<Projected> {
    // Base tables only: a derived table has no columnar image.
    let tables: Vec<&ColumnarTable> = match input
        .relations
        .iter()
        .map(|r| match &r.source {
            crate::exec::RelSource::Base(t) => Some(t.columnar()),
            crate::exec::RelSource::Derived(_) => None,
        })
        .collect::<Option<_>>()
    {
        Some(t) => t,
        None => return bail(input, "derived"),
    };
    let cx = Cx {
        scope: input.scope,
        tables: &tables,
        ctx: input.ctx,
    };

    // Compile pushed and residual conjuncts up front: any resolution or
    // typing problem bails before touching data, leaving error behavior
    // (including "zero rows swallow residual errors") to the row path.
    let pushed: Vec<Vec<BoolK>> = match input
        .planned
        .pushed
        .iter()
        .map(|conjs| {
            conjs
                .iter()
                .map(|&c| cx.compile_bool(input.conjuncts[c]))
                .collect()
        })
        .collect::<Option<_>>()
    {
        Some(p) => p,
        None => return bail(input, "predicate-kernel"),
    };
    let residual: Vec<BoolK> = match input
        .planned
        .residual
        .iter()
        .map(|&c| cx.compile_bool(input.conjuncts[c]))
        .collect::<Option<_>>()
    {
        Some(r) => r,
        None => return bail(input, "predicate-kernel"),
    };
    // Per-relation scans: progressive selection vectors, conjunct k
    // evaluated only over survivors of conjuncts 1..k-1.
    let mut sels: Vec<Vec<u32>> = Vec::with_capacity(tables.len());
    for (rel, conjs) in pushed.iter().enumerate() {
        sels.push(scan(input, &tables, rel, conjs)?);
    }
    // Joins: hash only, source or planner order.
    let mut rowids = match join_all(&cx, input, sels) {
        Some(r) => r,
        None => return bail(input, "join-kernel"),
    };

    // Residual filter over the joined view.
    let filter_op = input
        .bp
        .filter(|_| !residual.is_empty())
        .and_then(|b| b.fixed(FixedOp::Filter));
    let filter_in = rowids.first().map_or(0, |c| c.len());
    let filter_t0 = crate::exec::prof_clock(&input.bp);
    for conj in &residual {
        let view = View::all(&tables, &rowids);
        let tri = conj.eval(&view)?;
        let mut keep_idx = vec![0usize; view.len];
        let mut k = 0usize;
        for (i, &t) in tri.iter().enumerate() {
            keep_idx[k] = i;
            k += (t == 1) as usize;
        }
        keep_idx.truncate(k);
        for col in &mut rowids {
            *col = keep_idx.iter().map(|&i| col[i]).collect();
        }
    }
    if let Some(op) = filter_op {
        let filter_out = rowids.first().map_or(0, |c| c.len());
        op.rows(filter_in as u64, filter_out as u64);
        crate::exec::prof_elapsed(filter_t0, Some(op));
    }
    let view = View::all(&tables, &rowids);
    if sb_opt::is_aggregate(input.select, input.order_by) {
        grouped(&cx, input, &view).or_else(|| bail(input, "agg-kernel"))
    } else {
        plain(&cx, input, &view).or_else(|| bail(input, "project-kernel"))
    }
}

/// Pushed-filter scan of one relation: [`filter_range`] over each
/// morsel's contiguous row range, the surviving selections concatenated
/// in morsel order — exactly the one-morsel scan's ascending selection.
/// A scan without conjuncts has nothing to split and runs as one morsel.
///
/// A bail in any morsel bails the whole statement: every mid-execution
/// bail condition is a property of some evaluated row (a NaN reaching
/// an ordered comparison, an arithmetic error) or of the statement
/// alone (a NaN literal), and the per-conjunct evaluation sets
/// partition across morsels, so the scan over their union as one
/// morsel would have bailed too. The reverse also holds — a split scan
/// can never succeed where the one-morsel scan bails — which is what
/// keeps output byte-identical at any thread count.
fn scan(
    input: &BatchInput<'_, '_>,
    tables: &[&ColumnarTable],
    rel: usize,
    conjs: &[BoolK],
) -> Option<Vec<u32>> {
    let scanned = tables[rel].len;
    let prof_op = input.bp.as_ref().and_then(|b| b.scan(rel));
    let prof_t0 = crate::exec::prof_clock(&input.bp);
    let par = if conjs.is_empty() {
        input.par.one_morsel()
    } else {
        input.par
    };
    let n_rel = input.relations.len();
    let parts: Vec<Vec<u32>> = par
        .run(scanned, prof_op, |lo, hi| {
            filter_range(tables, n_rel, rel, conjs, lo, hi)
        })
        .into_iter()
        .collect::<Option<_>>()?;
    let sel = concat(parts);
    if let Some(op) = prof_op {
        op.rows(scanned as u64, sel.len() as u64);
        crate::exec::prof_elapsed(prof_t0, Some(op));
    }
    Some(sel)
}

/// One morsel of a pushed-filter scan: the conjunct chain applied
/// progressively over rows `lo..hi`. Returns the surviving selection,
/// `None` on a bail.
fn filter_range(
    tables: &[&ColumnarTable],
    n_rel: usize,
    rel: usize,
    conjs: &[BoolK],
    lo: usize,
    hi: usize,
) -> Option<Vec<u32>> {
    // `range` defers materializing the lo..hi index vector: fused
    // conjuncts iterate the range directly, so a scan whose whole
    // conjunct chain stays in the fused lanes never builds it.
    let mut sel: Vec<u32> = Vec::new();
    let mut range = true;
    let mut ci = 0;
    while ci < conjs.len() {
        let conj = &conjs[ci];
        let selref = if range {
            SelRef::Range(lo, hi)
        } else {
            SelRef::Rows(&sel)
        };
        // Range fusion: consecutive bounds on one expression evaluate
        // in a single pass.
        if ci + 1 < conjs.len() {
            if let Some(fused) = filter_fused_pair(tables, &selref, conj, &conjs[ci + 1]) {
                let Fused::Kept(kept) = fused else {
                    return None;
                };
                sel = kept;
                range = false;
                ci += 2;
                continue;
            }
        }
        sel = match filter_fused(tables, &selref, conj) {
            Fused::Kept(kept) => kept,
            Fused::Bail => return None,
            Fused::Unhandled => {
                if range {
                    sel = (lo as u32..hi as u32).collect();
                }
                let view = View::single(tables, n_rel, rel, &sel);
                let tri = conj.eval(&view)?;
                // Branch-free compaction: always write, advance the
                // cursor only on a keep — no data-dependent branch to
                // mispredict.
                let mut kept = vec![0u32; sel.len()];
                let mut k = 0usize;
                for (i, &r) in sel.iter().enumerate() {
                    kept[k] = r;
                    k += (tri[i] == 1) as usize;
                }
                kept.truncate(k);
                kept
            }
        };
        range = false;
        ci += 1;
    }
    if range {
        sel = (lo as u32..hi as u32).collect();
    }
    Some(sel)
}

/// Result of [`filter_fused`]: either the conjunct's shape is outside
/// the fused lanes (fall back to the general kernel), or it evaluated
/// in one pass to a surviving selection / a bail.
enum Fused {
    Unhandled,
    Bail,
    Kept(Vec<u32>),
}

/// Single-pass fused filter for the hot pushed-predicate shapes:
/// `float_col ⊕ float_col  cmp  lit`, `float_col cmp lit` and
/// `int_col cmp lit` — either literal side, and either literal class
/// (an integer literal against a float expression compares exactly via
/// `cmp_int_f64`, never by lossy promotion). The general path
/// materializes the arithmetic batch, a null batch and a tristate
/// batch, then compacts; this computes value → compare → keep per row
/// with zero intermediate allocations.
///
/// Bail semantics are the general lane's exactly, per lane: the
/// homogeneous float lane bails on a NaN literal or a NaN anywhere in
/// the evaluated batch — including null slots, whose stored
/// placeholders the general lane's pre-scan also reads — while the
/// mixed lanes bail only on a NaN read from a *non-null* cell, because
/// that is when the generic cell loop's `cmp_cells(..)?` fires. Finite
/// placeholders stay finite (or overflow to ±inf) under Add/Sub/Mul,
/// so the fused arithmetic lane sees the same NaN set the materialized
/// batch would.
fn filter_fused(tables: &[&ColumnarTable], sel: &SelRef<'_>, conj: &BoolK) -> Fused {
    let Some((e, op, lit)) = cmp_lit_parts(conj) else {
        return Fused::Unhandled;
    };

    // Dispatch the comparison op OUTSIDE the row loop: each arm calls
    // the generic loop with a concrete keep-predicate closure, so the
    // per-row body monomorphizes to a branchless compare the compiler
    // can vectorize — an op match inside the loop costs ~3× here.
    macro_rules! by_op {
        ($loop:ident, $nulls:expr, $val:expr, $y:expr) => {{
            let y = $y;
            let val = $val;
            match op {
                BinaryOp::Eq => $loop(sel, $nulls, &val, &|x| x == y),
                BinaryOp::NotEq => $loop(sel, $nulls, &val, &|x| x != y),
                BinaryOp::Lt => $loop(sel, $nulls, &val, &|x| x < y),
                BinaryOp::LtEq => $loop(sel, $nulls, &val, &|x| x <= y),
                BinaryOp::Gt => $loop(sel, $nulls, &val, &|x| x > y),
                BinaryOp::GtEq => $loop(sel, $nulls, &val, &|x| x >= y),
                _ => unreachable!("comparison kernels only carry comparison ops"),
            }
        }};
    }

    // Like `by_op!` but the predicate is phrased as an ordering of the
    // row value against the literal — the mixed-class lanes, where the
    // exact compare is `cmp_int_f64`, not a primitive `<`.
    macro_rules! by_ord {
        ($loop:ident, $nulls:expr, $val:expr, $ord:expr) => {{
            let ord = $ord;
            let val = $val;
            match op {
                BinaryOp::Eq => $loop(sel, $nulls, &val, &|x| ord(x).is_eq()),
                BinaryOp::NotEq => $loop(sel, $nulls, &val, &|x| !ord(x).is_eq()),
                BinaryOp::Lt => $loop(sel, $nulls, &val, &|x| ord(x).is_lt()),
                BinaryOp::LtEq => $loop(sel, $nulls, &val, &|x| ord(x).is_le()),
                BinaryOp::Gt => $loop(sel, $nulls, &val, &|x| ord(x).is_gt()),
                BinaryOp::GtEq => $loop(sel, $nulls, &val, &|x| ord(x).is_ge()),
                _ => unreachable!("comparison kernels only carry comparison ops"),
            }
        }};
    }

    // Float-valued expression against either literal class. A float
    // literal follows the homogeneous lane's bail rule (NaN pre-scan
    // over every evaluated slot, nulls included); an integer literal
    // follows the mixed lane's (cells are read only when non-null, so
    // the null drop precedes the NaN bail). A literal within ±2^53 is
    // exactly representable as f64, so one up-front promotion turns the
    // mixed compare into the primitive float compare; beyond that the
    // per-row exact `cmp_int_f64` decides.
    macro_rules! float_lane {
        ($nulls:expr, $val:expr) => {{
            match lit {
                NumCell::F(y) => {
                    if y.is_nan() {
                        return Fused::Bail;
                    }
                    by_op!(float_loop, $nulls, $val, y)
                }
                NumCell::I(y) if y.unsigned_abs() <= (1u64 << 53) => {
                    by_op!(mixed_loop, $nulls, $val, y as f64)
                }
                NumCell::I(y) => {
                    by_ord!(mixed_loop, $nulls, $val, move |x: f64| cmp_int_f64(y, x)
                        .reverse())
                }
            }
        }};
    }

    // Integer column against either literal class. Int-vs-int cannot
    // bail; int-vs-float bails only when the literal is NaN *and* a
    // non-null row actually reads it (an all-null selection stays on
    // the fused path, exactly like the generic cell loop).
    macro_rules! int_lane {
        ($nulls:expr, $val:expr) => {{
            match lit {
                NumCell::I(y) => by_op!(int_loop, $nulls, $val, y),
                NumCell::F(y) if y.is_nan() => bail_if_any_valid(sel, $nulls),
                NumCell::F(y) => {
                    by_ord!(int_loop, $nulls, $val, move |x: i64| cmp_int_f64(x, y))
                }
            }
        }};
    }

    match e {
        NumK::FloatCol(id) => {
            let col = &tables[id.rel].columns[id.col];
            let ColumnData::Float(d) = &col.data else {
                return Fused::Unhandled;
            };
            float_lane!(&col.nulls, |i: usize| d[i])
        }
        NumK::IntCol(id) => {
            let col = &tables[id.rel].columns[id.col];
            let ColumnData::Int(d) = &col.data else {
                return Fused::Unhandled;
            };
            int_lane!(&col.nulls, |i: usize| d[i])
        }
        NumK::Arith { l, op: aop, r } => {
            let (NumK::FloatCol(ia), NumK::FloatCol(ib)) = (&**l, &**r) else {
                return Fused::Unhandled;
            };
            let (ca, cb) = (
                &tables[ia.rel].columns[ia.col],
                &tables[ib.rel].columns[ib.col],
            );
            let (ColumnData::Float(da), ColumnData::Float(db)) = (&ca.data, &cb.data) else {
                return Fused::Unhandled;
            };
            // The general lane's null batch is the OR of both masks.
            let nulls = NullPair(&ca.nulls, &cb.nulls);
            match aop {
                BinaryOp::Add => float_lane!(&nulls, |i: usize| da[i] + db[i]),
                BinaryOp::Sub => float_lane!(&nulls, |i: usize| da[i] - db[i]),
                BinaryOp::Mul => float_lane!(&nulls, |i: usize| da[i] * db[i]),
                _ => Fused::Unhandled,
            }
        }
        _ => Fused::Unhandled,
    }
}

/// An expression-vs-literal comparison conjunct, normalized so the
/// literal is on the right (`mirror` flips the op when it was left).
fn cmp_lit_parts(conj: &BoolK) -> Option<(&NumK, BinaryOp, NumCell)> {
    let BoolK::CmpNum { l, op, r } = conj else {
        return None;
    };
    match (l.as_lit(), r.as_lit()) {
        (None, Some(lit)) => Some((l, *op, lit)),
        (Some(lit), None) => Some((r, mirror(*op), lit)),
        _ => None,
    }
}

/// Structural equality of two float-valued expression kernels, for
/// range fusion: the same column, or the same `col ⊕ col` arithmetic.
fn same_float_expr(a: &NumK, b: &NumK) -> bool {
    match (a, b) {
        (NumK::FloatCol(x), NumK::FloatCol(y)) => x == y,
        (
            NumK::Arith {
                l: la,
                op: oa,
                r: ra,
            },
            NumK::Arith {
                l: lb,
                op: ob,
                r: rb,
            },
        ) => {
            oa == ob
                && matches!((&**la, &**lb), (NumK::FloatCol(x), NumK::FloatCol(y)) if x == y)
                && matches!((&**ra, &**rb), (NumK::FloatCol(x), NumK::FloatCol(y)) if x == y)
        }
        _ => false,
    }
}

/// Two consecutive conjuncts over the *same* float-valued expression
/// (`u - r < 2.22 AND u - r > 1`, `z > 0.5 AND z < 1`) fused into one
/// pass: the interval intersection of both bounds, with the expression
/// read once per row instead of once per conjunct. Only taken with
/// observability off — a fused pass cannot report the intermediate
/// per-conjunct selectivity the filter counters record, so obs runs
/// keep the two-pass chain (the kept set is identical either way).
///
/// `None` means "not this shape" and the single-conjunct lanes decide;
/// `Some` is always `Kept` or `Bail`. Exactness: the two-pass chain
/// keeps the non-null rows passing both compares, and bails under
/// conjunct 1's lane ordering — conjunct 2 re-reads only non-null,
/// non-NaN survivors, so beyond a NaN literal (which bails whichever
/// pass sees it) it adds no bail of its own.
fn filter_fused_pair(
    tables: &[&ColumnarTable],
    sel: &SelRef<'_>,
    c1: &BoolK,
    c2: &BoolK,
) -> Option<Fused> {
    let (e1, op1, l1) = cmp_lit_parts(c1)?;
    let (e2, op2, l2) = cmp_lit_parts(c2)?;
    if !same_float_expr(e1, e2) {
        return None;
    }
    // Literal → exact f64 bound; an integer beyond ±2^53 could round.
    let as_bound = |l: NumCell| -> Option<f64> {
        match l {
            NumCell::F(y) => Some(y),
            NumCell::I(y) if y.unsigned_abs() <= (1u64 << 53) => Some(y as f64),
            NumCell::I(_) => None,
        }
    };
    let (y1, y2) = (as_bound(l1)?, as_bound(l2)?);
    // Each op as a closed/open interval end pair; NotEq is no interval.
    let ends = |op: BinaryOp, y: f64| -> Option<(f64, bool, f64, bool)> {
        Some(match op {
            BinaryOp::Lt => (f64::NEG_INFINITY, false, y, true),
            BinaryOp::LtEq => (f64::NEG_INFINITY, false, y, false),
            BinaryOp::Gt => (y, true, f64::INFINITY, false),
            BinaryOp::GtEq => (y, false, f64::INFINITY, false),
            BinaryOp::Eq => (y, false, y, false),
            _ => return None,
        })
    };
    let (lo1, ls1, hi1, hs1) = ends(op1, y1)?;
    let (lo2, ls2, hi2, hs2) = ends(op2, y2)?;
    // Intersection: the tighter bound wins, strictness wins ties. NaN
    // bounds are resolved to a bail before this is consulted.
    let (lo, lo_s) = if lo1 > lo2 {
        (lo1, ls1)
    } else if lo2 > lo1 {
        (lo2, ls2)
    } else {
        (lo1, ls1 || ls2)
    };
    let (hi, hi_s) = if hi1 < hi2 {
        (hi1, hs1)
    } else if hi2 < hi1 {
        (hi2, hs2)
    } else {
        (hi1, hs1 || hs2)
    };

    macro_rules! by_bounds {
        ($loop:ident, $nulls:expr, $val:expr) => {{
            let val = $val;
            match (lo_s, hi_s) {
                (false, false) => $loop(sel, $nulls, &val, &|x| x >= lo && x <= hi),
                (false, true) => $loop(sel, $nulls, &val, &|x| x >= lo && x < hi),
                (true, false) => $loop(sel, $nulls, &val, &|x| x > lo && x <= hi),
                (true, true) => $loop(sel, $nulls, &val, &|x| x > lo && x < hi),
            }
        }};
    }

    // Conjunct 1's literal class picks the null/NaN scan ordering, as
    // in the single-conjunct lanes: a float literal pre-scans every
    // evaluated slot, an integer literal reads only non-null cells.
    let nan_first = matches!(l1, NumCell::F(_));
    Some(match e1 {
        NumK::FloatCol(id) => {
            let col = &tables[id.rel].columns[id.col];
            let ColumnData::Float(d) = &col.data else {
                return None;
            };
            if y1.is_nan() || y2.is_nan() {
                return Some(Fused::Bail);
            }
            if nan_first {
                by_bounds!(float_loop, &col.nulls, |i: usize| d[i])
            } else {
                by_bounds!(mixed_loop, &col.nulls, |i: usize| d[i])
            }
        }
        NumK::Arith { l, op: aop, r } => {
            let (NumK::FloatCol(ia), NumK::FloatCol(ib)) = (&**l, &**r) else {
                return None;
            };
            let (ca, cb) = (
                &tables[ia.rel].columns[ia.col],
                &tables[ib.rel].columns[ib.col],
            );
            let (ColumnData::Float(da), ColumnData::Float(db)) = (&ca.data, &cb.data) else {
                return None;
            };
            if y1.is_nan() || y2.is_nan() {
                return Some(Fused::Bail);
            }
            let nulls = NullPair(&ca.nulls, &cb.nulls);
            match (aop, nan_first) {
                (BinaryOp::Add, true) => by_bounds!(float_loop, &nulls, |i: usize| da[i] + db[i]),
                (BinaryOp::Sub, true) => by_bounds!(float_loop, &nulls, |i: usize| da[i] - db[i]),
                (BinaryOp::Mul, true) => by_bounds!(float_loop, &nulls, |i: usize| da[i] * db[i]),
                (BinaryOp::Add, false) => by_bounds!(mixed_loop, &nulls, |i: usize| da[i] + db[i]),
                (BinaryOp::Sub, false) => by_bounds!(mixed_loop, &nulls, |i: usize| da[i] - db[i]),
                (BinaryOp::Mul, false) => by_bounds!(mixed_loop, &nulls, |i: usize| da[i] * db[i]),
                _ => return None,
            }
        }
        _ => return None,
    })
}

/// The NaN-literal-vs-int-column case: the generic lane bails via
/// `cmp_cells(..)?` only at a non-null cell, so an entirely-NULL
/// selection keeps (an empty) fused result instead of bailing.
fn bail_if_any_valid(sel: &SelRef<'_>, nulls: &impl NullTest) -> Fused {
    if !nulls.any() {
        return if sel.len() == 0 {
            Fused::Kept(Vec::new())
        } else {
            Fused::Bail
        };
    }
    let any_valid = match sel {
        SelRef::Range(lo, hi) => (*lo..*hi).any(|i| !nulls.is_null(i)),
        SelRef::Rows(rows) => rows.iter().any(|&r| !nulls.is_null(r as usize)),
    };
    if any_valid {
        Fused::Bail
    } else {
        Fused::Kept(Vec::new())
    }
}

/// Null test over one or two masks, with the any-null check hoisted so
/// the all-valid fast path costs nothing per row.
trait NullTest {
    fn any(&self) -> bool;
    fn is_null(&self, i: usize) -> bool;
}
impl NullTest for NullMask {
    fn any(&self) -> bool {
        NullMask::any(self)
    }
    fn is_null(&self, i: usize) -> bool {
        NullMask::is_null(self, i)
    }
}
struct NullPair<'a>(&'a NullMask, &'a NullMask);
impl NullTest for NullPair<'_> {
    fn any(&self) -> bool {
        self.0.any() || self.1.any()
    }
    fn is_null(&self, i: usize) -> bool {
        self.0.is_null(i) | self.1.is_null(i)
    }
}

/// The fused float filter loop: value → NaN bail → null drop → compare,
/// writing survivors branch-free. Monomorphized per (value, keep) pair
/// by `filter_fused`'s op dispatch.
#[inline(always)]
fn float_loop(
    sel: &SelRef<'_>,
    nulls: &impl NullTest,
    value: &impl Fn(usize) -> f64,
    keep: &impl Fn(f64) -> bool,
) -> Fused {
    let n = sel.len();
    let mut kept = vec![0u32; n];
    let mut k = 0usize;
    let any_null = nulls.any();
    match sel {
        SelRef::Range(lo, hi) => {
            for i in *lo..*hi {
                let x = value(i);
                if x.is_nan() {
                    return Fused::Bail;
                }
                kept[k] = i as u32;
                k += ((!any_null || !nulls.is_null(i)) && keep(x)) as usize;
            }
        }
        SelRef::Rows(rows) => {
            for &r in *rows {
                let i = r as usize;
                let x = value(i);
                if x.is_nan() {
                    return Fused::Bail;
                }
                kept[k] = r;
                k += ((!any_null || !nulls.is_null(i)) && keep(x)) as usize;
            }
        }
    }
    kept.truncate(k);
    Fused::Kept(kept)
}

/// Mixed-class twin of [`float_loop`] for float values against an
/// integer literal. The generic lane reads a cell only when it is
/// non-null, so here the null drop precedes the NaN bail: a NaN parked
/// in a null slot must *not* bail, even though the homogeneous float
/// lane's pre-scan would.
#[inline(always)]
fn mixed_loop(
    sel: &SelRef<'_>,
    nulls: &impl NullTest,
    value: &impl Fn(usize) -> f64,
    keep: &impl Fn(f64) -> bool,
) -> Fused {
    let n = sel.len();
    let mut kept = vec![0u32; n];
    let mut k = 0usize;
    let any_null = nulls.any();
    match sel {
        SelRef::Range(lo, hi) => {
            for i in *lo..*hi {
                if any_null && nulls.is_null(i) {
                    continue;
                }
                let x = value(i);
                if x.is_nan() {
                    return Fused::Bail;
                }
                kept[k] = i as u32;
                k += keep(x) as usize;
            }
        }
        SelRef::Rows(rows) => {
            for &r in *rows {
                let i = r as usize;
                if any_null && nulls.is_null(i) {
                    continue;
                }
                let x = value(i);
                if x.is_nan() {
                    return Fused::Bail;
                }
                kept[k] = r;
                k += keep(x) as usize;
            }
        }
    }
    kept.truncate(k);
    Fused::Kept(kept)
}

/// Integer twin of [`float_loop`]; integer compares cannot bail, and
/// mixed int-vs-float-literal lanes reuse it (a non-NaN literal cannot
/// bail either, and null rows' discarded compares are harmless).
#[inline(always)]
fn int_loop(
    sel: &SelRef<'_>,
    nulls: &impl NullTest,
    value: &impl Fn(usize) -> i64,
    keep: &impl Fn(i64) -> bool,
) -> Fused {
    let n = sel.len();
    let mut kept = vec![0u32; n];
    let mut k = 0usize;
    let any_null = nulls.any();
    match sel {
        SelRef::Range(lo, hi) => {
            for i in *lo..*hi {
                kept[k] = i as u32;
                k += ((!any_null || !nulls.is_null(i)) && keep(value(i))) as usize;
            }
        }
        SelRef::Rows(rows) => {
            for &r in *rows {
                let i = r as usize;
                kept[k] = r;
                k += ((!any_null || !nulls.is_null(i)) && keep(value(i))) as usize;
            }
        }
    }
    kept.truncate(k);
    Fused::Kept(kept)
}

/// A selection that may still be a morsel's implicit row range
/// `lo..hi`, letting the first fused conjunct of a scan skip
/// materializing — and then re-reading — the index vector.
enum SelRef<'a> {
    Range(usize, usize),
    Rows(&'a [u32]),
}

impl SelRef<'_> {
    #[inline]
    fn len(&self) -> usize {
        match self {
            SelRef::Range(lo, hi) => hi - lo,
            SelRef::Rows(rows) => rows.len(),
        }
    }
}

// ---------------------------------------------------------------------
// Views: which rows of which relations a kernel evaluates over.
// ---------------------------------------------------------------------

/// A batch of joined rows: per relation, a selection vector of row ids
/// (`None` for relations not in scope of the current phase, e.g. other
/// relations during a pushed-down scan filter).
struct View<'a> {
    tables: &'a [&'a ColumnarTable],
    rows: Vec<Option<&'a [u32]>>,
    len: usize,
    /// Whether every in-scope selection is ascending and unique (true
    /// for scan-phase selections; false after a join, whose rowid
    /// columns may repeat rows). Only when this holds does full length
    /// imply the identity selection, unlocking memcpy-style gathers.
    ascending: bool,
}

impl<'a> View<'a> {
    fn single(tables: &'a [&'a ColumnarTable], n: usize, rel: usize, sel: &'a [u32]) -> Self {
        let mut rows = vec![None; n];
        rows[rel] = Some(sel);
        View {
            tables,
            rows,
            len: sel.len(),
            ascending: true,
        }
    }

    fn all(tables: &'a [&'a ColumnarTable], rowids: &'a [Vec<u32>]) -> Self {
        let len = rowids.first().map_or(0, Vec::len);
        View {
            tables,
            rows: rowids.iter().map(|c| Some(c.as_slice())).collect(),
            len,
            // A join can emit a base row any number of times; only the
            // single-relation passthrough keeps the scan's ordering.
            ascending: rowids.len() == 1,
        }
    }

    #[inline]
    fn col(&self, id: ColId) -> &'a Column {
        &self.tables[id.rel].columns[id.col]
    }

    /// Row id (into the base table) of batch row `i` for `id`'s relation.
    #[inline]
    fn rid(&self, id: ColId, i: usize) -> usize {
        self.rows[id.rel].expect("kernel touched an out-of-scope relation")[i] as usize
    }

    /// The whole selection vector for `id`'s relation (hot gathers hoist
    /// this out of their per-row loops).
    #[inline]
    fn sel(&self, id: ColId) -> &'a [u32] {
        self.rows[id.rel].expect("kernel touched an out-of-scope relation")
    }

    /// Whether `sel` is the identity selection over a table of
    /// `table_len` rows: ascending + unique + full length. Gathers may
    /// then read slots directly (or memcpy) instead of indirecting.
    #[inline]
    fn identity(&self, sel: &[u32], table_len: usize) -> bool {
        self.ascending && sel.len() == table_len
    }

    /// The sub-view over batch rows `lo..hi` (a morsel): same relations,
    /// each in-scope selection sliced to the range. Ascending carries
    /// over (a sub-slice of an ascending unique selection stays so);
    /// identity never holds for a proper sub-range, so gathers take the
    /// indirect path and read the same values the full view would.
    fn slice(&self, lo: usize, hi: usize) -> View<'a> {
        View {
            tables: self.tables,
            rows: self.rows.iter().map(|r| r.map(|s| &s[lo..hi])).collect(),
            len: hi - lo,
            ascending: self.ascending,
        }
    }
}

/// Per-selection null flags; an all-valid column memsets instead of
/// probing the bitmap row by row, and an identity selection (row i =
/// slot i) expands the bitmap word at a time. `identity` must be
/// established by the caller via [`View::identity`].
fn gather_nulls(mask: &NullMask, sel: &[u32], identity: bool) -> Vec<bool> {
    if !mask.any() {
        vec![false; sel.len()]
    } else if identity {
        let mut out = vec![false; sel.len()];
        mask.or_into(&mut out);
        out
    } else {
        sel.iter().map(|&r| mask.is_null(r as usize)).collect()
    }
}

/// A resolved column: relation index (FROM/JOIN order) and column index
/// in the relation's original (unpruned) layout.
#[derive(Clone, Copy, PartialEq, Eq)]
struct ColId {
    rel: usize,
    col: usize,
}

/// Kernel compiler context: resolution against the statement scope, the
/// columnar images that decide each column's runtime class, and the
/// subquery memo that turns uncorrelated subqueries into constants.
struct Cx<'a> {
    scope: &'a Scope,
    tables: &'a [&'a ColumnarTable],
    ctx: &'a EvalContext<'a>,
}

impl Cx<'_> {
    fn resolve(&self, c: &ColumnRef) -> Option<ColId> {
        let flat = self.scope.resolve(c).ok()?;
        let rel = self.scope.bindings.iter().rposition(|b| b.offset <= flat)?;
        Some(ColId {
            rel,
            col: flat - self.scope.bindings[rel].offset,
        })
    }

    fn data(&self, id: ColId) -> &ColumnData {
        &self.tables[id.rel].columns[id.col].data
    }

    /// A scalar subquery's value, executed once through the statement
    /// memo. `None` (bail) wherever the row path would raise an error —
    /// the subquery fails, or returns more than one column or row — so
    /// the row path raises it lazily, only if a row reaches it.
    fn scalar_subquery(&self, q: &Query) -> Option<Value> {
        let rs = self.ctx.subquery(q).ok()?;
        if rs.columns.len() != 1 || rs.rows.len() > 1 {
            return None;
        }
        Some(rs.rows.first().map_or(Value::Null, |r| r[0].clone()))
    }
}

// ---------------------------------------------------------------------
// Kernels. Every `eval` returns `Option`: `None` = bail to the row path.
// ---------------------------------------------------------------------

/// Numeric expression kernel.
enum NumK {
    IntCol(ColId),
    FloatCol(ColId),
    IntLit(i64),
    FloatLit(f64),
    NullLit,
    Neg(Box<NumK>),
    Arith {
        l: Box<NumK>,
        op: BinaryOp,
        r: Box<NumK>,
    },
}

/// Static class of a numeric kernel's output.
#[derive(Clone, Copy, PartialEq)]
enum NumTy {
    Int,
    Float,
    Null,
}

/// A numeric batch: typed data plus per-row null flags.
enum NumOut {
    Int(Vec<i64>, Vec<bool>),
    Float(Vec<f64>, Vec<bool>),
    AllNull,
}

impl NumK {
    /// The constant cell of a literal kernel, letting comparisons skip
    /// broadcasting the literal side into a full batch.
    #[inline]
    fn as_lit(&self) -> Option<NumCell> {
        match self {
            NumK::IntLit(k) => Some(NumCell::I(*k)),
            NumK::FloatLit(f) => Some(NumCell::F(*f)),
            _ => None,
        }
    }

    fn ty(&self) -> NumTy {
        match self {
            NumK::IntCol(_) | NumK::IntLit(_) => NumTy::Int,
            NumK::FloatCol(_) | NumK::FloatLit(_) => NumTy::Float,
            NumK::NullLit => NumTy::Null,
            NumK::Neg(e) => e.ty(),
            NumK::Arith { l, r, .. } => match (l.ty(), r.ty()) {
                (NumTy::Null, _) | (_, NumTy::Null) => NumTy::Null,
                (NumTy::Int, NumTy::Int) => NumTy::Int,
                _ => NumTy::Float,
            },
        }
    }

    fn eval(&self, v: &View) -> Option<NumOut> {
        let n = v.len;
        Some(match self {
            NumK::IntCol(id) => {
                let col = v.col(*id);
                let ColumnData::Int(data) = &col.data else {
                    return None;
                };
                let sel = v.sel(*id);
                let ident = v.identity(sel, data.len());
                let out = if ident {
                    data.clone()
                } else {
                    sel.iter().map(|&r| data[r as usize]).collect()
                };
                NumOut::Int(out, gather_nulls(&col.nulls, sel, ident))
            }
            NumK::FloatCol(id) => {
                let col = v.col(*id);
                let ColumnData::Float(data) = &col.data else {
                    return None;
                };
                let sel = v.sel(*id);
                let ident = v.identity(sel, data.len());
                let out = if ident {
                    data.clone()
                } else {
                    sel.iter().map(|&r| data[r as usize]).collect()
                };
                NumOut::Float(out, gather_nulls(&col.nulls, sel, ident))
            }
            NumK::IntLit(k) => NumOut::Int(vec![*k; n], vec![false; n]),
            NumK::FloatLit(f) => NumOut::Float(vec![*f; n], vec![false; n]),
            NumK::NullLit => NumOut::AllNull,
            NumK::Neg(e) => match e.eval(v)? {
                NumOut::AllNull => NumOut::AllNull,
                NumOut::Int(mut data, nulls) => {
                    for (d, &null) in data.iter_mut().zip(&nulls) {
                        if !null {
                            *d = d.checked_neg()?;
                        }
                    }
                    NumOut::Int(data, nulls)
                }
                NumOut::Float(mut data, nulls) => {
                    for d in &mut data {
                        *d = -*d;
                    }
                    NumOut::Float(data, nulls)
                }
            },
            NumK::Arith { l, op, r } => {
                // The hot filter shape `float_col ⊕ float_col` (q3's
                // color cut `u - r`) fuses gather and arithmetic into
                // one pass: no intermediate operand batches. Float
                // Add/Sub/Mul cannot error, so computing through null
                // slots (finite placeholders) is mask-safe.
                if let (NumK::FloatCol(ia), NumK::FloatCol(ib)) = (&**l, &**r) {
                    if matches!(op, BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul) {
                        let (ca, cb) = (v.col(*ia), v.col(*ib));
                        if let (ColumnData::Float(da), ColumnData::Float(db)) = (&ca.data, &cb.data)
                        {
                            let (sa, sb) = (v.sel(*ia), v.sel(*ib));
                            // Identity selections drop the index
                            // indirection so the loop vectorizes.
                            let identity = v.identity(sa, da.len()) && v.identity(sb, db.len());
                            let nulls = if !ca.nulls.any() && !cb.nulls.any() {
                                vec![false; n]
                            } else if identity {
                                let mut out = vec![false; n];
                                ca.nulls.or_into(&mut out);
                                cb.nulls.or_into(&mut out);
                                out
                            } else {
                                (0..n)
                                    .map(|i| {
                                        ca.nulls.is_null(sa[i] as usize)
                                            | cb.nulls.is_null(sb[i] as usize)
                                    })
                                    .collect()
                            };
                            let zip = || da.iter().zip(db.iter());
                            let gat = |i: usize| -> (f64, f64) {
                                (da[sa[i] as usize], db[sb[i] as usize])
                            };
                            let data: Vec<f64> = match (op, identity) {
                                (BinaryOp::Add, true) => zip().map(|(&a, &b)| a + b).collect(),
                                (BinaryOp::Sub, true) => zip().map(|(&a, &b)| a - b).collect(),
                                (_, true) => zip().map(|(&a, &b)| a * b).collect(),
                                (BinaryOp::Add, false) => (0..n)
                                    .map(|i| {
                                        let (a, b) = gat(i);
                                        a + b
                                    })
                                    .collect(),
                                (BinaryOp::Sub, false) => (0..n)
                                    .map(|i| {
                                        let (a, b) = gat(i);
                                        a - b
                                    })
                                    .collect(),
                                (_, false) => (0..n)
                                    .map(|i| {
                                        let (a, b) = gat(i);
                                        a * b
                                    })
                                    .collect(),
                            };
                            return Some(NumOut::Float(data, nulls));
                        }
                    }
                }
                // Both operands are evaluated even when one is statically
                // NULL: the row path evaluates both before its null
                // check, so an error hiding in either side must force a
                // bail, not be skipped.
                let a = l.eval(v)?;
                let b = r.eval(v)?;
                match (a, b) {
                    (NumOut::AllNull, _) | (_, NumOut::AllNull) => NumOut::AllNull,
                    (NumOut::Int(x, xn), NumOut::Int(y, yn)) => {
                        let mut out = Vec::with_capacity(n);
                        let mut nulls = Vec::with_capacity(n);
                        for i in 0..n {
                            if xn[i] || yn[i] {
                                out.push(0);
                                nulls.push(true);
                                continue;
                            }
                            let (a, b) = (x[i], y[i]);
                            let r = match op {
                                BinaryOp::Add => a.checked_add(b)?,
                                BinaryOp::Sub => a.checked_sub(b)?,
                                BinaryOp::Mul => a.checked_mul(b)?,
                                BinaryOp::Div => {
                                    if b == 0 {
                                        // Division by zero is NULL, not
                                        // an error.
                                        out.push(0);
                                        nulls.push(true);
                                        continue;
                                    }
                                    a.checked_div(b)?
                                }
                                _ => return None,
                            };
                            out.push(r);
                            nulls.push(false);
                        }
                        NumOut::Int(out, nulls)
                    }
                    (a, b) => {
                        // Mixed or float: both sides as f64, like the row
                        // path's `as_f64` promotion. Add/Sub/Mul compute
                        // straight through null slots (placeholders are
                        // finite 0.0s, and masked results are never
                        // read), so the loops stay branch-free.
                        let (x, xn) = a.into_f64();
                        let (y, yn) = b.into_f64();
                        let zip = || x.iter().zip(&y);
                        let mut nulls: Vec<bool> =
                            xn.iter().zip(&yn).map(|(&p, &q)| p | q).collect();
                        let out: Vec<f64> = match op {
                            BinaryOp::Add => zip().map(|(&a, &b)| a + b).collect(),
                            BinaryOp::Sub => zip().map(|(&a, &b)| a - b).collect(),
                            BinaryOp::Mul => zip().map(|(&a, &b)| a * b).collect(),
                            BinaryOp::Div => {
                                // Division by zero is NULL, not an error.
                                let mut out = Vec::with_capacity(n);
                                for i in 0..n {
                                    if nulls[i] || y[i] == 0.0 {
                                        nulls[i] = true;
                                        out.push(0.0);
                                    } else {
                                        out.push(x[i] / y[i]);
                                    }
                                }
                                out
                            }
                            _ => return None,
                        };
                        NumOut::Float(out, nulls)
                    }
                }
            }
        })
    }
}

/// One non-null cell of a numeric batch.
#[derive(Clone, Copy)]
enum NumCell {
    I(i64),
    F(f64),
}

impl NumOut {
    #[inline]
    fn cell(&self, i: usize) -> Option<NumCell> {
        match self {
            NumOut::Int(d, n) => (!n[i]).then(|| NumCell::I(d[i])),
            NumOut::Float(d, n) => (!n[i]).then(|| NumCell::F(d[i])),
            NumOut::AllNull => None,
        }
    }

    fn into_f64(self) -> (Vec<f64>, Vec<bool>) {
        match self {
            NumOut::Int(d, n) => (d.into_iter().map(|v| v as f64).collect(), n),
            NumOut::Float(d, n) => (d, n),
            NumOut::AllNull => unreachable!("AllNull handled before promotion"),
        }
    }
}

/// Ordering of two non-null numeric cells under `Value::compare`:
/// `None` exactly when a NaN is involved (the caller decides whether
/// that is a NULL, as in BETWEEN, or a row-path error, as in `<`).
#[inline]
fn cmp_cells(a: NumCell, b: NumCell) -> Option<Ordering> {
    match (a, b) {
        (NumCell::I(x), NumCell::I(y)) => Some(x.cmp(&y)),
        (NumCell::I(x), NumCell::F(y)) => (!y.is_nan()).then(|| cmp_int_f64(x, y)),
        (NumCell::F(x), NumCell::I(y)) => (!x.is_nan()).then(|| cmp_int_f64(y, x).reverse()),
        (NumCell::F(x), NumCell::F(y)) => x.partial_cmp(&y),
    }
}

/// `lit op x` rewritten as `x op' lit` so the swapped-literal lane can
/// share the unswapped loops.
fn mirror(op: BinaryOp) -> BinaryOp {
    match op {
        BinaryOp::Lt => BinaryOp::Gt,
        BinaryOp::Gt => BinaryOp::Lt,
        BinaryOp::LtEq => BinaryOp::GtEq,
        BinaryOp::GtEq => BinaryOp::LtEq,
        other => other,
    }
}

/// Branch-free tristate compare of one float batch against per-row
/// right-hand values produced by `rhs(i)`. Callers have already ruled
/// out NaN, so `total_cmp`-free primitive compares are exact.
macro_rules! cmp_lane {
    ($d:expr, $nulls:expr, $op:expr, $rhs:expr) => {{
        let (d, nulls) = ($d, $nulls);
        let tri = |b: bool, nl: bool| if nl { -1 } else { b as i8 };
        match $op {
            BinaryOp::Eq => (0..d.len())
                .map(|i| tri(d[i] == $rhs(i), nulls[i]))
                .collect(),
            BinaryOp::NotEq => (0..d.len())
                .map(|i| tri(d[i] != $rhs(i), nulls[i]))
                .collect(),
            BinaryOp::Lt => (0..d.len())
                .map(|i| tri(d[i] < $rhs(i), nulls[i]))
                .collect(),
            BinaryOp::LtEq => (0..d.len())
                .map(|i| tri(d[i] <= $rhs(i), nulls[i]))
                .collect(),
            BinaryOp::Gt => (0..d.len())
                .map(|i| tri(d[i] > $rhs(i), nulls[i]))
                .collect(),
            BinaryOp::GtEq => (0..d.len())
                .map(|i| tri(d[i] >= $rhs(i), nulls[i]))
                .collect(),
            _ => unreachable!("comparison kernels only carry comparison ops"),
        }
    }};
}

/// Batch vs. one literal cell. `swapped` means the literal was the left
/// operand. Same bail rule as [`cmp_cells`]: a NaN reaching an ordered
/// comparison is a row-path decision — the NaN pre-scan may over-bail
/// on a NaN hiding in a null slot, which is safe (the row path decides).
fn cmp_num_lit(a: &NumOut, op: BinaryOp, lit: NumCell, swapped: bool, n: usize) -> Option<Vec<i8>> {
    let op = if swapped { mirror(op) } else { op };
    Some(match (a, lit) {
        (NumOut::AllNull, _) => vec![-1; n],
        // Homogeneous fast lanes: NaN handling hoisted out of the loop,
        // per-row work is a primitive compare and a null select.
        (NumOut::Int(d, nulls), NumCell::I(y)) => cmp_lane!(d, nulls, op, |_i| y),
        (NumOut::Float(d, nulls), NumCell::F(y)) => {
            if y.is_nan() || d.iter().any(|v| v.is_nan()) {
                return None;
            }
            cmp_lane!(d, nulls, op, |_i| y)
        }
        // Mixed classes: per-row exact compare; `op` is already
        // mirrored, so x-vs-lit ordering is correct for both operand
        // orders.
        _ => {
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                out.push(match a.cell(i) {
                    Some(x) => tri_of(cmp_cells(x, lit)?, op),
                    None => -1,
                });
            }
            out
        }
    })
}

/// Batch vs. batch comparison with typed fast lanes for the homogeneous
/// cases and the generic cell loop for mixed ones.
fn cmp_num_outs(a: &NumOut, op: BinaryOp, b: &NumOut, n: usize) -> Option<Vec<i8>> {
    Some(match (a, b) {
        (NumOut::AllNull, _) | (_, NumOut::AllNull) => vec![-1; n],
        (NumOut::Int(x, xn), NumOut::Int(y, yn)) => {
            let nulls: Vec<bool> = xn.iter().zip(yn).map(|(&p, &q)| p | q).collect();
            cmp_lane!(x, &nulls, op, |i: usize| y[i])
        }
        (NumOut::Float(x, xn), NumOut::Float(y, yn)) => {
            if x.iter().any(|v| v.is_nan()) || y.iter().any(|v| v.is_nan()) {
                return None;
            }
            let nulls: Vec<bool> = xn.iter().zip(yn).map(|(&p, &q)| p | q).collect();
            cmp_lane!(x, &nulls, op, |i: usize| y[i])
        }
        _ => {
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                out.push(match (a.cell(i), b.cell(i)) {
                    (Some(x), Some(y)) => tri_of(cmp_cells(x, y)?, op),
                    _ => -1,
                });
            }
            out
        }
    })
}

#[inline]
fn tri_of(ord: Ordering, op: BinaryOp) -> i8 {
    let b = match op {
        BinaryOp::Eq => ord.is_eq(),
        BinaryOp::NotEq => !ord.is_eq(),
        BinaryOp::Lt => ord.is_lt(),
        BinaryOp::LtEq => ord.is_le(),
        BinaryOp::Gt => ord.is_gt(),
        BinaryOp::GtEq => ord.is_ge(),
        _ => unreachable!("comparison kernels only carry comparison ops"),
    };
    b as i8
}

/// Text expression kernel: a dictionary-encoded column, a literal, or
/// a statically-NULL value.
enum TextK {
    Col(ColId),
    Lit(Arc<String>),
    Null,
}

impl TextK {
    fn dict<'a>(&self, v: &View<'a>, id: ColId) -> Option<(&'a DictColumn, &'a Column)> {
        let col = v.col(id);
        match &col.data {
            ColumnData::Text(d) => Some((d, col)),
            _ => None,
        }
    }
}

/// Boolean (tristate) expression kernel.
enum BoolK {
    Const(i8),
    Col(ColId),
    CmpNum {
        l: NumK,
        op: BinaryOp,
        r: NumK,
    },
    CmpText {
        l: TextK,
        op: BinaryOp,
        r: TextK,
    },
    CmpBool {
        l: Box<BoolK>,
        op: BinaryOp,
        r: Box<BoolK>,
    },
    BetweenNum {
        v: NumK,
        lo: NumK,
        hi: NumK,
        negated: bool,
    },
    BetweenText {
        v: TextK,
        lo: TextK,
        hi: TextK,
        negated: bool,
    },
    /// `v [NOT] IN (…)` over a literal list or an uncorrelated
    /// subquery, probing a set built once.
    InSet {
        v: Box<ValK>,
        set: Arc<InSet>,
        negated: bool,
    },
    LikeDict {
        col: ColId,
        pattern: String,
        negated: bool,
    },
    IsNull {
        v: Box<AnyK>,
        negated: bool,
    },
    Not(Box<BoolK>),
    Logic {
        l: Box<BoolK>,
        op: BinaryOp,
        r: Box<BoolK>,
    },
}

impl BoolK {
    fn eval(&self, v: &View) -> Option<Vec<i8>> {
        let n = v.len;
        Some(match self {
            BoolK::Const(t) => vec![*t; n],
            BoolK::Col(id) => {
                let col = v.col(*id);
                let ColumnData::Bool(data) = &col.data else {
                    return None;
                };
                (0..n)
                    .map(|i| {
                        let r = v.rid(*id, i);
                        if col.nulls.is_null(r) {
                            -1
                        } else {
                            data[r] as i8
                        }
                    })
                    .collect()
            }
            BoolK::CmpNum { l, op, r } => match (l.as_lit(), r.as_lit()) {
                (None, Some(lit)) => cmp_num_lit(&l.eval(v)?, *op, lit, false, n)?,
                (Some(lit), None) => cmp_num_lit(&r.eval(v)?, *op, lit, true, n)?,
                _ => cmp_num_outs(&l.eval(v)?, *op, &r.eval(v)?, n)?,
            },
            BoolK::CmpText { l, op, r } => self.eval_cmp_text(v, l, *op, r)?,
            BoolK::CmpBool { l, op, r } => {
                let a = l.eval(v)?;
                let b = r.eval(v)?;
                a.iter()
                    .zip(&b)
                    .map(|(&x, &y)| {
                        if x < 0 || y < 0 {
                            -1
                        } else {
                            tri_of((x == 1).cmp(&(y == 1)), *op)
                        }
                    })
                    .collect()
            }
            BoolK::BetweenNum {
                v: e,
                lo,
                hi,
                negated,
            } => {
                let a = e.eval(v)?;
                let l = lo.eval(v)?;
                let h = hi.eval(v)?;
                let mut out = Vec::with_capacity(n);
                for i in 0..n {
                    // `compare` semantics: NULL or NaN → unknown bound.
                    let ge = match (a.cell(i), l.cell(i)) {
                        (Some(x), Some(y)) => cmp_cells(x, y).map(Ordering::is_ge),
                        _ => None,
                    };
                    let le = match (a.cell(i), h.cell(i)) {
                        (Some(x), Some(y)) => cmp_cells(x, y).map(Ordering::is_le),
                        _ => None,
                    };
                    out.push(between_tri(ge, le, *negated));
                }
                out
            }
            BoolK::BetweenText {
                v: e,
                lo,
                hi,
                negated,
            } => {
                let a = TextBatch::gather(e, v)?;
                let l = TextBatch::gather(lo, v)?;
                let h = TextBatch::gather(hi, v)?;
                let mut out = Vec::with_capacity(n);
                for i in 0..n {
                    let ge = match (a.get(v, i), l.get(v, i)) {
                        (Some(x), Some(y)) => Some(x.cmp(y).is_ge()),
                        _ => None,
                    };
                    let le = match (a.get(v, i), h.get(v, i)) {
                        (Some(x), Some(y)) => Some(x.cmp(y).is_le()),
                        _ => None,
                    };
                    out.push(between_tri(ge, le, *negated));
                }
                out
            }
            BoolK::InSet { v: e, set, negated } => {
                let tri = |(found, saw_null): (bool, bool)| {
                    if found {
                        !*negated as i8
                    } else if saw_null {
                        -1
                    } else {
                        *negated as i8
                    }
                };
                // A NULL probe is unknown against any set (-1).
                match e.as_ref() {
                    ValK::Num(k) => match k.eval(v)? {
                        NumOut::Int(d, nulls) => d
                            .iter()
                            .zip(&nulls)
                            .map(|(&x, &null)| if null { -1 } else { tri(set.probe_int(x)) })
                            .collect(),
                        NumOut::Float(d, nulls) => d
                            .iter()
                            .zip(&nulls)
                            .map(|(&x, &null)| if null { -1 } else { tri(set.probe_float(x)) })
                            .collect(),
                        NumOut::AllNull => vec![-1; n],
                    },
                    ValK::Text(TextK::Col(id)) => {
                        let c = v.col(*id);
                        let ColumnData::Text(d) = &c.data else {
                            return None;
                        };
                        // One probe per distinct string, not per row.
                        let lut: Vec<i8> =
                            d.values.iter().map(|s| tri(set.probe_text(s))).collect();
                        (0..n)
                            .map(|i| {
                                let r = v.rid(*id, i);
                                if c.nulls.is_null(r) {
                                    -1
                                } else {
                                    lut[d.codes[r] as usize]
                                }
                            })
                            .collect()
                    }
                    ValK::Text(TextK::Lit(s)) => vec![tri(set.probe_text(s)); n],
                    ValK::Text(TextK::Null) => vec![-1; n],
                    ValK::Tri(b) => {
                        let lut = [tri(set.probe_bool(false)), tri(set.probe_bool(true))];
                        b.eval(v)?
                            .into_iter()
                            .map(|t| if t < 0 { -1 } else { lut[t as usize] })
                            .collect()
                    }
                    ValK::OutCol(_) => return None,
                }
            }
            BoolK::LikeDict {
                col,
                pattern,
                negated,
            } => {
                let c = v.col(*col);
                let ColumnData::Text(d) = &c.data else {
                    return None;
                };
                // One match per distinct string, not per row.
                let lut: Vec<i8> = d
                    .values
                    .iter()
                    .map(|s| (like_match(s, pattern) != *negated) as i8)
                    .collect();
                (0..n)
                    .map(|i| {
                        let r = v.rid(*col, i);
                        if c.nulls.is_null(r) {
                            -1
                        } else {
                            lut[d.codes[r] as usize]
                        }
                    })
                    .collect()
            }
            BoolK::IsNull { v: e, negated } => {
                let nulls = e.nulls(v)?;
                nulls
                    .into_iter()
                    .map(|is_null| (is_null != *negated) as i8)
                    .collect()
            }
            BoolK::Not(e) => e
                .eval(v)?
                .into_iter()
                .map(|t| if t < 0 { -1 } else { 1 - t })
                .collect(),
            BoolK::Logic { l, op, r } => {
                // Eager on both sides: if either side would have errored
                // past a row-path short circuit, the kernel bails and the
                // row path re-decides (including whether to error).
                let a = l.eval(v)?;
                let b = r.eval(v)?;
                a.iter()
                    .zip(&b)
                    .map(|(&x, &y)| opt_tri(combine_logical(*op, tri_opt(x), tri_opt(y))))
                    .collect()
            }
        })
    }

    fn eval_cmp_text(&self, v: &View, l: &TextK, op: BinaryOp, r: &TextK) -> Option<Vec<i8>> {
        let n = v.len;
        Some(match (l, r) {
            (TextK::Null, _) | (_, TextK::Null) => vec![-1; n],
            (TextK::Lit(a), TextK::Lit(b)) => vec![tri_of(a.as_str().cmp(b.as_str()), op); n],
            (TextK::Col(id), TextK::Lit(s)) => {
                let (d, c) = l.dict(v, *id)?;
                let lut: Vec<i8> = d
                    .values
                    .iter()
                    .map(|val| tri_of(val.as_str().cmp(s.as_str()), op))
                    .collect();
                (0..n)
                    .map(|i| {
                        let r = v.rid(*id, i);
                        if c.nulls.is_null(r) {
                            -1
                        } else {
                            lut[d.codes[r] as usize]
                        }
                    })
                    .collect()
            }
            (TextK::Lit(s), TextK::Col(id)) => {
                let (d, c) = r.dict(v, *id)?;
                let lut: Vec<i8> = d
                    .values
                    .iter()
                    .map(|val| tri_of(s.as_str().cmp(val.as_str()), op))
                    .collect();
                (0..n)
                    .map(|i| {
                        let r = v.rid(*id, i);
                        if c.nulls.is_null(r) {
                            -1
                        } else {
                            lut[d.codes[r] as usize]
                        }
                    })
                    .collect()
            }
            (TextK::Col(a), TextK::Col(b)) => {
                let (da, ca) = l.dict(v, *a)?;
                let (db, cb) = r.dict(v, *b)?;
                (0..n)
                    .map(|i| {
                        let (ra, rb) = (v.rid(*a, i), v.rid(*b, i));
                        if ca.nulls.is_null(ra) || cb.nulls.is_null(rb) {
                            -1
                        } else {
                            let x = &da.values[da.codes[ra] as usize];
                            let y = &db.values[db.codes[rb] as usize];
                            tri_of(x.as_str().cmp(y.as_str()), op)
                        }
                    })
                    .collect()
            }
        })
    }
}

/// Mirror of the row path's BETWEEN combination: a definite "out of
/// range" on either bound decides FALSE even when the other bound is
/// unknown.
#[inline]
fn between_tri(ge: Option<bool>, le: Option<bool>, negated: bool) -> i8 {
    let within = match (ge, le) {
        (Some(a), Some(b)) => Some(a && b),
        (Some(false), _) | (_, Some(false)) => Some(false),
        _ => None,
    };
    match within {
        Some(w) => (w != negated) as i8,
        None => -1,
    }
}

#[inline]
fn tri_opt(t: i8) -> Option<bool> {
    match t {
        1 => Some(true),
        0 => Some(false),
        _ => None,
    }
}

#[inline]
fn opt_tri(o: Option<bool>) -> i8 {
    match o {
        Some(true) => 1,
        Some(false) => 0,
        None => -1,
    }
}

/// A gathered text batch side for ordered text kernels.
enum TextBatch<'k> {
    Col(ColId),
    Lit(&'k str),
    Null,
}

impl<'k> TextBatch<'k> {
    fn gather(k: &'k TextK, v: &View) -> Option<Self> {
        Some(match k {
            TextK::Col(id) => {
                match v.col(*id).data {
                    ColumnData::Text(_) => {}
                    _ => return None,
                }
                TextBatch::Col(*id)
            }
            TextK::Lit(s) => TextBatch::Lit(s),
            TextK::Null => TextBatch::Null,
        })
    }

    fn get<'a>(&'a self, v: &View<'a>, i: usize) -> Option<&'a str> {
        match self {
            TextBatch::Col(id) => {
                let col = v.col(*id);
                let r = v.rid(*id, i);
                if col.nulls.is_null(r) {
                    return None;
                }
                let ColumnData::Text(d) = &col.data else {
                    unreachable!("checked at gather");
                };
                Some(&d.values[d.codes[r] as usize])
            }
            TextBatch::Lit(s) => Some(s),
            TextBatch::Null => None,
        }
    }
}

/// Any-class kernel used where only null-ness matters (`IS NULL`).
/// Evaluation still runs the full kernel so data-dependent errors the
/// row path would surface (e.g. an overflow inside the tested
/// expression) force a bail.
enum AnyK {
    Num(NumK),
    Text(TextK),
    Tri(BoolK),
}

impl AnyK {
    fn nulls(&self, v: &View) -> Option<Vec<bool>> {
        let n = v.len;
        Some(match self {
            AnyK::Num(k) => match k.eval(v)? {
                NumOut::Int(_, nulls) | NumOut::Float(_, nulls) => nulls,
                NumOut::AllNull => vec![true; n],
            },
            AnyK::Text(TextK::Col(id)) => {
                let col = v.col(*id);
                (0..n).map(|i| col.nulls.is_null(v.rid(*id, i))).collect()
            }
            AnyK::Text(TextK::Lit(_)) => vec![false; n],
            AnyK::Text(TextK::Null) => vec![true; n],
            AnyK::Tri(b) => b.eval(v)?.into_iter().map(|t| t < 0).collect(),
        })
    }
}

/// Value-producing kernel: projections, IN subjects, aggregate
/// arguments, ORDER BY keys. `OutCol(i)` reads already-projected output
/// column `i` (the ORDER BY alias fallback).
enum ValK {
    Num(NumK),
    Text(TextK),
    Tri(BoolK),
    OutCol(usize),
}

impl ValK {
    /// Materialize one `Value` per batch row. `projected` carries the
    /// projected output columns (column-major) for `OutCol`.
    fn materialize(&self, v: &View, projected: &[Vec<Value>]) -> Option<Vec<Value>> {
        let n = v.len;
        Some(match self {
            ValK::Num(k) => match k.eval(v)? {
                NumOut::Int(d, nulls) => d
                    .into_iter()
                    .zip(nulls)
                    .map(|(x, null)| if null { Value::Null } else { Value::Int(x) })
                    .collect(),
                NumOut::Float(d, nulls) => d
                    .into_iter()
                    .zip(nulls)
                    .map(|(x, null)| if null { Value::Null } else { Value::Float(x) })
                    .collect(),
                NumOut::AllNull => vec![Value::Null; n],
            },
            ValK::Text(TextK::Col(id)) => {
                let col = v.col(*id);
                let ColumnData::Text(d) = &col.data else {
                    return None;
                };
                (0..n)
                    .map(|i| {
                        let r = v.rid(*id, i);
                        if col.nulls.is_null(r) {
                            Value::Null
                        } else {
                            Value::Text(Arc::clone(&d.values[d.codes[r] as usize]))
                        }
                    })
                    .collect()
            }
            ValK::Text(TextK::Lit(s)) => vec![Value::Text(Arc::clone(s)); n],
            ValK::Text(TextK::Null) => vec![Value::Null; n],
            ValK::Tri(b) => b
                .eval(v)?
                .into_iter()
                .map(|t| match t {
                    1 => Value::Bool(true),
                    0 => Value::Bool(false),
                    _ => Value::Null,
                })
                .collect(),
            ValK::OutCol(i) => {
                let col = projected.get(*i)?;
                col.clone()
            }
        })
    }
}

// ---------------------------------------------------------------------
// Kernel compilation.
// ---------------------------------------------------------------------

impl Cx<'_> {
    fn compile_num(&self, e: &Expr) -> Option<NumK> {
        Some(match e {
            Expr::Column(c) => {
                let id = self.resolve(c)?;
                match self.data(id) {
                    ColumnData::Int(_) => NumK::IntCol(id),
                    ColumnData::Float(_) => NumK::FloatCol(id),
                    ColumnData::AllNull => NumK::NullLit,
                    _ => return None,
                }
            }
            Expr::Literal(Literal::Int(i)) => NumK::IntLit(*i),
            Expr::Literal(Literal::Float(f)) => NumK::FloatLit(*f),
            Expr::Literal(Literal::Null) => NumK::NullLit,
            Expr::Subquery(q) => match self.scalar_subquery(q)? {
                Value::Int(i) => NumK::IntLit(i),
                Value::Float(f) => NumK::FloatLit(f),
                Value::Null => NumK::NullLit,
                _ => return None,
            },
            Expr::Unary {
                op: UnaryOp::Neg,
                expr,
            } => NumK::Neg(Box::new(self.compile_num(expr)?)),
            Expr::Binary { left, op, right } if op.is_arithmetic() => NumK::Arith {
                l: Box::new(self.compile_num(left)?),
                op: *op,
                r: Box::new(self.compile_num(right)?),
            },
            _ => return None,
        })
    }

    fn compile_text(&self, e: &Expr) -> Option<TextK> {
        Some(match e {
            Expr::Column(c) => {
                let id = self.resolve(c)?;
                match self.data(id) {
                    ColumnData::Text(_) => TextK::Col(id),
                    ColumnData::AllNull => TextK::Null,
                    _ => return None,
                }
            }
            Expr::Literal(Literal::Str(s)) => TextK::Lit(Arc::new(s.clone())),
            Expr::Literal(Literal::Null) => TextK::Null,
            Expr::Subquery(q) => match self.scalar_subquery(q)? {
                Value::Text(s) => TextK::Lit(s),
                Value::Null => TextK::Null,
                _ => return None,
            },
            _ => return None,
        })
    }

    fn compile_bool(&self, e: &Expr) -> Option<BoolK> {
        Some(match e {
            Expr::Column(c) => {
                let id = self.resolve(c)?;
                match self.data(id) {
                    ColumnData::Bool(_) => BoolK::Col(id),
                    ColumnData::AllNull => BoolK::Const(-1),
                    _ => return None,
                }
            }
            Expr::Literal(Literal::Bool(b)) => BoolK::Const(*b as i8),
            Expr::Literal(Literal::Null) => BoolK::Const(-1),
            Expr::Unary {
                op: UnaryOp::Not,
                expr,
            } => BoolK::Not(Box::new(self.compile_bool(expr)?)),
            Expr::Binary { left, op, right } => match op {
                BinaryOp::And | BinaryOp::Or => BoolK::Logic {
                    l: Box::new(self.compile_bool(left)?),
                    op: *op,
                    r: Box::new(self.compile_bool(right)?),
                },
                op if op.is_comparison() => self.compile_cmp(left, *op, right)?,
                _ => return None,
            },
            Expr::Between {
                expr,
                negated,
                low,
                high,
            } => {
                // Same-class triples only: a cross-class BETWEEN can
                // still decide FALSE through the other bound in the row
                // path, which a typed kernel cannot reproduce — bail.
                if let (Some(v), Some(lo), Some(hi)) = (
                    self.compile_num(expr),
                    self.compile_num(low),
                    self.compile_num(high),
                ) {
                    BoolK::BetweenNum {
                        v,
                        lo,
                        hi,
                        negated: *negated,
                    }
                } else if let (Some(v), Some(lo), Some(hi)) = (
                    self.compile_text(expr),
                    self.compile_text(low),
                    self.compile_text(high),
                ) {
                    BoolK::BetweenText {
                        v,
                        lo,
                        hi,
                        negated: *negated,
                    }
                } else {
                    return None;
                }
            }
            Expr::InList {
                expr,
                negated,
                list,
            } => {
                let items: Vec<Value> = list
                    .iter()
                    .map(|item| match item {
                        Expr::Literal(l) => Some(literal_value(l)),
                        _ => None,
                    })
                    .collect::<Option<_>>()?;
                BoolK::InSet {
                    v: Box::new(self.compile_val(expr)?),
                    set: Arc::new(InSet::new(&items)),
                    negated: *negated,
                }
            }
            Expr::InSubquery {
                expr,
                negated,
                subquery,
            } => {
                let v = Box::new(self.compile_val(expr)?);
                BoolK::InSet {
                    v,
                    set: self.ctx.in_set(subquery).ok()?,
                    negated: *negated,
                }
            }
            Expr::Exists { negated, subquery } => {
                let rs = self.ctx.subquery(subquery).ok()?;
                BoolK::Const((rs.rows.is_empty() == *negated) as i8)
            }
            Expr::Subquery(q) => match self.scalar_subquery(q)? {
                Value::Bool(b) => BoolK::Const(b as i8),
                Value::Null => BoolK::Const(-1),
                _ => return None,
            },
            Expr::Like {
                expr,
                negated,
                pattern,
            } => {
                let t = self.compile_text(expr)?;
                match pattern.as_ref() {
                    Expr::Literal(Literal::Str(p)) => match t {
                        TextK::Col(id) => BoolK::LikeDict {
                            col: id,
                            pattern: p.clone(),
                            negated: *negated,
                        },
                        TextK::Lit(s) => BoolK::Const((like_match(&s, p) != *negated) as i8),
                        TextK::Null => BoolK::Const(-1),
                    },
                    // NULL pattern: NULL for every row (the subject is a
                    // text column or literal, which cannot error first).
                    Expr::Literal(Literal::Null) => BoolK::Const(-1),
                    // Non-text pattern errors in the row path unless the
                    // subject is NULL.
                    Expr::Literal(_) => match t {
                        TextK::Null => BoolK::Const(-1),
                        _ => return None,
                    },
                    _ => return None,
                }
            }
            Expr::IsNull { expr, negated } => BoolK::IsNull {
                v: Box::new(self.compile_any(expr)?),
                negated: *negated,
            },
            _ => return None,
        })
    }

    fn compile_cmp(&self, l: &Expr, op: BinaryOp, r: &Expr) -> Option<BoolK> {
        if let (Some(a), Some(b)) = (self.compile_num(l), self.compile_num(r)) {
            return Some(BoolK::CmpNum { l: a, op, r: b });
        }
        if let (Some(a), Some(b)) = (self.compile_text(l), self.compile_text(r)) {
            return Some(BoolK::CmpText { l: a, op, r: b });
        }
        if let (Some(a), Some(b)) = (self.compile_bool(l), self.compile_bool(r)) {
            return Some(BoolK::CmpBool {
                l: Box::new(a),
                op,
                r: Box::new(b),
            });
        }
        None
    }

    fn compile_val(&self, e: &Expr) -> Option<ValK> {
        if let Some(k) = self.compile_num(e) {
            return Some(ValK::Num(k));
        }
        if let Some(k) = self.compile_text(e) {
            return Some(ValK::Text(k));
        }
        self.compile_bool(e).map(ValK::Tri)
    }

    fn compile_any(&self, e: &Expr) -> Option<AnyK> {
        if let Some(k) = self.compile_num(e) {
            return Some(AnyK::Num(k));
        }
        if let Some(k) = self.compile_text(e) {
            return Some(AnyK::Text(k));
        }
        self.compile_bool(e).map(AnyK::Tri)
    }

    /// ORDER BY key compiler, mirroring the row path's alias fallback:
    /// only a *bare* column that fails resolution with `UnknownColumn`
    /// may fall back to a projection alias; the matching item's **flat
    /// output column** at the item's index is used, exactly like
    /// `OrderProg::Projected`.
    fn compile_order_key(&self, e: &Expr, select: &Select) -> Option<ValK> {
        if let Expr::Column(c) = e {
            if c.table.is_none() {
                match self.scope.resolve(c) {
                    Err(EngineError::UnknownColumn(_)) => {
                        for (i, item) in select.projections.iter().enumerate() {
                            if let SelectItem::Expr { alias: Some(a), .. } = item {
                                if a.eq_ignore_ascii_case(&c.column) {
                                    return Some(ValK::OutCol(i));
                                }
                            }
                        }
                        return None; // row path errors
                    }
                    Err(_) => return None,
                    Ok(_) => {}
                }
            }
        }
        self.compile_val(e)
    }
}

// ---------------------------------------------------------------------
// Joins.
// ---------------------------------------------------------------------

/// Join hash key under SQL equality — the column-vector mirror of the
/// row executor's `join_key`: NULL and NaN never match, integral floats
/// unify with ints.
#[derive(PartialEq, Eq, Hash)]
enum JKey<'a> {
    Int(i64),
    Float(u64),
    Text(&'a str),
    Bool(bool),
}

fn col_join_key<'a>(col: &'a Column, rid: usize) -> Option<JKey<'a>> {
    const TWO_63: f64 = 9_223_372_036_854_775_808.0; // 2^63, exact as f64
    if col.nulls.is_null(rid) {
        return None;
    }
    match &col.data {
        ColumnData::Int(d) => Some(JKey::Int(d[rid])),
        ColumnData::Float(d) => {
            let f = d[rid];
            if f.is_nan() {
                None
            } else if f.fract() == 0.0 && (-TWO_63..TWO_63).contains(&f) {
                Some(JKey::Int(f as i64))
            } else {
                Some(JKey::Float(f.to_bits()))
            }
        }
        ColumnData::Bool(d) => Some(JKey::Bool(d[rid])),
        ColumnData::Text(d) => Some(JKey::Text(&d.values[d.codes[rid] as usize])),
        ColumnData::AllNull | ColumnData::Values(_) => None,
    }
}

/// One hash-join step: probe column already in the accumulated output,
/// build column on the incoming relation.
struct JoinStep {
    new_rel: usize,
    probe: ColId,
    build_col: usize,
}

/// Hash-join build: each morsel indexes a contiguous slice of the
/// (ascending) build selection by `key` (`None` never matches), and the
/// tables merge in morsel order, so each key's row ids stay in
/// build-scan order whatever the split. One morsel's table moves into
/// place unmerged.
fn build_index<K: Hash + Eq + Send>(
    par: ParConfig,
    build_sel: &[u32],
    key: impl Fn(usize) -> Option<K> + Sync,
    prof_op: Option<&OpStats>,
) -> HashMap<K, Vec<u32>, FxBuild> {
    let n = build_sel.len();
    let mut parts = par.run(n, prof_op, |lo, hi| {
        let mut local: HashMap<K, Vec<u32>, FxBuild> =
            HashMap::with_capacity_and_hasher(hi - lo, FxBuild::default());
        for &rid in &build_sel[lo..hi] {
            if let Some(k) = key(rid as usize) {
                local.entry(k).or_default().push(rid);
            }
        }
        local
    });
    if parts.len() == 1 {
        return parts.pop().expect("one morsel");
    }
    let mut index: HashMap<K, Vec<u32>, FxBuild> =
        HashMap::with_capacity_and_hasher(n, FxBuild::default());
    for local in parts {
        for (k, mut v) in local {
            index.entry(k).and_modify(|e| e.append(&mut v)).or_insert(v);
        }
    }
    index
}

/// Hash-join probe: each morsel emits its range of the accumulated rows
/// once per build match (`matches` of the probe-side row id), and the
/// outputs concatenate in morsel order — the one-morsel emission order.
fn probe<'i>(
    par: ParConfig,
    acc: &[Vec<u32>],
    probe_pos: usize,
    matches: impl Fn(usize) -> &'i [u32] + Copy + Sync,
    prof_op: Option<&OpStats>,
) -> Vec<Vec<u32>> {
    let mut parts = par.run(acc[0].len(), prof_op, |lo, hi| {
        let mut out: Vec<Vec<u32>> = vec![Vec::new(); acc.len() + 1];
        for i in lo..hi {
            for &rid in matches(acc[probe_pos][i] as usize) {
                for (c, col) in acc.iter().enumerate() {
                    out[c].push(col[i]);
                }
                out[acc.len()].push(rid);
            }
        }
        out
    });
    let column = |c| {
        concat(
            parts
                .iter_mut()
                .map(|p| std::mem::take(&mut p[c]))
                .collect(),
        )
    };
    (0..=acc.len()).map(column).collect()
}

/// A dense CSR join index over a compact integer key range: bucket
/// `key - min` holds the build-side row ids in build-scan order, so a
/// probe emits matches in exactly the order the hash index would.
struct DenseIntIndex {
    min: i64,
    /// `starts[b]..starts[b + 1]` bounds bucket `b` in `rids`.
    starts: Vec<u32>,
    rids: Vec<u32>,
}

impl DenseIntIndex {
    /// Key → bucket lookup. It copies the bounds and slices it reads, so
    /// a probe loop keeps them in registers.
    fn lookup<'a>(&'a self) -> impl Fn(i64) -> &'a [u32] + Copy + Sync + 'a {
        let (min, starts, rids) = (self.min, self.starts.as_slice(), self.rids.as_slice());
        // A negative or overflowing offset wraps to a huge u64 and
        // fails the range check — one compare covers all misses.
        move |key| match key.checked_sub(min) {
            Some(off) if (off as u64) < (starts.len() - 1) as u64 => {
                let b = off as usize;
                &rids[starts[b] as usize..starts[b + 1] as usize]
            }
            _ => &[],
        }
    }
}

/// Counting-sort the filtered build keys into [`DenseIntIndex`] CSR
/// buckets when their range is compact. "Compact" weighs the one cost
/// dense adds — zeroing `range + 1` bucket bounds — against the
/// hashing it removes, which scales with build keys *and* probes; a
/// sparse key space (e.g. random 63-bit ids) returns `None` and keeps
/// the hash index.
fn build_dense_int_index(
    build_sel: &[u32],
    bd: &[i64],
    nulls: &NullMask,
    probes: usize,
) -> Option<DenseIntIndex> {
    let bn = nulls.any();
    let mut min = i64::MAX;
    let mut max = i64::MIN;
    let mut keys = 0usize;
    for &rid in build_sel {
        if bn && nulls.is_null(rid as usize) {
            continue;
        }
        let v = bd[rid as usize];
        min = min.min(v);
        max = max.max(v);
        keys += 1;
    }
    if keys == 0 {
        return None;
    }
    let range = max as i128 - min as i128 + 1;
    if range > (32 * keys + 16 * probes).clamp(4096, 1 << 22) as i128 {
        return None;
    }
    let range = range as usize;
    let mut starts = vec![0u32; range + 1];
    for &rid in build_sel {
        if bn && nulls.is_null(rid as usize) {
            continue;
        }
        starts[(bd[rid as usize] - min) as usize + 1] += 1;
    }
    for b in 0..range {
        starts[b + 1] += starts[b];
    }
    let mut cursor: Vec<u32> = starts[..range].to_vec();
    let mut rids = vec![0u32; keys];
    for &rid in build_sel {
        if bn && nulls.is_null(rid as usize) {
            continue;
        }
        let b = (bd[rid as usize] - min) as usize;
        rids[cursor[b] as usize] = rid;
        cursor[b] += 1;
    }
    Some(DenseIntIndex { min, starts, rids })
}

/// Execute all joins, returning one row-id column per relation (in
/// original FROM/JOIN order), rows in exactly the order the row-path
/// pipeline would emit.
fn join_all(cx: &Cx<'_>, input: &BatchInput<'_, '_>, sels: Vec<Vec<u32>>) -> Option<Vec<Vec<u32>>> {
    let n = sels.len();
    if n == 1 {
        return Some(sels);
    }

    let (order, steps) = if input.planned.reordered {
        let p = input.planned;
        let mut steps = Vec::with_capacity(p.steps.len());
        for step in &p.steps {
            let key = step.key?;
            steps.push(JoinStep {
                new_rel: step.rel,
                probe: ColId {
                    rel: key.left_rel,
                    col: key.left_col,
                },
                build_col: key.right_col,
            });
        }
        (p.order.clone(), steps)
    } else {
        // Source order: extract each join's equi-key, requiring one side
        // in the accumulated scope and the other on the new relation —
        // anything else is a nested-loop join in the row path, whose
        // per-pair predicate evaluation can error.
        let mut steps = Vec::with_capacity(input.select.joins.len());
        for (j, join) in input.select.joins.iter().enumerate() {
            let new_rel = j + 1;
            let Some(Expr::Binary {
                left,
                op: BinaryOp::Eq,
                right,
            }) = &join.constraint
            else {
                return None;
            };
            let (Expr::Column(a), Expr::Column(b)) = (left.as_ref(), right.as_ref()) else {
                return None;
            };
            let (a, b) = (cx.resolve(a)?, cx.resolve(b)?);
            let (probe, build) = if a.rel < new_rel && b.rel == new_rel {
                (a, b)
            } else if b.rel < new_rel && a.rel == new_rel {
                (b, a)
            } else {
                return None;
            };
            steps.push(JoinStep {
                new_rel,
                probe,
                build_col: build.col,
            });
        }
        ((0..n).collect(), steps)
    };

    // Accumulated output: one row-id column per joined relation.
    let mut acc_rels: Vec<usize> = vec![order[0]];
    let mut acc: Vec<Vec<u32>> = vec![sels[order[0]].clone()];
    for (si, step) in steps.iter().enumerate() {
        let prof_op = input.bp.as_ref().and_then(|b| b.join(si));
        let prof_t0 = crate::exec::prof_clock(&input.bp);
        let build_tbl = &cx.tables[step.new_rel];
        let build_col = build_tbl.columns.get(step.build_col)?;
        let probe_col = cx.tables[step.probe.rel].columns.get(step.probe.col)?;
        if matches!(build_col.data, ColumnData::Values(_))
            || matches!(probe_col.data, ColumnData::Values(_))
        {
            return None;
        }
        // The probe relation must already be joined.
        let probe_pos = acc_rels.iter().position(|&r| r == step.probe.rel)?;

        // Build on the incoming relation's filtered rows, then probe
        // the accumulated output in order; matches append in build-scan
        // order — exactly the row pipeline's emission order.
        let build_sel = &sels[step.new_rel];
        let acc_len = acc[0].len();
        let par = input.par;
        let out = if let (ColumnData::Int(bd), ColumnData::Int(pd)) =
            (&build_col.data, &probe_col.data)
        {
            // Typed fast path: Int×Int keys hash the raw i64 with no
            // per-row JKey construction. Int columns never unify with
            // float keys, so equality semantics are unchanged.
            let (bn, pn) = (build_col.nulls.any(), probe_col.nulls.any());
            let (bnulls, pnulls) = (&build_col.nulls, &probe_col.nulls);
            let build_key = move |rid: usize| (!bn || !bnulls.is_null(rid)).then(|| bd[rid]);
            let probe_key = move |rid: usize| (!pn || !pnulls.is_null(rid)).then(|| pd[rid]);
            // Dense only when both sides fit in one morsel.
            let dense = if par.morsels(build_sel.len()) == 1 && par.morsels(acc_len) == 1 {
                build_dense_int_index(build_sel, bd, &build_col.nulls, acc_len)
            } else {
                None
            };
            if let Some(dense) = dense {
                // Dense CSR probe: subtract + two array loads per probe,
                // no hashing. Buckets hold build row ids in build-scan
                // order, so emission order matches the hash index's.
                let get = dense.lookup();
                let matches = move |rid: usize| probe_key(rid).map_or(&[][..], get);
                probe(par, &acc, probe_pos, matches, prof_op)
            } else {
                let index = build_index(par, build_sel, build_key, prof_op);
                let index = &index;
                let matches = move |rid: usize| {
                    let rids = probe_key(rid).and_then(|k| index.get(&k));
                    rids.map_or(&[][..], Vec::as_slice)
                };
                probe(par, &acc, probe_pos, matches, prof_op)
            }
        } else {
            let index = build_index(par, build_sel, |rid| col_join_key(build_col, rid), prof_op);
            let index = &index;
            let matches = move |rid: usize| {
                let rids = col_join_key(probe_col, rid).and_then(|k| index.get(&k));
                rids.map_or(&[][..], Vec::as_slice)
            };
            probe(par, &acc, probe_pos, matches, prof_op)
        };
        if let Some(op) = prof_op {
            op.rows((acc_len + build_sel.len()) as u64, out[0].len() as u64);
            op.build_probe(build_sel.len() as u64, acc_len as u64);
            op.link((si == 0).then_some(order[0]), step.new_rel);
            crate::exec::prof_elapsed(prof_t0, Some(op));
        }
        acc = out;
        acc_rels.push(step.new_rel);
    }

    // Back to original relation order.
    let mut by_rel: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (pos, &rel) in acc_rels.iter().enumerate() {
        by_rel[rel] = std::mem::take(&mut acc[pos]);
    }

    if input.planned.reordered {
        // Restore source-order emission: selection vectors are ascending,
        // so sorting by the row-id tuple in source-relation order equals
        // the row path's sort by scan-position tags. Surviving tuples are
        // unique, so an unstable sort is exact.
        let len = by_rel[0].len();
        let mut idx: Vec<usize> = (0..len).collect();
        idx.sort_unstable_by(|&x, &y| {
            for col in &by_rel {
                match col[x].cmp(&col[y]) {
                    Ordering::Equal => continue,
                    other => return other,
                }
            }
            Ordering::Equal
        });
        for col in &mut by_rel {
            *col = idx.iter().map(|&i| col[i]).collect();
        }
    }
    Some(by_rel)
}

// ---------------------------------------------------------------------
// Plain (non-aggregate) output.
// ---------------------------------------------------------------------

fn plain(cx: &Cx<'_>, input: &BatchInput<'_, '_>, view: &View<'_>) -> Option<Projected> {
    let select = input.select;
    let mut columns = Vec::new();
    for item in &select.projections {
        match item {
            SelectItem::Wildcard => columns.extend(cx.scope.all_columns()),
            other => columns.push(crate::exec::projection_name(other)),
        }
    }

    // Projections, column-major.
    let mut proj_cols: Vec<Vec<Value>> = Vec::with_capacity(columns.len());
    for item in &select.projections {
        match item {
            SelectItem::Wildcard => {
                for (rel, binding) in cx.scope.bindings.iter().enumerate() {
                    for col in 0..binding.columns.len() {
                        let id = ColId { rel, col };
                        if matches!(cx.data(id), ColumnData::Values(_)) {
                            return None;
                        }
                        let gathered = (0..view.len)
                            .map(|i| view.col(id).value_at(view.rid(id, i)))
                            .collect();
                        proj_cols.push(gathered);
                    }
                }
            }
            SelectItem::Expr { expr, .. } => {
                let k = cx.compile_val(expr)?;
                proj_cols.push(k.materialize(view, &[])?);
            }
        }
    }

    // ORDER BY keys (may read projected output columns via the alias
    // fallback).
    let mut key_cols: Vec<Vec<Value>> = Vec::with_capacity(input.order_by.len());
    for item in input.order_by {
        let k = cx.compile_order_key(&item.expr, select)?;
        key_cols.push(k.materialize(view, &proj_cols)?);
    }

    Some(transpose(columns, proj_cols, key_cols, view.len))
}

/// Column-major kernel output to the executor's row-major `Projected`.
fn transpose(
    columns: Vec<String>,
    proj_cols: Vec<Vec<Value>>,
    key_cols: Vec<Vec<Value>>,
    len: usize,
) -> Projected {
    let mut out_rows: Vec<Vec<Value>> = (0..len)
        .map(|_| Vec::with_capacity(proj_cols.len()))
        .collect();
    for col in proj_cols {
        for (row, v) in out_rows.iter_mut().zip(col) {
            row.push(v);
        }
    }
    let mut keys: Vec<Vec<Value>> = (0..len)
        .map(|_| Vec::with_capacity(key_cols.len()))
        .collect();
    for col in key_cols {
        for (row, v) in keys.iter_mut().zip(col) {
            row.push(v);
        }
    }
    (columns, out_rows, keys)
}

// ---------------------------------------------------------------------
// Grouped (aggregate) output.
// ---------------------------------------------------------------------

/// An aggregate call lowered onto the batch: fast typed accumulators
/// where the argument class is statically known, the generic
/// materialize-and-reduce otherwise.
enum AggK {
    CountStar,
    CountAny(AnyK),
    SumInt(NumK),
    SumFloat(NumK),
    AvgNum(NumK),
    MinMaxInt(NumK, bool),
    MinMaxFloat(NumK, bool),
    Generic {
        arg: ValK,
        func: AggFunc,
        distinct: bool,
    },
}

/// A group-context expression: aggregates by registry index, scalars
/// evaluated on each group's first row, combinations at `Value` level
/// exactly like the row path's grouped evaluator.
enum GK {
    Agg(usize),
    Scalar(ValK),
    Binary {
        l: Box<GK>,
        op: BinaryOp,
        r: Box<GK>,
    },
    Unary {
        op: UnaryOp,
        e: Box<GK>,
    },
}

impl Cx<'_> {
    fn compile_gk(&self, e: &Expr, aggs: &mut Vec<AggK>) -> Option<GK> {
        Some(match e {
            Expr::Agg {
                func,
                distinct,
                arg,
            } => {
                let k = self.compile_agg(*func, *distinct, arg)?;
                aggs.push(k);
                GK::Agg(aggs.len() - 1)
            }
            Expr::Binary { left, op, right } => GK::Binary {
                l: Box::new(self.compile_gk(left, aggs)?),
                op: *op,
                r: Box::new(self.compile_gk(right, aggs)?),
            },
            Expr::Unary { op, expr } => GK::Unary {
                op: *op,
                e: Box::new(self.compile_gk(expr, aggs)?),
            },
            other => GK::Scalar(self.compile_val(other)?),
        })
    }

    fn compile_agg(&self, func: AggFunc, distinct: bool, arg: &AggArg) -> Option<AggK> {
        // COUNT(*) counts rows regardless of DISTINCT, like the row path.
        if matches!((func, arg), (AggFunc::Count, AggArg::Star)) {
            return Some(AggK::CountStar);
        }
        let AggArg::Expr(e) = arg else {
            return None; // row path: `f(*)` is only valid for COUNT
        };
        if distinct {
            return Some(AggK::Generic {
                arg: self.compile_val(e)?,
                func,
                distinct: true,
            });
        }
        if func == AggFunc::Count {
            return Some(AggK::CountAny(self.compile_any(e)?));
        }
        if let Some(k) = self.compile_num(e) {
            return Some(match (func, k.ty()) {
                (_, NumTy::Null) => AggK::Generic {
                    arg: ValK::Num(k),
                    func,
                    distinct: false,
                },
                (AggFunc::Sum, NumTy::Int) => AggK::SumInt(k),
                (AggFunc::Sum, NumTy::Float) => AggK::SumFloat(k),
                (AggFunc::Avg, _) => AggK::AvgNum(k),
                (AggFunc::Min, NumTy::Int) => AggK::MinMaxInt(k, false),
                (AggFunc::Max, NumTy::Int) => AggK::MinMaxInt(k, true),
                (AggFunc::Min, NumTy::Float) => AggK::MinMaxFloat(k, false),
                (AggFunc::Max, NumTy::Float) => AggK::MinMaxFloat(k, true),
                (AggFunc::Count, _) => unreachable!("handled above"),
            });
        }
        Some(AggK::Generic {
            arg: self.compile_val(e)?,
            func,
            distinct: false,
        })
    }
}

/// Group assignment: gid per batch row (first-occurrence order) plus the
/// first batch-row index of each group. A single key column runs through
/// [`group_single`] with a slot table for its kind; multi-column keys
/// run as one morsel.
fn group_ids(
    view: &View<'_>,
    keys: &[ColId],
    par: ParConfig,
    op: Option<&OpStats>,
) -> Option<(Vec<u32>, Vec<u32>)> {
    let [id] = keys else {
        return group_ids_multi(view, keys);
    };
    let col = view.col(*id);
    let sel = view.sel(*id);
    let (nulls, any_null) = (&col.nulls, col.nulls.any());
    let is_null = move |r: usize| any_null && nulls.is_null(r);
    Some(match &col.data {
        ColumnData::Text(d) => {
            // Dictionary fast path: one slot per code, plus NULL.
            let nv = d.values.len();
            let table = || vec![u32::MAX; nv + 1];
            let codes = d.codes.as_slice();
            group_single(par, op, sel, table, move |r| {
                if is_null(r) {
                    nv
                } else {
                    codes[r] as usize
                }
            })
        }
        ColumnData::Int(d) => group_single(
            par,
            op,
            sel,
            || (HashMap::default(), u32::MAX),
            move |r| (!is_null(r)).then(|| d[r]),
        ),
        // Canonical-key relation: micro-rounded bits, NaN collapsed —
        // identical partitions to the row path's hashed `Vec<Value>` keys.
        ColumnData::Float(d) => group_single(
            par,
            op,
            sel,
            || (HashMap::default(), u32::MAX),
            move |r| (!is_null(r)).then(|| canon_num(d[r]).to_bits()),
        ),
        ColumnData::Bool(d) => {
            let table = || vec![u32::MAX; 3];
            group_single(par, op, sel, table, move |r| {
                if is_null(r) {
                    2
                } else {
                    usize::from(d[r])
                }
            })
        }
        ColumnData::AllNull => group_single(par, op, sel, || vec![u32::MAX], |_| 0),
        ColumnData::Values(_) => return None,
    })
}

/// A per-morsel group table for one key kind: the group-id slot of a
/// key, `u32::MAX` until the key's first row claims it. Small dense key
/// spaces (dictionary codes, booleans, each plus NULL) index a LUT;
/// open ones hash, with NULL (`None`) in a slot of its own.
trait GroupSlots<K> {
    fn slot(&mut self, key: K) -> &mut u32;
}

impl GroupSlots<usize> for Vec<u32> {
    #[inline]
    fn slot(&mut self, key: usize) -> &mut u32 {
        &mut self[key]
    }
}

impl<K: Hash + Eq> GroupSlots<Option<K>> for (HashMap<K, u32, FxBuild>, u32) {
    #[inline]
    fn slot(&mut self, key: Option<K>) -> &mut u32 {
        match key {
            None => &mut self.1,
            Some(k) => self.0.entry(k).or_insert(u32::MAX),
        }
    }
}

/// Single-key group assignment. Each morsel groups its rows of `sel` in
/// first-seen order; the local tables merge **in morsel order**, so the
/// first morsel to see a key wins its global slot and global ids and
/// representatives follow the one-morsel first-seen row order exactly.
/// A single morsel's ids are already global and move into place.
fn group_single<K: Copy + Send, T: GroupSlots<K>>(
    par: ParConfig,
    op: Option<&OpStats>,
    sel: &[u32],
    table: impl Fn() -> T + Sync,
    key: impl Fn(usize) -> K + Sync,
) -> (Vec<u32>, Vec<u32>) {
    let n = sel.len();
    let mut parts = par.run(n, op, |lo, hi| {
        let mut slots = table();
        let mut gids = Vec::with_capacity(hi - lo);
        let mut keys = Vec::new();
        let mut firsts: Vec<u32> = Vec::new();
        for (i, &r) in sel[lo..hi].iter().enumerate() {
            let k = key(r as usize);
            let slot = slots.slot(k);
            if *slot == u32::MAX {
                *slot = firsts.len() as u32;
                keys.push(k);
                firsts.push((lo + i) as u32);
            }
            gids.push(*slot);
        }
        (gids, keys, firsts)
    });
    if parts.len() == 1 {
        let (gids, _, reps) = parts.pop().expect("one morsel");
        return (gids, reps);
    }
    let mut slots = table();
    let mut reps: Vec<u32> = Vec::new();
    let mut gids = Vec::with_capacity(n);
    for (local, keys, firsts) in parts {
        let global: Vec<u32> = keys
            .into_iter()
            .zip(firsts)
            .map(|(k, first)| {
                let slot = slots.slot(k);
                if *slot == u32::MAX {
                    *slot = reps.len() as u32;
                    reps.push(first);
                }
                *slot
            })
            .collect();
        gids.extend(local.iter().map(|&g| global[g as usize]));
    }
    (gids, reps)
}

/// Multi-column group assignment, always one morsel: hashed
/// `Vec<Value>` keys under the canonical relation, same as the row path.
fn group_ids_multi(view: &View<'_>, keys: &[ColId]) -> Option<(Vec<u32>, Vec<u32>)> {
    let n = view.len;
    let key_cols: Vec<Vec<Value>> = keys
        .iter()
        .map(|id| {
            let col = view.col(*id);
            if matches!(col.data, ColumnData::Values(_)) {
                return None;
            }
            Some((0..n).map(|i| col.value_at(view.rid(*id, i))).collect())
        })
        .collect::<Option<_>>()?;
    let mut index = KeyIndex::default();
    let mut group_keys: Vec<Vec<Value>> = Vec::new();
    let mut gids = Vec::with_capacity(n);
    let mut reps: Vec<u32> = Vec::new();
    for i in 0..n {
        let buf: Vec<Value> = key_cols.iter().map(|c| c[i].clone()).collect();
        let h = key::hash_values(&buf);
        let gid = match index.insert(h, group_keys.len() as u32, |t| {
            key::values_key_eq(&group_keys[t as usize], &buf)
        }) {
            Some(existing) => existing,
            None => {
                group_keys.push(buf);
                reps.push(i as u32);
                (group_keys.len() - 1) as u32
            }
        };
        gids.push(gid);
    }
    Some((gids, reps))
}

/// Whether an aggregate's per-morsel partials merge into exactly the
/// one-morsel result: counts add, min/max fold associatively (with the
/// same NaN bail set — a NaN shares a comparison with another value iff
/// its group holds two or more values, regardless of partitioning), and
/// int sums carry 128-bit prefix extremes ([`SumRun`]) so the merged
/// bail decision equals the row path's running `checked_add`. Float
/// sums, averages and generic aggregates are order-sensitive.
fn agg_mergeable(agg: &AggK) -> bool {
    matches!(
        agg,
        AggK::CountStar
            | AggK::CountAny(_)
            | AggK::SumInt(_)
            | AggK::MinMaxInt(..)
            | AggK::MinMaxFloat(..)
    )
}

/// A running integer sum over a row sequence: its total plus the
/// maximum and minimum **prefix sum** reached (128-bit, overflow-free
/// for any feasible row count). Appending run `b` to run `a` shifts
/// `b`'s prefix extremes by `a`'s total, so a merged run's extremes are
/// those of the concatenated rows — and the row path's running
/// `checked_add` errors iff some prefix leaves the i64 range, which is
/// exactly [`SumRun::finish`]'s check.
#[derive(Clone, Copy)]
struct SumRun {
    total: i128,
    maxp: i128,
    minp: i128,
}

impl SumRun {
    /// The run over no values; `maxp == i128::MIN` marks it.
    const EMPTY: SumRun = SumRun {
        total: 0,
        maxp: i128::MIN,
        minp: i128::MAX,
    };

    #[inline]
    fn push(&mut self, v: i64) {
        self.total += v as i128;
        self.maxp = self.maxp.max(self.total);
        self.minp = self.minp.min(self.total);
    }

    /// Append a later run of the same group.
    fn append(&mut self, next: SumRun) {
        if next.maxp != i128::MIN {
            self.maxp = self.maxp.max(self.total + next.maxp);
            self.minp = self.minp.min(self.total + next.minp);
            self.total += next.total;
        }
    }

    /// The row path's SUM: NULL over no values, `None` (bail) where its
    /// running sum overflowed.
    fn finish(self) -> Option<Value> {
        if self.maxp == i128::MIN {
            Some(Value::Null)
        } else if self.maxp > i64::MAX as i128 || self.minp < i64::MIN as i128 {
            None
        } else {
            Some(Value::Int(self.total as i64))
        }
    }
}

/// A morsel's non-null `(group, value)` rows, in row order.
#[inline]
fn non_null<'a, T: Copy>(
    data: &'a [T],
    nulls: &'a [bool],
    gids: &'a [u32],
) -> impl Iterator<Item = (usize, T)> + 'a {
    (0..data.len())
        .filter(|&i| !nulls[i])
        .map(|i| (gids[i] as usize, data[i]))
}

/// Per-group [`SumRun`]s over one morsel's rows, kept in i64 (total,
/// max prefix, min prefix; min > max marks no values) while every
/// running sum fits, else retraced in i128.
fn sum_runs(data: &[i64], nulls: &[bool], gids: &[u32], n_groups: usize) -> Vec<SumRun> {
    let mut narrow = vec![(0i64, i64::MIN, i64::MAX); n_groups];
    let mut fits = true;
    for (g, v) in non_null(data, nulls, gids) {
        let (total, maxp, minp) = &mut narrow[g];
        let Some(t) = total.checked_add(v) else {
            fits = false;
            break;
        };
        *total = t;
        *maxp = (*maxp).max(t);
        *minp = (*minp).min(t);
    }
    if fits {
        let widen = |(total, maxp, minp): (i64, i64, i64)| match minp > maxp {
            true => SumRun::EMPTY,
            false => SumRun {
                total: total.into(),
                maxp: maxp.into(),
                minp: minp.into(),
            },
        };
        return narrow.into_iter().map(widen).collect();
    }
    let mut runs = vec![SumRun::EMPTY; n_groups];
    for (g, v) in non_null(data, nulls, gids) {
        runs[g].push(v);
    }
    runs
}

/// Per-group MIN (`max == false`) or MAX over one morsel's rows, folded
/// into `best`. NaN cannot be ordered: the row path errors ("MIN/MAX
/// over mixed types"), so a NaN meeting another value bails; a group
/// whose sole value is NaN never compares.
fn fold_best<T: Copy + PartialOrd>(
    best: &mut [Option<T>],
    rows: impl Iterator<Item = (usize, T)>,
    max: bool,
) -> Option<()> {
    for (g, v) in rows {
        let slot = &mut best[g];
        let take = match *slot {
            None => true,
            Some(b) => match v.partial_cmp(&b)? {
                Ordering::Less => !max,
                Ordering::Greater => max,
                Ordering::Equal => false,
            },
        };
        if take {
            *slot = Some(v);
        }
    }
    Some(())
}

/// One aggregate's per-group partial state over a morsel.
enum AggPart {
    Counts(Vec<i64>),
    SumInt(Vec<SumRun>),
    BestInt(Vec<Option<i64>>, bool),
    BestFloat(Vec<Option<f64>>, bool),
    /// An order-sensitive aggregate, finished inside its one morsel.
    Done(Vec<Value>),
}

impl AggPart {
    /// Fold the next morsel's partial of the same aggregate into this
    /// one. `None` = bail.
    fn merge(&mut self, next: AggPart) -> Option<()> {
        match (self, next) {
            (AggPart::Counts(acc), AggPart::Counts(local)) => {
                for (c, l) in acc.iter_mut().zip(local) {
                    *c += l;
                }
            }
            (AggPart::SumInt(acc), AggPart::SumInt(local)) => {
                for (run, next) in acc.iter_mut().zip(local) {
                    run.append(next);
                }
            }
            (AggPart::BestInt(acc, max), AggPart::BestInt(local, _)) => {
                let rows = local.into_iter().enumerate();
                fold_best(acc, rows.filter_map(|(g, v)| Some((g, v?))), *max)?;
            }
            (AggPart::BestFloat(acc, max), AggPart::BestFloat(local, _)) => {
                let rows = local.into_iter().enumerate();
                fold_best(acc, rows.filter_map(|(g, v)| Some((g, v?))), *max)?;
            }
            _ => unreachable!("order-sensitive aggregates run as one morsel"),
        }
        Some(())
    }

    /// One value per group, exactly as the row path finishes the
    /// aggregate. `None` = bail (an int sum whose running total left i64).
    fn finish(self) -> Option<Vec<Value>> {
        Some(match self {
            AggPart::Counts(counts) => counts.into_iter().map(Value::Int).collect(),
            AggPart::SumInt(runs) => runs
                .into_iter()
                .map(SumRun::finish)
                .collect::<Option<_>>()?,
            AggPart::BestInt(best, _) => best
                .into_iter()
                .map(|b| b.map_or(Value::Null, Value::Int))
                .collect(),
            AggPart::BestFloat(best, _) => best
                .into_iter()
                .map(|b| b.map_or(Value::Null, Value::Float))
                .collect(),
            AggPart::Done(values) => values,
        })
    }
}

/// Run every registered aggregate over the grouped batch: each morsel
/// accumulates per-group partials (group ids are global), which fold
/// into the first morsel's in morsel order. Unless every aggregate is
/// [`agg_mergeable`], the batch runs as one morsel.
fn accumulate(
    aggs: &[AggK],
    view: &View<'_>,
    gids: &[u32],
    n_groups: usize,
    par: ParConfig,
    op: Option<&OpStats>,
) -> Option<Vec<Vec<Value>>> {
    let par = if aggs.iter().all(agg_mergeable) {
        par
    } else {
        par.one_morsel()
    };
    let parts: Vec<Vec<AggPart>> = par
        .run(view.len, op, |lo, hi| {
            let sub = view.slice(lo, hi);
            aggs.iter()
                .map(|agg| accumulate_part(agg, &sub, &gids[lo..hi], n_groups))
                .collect::<Option<Vec<AggPart>>>()
        })
        .into_iter()
        .collect::<Option<_>>()?;
    let mut parts = parts.into_iter();
    let mut merged = parts.next().expect("at least one morsel");
    for part in parts {
        for (acc, local) in merged.iter_mut().zip(part) {
            acc.merge(local)?;
        }
    }
    merged.into_iter().map(AggPart::finish).collect()
}

/// One aggregate over one morsel: `view` holds the morsel's rows and
/// `gids` their group ids.
fn accumulate_part(agg: &AggK, view: &View<'_>, gids: &[u32], n_groups: usize) -> Option<AggPart> {
    Some(match agg {
        AggK::CountStar => {
            let mut counts = vec![0i64; n_groups];
            for &g in gids {
                counts[g as usize] += 1;
            }
            AggPart::Counts(counts)
        }
        AggK::CountAny(k) => {
            let nulls = k.nulls(view)?;
            let mut counts = vec![0i64; n_groups];
            for (&g, null) in gids.iter().zip(nulls) {
                if !null {
                    counts[g as usize] += 1;
                }
            }
            AggPart::Counts(counts)
        }
        AggK::SumInt(k) => {
            let NumOut::Int(data, nulls) = k.eval(view)? else {
                return None;
            };
            AggPart::SumInt(sum_runs(&data, &nulls, gids, n_groups))
        }
        AggK::SumFloat(k) | AggK::AvgNum(k) => {
            let mut acc = vec![0.0f64; n_groups];
            let mut cnt = vec![0usize; n_groups];
            if let Some((d, sel, nulls)) = float_col_direct(k, view) {
                // Bare-column lane: accumulate straight off the column
                // data, skipping the NumOut gather (or, on an identity
                // selection, whole-column clone).
                let any_null = nulls.any();
                for (i, &r) in sel.iter().enumerate() {
                    let r = r as usize;
                    if any_null && nulls.is_null(r) {
                        continue;
                    }
                    let g = gids[i] as usize;
                    acc[g] += d[r];
                    cnt[g] += 1;
                }
            } else {
                let (data, nulls) = match k.eval(view)? {
                    NumOut::AllNull => return None, // statically Generic
                    other => other.into_f64(),
                };
                for (g, v) in non_null(&data, &nulls, gids) {
                    acc[g] += v;
                    cnt[g] += 1;
                }
            }
            let avg = matches!(agg, AggK::AvgNum(_));
            let finish = |(s, c): (f64, usize)| match c {
                0 => Value::Null,
                _ if avg => Value::Float(s / c as f64),
                _ => Value::Float(s),
            };
            AggPart::Done(acc.into_iter().zip(cnt).map(finish).collect())
        }
        AggK::MinMaxInt(k, max) => {
            let NumOut::Int(data, nulls) = k.eval(view)? else {
                return None;
            };
            let mut best = vec![None; n_groups];
            fold_best(&mut best, non_null(&data, &nulls, gids), *max)?;
            AggPart::BestInt(best, *max)
        }
        AggK::MinMaxFloat(k, max) => {
            let NumOut::Float(data, nulls) = k.eval(view)? else {
                return None;
            };
            let mut best = vec![None; n_groups];
            fold_best(&mut best, non_null(&data, &nulls, gids), *max)?;
            AggPart::BestFloat(best, *max)
        }
        AggK::Generic {
            arg,
            func,
            distinct,
        } => {
            let vals = arg.materialize(view, &[])?;
            let mut buckets: Vec<Vec<Value>> = vec![Vec::new(); n_groups];
            for (v, &g) in vals.into_iter().zip(gids) {
                if !v.is_null() {
                    buckets[g as usize].push(v);
                }
            }
            let mut out = Vec::with_capacity(n_groups);
            for mut bucket in buckets {
                if *distinct {
                    key::dedup_values(&mut bucket);
                }
                out.push(crate::exec::finish_aggregate(*func, bucket).ok()?);
            }
            AggPart::Done(out)
        }
    })
}

/// The bare-float-column case of a numeric aggregate argument: the
/// column data, the view's selection for its relation and its null
/// mask, for accumulate lanes that read rows in place instead of
/// materializing a gathered `NumOut`. The gathered batch would hold
/// `d[sel[i]]` with `nulls.is_null(sel[i])` — iterating `sel` directly
/// visits the same values in the same order.
fn float_col_direct<'v>(k: &NumK, view: &View<'v>) -> Option<(&'v [f64], &'v [u32], &'v NullMask)> {
    let NumK::FloatCol(id) = k else {
        return None;
    };
    let col = view.col(*id);
    let ColumnData::Float(d) = &col.data else {
        return None;
    };
    Some((d, view.sel(*id), &col.nulls))
}

/// Evaluate a group-context expression to one value per group,
/// combining at the `Value` level exactly like the row path's grouped
/// evaluator (including its AND/OR truth short-circuit over already
/// computed operands).
fn eval_gk(
    gk: &GK,
    agg_results: &[Vec<Value>],
    scalars: &ScalarGroups<'_, '_>,
    n_groups: usize,
) -> Option<Vec<Value>> {
    Some(match gk {
        GK::Agg(i) => agg_results[*i].clone(),
        GK::Scalar(k) => scalars.eval(k)?,
        GK::Binary { l, op, r } => {
            let lv = eval_gk(l, agg_results, scalars, n_groups)?;
            let rv = eval_gk(r, agg_results, scalars, n_groups)?;
            let mut out = Vec::with_capacity(n_groups);
            for (a, b) in lv.into_iter().zip(rv) {
                out.push(match op {
                    BinaryOp::And | BinaryOp::Or => {
                        let lt = truth_ref(&a).ok()?;
                        match (op, lt) {
                            (BinaryOp::And, Some(false)) => Value::Bool(false),
                            (BinaryOp::Or, Some(true)) => Value::Bool(true),
                            _ => {
                                let rt = truth_ref(&b).ok()?;
                                match combine_logical(*op, lt, rt) {
                                    Some(v) => Value::Bool(v),
                                    None => Value::Null,
                                }
                            }
                        }
                    }
                    op if op.is_arithmetic() => arith(*op, &a, &b).ok()?,
                    op => apply_cmp(*op, &a, &b).ok()?,
                });
            }
            out
        }
        GK::Unary { op, e } => {
            let v = eval_gk(e, agg_results, scalars, n_groups)?;
            let mut out = Vec::with_capacity(n_groups);
            for val in v {
                out.push(apply_unary(*op, val).ok()?);
            }
            out
        }
    })
}

/// Scalar evaluation over group representatives (each group's first
/// row). For the empty implicit group there is no representative and
/// every scalar is NULL.
struct ScalarGroups<'a, 'v> {
    view: &'a View<'v>,
    reps_rowids: Vec<Vec<u32>>,
    empty_implicit: bool,
}

impl ScalarGroups<'_, '_> {
    fn eval(&self, k: &ValK) -> Option<Vec<Value>> {
        if self.empty_implicit {
            return Some(vec![Value::Null]);
        }
        let reps_view = View::all(self.view.tables, &self.reps_rowids);
        k.materialize(&reps_view, &[])
    }
}

fn grouped(cx: &Cx<'_>, input: &BatchInput<'_, '_>, view: &View<'_>) -> Option<Projected> {
    let select = input.select;
    let prof_op = input.bp.as_ref().and_then(|b| b.fixed(FixedOp::Aggregate));
    let prof_t0 = crate::exec::prof_clock(&input.bp);

    // Output columns; a wildcard is an error the row path must report.
    let mut columns = Vec::new();
    for item in &select.projections {
        match item {
            SelectItem::Wildcard => return None,
            other => columns.push(crate::exec::projection_name(other)),
        }
    }

    // Group assignment.
    let (gids, reps, empty_implicit) = if select.group_by.is_empty() {
        // Single implicit group, even over zero rows.
        let reps: Vec<u32> = if view.len == 0 { Vec::new() } else { vec![0] };
        (vec![0u32; view.len], reps, view.len == 0)
    } else {
        let keys: Vec<ColId> = select
            .group_by
            .iter()
            .map(|g| match g {
                Expr::Column(c) => cx.resolve(c),
                _ => None,
            })
            .collect::<Option<_>>()?;
        let (gids, reps) = group_ids(view, &keys, input.par, prof_op)?;
        (gids, reps, false)
    };
    let n_groups = if select.group_by.is_empty() {
        1
    } else {
        reps.len()
    };

    // Compile HAVING / projections / ORDER BY keys, registering
    // aggregate calls.
    let mut aggs: Vec<AggK> = Vec::new();
    let having = match &select.having {
        Some(h) => Some(cx.compile_gk(h, &mut aggs)?),
        None => None,
    };
    let projs: Vec<GK> = select
        .projections
        .iter()
        .map(|item| match item {
            SelectItem::Expr { expr, .. } => cx.compile_gk(expr, &mut aggs),
            SelectItem::Wildcard => None,
        })
        .collect::<Option<_>>()?;
    // Grouped ORDER BY keys have no alias fallback in the row path.
    let order_ks: Vec<GK> = input
        .order_by
        .iter()
        .map(|o| cx.compile_gk(&o.expr, &mut aggs))
        .collect::<Option<_>>()?;

    let agg_results = accumulate(&aggs, view, &gids, n_groups, input.par, prof_op)?;
    let scalars = ScalarGroups {
        view,
        reps_rowids: view
            .rows
            .iter()
            .map(|rows| {
                let rows = rows.expect("joined view has every relation");
                reps.iter().map(|&i| rows[i as usize]).collect()
            })
            .collect(),
        empty_implicit,
    };

    // HAVING: the row path evaluates it for every group (and only
    // evaluates projections for survivors — a subset of what we compute,
    // so extra evaluation can only cause a bail, never new output).
    let keep: Vec<bool> = match &having {
        Some(h) => eval_gk(h, &agg_results, &scalars, n_groups)?
            .into_iter()
            .map(|v| truth_ref(&v).map(|t| t.unwrap_or(false)))
            .collect::<Result<_, _>>()
            .ok()?,
        None => vec![true; n_groups],
    };

    let proj_groups: Vec<Vec<Value>> = projs
        .iter()
        .map(|gk| eval_gk(gk, &agg_results, &scalars, n_groups))
        .collect::<Option<_>>()?;
    let key_groups: Vec<Vec<Value>> = order_ks
        .iter()
        .map(|gk| eval_gk(gk, &agg_results, &scalars, n_groups))
        .collect::<Option<_>>()?;

    let mut out_rows = Vec::new();
    let mut keys = Vec::new();
    for g in 0..n_groups {
        if !keep[g] {
            continue;
        }
        out_rows.push(proj_groups.iter().map(|col| col[g].clone()).collect());
        keys.push(key_groups.iter().map(|col| col[g].clone()).collect());
    }
    if let Some(op) = prof_op {
        op.rows(view.len as u64, out_rows.len() as u64);
        op.groups(n_groups as u64);
        crate::exec::prof_elapsed(prof_t0, Some(op));
    }
    Some((columns, out_rows, keys))
}
