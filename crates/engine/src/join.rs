//! The join layer of both executors: joins over row ids.
//!
//! Every FROM relation is a column image ([`ColumnarTable`]): a base
//! table's own, or a derived table's result built into one. A scan
//! yields a selection vector of row ids, and a join combines them into
//! [`Tuples`], one row-id column per joined relation; values are read
//! only after the last join. The batch engine ([`crate::batch`]) and the
//! row executor ([`crate::exec`]) run every join through [`join_steps`]
//! and share everything here:
//!
//! - **The join key** ([`col_join_key`]): SQL equality, so the hash path
//!   matches exactly the row pairs the predicate `a = b` accepts.
//! - **The equi-key rule** ([`constraint_columns`], [`equi_key`]): which
//!   written `ON` constraints hash-join. Planning applies it once per
//!   join and the plan's steps carry the keys ([`join_steps`]).
//! - **Hash build and probe** ([`Tuples::hash_join`]): the build side is
//!   always the incoming relation, so matches emit in build-scan order
//!   within each probe row — the nested loop's order.
//! - **LEFT OUTER emission**: an unmatched row pairs with [`NULL_RID`].
//! - **The nested loop** ([`Tuples::nested_loop`]) over row-id pairs,
//!   testing each with the compiled constraint. Its error is the
//!   constraint's: the row executor raises it, the batch engine bails.
//! - **Restoring source order** after a planner reorder
//!   ([`Tuples::into_source_order`]).
//!
//! Each join step records its rows, build and probe sizes and the
//! relations it linked in its profile slot; a hash join also marks the
//! slot.

use crate::batch::{concat, ParConfig};
use crate::column::{Column, ColumnData, ColumnarTable, NullMask};
use crate::compile::compile;
use crate::error::Result;
use crate::eval::{EvalContext, Scope};
use crate::inset::{float_key, NumKey};
use crate::key::FxBuild;
use crate::value::Value;
use sb_obs::OpStats;
use sb_opt::{EdgeKey, PlannedSelect};
use sb_sql::{BinaryOp, Expr, Join};
use std::collections::HashMap;
use std::hash::Hash;
use std::time::Instant;

/// The row id an unmatched LEFT JOIN row carries for the relation the
/// join introduced: every column of that relation reads NULL there. No
/// image reaches `u32::MAX` rows.
pub(crate) const NULL_RID: u32 = u32::MAX;

/// A resolved column: relation index (FROM/JOIN order) and column index
/// in the relation's image.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) struct ColId {
    pub(crate) rel: usize,
    pub(crate) col: usize,
}

// ---------------------------------------------------------------------
// The join key.
// ---------------------------------------------------------------------

/// Join hash key under *SQL equality* (`sql_eq`), not canonical-key
/// rounding: numbers key as `IN` membership does ([`NumKey`]: a float
/// equal to some i64 keys as that integer, so `-0.0 = 0.0` matches, and
/// any other float keys by its own bits).
#[derive(PartialEq, Eq, Hash)]
pub(crate) enum JKey<'a> {
    Num(NumKey),
    Text(&'a str),
    Bool(bool),
}

/// The key of row `rid` of `col`; `None` when the cell can never satisfy
/// an equality (NULL, or NaN, which is not `sql_eq`-equal even to
/// itself).
pub(crate) fn col_join_key(col: &Column, rid: usize) -> Option<JKey<'_>> {
    if col.nulls.is_null(rid) {
        return None;
    }
    match &col.data {
        ColumnData::Int(d) => Some(JKey::Num(NumKey::Int(d[rid]))),
        ColumnData::Float(d) => float_key(d[rid]).map(JKey::Num),
        ColumnData::Bool(d) => Some(JKey::Bool(d[rid])),
        ColumnData::Text(d) => Some(JKey::Text(&d.values[d.codes[rid] as usize])),
        ColumnData::AllNull => None,
        ColumnData::Values(v) => match &v[rid] {
            Value::Null => None,
            Value::Int(i) => Some(JKey::Num(NumKey::Int(*i))),
            Value::Float(f) => float_key(*f).map(JKey::Num),
            Value::Text(s) => Some(JKey::Text(s)),
            Value::Bool(b) => Some(JKey::Bool(*b)),
        },
    }
}

// ---------------------------------------------------------------------
// The source-order equi-key rule.
// ---------------------------------------------------------------------

/// Resolve every column reference of a join constraint against `scope`
/// — the relations joined so far, then the one the join introduces —
/// without evaluating anything, and return their positions in reference
/// order. Hash joins and emptied scans leave the constraint unevaluated
/// for some (or all) row pairs, so whether an unknown-column or
/// ambiguity error surfaces must not depend on row counts or on the join
/// algorithm. Subquery bodies resolve against their own scopes when they
/// run and are skipped.
pub(crate) fn constraint_columns(constraint: &Expr, scope: &Scope) -> Result<Vec<usize>> {
    let mut refs = Vec::new();
    sb_opt::collect_columns(constraint, &mut refs);
    refs.into_iter().map(|c| scope.resolve(c)).collect()
}

/// The hash key of a source-order join: its constraint is `a = b` over
/// two columns, one resolving among the relations joined so far (the
/// probe side) and the other on the incoming (last) relation of `scope`
/// (the build side). `cols` are the constraint's resolved positions
/// ([`constraint_columns`]).
///
/// Resolution is the nested-loop evaluator's own, so a bare column
/// counts only where the name is unique across both sides; a name on
/// both sides is ambiguous and [`constraint_columns`] raises it.
pub(crate) fn equi_key(constraint: &Expr, cols: &[usize], scope: &Scope) -> Option<EdgeKey> {
    let Expr::Binary {
        left,
        op: BinaryOp::Eq,
        right,
    } = constraint
    else {
        return None;
    };
    let (Expr::Column(_), Expr::Column(_), &[a, b]) = (left.as_ref(), right.as_ref(), cols) else {
        return None;
    };
    let (a, b) = (scope.locate(a), scope.locate(b));
    let incoming = scope.bindings.len() - 1;
    let (probe, build) = match (a.rel == incoming, b.rel == incoming) {
        (false, true) => (a, b),
        (true, false) => (b, a),
        _ => return None,
    };
    Some(EdgeKey {
        left_rel: probe.rel,
        left_col: probe.col,
        right_col: build.col,
    })
}

// ---------------------------------------------------------------------
// Joined tuples.
// ---------------------------------------------------------------------

/// One join step: the relation it introduces, that relation's scanned
/// rows, whether a LEFT JOIN introduced it, and the step's profile slot.
type Step<'a> = (usize, &'a [u32], bool, Option<&'a OpStats>);

/// Joined row-id tuples: `cols[k]` holds the row ids of relation
/// `rels[k]`, in join order. `outer[k]` marks a relation a LEFT JOIN
/// introduced, whose column may hold [`NULL_RID`].
struct Tuples {
    rels: Vec<usize>,
    cols: Vec<Vec<u32>>,
    outer: Vec<bool>,
}

impl Tuples {
    /// The scanned rows `sel` of relation `rel`, before any join.
    fn new(rel: usize, sel: Vec<u32>) -> Tuples {
        Tuples {
            rels: vec![rel],
            cols: vec![sel],
            outer: vec![false],
        }
    }

    fn len(&self) -> usize {
        self.cols[0].len()
    }

    /// The tuples `cols` that extend these by relation `rel`, the join
    /// step that made them recorded in its profile slot: `rows_in` input
    /// rows, the time since `t0`, and the relations it linked (step 0's
    /// left input is the relation scanned first).
    fn extend(
        mut self,
        rel: usize,
        outer: bool,
        cols: Vec<Vec<u32>>,
        rows_in: usize,
        op: Option<&OpStats>,
        t0: Option<Instant>,
    ) -> Tuples {
        if let (Some(op), Some(t0)) = (op, t0) {
            op.rows(rows_in as u64, cols[0].len() as u64);
            op.link((self.rels.len() == 1).then_some(self.rels[0]), rel);
            op.elapsed(t0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        }
        self.rels.push(rel);
        self.outer.push(outer);
        self.cols = cols;
        self
    }

    /// Hash-join relation `rel`, whose scan kept `build_sel`, on `key`:
    /// build on those rows, then probe with every tuple in order,
    /// appending its matches in build-scan order. Under `outer` (LEFT
    /// JOIN) a tuple without a match pairs with [`NULL_RID`].
    fn hash_join(
        self,
        tables: &[&ColumnarTable],
        (rel, build_sel, outer, op): Step<'_>,
        key: EdgeKey,
        par: ParConfig,
    ) -> Tuples {
        let t0 = op.map(|_| Instant::now());
        let build_col = &tables[rel].columns[key.right_col];
        let probe_col = &tables[key.left_rel].columns[key.left_col];
        let pos = self
            .rels
            .iter()
            .position(|&r| r == key.left_rel)
            .expect("the probe relation joins before the step");
        let acc_len = self.len();
        let cols = if let (ColumnData::Int(bd), ColumnData::Int(pd)) =
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
                self.probe(pos, outer, par, op, probe_key, dense.lookup())
            } else {
                let index = build_index(par, build_sel, build_key, op);
                let index = &index;
                self.probe(pos, outer, par, op, probe_key, move |k: i64| {
                    index.get(&k).map_or(&[][..], Vec::as_slice)
                })
            }
        } else {
            let index = build_index(par, build_sel, |rid| col_join_key(build_col, rid), op);
            let index = &index;
            self.probe(
                pos,
                outer,
                par,
                op,
                move |rid| col_join_key(probe_col, rid),
                move |k| index.get(&k).map_or(&[][..], Vec::as_slice),
            )
        };
        if let Some(op) = op {
            op.build_probe(build_sel.len() as u64, acc_len as u64);
            op.mark();
        }
        self.extend(rel, outer, cols, acc_len + build_sel.len(), op, t0)
    }

    /// Join relation `rel`, whose scan kept `sel`, as a nested loop over
    /// every (tuple, row id) pair, tuples in order and row ids in scan
    /// order, keeping the pairs the constraint of `join` holds for
    /// (every pair without one). The constraint resolves against the
    /// relations of `scope` joined so far and the incoming one before any
    /// pair is tested, and each pair fills one reused buffer with the
    /// columns it reads, [`NULL_RID`] reading NULL; the first error it
    /// raises ends the join. Under `outer` (LEFT JOIN) a tuple no row
    /// matched pairs with [`NULL_RID`].
    fn nested_loop(
        self,
        tables: &[&ColumnarTable],
        (rel, sel, outer, op): Step<'_>,
        join: &Join,
        scope: &Scope,
        ctx: &EvalContext,
    ) -> Result<Tuples> {
        let t0 = op.map(|_| Instant::now());
        let scope = scope.prefix(rel + 1);
        let constraint = join.constraint.as_ref();
        let reads = constraint.map(|c| constraint_columns(c, &scope));
        let reads = reads.transpose()?.unwrap_or_default();
        let prog = constraint.map(|c| compile(c, &scope, ctx));
        let keep = |buf: &[Value]| prog.as_ref().map_or(Ok(true), |p| p.eval_filter(buf, ctx));
        let mut buf = vec![Value::Null; scope.width];
        let mut cols: Vec<Vec<u32>> = vec![Vec::new(); self.cols.len() + 1];
        for i in 0..self.len() {
            let mut matched = false;
            for &rid in sel {
                for &slot in &reads {
                    // Only source-order plans have keyless steps, so
                    // tuple position k holds relation k, and the
                    // incoming relation `rel` has no position yet.
                    let at = scope.locate(slot);
                    let rid = self.cols.get(at.rel).map_or(rid, |col| col[i]);
                    buf[slot] = match rid {
                        NULL_RID => Value::Null,
                        rid => tables[at.rel].columns[at.col].value_at(rid as usize),
                    };
                }
                if keep(&buf)? {
                    push_tuple(&mut cols, &self.cols, i, rid);
                    matched = true;
                }
            }
            if outer && !matched {
                push_tuple(&mut cols, &self.cols, i, NULL_RID);
            }
        }
        let rows_in = self.len() + sel.len();
        Ok(self.extend(rel, outer, cols, rows_in, op, t0))
    }

    /// Probe the tuples' relation position `pos` with `key` (a row id's
    /// key) and `lookup` (a key's build-side row ids). The sentinel check
    /// is chosen once per step, and only a probe relation a LEFT JOIN
    /// introduced pays it: its row ids may be [`NULL_RID`], which never
    /// matches.
    fn probe<'i, K>(
        &self,
        pos: usize,
        outer: bool,
        par: ParConfig,
        op: Option<&OpStats>,
        key: impl Fn(usize) -> Option<K> + Copy + Sync,
        lookup: impl Fn(K) -> &'i [u32] + Copy + Sync,
    ) -> Vec<Vec<u32>> {
        let matches = move |rid| key(rid).map_or(&[][..], lookup);
        if self.outer[pos] {
            let sentinel = move |rid| {
                if rid == NULL_RID as usize {
                    &[][..]
                } else {
                    matches(rid)
                }
            };
            self.emit(pos, outer, par, op, sentinel)
        } else {
            self.emit(pos, outer, par, op, matches)
        }
    }

    /// Each morsel emits its range of the tuples once per build match
    /// (`matches` of the probe-side row id), and the outputs concatenate
    /// in morsel order — the one-morsel emission order.
    fn emit<'i>(
        &self,
        pos: usize,
        outer: bool,
        par: ParConfig,
        op: Option<&OpStats>,
        matches: impl Fn(usize) -> &'i [u32] + Copy + Sync,
    ) -> Vec<Vec<u32>> {
        let acc = &self.cols;
        let mut parts = par.run(self.len(), op, |lo, hi| {
            let mut out: Vec<Vec<u32>> = vec![Vec::new(); acc.len() + 1];
            for i in lo..hi {
                let rids = matches(acc[pos][i] as usize);
                for &rid in rids {
                    push_tuple(&mut out, acc, i, rid);
                }
                if outer && rids.is_empty() {
                    push_tuple(&mut out, acc, i, NULL_RID);
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

    /// One row-id column per relation, in FROM/JOIN order. A reordered
    /// join's tuples are sorted back into the order the source-order
    /// pipeline emits: that pipeline's output is ordered by the scan
    /// positions of its relations' rows taken in source order, and
    /// selection vectors are ascending, so sorting by the row-id tuple
    /// in source-relation order reproduces it. Surviving tuples are
    /// unique, so an unstable sort is exact.
    fn into_source_order(self, reordered: bool) -> Vec<Vec<u32>> {
        let mut by_rel: Vec<Vec<u32>> = vec![Vec::new(); self.rels.len()];
        for (rel, col) in self.rels.into_iter().zip(self.cols) {
            by_rel[rel] = col;
        }
        if reordered {
            let mut idx: Vec<usize> = (0..by_rel[0].len()).collect();
            idx.sort_unstable_by(|&x, &y| {
                by_rel
                    .iter()
                    .map(|col| col[x].cmp(&col[y]))
                    .find(|o| o.is_ne())
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            for col in &mut by_rel {
                *col = idx.iter().map(|&i| col[i]).collect();
            }
        }
        by_rel
    }
}

/// Run the plan's join steps over the scanned selections `sels` (one
/// per relation, FROM/JOIN order), in the plan's order: a step with a
/// key hash-joins on it, one without runs as a nested loop. Returns
/// one row-id column per relation in FROM/JOIN order, in source-order
/// output; an unmatched LEFT JOIN row holds [`NULL_RID`] for the
/// relation the join introduced. Step `si` records into `bp`'s join slot
/// `si`. The only error is one a nested loop's constraint raises.
#[allow(clippy::too_many_arguments)]
pub(crate) fn join_steps(
    tables: &[&ColumnarTable],
    mut sels: Vec<Vec<u32>>,
    planned: &PlannedSelect,
    joins: &[Join],
    scope: &Scope,
    ctx: &EvalContext,
    par: ParConfig,
    bp: Option<&sb_obs::Block<'_>>,
) -> Result<Vec<Vec<u32>>> {
    let first = planned.order[0];
    let mut tuples = Tuples::new(first, std::mem::take(&mut sels[first]));
    for (si, step) in planned.steps.iter().enumerate() {
        let (rel, sel, op) = (step.rel, &sels[step.rel][..], bp.and_then(|b| b.join(si)));
        // A reordered plan can join the FROM relation late; its joins
        // are all inner.
        let outer = rel.checked_sub(1).is_some_and(|j| joins[j].left);
        let at = (rel, sel, outer, op);
        tuples = match step.key {
            Some(key) => tuples.hash_join(tables, at, key, par),
            None => tuples.nested_loop(tables, at, &joins[rel - 1], scope, ctx)?,
        };
    }
    Ok(tuples.into_source_order(planned.reordered))
}

/// Append tuple `i` of `acc` and row id `rid` to `out`.
#[inline]
fn push_tuple(out: &mut [Vec<u32>], acc: &[Vec<u32>], i: usize, rid: u32) {
    for (o, col) in out.iter_mut().zip(acc) {
        o.push(col[i]);
    }
    out[acc.len()].push(rid);
}

// ---------------------------------------------------------------------
// Hash build and probe.
// ---------------------------------------------------------------------

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
