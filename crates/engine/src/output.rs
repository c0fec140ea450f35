//! The output stage every `SELECT` pipeline shares: DISTINCT, ORDER BY,
//! LIMIT and the caller's row cap, run on row indices over column-major
//! output.
//!
//! A pipeline (row or batch, plain or grouped, or a set operation's
//! merged rows) hands [`finish_select`] its projected output columns and
//! ORDER BY key columns, each indexed by the pipeline's row number.
//! The stage then works on a list of row indices only:
//!
//! - DISTINCT keeps the first index of each distinct projected tuple
//!   (canonical-key equality, as grouping and set operations use);
//! - ORDER BY sorts the indices by the keys, then by input position,
//!   keeping only the first K in a bounded heap when LIMIT or the row
//!   cap makes K smaller than the candidates;
//! - LIMIT and the row cap cut the index list.
//!
//! Only then is a `Vec<Value>` built per row, and only for the rows the
//! caller gets back. The row count before the cap is returned beside
//! them, so a capped caller (sb-serve) still reports the full count.
//!
//! Output columns that are plain column reads or literals can be
//! [`OutCol::Gather`]ed: read only for the rows that are returned, or
//! for every row when DISTINCT or an ORDER BY alias needs the whole
//! column. Reading one cannot fail, so deferring it changes no error.

use crate::key::{FxHasher, KeyIndex};
use crate::result::ResultSet;
use crate::value::Value;
use sb_obs::{Block, FixedOp};
use sb_sql::OrderItem;
use std::cmp::Ordering;
use std::hash::Hasher;

/// One output column, indexed by the pipeline's row number.
pub(crate) enum OutCol<'v> {
    /// Evaluated for every row.
    Values(Vec<Value>),
    /// A column read or literal, evaluated per row on demand.
    Gather(Box<dyn Fn(usize) -> Value + 'v>),
}

impl OutCol<'_> {
    /// Evaluate a gathered column for all `len` rows.
    fn force(&mut self, len: usize) {
        if let OutCol::Gather(f) = self {
            *self = OutCol::Values((0..len).map(f).collect());
        }
    }

    /// The column's values; it must have been forced.
    fn values(&self) -> &[Value] {
        match self {
            OutCol::Values(v) => v,
            OutCol::Gather(_) => unreachable!("forced before use"),
        }
    }

    /// Row `i`'s value, moved out: every row is taken at most once.
    fn take(&mut self, i: usize) -> Value {
        match self {
            OutCol::Values(v) => std::mem::replace(&mut v[i], Value::Null),
            OutCol::Gather(f) => f(i),
        }
    }
}

/// One ORDER BY key column.
pub(crate) enum SortKey {
    /// Evaluated for every row.
    Values(Vec<Value>),
    /// Output column `i`: the projection-alias fallback, or a set
    /// operation's ORDER BY by output name or ordinal.
    Output(usize),
}

/// A pipeline's output, column-major: what [`finish_select`] orders,
/// cuts and turns into rows.
pub(crate) struct Projected<'v> {
    /// Output column names.
    pub(crate) columns: Vec<String>,
    /// One entry per output column.
    pub(crate) out: Vec<OutCol<'v>>,
    /// One entry per ORDER BY item.
    pub(crate) keys: Vec<SortKey>,
    /// Rows every column and key is indexed by.
    pub(crate) len: usize,
    /// The rows that belong to the result, ascending (groups that
    /// passed HAVING); `None` means all `len` rows.
    pub(crate) rows: Option<Vec<u32>>,
}

impl Projected<'_> {
    /// Row-major rows handed over column by column, each value moved.
    pub(crate) fn from_rows(
        columns: Vec<String>,
        rows: Vec<Vec<Value>>,
        keys: Vec<SortKey>,
    ) -> Projected<'static> {
        let len = rows.len();
        let mut out: Vec<Vec<Value>> = (0..columns.len())
            .map(|_| Vec::with_capacity(len))
            .collect();
        for row in rows {
            for (col, v) in out.iter_mut().zip(row) {
                col.push(v);
            }
        }
        Projected {
            columns,
            out: out.into_iter().map(OutCol::Values).collect(),
            keys,
            len,
            rows: None,
        }
    }

    /// Rows in the result before DISTINCT, LIMIT and the cap.
    pub(crate) fn row_count(&self) -> usize {
        self.rows.as_ref().map_or(self.len, Vec::len)
    }
}

/// DISTINCT, ORDER BY (bounded top-K when LIMIT or `cap` keeps fewer
/// rows than there are), LIMIT, then rows for the first `cap` rows of
/// the result only. Returns those rows and the result's row count
/// before the cap. Profile slots record the uncapped statement, so a
/// cap never changes what EXPLAIN ANALYZE shows.
pub(crate) fn finish_select(
    distinct: bool,
    order_by: &[OrderItem],
    limit: Option<u64>,
    cap: usize,
    projected: Projected<'_>,
    bp: Option<Block<'_>>,
) -> (ResultSet, usize) {
    let Projected {
        columns,
        mut out,
        keys,
        len,
        rows: mut sel,
    } = projected;
    let n = u32::try_from(len).expect("result rows are indexed by u32");
    let candidates = |sel: Option<Vec<u32>>| sel.unwrap_or_else(|| (0..n).collect::<Vec<u32>>());

    if distinct {
        let op = bp.as_ref().and_then(|b| b.fixed(FixedOp::Distinct));
        let t0 = crate::exec::prof_clock(&bp);
        for col in &mut out {
            col.force(len);
        }
        let cols: Vec<&[Value]> = out.iter().map(OutCol::values).collect();
        let cands = candidates(sel.take());
        let mut index = KeyIndex::with_capacity(cands.len());
        let mut kept = Vec::with_capacity(cands.len());
        for &i in &cands {
            let row = i as usize;
            let mut h = FxHasher::default();
            for col in &cols {
                col[row].hash_key(&mut h);
            }
            let new = index
                .insert(h.finish(), i, |t| {
                    cols.iter().all(|c| c[t as usize].key_eq(&c[row]))
                })
                .is_none();
            if new {
                kept.push(i);
            }
        }
        if let Some(op) = op {
            op.rows(cands.len() as u64, kept.len() as u64);
            crate::exec::prof_elapsed(t0, Some(op));
        }
        sel = Some(kept);
    }

    let count = sel.as_ref().map_or(len, Vec::len);
    let total = limit.map_or(count, |n| count.min(n as usize));
    let keep = total.min(cap);
    let order_op = (!order_by.is_empty() || limit.is_some())
        .then(|| bp.as_ref().and_then(|b| b.fixed(FixedOp::Order)))
        .flatten();
    let order_t0 = crate::exec::prof_clock(&bp);

    if !order_by.is_empty() {
        for key in &keys {
            if let SortKey::Output(i) = key {
                out[*i].force(len);
            }
        }
        let key_cols: Vec<&[Value]> = keys
            .iter()
            .map(|k| match k {
                SortKey::Values(v) => v.as_slice(),
                SortKey::Output(i) => out[*i].values(),
            })
            .collect();
        // Total order: ORDER BY keys, then input position — making the
        // bounded top-K heap agree exactly with a stable full sort.
        let cmp = |&a: &u32, &b: &u32| -> Ordering {
            for (item, col) in order_by.iter().zip(&key_cols) {
                let ord = col[a as usize].total_cmp(&col[b as usize]);
                let ord = if item.desc { ord.reverse() } else { ord };
                if !ord.is_eq() {
                    return ord;
                }
            }
            a.cmp(&b)
        };
        let mut order = candidates(sel.take());
        if keep < count {
            if let Some(op) = order_op.filter(|_| limit.is_some_and(|n| n > 0 && total < count)) {
                op.mark();
            }
            order = top_k(&order, keep, cmp);
        } else {
            order.sort_unstable_by(cmp);
        }
        sel = Some(order);
    }
    if let Some(op) = order_op {
        op.rows(count as u64, total as u64);
        crate::exec::prof_elapsed(order_t0, Some(op));
    }

    let rows = (0..keep)
        .map(|j| {
            let i = sel.as_ref().map_or(j, |s| s[j] as usize);
            out.iter_mut().map(|col| col.take(i)).collect()
        })
        .collect();
    let result = ResultSet {
        columns,
        rows,
        ordered: !order_by.is_empty(),
    };
    (result, total)
}

/// The least `k` of `cands` under `cmp` (a strict total order), sorted
/// — identical to sorting all of `cands` and truncating, but via a
/// bounded max-heap: O(n · log k) time and O(k) memory.
fn top_k(cands: &[u32], k: usize, cmp: impl Fn(&u32, &u32) -> Ordering) -> Vec<u32> {
    if k == 0 {
        return Vec::new();
    }
    // `heap[0]` is the worst (greatest) element kept so far.
    let mut heap: Vec<u32> = Vec::with_capacity(k);
    for &i in cands {
        if heap.len() < k {
            heap.push(i);
            let mut c = heap.len() - 1;
            while c > 0 {
                let p = (c - 1) / 2;
                if cmp(&heap[c], &heap[p]) == Ordering::Greater {
                    heap.swap(c, p);
                    c = p;
                } else {
                    break;
                }
            }
        } else if cmp(&i, &heap[0]) == Ordering::Less {
            heap[0] = i;
            let mut p = 0;
            loop {
                let (l, r) = (2 * p + 1, 2 * p + 2);
                let mut m = p;
                if l < heap.len() && cmp(&heap[l], &heap[m]) == Ordering::Greater {
                    m = l;
                }
                if r < heap.len() && cmp(&heap[r], &heap[m]) == Ordering::Greater {
                    m = r;
                }
                if m == p {
                    break;
                }
                heap.swap(p, m);
                p = m;
            }
        }
    }
    heap.sort_unstable_by(|a, b| cmp(a, b));
    heap
}
