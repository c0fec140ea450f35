//! EXPLAIN: render the planner's decisions for a statement as an
//! operator tree, without executing the outer query.
//!
//! The tree is built from the exact [`sb_opt::PlannedSelect`] the
//! executor would consume under the same [`ExecOptions`]: each SELECT
//! is planned through the executor's own `plan_input`, so the text is a
//! faithful record of pushdown, pruning, join algorithm and join order.
//! Derived tables' subplans nest under the `DerivedScan` operator that
//! consumes them.
//!
//! Planning needs a derived relation's column names and row count,
//! never its rows, and EXPLAIN runs each derived table at most once.
//! The names come from the executors' own naming rule
//! (`output_columns`). The row count comes from a recorded profile: the
//! scan slot of the enclosing SELECT's block. EXPLAIN ANALYZE
//! ([`explain_with_profile`]) reads the profile the statement ran with,
//! so it executes nothing. Plain [`explain`] has no profile: it executes
//! each derived table of the top-level SELECT once, with a fresh
//! profile, and reads every derived table nested inside from that
//! profile. A recorded profile without the slot (the statement failed
//! before that scan, or ran out of profile slots) falls back to the
//! same single execution.
//!
//! EXPLAIN and EXPLAIN ANALYZE share one walk over the statement. The
//! walk consumes one profile block per SELECT, in the order the
//! executor reserved them; the analyzed walk also annotates each
//! operator with its block's statistics.

use crate::database::Database;
use crate::error::Result;
use crate::exec::{
    derived_alias, execute_with_profile, output_columns, plan_input, rel_meta, resolve_relation,
    ExecOptions, ScopeResolver,
};
use sb_obs::{BlockSnapshot, OpSnapshot, ProfileSnapshot, QueryProfile};
use sb_opt::{PlanAnnotator, PlanNode};
use sb_sql::{OrderItem, Query, Select, SetExpr, SetOp, TableFactor};

/// Render the execution plan for `query` under `opts` as indented text.
pub fn explain(db: &Database, query: &Query, opts: ExecOptions) -> Result<String> {
    let plan = plan_set_expr(db, &query.body, &query.order_by, query.limit, opts, None)?;
    Ok(sb_opt::render(&plan.node))
}

/// EXPLAIN ANALYZE: execute `query` with a fresh [`QueryProfile`] and
/// render the plan annotated with the recorded operator statistics.
///
/// With `include_timings = false` the rendering is deterministic for a
/// fixed database and options at any worker count: wall-clock times and
/// steal counts (scheduling noise) are omitted, while row counts,
/// selectivities, build/probe sizes and morsel counts — all pure
/// functions of the workload — are kept. The plan-analyzed goldens pin
/// this mode.
pub fn explain_analyze(
    db: &Database,
    query: &Query,
    opts: ExecOptions,
    include_timings: bool,
) -> Result<String> {
    let prof = QueryProfile::new();
    execute_with_profile(db, query, opts, Some(&prof))?;
    explain_with_profile(db, query, opts, &prof, include_timings)
}

/// Render the plan for `query` annotated with an already-recorded
/// profile. Derived tables' row counts come from the profile too, so a
/// profile of a successful run (within the slot cap) executes nothing.
/// `sb-serve` uses this to attach analyzed plans to slow-query log
/// entries from the profile the request already paid for.
pub fn explain_with_profile(
    db: &Database,
    query: &Query,
    opts: ExecOptions,
    prof: &QueryProfile,
    include_timings: bool,
) -> Result<String> {
    let snap = prof.snapshot();
    let mut walk = Walk {
        snap: &snap,
        cursor: 0,
        annotate: Some(include_timings),
    };
    let (order_by, limit) = (&query.order_by, query.limit);
    let plan = plan_set_expr(db, &query.body, order_by, limit, opts, Some(&mut walk))?;
    Ok(sb_opt::render(&plan.node))
}

/// A recorded profile an EXPLAIN walk reads: its blocks, the next one to
/// consume, and whether to annotate operators (`Some(include_timings)`)
/// or only read derived row counts.
struct Walk<'s> {
    snap: &'s ProfileSnapshot,
    cursor: usize,
    annotate: Option<bool>,
}

/// A rendered plan and the names of the columns it outputs.
struct Subplan {
    node: PlanNode,
    columns: Vec<String>,
}

/// The walk visits SELECTs in the exact order the executor reserves
/// profile blocks: top-level select first, derived tables in FROM/JOIN
/// order recursively, set-operation leaves left to right.
fn plan_set_expr(
    db: &Database,
    body: &SetExpr,
    order_by: &[OrderItem],
    limit: Option<u64>,
    opts: ExecOptions,
    mut walk: Option<&mut Walk<'_>>,
) -> Result<Subplan> {
    match body {
        SetExpr::Select(select) => plan_select_node(db, select, order_by, limit, opts, walk),
        SetExpr::SetOp {
            op,
            all,
            left,
            right,
        } => {
            let l = plan_set_expr(db, left, &[], None, opts, walk.as_deref_mut())?;
            let r = plan_set_expr(db, right, &[], None, opts, walk)?;
            let name = match op {
                SetOp::Union => "Union",
                SetOp::Intersect => "Intersect",
                SetOp::Except => "Except",
            };
            // The combining operator and its sort/limit run outside any
            // profile block, so their lines are never annotated.
            let mut node = PlanNode {
                label: format!("{name}{}", if *all { " ALL" } else { "" }),
                children: vec![l.node, r.node],
            };
            // Set operations sort and truncate after combining; no
            // top-K fusion on this path (matching the executor).
            if !order_by.is_empty() {
                let keys: Vec<String> = order_by
                    .iter()
                    .map(|o| format!("{}{}", o.expr, if o.desc { " DESC" } else { " ASC" }))
                    .collect();
                node = PlanNode::unary(format!("Sort keys=[{}]", keys.join(", ")), node);
            }
            if let Some(k) = limit {
                node = PlanNode::unary(format!("Limit k={k}"), node);
            }
            // A set operation's output is named by its left operand.
            Ok(Subplan {
                node,
                columns: l.columns,
            })
        }
    }
}

fn plan_select_node(
    db: &Database,
    select: &Select,
    order_by: &[OrderItem],
    limit: Option<u64>,
    opts: ExecOptions,
    mut walk: Option<&mut Walk<'_>>,
) -> Result<Subplan> {
    // This SELECT's block precedes its derived tables' blocks.
    let (block, timings) = match walk.as_deref_mut() {
        Some(w) => {
            w.cursor += 1;
            (w.snap.blocks.get(w.cursor - 1), w.annotate)
        }
        None => (None, None),
    };

    // The relations' planner metadata in FROM/JOIN order, and the
    // subplans of the derived ones.
    let n = 1 + select.joins.len();
    let (mut metas, mut derived) = (Vec::with_capacity(n), Vec::with_capacity(n));
    let factors = std::iter::once(&select.from).chain(select.joins.iter().map(|j| &j.table));
    for (i, tr) in factors.enumerate() {
        let TableFactor::Derived(q) = &tr.factor else {
            let rel = resolve_relation(db, tr, opts, None)?;
            metas.push(rel_meta(&rel.binding, &rel.columns, rel.def, rel.image.len));
            derived.push(None);
            continue;
        };
        let alias = derived_alias(tr)?;
        let recorded = block.and_then(|b| b.scans.get(i).copied().flatten());
        let (sub, rows) = match recorded {
            Some(scan) => {
                let walk = walk.as_deref_mut();
                let sub = plan_set_expr(db, &q.body, &q.order_by, q.limit, opts, walk)?;
                (sub, scan.rows_in as usize)
            }
            None => {
                // Run the derived query once, and read its subplan's
                // derived row counts from the profile of that run.
                let prof = QueryProfile::new();
                let rows = execute_with_profile(db, q, opts, Some(&prof))?.rows.len();
                let snap = prof.snapshot();
                if let Some(w) = walk.as_deref_mut() {
                    w.cursor += snap.blocks.len();
                }
                let mut run = Walk {
                    snap: &snap,
                    cursor: 0,
                    annotate: None,
                };
                let sub = plan_set_expr(db, &q.body, &q.order_by, q.limit, opts, Some(&mut run))?;
                (sub, rows)
            }
        };
        metas.push(rel_meta(&alias, &sub.columns, None, rows));
        derived.push(Some(sub.node));
    }

    let (scope, input) = plan_input(select, order_by, limit, opts, &metas);
    let planned = sb_opt::plan_select(&input, &ScopeResolver(&scope));
    let ann = block
        .zip(timings)
        .map(|(block, timings)| BlockAnnotator { block, timings });
    let ann = ann.as_ref().map(|a| a as &dyn PlanAnnotator);
    Ok(Subplan {
        node: sb_opt::build_plan(&input, &planned, &derived, ann),
        columns: output_columns(&select.projections, &scope),
    })
}

/// [`sb_opt::PlanAnnotator`] over one recorded [`BlockSnapshot`].
struct BlockAnnotator<'s> {
    block: &'s BlockSnapshot,
    timings: bool,
}

impl BlockAnnotator<'_> {
    /// ` (in=A out=B …)` with the optional pieces each operator kind
    /// asks for. Steal counts and wall time appear only under
    /// `timings` — both vary run to run.
    fn fmt(&self, op: &OpSnapshot, sel: bool, extra: &str) -> String {
        let mut s = format!(" (in={} out={}", op.rows_in, op.rows_out);
        if sel {
            if let Some(p) = op.selectivity_pct() {
                s.push_str(&format!(" sel={p}%"));
            }
        }
        s.push_str(extra);
        if op.morsels > 0 {
            s.push_str(&format!(" morsels={}", op.morsels));
            if self.timings {
                s.push_str(&format!(" steals={}", op.steals));
            }
        }
        if self.timings {
            s.push_str(&format!(" time={}us", op.elapsed_ns / 1_000));
        }
        s.push(')');
        s
    }
}

impl sb_opt::PlanAnnotator for BlockAnnotator<'_> {
    fn scan(&self, rel: usize) -> Option<String> {
        let op = self.block.scans.get(rel).copied().flatten()?;
        Some(self.fmt(&op, true, ""))
    }

    fn join(&self, step: usize, _rel: usize) -> Option<String> {
        let op = self.block.joins.get(step).copied().flatten()?;
        let extra = format!(" build={} probe={}", op.build_rows, op.probe_rows);
        Some(self.fmt(&op, false, &extra))
    }

    fn filter(&self) -> Option<String> {
        let op = self.block.filter?;
        Some(self.fmt(&op, true, ""))
    }

    fn aggregate(&self) -> Option<String> {
        let op = self.block.aggregate?;
        let extra = format!(" groups={}", op.build_rows);
        Some(self.fmt(&op, false, &extra))
    }

    fn distinct(&self) -> Option<String> {
        let op = self.block.distinct?;
        Some(self.fmt(&op, true, ""))
    }

    fn order(&self) -> Option<String> {
        let op = self.block.order?;
        Some(self.fmt(&op, false, ""))
    }

    fn root(&self) -> Option<String> {
        let mut s = format!(
            " | actual={}",
            if self.block.columnar {
                "columnar"
            } else {
                "row"
            }
        );
        if let Some(reason) = self.block.fallback {
            s.push_str(&format!(" fallback={reason}"));
        }
        if !self.block.slotted {
            s.push_str(" unslotted");
        }
        Some(s)
    }
}
