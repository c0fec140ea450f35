//! EXPLAIN: render the planner's decisions for a statement as an
//! operator tree, without executing the outer query.
//!
//! The tree is built from the exact [`sb_opt::PlannedSelect`] the
//! executor would consume under the same [`ExecOptions`]: each SELECT
//! is planned through the executor's own `plan_from`, so the text is a
//! faithful record of pushdown, pruning and join order. Derived tables are materialized (they must be, for the
//! planner's row counts to mean anything) and their subplans nest under
//! the `DerivedScan` operator that consumes them.
//!
//! EXPLAIN and EXPLAIN ANALYZE share one walk over the statement. The
//! analyzed walk also carries a recorded profile and consumes one of
//! its blocks per SELECT, in the order the executor reserved them.

use crate::database::Database;
use crate::error::Result;
use crate::exec::{plan_from, ExecOptions};
use sb_obs::{BlockSnapshot, OpSnapshot, ProfileSnapshot, QueryProfile};
use sb_opt::{PlanAnnotator, PlanNode};
use sb_sql::{OrderItem, Query, Select, SetExpr, SetOp, TableFactor};

/// Render the execution plan for `query` under `opts` as indented text.
pub fn explain(db: &Database, query: &Query, opts: ExecOptions) -> Result<String> {
    let node = plan_set_expr(db, &query.body, &query.order_by, query.limit, opts, None)?;
    Ok(sb_opt::render(&node))
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
    crate::exec::execute_with_profile(db, query, opts, Some(&prof))?;
    explain_with_profile(db, query, opts, &prof, include_timings)
}

/// Render the plan for `query` annotated with an already-recorded
/// profile (no re-execution). `sb-serve` uses this to attach analyzed
/// plans to slow-query log entries from the profile the request already
/// paid for.
pub fn explain_with_profile(
    db: &Database,
    query: &Query,
    opts: ExecOptions,
    prof: &QueryProfile,
    include_timings: bool,
) -> Result<String> {
    let snap = prof.snapshot();
    let mut analyzed = Analyzed {
        snap: &snap,
        cursor: 0,
        timings: include_timings,
    };
    let node = plan_set_expr(
        db,
        &query.body,
        &query.order_by,
        query.limit,
        opts,
        Some(&mut analyzed),
    )?;
    Ok(sb_opt::render(&node))
}

/// What an EXPLAIN ANALYZE walk annotates from: the recorded profile,
/// the next of its blocks to consume, and whether to show timings.
struct Analyzed<'s> {
    snap: &'s ProfileSnapshot,
    cursor: usize,
    timings: bool,
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
    mut analyzed: Option<&mut Analyzed<'_>>,
) -> Result<PlanNode> {
    match body {
        SetExpr::Select(select) => plan_select_node(db, select, order_by, limit, opts, analyzed),
        SetExpr::SetOp {
            op,
            all,
            left,
            right,
        } => {
            let l = plan_set_expr(db, left, &[], None, opts, analyzed.as_deref_mut())?;
            let r = plan_set_expr(db, right, &[], None, opts, analyzed)?;
            let name = match op {
                SetOp::Union => "Union",
                SetOp::Intersect => "Intersect",
                SetOp::Except => "Except",
            };
            // The combining operator and its sort/limit run outside any
            // profile block, so their lines are never annotated.
            let mut node = PlanNode {
                label: format!("{name}{}", if *all { " ALL" } else { "" }),
                children: vec![l, r],
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
            Ok(node)
        }
    }
}

fn plan_select_node(
    db: &Database,
    select: &Select,
    order_by: &[OrderItem],
    limit: Option<u64>,
    opts: ExecOptions,
    mut analyzed: Option<&mut Analyzed<'_>>,
) -> Result<PlanNode> {
    // This SELECT's block precedes its derived tables' blocks.
    let ann = analyzed.as_deref_mut().and_then(|a| {
        a.cursor += 1;
        Some(BlockAnnotator {
            block: a.snap.blocks.get(a.cursor - 1)?,
            timings: a.timings,
        })
    });

    let from = plan_from(db, select, order_by, limit, opts, None, None)?;

    // Subplans for derived tables, aligned with the relations.
    let mut derived = Vec::with_capacity(from.relations.len());
    for tr in std::iter::once(&select.from).chain(select.joins.iter().map(|j| &j.table)) {
        derived.push(match &tr.factor {
            TableFactor::Derived(q) => Some(plan_set_expr(
                db,
                &q.body,
                &q.order_by,
                q.limit,
                opts,
                analyzed.as_deref_mut(),
            )?),
            TableFactor::Table(_) => None,
        });
    }

    let input = sb_opt::PlanInput {
        select,
        order_by,
        limit,
        rels: &from.metas,
        opts: opts.opt_options(),
    };
    let ann = ann.as_ref().map(|a| a as &dyn PlanAnnotator);
    Ok(sb_opt::build_plan(&input, &from.planned, &derived, ann))
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
