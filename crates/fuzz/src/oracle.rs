//! Differential oracle: one query, every executor configuration, one
//! reference interpreter.
//!
//! For each generated query the oracle
//!
//! 1. checks the printer/parser round trip (`parse(print(ast)) == ast`),
//! 2. runs the naive reference interpreter to obtain the expected
//!    outcome, and
//! 3. runs the executor under every configuration of [`exec_matrix`]
//!    (row, columnar, columnar + parallel) and demands that every
//!    configuration agrees with the reference, and
//! 4. does the same for the statement's [`nested_loop_twin`], when it
//!    has joins: the planner's join reordering and the hash joins run
//!    on the statement itself, the nested-loop join on its twin, under
//!    every configuration (the batch path runs the same nested loop as
//!    the row path).
//!
//! Agreement is Spider execution-match (`ResultSet::same_result`:
//! multiset of rows, ordered-list comparison when both sides carry an
//! `ORDER BY`). Errors count as agreeing with errors of *any* kind —
//! predicate pushdown and join order legitimately change which of
//! several latent errors surfaces first — but an error never agrees
//! with a result, and a panic in any configuration is always a
//! failure.

use std::panic::{catch_unwind, AssertUnwindSafe};

use sb_engine::{execute_reference, execute_with, Database, EngineError, ExecOptions, ResultSet};
use sb_sql::{AggArg, BinaryOp, Expr, Query, Select, SelectItem, SetExpr, TableFactor, UnaryOp};

/// Outcome of running one query under one configuration.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// Executed to completion.
    Ok(ResultSet),
    /// Returned an engine error.
    Err(String),
    /// Panicked (index out of bounds, arithmetic overflow, ...).
    Panic(String),
}

impl Outcome {
    fn label(&self) -> String {
        match self {
            Outcome::Ok(rs) => format!("{} rows, {} cols", rs.rows.len(), rs.columns.len()),
            Outcome::Err(e) => format!("error: {e}"),
            Outcome::Panic(p) => format!("panic: {p}"),
        }
    }
}

/// Why a query failed the oracle.
#[derive(Debug, Clone)]
pub enum Disagreement {
    /// `parse(print(ast))` failed or produced a different AST.
    RoundTrip(String),
    /// One executor configuration disagreed with the reference.
    Mismatch {
        config: String,
        reference: String,
        executor: String,
    },
}

impl std::fmt::Display for Disagreement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Disagreement::RoundTrip(msg) => write!(f, "round-trip: {msg}"),
            Disagreement::Mismatch {
                config,
                reference,
                executor,
            } => write!(
                f,
                "[{config}] reference: {reference} | executor: {executor}"
            ),
        }
    }
}

/// Morsel size used by the matrix's parallel configurations. Fuzz
/// tables hold [`crate::FUZZ_ROWS_PER_TABLE`] = 24 rows, so a morsel of
/// 7 rows splits every full-table scan into four morsels — the merge
/// paths (filter selection concat, join build/probe, group-table and
/// accumulator folds) all run on every parallel query instead of
/// degenerating to the single-morsel serial case.
const PARALLEL_MORSEL_ROWS: usize = 7;

/// The executor configuration matrix: the row path, serial columnar,
/// and morsel-parallel columnar — 3 configurations. Every one runs the
/// planner with all its rules on; the `columnar` axis checks every
/// vectorized kernel (LEFT OUTER padding and the nested loop included)
/// and its row-path fallback boundary against the reference
/// interpreter, the parallel axis every per-morsel kernel (LEFT OUTER
/// emission included) and its deterministic merge. `parallel` without
/// `columnar` is left
/// out: the row path has no parallel kernels, so it would run the row
/// configuration's code again.
pub fn exec_matrix() -> Vec<(String, ExecOptions)> {
    [
        ("row", false, false),
        ("columnar", true, false),
        ("columnar+parallel", true, true),
    ]
    .into_iter()
    .map(|(name, columnar, parallel)| {
        (
            name.to_string(),
            ExecOptions {
                columnar,
                parallel,
                // Force real fan-out even on a single-core host: three
                // workers over four morsels.
                workers: if parallel { 3 } else { 0 },
                morsel_rows: if parallel { PARALLEL_MORSEL_ROWS } else { 0 },
            },
        )
    })
    .collect()
}

/// The statement's nested-loop twin: the same statement with every
/// `JOIN … ON a = b` constraint between two columns — in subqueries and
/// derived tables too — written `ON NOT (a <> b)`. The two agree on
/// every row under SQL's three-valued logic, but no hash-join key
/// extractor (the planner's or the engine's join layer) recognizes the
/// twin's form, so every such join of the twin runs as a nested loop,
/// on the row path and on the columnar paths alike. `None` when the
/// statement has no such join.
pub fn nested_loop_twin(query: &Query) -> Option<Query> {
    let mut twin = query.clone();
    (twin_query(&mut twin) > 0).then_some(twin)
}

/// Rewrite the joins of `q` in place; returns how many were rewritten.
fn twin_query(q: &mut Query) -> usize {
    twin_set_expr(&mut q.body)
        + q.order_by
            .iter_mut()
            .map(|o| twin_expr(&mut o.expr))
            .sum::<usize>()
}

fn twin_set_expr(body: &mut SetExpr) -> usize {
    match body {
        SetExpr::Select(s) => twin_select(s),
        SetExpr::SetOp { left, right, .. } => twin_set_expr(left) + twin_set_expr(right),
    }
}

fn twin_select(s: &mut Select) -> usize {
    let mut n = twin_factor(&mut s.from.factor);
    for join in &mut s.joins {
        n += twin_factor(&mut join.table.factor);
        let Some(c) = &mut join.constraint else {
            continue;
        };
        n += twin_expr(c);
        if let Expr::Binary {
            left,
            op: BinaryOp::Eq,
            right,
        } = c
        {
            if let (Expr::Column(_), Expr::Column(_)) = (left.as_ref(), right.as_ref()) {
                let ne = Expr::Binary {
                    left: left.clone(),
                    op: BinaryOp::NotEq,
                    right: right.clone(),
                };
                *c = Expr::Unary {
                    op: UnaryOp::Not,
                    expr: Box::new(ne),
                };
                n += 1;
            }
        }
    }
    for p in &mut s.projections {
        if let SelectItem::Expr { expr, .. } = p {
            n += twin_expr(expr);
        }
    }
    n + s
        .selection
        .iter_mut()
        .chain(&mut s.group_by)
        .chain(&mut s.having)
        .map(twin_expr)
        .sum::<usize>()
}

fn twin_factor(f: &mut TableFactor) -> usize {
    match f {
        TableFactor::Table(_) => 0,
        TableFactor::Derived(q) => twin_query(q),
    }
}

/// Rewrite the joins of every subquery inside `e`.
fn twin_expr(e: &mut Expr) -> usize {
    match e {
        Expr::Column(_)
        | Expr::Literal(_)
        | Expr::Agg {
            arg: AggArg::Star, ..
        } => 0,
        Expr::Agg {
            arg: AggArg::Expr(x),
            ..
        }
        | Expr::Unary { expr: x, .. }
        | Expr::IsNull { expr: x, .. } => twin_expr(x),
        Expr::Binary { left, right, .. } => twin_expr(left) + twin_expr(right),
        Expr::Like { expr, pattern, .. } => twin_expr(expr) + twin_expr(pattern),
        Expr::Between {
            expr, low, high, ..
        } => twin_expr(expr) + twin_expr(low) + twin_expr(high),
        Expr::InList { expr, list, .. } => {
            twin_expr(expr) + list.iter_mut().map(twin_expr).sum::<usize>()
        }
        Expr::InSubquery { expr, subquery, .. } => twin_expr(expr) + twin_query(subquery),
        Expr::Subquery(q) | Expr::Exists { subquery: q, .. } => twin_query(q),
    }
}

fn run_caught(f: impl FnOnce() -> Result<ResultSet, EngineError>) -> Outcome {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(rs)) => Outcome::Ok(rs),
        Ok(Err(e)) => Outcome::Err(e.to_string()),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "opaque panic payload".to_string());
            Outcome::Panic(msg)
        }
    }
}

fn agree(reference: &Outcome, executor: &Outcome) -> bool {
    match (reference, executor) {
        (Outcome::Ok(a), Outcome::Ok(b)) => a.same_result(b),
        // Which error surfaces depends on evaluation order; kind-level
        // agreement is all the architecture guarantees.
        (Outcome::Err(_), Outcome::Err(_)) => true,
        _ => false,
    }
}

/// Run `query` through the round-trip check, then it and its
/// [`nested_loop_twin`] through the reference interpreter and the full
/// configuration matrix. `Ok(())` means total agreement.
pub fn check_query(db: &Database, query: &Query) -> Result<(), Disagreement> {
    let sql = query.to_string();
    match sb_sql::parse(&sql) {
        Err(e) => {
            return Err(Disagreement::RoundTrip(format!(
                "printed SQL failed to parse: {e}"
            )))
        }
        Ok(reparsed) if &reparsed != query => {
            return Err(Disagreement::RoundTrip(
                "reparsed AST differs from the generated AST".to_string(),
            ))
        }
        Ok(_) => {}
    }

    check_matrix(db, query, "")?;
    match nested_loop_twin(query) {
        Some(twin) => check_matrix(db, &twin, "nested-loop twin+"),
        None => Ok(()),
    }
}

/// Run `query` under the reference interpreter and every configuration
/// of [`exec_matrix`]; configuration names in a disagreement carry
/// `prefix`.
fn check_matrix(db: &Database, query: &Query, prefix: &str) -> Result<(), Disagreement> {
    let reference = run_caught(|| execute_reference(db, query));
    if let Outcome::Panic(_) = reference {
        return Err(Disagreement::Mismatch {
            config: format!("{prefix}reference"),
            reference: reference.label(),
            executor: "-".to_string(),
        });
    }
    for (name, opts) in exec_matrix() {
        let got = run_caught(|| execute_with(db, query, opts));
        if !agree(&reference, &got) {
            sb_obs::count("fuzz.oracle.config_mismatches", 1);
            return Err(Disagreement::Mismatch {
                config: format!("{prefix}{name}"),
                reference: reference.label(),
                executor: got.label(),
            });
        }
    }
    Ok(())
}
