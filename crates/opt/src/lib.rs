//! # sb-opt — logical plans and cost-based rewrites
//!
//! A small query optimizer sitting between the `sb-sql` AST and the
//! `sb-engine` executor. One `SELECT` is lowered into a logical plan
//! (scans, joins, filter, aggregate, sort/top-K, limit), a sequence of
//! rule-based rewrites runs over it, and the surviving decisions are
//! handed back to the executor as a [`PlannedSelect`]:
//!
//! - **Predicate pushdown** ([`assign_pushdown`]): WHERE conjuncts that
//!   reference a single relation move into that relation's scan.
//!   Subquery conjuncts, unresolvable or ambiguous references, and
//!   predicates over the nullable side of a LEFT JOIN all stay in the
//!   residual filter, so error behavior and LEFT JOIN padding match the
//!   reference interpreter.
//! - **Projection pushdown** ([`PlannedSelect::keep`]): columns never
//!   referenced by any expression of the statement are dropped at scan
//!   time, shrinking every row the join pipeline copies.
//! - **Join reordering** ([`PlannedSelect::order`]): for inner
//!   equi-join chains, a greedy bottom-up search over the join graph
//!   picks the cheapest execution order under the cost model; the
//!   executor restores source row order afterwards, so reordering is
//!   observationally invisible.
//! - **Top-K fusion**: `ORDER BY` + `LIMIT` is planned as a single
//!   bounded top-K operator rather than a full sort followed by a
//!   truncation.
//!
//! The crate depends only on `sb-sql`. Everything it must know about
//! the physical world arrives through [`RelMeta`] (per-relation
//! cardinalities and uniqueness, supplied by the engine from schema
//! primary keys and live row counts) and a name-resolution callback
//! ([`Resolver`], implemented by the engine's `Scope`) — so resolution
//! semantics, including ambiguity errors, have exactly one home.
//!
//! A [`PlannedSelect`] owns its decisions: WHERE conjuncts are named by
//! their index in [`conjuncts`] order, the crate's one definition of
//! that coordinate system. The plan a statement executes with is
//! therefore the plan a prepared-statement cache can store beside it.
//!
//! [`build_plan`] turns a plan into an operator tree, optionally
//! annotated with runtime statistics, and [`render`] prints it as the
//! indented EXPLAIN text that the plan-snapshot goldens under
//! `tests/goldens/plans/` pin.

pub mod columnar;
pub mod cost;
pub mod explain;
pub mod plan;
pub mod pushdown;

pub use columnar::{columnar_eligible, parallel_eligible};
pub use explain::{build_plan, render, PlanAnnotator, PlanNode};
pub use plan::{plan_select, EdgeKey, PlanInput, PlannedJoin, PlannedSelect};
pub use pushdown::{assign_pushdown, collect_columns, conjuncts, has_subquery, is_aggregate};

use sb_sql::ColumnRef;

/// What the planner knows about one column of a FROM relation.
#[derive(Debug, Clone)]
pub struct ColMeta {
    /// Column name as it appears in the relation.
    pub name: String,
    /// Whether values are unique across the relation (base-table primary
    /// keys). Drives distinct-count estimates in the cost model.
    pub unique: bool,
}

/// What the planner knows about one FROM relation: enough to estimate
/// cardinalities, never any row data.
#[derive(Debug, Clone)]
pub struct RelMeta {
    /// Binding name (alias or table name).
    pub binding: String,
    /// Base table name, `None` for derived tables.
    pub table: Option<String>,
    /// Columns in relation order.
    pub columns: Vec<ColMeta>,
    /// Actual row count: base-table size, or the size of a derived
    /// table's result (which has already run).
    pub rows: usize,
}

/// What the planner is told about the executor's options. Every
/// rewrite always runs; these only label EXPLAIN output.
#[derive(Debug, Clone, Copy)]
pub struct OptOptions {
    /// Whether the executor will attempt vectorized columnar execution
    /// for eligible statements (see [`columnar_eligible`]); gates
    /// EXPLAIN's `Execute engine=` label.
    pub columnar: bool,
    /// Whether the executor will run eligible columnar stages
    /// morsel-parallel (see [`parallel_eligible`]); gates EXPLAIN's
    /// `parallel=` root annotation. Deliberately a bool, never a worker
    /// count: plans (and their goldens) must not depend on how many
    /// threads the current machine happens to have.
    pub parallel: bool,
}

impl Default for OptOptions {
    fn default() -> Self {
        OptOptions {
            columnar: true,
            parallel: true,
        }
    }
}

/// Result of resolving one column reference against the statement's
/// full scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// Resolved to column `col` of relation `rel` (both zero-based,
    /// relation in FROM/JOIN order, column in relation order).
    Col { rel: usize, col: usize },
    /// The bare name matched columns in more than one relation — an
    /// `AmbiguousColumn` error at evaluation time.
    Ambiguous,
    /// Unknown table or column — an error at evaluation time.
    Unknown,
}

/// Name resolution callback. Implemented by the engine on top of its
/// `Scope`, so the planner inherits the executor's resolution semantics
/// (case folding, first-binding wins, ambiguity detection) verbatim
/// instead of re-implementing them.
pub trait Resolver {
    /// Resolve a (possibly qualified) column reference.
    fn resolve(&self, col: &ColumnRef) -> Resolution;
}
