//! The query executor.
//!
//! Scans build rows from each base table's columnar image
//! ([`crate::column`]), holding only the columns the statement
//! references; on single-relation predicates the executor pushes WHERE
//! conjuncts down into the scan, which builds only the rows that pass,
//! so non-qualifying rows are dropped before any join. Equi-joins
//! (`ON a = b`) run as a hash join that builds on the smaller input and
//! probes the larger;
//! anything else (non-equi and bare-name constraints, cross joins) runs
//! as a nested loop. Output row order is identical for both algorithms
//! and either build side (left-major, probe order within a match set),
//! which the equivalence tests rely on.
//!
//! Expressions run through the compile-once layer
//! ([`crate::compile`]): each `SELECT`'s expressions are lowered against
//! their scope exactly once — column references become positional slots,
//! constant subtrees fold — and the resulting programs evaluate with no
//! name lookups. Grouping, DISTINCT and set operations key rows through
//! the allocation-free hashes of [`crate::key`] instead of joined key
//! strings, and ORDER BY + LIMIT keeps only the top K rows in a bounded
//! heap instead of sorting everything.
//!
//! There is one row executor. Every `SELECT` is planned by `sb-opt`
//! (predicate and projection pushdown, join reordering, build sides)
//! and its expressions run compiled. [`ExecOptions`] can turn the
//! columnar batch engine and its morsel parallelism off; the
//! differential tests use those axes, plus query twins whose join
//! constraints only the nested loop can run, to check every path
//! against the reference interpreter ([`crate::reference`]).
//!
//! Operators record their work only in the statement's
//! [`QueryProfile`] slots. With `SB_OBS` on, `execute_query` attaches
//! a statement-local profile when the caller gave none and folds the
//! blocks it ran into the `engine.*` counters on exit
//! ([`sb_obs::fold_engine_counters`]); with `SB_OBS` off that is one
//! relaxed atomic load per statement, and the kernels are the same
//! either way.

use crate::compile::{compile, compile_grouped, compile_order_key, CExpr, GExpr, OrderProg};
use crate::database::Database;
use crate::error::{EngineError, Result};
use crate::eval::{truth, EvalContext, Scope};
use crate::key::{self, FxBuild, KeyIndex, RowSet};
use crate::result::ResultSet;
use crate::value::Value;
use sb_obs::{Block, FixedOp, OpStats, QueryProfile};
use sb_sql::{
    AggFunc, BinaryOp, ColumnRef, Expr, Join, OrderItem, Query, Select, SelectItem, SetExpr, SetOp,
    TableFactor, TableRef,
};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::Hasher;
use std::time::Instant;

/// Optional per-statement profile, threaded through execution by
/// reference (see `sb_obs::profile`). `None` — the overwhelmingly
/// common case — keeps every write site behind one `is_some` check, so
/// profiling off is zero behavior change and near-zero cost.
pub(crate) type Prof<'p> = Option<&'p QueryProfile>;

/// Start a wall-clock measurement only when a profile is attached.
#[inline]
pub(crate) fn prof_clock(bp: &Option<Block<'_>>) -> Option<Instant> {
    bp.as_ref().map(|_| Instant::now())
}

/// Attribute elapsed time since `t0` to `op`.
#[inline]
pub(crate) fn prof_elapsed(t0: Option<Instant>, op: Option<&OpStats>) {
    if let (Some(t0), Some(op)) = (t0, op) {
        op.elapsed(t0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
    }
}

/// Executor tuning knobs. [`Default`] is the configuration every
/// production caller runs. Whatever the options, each `SELECT` is
/// planned by `sb-opt` with every rule on and its row-path expressions
/// run compiled; the options only choose whether (and how wide) the
/// columnar batch engine runs. No option changes a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// Attempt vectorized batch execution over columnar storage for
    /// structurally eligible statements (see
    /// [`sb_opt::columnar_eligible`]). The batch path falls back to the
    /// row executor — silently, and byte-identically — whenever a shape
    /// or data condition is outside its kernel set; errors always come
    /// from the row path.
    pub columnar: bool,
    /// Morsel-driven intra-query parallelism inside the columnar batch
    /// engine. Each batch operator (the filtered scan, the hash-join
    /// build and probe, group assignment, aggregation) is one kernel run
    /// over 1..n fixed-size row morsels on the rayon scoped-thread pool,
    /// with per-morsel results merged in morsel order so output is
    /// byte-identical at any thread count. Off, one worker
    /// (`RAYON_NUM_THREADS=1`, one core) or an input that fits one
    /// morsel runs the same kernel once, inline, as one morsel.
    pub parallel: bool,
    /// Worker-thread override for parallel batch execution. `0` asks
    /// the rayon shim (`RAYON_NUM_THREADS` or available parallelism);
    /// any other value forces exactly that fan-out — sb-serve uses this
    /// to cap intra-query workers by in-flight admission permits, and
    /// the equivalence tests use it to force multi-worker execution on
    /// single-core machines.
    pub workers: usize,
    /// Rows per morsel for parallel batch execution. `0` means the
    /// default (`SB_MORSEL_ROWS` env override, else 65536); tests
    /// shrink it so tiny tables still split into multiple morsels.
    pub morsel_rows: usize,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            columnar: true,
            parallel: true,
            workers: 0,
            morsel_rows: 0,
        }
    }
}

impl ExecOptions {
    /// The effective parallel configuration for one batch execution:
    /// `(workers, morsel_rows)`. Workers come from the explicit
    /// override, else the rayon shim (`RAYON_NUM_THREADS` / cores);
    /// morsel size from the explicit override, else `SB_MORSEL_ROWS`,
    /// else 64K rows. `parallel: false` pins one worker.
    pub(crate) fn par_config(&self) -> (usize, usize) {
        let workers = if !self.parallel {
            1
        } else if self.workers > 0 {
            self.workers
        } else {
            rayon::current_num_threads()
        };
        let morsel_rows = if self.morsel_rows > 0 {
            self.morsel_rows
        } else {
            default_morsel_rows()
        };
        (workers.max(1), morsel_rows.max(1))
    }

    /// Divide this session's worker budget across `in_flight`
    /// concurrent requests: each query gets about `budget / in_flight`
    /// workers (at least one), so intra-query fan-out times inter-query
    /// concurrency never oversubscribes the machine. sb-serve calls
    /// this with its admission gate's live permit count. Identity when
    /// parallelism is off — and always result-identical either way,
    /// since worker count never affects engine output.
    pub fn capped_workers(mut self, in_flight: usize) -> ExecOptions {
        if !self.parallel {
            return self;
        }
        let budget = if self.workers > 0 {
            self.workers
        } else {
            rayon::current_num_threads()
        };
        self.workers = (budget / in_flight.max(1)).max(1);
        self
    }

    /// What `sb-opt` needs to know about these options (EXPLAIN's
    /// engine labels).
    pub(crate) fn opt_options(&self) -> sb_opt::OptOptions {
        sb_opt::OptOptions {
            columnar: self.columnar,
            parallel: self.parallel,
        }
    }
}

/// The default morsel size: `SB_MORSEL_ROWS` when set and positive,
/// else 64K rows. Read once per process — the env override exists so
/// smoke runs over small tables (check.sh, profile_run --quick) can
/// force real multi-morsel dispatch without touching every call site.
fn default_morsel_rows() -> usize {
    use std::sync::OnceLock;
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("SB_MORSEL_ROWS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(65_536)
    })
}

/// Execute a parsed query against a database with default options.
pub fn execute(db: &Database, query: &Query) -> Result<ResultSet> {
    execute_with(db, query, ExecOptions::default())
}

/// [`execute_with`] plus a per-statement [`QueryProfile`] the engine's
/// operators write runtime statistics into — the substrate of
/// `EXPLAIN ANALYZE` and the serve layer's slow-query log. Results are
/// byte-identical with and without a profile attached.
pub fn execute_with_profile(
    db: &Database,
    query: &Query,
    opts: ExecOptions,
    prof: Option<&QueryProfile>,
) -> Result<ResultSet> {
    execute_query(db, query, opts, None, prof)
}

/// [`execute_with_profile`], reusing a top-level plan prepared by
/// [`plan_top_select`] instead of planning afresh. The plan is borrowed
/// as it is, so a prepared-plan cache hit plans and copies nothing. It
/// must come from the *same* statement against the *same* database
/// snapshot; a plan whose relation count, conjunct indices, kept
/// columns or join steps do not fit the statement is ignored and the
/// statement planned afresh, so a plan from another statement can make
/// the executor neither panic nor read a column out of range. Set
/// operations ignore the plan entirely. The serve layer runs every
/// request through here, so the plan cache and profiling compose.
pub fn execute_with_plan_profile(
    db: &Database,
    query: &Query,
    opts: ExecOptions,
    plan: Option<&sb_opt::PlannedSelect>,
    prof: Option<&QueryProfile>,
) -> Result<ResultSet> {
    execute_query(db, query, opts, plan, prof)
}

/// The one function every public `execute*` entry point goes through.
/// Under `SB_OBS` it profiles the statement (in the caller's profile,
/// else a local one) and folds the blocks this call began into the
/// `engine.*` counters, whether the statement succeeded or failed.
fn execute_query(
    db: &Database,
    query: &Query,
    opts: ExecOptions,
    plan: Option<&sb_opt::PlannedSelect>,
    prof: Prof<'_>,
) -> Result<ResultSet> {
    if !sb_obs::enabled() {
        return run_query(db, query, opts, plan, prof);
    }
    let local = QueryProfile::new();
    let prof = prof.unwrap_or(&local);
    let first = prof.block_count();
    let out = run_query(db, query, opts, plan, Some(prof));
    sb_obs::fold_engine_counters(&prof.snapshot().blocks[first..]);
    out
}

fn run_query(
    db: &Database,
    query: &Query,
    opts: ExecOptions,
    plan: Option<&sb_opt::PlannedSelect>,
    prof: Prof<'_>,
) -> Result<ResultSet> {
    match &query.body {
        SetExpr::Select(select) => {
            execute_select_impl(db, select, &query.order_by, query.limit, opts, plan, prof)
        }
        SetExpr::SetOp { .. } => {
            let mut rs = execute_set_expr(db, &query.body, opts, prof)?;
            apply_output_order(&mut rs, &query.order_by, query.limit)?;
            if let Some(n) = query.limit {
                rs.rows.truncate(n as usize);
            }
            rs.ordered = !query.order_by.is_empty();
            Ok(rs)
        }
    }
}

/// Plan the top-level `SELECT` of a query for reuse: the
/// prepared-statement path of `sb-serve` calls this once per normalized
/// statement and hands the plan back to [`execute_with_plan_profile`]
/// on every subsequent request.
///
/// Returns `None` whenever caching would not be sound or useful: the
/// query is a set operation, a FROM factor is a derived table (planning
/// one means executing its subquery — that work belongs to the request,
/// not the prepare step), or a table doesn't resolve (execution will
/// surface the binding error itself). Planning goes through the same
/// [`plan_from`] as execution, over the immutable snapshot's schema and
/// row counts, so the plan is exactly what fresh planning inside
/// [`execute_with`] decides.
pub fn plan_top_select(
    db: &Database,
    query: &Query,
    opts: ExecOptions,
) -> Option<sb_opt::PlannedSelect> {
    let SetExpr::Select(select) = &query.body else {
        return None;
    };
    let mut factors = std::iter::once(&select.from).chain(select.joins.iter().map(|j| &j.table));
    if factors.any(|tr| matches!(tr.factor, TableFactor::Derived(_))) {
        return None;
    }
    let from = plan_from(db, select, &query.order_by, query.limit, opts, None, None).ok()?;
    Some(from.planned.into_owned())
}

/// Execute a parsed query with explicit executor options.
pub fn execute_with(db: &Database, query: &Query, opts: ExecOptions) -> Result<ResultSet> {
    execute_query(db, query, opts, None, None)
}

/// Set-operation leaves execute left to right, which is also the block
/// order a profile records them in (see `sb_obs::profile`).
fn execute_set_expr(
    db: &Database,
    body: &SetExpr,
    opts: ExecOptions,
    prof: Prof<'_>,
) -> Result<ResultSet> {
    match body {
        SetExpr::Select(s) => execute_select_impl(db, s, &[], None, opts, None, prof),
        SetExpr::SetOp {
            op,
            all,
            left,
            right,
        } => {
            let l = execute_set_expr(db, left, opts, prof)?;
            let r = execute_set_expr(db, right, opts, prof)?;
            if l.columns.len() != r.columns.len() {
                return Err(EngineError::TypeMismatch(format!(
                    "set operands have {} vs {} columns",
                    l.columns.len(),
                    r.columns.len()
                )));
            }
            let rows = match op {
                SetOp::Union => {
                    let mut rows = l.rows;
                    rows.extend(r.rows);
                    if !*all {
                        key::dedup_values_rows(&mut rows);
                    }
                    rows
                }
                SetOp::Intersect => {
                    let right = RowSet::build(&r.rows);
                    let mut rows: Vec<Vec<Value>> = l
                        .rows
                        .into_iter()
                        .filter(|row| right.contains(row))
                        .collect();
                    // INTERSECT / EXCEPT have set semantics in SQL.
                    key::dedup_values_rows(&mut rows);
                    rows
                }
                SetOp::Except => {
                    let right = RowSet::build(&r.rows);
                    let mut rows: Vec<Vec<Value>> = l
                        .rows
                        .into_iter()
                        .filter(|row| !right.contains(row))
                        .collect();
                    key::dedup_values_rows(&mut rows);
                    rows
                }
            };
            Ok(ResultSet {
                columns: l.columns,
                rows,
                ordered: false,
            })
        }
    }
}

/// One relation of the FROM clause, resolved but not yet scanned.
pub(crate) enum RelSource<'a> {
    Base(&'a crate::database::Table),
    Derived(ResultSet),
}

pub(crate) struct Relation<'a> {
    pub(crate) binding: String,
    pub(crate) columns: Vec<String>,
    pub(crate) source: RelSource<'a>,
}

pub(crate) fn resolve_relation<'a>(
    db: &'a Database,
    tr: &TableRef,
    opts: ExecOptions,
    prof: Prof<'_>,
) -> Result<Relation<'a>> {
    match &tr.factor {
        TableFactor::Table(name) => {
            let table = db
                .table(name)
                .ok_or_else(|| EngineError::UnknownTable(name.clone()))?;
            let binding = tr.binding().expect("named table always binds").to_string();
            let columns = table.def.columns.iter().map(|c| c.name.clone()).collect();
            Ok(Relation {
                binding,
                columns,
                source: RelSource::Base(table),
            })
        }
        TableFactor::Derived(q) => {
            let alias = tr.alias.clone().ok_or_else(|| {
                EngineError::Unsupported("derived table requires an alias".into())
            })?;
            // The derived query's SELECT blocks register in the profile
            // here, i.e. after the enclosing block and in FROM/JOIN
            // order — exactly the walk `explain_with_profile` replays.
            let rs = run_query(db, q, opts, None, prof)?;
            Ok(Relation {
                binding: alias,
                columns: rs.columns.clone(),
                source: RelSource::Derived(rs),
            })
        }
    }
}

/// Which relation (index into `scope.bindings`) a concatenated-row column
/// index belongs to.
fn relation_of(scope: &Scope, col_idx: usize) -> usize {
    scope
        .bindings
        .iter()
        .rposition(|b| b.offset <= col_idx)
        .expect("column index within scope width")
}

/// The planner's name-resolution callback, backed by the executor's
/// [`Scope`] so `sb-opt` inherits resolution semantics (case folding,
/// ambiguity, unknown-name errors) from exactly the code that will
/// evaluate the expressions later.
pub(crate) struct ScopeResolver<'a>(pub(crate) &'a Scope);

impl sb_opt::Resolver for ScopeResolver<'_> {
    fn resolve(&self, c: &ColumnRef) -> sb_opt::Resolution {
        match self.0.resolve(c) {
            Ok(idx) => {
                let rel = relation_of(self.0, idx);
                sb_opt::Resolution::Col {
                    rel,
                    col: idx - self.0.bindings[rel].offset,
                }
            }
            Err(EngineError::AmbiguousColumn(_)) => sb_opt::Resolution::Ambiguous,
            Err(_) => sb_opt::Resolution::Unknown,
        }
    }
}

/// One `SELECT`'s FROM relations and the plan over them.
pub(crate) struct PlannedFrom<'a, 'p> {
    /// The relations in FROM/JOIN order, derived tables materialized.
    pub(crate) relations: Vec<Relation<'a>>,
    /// The full scope over every relation's original columns.
    pub(crate) scope: Scope,
    /// What the planner was told about each relation; empty when a
    /// prepared plan was reused.
    pub(crate) metas: Vec<sb_opt::RelMeta>,
    /// The prepared plan, borrowed, or the one planned here.
    pub(crate) planned: Cow<'p, sb_opt::PlannedSelect>,
}

/// Resolve a `SELECT`'s FROM relations (derived tables execute here, in
/// FROM/JOIN order), build their full scope, and plan the statement
/// over them — unless the caller has a `prepared` plan, which is reused
/// as it is. Execution, EXPLAIN and the serve layer's prepare step all
/// plan through here, so they cannot disagree about a plan. Name
/// resolution inside the planner delegates back to the scope, so
/// pushdown and reorder decisions see exactly what the residual filter
/// would. The metadata the planner sees is each relation's live row
/// count (derived tables are already materialized) and base-table
/// primary-key uniqueness for the cost model's distinct estimates.
pub(crate) fn plan_from<'a, 'p>(
    db: &'a Database,
    select: &Select,
    order_by: &[OrderItem],
    limit: Option<u64>,
    opts: ExecOptions,
    prepared: Option<&'p sb_opt::PlannedSelect>,
    prof: Prof<'_>,
) -> Result<PlannedFrom<'a, 'p>> {
    let mut relations = vec![resolve_relation(db, &select.from, opts, prof)?];
    for join in &select.joins {
        relations.push(resolve_relation(db, &join.table, opts, prof)?);
    }
    let mut scope = Scope::default();
    for rel in &relations {
        scope.push(&rel.binding, rel.columns.clone());
    }
    // A prepared plan names conjuncts, columns and relations by index;
    // one that does not fit this statement (a caller paired it with
    // another one) is dropped, and the statement is planned afresh.
    let widths: Vec<usize> = relations.iter().map(|r| r.columns.len()).collect();
    let n_conjuncts = sb_opt::conjuncts(select).len();
    if let Some(p) = prepared.filter(|p| plan_fits(p, &widths, n_conjuncts)) {
        return Ok(PlannedFrom {
            relations,
            scope,
            metas: Vec::new(),
            planned: Cow::Borrowed(p),
        });
    }
    let metas: Vec<sb_opt::RelMeta> = relations
        .iter()
        .map(|r| {
            let (table, rows, unique_of): (Option<String>, usize, Option<&crate::database::Table>) =
                match &r.source {
                    RelSource::Base(t) => (Some(t.def.name.clone()), t.len(), Some(t)),
                    RelSource::Derived(rs) => (None, rs.rows.len(), None),
                };
            sb_opt::RelMeta {
                binding: r.binding.clone(),
                table,
                columns: r
                    .columns
                    .iter()
                    .enumerate()
                    .map(|(i, name)| sb_opt::ColMeta {
                        name: name.clone(),
                        unique: unique_of
                            .map(|t| t.def.columns[i].primary_key)
                            .unwrap_or(false),
                    })
                    .collect(),
                rows,
            }
        })
        .collect();
    let input = sb_opt::PlanInput {
        select,
        order_by,
        limit,
        rels: &metas,
        opts: opts.opt_options(),
    };
    let planned = sb_opt::plan_select(&input, &ScopeResolver(&scope));
    Ok(PlannedFrom {
        relations,
        scope,
        metas,
        planned: Cow::Owned(planned),
    })
}

/// Whether a prepared plan fits a statement whose relations have
/// `widths` columns and whose WHERE has `n_conjuncts` conjuncts: one
/// entry per relation in every per-relation list, every conjunct index
/// and kept column in range, the join order a permutation, and every
/// reordered step joining a new relation on key columns that are in
/// range, kept, and (on the probe side) already joined.
fn plan_fits(p: &sb_opt::PlannedSelect, widths: &[usize], n_conjuncts: usize) -> bool {
    let n = widths.len();
    let kept = |rel: usize, col: usize| {
        col < widths[rel] && p.keep[rel].as_ref().is_none_or(|k| k.contains(&col))
    };
    let mut order = p.order.clone();
    order.sort_unstable();
    p.pushed.len() == n
        && p.keep.len() == n
        && p.steps.len() + 1 == n
        && (p.pushed.iter().flatten().chain(&p.residual)).all(|&c| c < n_conjuncts)
        && (p.keep.iter().zip(widths))
            .all(|(k, &w)| k.as_ref().is_none_or(|k| k.iter().all(|&c| c < w)))
        && order.into_iter().eq(0..n)
        && (!p.reordered
            || p.steps.iter().enumerate().all(|(i, step)| {
                step.rel == p.order[i + 1]
                    && step.key.is_some_and(|key| {
                        p.order[..=i].contains(&key.left_rel)
                            && kept(key.left_rel, key.left_col)
                            && kept(step.rel, key.right_col)
                    })
            }))
}

/// Rows an unfiltered base-table scan builds column by column.
const SCAN_BLOCK: usize = 256;

/// Scan one relation, applying its pushed-down conjuncts (indices into
/// the statement's `conjuncts`) and narrowing every row that passes to
/// the planner's `keep` columns (`None` keeps them all). A base table's
/// rows are built from its columnar image: without conjuncts straight
/// into the output, otherwise the columns the conjuncts read go into
/// one reused buffer, and only a row that passes is built.
fn scan_relation(
    rel: Relation<'_>,
    pushed: &[usize],
    keep: Option<&[usize]>,
    conjuncts: &[&Expr],
    ctx: &EvalContext,
    prof_op: Option<&OpStats>,
) -> Result<Vec<Vec<Value>>> {
    let mut local = Scope::default();
    local.push(&rel.binding, rel.columns.clone());
    // Compile pushed conjuncts once against the single-relation scope.
    let progs: Vec<CExpr> = pushed
        .iter()
        .map(|&c| compile(conjuncts[c], &local, ctx))
        .collect();
    let passes = |row: &[Value]| -> Result<bool> {
        for prog in &progs {
            if !prog.eval_filter(row, ctx)? {
                return Ok(false);
            }
        }
        Ok(true)
    };
    let width = rel.columns.len();
    let kept: Vec<usize> = keep.map_or_else(|| (0..width).collect(), <[usize]>::to_vec);
    let (scanned, out) = match rel.source {
        RelSource::Base(table) => {
            let image = table.columnar();
            let columns = &image.columns;
            let mut out = Vec::new();
            if progs.is_empty() {
                // Column at a time within blocks of rows that stay in
                // cache: one variant dispatch per column and block.
                out.reserve(image.len);
                for lo in (0..image.len).step_by(SCAN_BLOCK) {
                    let start = out.len();
                    let hi = (lo + SCAN_BLOCK).min(image.len);
                    out.extend((lo..hi).map(|_| Vec::with_capacity(kept.len())));
                    for &c in &kept {
                        columns[c].push_cells(lo, &mut out[start..]);
                    }
                }
            } else {
                // Compiled conjuncts read only the slots their column
                // references resolve to (subqueries are uncorrelated).
                let mut refs = Vec::new();
                for &c in pushed {
                    sb_opt::collect_columns(conjuncts[c], &mut refs);
                }
                let mut read: Vec<usize> = refs
                    .into_iter()
                    .filter_map(|c| local.resolve(c).ok())
                    .collect();
                read.sort_unstable();
                read.dedup();
                let mut buf = vec![Value::Null; width];
                for r in 0..image.len {
                    for &c in &read {
                        buf[c] = columns[c].value_at(r);
                    }
                    if passes(&buf)? {
                        out.push(kept.iter().map(|&c| columns[c].value_at(r)).collect());
                    }
                }
            }
            (image.len, out)
        }
        RelSource::Derived(rs) => {
            let scanned = rs.rows.len();
            let mut out = Vec::with_capacity(scanned);
            for mut row in rs.rows {
                if passes(&row)? {
                    out.push(match keep {
                        None => row,
                        Some(_) => kept
                            .iter()
                            .map(|&c| std::mem::replace(&mut row[c], Value::Null))
                            .collect(),
                    });
                }
            }
            (scanned, out)
        }
    };
    if let Some(op) = prof_op {
        op.rows(scanned as u64, out.len() as u64);
    }
    Ok(out)
}

/// Try to use a hash join: the constraint must be `left_col = right_col`
/// with one side resolving in the already-built scope and the other in the
/// newly joined relation.
fn equi_join_keys(
    constraint: &Expr,
    left_scope: &Scope,
    right_cols: &[String],
    right_binding: &str,
) -> Option<(usize, usize)> {
    let Expr::Binary {
        left,
        op: BinaryOp::Eq,
        right,
    } = constraint
    else {
        return None;
    };
    let (Expr::Column(a), Expr::Column(b)) = (left.as_ref(), right.as_ref()) else {
        return None;
    };
    // A bare column belongs to one side only when the name is absent
    // from the other side entirely; otherwise the joined scope sees it
    // as ambiguous (or bound differently), and only the general
    // nested-loop evaluator reports that correctly. Claiming such a
    // column here would let the hash path return rows where the general
    // path raises `AmbiguousColumn`.
    let in_right = |c: &sb_sql::ColumnRef| -> Option<usize> {
        right_cols
            .iter()
            .position(|col| col.eq_ignore_ascii_case(&c.column))
    };
    let resolve_left = |c: &sb_sql::ColumnRef| -> Option<usize> {
        let li = left_scope.resolve(c).ok()?;
        if c.table.is_none() && in_right(c).is_some() {
            return None;
        }
        Some(li)
    };
    let resolve_right = |c: &sb_sql::ColumnRef| -> Option<usize> {
        match &c.table {
            Some(t) if t.eq_ignore_ascii_case(right_binding) => in_right(c),
            Some(_) => None,
            None => match left_scope.resolve(c) {
                Err(EngineError::UnknownColumn(_)) => in_right(c),
                _ => None,
            },
        }
    };
    // Either (a in left, b in right) or (b in left, a in right).
    if let (Some(li), Some(ri)) = (resolve_left(a), resolve_right(b)) {
        return Some((li, ri));
    }
    if let (Some(li), Some(ri)) = (resolve_left(b), resolve_right(a)) {
        return Some((li, ri));
    }
    None
}

/// Join key under *SQL equality* (`sql_eq`), not canonical-key rounding:
/// the hash path must match exactly the row pairs the nested-loop
/// predicate `a = b` accepts. `sql_eq` compares int/float exactly, so a
/// float equal to some i64 normalizes to that integer (`-0.0` lands on
/// `Int(0)`, so `-0.0 = 0.0` matches); any other float can equal no int
/// and keys by its own bits. `None` means the value can never satisfy an
/// equality (NULL, or NaN which is not `sql_eq`-equal even to itself).
#[derive(PartialEq, Eq, Hash)]
enum JoinKey<'a> {
    Int(i64),
    Float(u64),
    Text(&'a str),
    Bool(bool),
}

fn join_key(v: &Value) -> Option<JoinKey<'_>> {
    const TWO_63: f64 = 9_223_372_036_854_775_808.0; // 2^63, exact as f64
    match v {
        Value::Null => None,
        Value::Int(i) => Some(JoinKey::Int(*i)),
        Value::Float(f) if f.is_nan() => None,
        Value::Float(f) if f.fract() == 0.0 && (-TWO_63..TWO_63).contains(f) => {
            Some(JoinKey::Int(*f as i64))
        }
        Value::Float(f) => Some(JoinKey::Float(f.to_bits())),
        Value::Text(s) => Some(JoinKey::Text(s)),
        Value::Bool(b) => Some(JoinKey::Bool(*b)),
    }
}

/// Hash-join match lists: `matches[i]` holds the indices of right rows
/// joining left row `i`, in right-scan order. Building the map on either
/// side yields the same lists, so build-side selection never changes
/// output order — only speed. `op`, the join's profile slot, records the
/// build and probe sizes.
fn hash_join_matches(
    left: &[Vec<Value>],
    right: &[Vec<Value>],
    li: usize,
    ri: usize,
    build_left: bool,
    op: Option<&OpStats>,
) -> Vec<Vec<u32>> {
    if let Some(op) = op {
        let (build, probe) = if build_left {
            (left.len(), right.len())
        } else {
            (right.len(), left.len())
        };
        op.build_probe(build as u64, probe as u64);
        op.mark();
    }
    let mut matches: Vec<Vec<u32>> = vec![Vec::new(); left.len()];
    if build_left {
        let mut index: HashMap<JoinKey, Vec<u32>, FxBuild> =
            HashMap::with_capacity_and_hasher(left.len(), FxBuild::default());
        for (i, l) in left.iter().enumerate() {
            if let Some(k) = join_key(&l[li]) {
                index.entry(k).or_default().push(i as u32);
            }
        }
        for (j, r) in right.iter().enumerate() {
            if let Some(k) = join_key(&r[ri]) {
                if let Some(bucket) = index.get(&k) {
                    for &i in bucket {
                        matches[i as usize].push(j as u32);
                    }
                }
            }
        }
    } else {
        let mut index: HashMap<JoinKey, Vec<u32>, FxBuild> =
            HashMap::with_capacity_and_hasher(right.len(), FxBuild::default());
        for (j, r) in right.iter().enumerate() {
            if let Some(k) = join_key(&r[ri]) {
                index.entry(k).or_default().push(j as u32);
            }
        }
        for (i, l) in left.iter().enumerate() {
            if let Some(k) = join_key(&l[li]) {
                if let Some(bucket) = index.get(&k) {
                    matches[i].extend_from_slice(bucket);
                }
            }
        }
    }
    matches
}

/// Resolve every column reference in a join constraint against the
/// joined scope, without evaluating anything. Subquery bodies resolve
/// against their own scopes at execution time and are skipped.
fn validate_constraint_columns(e: &Expr, scope: &Scope) -> Result<()> {
    match e {
        Expr::Column(c) => scope.resolve(c).map(|_| ()),
        Expr::Literal(_) | Expr::Subquery(_) | Expr::Exists { .. } => Ok(()),
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => {
            validate_constraint_columns(expr, scope)
        }
        Expr::Binary { left, right, .. } => {
            validate_constraint_columns(left, scope)?;
            validate_constraint_columns(right, scope)
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            validate_constraint_columns(expr, scope)?;
            validate_constraint_columns(low, scope)?;
            validate_constraint_columns(high, scope)
        }
        Expr::InList { expr, list, .. } => {
            validate_constraint_columns(expr, scope)?;
            list.iter()
                .try_for_each(|e| validate_constraint_columns(e, scope))
        }
        Expr::InSubquery { expr, .. } => validate_constraint_columns(expr, scope),
        Expr::Like { expr, pattern, .. } => {
            validate_constraint_columns(expr, scope)?;
            validate_constraint_columns(pattern, scope)
        }
        Expr::Agg { arg, .. } => match arg {
            sb_sql::AggArg::Star => Ok(()),
            sb_sql::AggArg::Expr(e) => validate_constraint_columns(e, scope),
        },
    }
}

fn concat_row(left: &[Value], right: &[Value]) -> Vec<Value> {
    let mut row = Vec::with_capacity(left.len() + right.len());
    row.extend_from_slice(left);
    row.extend_from_slice(right);
    row
}

/// Build the joined rows for `FROM ... JOIN ...` from pre-scanned
/// relations, in source order. `steps` carries the planner's hash
/// build side per join.
fn join_relations(
    mut scanned: Vec<Vec<Vec<Value>>>,
    relations: &[(String, Vec<String>)],
    joins: &[Join],
    ctx: &EvalContext,
    steps: &[sb_opt::PlannedJoin],
    bp: Option<Block<'_>>,
) -> Result<(Scope, Vec<Vec<Value>>)> {
    let mut scanned = scanned.drain(..);
    let mut rows = scanned.next().expect("at least the FROM relation");
    let mut scope = Scope::default();
    scope.push(&relations[0].0, relations[0].1.clone());

    for (ji, (join, rel)) in joins.iter().zip(&relations[1..]).enumerate() {
        let jrows = scanned.next().expect("one scan per relation");
        let right_width = rel.1.len();
        let t0 = prof_clock(&bp);
        let rows_in = rows.len() + jrows.len();

        // Attempt hash join on a column equality before extending the
        // scope (so "left side" means the scope built so far).
        let hash_keys = join
            .constraint
            .as_ref()
            .and_then(|c| equi_join_keys(c, &scope, &rel.1, &rel.0));

        scope.push(&rel.0, rel.1.clone());

        // Resolve the constraint's column references before touching any
        // rows: hash joins and pushdown-emptied scans can leave the
        // constraint unevaluated for some (or all) row pairs, and whether
        // an unknown-column or ambiguity error surfaces must not depend
        // on row counts or on the chosen plan.
        if let Some(c) = &join.constraint {
            validate_constraint_columns(c, &scope)?;
        }

        let mut out = Vec::new();
        match hash_keys {
            Some((li, ri)) => {
                let op = bp.as_ref().and_then(|b| b.join(ji));
                let matches = hash_join_matches(&rows, &jrows, li, ri, steps[ji].build_left, op);
                for (l, js) in rows.iter().zip(&matches) {
                    for &j in js {
                        out.push(concat_row(l, &jrows[j as usize]));
                    }
                    if join.left && js.is_empty() {
                        let mut row = l.to_vec();
                        row.extend(std::iter::repeat_n(Value::Null, right_width));
                        out.push(row);
                    }
                }
            }
            None => {
                // Nested loop with the full predicate (or cross join).
                let prog = join.constraint.as_ref().map(|c| compile(c, &scope, ctx));
                for l in &rows {
                    let mut matched = false;
                    for r in &jrows {
                        let row = concat_row(l, r);
                        let keep = match &prog {
                            Some(p) => p.eval_filter(&row, ctx)?,
                            None => true,
                        };
                        if keep {
                            out.push(row);
                            matched = true;
                        }
                    }
                    if join.left && !matched {
                        let mut row = l.to_vec();
                        row.extend(std::iter::repeat_n(Value::Null, right_width));
                        out.push(row);
                    }
                }
            }
        }
        if let Some(op) = bp.as_ref().and_then(|b| b.join(ji)) {
            // Source-order execution: step `ji` introduces relation
            // `ji + 1`; step 0's left input is the FROM relation.
            op.rows(rows_in as u64, out.len() as u64);
            op.link((ji == 0).then_some(0), ji + 1);
            prof_elapsed(t0, Some(op));
        }
        rows = out;
    }
    Ok((scope, rows))
}

/// Execute a planner-reordered all-inner equi-join chain, then restore
/// the exact output the source-order pipeline would have produced.
///
/// Every intermediate row carries a tag: the scan position of each
/// participating relation's row, in execution order. The source-order
/// nested-loop (and hash-join) pipeline emits rows in lexicographic
/// order of scan positions taken in *source* order, so sorting the
/// reordered output by its tags — permuted back to source order — and
/// permuting each row's columns back to the source layout reproduces
/// that output byte for byte. Reordering is therefore invisible to
/// ORDER BY tie-breaking, strict row-order tests and goldens; only the
/// sizes of the intermediate results change.
///
/// Preconditions (checked by the planner, see `sb_opt::plan_select`):
/// all joins inner with qualified two-column equi-constraints forming a
/// spanning tree over distinct bindings — which also guarantees no
/// resolution error can surface mid-join.
fn join_relations_reordered(
    scanned: Vec<Vec<Vec<Value>>>,
    relations: &[(String, Vec<String>)],
    planned: &sb_opt::PlannedSelect,
    bp: Option<Block<'_>>,
) -> (Scope, Vec<Vec<Value>>) {
    let n = relations.len();
    let widths: Vec<usize> = relations.iter().map(|r| r.1.len()).collect();
    // Offsets of each relation's columns in execution layout...
    let mut exec_off = vec![0usize; n];
    let mut off = 0;
    for &r in &planned.order {
        exec_off[r] = off;
        off += widths[r];
    }
    // ...and in the source layout the caller expects back.
    let mut src_off = vec![0usize; n];
    let mut off = 0;
    for (r, w) in widths.iter().enumerate() {
        src_off[r] = off;
        off += w;
    }
    let total_width = off;

    let mut scanned: Vec<Option<Vec<Vec<Value>>>> = scanned.into_iter().map(Some).collect();
    let first = planned.order[0];
    let mut rows: Vec<Vec<Value>> = scanned[first].take().expect("scan per relation");
    // tags[i][k] = scan position of relation `order[k]`'s row in joined
    // row i.
    let mut tags: Vec<Vec<u32>> = (0..rows.len() as u32).map(|i| vec![i]).collect();

    for (si, step) in planned.steps.iter().enumerate() {
        let jrows = scanned[step.rel].take().expect("each relation joins once");
        let key = step.key.expect("reordered steps always carry a key");
        let li = exec_off[key.left_rel]
            + sb_opt::plan::pruned_index(&planned.keep[key.left_rel], key.left_col);
        let ri = sb_opt::plan::pruned_index(&planned.keep[step.rel], key.right_col);
        let t0 = prof_clock(&bp);
        let op = bp.as_ref().and_then(|b| b.join(si));
        let matches = hash_join_matches(&rows, &jrows, li, ri, step.build_left, op);
        let mut out = Vec::new();
        let mut out_tags = Vec::new();
        for ((l, ltag), js) in rows.iter().zip(&tags).zip(&matches) {
            for &j in js {
                out.push(concat_row(l, &jrows[j as usize]));
                let mut t = Vec::with_capacity(ltag.len() + 1);
                t.extend_from_slice(ltag);
                t.push(j);
                out_tags.push(t);
            }
        }
        if let Some(op) = op {
            // Reordered execution: record which source relation this
            // step introduced so renderers and the conservation checker
            // can re-associate steps without re-deriving the plan.
            op.rows((rows.len() + jrows.len()) as u64, out.len() as u64);
            op.link((si == 0).then_some(planned.order[0]), step.rel);
            prof_elapsed(t0, Some(op));
        }
        rows = out;
        tags = out_tags;
    }

    // Sort by scan positions in source-relation order. Each surviving
    // combination of input rows is unique, so the keys are distinct and
    // an unstable sort is exact.
    let mut order_pos = vec![0usize; n];
    for (k, &r) in planned.order.iter().enumerate() {
        order_pos[r] = k;
    }
    let sort_keys: Vec<Vec<u32>> = tags
        .iter()
        .map(|t| (0..n).map(|r| t[order_pos[r]]).collect())
        .collect();
    let mut idx: Vec<usize> = (0..rows.len()).collect();
    idx.sort_unstable_by(|&a, &b| sort_keys[a].cmp(&sort_keys[b]));

    // Permute columns from execution layout back to source layout.
    let mut col_perm = Vec::with_capacity(total_width);
    for (r, w) in widths.iter().enumerate() {
        for c in 0..*w {
            col_perm.push(exec_off[r] + c);
        }
    }
    let mut slots: Vec<Option<Vec<Value>>> = rows.into_iter().map(Some).collect();
    let rows: Vec<Vec<Value>> = idx
        .into_iter()
        .map(|i| {
            let mut v = slots[i].take().expect("indices are distinct");
            let mut out = Vec::with_capacity(total_width);
            for &s in &col_perm {
                out.push(std::mem::replace(&mut v[s], Value::Null));
            }
            out
        })
        .collect();

    let mut scope = Scope::default();
    for rel in relations {
        scope.push(&rel.0, rel.1.clone());
    }
    (scope, rows)
}

/// Output column name for a projection item.
pub(crate) fn projection_name(item: &SelectItem) -> String {
    match item {
        SelectItem::Wildcard => "*".to_string(),
        SelectItem::Expr { expr, alias } => match alias {
            Some(a) => a.clone(),
            None => expr.to_string(),
        },
    }
}

fn execute_select_impl(
    db: &Database,
    select: &Select,
    order_by: &[OrderItem],
    limit: Option<u64>,
    opts: ExecOptions,
    prepared: Option<&sb_opt::PlannedSelect>,
    prof: Prof<'_>,
) -> Result<ResultSet> {
    let ctx = EvalContext::new(db, opts);
    let conjuncts = sb_opt::conjuncts(select);
    let n_rel = 1 + select.joins.len();

    // Reserve this SELECT's profile block before resolving relations:
    // derived tables execute during resolution and must register their
    // blocks *after* the enclosing one (the order renderers replay).
    let bp: Option<Block<'_>> = prof.map(|p| p.begin_block(n_rel));

    let PlannedFrom {
        relations,
        scope: full_scope,
        planned,
        ..
    } = plan_from(db, select, order_by, limit, opts, prepared, prof)?;

    // Attempt vectorized batch execution before any rows are scanned:
    // the batch path works directly on the tables' columnar images. A
    // `None` from `try_select` means some shape or data condition fell
    // outside the kernel set — fall through to the row pipeline, which
    // is also the only place errors are raised.
    if opts.columnar && sb_opt::columnar_eligible(select, order_by) {
        let input = crate::batch::BatchInput {
            select,
            order_by,
            scope: &full_scope,
            relations: &relations,
            planned: &planned,
            conjuncts: &conjuncts,
            par: crate::batch::ParConfig::from_options(&opts),
            bp,
            ctx: &ctx,
        };
        if let Some(projected) = crate::batch::try_select(&input) {
            if let Some(bp) = &bp {
                bp.set_columnar(true);
            }
            let r = Ok(finish_select(select, order_by, limit, projected, bp));
            return r;
        }
        if let Some(bp) = &bp {
            // The batch path may have recorded operators before bailing;
            // zero them so the row-engine retry doesn't double-count.
            bp.reset();
            bp.set_fallback("kernel");
        }
    }

    let mut rel_names: Vec<(String, Vec<String>)> = relations
        .iter()
        .map(|r| (r.binding.clone(), r.columns.clone()))
        .collect();
    let mut scanned = Vec::with_capacity(rel_names.len());
    for (i, (rel, pushed)) in relations.into_iter().zip(&planned.pushed).enumerate() {
        let prof_op = bp.as_ref().and_then(|b| b.scan(i));
        let t0 = prof_clock(&bp);
        let keep = planned.keep[i].as_deref();
        scanned.push(scan_relation(rel, pushed, keep, &conjuncts, &ctx, prof_op)?);
        prof_elapsed(t0, prof_op);
    }

    // Projection pushdown: the scans kept only the columns the planner
    // proved are referenced (by name, so ambiguity errors and ORDER BY
    // alias resolution behave identically on the narrowed scope).
    for (names, keep) in rel_names.iter_mut().zip(&planned.keep) {
        if let Some(kept) = keep {
            names.1 = kept.iter().map(|&c| names.1[c].clone()).collect();
        }
    }

    let (scope, mut rows) = if planned.reordered {
        join_relations_reordered(scanned, &rel_names, &planned, bp)
    } else {
        join_relations(scanned, &rel_names, &select.joins, &ctx, &planned.steps, bp)?
    };

    if !planned.residual.is_empty() {
        let filter_op = bp.as_ref().and_then(|b| b.fixed(FixedOp::Filter));
        let filter_in = rows.len();
        let t0 = prof_clock(&bp);
        let progs: Vec<CExpr> = planned
            .residual
            .iter()
            .map(|&c| compile(conjuncts[c], &scope, &ctx))
            .collect();
        let mut kept = Vec::with_capacity(rows.len());
        'row: for row in rows {
            for prog in &progs {
                if !prog.eval_filter(&row, &ctx)? {
                    continue 'row;
                }
            }
            kept.push(row);
        }
        rows = kept;
        if let Some(op) = filter_op {
            op.rows(filter_in as u64, rows.len() as u64);
            prof_elapsed(t0, Some(op));
        }
    }

    let agg = sb_opt::is_aggregate(select, order_by);
    let agg_op = (agg && bp.is_some())
        .then(|| bp.as_ref().and_then(|b| b.fixed(FixedOp::Aggregate)))
        .flatten();
    let agg_in = rows.len();
    let t0 = prof_clock(&bp);
    let projected = if agg {
        execute_grouped(select, order_by, &scope, rows, &ctx, agg_op)?
    } else {
        execute_plain(select, order_by, &scope, rows, &ctx)?
    };
    if let Some(op) = agg_op {
        op.rows(agg_in as u64, projected.1.len() as u64);
        prof_elapsed(t0, Some(op));
    }
    Ok(finish_select(select, order_by, limit, projected, bp))
}

/// The shared result tail of the row and batch pipelines: DISTINCT
/// dedup (keeping sort keys aligned), ORDER BY (bounded top-K under
/// LIMIT), LIMIT truncation.
pub(crate) fn finish_select(
    select: &Select,
    order_by: &[OrderItem],
    limit: Option<u64>,
    projected: Projected,
    bp: Option<Block<'_>>,
) -> ResultSet {
    let (columns, mut out_rows, mut keys) = projected;

    if select.distinct {
        let op = bp.as_ref().and_then(|b| b.fixed(FixedOp::Distinct));
        let t0 = prof_clock(&bp);
        let rows_in = out_rows.len();
        // Dedup rows, keeping sort keys aligned.
        let mut index = KeyIndex::with_capacity(out_rows.len());
        let mut rows2: Vec<Vec<Value>> = Vec::with_capacity(out_rows.len());
        let mut keys2 = Vec::with_capacity(keys.len());
        for (row, sort_key) in out_rows.into_iter().zip(keys) {
            let h = key::hash_values(&row);
            if index
                .insert(h, rows2.len() as u32, |t| {
                    key::values_key_eq(&rows2[t as usize], &row)
                })
                .is_none()
            {
                rows2.push(row);
                keys2.push(sort_key);
            }
        }
        out_rows = rows2;
        keys = keys2;
        if let Some(op) = op {
            op.rows(rows_in as u64, out_rows.len() as u64);
            prof_elapsed(t0, Some(op));
        }
    }

    let order_op = (!order_by.is_empty() || limit.is_some())
        .then(|| bp.as_ref().and_then(|b| b.fixed(FixedOp::Order)))
        .flatten();
    let order_in = out_rows.len();
    let order_t0 = prof_clock(&bp);

    if !order_by.is_empty() {
        // Total order: ORDER BY keys, then input position — making the
        // bounded top-K heap under LIMIT agree exactly with a stable
        // full sort.
        let cmp = |&a: &usize, &b: &usize| -> Ordering {
            for (item, (ka, kb)) in order_by.iter().zip(keys[a].iter().zip(keys[b].iter())) {
                let ord = ka.total_cmp(kb);
                let ord = if item.desc { ord.reverse() } else { ord };
                if !ord.is_eq() {
                    return ord;
                }
            }
            a.cmp(&b)
        };
        let order = match limit {
            Some(n) if (n as usize) < out_rows.len() => {
                if let Some(op) = order_op.filter(|_| n > 0) {
                    op.mark();
                }
                top_k_indices(out_rows.len(), n as usize, cmp)
            }
            _ => {
                let mut idx: Vec<usize> = (0..out_rows.len()).collect();
                idx.sort_unstable_by(&cmp);
                idx
            }
        };
        out_rows = permute(out_rows, &order);
    }

    if let Some(n) = limit {
        out_rows.truncate(n as usize);
    }
    if let Some(op) = order_op {
        op.rows(order_in as u64, out_rows.len() as u64);
        prof_elapsed(order_t0, Some(op));
    }

    ResultSet {
        columns,
        rows: out_rows,
        ordered: !order_by.is_empty(),
    }
}

/// Reorder `rows` to `order` (a set of distinct indices) without cloning
/// any row.
fn permute(rows: Vec<Vec<Value>>, order: &[usize]) -> Vec<Vec<Value>> {
    let mut slots: Vec<Option<Vec<Value>>> = rows.into_iter().map(Some).collect();
    order
        .iter()
        .map(|&i| slots[i].take().expect("indices are distinct"))
        .collect()
}

/// Indices of the least `k` elements under `cmp` (a strict total order),
/// sorted — identical to sorting all of `0..len` and truncating, but via
/// a bounded max-heap: O(len · log k) and O(k) memory.
fn top_k_indices(len: usize, k: usize, cmp: impl Fn(&usize, &usize) -> Ordering) -> Vec<usize> {
    if k == 0 {
        return Vec::new();
    }
    // `heap[0]` is the worst (greatest) element kept so far.
    let mut heap: Vec<usize> = Vec::with_capacity(k);
    for i in 0..len {
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

/// Output columns, projected rows, and per-row ORDER BY keys — what a
/// projection pipeline (row or batch) hands to [`finish_select`].
pub(crate) type Projected = (Vec<String>, Vec<Vec<Value>>, Vec<Vec<Value>>);

/// A compiled projection item.
enum ProjProg<'q> {
    Wildcard,
    Expr(CExpr<'q>),
}

/// Non-aggregate path: project each row, computing sort keys in-scope.
fn execute_plain(
    select: &Select,
    order_by: &[OrderItem],
    scope: &Scope,
    rows: Vec<Vec<Value>>,
    ctx: &EvalContext,
) -> Result<Projected> {
    let mut columns = Vec::new();
    for item in &select.projections {
        match item {
            SelectItem::Wildcard => columns.extend(scope.all_columns()),
            other => columns.push(projection_name(other)),
        }
    }
    // A bare `SELECT *` needs no per-cell work: the row comes back as-is.
    let passthrough =
        matches!(select.projections[..], [SelectItem::Wildcard]) && order_by.is_empty();
    if passthrough {
        let out_rows = rows;
        let keys = vec![Vec::new(); out_rows.len()];
        return Ok((columns, out_rows, keys));
    }
    let mut out_rows = Vec::with_capacity(rows.len());
    let mut keys = Vec::with_capacity(rows.len());
    let projs: Vec<ProjProg> = select
        .projections
        .iter()
        .map(|item| match item {
            SelectItem::Wildcard => ProjProg::Wildcard,
            SelectItem::Expr { expr, .. } => ProjProg::Expr(compile(expr, scope, ctx)),
        })
        .collect();
    let order_progs: Vec<OrderProg> = order_by
        .iter()
        .map(|item| compile_order_key(&item.expr, scope, ctx, select))
        .collect();
    for row in &rows {
        let mut out = Vec::with_capacity(columns.len());
        for proj in &projs {
            match proj {
                ProjProg::Wildcard => out.extend(row.iter().cloned()),
                ProjProg::Expr(prog) => out.push(prog.eval(row, ctx)?.into_value()),
            }
        }
        let mut key = Vec::with_capacity(order_by.len());
        for prog in &order_progs {
            key.push(prog.eval(row, &out, ctx)?);
        }
        out_rows.push(out);
        keys.push(key);
    }
    Ok((columns, out_rows, keys))
}

/// Aggregate path: group, filter with HAVING, project per group.
fn execute_grouped(
    select: &Select,
    order_by: &[OrderItem],
    scope: &Scope,
    rows: Vec<Vec<Value>>,
    ctx: &EvalContext,
    agg_op: Option<&OpStats>,
) -> Result<Projected> {
    // Group rows by evaluated GROUP BY key — hashed `Vec<Value>` keys
    // under the canonical-key relation, no string concatenation.
    let mut groups: Vec<Vec<Vec<Value>>> = Vec::new();
    if select.group_by.is_empty() {
        // Single implicit group — even over zero rows (COUNT(*) = 0).
        groups.push(rows);
    } else {
        let progs: Vec<CExpr> = select
            .group_by
            .iter()
            .map(|ge| compile(ge, scope, ctx))
            .collect();
        let mut index = KeyIndex::default();
        let mut group_keys: Vec<Vec<Value>> = Vec::new();
        // Hash and compare the key cells as borrows straight out of the
        // row; an owned key is cloned only when the group is new.
        // Re-evaluating a program for the equality (and new-group) probes
        // is sound because compiled evaluation is deterministic — the
        // hash pass already surfaced any error this row can raise.
        for row in rows {
            let mut hasher = key::FxHasher::default();
            for prog in &progs {
                prog.eval(&row, ctx)?.hash_key(&mut hasher);
            }
            let h = hasher.finish();
            match index.insert(h, groups.len() as u32, |t| {
                group_keys[t as usize]
                    .iter()
                    .zip(&progs)
                    .all(|(k, p)| p.eval(&row, ctx).is_ok_and(|cv| cv.key_eq(k)))
            }) {
                Some(slot) => groups[slot as usize].push(row),
                None => {
                    let mut gkey = Vec::with_capacity(progs.len());
                    for prog in &progs {
                        gkey.push(prog.eval(&row, ctx)?.into_value());
                    }
                    group_keys.push(gkey);
                    groups.push(vec![row]);
                }
            }
        }
    }

    if let Some(op) = agg_op {
        op.groups(groups.len() as u64);
    }

    let mut columns = Vec::new();
    for item in &select.projections {
        match item {
            SelectItem::Wildcard => {
                return Err(EngineError::Unsupported(
                    "SELECT * with GROUP BY / aggregates".into(),
                ))
            }
            other => columns.push(projection_name(other)),
        }
    }

    let mut out_rows = Vec::new();
    let mut keys = Vec::new();
    let having: Option<GExpr> = select
        .having
        .as_ref()
        .map(|h| compile_grouped(h, scope, ctx));
    let projs: Vec<GExpr> = select
        .projections
        .iter()
        .filter_map(|item| match item {
            SelectItem::Wildcard => None,
            SelectItem::Expr { expr, .. } => Some(compile_grouped(expr, scope, ctx)),
        })
        .collect();
    let order_progs: Vec<GExpr> = order_by
        .iter()
        .map(|item| compile_grouped(&item.expr, scope, ctx))
        .collect();
    for group in &groups {
        if let Some(h) = &having {
            if !truth(h.eval(group, ctx)?)?.unwrap_or(false) {
                continue;
            }
        }
        let mut out = Vec::with_capacity(columns.len());
        for prog in &projs {
            out.push(prog.eval(group, ctx)?);
        }
        let mut key = Vec::with_capacity(order_by.len());
        for prog in &order_progs {
            key.push(prog.eval(group, ctx)?);
        }
        out_rows.push(out);
        keys.push(key);
    }
    Ok((columns, out_rows, keys))
}

/// Reduce the non-NULL (and, for DISTINCT, deduped) argument values of
/// an aggregate call.
pub(crate) fn finish_aggregate(func: AggFunc, values: Vec<Value>) -> Result<Value> {
    match func {
        AggFunc::Count => Ok(Value::Int(values.len() as i64)),
        AggFunc::Sum => {
            if values.is_empty() {
                return Ok(Value::Null);
            }
            let all_int = values.iter().all(|v| matches!(v, Value::Int(_)));
            if all_int {
                // Checked: an overflowing SUM is a defined `Overflow`
                // error, byte-identical to the reference interpreter's.
                let mut sum = 0i64;
                for v in &values {
                    if let Value::Int(i) = v {
                        sum = sum
                            .checked_add(*i)
                            .ok_or_else(|| EngineError::Overflow("SUM exceeds i64".to_string()))?;
                    }
                }
                Ok(Value::Int(sum))
            } else {
                let mut sum = 0.0;
                for v in &values {
                    sum += v.as_f64().ok_or_else(|| {
                        EngineError::TypeMismatch(format!("SUM over non-numeric value {v}"))
                    })?;
                }
                Ok(Value::Float(sum))
            }
        }
        AggFunc::Avg => {
            if values.is_empty() {
                return Ok(Value::Null);
            }
            let mut sum = 0.0;
            for v in &values {
                sum += v.as_f64().ok_or_else(|| {
                    EngineError::TypeMismatch(format!("AVG over non-numeric value {v}"))
                })?;
            }
            Ok(Value::Float(sum / values.len() as f64))
        }
        AggFunc::Min | AggFunc::Max => {
            let mut best: Option<Value> = None;
            for v in values {
                best = Some(match best {
                    None => v,
                    Some(b) => {
                        let take_new = match v.compare(&b) {
                            Some(ord) => {
                                (func == AggFunc::Min && ord.is_lt())
                                    || (func == AggFunc::Max && ord.is_gt())
                            }
                            None => {
                                return Err(EngineError::TypeMismatch(
                                    "MIN/MAX over mixed types".into(),
                                ))
                            }
                        };
                        if take_new {
                            v
                        } else {
                            b
                        }
                    }
                });
            }
            Ok(best.unwrap_or(Value::Null))
        }
    }
}

/// Order a set-operation result by output column names or 1-based
/// ordinals. Under a LIMIT smaller than the result, only the top K rows
/// are kept (bounded heap) instead of sorting everything.
fn apply_output_order(
    rs: &mut ResultSet,
    order_by: &[OrderItem],
    limit: Option<u64>,
) -> Result<()> {
    if order_by.is_empty() {
        return Ok(());
    }
    let mut key_idx = Vec::with_capacity(order_by.len());
    for item in order_by {
        let idx = match &item.expr {
            Expr::Column(c) if c.table.is_none() => rs
                .columns
                .iter()
                .position(|name| name.eq_ignore_ascii_case(&c.column))
                .ok_or_else(|| EngineError::UnknownColumn(c.column.clone()))?,
            // Ordinals are validated even when the result has no rows to
            // sort: `ORDER BY 5` over two columns is an error, not a no-op.
            Expr::Literal(sb_sql::Literal::Int(n)) if *n >= 1 => {
                let idx = (*n as usize) - 1;
                if idx >= rs.columns.len() {
                    return Err(EngineError::UnknownColumn(format!(
                        "ORDER BY position {n} of {} columns",
                        rs.columns.len()
                    )));
                }
                idx
            }
            other => {
                return Err(EngineError::Unsupported(format!(
                    "ORDER BY `{other}` after a set operation (use an output column)"
                )))
            }
        };
        key_idx.push((idx, item.desc));
    }
    let rows = std::mem::take(&mut rs.rows);
    let cmp = |&a: &usize, &b: &usize| -> Ordering {
        for (idx, desc) in &key_idx {
            let ord = rows[a][*idx].total_cmp(&rows[b][*idx]);
            let ord = if *desc { ord.reverse() } else { ord };
            if !ord.is_eq() {
                return ord;
            }
        }
        a.cmp(&b)
    };
    let order = match limit {
        Some(n) if (n as usize) < rows.len() => top_k_indices(rows.len(), n as usize, cmp),
        _ => {
            let mut idx: Vec<usize> = (0..rows.len()).collect();
            idx.sort_unstable_by(&cmp);
            idx
        }
    };
    rs.rows = permute(rows, &order);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_schema::{Column, ColumnType, Schema, TableDef};

    #[test]
    fn capped_workers_divides_the_budget() {
        let base = ExecOptions {
            workers: 8,
            ..ExecOptions::default()
        };
        assert_eq!(base.capped_workers(1).workers, 8);
        assert_eq!(base.capped_workers(2).workers, 4);
        // Zero in-flight (caller races the gate) behaves like one.
        assert_eq!(base.capped_workers(0).workers, 8);
        // Saturated service: never below one worker.
        assert_eq!(base.capped_workers(100).workers, 1);
        // Serial sessions are untouched.
        let off = ExecOptions {
            parallel: false,
            workers: 8,
            ..ExecOptions::default()
        };
        assert_eq!(off.capped_workers(4).workers, 8);
    }

    fn galaxy_db() -> Database {
        let schema = Schema::new("t")
            .with_table(TableDef::new(
                "specobj",
                vec![
                    Column::pk("specobjid", ColumnType::Int),
                    Column::new("class", ColumnType::Text),
                    Column::new("z", ColumnType::Float),
                    Column::new("bestobjid", ColumnType::Int),
                ],
            ))
            .with_table(TableDef::new(
                "photoobj",
                vec![
                    Column::pk("objid", ColumnType::Int),
                    Column::new("u", ColumnType::Float),
                    Column::new("r", ColumnType::Float),
                ],
            ));
        let mut db = Database::new(schema);
        db.table_mut("specobj").unwrap().push_rows(vec![
            vec![1.into(), "GALAXY".into(), 0.7.into(), 10.into()],
            vec![2.into(), "GALAXY".into(), 1.5.into(), 20.into()],
            vec![3.into(), "STAR".into(), 0.0.into(), 30.into()],
            vec![4.into(), "QSO".into(), 2.5.into(), Value::Null],
            vec![5.into(), "GALAXY".into(), Value::Null, 10.into()],
        ]);
        db.table_mut("photoobj").unwrap().push_rows(vec![
            vec![10.into(), 18.0.into(), 16.5.into()],
            vec![20.into(), 19.0.into(), 15.0.into()],
            vec![40.into(), 21.0.into(), 20.5.into()],
        ]);
        db
    }

    #[test]
    fn filter_and_project() {
        let db = galaxy_db();
        let r = db
            .run("SELECT specobjid FROM specobj WHERE class = 'GALAXY' AND z > 0.5")
            .unwrap();
        let ids: Vec<_> = r.rows.iter().map(|r| r[0].clone()).collect();
        assert_eq!(ids, vec![Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn wildcard_expansion() {
        let db = galaxy_db();
        let r = db.run("SELECT * FROM photoobj").unwrap();
        assert_eq!(r.columns, vec!["objid", "u", "r"]);
        assert_eq!(r.rows.len(), 3);
    }

    #[test]
    fn distinct_dedupes() {
        let db = galaxy_db();
        let r = db.run("SELECT DISTINCT class FROM specobj").unwrap();
        assert_eq!(r.rows.len(), 3);
    }

    #[test]
    fn group_by_count_and_having() {
        let db = galaxy_db();
        let r = db
            .run("SELECT class, COUNT(*) FROM specobj GROUP BY class HAVING COUNT(*) >= 2")
            .unwrap();
        assert_eq!(r.rows, vec![vec!["GALAXY".into(), Value::Int(3)]]);
    }

    #[test]
    fn aggregates_skip_nulls() {
        let db = galaxy_db();
        let r = db
            .run("SELECT COUNT(z), COUNT(*), AVG(z) FROM specobj")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Int(4));
        assert_eq!(r.rows[0][1], Value::Int(5));
        let avg = r.rows[0][2].as_f64().unwrap();
        assert!((avg - (0.7 + 1.5 + 0.0 + 2.5) / 4.0).abs() < 1e-9);
    }

    #[test]
    fn empty_group_count_is_zero_sum_is_null() {
        let db = galaxy_db();
        let r = db
            .run("SELECT COUNT(*), SUM(z) FROM specobj WHERE class = 'NOPE'")
            .unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(0), Value::Null]]);
    }

    #[test]
    fn inner_join_hash_path() {
        let db = galaxy_db();
        let r = db
            .run(
                "SELECT s.specobjid, p.objid FROM specobj AS s \
                 JOIN photoobj AS p ON s.bestobjid = p.objid",
            )
            .unwrap();
        assert_eq!(r.rows.len(), 3); // ids 1,2,5 match; 3 has no photo 30; 4 is NULL
    }

    #[test]
    fn left_join_pads_nulls() {
        let db = galaxy_db();
        let r = db
            .run(
                "SELECT s.specobjid, p.objid FROM specobj AS s \
                 LEFT JOIN photoobj AS p ON s.bestobjid = p.objid",
            )
            .unwrap();
        assert_eq!(r.rows.len(), 5);
        let unmatched: Vec<_> = r.rows.iter().filter(|r| r[1].is_null()).collect();
        assert_eq!(unmatched.len(), 2);
    }

    #[test]
    fn join_nested_loop_with_inequality() {
        let db = galaxy_db();
        let r = db
            .run(
                "SELECT s.specobjid FROM specobj AS s \
                 JOIN photoobj AS p ON s.bestobjid < p.objid WHERE s.specobjid = 3",
            )
            .unwrap();
        assert_eq!(r.rows.len(), 1); // 30 < 40 only
    }

    #[test]
    fn order_by_and_limit() {
        let db = galaxy_db();
        let r = db
            .run("SELECT specobjid, z FROM specobj WHERE z IS NOT NULL ORDER BY z DESC LIMIT 2")
            .unwrap();
        assert!(r.ordered);
        assert_eq!(r.rows[0][0], Value::Int(4));
        assert_eq!(r.rows[1][0], Value::Int(2));
    }

    #[test]
    fn order_by_aggregate() {
        let db = galaxy_db();
        let r = db
            .run("SELECT class FROM specobj GROUP BY class ORDER BY COUNT(*) DESC LIMIT 1")
            .unwrap();
        assert_eq!(r.rows, vec![vec!["GALAXY".into()]]);
    }

    #[test]
    fn order_by_alias() {
        let db = galaxy_db();
        let r = db
            .run("SELECT z AS redshift FROM specobj WHERE z IS NOT NULL ORDER BY redshift")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Float(0.0));
    }

    #[test]
    fn scalar_subquery_average() {
        let db = galaxy_db();
        let r = db
            .run("SELECT specobjid FROM specobj WHERE z > (SELECT AVG(z) FROM specobj)")
            .unwrap();
        // avg = 1.175; z>avg: 1.5 (id 2), 2.5 (id 4)
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn in_subquery() {
        let db = galaxy_db();
        let r = db
            .run(
                "SELECT specobjid FROM specobj WHERE bestobjid IN \
                 (SELECT objid FROM photoobj WHERE u - r > 3)",
            )
            .unwrap();
        // u-r: 1.5, 4.0, 0.5 → objid 20; specobj with bestobjid 20 = id 2
        assert_eq!(r.rows, vec![vec![Value::Int(2)]]);
    }

    #[test]
    fn not_in_subquery_with_null_probe() {
        let db = galaxy_db();
        // Row 4 has NULL bestobjid: NULL NOT IN (...) is NULL → filtered.
        let r = db
            .run(
                "SELECT specobjid FROM specobj WHERE bestobjid NOT IN \
                 (SELECT objid FROM photoobj)",
            )
            .unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(3)]]);
    }

    #[test]
    fn exists_subquery() {
        let db = galaxy_db();
        let r = db
            .run("SELECT COUNT(*) FROM specobj WHERE EXISTS (SELECT * FROM photoobj)")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Int(5));
    }

    #[test]
    fn union_and_intersect() {
        let db = galaxy_db();
        let r = db
            .run("SELECT class FROM specobj UNION SELECT class FROM specobj")
            .unwrap();
        assert_eq!(r.rows.len(), 3, "UNION dedupes");
        let r = db
            .run("SELECT class FROM specobj UNION ALL SELECT class FROM specobj")
            .unwrap();
        assert_eq!(r.rows.len(), 10, "UNION ALL keeps duplicates");
        let r = db
            .run(
                "SELECT class FROM specobj WHERE z > 1 \
                 INTERSECT SELECT class FROM specobj WHERE z < 1",
            )
            .unwrap();
        // GALAXY occurs on both sides (z=1.5 and z=0.7); QSO and STAR only
        // on one side each.
        assert_eq!(r.rows, vec![vec![Value::from("GALAXY")]]);
        let r = db
            .run("SELECT class FROM specobj EXCEPT SELECT class FROM specobj WHERE class = 'STAR'")
            .unwrap();
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn set_op_order_by_column_name() {
        let db = galaxy_db();
        let r = db
            .run(
                "SELECT class FROM specobj UNION SELECT class FROM specobj \
                 ORDER BY class DESC LIMIT 1",
            )
            .unwrap();
        assert_eq!(r.rows, vec![vec!["STAR".into()]]);
    }

    #[test]
    fn derived_table() {
        let db = galaxy_db();
        let r = db
            .run(
                "SELECT g.class, g.n FROM \
                 (SELECT class, COUNT(*) AS n FROM specobj GROUP BY class) AS g \
                 WHERE g.n >= 2",
            )
            .unwrap();
        assert_eq!(r.rows, vec![vec!["GALAXY".into(), Value::Int(3)]]);
    }

    #[test]
    fn between_and_in_list() {
        let db = galaxy_db();
        let r = db
            .run("SELECT specobjid FROM specobj WHERE z BETWEEN 0.5 AND 2 AND class IN ('GALAXY', 'QSO')")
            .unwrap();
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn unknown_table_and_column_errors() {
        let db = galaxy_db();
        assert!(matches!(
            db.run("SELECT * FROM nope"),
            Err(EngineError::UnknownTable(_))
        ));
        assert!(matches!(
            db.run("SELECT nope FROM specobj"),
            Err(EngineError::UnknownColumn(_))
        ));
        assert!(db.run("SELECT objid FROM specobj AS a JOIN photoobj AS b ON a.bestobjid = b.objid JOIN photoobj AS c ON a.bestobjid = c.objid").is_err());
    }

    #[test]
    fn aggregate_with_math_argument() {
        let db = galaxy_db();
        let r = db.run("SELECT AVG(u - r) FROM photoobj").unwrap();
        let avg = r.rows[0][0].as_f64().unwrap();
        assert!((avg - (1.5 + 4.0 + 0.5) / 3.0).abs() < 1e-9);
    }

    #[test]
    fn count_distinct() {
        let db = galaxy_db();
        let r = db.run("SELECT COUNT(DISTINCT class) FROM specobj").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(3));
    }

    #[test]
    fn group_expression_in_projection() {
        let db = galaxy_db();
        let r = db
            .run("SELECT class, MAX(z) - MIN(z) FROM specobj GROUP BY class ORDER BY class")
            .unwrap();
        assert_eq!(r.rows.len(), 3);
        let galaxy = &r.rows[0];
        assert_eq!(galaxy[0], Value::from("GALAXY"));
        assert!((galaxy[1].as_f64().unwrap() - 0.8).abs() < 1e-9);
    }

    // -----------------------------------------------------------------
    // Executor-option equivalence and pushdown semantics.

    /// Queries exercising scans, filters, joins (equi and not), left
    /// joins, grouping, subqueries and derived tables. Each equi-join
    /// case carries its nested-loop twin: the same statement with every
    /// `ON a = b` written `ON NOT (a <> b)`, which neither the planner
    /// nor the executor recognizes as a hash-join key.
    const STRATEGY_CASES: [(&str, Option<&str>); 8] = [
        (
            "SELECT specobjid FROM specobj WHERE class = 'GALAXY' AND z > 0.5",
            None,
        ),
        (
            "SELECT s.specobjid, p.objid FROM specobj AS s \
             JOIN photoobj AS p ON s.bestobjid = p.objid",
            Some(
                "SELECT s.specobjid, p.objid FROM specobj AS s \
                 JOIN photoobj AS p ON NOT (s.bestobjid <> p.objid)",
            ),
        ),
        (
            "SELECT s.specobjid, p.objid FROM specobj AS s \
             JOIN photoobj AS p ON s.bestobjid = p.objid \
             WHERE s.class = 'GALAXY' AND p.u - p.r < 2.22 AND p.u - p.r > 1",
            Some(
                "SELECT s.specobjid, p.objid FROM specobj AS s \
                 JOIN photoobj AS p ON NOT (s.bestobjid <> p.objid) \
                 WHERE s.class = 'GALAXY' AND p.u - p.r < 2.22 AND p.u - p.r > 1",
            ),
        ),
        (
            "SELECT s.specobjid, p.objid FROM specobj AS s \
             LEFT JOIN photoobj AS p ON s.bestobjid = p.objid WHERE p.objid IS NULL",
            Some(
                "SELECT s.specobjid, p.objid FROM specobj AS s \
                 LEFT JOIN photoobj AS p ON NOT (s.bestobjid <> p.objid) \
                 WHERE p.objid IS NULL",
            ),
        ),
        (
            "SELECT s.specobjid FROM specobj AS s \
             JOIN photoobj AS p ON s.bestobjid < p.objid WHERE s.specobjid = 3",
            None,
        ),
        (
            "SELECT class, COUNT(*) FROM specobj GROUP BY class HAVING COUNT(*) >= 2",
            None,
        ),
        (
            "SELECT specobjid FROM specobj WHERE bestobjid IN \
             (SELECT objid FROM photoobj) AND class = 'GALAXY' ORDER BY specobjid",
            None,
        ),
        (
            "SELECT g.class FROM (SELECT class, COUNT(*) AS n FROM specobj \
             GROUP BY class) AS g WHERE g.n >= 2",
            None,
        ),
    ];

    /// The columnar batch engine on (the default) and off.
    fn engine_variants() -> [ExecOptions; 2] {
        [
            ExecOptions::default(),
            ExecOptions {
                columnar: false,
                ..Default::default()
            },
        ]
    }

    #[test]
    fn all_strategies_agree_on_rows_and_order() {
        let db = galaxy_db();
        for (sql, twin) in STRATEGY_CASES {
            let baseline = db.run(sql).unwrap();
            let reference = crate::execute_reference(&db, &sb_sql::parse(sql).unwrap()).unwrap();
            assert!(
                baseline.same_result(&reference),
                "default options disagree with the reference on: {sql}"
            );
            for run in std::iter::once(sql).chain(twin) {
                for opts in engine_variants() {
                    let got = db.run_with(run, opts).unwrap();
                    // Strict equality: same rows in the same order, not
                    // just multiset equivalence.
                    assert_eq!(
                        baseline.rows, got.rows,
                        "options {opts:?} changed the result of: {run}"
                    );
                }
            }
        }
    }

    #[test]
    fn pushdown_keeps_left_join_null_padding() {
        let db = galaxy_db();
        // `p.objid IS NULL` references only the nullable side; pushing it
        // into the photoobj scan would keep no rows and pad everything.
        let r = db
            .run(
                "SELECT s.specobjid FROM specobj AS s \
                 LEFT JOIN photoobj AS p ON s.bestobjid = p.objid \
                 WHERE p.objid IS NULL",
            )
            .unwrap();
        let ids: Vec<_> = r.rows.iter().map(|row| row[0].clone()).collect();
        assert_eq!(ids, vec![Value::Int(3), Value::Int(4)]);
    }

    #[test]
    fn pushdown_preserves_ambiguity_errors() {
        let db = galaxy_db();
        let schema_dup = Schema::new("d")
            .with_table(TableDef::new("a", vec![Column::pk("id", ColumnType::Int)]))
            .with_table(TableDef::new("b", vec![Column::pk("id", ColumnType::Int)]));
        let mut dup = Database::new(schema_dup);
        dup.table_mut("a").unwrap().push_rows(vec![vec![1.into()]]);
        dup.table_mut("b").unwrap().push_rows(vec![vec![1.into()]]);
        // `id` is ambiguous across a and b: the planner must leave the
        // conjunct residual so it errors, not silently bind to one side.
        let sql = "SELECT a.id FROM a JOIN b ON a.id = b.id WHERE id = 1";
        let twin = "SELECT a.id FROM a JOIN b ON NOT (a.id <> b.id) WHERE id = 1";
        for run in [sql, twin] {
            for opts in engine_variants() {
                assert!(matches!(
                    dup.run_with(run, opts),
                    Err(EngineError::AmbiguousColumn(_))
                ));
            }
        }
        assert!(matches!(
            crate::execute_reference(&dup, &sb_sql::parse(sql).unwrap()),
            Err(EngineError::AmbiguousColumn(_))
        ));
        // Sanity: unambiguous qualified pushdown still works.
        let r = db
            .run(
                "SELECT s.specobjid FROM specobj AS s JOIN photoobj AS p \
                  ON s.bestobjid = p.objid WHERE s.class = 'STAR'",
            )
            .unwrap();
        assert!(r.rows.is_empty());
    }

    #[test]
    fn build_side_selection_matches_input_sizes() {
        // Left (5 rows) larger than right (3): the planner builds on the
        // right; flip the join order and it builds on the left. Either
        // way the results must agree with the nested-loop twin's.
        let db = galaxy_db();
        for (sql, twin) in [
            (
                "SELECT s.specobjid, p.objid FROM specobj AS s \
                 JOIN photoobj AS p ON s.bestobjid = p.objid",
                "SELECT s.specobjid, p.objid FROM specobj AS s \
                 JOIN photoobj AS p ON NOT (s.bestobjid <> p.objid)",
            ),
            (
                "SELECT s.specobjid, p.objid FROM photoobj AS p \
                 JOIN specobj AS s ON s.bestobjid = p.objid",
                "SELECT s.specobjid, p.objid FROM photoobj AS p \
                 JOIN specobj AS s ON NOT (s.bestobjid <> p.objid)",
            ),
        ] {
            let hash = db.run(sql).unwrap();
            let nested = db.run(twin).unwrap();
            assert_eq!(hash.rows, nested.rows, "strategy mismatch for: {sql}");
        }
    }

    #[test]
    fn conjunct_splitting_and_subquery_detection() {
        let q = sb_sql::parse(
            "SELECT specobjid FROM specobj WHERE class = 'GALAXY' AND z > 0.5 \
             AND bestobjid IN (SELECT objid FROM photoobj)",
        )
        .unwrap();
        let SetExpr::Select(select) = &q.body else {
            panic!("select expected")
        };
        let conj = sb_opt::conjuncts(select);
        assert_eq!(conj.len(), 3);
        assert!(!sb_opt::has_subquery(conj[0]));
        assert!(!sb_opt::has_subquery(conj[1]));
        assert!(sb_opt::has_subquery(conj[2]));
    }

    /// A prepared plan paired with another statement is ignored: that
    /// statement returns exactly what fresh planning gives, under both
    /// engines.
    #[test]
    fn mismatched_prepared_plan_is_planned_afresh() {
        let db = galaxy_db();
        let prepared =
            sb_sql::parse("SELECT specobjid FROM specobj WHERE class = 'GALAXY' AND z > 0.5")
                .unwrap();
        for opts in engine_variants() {
            let plan = plan_top_select(&db, &prepared, opts).expect("plannable statement");
            for sql in [
                // Fewer conjuncts than the plan's indices name.
                "SELECT specobjid FROM specobj WHERE class = 'GALAXY'",
                // Another relation count, with every conjunct index in range.
                "SELECT s.specobjid FROM specobj AS s JOIN photoobj AS p \
                 ON s.bestobjid = p.objid WHERE s.z > 0.5 AND s.class = 'GALAXY'",
            ] {
                let q = sb_sql::parse(sql).unwrap();
                let fresh = execute_with(&db, &q, opts);
                let reused = execute_with_plan_profile(&db, &q, opts, Some(&plan), None);
                assert_eq!(format!("{reused:?}"), format!("{fresh:?}"), "{sql}");
            }
        }
    }

    /// A prepared plan whose kept columns do not exist in the
    /// statement's relations is planned afresh too. The plan of the
    /// first statement keeps columns 0 and 3 of its first relation `a`
    /// (4 columns); the second statement's first relation is `b` (2
    /// columns).
    #[test]
    fn prepared_plan_with_out_of_range_columns_is_planned_afresh() {
        let int = |name: &str| Column::new(name, ColumnType::Int);
        let schema = Schema::new("t")
            .with_table(TableDef::new(
                "a",
                vec![
                    Column::pk("id", ColumnType::Int),
                    int("x"),
                    int("y"),
                    int("z"),
                ],
            ))
            .with_table(TableDef::new(
                "b",
                vec![Column::pk("id", ColumnType::Int), int("w")],
            ));
        let mut db = Database::new(schema);
        db.table_mut("a").unwrap().push_rows(vec![
            vec![1.into(), 0.into(), 0.into(), 10.into()],
            vec![2.into(), 0.into(), 0.into(), 20.into()],
            vec![3.into(), 0.into(), 0.into(), 10.into()],
        ]);
        db.table_mut("b").unwrap().push_rows(vec![
            vec![10.into(), 1.into()],
            vec![20.into(), 2.into()],
            vec![30.into(), 3.into()],
        ]);
        let prepared = sb_sql::parse("SELECT a.id FROM a JOIN b ON a.z = b.id").unwrap();
        let q = sb_sql::parse("SELECT b.id FROM b JOIN a ON b.id = a.z").unwrap();
        for opts in engine_variants() {
            let plan = plan_top_select(&db, &prepared, opts).expect("plannable statement");
            assert_eq!(plan.keep[0], Some(vec![0, 3]));
            let fresh = execute_with(&db, &q, opts);
            let reused = execute_with_plan_profile(&db, &q, opts, Some(&plan), None);
            assert_eq!(format!("{reused:?}"), format!("{fresh:?}"), "{opts:?}");
            assert_eq!(fresh.unwrap().rows.len(), 3);
        }
    }

    /// The fit check rejects every out-of-range index of a reordered
    /// plan: kept columns, join order, step relations and key columns.
    #[test]
    fn plan_fits_checks_reordered_steps() {
        use sb_opt::{EdgeKey, PlannedJoin, PlannedSelect};
        fn step(rel: usize, left_rel: usize, left_col: usize, right_col: usize) -> PlannedJoin {
            PlannedJoin {
                rel,
                key: Some(EdgeKey {
                    left_rel,
                    left_col,
                    right_col,
                }),
                build_left: false,
                est_rows: 1.0,
            }
        }
        // a(3) JOIN b(2) JOIN c(4), executed as c, b, a.
        let widths = [3, 2, 4];
        let fit = PlannedSelect {
            pushed: vec![vec![0], Vec::new(), Vec::new()],
            residual: vec![1],
            keep: vec![Some(vec![0, 2]), None, Some(vec![1])],
            order: vec![2, 1, 0],
            steps: vec![step(1, 2, 1, 0), step(0, 1, 1, 2)],
            reordered: true,
            scan_est: vec![1.0; 3],
        };
        assert!(plan_fits(&fit, &widths, 2));
        assert!(!plan_fits(&fit, &widths, 1), "conjunct 1 out of range");
        assert!(!plan_fits(&fit, &widths[..2], 2), "relation count");
        type Break = fn(&mut PlannedSelect);
        let broken: [(&str, Break); 7] = [
            ("kept column past the width", |p| p.keep[1] = Some(vec![2])),
            ("order not a permutation", |p| p.order = vec![2, 1, 1]),
            ("step joins another relation", |p| p.steps[0].rel = 0),
            ("probe side not yet joined", |p| {
                p.steps[0] = step(1, 0, 0, 0)
            }),
            ("probe column not kept", |p| p.steps[0] = step(1, 2, 0, 0)),
            ("build column past the width", |p| {
                p.steps[0] = step(1, 2, 1, 2)
            }),
            ("step without a key", |p| p.steps[1].key = None),
        ];
        for (what, breaks) in broken {
            let mut p = fit.clone();
            breaks(&mut p);
            assert!(!plan_fits(&p, &widths, 2), "{what}");
        }
    }
}
