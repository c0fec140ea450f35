//! The query executor.
//!
//! Every FROM relation is a column image ([`crate::column`]): a base
//! table's own, or a derived table's result built into one. Scans yield
//! selection vectors of row ids; on single-relation predicates the
//! executor pushes WHERE conjuncts down into the scan, so non-qualifying
//! rows are dropped before any join. Joins combine row ids through the
//! join layer both executors share ([`crate::join`]), following the
//! plan's keys: a keyed join (`ON a = b`) runs as a hash join that
//! builds on the incoming relation, anything else (non-equi
//! constraints, cross joins) as a nested loop.
//! Output row order is identical for both algorithms (left-major, scan
//! order within a match set), which the equivalence tests rely on. Rows
//! are built only for the joined tuples, holding only the columns the
//! statement references.
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
//! (predicate and projection pushdown, join reordering)
//! and its expressions run compiled. [`ExecOptions`] can turn the
//! columnar batch engine and its morsel parallelism off; the
//! differential tests use those axes, plus query twins whose join
//! constraints only the nested loop can run, to check every path
//! against the reference interpreter ([`crate::reference`]).
//!
//! Operators record their work only in the statement's
//! [`QueryProfile`] slots. With `SB_OBS` on, [`execute_capped`] attaches
//! a statement-local profile when the caller gave none and folds the
//! blocks it ran into the `engine.*` counters on exit
//! ([`sb_obs::fold_engine_counters`]); with `SB_OBS` off that is one
//! relaxed atomic load per statement, and the kernels are the same
//! either way.

use crate::batch::ParConfig;
use crate::column::ColumnarTable;
use crate::compile::{compile, compile_grouped, compile_order_key, CExpr, GExpr, OrderProg};
use crate::database::Database;
use crate::error::{EngineError, Result};
use crate::eval::{truth, EvalContext, Scope};
use crate::join::{self, ColId};
use crate::key::{self, KeyIndex, RowSet};
use crate::output::{finish_select, OutCol, Projected, SortKey};
use crate::result::ResultSet;
use crate::value::Value;
use sb_obs::{Block, FixedOp, OpStats, QueryProfile};
use sb_schema::TableDef;
use sb_sql::{
    AggFunc, ColumnRef, Expr, OrderItem, Query, Select, SelectItem, SetExpr, SetOp, TableFactor,
    TableRef,
};
use std::borrow::Cow;
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
    /// The effective parallel configuration for one batch execution.
    /// Workers come from the explicit override, else the rayon shim
    /// (`RAYON_NUM_THREADS` / cores); morsel size from the explicit
    /// override, else `SB_MORSEL_ROWS`, else 64K rows. `parallel: false`
    /// pins one worker.
    pub(crate) fn par_config(&self) -> ParConfig {
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
        ParConfig {
            workers: workers.max(1),
            morsel_rows: morsel_rows.max(1),
        }
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
    execute_with_plan_profile(db, query, opts, None, prof)
}

/// [`execute_capped`] without a row cap.
pub fn execute_with_plan_profile(
    db: &Database,
    query: &Query,
    opts: ExecOptions,
    plan: Option<&sb_opt::PlannedSelect>,
    prof: Option<&QueryProfile>,
) -> Result<ResultSet> {
    execute_capped(db, query, opts, plan, prof, usize::MAX).map(|(rs, _)| rs)
}

/// [`execute_with_profile`] under a row cap, reusing a top-level plan
/// prepared by [`plan_top_select`] instead of planning afresh. Returns
/// the first `row_cap` rows of the result and the result's full row
/// count. Rows past the cap are never built; everything else runs as
/// uncapped, so the rows are the uncapped result's first `row_cap`,
/// and errors and the profile are the same.
///
/// The plan is borrowed as it is, so a prepared-plan cache hit plans
/// and copies nothing. It must come from the *same* statement against
/// the *same* database snapshot; a plan whose relation count, conjunct
/// indices, kept columns or join steps do not fit the statement is
/// ignored and the statement planned afresh, so a plan from another
/// statement can make the executor neither panic nor read a column out
/// of range. Set operations ignore the plan entirely. The serve layer
/// runs every request through here, so the plan cache, the row cap and
/// profiling compose.
pub fn execute_capped(
    db: &Database,
    query: &Query,
    opts: ExecOptions,
    plan: Option<&sb_opt::PlannedSelect>,
    prof: Option<&QueryProfile>,
    row_cap: usize,
) -> Result<(ResultSet, usize)> {
    // Every public `execute*` entry point ends here. Under `SB_OBS`,
    // profile the statement (in the caller's profile, else a local one)
    // and fold the blocks this call began into the `engine.*` counters,
    // whether the statement succeeded or failed.
    if !sb_obs::enabled() {
        return run_query(db, query, opts, plan, prof, row_cap);
    }
    let local = QueryProfile::new();
    let prof = prof.unwrap_or(&local);
    let first = prof.block_count();
    let out = run_query(db, query, opts, plan, Some(prof), row_cap);
    sb_obs::fold_engine_counters(&prof.snapshot().blocks[first..]);
    out
}

fn run_query(
    db: &Database,
    query: &Query,
    opts: ExecOptions,
    plan: Option<&sb_opt::PlannedSelect>,
    prof: Prof<'_>,
    cap: usize,
) -> Result<(ResultSet, usize)> {
    let (order_by, limit) = (&query.order_by[..], query.limit);
    match &query.body {
        SetExpr::Select(select) => {
            execute_select_impl(db, select, order_by, limit, cap, opts, plan, prof)
        }
        SetExpr::SetOp { .. } => {
            let rs = execute_set_expr(db, &query.body, opts, prof)?;
            let keys = output_order_keys(&rs.columns, order_by)?;
            let projected = Projected::from_rows(rs.columns, rs.rows, keys);
            Ok(finish_select(false, order_by, limit, cap, projected, None))
        }
    }
}

/// Plan the top-level `SELECT` of a query for reuse: the
/// prepared-statement path of `sb-serve` calls this once per normalized
/// statement and hands the plan back to [`execute_capped`] on every
/// subsequent request.
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
    execute_with_plan_profile(db, query, opts, None, None)
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
        SetExpr::Select(s) => {
            execute_select_impl(db, s, &[], None, usize::MAX, opts, None, prof).map(|(rs, _)| rs)
        }
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
pub(crate) struct Relation<'a> {
    pub(crate) binding: String,
    pub(crate) columns: Vec<String>,
    /// The base table's definition; `None` for a derived table.
    pub(crate) def: Option<&'a TableDef>,
    /// The relation's rows: a base table's image, or the image of a
    /// derived table's result.
    pub(crate) image: Cow<'a, ColumnarTable>,
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
                def: Some(&table.def),
                image: Cow::Borrowed(table.columnar()),
            })
        }
        TableFactor::Derived(q) => {
            let alias = derived_alias(tr)?;
            // The derived query's SELECT blocks register in the profile
            // here, i.e. after the enclosing block and in FROM/JOIN
            // order — exactly the walk `explain_with_profile` replays.
            let (rs, _) = run_query(db, q, opts, None, prof, usize::MAX)?;
            Ok(Relation {
                binding: alias,
                image: Cow::Owned(crate::database::image_of_rows(rs.columns.len(), rs.rows)),
                columns: rs.columns,
                def: None,
            })
        }
    }
}

/// A derived table's binding: its alias, which SQL requires.
pub(crate) fn derived_alias(tr: &TableRef) -> Result<String> {
    let missing = || EngineError::Unsupported("derived table requires an alias".into());
    tr.alias.clone().ok_or_else(missing)
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
                let ColId { rel, col } = self.0.locate(idx);
                sb_opt::Resolution::Col { rel, col }
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
    /// The prepared plan, borrowed, or the one planned here.
    pub(crate) planned: Cow<'p, sb_opt::PlannedSelect>,
}

/// Resolve a `SELECT`'s FROM relations (derived tables execute here, in
/// FROM/JOIN order), build their full scope, and plan the statement
/// over them through [`plan_input`] — unless the caller has a
/// `prepared` plan, which is reused as it is. Execution and the serve
/// layer's prepare step plan through here, and EXPLAIN through
/// [`plan_input`], so they cannot disagree about a plan. The metadata
/// the planner sees is each relation's live row count (derived tables
/// are already materialized) and base-table primary-key uniqueness for
/// the cost model's distinct estimates.
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
    // A prepared plan names conjuncts, columns and relations by index;
    // one that does not fit this statement (a caller paired it with
    // another one) is dropped, and the statement is planned afresh.
    let widths: Vec<usize> = relations.iter().map(|r| r.columns.len()).collect();
    let n_conjuncts = sb_opt::conjuncts(select).len();
    if let Some(p) = prepared.filter(|p| plan_fits(p, &widths, n_conjuncts)) {
        let mut scope = Scope::default();
        for rel in &relations {
            scope.push(&rel.binding, rel.columns.clone());
        }
        return Ok(PlannedFrom {
            relations,
            scope,
            planned: Cow::Borrowed(p),
        });
    }
    let metas: Vec<sb_opt::RelMeta> = relations
        .iter()
        .map(|r| rel_meta(&r.binding, &r.columns, r.def, r.image.len))
        .collect();
    let (scope, input) = plan_input(select, order_by, limit, opts, &metas);
    let planned = Cow::Owned(sb_opt::plan_select(&input, &ScopeResolver(&scope)));
    Ok(PlannedFrom {
        relations,
        scope,
        planned,
    })
}

/// What the planner knows of one relation: its binding, column names
/// and row count, and a base table's primary-key columns.
pub(crate) fn rel_meta(
    binding: &str,
    columns: &[String],
    def: Option<&TableDef>,
    rows: usize,
) -> sb_opt::RelMeta {
    sb_opt::RelMeta {
        binding: binding.to_string(),
        table: def.map(|d| d.name.clone()),
        columns: (columns.iter().enumerate())
            .map(|(i, name)| sb_opt::ColMeta {
                name: name.clone(),
                unique: def.is_some_and(|d| d.columns[i].primary_key),
            })
            .collect(),
        rows,
    }
}

/// The planner's input for one `SELECT` over relations `metas`, and
/// their full scope, which name resolution inside the planner delegates
/// to, so pushdown and reorder decisions see exactly what the residual
/// filter would. The scope grows one relation at a time, and each
/// written join's key is decided against the prefix the join sees —
/// the relations joined so far and the one it introduces — with
/// [`join::constraint_columns`] and [`join::equi_key`]. This is the one
/// place a join's algorithm is chosen: both executors and EXPLAIN
/// follow the plan's keys.
pub(crate) fn plan_input<'s>(
    select: &'s Select,
    order_by: &'s [OrderItem],
    limit: Option<u64>,
    opts: ExecOptions,
    metas: &'s [sb_opt::RelMeta],
) -> (Scope, sb_opt::PlanInput<'s>) {
    let mut scope = Scope::default();
    let mut join_keys = Vec::with_capacity(select.joins.len());
    for (i, m) in metas.iter().enumerate() {
        scope.push(
            &m.binding,
            m.columns.iter().map(|c| c.name.clone()).collect(),
        );
        let Some(join) = i.checked_sub(1).map(|j| &select.joins[j]) else {
            continue;
        };
        // A constraint that does not resolve has no key: the nested
        // loop raises its error when the join runs.
        join_keys.push(join.constraint.as_ref().and_then(|c| {
            let cols = join::constraint_columns(c, &scope).ok()?;
            join::equi_key(c, &cols, &scope)
        }));
    }
    let input = sb_opt::PlanInput {
        select,
        order_by,
        limit,
        rels: metas,
        join_keys,
        opts: opts.opt_options(),
    };
    (scope, input)
}

/// Whether a prepared plan fits a statement whose relations have
/// `widths` columns and whose WHERE has `n_conjuncts` conjuncts: one
/// entry per relation in every per-relation list, every conjunct index
/// and kept column in range, the join order a permutation (the identity
/// unless reordered), and every step joining the next relation of that
/// order on key columns that are in range, kept, and (on the probe
/// side) already joined — a key every reordered step has.
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
        && (p.reordered || p.order.iter().copied().eq(0..n))
        && p.steps.iter().enumerate().all(|(i, step)| {
            step.rel == p.order[i + 1]
                && (step.key.is_some() || !p.reordered)
                && step.key.is_none_or(|key| {
                    p.order[..=i].contains(&key.left_rel)
                        && kept(key.left_rel, key.left_col)
                        && kept(step.rel, key.right_col)
                })
        })
}

/// Scan one relation: the row ids that pass its pushed-down conjuncts
/// (indices into the statement's `conjuncts`), ascending. The columns
/// the conjuncts read go into one reused buffer per row.
fn scan_relation(
    rel: &Relation<'_>,
    pushed: &[usize],
    conjuncts: &[&Expr],
    ctx: &EvalContext,
    prof_op: Option<&OpStats>,
) -> Result<Vec<u32>> {
    let image = &*rel.image;
    let mut local = Scope::default();
    local.push(&rel.binding, rel.columns.clone());
    // Compile pushed conjuncts once against the single-relation scope.
    let progs: Vec<CExpr> = pushed
        .iter()
        .map(|&c| compile(conjuncts[c], &local, ctx))
        .collect();
    // Compiled conjuncts read only the slots their column references
    // resolve to (subqueries are uncorrelated).
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
    let mut buf = vec![Value::Null; rel.columns.len()];
    let mut sel = Vec::new();
    'row: for r in 0..image.len {
        for &c in &read {
            buf[c] = image.columns[c].value_at(r);
        }
        for prog in &progs {
            if !prog.eval_filter(&buf, ctx)? {
                continue 'row;
            }
        }
        sel.push(r as u32);
    }
    if let Some(op) = prof_op {
        op.rows(image.len as u64, sel.len() as u64);
    }
    Ok(sel)
}

/// Rows an output build fills column by column.
const ROW_BLOCK: usize = 256;

/// The joined rows: per tuple of `rowids` (one row-id column per
/// relation), the `keep` columns of every relation in FROM/JOIN order
/// (`None` keeps them all). Column at a time within blocks of rows that
/// stay in cache: one variant dispatch per column and block.
fn build_rows(
    tables: &[&ColumnarTable],
    rowids: &[Vec<u32>],
    keep: &[Option<Vec<usize>>],
) -> Vec<Vec<Value>> {
    let kept: Vec<Vec<usize>> = tables
        .iter()
        .zip(keep)
        .map(|(t, k)| k.clone().unwrap_or_else(|| (0..t.columns.len()).collect()))
        .collect();
    let width = kept.iter().map(Vec::len).sum();
    let len = rowids[0].len();
    let mut rows: Vec<Vec<Value>> = Vec::with_capacity(len);
    for lo in (0..len).step_by(ROW_BLOCK) {
        let hi = (lo + ROW_BLOCK).min(len);
        let start = rows.len();
        rows.extend((lo..hi).map(|_| Vec::with_capacity(width)));
        for ((table, rids), cols) in tables.iter().zip(rowids).zip(&kept) {
            for &c in cols {
                table.columns[c].push_cells(&rids[lo..hi], &mut rows[start..]);
            }
        }
    }
    rows
}

/// The output column names of a `SELECT` list over `scope`: an item's
/// alias, else its SQL text, and `*` every column of the scope. Both
/// executors name their output with it, and EXPLAIN a derived table's
/// columns.
pub(crate) fn output_columns(projections: &[SelectItem], scope: &Scope) -> Vec<String> {
    let mut columns = Vec::new();
    for item in projections {
        match item {
            SelectItem::Wildcard => columns.extend(scope.all_columns()),
            SelectItem::Expr { expr, alias } => {
                columns.push(alias.clone().unwrap_or_else(|| expr.to_string()))
            }
        }
    }
    columns
}

/// Run one `SELECT` and its ORDER BY / LIMIT, building rows only for
/// the first `cap` rows of the result; returns them with the result's
/// row count before the cap.
#[allow(clippy::too_many_arguments)]
fn execute_select_impl(
    db: &Database,
    select: &Select,
    order_by: &[OrderItem],
    limit: Option<u64>,
    cap: usize,
    opts: ExecOptions,
    prepared: Option<&sb_opt::PlannedSelect>,
    prof: Prof<'_>,
) -> Result<(ResultSet, usize)> {
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
            limit,
            cap,
            scope: &full_scope,
            relations: &relations,
            planned: &planned,
            conjuncts: &conjuncts,
            par: opts.par_config(),
            bp,
            ctx: &ctx,
        };
        if let Some(out) = crate::batch::try_select(&input) {
            if let Some(bp) = &bp {
                bp.set_columnar(true);
            }
            return Ok(out);
        }
        if let Some(bp) = &bp {
            // The batch path may have recorded operators before bailing;
            // zero them so the row-engine retry doesn't double-count.
            bp.reset();
            bp.set_fallback("kernel");
        }
    }

    let mut sels = Vec::with_capacity(relations.len());
    for (i, (rel, pushed)) in relations.iter().zip(&planned.pushed).enumerate() {
        let prof_op = bp.as_ref().and_then(|b| b.scan(i));
        let t0 = prof_clock(&bp);
        sels.push(scan_relation(rel, pushed, &conjuncts, &ctx, prof_op)?);
        prof_elapsed(t0, prof_op);
    }
    let tables: Vec<&ColumnarTable> = relations.iter().map(|r| &*r.image).collect();
    let par = opts.par_config().one_morsel();
    let (joins, scope, bp_ref) = (&select.joins, &full_scope, bp.as_ref());
    let rowids = join::join_steps(&tables, sels, &planned, joins, scope, &ctx, par, bp_ref)?;

    // Projection pushdown: rows hold only the columns the planner proved
    // are referenced (by name, so ambiguity errors and ORDER BY alias
    // resolution behave identically on the narrowed scope).
    let mut scope = Scope::default();
    for (rel, keep) in relations.iter().zip(&planned.keep) {
        let columns = match keep {
            Some(kept) => kept.iter().map(|&c| rel.columns[c].clone()).collect(),
            None => rel.columns.clone(),
        };
        scope.push(&rel.binding, columns);
    }
    let mut rows = build_rows(&tables, &rowids, &planned.keep);

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
        op.rows(agg_in as u64, projected.row_count() as u64);
        prof_elapsed(t0, Some(op));
    }
    Ok(finish_select(
        select.distinct,
        order_by,
        limit,
        cap,
        projected,
        bp,
    ))
}

/// A compiled projection item.
enum ProjProg<'q> {
    Wildcard,
    Expr(CExpr<'q>),
}

/// Non-aggregate path: project each row, computing sort keys in-scope,
/// and hand the values over column by column.
fn execute_plain(
    select: &Select,
    order_by: &[OrderItem],
    scope: &Scope,
    rows: Vec<Vec<Value>>,
    ctx: &EvalContext,
) -> Result<Projected<'static>> {
    let columns = output_columns(&select.projections, scope);
    // A bare `SELECT *` needs no per-cell work: the row's values move
    // into the output columns as they are.
    let passthrough =
        matches!(select.projections[..], [SelectItem::Wildcard]) && order_by.is_empty();
    if passthrough {
        return Ok(Projected::from_rows(columns, rows, Vec::new()));
    }
    let mut cols: Vec<Vec<Value>> = (0..columns.len())
        .map(|_| Vec::with_capacity(rows.len()))
        .collect();
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
    // An alias key reads its output column; every other key is
    // evaluated per row.
    let mut keys: Vec<SortKey> = order_progs
        .iter()
        .map(|prog| match prog {
            OrderProg::Projected(i) => SortKey::Output(*i),
            OrderProg::Expr(_) => SortKey::Values(Vec::with_capacity(rows.len())),
        })
        .collect();
    let mut out = Vec::with_capacity(columns.len());
    for row in &rows {
        for proj in &projs {
            match proj {
                ProjProg::Wildcard => out.extend(row.iter().cloned()),
                ProjProg::Expr(prog) => out.push(prog.eval(row, ctx)?.into_value()),
            }
        }
        for (prog, key) in order_progs.iter().zip(&mut keys) {
            if let (OrderProg::Expr(prog), SortKey::Values(key)) = (prog, key) {
                key.push(prog.eval(row, ctx)?);
            }
        }
        for (col, v) in cols.iter_mut().zip(out.drain(..)) {
            col.push(v);
        }
    }
    Ok(Projected {
        columns,
        out: cols.into_iter().map(OutCol::Values).collect(),
        keys,
        len: rows.len(),
        rows: None,
    })
}

/// Aggregate path: group, filter with HAVING, project per group.
fn execute_grouped(
    select: &Select,
    order_by: &[OrderItem],
    scope: &Scope,
    rows: Vec<Vec<Value>>,
    ctx: &EvalContext,
    agg_op: Option<&OpStats>,
) -> Result<Projected<'static>> {
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

    if (select.projections.iter()).any(|p| matches!(p, SelectItem::Wildcard)) {
        return Err(EngineError::Unsupported(
            "SELECT * with GROUP BY / aggregates".into(),
        ));
    }
    let columns = output_columns(&select.projections, scope);

    let mut cols: Vec<Vec<Value>> = vec![Vec::new(); columns.len()];
    let mut keys: Vec<Vec<Value>> = vec![Vec::new(); order_by.len()];
    let mut len = 0;
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
        for (col, prog) in cols.iter_mut().zip(&projs) {
            col.push(prog.eval(group, ctx)?);
        }
        for (col, prog) in keys.iter_mut().zip(&order_progs) {
            col.push(prog.eval(group, ctx)?);
        }
        len += 1;
    }
    Ok(Projected {
        columns,
        len,
        out: cols.into_iter().map(OutCol::Values).collect(),
        keys: keys.into_iter().map(SortKey::Values).collect(),
        rows: None,
    })
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

/// A set operation's ORDER BY keys: output columns named by output
/// column name or 1-based ordinal. Validated even when the result has
/// no rows to sort: `ORDER BY 5` over two columns is an error, not a
/// no-op.
fn output_order_keys(columns: &[String], order_by: &[OrderItem]) -> Result<Vec<SortKey>> {
    let mut keys = Vec::with_capacity(order_by.len());
    for item in order_by {
        let idx = match &item.expr {
            Expr::Column(c) if c.table.is_none() => columns
                .iter()
                .position(|name| name.eq_ignore_ascii_case(&c.column))
                .ok_or_else(|| EngineError::UnknownColumn(c.column.clone()))?,
            Expr::Literal(sb_sql::Literal::Int(n)) if *n >= 1 => {
                let idx = (*n as usize) - 1;
                if idx >= columns.len() {
                    return Err(EngineError::UnknownColumn(format!(
                        "ORDER BY position {n} of {} columns",
                        columns.len()
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
        keys.push(SortKey::Output(idx));
    }
    Ok(keys)
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
    fn hash_joins_agree_with_nested_loops_in_either_order() {
        // The hash join builds on the incoming relation: the 3-row
        // photoobj first, then the 5-row specobj. Either way the results
        // must agree with the nested-loop twin's.
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
        // Source-order steps whose keys the executors would follow into
        // a panic: a build column out of range, and a probe relation
        // the step precedes. The LEFT JOIN keeps the plan in source
        // order.
        let q = sb_sql::parse(
            "SELECT s.specobjid, p.objid, t.specobjid FROM specobj AS s \
             JOIN photoobj AS p ON s.bestobjid = p.objid \
             LEFT JOIN specobj AS t ON t.bestobjid = p.objid",
        )
        .unwrap();
        type Break = fn(&mut sb_opt::EdgeKey);
        let broken: [Break; 2] = [|k| k.right_col = 99, |k| k.left_rel = 2];
        for opts in engine_variants() {
            let fresh = execute_with(&db, &q, opts);
            assert_eq!(fresh.as_ref().unwrap().rows.len(), 5);
            let mut plan = plan_top_select(&db, &q, opts).expect("plannable statement");
            assert!(!plan.reordered);
            let key = plan.steps[0].key.expect("equi-join step");
            for breaks in broken {
                let mut bad = key;
                breaks(&mut bad);
                plan.steps[0].key = Some(bad);
                let reused = execute_with_plan_profile(&db, &q, opts, Some(&plan), None);
                assert_eq!(format!("{reused:?}"), format!("{fresh:?}"), "{bad:?}");
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
