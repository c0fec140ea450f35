//! Fuzzed invariant: for every statement the engine executes
//! successfully, the recorded [`sb_obs::QueryProfile`] must satisfy
//! row-flow **conservation** — each operator's output feeds the next
//! operator's input exactly, across every execution configuration.
//!
//! Per domain, `SB_FUZZ_COUNT` generated statements (default 500, same
//! base seeds as the differential campaign) run under a curated set of
//! exec-option axes spanning the row path, serial columnar kernels and
//! morsel-parallel execution, and each statement's nested-loop twin
//! ([`sb_fuzz::nested_loop_twin`]) and the statement read as a derived
//! table (`SELECT * FROM (…) AS d`) run under the default options. For
//! each success:
//!
//! - `ProfileSnapshot::check_conservation()` holds: every reserved scan
//!   was touched, join step `j`'s `rows_in` equals its recorded
//!   left-input rows plus the probed scan's `rows_out`, and the
//!   filter → aggregate → distinct → order chain hands off exactly;
//! - in a top-level `SELECT`, each scan's `rows_in` equals its
//!   relation's row count: a base table's length, or the row count of a
//!   derived query executed on its own — the profile measures the real
//!   input, not a post-filtered view, and EXPLAIN ANALYZE plans derived
//!   relations from these counts;
//! - EXPLAIN ANALYZE labels each join the way it ran: in
//!   `explain_with_profile`'s rendering, a join line reads `HashJoin`
//!   exactly where its recorded join slot marks a hash join;
//! - blocks are present exactly because a profile was requested
//!   (`execute_with_profile(.., None)` is separately pinned byte-equal
//!   in `tests/engine_equivalence.rs`).
//!
//! Errors are skipped: a failed statement abandons its block
//! mid-record, so no flow invariant is owed.

use sb_data::Domain;
use sb_engine::{execute_with, execute_with_profile, explain_with_profile, Database, ExecOptions};
use sb_fuzz::{fuzz_database, nested_loop_twin, QueryGenerator};
use sb_obs::{BlockSnapshot, QueryProfile};
use sb_sql::{Query, SetExpr, TableFactor, TableRef};

const DEFAULT_COUNT: usize = 500;

fn fuzz_count() -> usize {
    std::env::var("SB_FUZZ_COUNT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_COUNT)
}

/// The exec-option axes: one representative per code path the profile
/// plumbing threads through (row/columnar/parallel).
fn axes() -> Vec<(&'static str, ExecOptions)> {
    let base = ExecOptions::default();
    vec![
        ("default", base),
        (
            "row",
            ExecOptions {
                columnar: false,
                parallel: false,
                ..base
            },
        ),
        (
            "parallel-3",
            ExecOptions {
                parallel: true,
                workers: 3,
                morsel_rows: 7,
                ..base
            },
        ),
    ]
}

/// The top-level `FROM`/`JOIN` factors, in scan order — or `None` when
/// the body is a set operation (scan order then interleaves across
/// blocks).
fn top_level_factors(query: &Query) -> Option<Vec<&TableRef>> {
    let SetExpr::Select(select) = &query.body else {
        return None;
    };
    Some(
        std::iter::once(&select.from)
            .chain(select.joins.iter().map(|j| &j.table))
            .collect(),
    )
}

fn check_campaign(domain: Domain, base_seed: u64) {
    let db = fuzz_database(domain);
    let mut gen = QueryGenerator::new(&db, base_seed);
    let queries: Vec<_> = (0..fuzz_count()).map(|_| gen.query()).collect();

    let mut checked = 0usize;
    for (qi, query) in queries.iter().enumerate() {
        let twin = nested_loop_twin(query);
        let derived = sb_sql::parse(&format!("SELECT * FROM ({query}) AS d")).ok();
        let runs = axes()
            .into_iter()
            .map(|(axis, opts)| (axis, opts, query))
            .chain(
                twin.as_ref()
                    .map(|t| ("nested-loop twin", ExecOptions::default(), t)),
            )
            .chain((derived.as_ref()).map(|d| ("derived table", ExecOptions::default(), d)));
        for (axis, opts, query) in runs {
            let prof = QueryProfile::new();
            if execute_with_profile(&db, query, opts, Some(&prof)).is_err() {
                continue;
            }
            let snap = prof.snapshot();
            assert!(
                !snap.blocks.is_empty(),
                "{} #{qi} [{axis}]: successful profiled run recorded no blocks: {query}",
                domain.name()
            );
            snap.check_conservation().unwrap_or_else(|e| {
                panic!(
                    "{} #{qi} [{axis}]: conservation violated ({e}) for: {query}",
                    domain.name()
                )
            });
            let at = format!("{} #{qi} [{axis}]", domain.name());
            let factors = top_level_factors(query);
            check_scan_inputs(&db, &snap, factors.as_deref(), opts, &at, query);
            check_join_labels(&db, &prof, &snap, opts, &at, query);
            checked += 1;
        }
    }
    assert!(
        checked > fuzz_count(),
        "{}: campaign executed too few statements successfully ({checked})",
        domain.name()
    );
}

/// Scan `rows_in` must equal the relation's row count for the top-level
/// block — every row enters the scan; selection happens on the way out.
/// A derived relation's count is its query's, executed on its own.
fn check_scan_inputs(
    db: &Database,
    snap: &sb_obs::ProfileSnapshot,
    factors: Option<&[&TableRef]>,
    opts: ExecOptions,
    at: &str,
    query: &Query,
) {
    let (Some(factors), Some(block)) = (factors, snap.blocks.first()) else {
        return;
    };
    if !block.slotted {
        return;
    }
    for (i, tr) in factors.iter().enumerate() {
        let Some(op) = block.scans.get(i).copied().flatten() else {
            continue;
        };
        let expected = match &tr.factor {
            TableFactor::Table(name) => db
                .table(name)
                .unwrap_or_else(|| panic!("{at}: unknown table `{name}`"))
                .len(),
            TableFactor::Derived(q) => execute_with(db, q, opts)
                .unwrap_or_else(|e| panic!("{at}: derived query {q} failed on its own: {e}"))
                .rows
                .len(),
        } as u64;
        assert_eq!(
            op.rows_in, expected,
            "{at}: scan {i} rows_in {} != relation rows {expected} for: {query}",
            op.rows_in
        );
    }
}

/// The join lines of `explain_with_profile`'s rendering, in order, read
/// `HashJoin` exactly where the recorded join slot marks a hash join,
/// and `NestedLoopJoin` or `CrossJoin` where it does not.
fn check_join_labels(
    db: &Database,
    prof: &QueryProfile,
    snap: &sb_obs::ProfileSnapshot,
    opts: ExecOptions,
    at: &str,
    query: &Query,
) {
    if snap.blocks.iter().any(|b| !b.slotted) {
        return;
    }
    let text = explain_with_profile(db, query, opts, prof, false)
        .unwrap_or_else(|e| panic!("{at}: explain_with_profile failed ({e}) for: {query}"));
    let labelled: Vec<bool> = text
        .lines()
        .filter_map(|line| {
            let label = line.trim_start_matches([' ', '│', '├', '└', '─']);
            let is = |op: &str| label.starts_with(op);
            if is("HashJoin") {
                Some(true)
            } else if is("NestedLoopJoin") || is("CrossJoin") {
                Some(false)
            } else {
                None
            }
        })
        .collect();
    let mut ran = Vec::new();
    joins_in_render_order(&query.body, &snap.blocks, &mut 0, &mut ran);
    assert_eq!(
        labelled, ran,
        "{at}: join labels (true = HashJoin) disagree with the recorded joins for: {query}\n{text}"
    );
}

/// Whether each recorded join step was a hash join, in the order EXPLAIN
/// renders join lines: blocks are consumed in recording order (a SELECT,
/// then its derived tables in FROM/JOIN order; set-operation leaves left
/// to right), and a SELECT renders its steps last to first, then each
/// relation's subplan in execution order, which the join slots' links
/// record.
fn joins_in_render_order(
    body: &SetExpr,
    blocks: &[BlockSnapshot],
    cursor: &mut usize,
    out: &mut Vec<bool>,
) {
    let select = match body {
        SetExpr::Select(select) => select,
        SetExpr::SetOp { left, right, .. } => {
            joins_in_render_order(left, blocks, cursor, out);
            joins_in_render_order(right, blocks, cursor, out);
            return;
        }
    };
    let block = &blocks[*cursor];
    *cursor += 1;
    let factors = std::iter::once(&select.from).chain(select.joins.iter().map(|j| &j.table));
    let subplans: Vec<Vec<bool>> = factors
        .map(|tr| {
            let mut sub = Vec::new();
            if let TableFactor::Derived(q) = &tr.factor {
                joins_in_render_order(&q.body, blocks, cursor, &mut sub);
            }
            sub
        })
        .collect();
    let joins: Vec<_> = block
        .joins
        .iter()
        .map(|j| j.expect("a successful statement records every join step"))
        .collect();
    out.extend(joins.iter().rev().map(|j| j.marked));
    let order: Vec<usize> = match joins.first() {
        Some(first) => std::iter::once(first.lhs)
            .chain(joins.iter().map(|j| j.rhs))
            .map(|r| r.expect("join steps link their relations"))
            .collect(),
        None => vec![0],
    };
    for rel in order {
        out.extend(&subplans[rel]);
    }
}

#[test]
fn profile_conservation_cordis() {
    check_campaign(Domain::Cordis, 0xC0D15);
}

#[test]
fn profile_conservation_sdss() {
    check_campaign(Domain::Sdss, 0x5D55);
}

#[test]
fn profile_conservation_oncomx() {
    check_campaign(Domain::OncoMx, 0x0C0);
}
