//! Fuzzed invariant: for every statement the engine executes
//! successfully, the recorded [`sb_obs::QueryProfile`] must satisfy
//! row-flow **conservation** — each operator's output feeds the next
//! operator's input exactly, across every execution configuration.
//!
//! Per domain, `SB_FUZZ_COUNT` generated statements (default 500, same
//! base seeds as the differential campaign) run under a curated set of
//! exec-option axes spanning the row path, serial columnar kernels and
//! morsel-parallel execution, and each statement's nested-loop twin
//! ([`sb_fuzz::nested_loop_twin`]) runs under the default options. For
//! each success:
//!
//! - `ProfileSnapshot::check_conservation()` holds: every reserved scan
//!   was touched, join step `j`'s `rows_in` equals its recorded
//!   left-input rows plus the probed scan's `rows_out`, and the
//!   filter → aggregate → distinct → order chain hands off exactly;
//! - when the top-level `FROM` names only base tables, each scan's
//!   `rows_in` equals that table's row count — the profile measures the
//!   real input, not a post-filtered view;
//! - blocks are present exactly because a profile was requested
//!   (`execute_with_profile(.., None)` is separately pinned byte-equal
//!   in `tests/engine_equivalence.rs`).
//!
//! Errors are skipped: a failed statement abandons its block
//! mid-record, so no flow invariant is owed.

use sb_data::Domain;
use sb_engine::{execute_with_profile, Database, ExecOptions};
use sb_fuzz::{fuzz_database, nested_loop_twin, QueryGenerator};
use sb_obs::QueryProfile;
use sb_sql::{Query, SetExpr, TableFactor};

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

/// Base-table names of the top-level `FROM`/`JOIN` factors, in scan
/// order — or `None` when any factor is a derived table (its scan reads
/// materialized rows, not a base table) or the body is a set operation
/// (scan order then interleaves across blocks).
fn top_level_base_tables(query: &Query) -> Option<Vec<String>> {
    let SetExpr::Select(select) = &query.body else {
        return None;
    };
    std::iter::once(&select.from)
        .chain(select.joins.iter().map(|j| &j.table))
        .map(|tr| match &tr.factor {
            TableFactor::Table(name) => Some(name.clone()),
            TableFactor::Derived(_) => None,
        })
        .collect()
}

fn check_campaign(domain: Domain, base_seed: u64) {
    let db = fuzz_database(domain);
    let mut gen = QueryGenerator::new(&db, base_seed);
    let queries: Vec<_> = (0..fuzz_count()).map(|_| gen.query()).collect();

    let mut checked = 0usize;
    for (qi, query) in queries.iter().enumerate() {
        let tables = top_level_base_tables(query);
        let twin = nested_loop_twin(query);
        let runs = axes()
            .into_iter()
            .map(|(axis, opts)| (axis, opts, query))
            .chain(
                twin.as_ref()
                    .map(|t| ("nested-loop twin", ExecOptions::default(), t)),
            );
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
            check_scan_inputs(&db, &snap, tables.as_deref(), domain, qi, axis, query);
            checked += 1;
        }
    }
    assert!(
        checked > fuzz_count(),
        "{}: campaign executed too few statements successfully ({checked})",
        domain.name()
    );
}

/// Scan `rows_in` must equal the base table's length for the top-level
/// block — every row enters the scan; selection happens on the way out.
fn check_scan_inputs(
    db: &Database,
    snap: &sb_obs::ProfileSnapshot,
    tables: Option<&[String]>,
    domain: Domain,
    qi: usize,
    axis: &str,
    query: &Query,
) {
    let (Some(tables), Some(block)) = (tables, snap.blocks.first()) else {
        return;
    };
    if !block.slotted {
        return;
    }
    for (i, name) in tables.iter().enumerate() {
        let Some(op) = block.scans.get(i).copied().flatten() else {
            continue;
        };
        let expected = db
            .table(name)
            .unwrap_or_else(|| panic!("{}: unknown table `{name}`", domain.name()))
            .len() as u64;
        assert_eq!(
            op.rows_in,
            expected,
            "{} #{qi} [{axis}]: scan {i} ({name}) rows_in {} != table len {expected} for: {query}",
            domain.name(),
            op.rows_in
        );
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
