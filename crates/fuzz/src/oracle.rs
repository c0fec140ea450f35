//! Differential oracle: one query, every executor configuration, one
//! reference interpreter.
//!
//! For each generated query the oracle
//!
//! 1. checks the printer/parser round trip (`parse(print(ast)) == ast`),
//! 2. runs the naive reference interpreter to obtain the expected
//!    outcome, and
//! 3. runs the executor under every configuration of [`exec_matrix`]
//!    (join strategy × {row, columnar, columnar + parallel}) and
//!    demands that every configuration agrees with the reference.
//!
//! Agreement is Spider execution-match (`ResultSet::same_result`:
//! multiset of rows, ordered-list comparison when both sides carry an
//! `ORDER BY`). Errors count as agreeing with errors of *any* kind —
//! predicate pushdown and join-strategy choices legitimately change
//! which of several latent errors surfaces first — but an error never
//! agrees with a result, and a panic in any configuration is always a
//! failure.

use std::panic::{catch_unwind, AssertUnwindSafe};

use sb_engine::{
    execute_reference, execute_with, Database, EngineError, ExecOptions, JoinStrategy, ResultSet,
};
use sb_sql::Query;

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

/// The executor configuration matrix: each join strategy crossed with
/// the three execution engines — the row path, serial columnar, and
/// morsel-parallel columnar — 9 configurations. The `join` axis
/// verifies the planner's rewrites (join reordering and planned build
/// sides under `Auto`, none under the forced strategies) against the
/// reference interpreter; the `columnar` axis does the same for every
/// vectorized kernel and its row-path fallback boundary; the parallel
/// axis for every per-morsel kernel and its deterministic merge.
/// `parallel` without `columnar` is left out: the row path has no
/// parallel kernels, so it would run its serial twin's code.
pub fn exec_matrix() -> Vec<(String, ExecOptions)> {
    let mut out = Vec::new();
    for join in [
        JoinStrategy::Auto,
        JoinStrategy::BuildRight,
        JoinStrategy::NestedLoop,
    ] {
        for (engine, columnar, parallel) in [
            ("row", false, false),
            ("columnar", true, false),
            ("columnar+parallel", true, true),
        ] {
            out.push((
                format!("{join:?}+{engine}"),
                ExecOptions {
                    join,
                    columnar,
                    parallel,
                    // Force real fan-out even on a single-core host:
                    // three workers over four morsels.
                    workers: if parallel { 3 } else { 0 },
                    morsel_rows: if parallel { PARALLEL_MORSEL_ROWS } else { 0 },
                },
            ));
        }
    }
    out
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

/// Run `query` through the round-trip check, the reference interpreter
/// and the full configuration matrix. `Ok(())` means total agreement.
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

    let reference = run_caught(|| execute_reference(db, query));
    if let Outcome::Panic(_) = reference {
        return Err(Disagreement::Mismatch {
            config: "reference".to_string(),
            reference: reference.label(),
            executor: "-".to_string(),
        });
    }
    for (name, opts) in exec_matrix() {
        let got = run_caught(|| execute_with(db, query, opts));
        if !agree(&reference, &got) {
            sb_obs::count("fuzz.oracle.config_mismatches", 1);
            return Err(Disagreement::Mismatch {
                config: name,
                reference: reference.label(),
                executor: got.label(),
            });
        }
    }
    Ok(())
}
