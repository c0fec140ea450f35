//! Thread-count equivalence: the morsel-parallel engine must produce
//! **byte-identical** output at any worker count.
//!
//! Each domain's campaign (`SB_FUZZ_COUNT` queries, default 2,000, from
//! the same base seeds as the differential smoke) executes every query
//! under the parallel columnar configuration at 1, 2 and 8 workers with
//! a morsel small enough to split the 24-row fuzz tables, then
//! byte-compares the `Debug`-rendered outcome streams. This pins the
//! deterministic-merge contract directly: not multiset agreement, not
//! "same rows in some order" — the identical bytes, including which
//! statements bail to the row path and which errors surface.
//!
//! One additional test drives worker-count resolution through the
//! `RAYON_NUM_THREADS` environment variable (the deployment knob) to
//! pin that `workers: 0` + env resolves through the same code path.

use sb_data::Domain;
use sb_engine::{execute_with, Database, ExecOptions};
use sb_fuzz::{fuzz_database, QueryGenerator};

/// Queries per domain; honors `SB_FUZZ_COUNT` like the differential
/// smoke so long campaigns scale both tests together.
const DEFAULT_COUNT: usize = 2_000;

/// Splits the 24-row fuzz tables into four morsels per scan so the
/// merge paths actually run (at the default 64K-row morsel every fuzz
/// query would collapse to the single-morsel serial case).
const MORSEL_ROWS: usize = 7;

fn fuzz_count() -> usize {
    std::env::var("SB_FUZZ_COUNT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_COUNT)
}

fn parallel_opts(workers: usize) -> ExecOptions {
    ExecOptions {
        columnar: true,
        parallel: true,
        workers,
        morsel_rows: MORSEL_ROWS,
    }
}

/// Render one campaign's outcome stream to bytes. Errors render by
/// their message: a worker count that changed *which* error surfaced
/// would be a determinism bug even if both runs "errored".
fn campaign_bytes(db: &Database, queries: &[sb_sql::Query], opts: ExecOptions) -> String {
    let mut out = String::new();
    for (i, query) in queries.iter().enumerate() {
        match execute_with(db, query, opts) {
            Ok(rs) => out.push_str(&format!("#{i} ok {rs:?}\n")),
            Err(e) => out.push_str(&format!("#{i} err {e}\n")),
        }
    }
    out
}

fn assert_equivalent(domain: Domain, base_seed: u64) {
    let db = fuzz_database(domain);
    let mut gen = QueryGenerator::new(&db, base_seed);
    let queries: Vec<_> = (0..fuzz_count()).map(|_| gen.query()).collect();

    let serial = campaign_bytes(&db, &queries, parallel_opts(1));
    for workers in [2, 8] {
        let parallel = campaign_bytes(&db, &queries, parallel_opts(workers));
        if serial != parallel {
            let diff = serial
                .lines()
                .zip(parallel.lines())
                .find(|(a, b)| a != b)
                .map(|(a, b)| format!("  1 worker:  {a}\n  {workers} workers: {b}"))
                .unwrap_or_else(|| "  (streams differ in length)".to_string());
            panic!(
                "{}: output at {workers} workers differs from 1 worker; first divergence:\n{diff}",
                domain.name()
            );
        }
    }
}

#[test]
fn parallel_equivalence_cordis() {
    assert_equivalent(Domain::Cordis, 0xC0D15);
}

#[test]
fn parallel_equivalence_sdss() {
    assert_equivalent(Domain::Sdss, 0x5D55);
}

#[test]
fn parallel_equivalence_oncomx() {
    assert_equivalent(Domain::OncoMx, 0x0C0);
}

/// `workers: 0` resolves through `RAYON_NUM_THREADS` — the knob
/// deployments use. Safe to mutate here: every other test in this
/// binary pins `workers` explicitly and never consults the variable.
#[test]
fn rayon_num_threads_env_controls_worker_resolution() {
    let db = fuzz_database(Domain::Sdss);
    let mut gen = QueryGenerator::new(&db, 0x7EAD);
    let queries: Vec<_> = (0..200).map(|_| gen.query()).collect();
    let env_opts = ExecOptions {
        workers: 0,
        ..parallel_opts(0)
    };

    let mut streams = Vec::new();
    for threads in ["1", "2", "8"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        streams.push(campaign_bytes(&db, &queries, env_opts));
    }
    std::env::remove_var("RAYON_NUM_THREADS");
    assert_eq!(
        streams[0], streams[1],
        "RAYON_NUM_THREADS=2 output differs from =1"
    );
    assert_eq!(
        streams[0], streams[2],
        "RAYON_NUM_THREADS=8 output differs from =1"
    );
}
