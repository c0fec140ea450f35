//! # sb-fuzz — schema-aware SQL fuzzing with a differential oracle
//!
//! The benchmark's execution-accuracy metric, its executability filter
//! and its data profiler all lean on `sb-engine` returning *correct*
//! results, so the engine gets its own adversary: a fuzzer that
//! generates well-typed queries directly over the CORDIS / SDSS /
//! OncoMX schemas and cross-checks every executor configuration against
//! a deliberately naive reference interpreter
//! ([`sb_engine::execute_reference`]).
//!
//! - [`generator::QueryGenerator`] — seeded, schema-aware random query
//!   generation (joins over FK edges, predicate trees with literals
//!   sampled from real column values, grouping, set operations,
//!   subqueries).
//! - [`oracle`] — the differential check: parse↔print↔parse round trip,
//!   then reference vs. the full `ExecOptions` matrix, for the statement
//!   and for its [`nested_loop_twin`].
//! - [`shrink`] — greedy AST minimization of failing queries.
//! - [`run_fuzz`] — a bounded campaign over one domain; failures come
//!   back with the seed, the original SQL and a shrunk reproducer.
//!
//! Replay a failure with the `fuzz` binary:
//! `cargo run --release -p sb-fuzz --bin fuzz -- --domain sdss --seed 42 --count 1`.

pub mod generator;
pub mod oracle;
pub mod shrink;

pub use generator::QueryGenerator;
pub use oracle::{check_query, exec_matrix, nested_loop_twin, Disagreement, Outcome};
pub use shrink::shrink;

use sb_data::{Domain, SizeClass};
use sb_engine::Database;

/// Rows kept per table for fuzzing. Tiny-size domain tables hold a few
/// hundred rows; with up to three joins per query that is far more
/// cardinality than the oracle needs, and the naive reference
/// interpreter is O(n^joins). Two dozen rows per table keeps a
/// multi-thousand-query campaign in seconds while still exercising
/// NULLs, duplicates and empty join matches.
pub const FUZZ_ROWS_PER_TABLE: usize = 24;

/// One oracle failure from a fuzz campaign.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Seed that regenerates the query (feed to [`QueryGenerator::new`]).
    pub seed: u64,
    /// Index of the query within the seed's sequence.
    pub index: usize,
    /// The failing query as SQL.
    pub sql: String,
    /// Minimal shrunk reproducer as SQL.
    pub shrunk: String,
    /// What went wrong.
    pub detail: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "seed {} query #{}: {}",
            self.seed, self.index, self.detail
        )?;
        writeln!(f, "  original: {}", self.sql)?;
        write!(f, "  shrunk:   {}", self.shrunk)
    }
}

/// Build a domain database sized for fuzzing: the Tiny size class with
/// every table truncated to [`FUZZ_ROWS_PER_TABLE`] rows.
pub fn fuzz_database(domain: Domain) -> Database {
    let mut db = domain.build(SizeClass::Tiny).db;
    let names: Vec<String> = db.schema.tables.iter().map(|t| t.name.clone()).collect();
    for name in names {
        if let Some(table) = db.table_mut(&name) {
            table.rows.truncate(FUZZ_ROWS_PER_TABLE);
        }
    }
    db
}

/// One serving-workload query, generated from a deterministic
/// *per-index* RNG stream: request `index` is a function of
/// `(database, base_seed, index)` only, never of which client issues
/// it or how many clients exist. This is what lets a replay of the
/// `sb-serve` load workload issue byte-identical requests at any client
/// count (the same per-index seeding discipline as the rayon-parallel
/// generation pipeline).
pub fn workload_query(db: &Database, base_seed: u64, index: u64) -> sb_sql::Query {
    let mut gen = QueryGenerator::new(db, base_seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    gen.query()
}

/// Run a bounded fuzz campaign: `count` queries generated from
/// `base_seed` against `domain`, each checked by the differential
/// oracle. Returns every failure, shrunk.
pub fn run_fuzz(domain: Domain, base_seed: u64, count: usize) -> Vec<Failure> {
    let campaign = sb_obs::span("fuzz.campaign");
    let db = fuzz_database(domain);
    let mut gen = QueryGenerator::new(&db, base_seed);
    let mut failures = Vec::new();
    for index in 0..count {
        let query = gen.query();
        if let Err(detail) = check_query(&db, &query) {
            let shrunk = shrink(&query, |cand| check_query(&db, cand).is_err());
            failures.push(Failure {
                seed: base_seed,
                index,
                sql: query.to_string(),
                shrunk: shrunk.to_string(),
                detail: detail.to_string(),
            });
        }
    }
    if sb_obs::enabled() {
        sb_obs::count("fuzz.queries_generated", count as u64);
        sb_obs::count("fuzz.failures", failures.len() as u64);
    }
    drop(campaign);
    failures
}
