//! The columnar engine runs the whole serve load mix.
//!
//! Replays the first [`REQUESTS`] requests per domain of sb-serve's
//! default load mix ([`workload_sql`] under [`LoadConfig::default`], the
//! traffic of the benchmark's serve workloads) through
//! [`execute_with_profile`] under default options over the fuzz
//! databases. Every block of every statement that succeeds must have
//! been produced by the columnar engine, and no block may record a
//! fallback: the plan's join keys are the only join rule, so LEFT,
//! keyless and bare-name joins run on the batch path too, and the mix
//! holds none of the shapes the batch path refuses. Statements that
//! fail (the mix holds a few on purpose) are left out.

use sb_data::Domain;
use sb_engine::{execute_with_profile, ExecOptions};
use sb_obs::QueryProfile;
use sb_serve::loadgen::workload_sql;
use sb_serve::LoadConfig;

/// Requests replayed per domain.
const REQUESTS: u64 = 3_000;

#[test]
fn every_block_of_the_default_mix_runs_columnar() {
    let load = LoadConfig::default();
    let mut offenders = Vec::new();
    let mut succeeded = 0usize;
    for domain in Domain::ALL {
        let db = sb_fuzz::fuzz_database(domain);
        for index in 0..REQUESTS {
            let sql = workload_sql(&db, &load, index);
            let query = sb_sql::parse(&sql).expect("the load mix parses");
            let prof = QueryProfile::new();
            if execute_with_profile(&db, &query, ExecOptions::default(), Some(&prof)).is_err() {
                continue;
            }
            succeeded += 1;
            let blocks = prof.snapshot().blocks;
            if let Some(b) = blocks.iter().find(|b| !b.columnar || b.fallback.is_some()) {
                let why = b.fallback.unwrap_or("refused");
                offenders.push(format!("{} #{index} [{why}]: {sql}", domain.name()));
            }
        }
    }
    assert!(succeeded > 0, "no statement of the mix succeeded");
    assert!(
        offenders.is_empty(),
        "{} of {succeeded} successful statements ran a row-path block, e.g.:\n{}",
        offenders.len(),
        offenders[..offenders.len().min(10)].join("\n")
    );
}
