//! Row-cap differential: a capped execution returns exactly the first
//! `cap` rows of the uncapped one.
//!
//! [`execute_capped`] builds result rows only for the rows under the
//! cap, so it runs DISTINCT, ORDER BY (a top-K heap when the cap is the
//! smaller bound), LIMIT and the projection over row indices and
//! gathers the returned rows at the end. This campaign runs the
//! differential campaigns' statements (`SB_FUZZ_COUNT` per domain,
//! default 2,000, from the same base seeds) under the row executor and
//! the default columnar one at caps 0, 1, 7 and 10,000, and demands, for
//! every statement and cap:
//!
//! - the same columns and `ordered` flag as uncapped [`execute_with`];
//! - rows equal to the uncapped rows' first `cap`;
//! - a row count equal to the uncapped result's length;
//! - on error, the same error code and message.
//!
//! The columnar configuration resolves its workers and morsel size from
//! `RAYON_NUM_THREADS` and `SB_MORSEL_ROWS`, so the smoke gate's runs
//! with a 7-row morsel check the output stage over multi-morsel
//! concatenation too.

use sb_data::Domain;
use sb_engine::{execute_capped, execute_with, ExecOptions, Value};
use sb_fuzz::{fuzz_database, QueryGenerator};

const DEFAULT_COUNT: usize = 2_000;

const CAPS: [usize; 4] = [0, 1, 7, 10_000];

fn fuzz_count() -> usize {
    std::env::var("SB_FUZZ_COUNT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_COUNT)
}

/// The row executor, and the default configuration: columnar, with
/// workers and morsel size from the environment.
fn configs() -> [(&'static str, ExecOptions); 2] {
    [
        (
            "row",
            ExecOptions {
                columnar: false,
                ..ExecOptions::default()
            },
        ),
        ("default", ExecOptions::default()),
    ]
}

/// Rows compared by their `Debug` bytes, so a NaN equals itself and
/// `-0.0` differs from `0.0`.
fn same_rows(a: &[Vec<Value>], b: &[Vec<Value>]) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

fn campaign(domain: Domain, base_seed: u64) {
    let db = fuzz_database(domain);
    let mut gen = QueryGenerator::new(&db, base_seed);
    let mut failures = Vec::new();
    for index in 0..fuzz_count() {
        let query = gen.query();
        for (name, opts) in configs() {
            let uncapped = execute_with(&db, &query, opts);
            for cap in CAPS {
                let capped = execute_capped(&db, &query, opts, None, None, cap);
                let agrees = match (&uncapped, &capped) {
                    (Ok(full), Ok((rs, total))) => {
                        rs.columns == full.columns
                            && rs.ordered == full.ordered
                            && same_rows(&rs.rows, &full.rows[..full.rows.len().min(cap)])
                            && *total == full.rows.len()
                    }
                    // Equal errors: the same variant (code) and message.
                    (Err(a), Err(b)) => a == b,
                    _ => false,
                };
                if !agrees {
                    failures.push(format!(
                        "#{index} [{name}] cap {cap}: {query}\n  uncapped: {uncapped:?}\n  capped:   {capped:?}"
                    ));
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{}: {} capped executions differ from the uncapped prefix:\n{}",
        domain.name(),
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn row_cap_differential_cordis() {
    campaign(Domain::Cordis, 0xC0D15);
}

#[test]
fn row_cap_differential_sdss() {
    campaign(Domain::Sdss, 0x5D55);
}

#[test]
fn row_cap_differential_oncomx() {
    campaign(Domain::OncoMx, 0x0C0);
}
