//! Guard for the nested-loop coverage of the differential oracle.
//!
//! The planner and both executors run every recognized `col = col`
//! join as a hash join, so the nested-loop join is exercised by each
//! statement's [`nested_loop_twin`] (`ON a = b` written
//! `ON NOT (a <> b)`). This test pins that the twins really do take
//! that path: per domain, over the first 200 statements of the
//! differential campaign (same base seeds) that have a twin, every join
//! the twin's [`QueryProfile`] records under every configuration of
//! [`exec_matrix`] is a nested loop, and under the columnar
//! configurations every block with joins of a twin that succeeds is a
//! columnar block, so the batch path's nested loop runs them. The
//! converse pins the originals: every join the `row` configuration
//! records for a twin's original statement is a hash join, so an equi
//! join silently falling back to a nested loop fails here too.

use sb_data::Domain;
use sb_engine::execute_with_profile;
use sb_fuzz::{exec_matrix, fuzz_database, nested_loop_twin, QueryGenerator};
use sb_obs::QueryProfile;

/// Twins checked per domain.
const TWINS: usize = 200;

/// Campaign statements scanned for twins before giving up.
const SCAN_LIMIT: usize = 2_000;

fn twins_run_only_nested_loops(domain: Domain, base_seed: u64) {
    let db = fuzz_database(domain);
    let mut gen = QueryGenerator::new(&db, base_seed);
    let pairs: Vec<_> = (0..SCAN_LIMIT)
        .filter_map(|_| {
            let q = gen.query();
            nested_loop_twin(&q).map(|twin| (q, twin))
        })
        .take(TWINS)
        .collect();
    assert_eq!(
        pairs.len(),
        TWINS,
        "{}: fewer than {TWINS} joins in {SCAN_LIMIT} campaign statements",
        domain.name()
    );
    let mut nested_loops = 0usize;
    let mut hash_joins = 0usize;
    for (original, twin) in &pairs {
        let (_, row) = exec_matrix()
            .into_iter()
            .find(|(config, _)| config == "row")
            .expect("the matrix has a row configuration");
        let prof = QueryProfile::new();
        let _ = execute_with_profile(&db, original, row, Some(&prof));
        for block in prof.snapshot().blocks {
            let joins: Vec<_> = block.joins.iter().flatten().collect();
            assert!(
                joins.iter().all(|j| j.marked),
                "{} [row]: a nested loop ran an equi join of: {original}",
                domain.name()
            );
            hash_joins += joins.len();
        }
        for (config, opts) in exec_matrix() {
            let prof = QueryProfile::new();
            // A statement that fails still records the joins it ran.
            let ok = execute_with_profile(&db, twin, opts, Some(&prof)).is_ok();
            for block in prof.snapshot().blocks {
                let joins: Vec<_> = block.joins.iter().flatten().collect();
                assert!(
                    joins.is_empty() || !ok || !opts.columnar || block.columnar,
                    "{} [{config}]: the row path ran the joins of: {twin}",
                    domain.name()
                );
                assert!(
                    joins.iter().all(|j| !j.marked),
                    "{} [{config}]: a hash join ran in: {twin}",
                    domain.name()
                );
                nested_loops += joins.len();
            }
        }
    }
    assert!(
        nested_loops >= TWINS,
        "{}: only {nested_loops} nested-loop joins recorded over {TWINS} twins",
        domain.name()
    );
    assert!(
        hash_joins >= TWINS / 2,
        "{}: only {hash_joins} hash joins recorded over {TWINS} originals",
        domain.name()
    );
}

#[test]
fn nested_loop_twins_cordis() {
    twins_run_only_nested_loops(Domain::Cordis, 0xC0D15);
}

#[test]
fn nested_loop_twins_sdss() {
    twins_run_only_nested_loops(Domain::Sdss, 0x5D55);
}

#[test]
fn nested_loop_twins_oncomx() {
    twins_run_only_nested_loops(Domain::OncoMx, 0x0C0);
}
