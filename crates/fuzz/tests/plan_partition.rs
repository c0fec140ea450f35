//! Property: a plan's conjunct indices partition the WHERE clause.
//!
//! A [`sb_opt::PlannedSelect`] names WHERE conjuncts by their index in
//! [`sb_opt::conjuncts`] order. Per domain, over the first 200
//! statements of the differential campaign (same base seeds) that
//! `plan_top_select` plans, every index in `0..conjuncts.len()` appears
//! exactly once across the pushed lists and the residual list, and no
//! index is out of range: no conjunct is lost, duplicated or invented.

use sb_data::Domain;
use sb_engine::{plan_top_select, ExecOptions};
use sb_fuzz::{fuzz_database, QueryGenerator};
use sb_sql::SetExpr;

/// Planned statements checked per domain.
const PLANS: usize = 200;

/// Campaign statements scanned for plannable ones before giving up.
const SCAN_LIMIT: usize = 2_000;

fn plans_partition_conjuncts(domain: Domain, base_seed: u64) {
    let db = fuzz_database(domain);
    let mut gen = QueryGenerator::new(&db, base_seed);
    let (mut checked, mut residuals) = (0usize, 0usize);
    for _ in 0..SCAN_LIMIT {
        let query = gen.query();
        let Some(plan) = plan_top_select(&db, &query, ExecOptions::default()) else {
            continue;
        };
        let SetExpr::Select(select) = &query.body else {
            panic!("{}: a set operation was planned: {query}", domain.name());
        };
        let n = sb_opt::conjuncts(select).len();
        let mut seen = vec![0usize; n];
        for &c in plan.pushed.iter().flatten().chain(&plan.residual) {
            assert!(
                c < n,
                "{}: conjunct index {c} of {n} in: {query}",
                domain.name()
            );
            seen[c] += 1;
        }
        assert!(
            seen.iter().all(|&k| k == 1),
            "{}: conjunct uses {seen:?} (pushed {:?}, residual {:?}) in: {query}",
            domain.name(),
            plan.pushed,
            plan.residual
        );
        residuals += plan.residual.len();
        checked += 1;
        if checked == PLANS {
            break;
        }
    }
    assert_eq!(
        checked,
        PLANS,
        "{}: fewer than {PLANS} plannable statements in {SCAN_LIMIT}",
        domain.name()
    );
    assert!(
        residuals > 0,
        "{}: no residual conjunct in {PLANS} plans",
        domain.name()
    );
}

#[test]
fn plans_partition_conjuncts_cordis() {
    plans_partition_conjuncts(Domain::Cordis, 0xC0D15);
}

#[test]
fn plans_partition_conjuncts_sdss() {
    plans_partition_conjuncts(Domain::Sdss, 0x5D55);
}

#[test]
fn plans_partition_conjuncts_oncomx() {
    plans_partition_conjuncts(Domain::OncoMx, 0x0C0);
}
