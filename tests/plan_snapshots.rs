//! EXPLAIN plan snapshots: the planner's decisions as reviewable text.
//!
//! Each case renders [`sb_engine::explain`] for one query against a
//! deterministic fuzz-domain database and diffs it against the
//! committed golden under `tests/goldens/plans/`. Any change to a
//! rewrite rule, the cost model, or the EXPLAIN format shows up as a
//! golden diff in review instead of a silent behavior change.
//!
//! The case list spans all four Spider hardness buckets (asserted via
//! `sb_metrics::hardness::classify_sql`, so the labels can't rot) and
//! includes at least one cost-based join reorder — visible as the
//! `RestoreOrder` operator wrapping a join tree whose scan order
//! differs from the FROM clause.
//!
//! Regenerate intentionally-changed goldens with:
//! `SB_UPDATE_PLANS=1 cargo test -q --test plan_snapshots`

use sb_data::Domain;
use sb_engine::{explain, ExecOptions};
use sb_fuzz::fuzz_database;
use sb_metrics::hardness::{classify_sql, Hardness};
use std::path::PathBuf;

struct Case {
    /// Golden file stem under `tests/goldens/plans/`.
    name: &'static str,
    domain: Domain,
    /// Expected Spider hardness bucket (asserted, not just documented).
    hardness: Hardness,
    sql: &'static str,
}

const CASES: &[Case] = &[
    Case {
        name: "easy_filter_scan",
        domain: Domain::Sdss,
        hardness: Hardness::Easy,
        sql: "SELECT class FROM specobj WHERE z > 0.5",
    },
    Case {
        name: "easy_full_sort",
        domain: Domain::Sdss,
        hardness: Hardness::Easy,
        sql: "SELECT objid FROM photoobj ORDER BY ra",
    },
    Case {
        name: "medium_topk_fusion",
        domain: Domain::Sdss,
        hardness: Hardness::Medium,
        sql: "SELECT ra FROM photoobj ORDER BY ra LIMIT 5",
    },
    Case {
        name: "medium_hash_join_pruned",
        domain: Domain::Sdss,
        hardness: Hardness::Medium,
        sql: "SELECT s.class FROM specobj AS s \
              JOIN photoobj AS p ON s.bestobjid = p.objid \
              WHERE s.class = 'GALAXY'",
    },
    Case {
        name: "medium_left_outer_join",
        domain: Domain::Sdss,
        hardness: Hardness::Medium,
        sql: "SELECT s.class, p.ra FROM specobj AS s \
              LEFT JOIN photoobj AS p ON s.bestobjid = p.objid \
              WHERE s.z > 0.5",
    },
    Case {
        name: "medium_group_aggregate",
        domain: Domain::Cordis,
        hardness: Hardness::Medium,
        sql: "SELECT status, COUNT(*) FROM projects GROUP BY status",
    },
    Case {
        name: "medium_bare_name_hash_join",
        domain: Domain::Sdss,
        hardness: Hardness::Medium,
        sql: "SELECT s.specobjid, p.u FROM specobj AS s \
              JOIN photoobj AS p ON bestobjid = objid",
    },
    Case {
        name: "hard_cost_based_reorder",
        domain: Domain::Sdss,
        hardness: Hardness::Hard,
        sql: "SELECT s.class, g.h_alpha_flux FROM photoobj AS p \
              JOIN specobj AS s ON s.bestobjid = p.objid \
              JOIN galspecline AS g ON g.specobjid = s.specobjid \
              WHERE s.class = 'GALAXY' AND g.h_alpha_flux > 1.0",
    },
    Case {
        name: "hard_in_subquery",
        domain: Domain::Cordis,
        hardness: Hardness::Hard,
        sql: "SELECT acronym FROM projects \
              WHERE principal_investigator IN (SELECT unics_id FROM people)",
    },
    Case {
        name: "extra_grouped_join_topk",
        domain: Domain::Cordis,
        hardness: Hardness::ExtraHard,
        sql: "SELECT pm.member_name, SUM(pm.ec_contribution) FROM project_members AS pm \
              JOIN projects AS pr ON pm.project = pr.unics_id \
              WHERE pr.start_year > 2000 AND pm.country LIKE '%A%' \
              GROUP BY pm.member_name ORDER BY 2 DESC LIMIT 3",
    },
    Case {
        name: "extra_derived_table",
        domain: Domain::Sdss,
        hardness: Hardness::ExtraHard,
        sql: "SELECT d.c, COUNT(*) FROM \
              (SELECT class AS c, zwarning FROM specobj WHERE z > 0.1) AS d \
              JOIN photo_type AS pt ON d.zwarning = pt.value \
              GROUP BY d.c ORDER BY d.c",
    },
];

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens/plans")
        .join(format!("{name}.txt"))
}

fn render_case(case: &Case) -> String {
    let db = fuzz_database(case.domain);
    let q = sb_sql::parse(case.sql).unwrap_or_else(|e| panic!("{}: parse: {e}", case.name));
    let plan = explain(&db, &q, ExecOptions::default())
        .unwrap_or_else(|e| panic!("{}: explain: {e}", case.name));
    format!(
        "-- domain: {}\n-- hardness: {}\n-- {}\n{}",
        case.domain.name(),
        case.hardness.label(),
        case.sql,
        plan
    )
}

#[test]
fn plan_snapshots_match_goldens() {
    let update = std::env::var_os("SB_UPDATE_PLANS").is_some();
    let mut buckets = [false; 4];
    let mut any_reorder = false;
    for case in CASES {
        assert_eq!(
            classify_sql(case.sql),
            case.hardness,
            "{}: hardness label drifted for: {}",
            case.name,
            case.sql
        );
        let i = Hardness::ALL
            .iter()
            .position(|h| *h == case.hardness)
            .unwrap();
        buckets[i] = true;

        let text = render_case(case);
        any_reorder |= text.contains("RestoreOrder");
        let path = golden_path(case.name);
        if update {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &text).unwrap();
            continue;
        }
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{}: missing golden {} ({e}); regenerate with \
                 SB_UPDATE_PLANS=1 cargo test -q --test plan_snapshots",
                case.name,
                path.display()
            )
        });
        assert_eq!(
            text,
            want,
            "{}: plan drifted from {}; if intentional, regenerate with \
             SB_UPDATE_PLANS=1 cargo test -q --test plan_snapshots",
            case.name,
            path.display()
        );
    }
    assert!(
        buckets.iter().all(|b| *b),
        "case list no longer spans all four hardness buckets"
    );
    assert!(
        any_reorder,
        "no snapshot demonstrates a cost-based join reorder (RestoreOrder)"
    );
}

/// The snapshot suite pins plans whose equi-joins are hash joins; this
/// pins that EXPLAIN labels a join the way the executor runs it: the
/// nested-loop twin of the same statement (`ON a = b` written
/// `ON NOT (a <> b)`) must not be labelled a hash join.
#[test]
fn explain_respects_join_strategy() {
    let db = fuzz_database(Domain::Sdss);
    let sql = "SELECT s.class FROM specobj AS s JOIN photoobj AS p ON s.bestobjid = p.objid";
    let q = sb_sql::parse(sql).unwrap();
    let hash = explain(&db, &q, ExecOptions::default()).unwrap();
    assert!(hash.contains("HashJoin"), "equi-join:\n{hash}");
    let twin = sb_fuzz::nested_loop_twin(&q).expect("the statement has an equi-join");
    let nl = explain(&db, &twin, ExecOptions::default()).unwrap();
    assert!(nl.contains("NestedLoopJoin"), "nested-loop twin:\n{nl}");
    assert!(!nl.contains("HashJoin"), "nested-loop twin:\n{nl}");
}

/// Every golden file belongs to a case: a case deleted or renamed must
/// take its golden with it.
#[test]
fn every_golden_belongs_to_a_case() {
    let dir = golden_path("x").parent().unwrap().to_path_buf();
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or_default();
        assert!(
            path.extension().is_some_and(|e| e == "txt") && CASES.iter().any(|c| c.name == stem),
            "{} belongs to no case; delete it or add its case",
            path.display()
        );
    }
}
