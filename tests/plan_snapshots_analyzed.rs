//! EXPLAIN ANALYZE snapshots: executed plans annotated with per-operator
//! runtime statistics, pinned as goldens under
//! `tests/goldens/plans_analyzed/`.
//!
//! Each case executes its query for real against a deterministic
//! fuzz-domain database — through the row engine, the serial columnar
//! engine, or morsel-parallel columnar execution with a pinned worker
//! count — and renders [`sb_engine::explain_analyze`] in the
//! deterministic no-timings mode: row counts, selectivities, hash-join
//! build/probe sizes and morsel counts are shown (all pure functions of
//! the workload), while wall-clock times and steal counts (scheduling
//! noise) are masked. The same bytes must render at any
//! `RAYON_NUM_THREADS`; `check.sh` regenerates and diffs this suite at
//! 1 and 8 threads.
//!
//! The case list spans all four Spider hardness buckets (asserted via
//! `classify_sql`) and all three execution paths.
//!
//! Regenerate intentionally-changed goldens with:
//! `SB_UPDATE_PLANS=1 cargo test -q --test plan_snapshots_analyzed`

use sb_data::Domain;
use sb_engine::{explain_analyze, ExecOptions};
use sb_fuzz::fuzz_database;
use sb_metrics::hardness::{classify_sql, Hardness};
use std::path::PathBuf;

/// Which execution path the case pins. Parallel cases force an exact
/// worker count and a tiny morsel size so that tiny fuzz tables still
/// fan out — and so the rendering is identical on any machine
/// regardless of `RAYON_NUM_THREADS`.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Row,
    Columnar,
    Parallel,
}

impl Mode {
    fn opts(self) -> ExecOptions {
        let base = ExecOptions::default();
        match self {
            Mode::Row => ExecOptions {
                columnar: false,
                parallel: false,
                ..base
            },
            Mode::Columnar => ExecOptions {
                parallel: false,
                ..base
            },
            Mode::Parallel => ExecOptions {
                parallel: true,
                workers: 3,
                morsel_rows: 7,
                ..base
            },
        }
    }

    fn label(self) -> &'static str {
        match self {
            Mode::Row => "row",
            Mode::Columnar => "columnar",
            Mode::Parallel => "parallel workers=3 morsel_rows=7",
        }
    }
}

struct Case {
    /// Golden file stem under `tests/goldens/plans_analyzed/`.
    name: &'static str,
    domain: Domain,
    hardness: Hardness,
    mode: Mode,
    sql: &'static str,
}

const CASES: &[Case] = &[
    Case {
        name: "easy_filter_scan_row",
        domain: Domain::Sdss,
        hardness: Hardness::Easy,
        mode: Mode::Row,
        sql: "SELECT class FROM specobj WHERE z > 0.5",
    },
    Case {
        name: "easy_filter_scan_columnar",
        domain: Domain::Sdss,
        hardness: Hardness::Easy,
        mode: Mode::Columnar,
        sql: "SELECT class FROM specobj WHERE z > 0.5",
    },
    Case {
        name: "medium_topk_parallel",
        domain: Domain::Sdss,
        hardness: Hardness::Medium,
        mode: Mode::Parallel,
        sql: "SELECT ra FROM photoobj ORDER BY ra LIMIT 5",
    },
    Case {
        name: "medium_hash_join_columnar",
        domain: Domain::Sdss,
        hardness: Hardness::Medium,
        mode: Mode::Columnar,
        sql: "SELECT s.class FROM specobj AS s \
              JOIN photoobj AS p ON s.bestobjid = p.objid \
              WHERE s.class = 'GALAXY'",
    },
    Case {
        name: "medium_group_aggregate_columnar",
        domain: Domain::Cordis,
        hardness: Hardness::Medium,
        mode: Mode::Columnar,
        sql: "SELECT status, COUNT(*) FROM projects GROUP BY status",
    },
    Case {
        name: "medium_left_outer_row",
        domain: Domain::Sdss,
        hardness: Hardness::Medium,
        mode: Mode::Row,
        sql: "SELECT s.class, p.ra FROM specobj AS s \
              LEFT JOIN photoobj AS p ON s.bestobjid = p.objid \
              WHERE s.z > 0.5",
    },
    Case {
        name: "medium_left_outer_columnar",
        domain: Domain::Sdss,
        hardness: Hardness::Medium,
        mode: Mode::Columnar,
        sql: "SELECT s.class, p.ra FROM specobj AS s \
              LEFT JOIN photoobj AS p ON s.bestobjid = p.objid \
              WHERE s.z > 0.5",
    },
    Case {
        name: "medium_bare_name_hash_join_row",
        domain: Domain::Sdss,
        hardness: Hardness::Medium,
        mode: Mode::Row,
        sql: "SELECT s.specobjid, p.u FROM specobj AS s \
              JOIN photoobj AS p ON bestobjid = objid",
    },
    Case {
        name: "hard_cost_based_reorder_parallel",
        domain: Domain::Sdss,
        hardness: Hardness::Hard,
        mode: Mode::Parallel,
        sql: "SELECT s.class, g.h_alpha_flux FROM photoobj AS p \
              JOIN specobj AS s ON s.bestobjid = p.objid \
              JOIN galspecline AS g ON g.specobjid = s.specobjid \
              WHERE s.class = 'GALAXY' AND g.h_alpha_flux > 1.0",
    },
    Case {
        name: "hard_in_subquery_row",
        domain: Domain::Cordis,
        hardness: Hardness::Hard,
        mode: Mode::Row,
        sql: "SELECT acronym FROM projects \
              WHERE principal_investigator IN (SELECT unics_id FROM people)",
    },
    Case {
        name: "hard_in_subquery_columnar",
        domain: Domain::Cordis,
        hardness: Hardness::Hard,
        mode: Mode::Columnar,
        sql: "SELECT acronym FROM projects \
              WHERE principal_investigator IN (SELECT unics_id FROM people)",
    },
    Case {
        name: "extra_grouped_join_topk_parallel",
        domain: Domain::Cordis,
        hardness: Hardness::ExtraHard,
        mode: Mode::Parallel,
        sql: "SELECT pm.member_name, SUM(pm.ec_contribution) FROM project_members AS pm \
              JOIN projects AS pr ON pm.project = pr.unics_id \
              WHERE pr.start_year > 2000 AND pm.country LIKE '%A%' \
              GROUP BY pm.member_name ORDER BY 2 DESC LIMIT 3",
    },
    Case {
        name: "extra_derived_table_columnar",
        domain: Domain::Sdss,
        hardness: Hardness::ExtraHard,
        mode: Mode::Columnar,
        sql: "SELECT d.c, COUNT(*) FROM \
              (SELECT class AS c, zwarning FROM specobj WHERE z > 0.1) AS d \
              JOIN photo_type AS pt ON d.zwarning = pt.value \
              GROUP BY d.c ORDER BY d.c",
    },
];

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens/plans_analyzed")
        .join(format!("{name}.txt"))
}

fn render_case(case: &Case) -> String {
    let db = fuzz_database(case.domain);
    let q = sb_sql::parse(case.sql).unwrap_or_else(|e| panic!("{}: parse: {e}", case.name));
    let plan = explain_analyze(&db, &q, case.mode.opts(), false)
        .unwrap_or_else(|e| panic!("{}: explain_analyze: {e}", case.name));
    format!(
        "-- domain: {}\n-- hardness: {}\n-- mode: {}\n-- {}\n{}",
        case.domain.name(),
        case.hardness.label(),
        case.mode.label(),
        case.sql,
        plan
    )
}

#[test]
fn analyzed_snapshots_match_goldens() {
    let update = std::env::var_os("SB_UPDATE_PLANS").is_some();
    let mut buckets = [false; 4];
    let mut modes = [false; 3];
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
        modes[case.mode as usize] = true;

        let text = render_case(case);
        assert!(
            !text.contains("time=") && !text.contains("steals="),
            "{}: no-timings rendering leaked nondeterministic fields:\n{text}",
            case.name
        );
        // Rendering involves a full re-execution; the annotation bytes
        // must not depend on which run produced them.
        assert_eq!(
            text,
            render_case(case),
            "{}: analyzed rendering is not deterministic across runs",
            case.name
        );

        let path = golden_path(case.name);
        if update {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &text).unwrap();
            continue;
        }
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{}: missing golden {} ({e}); regenerate with \
                 SB_UPDATE_PLANS=1 cargo test -q --test plan_snapshots_analyzed",
                case.name,
                path.display()
            )
        });
        assert_eq!(
            text,
            want,
            "{}: analyzed plan drifted from {}; if intentional, regenerate with \
             SB_UPDATE_PLANS=1 cargo test -q --test plan_snapshots_analyzed",
            case.name,
            path.display()
        );
    }
    assert!(
        buckets.iter().all(|b| *b),
        "case list no longer spans all four hardness buckets"
    );
    assert!(
        modes.iter().all(|m| *m),
        "case list no longer covers row, columnar and parallel execution"
    );
}

/// Timings mode adds wall-clock and steal fields on top of the same
/// counts — useful interactively, never pinned.
#[test]
fn timings_mode_adds_masked_fields() {
    let case = &CASES[1]; // columnar filter scan
    let db = fuzz_database(case.domain);
    let q = sb_sql::parse(case.sql).unwrap();
    let timed = explain_analyze(&db, &q, case.mode.opts(), true).unwrap();
    assert!(timed.contains("time="), "timings missing:\n{timed}");
}

/// The annotated tree must degrade to exactly the plain EXPLAIN text
/// when every annotation is stripped — same operators, same structure.
#[test]
fn analyzed_plan_superset_of_plain_explain() {
    for case in CASES {
        let db = fuzz_database(case.domain);
        let q = sb_sql::parse(case.sql).unwrap();
        let plain = sb_engine::explain(&db, &q, case.mode.opts()).unwrap();
        let analyzed = explain_analyze(&db, &q, case.mode.opts(), false).unwrap();
        for (pl, al) in plain.lines().zip(analyzed.lines()) {
            assert!(
                al.starts_with(pl),
                "{}: analyzed line is not an annotated form of the plain line:\
                 \n plain:    {pl}\n analyzed: {al}",
                case.name
            );
        }
        assert_eq!(
            plain.lines().count(),
            analyzed.lines().count(),
            "{}: analyzed tree has different operator count",
            case.name
        );
    }
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
