//! EXPLAIN executes each derived table at most once.
//!
//! Planning needs a derived relation's column names and row count,
//! never its rows. Plain `explain` executes each derived table of the
//! top-level SELECT once, which runs every derived table nested inside
//! it once, and reads the nested row counts from that run's profile;
//! EXPLAIN ANALYZE (`explain_with_profile`) reads them all from the
//! recorded profile's scan slots and executes nothing.
//!
//! Executions are counted through the `engine.*` sb-obs counters, which
//! every execution folds its profile blocks into. The registry is
//! process-global, so this binary holds exactly one `#[test]`.

use sb_engine::{
    execute_with, execute_with_profile, explain, explain_with_profile, Database, ExecOptions,
};
use sb_obs::QueryProfile;
use sb_schema::{Column, ColumnType, Schema, TableDef};

/// `t(a, b)` with `a` = 0..1000.
fn db() -> Database {
    let schema = Schema::new("nest").with_table(TableDef::new(
        "t",
        vec![
            Column::pk("a", ColumnType::Int),
            Column::new("b", ColumnType::Int),
        ],
    ));
    let mut db = Database::new(schema);
    db.table_mut("t")
        .unwrap()
        .push_rows((0..1000i64).map(|a| vec![a.into(), (a % 7).into()]));
    db
}

/// The derived query nested four deep: each level scans the previous
/// level's result (1000, 500, 100 and 20 rows) and runs an `IN`
/// subquery over `t`. A subquery always runs through `execute_with`,
/// which folds its blocks into the counters, so a level executed twice
/// shows in `engine.scan.rows` however the level itself was run.
const D4: &str = "SELECT a, b FROM (SELECT a, b FROM (SELECT a, b FROM \
                  (SELECT a, b FROM t WHERE a < 500 AND b IN (SELECT b FROM t WHERE a < 7)) AS d1 \
                  WHERE a < 100 AND b IN (SELECT b FROM t WHERE a < 7)) AS d2 \
                  WHERE a < 20 AND b IN (SELECT b FROM t WHERE a < 7)) AS d3 \
                  WHERE a < 3 AND b IN (SELECT b FROM t WHERE a < 7)";

fn statement() -> String {
    format!("SELECT d4.b, COUNT(*) FROM ({D4}) AS d4 JOIN t AS u ON d4.a = u.b GROUP BY d4.b")
}

/// Every `engine.*` counter `run` folds, one per line (steals are
/// scheduling noise).
fn engine_counters(run: impl FnOnce()) -> String {
    sb_obs::set_mode(sb_obs::Mode::Summary);
    sb_obs::reset();
    run();
    let report = sb_obs::snapshot();
    sb_obs::set_mode(sb_obs::Mode::Off);
    sb_obs::reset();
    report
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("engine.") && name != "engine.parallel.steals")
        .map(|(name, v)| format!("{name} {v}\n"))
        .collect()
}

/// The plain and analyzed renderings of `statement()` under default
/// options, pinned byte for byte: planning from row counts read off
/// profiles plans exactly what planning from executions did.
const PLAIN: &str = r#"Execute engine=columnar parallel=morsel
└── Project [d4.b, COUNT(*)]
    └── Aggregate group_by=[d4.b]
        └── HashJoin on d4.a = u.b rows~30
            ├── DerivedScan d4 rows~3
            │   └── Execute engine=columnar parallel=morsel
            │       └── Project [a, b]
            │           └── Filter [b IN (SELECT b FROM t WHERE a < 7)]
            │               └── DerivedScan d3 filter=[a < 3] rows~7
            │                   └── Execute engine=columnar parallel=morsel
            │                       └── Project [a, b]
            │                           └── Filter [b IN (SELECT b FROM t WHERE a < 7)]
            │                               └── DerivedScan d2 filter=[a < 20] rows~33
            │                                   └── Execute engine=columnar parallel=morsel
            │                                       └── Project [a, b]
            │                                           └── Filter [b IN (SELECT b FROM t WHERE a < 7)]
            │                                               └── DerivedScan d1 filter=[a < 100] rows~167
            │                                                   └── Execute engine=columnar parallel=morsel
            │                                                       └── Project [a, b]
            │                                                           └── Filter [b IN (SELECT b FROM t WHERE a < 7)]
            │                                                               └── Scan t filter=[a < 500] rows~333
            └── Scan t AS u rows~1000
"#;
const ANALYZED: &str = r#"Execute engine=columnar parallel=morsel | actual=columnar
└── Project [d4.b, COUNT(*)]
    └── Aggregate group_by=[d4.b] (in=429 out=3 groups=3)
        └── HashJoin on d4.a = u.b rows~30 (in=1003 out=429 build=1000 probe=3)
            ├── DerivedScan d4 rows~3 (in=3 out=3 sel=100%)
            │   └── Execute engine=columnar parallel=morsel | actual=columnar
            │       └── Project [a, b]
            │           └── Filter [b IN (SELECT b FROM t WHERE a < 7)] (in=3 out=3 sel=100%)
            │               └── DerivedScan d3 filter=[a < 3] rows~7 (in=20 out=3 sel=15%)
            │                   └── Execute engine=columnar parallel=morsel | actual=columnar
            │                       └── Project [a, b]
            │                           └── Filter [b IN (SELECT b FROM t WHERE a < 7)] (in=20 out=20 sel=100%)
            │                               └── DerivedScan d2 filter=[a < 20] rows~33 (in=100 out=20 sel=20%)
            │                                   └── Execute engine=columnar parallel=morsel | actual=columnar
            │                                       └── Project [a, b]
            │                                           └── Filter [b IN (SELECT b FROM t WHERE a < 7)] (in=100 out=100 sel=100%)
            │                                               └── DerivedScan d1 filter=[a < 100] rows~167 (in=500 out=100 sel=20%)
            │                                                   └── Execute engine=columnar parallel=morsel | actual=columnar
            │                                                       └── Project [a, b]
            │                                                           └── Filter [b IN (SELECT b FROM t WHERE a < 7)] (in=500 out=500 sel=100%)
            │                                                               └── Scan t filter=[a < 500] rows~333 (in=1000 out=500 sel=50%)
            └── Scan t AS u rows~1000 (in=1000 out=1000 sel=100%)
"#;

#[test]
fn explain_runs_each_derived_query_at_most_once() {
    let db = db();
    let q = sb_sql::parse(&statement()).unwrap();
    let d4 = sb_sql::parse(D4).unwrap();
    for opts in [
        ExecOptions::default(),
        ExecOptions {
            columnar: false,
            ..ExecOptions::default()
        },
    ] {
        // One execution of the outermost derived query runs each level
        // of the nest once: 1,620 rows through the levels' scans, and
        // 1,000 for each level's subquery.
        let once = engine_counters(|| {
            execute_with(&db, &d4, opts).unwrap();
        });
        assert!(once.contains("engine.scan.rows 5620\n"), "{once}");
        let mut plain = String::new();
        let counted = engine_counters(|| plain = explain(&db, &q, opts).unwrap());
        assert_eq!(
            counted, once,
            "explain must run each derived query exactly once"
        );

        let prof = QueryProfile::new();
        execute_with_profile(&db, &q, opts, Some(&prof)).unwrap();
        let mut analyzed = String::new();
        let counted = engine_counters(|| {
            analyzed = explain_with_profile(&db, &q, opts, &prof, false).unwrap();
        });
        assert_eq!(counted, "", "explain_with_profile must execute nothing");

        if opts == ExecOptions::default() {
            assert_eq!(plain, PLAIN);
            assert_eq!(analyzed, ANALYZED);
        }
    }
}
