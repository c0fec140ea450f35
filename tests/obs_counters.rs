//! Pins the exact value of every `engine.*` sb-obs counter over a fixed
//! set of sdss Tiny statements, under the row and columnar executors
//! and, on the row path, as nested-loop twins, plus two properties of
//! the fold from statement profiles: a block that falls back to the row
//! path counts only the row path's work, and subqueries run with the
//! statement's executor options.
//!
//! The sb-obs registry is process-global, so this binary holds exactly
//! one `#[test]`: nothing else can add to the counters between a reset
//! and the snapshot. `engine.parallel.steals` is scheduling noise and is
//! left out of the pin; every other `engine.*` counter must match
//! exactly, and no unlisted `engine.*` counter may appear.

use sciencebenchmark::data::{Domain, SizeClass};
use sciencebenchmark::engine::{Database, ExecOptions};
use sciencebenchmark::obs;

/// Statements without subqueries: equi-joins (two- and three-way), a
/// non-equi join, a LEFT JOIN, GROUP BY over text, int and multiple
/// keys, DISTINCT, ORDER BY with and without LIMIT.
const STATEMENTS: &[&str] = &[
    "SELECT p.objid, s.z FROM photoobj AS p JOIN specobj AS s \
     ON p.objid = s.bestobjid WHERE p.u > 18",
    "SELECT p.objid, t.name, s.class FROM photoobj AS p \
     JOIN photo_type AS t ON p.type = t.value \
     JOIN specobj AS s ON s.bestobjid = p.objid WHERE s.z > 0.1",
    "SELECT p.objid, t.name FROM photoobj AS p JOIN photo_type AS t \
     ON p.type < t.value WHERE p.u > 21",
    "SELECT p.objid, s.class FROM photoobj AS p LEFT JOIN specobj AS s \
     ON p.objid = s.bestobjid WHERE p.r < 17",
    "SELECT class, COUNT(*), AVG(z) FROM specobj WHERE z > 0 GROUP BY class",
    "SELECT type, COUNT(*), MIN(u), MAX(r), SUM(run) FROM photoobj \
     WHERE ra > 10 GROUP BY type",
    "SELECT class, survey, COUNT(*) FROM specobj GROUP BY class, survey",
    "SELECT COUNT(*), SUM(plate) FROM specobj WHERE survey <> 'boss'",
    "SELECT DISTINCT class, subclass FROM specobj WHERE z > 0.05",
    "SELECT objid, u FROM photoobj WHERE u > 18 AND u < 22 \
     ORDER BY u DESC LIMIT 5",
    "SELECT specobjid FROM specobj WHERE class LIKE 'G%' ORDER BY z",
    "SELECT t.name, COUNT(*) FROM photoobj AS p JOIN photo_type AS t \
     ON p.type = t.value GROUP BY t.name ORDER BY COUNT(*) DESC LIMIT 2",
];

/// Run `statements` under `opts` with collection on and render every
/// `engine.*` counter except `engine.parallel.steals`, one per line.
fn engine_counters<S: AsRef<str>>(db: &Database, statements: &[S], opts: ExecOptions) -> String {
    obs::set_mode(obs::Mode::Summary);
    obs::reset();
    for sql in statements.iter().map(AsRef::as_ref) {
        db.run_with(sql, opts)
            .unwrap_or_else(|e| panic!("{sql}: {e}"));
    }
    let report = obs::snapshot();
    obs::set_mode(obs::Mode::Off);
    obs::reset();
    report
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("engine.") && name != "engine.parallel.steals")
        .map(|(name, v)| format!("{name} {v}\n"))
        .collect()
}

#[test]
fn engine_counters_are_pinned() {
    let d = Domain::Sdss.build(SizeClass::Tiny);
    let columnar = ExecOptions::default();
    let row = ExecOptions {
        columnar: false,
        ..columnar
    };
    let configs = [
        ("row", row, ROW),
        (
            "columnar/1 worker",
            ExecOptions {
                workers: 1,
                ..columnar
            },
            COLUMNAR_SERIAL,
        ),
        (
            "columnar/3 workers, 7-row morsels",
            ExecOptions {
                workers: 3,
                morsel_rows: 7,
                ..columnar
            },
            COLUMNAR_MORSELS,
        ),
    ];
    for (name, opts, expected) in configs {
        assert_eq!(
            engine_counters(&d.db, STATEMENTS, opts),
            expected,
            "engine counters under {name}"
        );
    }

    // The nested-loop twins (`ON a = b` written `ON NOT (a <> b)`) run
    // every join as a nested loop and count the same rows otherwise.
    let twins: Vec<String> = STATEMENTS
        .iter()
        .map(|sql| {
            let q = sciencebenchmark::sql::parser::parse(sql).unwrap();
            sb_fuzz::nested_loop_twin(&q).map_or_else(|| sql.to_string(), |t| t.to_string())
        })
        .collect();
    assert_eq!(
        engine_counters(&d.db, &twins, row),
        ROW_TWINS,
        "engine counters of the nested-loop twins on the row path"
    );

    // The columnar attempt scans and joins, then bails in the
    // projection: its eager AND evaluates an overflowing product the row
    // path's short circuit never reaches. The abandoned attempt's work
    // is not counted: the counters are the row path's plus one fallback.
    let fallback = "SELECT p.objid, (p.type = 99) AND (p.objid * 9223372036854775807 > 0) \
                    FROM photoobj AS p JOIN specobj AS s ON p.objid = s.bestobjid \
                    WHERE p.u > 18";
    let row_counters = engine_counters(&d.db, &[fallback], row);
    assert_eq!(row_counters, FALLBACK_ROW);
    assert_eq!(
        engine_counters(&d.db, &[fallback], configs[1].1),
        format!("engine.columnar.fallbacks 1\n{row_counters}")
    );

    // A row-path statement's subquery runs on the row path too.
    let subquery = "SELECT objid FROM photoobj \
                    WHERE type IN (SELECT value FROM photo_type WHERE name <> 'STAR')";
    let counters = engine_counters(&d.db, &[subquery], row);
    assert!(
        !counters.contains("engine.columnar.selects"),
        "subquery ran columnar under columnar: false:\n{counters}"
    );
    assert!(
        counters.contains("engine.compile.subquery_exec 1\n"),
        "{counters}"
    );
}

const ROW: &str = "\
engine.group.groups_created 26
engine.join.hash 5
engine.join.hash.build_rows 1847
engine.join.hash.probe_rows 4449
engine.join.nested_loop 1
engine.order.topk 2
engine.scan.rows 11365
engine.scan.rows_pruned_pushdown 3479
";
const ROW_TWINS: &str = "\
engine.group.groups_created 26
engine.join.nested_loop 6
engine.order.topk 2
engine.scan.rows 11365
engine.scan.rows_pruned_pushdown 3479
";
const COLUMNAR_SERIAL: &str = "\
engine.columnar.agg.groups 26
engine.columnar.join.build_rows 1847
engine.columnar.join.hash 5
engine.columnar.join.output_rows 3701
engine.columnar.join.probe_rows 4449
engine.columnar.selects 12
engine.join.nested_loop 1
engine.order.topk 2
engine.scan.rows 11365
engine.scan.rows_pruned_pushdown 3479
";
const COLUMNAR_MORSELS: &str = "\
engine.columnar.agg.groups 26
engine.columnar.join.build_rows 1847
engine.columnar.join.hash 5
engine.columnar.join.output_rows 3701
engine.columnar.join.probe_rows 4449
engine.columnar.selects 12
engine.join.nested_loop 1
engine.order.topk 2
engine.parallel.morsels 2929
engine.parallel.ops 25
engine.scan.rows 11365
engine.scan.rows_pruned_pushdown 3479
";
const FALLBACK_ROW: &str = "\
engine.join.hash 1
engine.join.hash.build_rows 150
engine.join.hash.probe_rows 937
engine.scan.rows 1600
engine.scan.rows_pruned_pushdown 513
";
