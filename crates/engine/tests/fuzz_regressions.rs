//! Regression tests for bugs found by the differential fuzzer
//! (`crates/fuzz`): each test is a shrunk reproducer, re-shaped onto a
//! small local fixture with the same column-name structure as the
//! domain schema the fuzzer hit. The original finding is noted on each
//! test; replay with e.g.
//! `cargo run --release -p sb-fuzz --bin fuzz -- --domain sdss --seed 23893`.

use sb_engine::{
    execute_capped, execute_reference, execute_with, Database, EngineError, ExecOptions, ResultSet,
    Value,
};
use sb_schema::{Column, ColumnType, Schema, TableDef};

/// SDSS-shaped fixture: `specobj` and `galspecline` share the column
/// name `specobjid` (the ambiguity surface), `specobj.bestobjid` is
/// NULLable and dangling for one row (the join NULL-semantics surface).
fn db() -> Database {
    let schema = Schema::new("mini_sdss")
        .with_table(TableDef::new(
            "specobj",
            vec![
                Column::pk("specobjid", ColumnType::Int),
                Column::new("bestobjid", ColumnType::Int),
                Column::new("class", ColumnType::Text),
            ],
        ))
        .with_table(TableDef::new(
            "galspecline",
            vec![
                Column::new("specobjid", ColumnType::Int),
                Column::new("flux", ColumnType::Float),
            ],
        ))
        .with_table(TableDef::new(
            "photoobj",
            vec![
                Column::pk("objid", ColumnType::Int),
                Column::new("u", ColumnType::Float),
            ],
        ));
    let mut db = Database::new(schema);
    db.table_mut("specobj").unwrap().push_rows(vec![
        vec![1.into(), 10.into(), "GALAXY".into()],
        vec![2.into(), 20.into(), "GALAXY".into()],
        vec![3.into(), Value::Null, "STAR".into()],
        vec![4.into(), 99.into(), "QSO".into()],
    ]);
    db.table_mut("galspecline").unwrap().push_rows(vec![
        vec![1.into(), 4.5.into()],
        vec![1.into(), 6.25.into()],
        vec![9.into(), 1.0.into()],
    ]);
    db.table_mut("photoobj").unwrap().push_rows(vec![
        vec![10.into(), 18.0.into()],
        vec![40.into(), 21.0.into()],
    ]);
    db
}

/// Every point of the executor's configuration matrix: the columnar
/// batch engine off, on, and on with every operator split into one-row
/// morsels across three workers. The nested-loop join is covered by
/// each equi-join test's twin statement, with `ON a = b` written
/// `ON NOT (a <> b)` so that no hash-join key extractor recognizes it.
fn matrix() -> Vec<ExecOptions> {
    vec![
        ExecOptions {
            columnar: false,
            ..ExecOptions::default()
        },
        ExecOptions::default(),
        multi_morsel(),
    ]
}

/// The columnar engine with every operator over more than one row split
/// into one-row morsels, dispatched across three workers.
fn multi_morsel() -> ExecOptions {
    ExecOptions {
        columnar: true,
        parallel: true,
        workers: 3,
        morsel_rows: 1,
    }
}

/// The reference interpreter's result for `sql`: the baseline every
/// configuration must reproduce row for row.
fn reference(db: &Database, sql: &str) -> ResultSet {
    execute_reference(db, &sb_sql::parse(sql).unwrap()).unwrap()
}

/// Found on sdss, seed 23893: `ON specobjid = T2.specobjid` with
/// `specobjid` present on both sides. The hash-join key extractor bound
/// the bare column to the right relation and returned rows, while the
/// nested-loop evaluator (correctly) raised `AmbiguousColumn`.
#[test]
fn bare_on_column_ambiguous_across_sides_errors_under_every_strategy() {
    let db = db();
    let sql = "SELECT T1.flux FROM galspecline AS T1 \
               JOIN specobj AS T2 ON specobjid = T2.specobjid";
    let twin = "SELECT T1.flux FROM galspecline AS T1 \
                JOIN specobj AS T2 ON NOT (specobjid <> T2.specobjid)";
    for run in [sql, twin] {
        for opts in matrix() {
            assert!(
                matches!(db.run_with(run, opts), Err(EngineError::AmbiguousColumn(_))),
                "{opts:?} did not report the ambiguity: {run}"
            );
        }
    }
    let q = sb_sql::parse(sql).unwrap();
    assert!(matches!(
        execute_reference(&db, &q),
        Err(EngineError::AmbiguousColumn(_))
    ));
}

/// The flip side: a bare ON column whose name exists in exactly one
/// side is legal, and the hash path must still fire rows identical to
/// the nested loop's.
#[test]
fn bare_on_column_unique_to_one_side_joins_identically() {
    let db = db();
    let sql = "SELECT T1.specobjid, T2.u FROM specobj AS T1 \
               JOIN photoobj AS T2 ON bestobjid = T2.objid";
    let twin = "SELECT T1.specobjid, T2.u FROM specobj AS T1 \
                JOIN photoobj AS T2 ON NOT (bestobjid <> T2.objid)";
    let baseline = reference(&db, sql);
    assert_eq!(baseline.rows.len(), 1); // only bestobjid=10 matches
    for run in [sql, twin] {
        for opts in matrix() {
            assert_eq!(db.run_with(run, opts).unwrap().rows, baseline.rows);
        }
    }
}

/// Found on cordis, seed 789781: `ORDER BY 4` after a set operation
/// with fewer output columns panicked with an index-out-of-bounds in
/// the sort comparator when rows were present, and silently succeeded
/// when the result happened to be empty.
#[test]
fn order_by_ordinal_out_of_range_errors_instead_of_panicking() {
    let db = db();
    let with_rows = "SELECT class AS c1 FROM specobj UNION \
                     SELECT class AS c1 FROM specobj ORDER BY 4";
    let empty = "SELECT class AS c1 FROM specobj WHERE class = 'NONE' UNION \
                 SELECT class AS c1 FROM specobj WHERE class = 'NONE' ORDER BY 4";
    for sql in [with_rows, empty] {
        for opts in matrix() {
            assert!(
                matches!(db.run_with(sql, opts), Err(EngineError::UnknownColumn(_))),
                "{opts:?} did not reject: {sql}"
            );
        }
        let q = sb_sql::parse(sql).unwrap();
        assert!(matches!(
            execute_reference(&db, &q),
            Err(EngineError::UnknownColumn(_))
        ));
    }
    // In-range ordinals still sort.
    let r = db
        .run(
            "SELECT class AS c1 FROM specobj UNION \
              SELECT class AS c1 FROM specobj ORDER BY 1",
        )
        .unwrap();
    let classes: Vec<_> = r.rows.iter().map(|row| row[0].clone()).collect();
    assert_eq!(
        classes,
        vec!["GALAXY".into(), "QSO".into(), "STAR".into()] as Vec<Value>
    );
}

/// Found on cordis, seed 789781: when predicate pushdown emptied one
/// scan, the join loop never evaluated its ON constraint, so the
/// ambiguity error disappeared and the query "succeeded" with 0 rows.
/// Constraint column references are now resolved before any rows flow.
#[test]
fn on_constraint_resolution_does_not_depend_on_row_counts() {
    let db = db();
    // `T1.class = 'NOMATCH'` pushes into the specobj scan and empties it.
    let sql = "SELECT T2.flux FROM specobj AS T1 \
               JOIN galspecline AS T2 ON specobjid = T1.specobjid \
               WHERE T1.class = 'NOMATCH'";
    let twin = "SELECT T2.flux FROM specobj AS T1 \
                JOIN galspecline AS T2 ON NOT (specobjid <> T1.specobjid) \
                WHERE T1.class = 'NOMATCH'";
    for run in [sql, twin] {
        for opts in matrix() {
            assert!(
                matches!(db.run_with(run, opts), Err(EngineError::AmbiguousColumn(_))),
                "{opts:?} lost the ambiguity error: {run}"
            );
        }
    }
    // Same for a plain unknown column against an empty side.
    let unknown = "SELECT T1.class FROM specobj AS T1 \
                   JOIN galspecline AS T2 ON T1.nope = T2.specobjid \
                   WHERE T1.class = 'NOMATCH'";
    let twin = "SELECT T1.class FROM specobj AS T1 \
                JOIN galspecline AS T2 ON NOT (T1.nope <> T2.specobjid) \
                WHERE T1.class = 'NOMATCH'";
    for run in [unknown, twin] {
        for opts in matrix() {
            assert!(
                matches!(db.run_with(run, opts), Err(EngineError::UnknownColumn(_))),
                "{opts:?} lost the unknown-column error: {run}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Hash-join NULL semantics: NULL keys never match, and LEFT JOIN
// null-extension is identical whichever algorithm runs.
// ---------------------------------------------------------------------

#[test]
fn null_join_keys_never_match_under_any_strategy() {
    let db = db();
    // specobjid=3 has bestobjid NULL; NULL = anything is not TRUE, so it
    // must not pair with any photoobj row — including another NULL key.
    let sql = "SELECT T1.specobjid, T2.objid FROM specobj AS T1 \
               JOIN photoobj AS T2 ON T1.bestobjid = T2.objid";
    let twin = "SELECT T1.specobjid, T2.objid FROM specobj AS T1 \
                JOIN photoobj AS T2 ON NOT (T1.bestobjid <> T2.objid)";
    let baseline = reference(&db, sql);
    let ids: Vec<_> = baseline.rows.iter().map(|r| r[0].clone()).collect();
    assert_eq!(ids, vec![Value::Int(1)]);
    for run in [sql, twin] {
        for opts in matrix() {
            assert_eq!(db.run_with(run, opts).unwrap().rows, baseline.rows);
        }
    }
}

#[test]
fn left_join_null_extension_agrees_between_hash_and_nested_loop() {
    let db = db();
    // Unmatched (2, 4) and NULL-keyed (3) rows are all null-extended.
    let sql = "SELECT T1.specobjid, T2.objid, T2.u FROM specobj AS T1 \
               LEFT JOIN photoobj AS T2 ON T1.bestobjid = T2.objid \
               ORDER BY T1.specobjid";
    let twin = "SELECT T1.specobjid, T2.objid, T2.u FROM specobj AS T1 \
                LEFT JOIN photoobj AS T2 ON NOT (T1.bestobjid <> T2.objid) \
                ORDER BY T1.specobjid";
    let baseline = reference(&db, sql);
    assert_eq!(
        baseline.rows,
        vec![
            vec![1.into(), 10.into(), 18.0.into()],
            vec![2.into(), Value::Null, Value::Null],
            vec![3.into(), Value::Null, Value::Null],
            vec![4.into(), Value::Null, Value::Null],
        ]
    );
    for run in [sql, twin] {
        for opts in matrix() {
            assert_eq!(db.run_with(run, opts).unwrap().rows, baseline.rows);
        }
    }
}

// ---------------------------------------------------------------------
// Exact cross-type numeric comparison: i64 values beyond 2^53 must not
// collapse under f64 rounding in filters, ORDER BY, joins or grouping.
// ---------------------------------------------------------------------

/// Fixture around the 2^53 precision cliff: `big.v` holds 2^53 and
/// 2^53 + 1 (indistinguishable once rounded through f64), `keys.f`
/// holds the float 2^53.
fn bigint_db() -> Database {
    const P53: i64 = 1 << 53;
    let schema = Schema::new("bigint")
        .with_table(TableDef::new(
            "big",
            vec![
                Column::pk("id", ColumnType::Int),
                Column::new("v", ColumnType::Int),
            ],
        ))
        .with_table(TableDef::new(
            "keys",
            vec![Column::new("f", ColumnType::Float)],
        ));
    let mut db = Database::new(schema);
    db.table_mut("big").unwrap().push_rows(vec![
        vec![1.into(), Value::Int(P53 + 1)],
        vec![2.into(), Value::Int(P53)],
        vec![3.into(), Value::Int(-5)],
    ]);
    db.table_mut("keys")
        .unwrap()
        .push_rows(vec![vec![Value::Float(P53 as f64)]]);
    db
}

/// Found while auditing `Value::compare`: `2^53 + 1 > 2^53` compared as
/// equal after both sides rounded to the same f64. The comparison is
/// exact now, under every configuration and the reference.
#[test]
fn int_comparisons_beyond_2_pow_53_stay_exact() {
    let db = bigint_db();
    let sql = "SELECT id FROM big WHERE v > 9007199254740992 ORDER BY id";
    let baseline = reference(&db, sql);
    assert_eq!(baseline.rows, vec![vec![Value::Int(1)]]);
    for opts in matrix() {
        assert_eq!(
            db.run_with(sql, opts).unwrap().rows,
            baseline.rows,
            "{opts:?}"
        );
    }

    // ORDER BY must rank 2^53 + 1 strictly above 2^53.
    let sql = "SELECT v FROM big ORDER BY v DESC";
    for opts in matrix() {
        let r = db.run_with(sql, opts).unwrap();
        assert_eq!(
            r.rows,
            vec![
                vec![Value::Int((1 << 53) + 1)],
                vec![Value::Int(1 << 53)],
                vec![Value::Int(-5)],
            ],
            "{opts:?}"
        );
    }
}

/// GROUP BY on huge ints must keep 2^53 and 2^53 + 1 in separate
/// groups, and a float 2^53 join key must match the int 2^53 row only.
#[test]
fn grouping_and_joins_distinguish_adjacent_huge_ints() {
    let db = bigint_db();
    let sql = "SELECT v, COUNT(*) FROM big GROUP BY v";
    for opts in matrix() {
        assert_eq!(db.run_with(sql, opts).unwrap().rows.len(), 3, "{opts:?}");
    }
    let q = sb_sql::parse(sql).unwrap();
    assert_eq!(execute_reference(&db, &q).unwrap().rows.len(), 3);

    let sql = "SELECT T1.id FROM big AS T1 JOIN keys AS T2 ON T1.v = T2.f";
    let twin = "SELECT T1.id FROM big AS T1 JOIN keys AS T2 ON NOT (T1.v <> T2.f)";
    let baseline = reference(&db, sql);
    assert_eq!(
        baseline.rows,
        vec![vec![Value::Int(2)]],
        "float 2^53 = int 2^53 only"
    );
    for run in [sql, twin] {
        for opts in matrix() {
            assert_eq!(
                db.run_with(run, opts).unwrap().rows,
                baseline.rows,
                "{opts:?}: {run}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Checked i64 arithmetic: overflow is a defined `Overflow` error in
// every configuration and the reference — never a silent wrap or panic.
// ---------------------------------------------------------------------

#[test]
fn integer_overflow_is_a_defined_error_everywhere() {
    let db = bigint_db();
    for sql in [
        // v = 2^53 + 1; multiplying by itself overflows i64.
        "SELECT v * v FROM big",
        "SELECT v + 9223372036854775807 FROM big WHERE id = 1",
        "SELECT -(-9223372036854775807 - 1) FROM big WHERE id = 1",
        // SUM of 2^53 and 2^53+1 fits; force overflow via repeated MAX.
        "SELECT SUM(v * 1024 * 1024) FROM big WHERE v > 0",
        // Every product fits and so does the total, 2^63 - 2048, but the
        // running sum passes 2^63 at row 2: a running `checked_add`
        // overflows, so the SUM must too, in one morsel or split.
        "SELECT SUM(v * 512) FROM big",
    ] {
        for opts in matrix() {
            assert!(
                matches!(db.run_with(sql, opts), Err(EngineError::Overflow(_))),
                "{opts:?} did not overflow: {sql}"
            );
        }
        let q = sb_sql::parse(sql).unwrap();
        assert!(
            matches!(execute_reference(&db, &q), Err(EngineError::Overflow(_))),
            "reference did not overflow: {sql}"
        );
    }
    // Non-overflowing neighbours still succeed exactly.
    let r = db.run("SELECT v + 1 FROM big WHERE id = 2").unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int((1 << 53) + 1)]]);
}

/// A row cap builds only the rows it returns, but a projection that can
/// fail still runs over every row: the only overflowing row (`v = -5`,
/// the last) lies past caps 0, 1 and 2, and the capped statement must
/// still report the uncapped statement's `Overflow`.
#[test]
fn overflow_past_the_row_cap_is_still_raised() {
    let db = bigint_db();
    let q = sb_sql::parse("SELECT id, 9223372036854775807 - v FROM big").unwrap();
    for opts in matrix() {
        let uncapped = execute_with(&db, &q, opts);
        assert!(
            matches!(uncapped, Err(EngineError::Overflow(_))),
            "{opts:?}: {uncapped:?}"
        );
        for cap in [0, 1, 2] {
            let capped = execute_capped(&db, &q, opts, None, None, cap).map(|(rs, _)| rs);
            assert_eq!(capped, uncapped, "{opts:?} at cap {cap}");
        }
    }
}

/// Two-row morsels over `-2^62, -2^62, 2^62, 2^62, 1`: the second
/// morsel's own running sum reaches 2^63 and leaves i64, while every
/// running sum of the column stays inside it (the lowest is exactly
/// `i64::MIN`). The split SUM must retrace that morsel exactly and
/// answer 1 on the batch engine, not overflow or fall back.
#[test]
fn sum_whose_morsel_alone_leaves_i64_is_exact() {
    const P62: i64 = 1 << 62;
    let schema =
        Schema::new("sums").with_table(TableDef::new("s", vec![Column::new("v", ColumnType::Int)]));
    let mut db = Database::new(schema);
    db.table_mut("s").unwrap().push_rows(
        [-P62, -P62, P62, P62, 1]
            .into_iter()
            .map(|v| vec![Value::Int(v)]),
    );
    let sql = "SELECT SUM(v) FROM s";
    assert_eq!(reference(&db, sql).rows, vec![vec![Value::Int(1)]]);
    let split = ExecOptions {
        morsel_rows: 2,
        ..multi_morsel()
    };
    for opts in matrix().into_iter().chain([split]) {
        assert_eq!(
            db.run_with(sql, opts).unwrap().rows,
            vec![vec![Value::Int(1)]],
            "{opts:?}"
        );
    }
    let plan = sb_engine::explain_analyze(&db, &sb_sql::parse(sql).unwrap(), split, false).unwrap();
    assert!(plan.contains("actual=columnar"), "{plan}");
}

// ---------------------------------------------------------------------
// Key kinds split into morsels: grouping and join keys beyond the
// dictionary-text and integer kinds, each merged across one-row morsels.
// ---------------------------------------------------------------------

/// One table per key kind: `kinds.f` holds `0.0`, `-0.0`, two floats
/// that round to the same 6-decimal canonical key, and NULLs; `kinds.b`
/// is a bool with NULLs; `kinds.z` is NULL throughout; `kinds.t` is
/// text whose only NULL is the last row (the last one-row morsel).
/// `other` carries text and float join keys for `kinds.t` / `kinds.f`.
fn kinds_db() -> Database {
    let schema = Schema::new("kinds")
        .with_table(TableDef::new(
            "kinds",
            vec![
                Column::pk("id", ColumnType::Int),
                Column::new("f", ColumnType::Float),
                Column::new("b", ColumnType::Bool),
                Column::new("z", ColumnType::Int),
                Column::new("t", ColumnType::Text),
                Column::new("g", ColumnType::Int),
            ],
        ))
        .with_table(TableDef::new(
            "other",
            vec![
                Column::new("t", ColumnType::Text),
                Column::new("f", ColumnType::Float),
                Column::new("w", ColumnType::Int),
            ],
        ));
    let mut db = Database::new(schema);
    let row = |id: i64, f: Value, b: Value, t: Value, g: i64| {
        vec![Value::Int(id), f, b, Value::Null, t, Value::Int(g)]
    };
    db.table_mut("kinds").unwrap().push_rows(vec![
        row(1, 0.0.into(), true.into(), "a".into(), 1),
        row(2, (-0.0).into(), Value::Null, "b".into(), 1),
        row(3, 1.0000001.into(), false.into(), "a".into(), 2),
        row(4, Value::Null, true.into(), "c".into(), 2),
        row(5, 1.0000002.into(), Value::Null, "b".into(), 1),
        row(6, 0.0.into(), false.into(), "a".into(), 2),
        row(7, Value::Null, true.into(), "c".into(), 1),
        row(8, 2.5.into(), false.into(), Value::Null, 2),
    ]);
    db.table_mut("other").unwrap().push_rows(vec![
        vec!["a".into(), 0.0.into(), 10.into()],
        vec!["c".into(), 2.5.into(), 20.into()],
        vec![Value::Null, (-0.0).into(), 30.into()],
        vec!["a".into(), 1.0000001.into(), 40.into()],
        vec!["zz".into(), Value::Null, 50.into()],
    ]);
    db
}

/// Grouping on float, bool, all-NULL, late-NULL text and two-column
/// keys, and equi-joins on text and float keys, agree row for row (group
/// order included) with the reference interpreter when every operator
/// runs over one-row morsels.
#[test]
fn key_kinds_split_into_morsels_match_the_reference() {
    let db = kinds_db();
    for sql in [
        "SELECT f, COUNT(*), SUM(id), MIN(id) FROM kinds GROUP BY f",
        "SELECT b, COUNT(*), MAX(id) FROM kinds GROUP BY b",
        "SELECT z, COUNT(*), SUM(g) FROM kinds GROUP BY z",
        "SELECT t, COUNT(*), MIN(f) FROM kinds GROUP BY t",
        "SELECT t, g, COUNT(*), SUM(id) FROM kinds GROUP BY t, g",
        "SELECT T1.id, T2.w FROM kinds AS T1 JOIN other AS T2 ON T1.t = T2.t",
        "SELECT T1.id, T2.w FROM kinds AS T1 JOIN other AS T2 ON T1.f = T2.f",
        // The joins' nested-loop twins.
        "SELECT T1.id, T2.w FROM kinds AS T1 JOIN other AS T2 ON NOT (T1.t <> T2.t)",
        "SELECT T1.id, T2.w FROM kinds AS T1 JOIN other AS T2 ON NOT (T1.f <> T2.f)",
    ] {
        let baseline = reference(&db, sql);
        assert!(!baseline.rows.is_empty(), "{sql}");
        for opts in matrix() {
            assert_eq!(
                db.run_with(sql, opts).unwrap().rows,
                baseline.rows,
                "{opts:?}: {sql}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// The shared join layer: both executors join row ids through one hash
// join, and derived tables are column images.
// ---------------------------------------------------------------------

/// `sql` under every configuration equals the reference interpreter:
/// the same rows in the same order, or the same error and message.
fn assert_every_config_matches_reference(db: &Database, sql: &str) {
    let q = sb_sql::parse(sql).unwrap();
    let want = format!("{:?}", execute_reference(db, &q).map(|r| r.rows));
    for opts in matrix() {
        let got = format!("{:?}", execute_with(db, &q, opts).map(|r| r.rows));
        assert_eq!(got, want, "{opts:?}: {sql}");
    }
}

/// An inner and a LEFT equi join that probe the relation an earlier
/// LEFT JOIN NULL-extended: its unmatched rows read NULL keys, which
/// match nothing.
#[test]
fn joins_probing_a_null_extended_relation_read_null_keys() {
    let db = db();
    for sql in [
        "SELECT T1.specobjid, T2.objid, T3.u FROM specobj AS T1 \
         LEFT JOIN photoobj AS T2 ON T1.bestobjid = T2.objid \
         JOIN photoobj AS T3 ON T2.objid = T3.objid",
        "SELECT T1.specobjid, T2.objid, T3.u FROM specobj AS T1 \
         LEFT JOIN photoobj AS T2 ON T1.bestobjid = T2.objid \
         LEFT JOIN photoobj AS T3 ON T2.objid = T3.objid",
    ] {
        assert!(!reference(&db, sql).rows.is_empty(), "{sql}");
        assert_every_config_matches_reference(&db, sql);
    }
}

/// Bare ON columns, each unique to one side, hash-join on the row path
/// too, and a bare name on an earlier relation and the incoming one is
/// ambiguous under every configuration.
#[test]
fn bare_on_columns_hash_join_or_raise_ambiguity() {
    let db = db();
    let sql = "SELECT T1.specobjid, T2.u FROM specobj AS T1 \
               JOIN photoobj AS T2 ON bestobjid = objid";
    assert_every_config_matches_reference(&db, sql);
    let prof = sb_obs::QueryProfile::new();
    let row = ExecOptions {
        columnar: false,
        ..ExecOptions::default()
    };
    sb_engine::execute_with_profile(&db, &sb_sql::parse(sql).unwrap(), row, Some(&prof)).unwrap();
    let blocks = prof.snapshot().blocks;
    assert!(
        blocks[0].joins[0].is_some_and(|j| j.marked),
        "not a hash join"
    );

    let ambiguous = "SELECT T2.u FROM galspecline AS T1 \
                     JOIN photoobj AS T2 ON T1.specobjid = T2.objid \
                     JOIN specobj AS T3 ON specobjid = T2.objid";
    assert_every_config_matches_reference(&db, ambiguous);
    assert!(matches!(
        db.run(ambiguous),
        Err(EngineError::AmbiguousColumn(_))
    ));
}

/// A derived column mixing ints and floats (a `Values` column of the
/// derived image) joins under SQL equality: the float 1.0 matches the
/// int 1, on either side of the join.
#[test]
fn joins_on_a_mixed_int_float_derived_column() {
    let db = db();
    let derived = "(SELECT specobjid AS k FROM specobj WHERE specobjid > 2 \
                   UNION ALL SELECT flux AS k FROM galspecline) AS d";
    for sql in [
        format!(
            "SELECT T2.specobjid, T2.class FROM {derived} JOIN specobj AS T2 ON d.k = T2.specobjid"
        ),
        format!("SELECT d.k, T2.class FROM {derived} JOIN specobj AS T2 ON d.k = T2.specobjid"),
        format!("SELECT T2.specobjid, d.k FROM specobj AS T2 JOIN {derived} ON T2.specobjid = d.k"),
    ] {
        assert_eq!(reference(&db, &sql).rows.len(), 3, "{sql}");
        assert_every_config_matches_reference(&db, &sql);
    }
}

/// Equal strings from two base tables land in one dictionary entry of
/// a derived table's image, so grouping by code groups by content.
#[test]
fn derived_text_from_two_tables_groups_by_content() {
    let db = kinds_db();
    for sql in [
        "SELECT d.t, COUNT(*) FROM (SELECT t FROM kinds UNION ALL SELECT t FROM other) AS d \
         GROUP BY d.t",
        "SELECT DISTINCT d.t FROM (SELECT t FROM other UNION ALL SELECT t FROM kinds) AS d",
    ] {
        // a, b, c, zz and NULL.
        assert_eq!(reference(&db, sql).rows.len(), 5, "{sql}");
        assert_every_config_matches_reference(&db, sql);
    }
}

/// `big`, `mid` and `tiny`, joined on key columns named `keys`.
fn reorder_db(keys: [&str; 3]) -> Database {
    let int = |name: &str| Column::new(name, ColumnType::Int);
    let schema = Schema::new("reorder")
        .with_table(TableDef::new(
            "big",
            vec![Column::pk("id", ColumnType::Int), int(keys[0])],
        ))
        .with_table(TableDef::new(
            "mid",
            vec![int(keys[1]), Column::new("tag", ColumnType::Text)],
        ))
        .with_table(TableDef::new(
            "tiny",
            vec![
                Column::pk(keys[2], ColumnType::Int),
                Column::new("name", ColumnType::Text),
            ],
        ));
    let mut db = Database::new(schema);
    db.table_mut("big")
        .unwrap()
        .push_rows((1..=6).map(|i| vec![Value::Int(i), Value::Int(2 - i % 2)]));
    db.table_mut("mid").unwrap().push_rows(vec![
        vec![2.into(), "x".into()],
        vec![1.into(), "y".into()],
        vec![2.into(), "z".into()],
        vec![1.into(), "w".into()],
    ]);
    db.table_mut("tiny").unwrap().push_rows(vec![
        vec![1.into(), "one".into()],
        vec![2.into(), "two".into()],
    ]);
    db
}

/// A three-way join the planner reorders to start from the smallest
/// relation: the execution order emits tuples in another order than the
/// written joins, and restoring source order puts them back. Bare key
/// names reorder as qualified ones do: the planner takes its keys from
/// the executors' equi-key rule.
#[test]
fn reordered_three_way_join_restores_source_order() {
    for (db, sql) in [
        (
            reorder_db(["k", "k", "k"]),
            "SELECT big.id, mid.tag, tiny.name FROM big \
             JOIN mid ON big.k = mid.k JOIN tiny ON tiny.k = mid.k",
        ),
        (
            reorder_db(["bk", "mk", "tk"]),
            "SELECT id, tag, name FROM big JOIN mid ON bk = mk JOIN tiny ON tk = mk",
        ),
    ] {
        let q = sb_sql::parse(sql).unwrap();
        for opts in matrix() {
            let plan = sb_engine::plan_top_select(&db, &q, opts).unwrap();
            assert!(plan.reordered && plan.order[0] == 2, "{:?}", plan.order);
        }
        let rows = reference(&db, sql).rows;
        assert_eq!(rows.len(), 12);
        assert_eq!(
            rows[..3],
            [
                vec![1.into(), "y".into(), "one".into()],
                vec![1.into(), "w".into(), "one".into()],
                vec![2.into(), "x".into(), "two".into()],
            ]
        );
        assert_every_config_matches_reference(&db, sql);
    }
}

/// A binding name the join repeats: a qualified ON column resolves to
/// the first relation of that name, as the nested loop reads it, so
/// `K.id = K.g` compares two columns of the left row and has no hash
/// key. The executor's old key extractor bound the second reference to
/// the incoming relation and hash-joined `left.id = right.g`.
#[test]
fn repeated_binding_names_resolve_to_the_first_relation() {
    let db = kinds_db();
    let sql = "SELECT K.id FROM kinds AS K JOIN kinds AS K ON K.id = K.g";
    assert_eq!(reference(&db, sql).rows, vec![vec![Value::Int(1)]; 8]);
    assert_every_config_matches_reference(&db, sql);
}
