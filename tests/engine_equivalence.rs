//! Equivalence and determinism guarantees for the execution engine:
//! the columnar engine on and off, and each statement's nested-loop
//! twin, must produce the exact same `ResultSet` (rows *and* order),
//! error parity is pinned against the reference interpreter, and the
//! parallel pipeline must be byte-identical regardless of thread count.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sciencebenchmark::core::{Pipeline, PipelineConfig};
use sciencebenchmark::data::{Domain, SizeClass};
use sciencebenchmark::engine::{execute_reference, Database, EngineError, ExecOptions};
use sciencebenchmark::schema::{Column, ColumnType, Schema, TableDef};

/// Every execution configuration that must agree: the columnar batch
/// engine on and off. The default options are the columnar point.
fn all_options() -> Vec<ExecOptions> {
    [false, true]
        .into_iter()
        .map(|columnar| ExecOptions {
            columnar,
            ..ExecOptions::default()
        })
        .collect()
}

/// `sql` followed, when it has an equi-join, by its nested-loop twin
/// ([`sb_fuzz::nested_loop_twin`]): the hash joins and the nested loop
/// must agree on both.
fn with_twin(sql: &str) -> Vec<String> {
    let query = sciencebenchmark::sql::parser::parse(sql).unwrap();
    std::iter::once(sql.to_string())
        .chain(sb_fuzz::nested_loop_twin(&query).map(|t| t.to_string()))
        .collect()
}

/// A type-appropriate comparison for `col_ref`, so generated queries
/// always execute.
fn typed_predicate(
    rng: &mut StdRng,
    col_ref: &str,
    ty: sciencebenchmark::schema::ColumnType,
) -> String {
    use sciencebenchmark::schema::ColumnType;
    match ty {
        ColumnType::Int | ColumnType::Float => {
            let op = *["<", ">", "<="].choose(rng).unwrap();
            format!("{col_ref} {op} {}", rng.gen_range(-5..500))
        }
        ColumnType::Bool => format!(
            "{col_ref} = {}",
            if rng.gen_bool(0.5) { "TRUE" } else { "FALSE" }
        ),
        ColumnType::Text => format!("{col_ref} <> 'zz_none'"),
    }
}

/// A random single-hop equi-join over a real FK edge of the schema, with
/// qualified projections and an optional typed filter / ORDER BY / LIMIT.
fn random_equi_join(
    rng: &mut StdRng,
    schema: &sciencebenchmark::schema::Schema,
    edges: &[(String, String, String, String)],
) -> String {
    let (lt, lc, rt, rc) = edges.choose(rng).unwrap();
    let ldef = schema.table(lt).unwrap();
    let rdef = schema.table(rt).unwrap();
    let p1 = &ldef.columns.choose(rng).unwrap().name;
    let p2 = &rdef.columns.choose(rng).unwrap().name;
    let mut sql =
        format!("SELECT T1.{p1}, T2.{p2} FROM {lt} AS T1 JOIN {rt} AS T2 ON T1.{lc} = T2.{rc}");
    if rng.gen_bool(0.6) {
        // Filter on a random column of a random side; the literal is
        // type-appropriate so the query always executes.
        let (qual, def) = if rng.gen_bool(0.5) {
            ("T1", ldef)
        } else {
            ("T2", rdef)
        };
        let col = def.columns.choose(rng).unwrap();
        sql.push_str(&format!(
            " WHERE {}",
            typed_predicate(rng, &format!("{qual}.{}", col.name), col.ty)
        ));
    }
    if rng.gen_bool(0.4) {
        sql.push_str(&format!(
            " ORDER BY T1.{p1}{}",
            if rng.gen_bool(0.5) { " DESC" } else { "" }
        ));
    }
    if rng.gen_bool(0.3) {
        sql.push_str(&format!(" LIMIT {}", rng.gen_range(1..40u64)));
    }
    sql
}

#[test]
fn join_strategies_agree_on_random_equi_joins_across_domains() {
    for (i, domain) in Domain::ALL.into_iter().enumerate() {
        let d = domain.build(SizeClass::Tiny);
        let schema = &d.db.schema;
        // Both directions of every FK edge, so the hash build lands on the
        // big side as well as the small one.
        let mut edges: Vec<(String, String, String, String)> = Vec::new();
        for t in &schema.tables {
            for (lcol, other, rcol) in schema.join_edges(&t.name) {
                edges.push((t.name.clone(), lcol, other, rcol));
            }
        }
        assert!(!edges.is_empty(), "{} has no FK edges", domain.name());
        let mut rng = StdRng::seed_from_u64(0xE9_0200 + i as u64);
        for _ in 0..60 {
            let sql = random_equi_join(&mut rng, schema, &edges);
            let reference =
                d.db.run_with(&sql, ExecOptions::default())
                    .unwrap_or_else(|e| panic!("{}: `{sql}`: {e}", domain.name()));
            let runs = with_twin(&sql);
            assert_eq!(runs.len(), 2, "`{sql}` has no nested-loop twin");
            for run in &runs {
                for opts in all_options() {
                    let rs = d.db.run_with(run, opts).unwrap_or_else(|e| {
                        panic!("{}: `{run}` with {opts:?}: {e}", domain.name())
                    });
                    assert_eq!(
                        rs,
                        reference,
                        "{}: `{run}` differs under {opts:?}",
                        domain.name()
                    );
                }
            }
        }
    }
}

#[test]
fn pushdown_agrees_on_filtered_single_table_scans() {
    for (i, domain) in Domain::ALL.into_iter().enumerate() {
        let d = domain.build(SizeClass::Tiny);
        let schema = &d.db.schema;
        let mut rng = StdRng::seed_from_u64(0x5CA_0300 + i as u64);
        for _ in 0..60 {
            let t = schema.tables.choose(&mut rng).unwrap();
            let proj = &t.columns.choose(&mut rng).unwrap().name;
            let col = t.columns.choose(&mut rng).unwrap();
            let pred = typed_predicate(&mut rng, &col.name.clone(), col.ty);
            let sql = format!("SELECT {proj} FROM {} WHERE {pred}", t.name);
            let reference = d.db.run_with(&sql, ExecOptions::default()).unwrap();
            // The reference interpreter never pushes a predicate down.
            let query = sciencebenchmark::sql::parser::parse(&sql).unwrap();
            assert!(
                execute_reference(&d.db, &query)
                    .unwrap()
                    .same_result(&reference),
                "{}: `{sql}` differs from the reference interpreter",
                domain.name()
            );
            for opts in all_options() {
                assert_eq!(
                    d.db.run_with(&sql, opts).unwrap(),
                    reference,
                    "{}: `{sql}` differs under {opts:?}",
                    domain.name()
                );
            }
        }
    }
}

/// The acceptance criterion for the parallel pipeline: byte-identical
/// output for the same `PipelineConfig` whether rayon runs 1 or N
/// workers. The thread count is process-global, so both runs happen
/// inside this one test.
#[test]
fn pipeline_output_is_identical_for_one_and_many_threads() {
    let run = || {
        let d = Domain::OncoMx.build(SizeClass::Tiny);
        let seeds = d.seed_patterns.clone();
        let mut p = Pipeline::new(
            &d,
            PipelineConfig {
                target_pairs: 40,
                ..Default::default()
            },
        );
        p.run(&seeds)
    };
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let sequential = run();
    std::env::set_var("RAYON_NUM_THREADS", "4");
    let parallel = run();
    std::env::remove_var("RAYON_NUM_THREADS");
    assert_eq!(sequential.pairs, parallel.pairs);
    assert_eq!(sequential.sql_queries, parallel.sql_queries);
    assert_eq!(sequential.templates, parallel.templates);
}

/// Observability must never change results: the same random workload
/// executed with `sb-obs` collection on and off must produce identical
/// `ResultSet`s under every executor configuration — and collection-on
/// must actually have collected engine counters (the instrumentation is
/// live, not compiled out).
#[test]
fn obs_on_and_off_produce_identical_result_sets() {
    use sciencebenchmark::obs;
    let d = Domain::Sdss.build(SizeClass::Tiny);
    let schema = &d.db.schema;
    let mut edges: Vec<(String, String, String, String)> = Vec::new();
    for t in &schema.tables {
        for (lcol, other, rcol) in schema.join_edges(&t.name) {
            edges.push((t.name.clone(), lcol, other, rcol));
        }
    }
    let queries: Vec<String> = {
        let mut rng = StdRng::seed_from_u64(0x0B5_0600);
        (0..30)
            .map(|_| random_equi_join(&mut rng, schema, &edges))
            .collect()
    };
    let run_all = || -> Vec<sciencebenchmark::engine::ResultSet> {
        let mut out = Vec::new();
        for sql in queries.iter().flat_map(|sql| with_twin(sql)) {
            for opts in all_options() {
                out.push(d.db.run_with(&sql, opts).unwrap());
            }
        }
        out
    };

    obs::set_mode(obs::Mode::Off);
    obs::reset();
    let off = run_all();
    assert!(obs::snapshot().is_empty(), "off mode must collect nothing");

    obs::set_mode(obs::Mode::Summary);
    obs::reset();
    let on = run_all();
    let report = obs::snapshot();
    obs::set_mode(obs::Mode::Off);
    obs::reset();

    assert_eq!(off, on, "sb-obs collection changed engine results");
    assert!(
        report.counter("engine.scan.rows") > 0,
        "engine instrumentation did not collect"
    );
    // The columnar batch engine ran (half the matrix enables it, the
    // workload is batch-eligible) and its kernels are instrumented, and
    // the twins ran nested loops.
    assert!(report.counter("engine.columnar.selects") > 0);
    assert!(report.counter("engine.columnar.join.hash") > 0);
    assert!(report.counter("engine.join.nested_loop") > 0);
    assert!(report.counter("engine.scan.rows_pruned_pushdown") > 0);
}

/// The per-query profile collector must be equally invisible: attaching
/// a `QueryProfile` to an execution (what `EXPLAIN ANALYZE` and the
/// serve-layer slow log do) must leave every `ResultSet` byte-identical
/// to the unprofiled run, under every executor configuration — and each
/// profiled run must actually have recorded operator flow.
#[test]
fn query_profiles_do_not_change_result_sets() {
    use sciencebenchmark::engine::execute_with_profile;
    use sciencebenchmark::obs::QueryProfile;
    let d = Domain::Cordis.build(SizeClass::Tiny);
    let schema = &d.db.schema;
    let mut edges: Vec<(String, String, String, String)> = Vec::new();
    for t in &schema.tables {
        for (lcol, other, rcol) in schema.join_edges(&t.name) {
            edges.push((t.name.clone(), lcol, other, rcol));
        }
    }
    let mut rng = StdRng::seed_from_u64(0x0B5_0700);
    for sql in (0..30).flat_map(|_| with_twin(&random_equi_join(&mut rng, schema, &edges))) {
        let query = sciencebenchmark::sql::parser::parse(&sql).unwrap();
        for opts in all_options() {
            let plain = execute_with_profile(&d.db, &query, opts, None).unwrap();
            let prof = QueryProfile::new();
            let profiled = execute_with_profile(&d.db, &query, opts, Some(&prof)).unwrap();
            assert_eq!(plain, profiled, "`{sql}` differs when profiled ({opts:?})");
            let snap = prof.snapshot();
            assert!(!snap.blocks.is_empty(), "`{sql}` recorded no blocks");
            snap.check_conservation()
                .unwrap_or_else(|e| panic!("`{sql}` ({opts:?}): {e}"));
        }
    }
}

// ---------------------------------------------------------------------
// Error parity: every configuration must surface the same binding
// errors — same variant, same rendered payload — and the reference
// interpreter must reject with the same variant. Zero-row plans must
// swallow residual errors under every configuration.
// ---------------------------------------------------------------------

/// Two tables sharing the column name `shared` (the ambiguity surface).
fn parity_db() -> Database {
    let schema = Schema::new("parity")
        .with_table(TableDef::new(
            "a",
            vec![
                Column::pk("id", ColumnType::Int),
                Column::new("x", ColumnType::Text),
                Column::new("shared", ColumnType::Int),
            ],
        ))
        .with_table(TableDef::new(
            "b",
            vec![
                Column::pk("id", ColumnType::Int),
                Column::new("shared", ColumnType::Int),
            ],
        ));
    let mut db = Database::new(schema);
    db.table_mut("a").unwrap().push_rows(vec![
        vec![1.into(), "one".into(), 10.into()],
        vec![2.into(), "two".into(), 20.into()],
    ]);
    db.table_mut("b")
        .unwrap()
        .push_rows(vec![vec![1.into(), 10.into()], vec![3.into(), 30.into()]]);
    db
}

/// Every configuration must reject `sql`, and every rejection must render
/// the exact same message — not just the same variant. The reference
/// interpreter must reject it too, with the same variant.
fn assert_uniform_error(db: &Database, sql: &str) -> EngineError {
    let mut first: Option<EngineError> = None;
    for run in with_twin(sql) {
        for opts in all_options() {
            let err = db
                .run_with(&run, opts)
                .err()
                .unwrap_or_else(|| panic!("`{run}` must fail under {opts:?}"));
            match &first {
                None => first = Some(err),
                Some(f) => assert_eq!(
                    f.to_string(),
                    err.to_string(),
                    "`{run}` error message drifts under {opts:?}"
                ),
            }
        }
    }
    let first = first.unwrap();
    let query = sciencebenchmark::sql::parser::parse(sql).unwrap();
    let reference = execute_reference(db, &query)
        .err()
        .unwrap_or_else(|| panic!("`{sql}` must fail in the reference interpreter"));
    assert_eq!(
        std::mem::discriminant(&reference),
        std::mem::discriminant(&first),
        "`{sql}`: the reference raised {reference}, the executor {first}"
    );
    first
}

#[test]
fn unknown_column_errors_are_identical_across_paths() {
    let db = parity_db();
    for sql in [
        "SELECT nope FROM a",
        "SELECT T1.nope FROM a AS T1",
        "SELECT x FROM a WHERE nope = 1",
        "SELECT x FROM a ORDER BY zzz",
    ] {
        let err = assert_uniform_error(&db, sql);
        assert!(
            matches!(err, EngineError::UnknownColumn(_)),
            "`{sql}` raised {err} instead of UnknownColumn"
        );
    }
}

#[test]
fn ambiguous_column_errors_are_identical_across_paths() {
    let db = parity_db();
    for sql in [
        "SELECT shared FROM a AS T1 JOIN b AS T2 ON T1.id = T2.id",
        "SELECT T1.x FROM a AS T1 JOIN b AS T2 ON shared = T2.shared",
        "SELECT T1.x FROM a AS T1 JOIN b AS T2 ON T1.id = T2.id WHERE shared > 0",
    ] {
        let err = assert_uniform_error(&db, sql);
        assert!(
            matches!(err, EngineError::AmbiguousColumn(_)),
            "`{sql}` raised {err} instead of AmbiguousColumn"
        );
    }
}

#[test]
fn order_by_ordinal_errors_are_identical_across_paths() {
    let db = parity_db();
    // Ordinals bind after set operations; out-of-range must error even
    // when the result is empty, identically under every configuration.
    for sql in [
        "SELECT x FROM a UNION SELECT x FROM a ORDER BY 5",
        "SELECT x FROM a WHERE x = 'none' UNION \
         SELECT x FROM a WHERE x = 'none' ORDER BY 5",
    ] {
        let err = assert_uniform_error(&db, sql);
        assert!(
            matches!(err, EngineError::UnknownColumn(_)),
            "`{sql}` raised {err} instead of UnknownColumn"
        );
    }
}

#[test]
fn pushdown_emptied_scans_keep_constraint_errors_and_swallow_residual_ones() {
    let db = parity_db();
    // `T1.x = 'NOMATCH'` pushes into the scan of `a` and empties it; the
    // ON constraint's unknown column must still be reported — with the
    // same message — under both engines and in the nested-loop twin.
    let err = assert_uniform_error(
        &db,
        "SELECT T2.shared FROM a AS T1 JOIN b AS T2 ON T1.nope = T2.id \
         WHERE T1.x = 'NOMATCH'",
    );
    assert!(matches!(err, EngineError::UnknownColumn(_)));
    // ...while a residual (multi-table) conjunct over an unknown column
    // is never evaluated once the plan carries zero rows: every
    // configuration succeeds with an empty result instead of erroring.
    let sql = "SELECT T1.x FROM a AS T1 JOIN b AS T2 ON T1.id = T2.id \
               WHERE T1.x = 'NOMATCH' AND T1.shared + T2.nope < 0";
    for run in with_twin(sql) {
        for opts in all_options() {
            let rs = db
                .run_with(&run, opts)
                .unwrap_or_else(|e| panic!("`{run}` must succeed under {opts:?}: {e}"));
            assert!(rs.rows.is_empty(), "`{run}` returned rows under {opts:?}");
        }
    }
}
