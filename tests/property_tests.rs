//! Randomized property tests over the core data structures and
//! invariants, spanning the parser, engine, templates and embeddings.
//!
//! Each property runs a few hundred seeded cases through a plain loop;
//! the seeds are fixed so failures reproduce deterministically.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sciencebenchmark::embed;
use sciencebenchmark::engine::{Database, Value};
use sciencebenchmark::schema::{Column, ColumnType, Schema, TableDef};

// ---------------------------------------------------------------------
// Random input generators.
// ---------------------------------------------------------------------

fn ident(rng: &mut StdRng) -> String {
    loop {
        let len = rng.gen_range(1..=9usize);
        let mut s = String::new();
        s.push((b'a' + rng.gen_range(0..26u8)) as char);
        for _ in 1..len {
            let c = match rng.gen_range(0..3u8) {
                0 => (b'a' + rng.gen_range(0..26u8)) as char,
                1 => (b'0' + rng.gen_range(0..10u8)) as char,
                _ => '_',
            };
            s.push(c);
        }
        if sb_sql::Keyword::from_word(&s).is_none() {
            return s;
        }
    }
}

fn literal_sql(rng: &mut StdRng) -> String {
    match rng.gen_range(0..3u8) {
        0 => rng.gen_range(-1_000_000..1_000_000i64).to_string(),
        1 => format!("{:.3}", rng.gen_range(-1000.0..1000.0)),
        _ => {
            let len = rng.gen_range(0..=12usize);
            let alphabet: Vec<char> = "abcdefghij XYZ".chars().collect();
            let s: String = (0..len).map(|_| *alphabet.choose(rng).unwrap()).collect();
            format!("'{s}'")
        }
    }
}

fn simple_query(rng: &mut StdRng) -> String {
    let table = ident(rng);
    let col1 = ident(rng);
    let col2 = ident(rng);
    let lit = literal_sql(rng);
    let op = *["=", "<", ">", "<=", ">=", "<>"].choose(rng).unwrap();
    let distinct = rng.gen_bool(0.5);
    let desc = rng.gen_bool(0.5);
    let mut q = format!(
        "SELECT {}{col1}, {col2} FROM {table} WHERE {col1} {op} {lit}",
        if distinct { "DISTINCT " } else { "" }
    );
    q.push_str(&format!(
        " ORDER BY {col2}{}",
        if desc { " DESC" } else { "" }
    ));
    if rng.gen_bool(0.5) {
        q.push_str(&format!(" LIMIT {}", rng.gen_range(0..100u64)));
    }
    q
}

fn random_rows(rng: &mut StdRng, max: usize) -> Vec<(i64, f64, bool)> {
    let n = rng.gen_range(0..max);
    (0..n)
        .map(|_| {
            (
                rng.gen_range(-1_000_000..1_000_000i64),
                rng.gen_range(-100.0..100.0),
                rng.gen_bool(0.5),
            )
        })
        .collect()
}

// ---------------------------------------------------------------------
// SQL front end: print → parse round-trip on generated queries.
// ---------------------------------------------------------------------

#[test]
fn parse_print_parse_is_identity() {
    let mut rng = StdRng::seed_from_u64(0xA11CE);
    for _ in 0..300 {
        let sql = simple_query(&mut rng);
        let q1 = sb_sql::parse(&sql).expect("generated query parses");
        let printed = q1.to_string();
        let q2 = sb_sql::parse(&printed).expect("printed query reparses");
        assert_eq!(q1, q2, "round-trip changed the AST for: {sql}");
        assert_eq!(printed, q2.to_string(), "printing is not a fixpoint: {sql}");
    }
}

/// The same invariant over the fuzzer's schema-aware generator, whose
/// output covers joins, grouping, set operations and subqueries far
/// beyond `simple_query` — the fast seeded cousin of the differential
/// campaign in `crates/fuzz/tests/differential.rs`.
#[test]
fn fuzzer_generated_queries_round_trip() {
    use sciencebenchmark::data::Domain;
    for (domain, seed) in [
        (Domain::Cordis, 11u64),
        (Domain::Sdss, 12),
        (Domain::OncoMx, 13),
    ] {
        let db = sb_fuzz::fuzz_database(domain);
        let mut gen = sb_fuzz::QueryGenerator::new(&db, seed);
        for _ in 0..300 {
            let q1 = gen.query();
            let printed = q1.to_string();
            let q2 = sb_sql::parse(&printed)
                .unwrap_or_else(|e| panic!("printed query reparses: {e}\n{printed}"));
            assert_eq!(q1, q2, "round-trip changed the AST for: {printed}");
            assert_eq!(
                printed,
                q2.to_string(),
                "printing is not a fixpoint: {printed}"
            );
        }
    }
}

#[test]
fn hardness_is_total_and_stable() {
    let mut rng = StdRng::seed_from_u64(0xB0B);
    for _ in 0..300 {
        let sql = simple_query(&mut rng);
        let q = sb_sql::parse(&sql).unwrap();
        let h1 = sciencebenchmark::metrics::classify(&q);
        let h2 = sciencebenchmark::metrics::classify(&q);
        assert_eq!(h1, h2);
    }
}

// ---------------------------------------------------------------------
// Engine invariants on randomized content.
// ---------------------------------------------------------------------

fn test_db(rows: &[(i64, f64, bool)]) -> Database {
    let schema = Schema::new("prop").with_table(TableDef::new(
        "t",
        vec![
            Column::pk("id", ColumnType::Int),
            Column::new("x", ColumnType::Float),
            Column::new("flag", ColumnType::Bool),
        ],
    ));
    let mut db = Database::new(schema);
    db.table_mut("t").unwrap().push_rows(
        rows.iter()
            .map(|(id, x, flag)| vec![Value::Int(*id), Value::Float(*x), Value::Bool(*flag)]),
    );
    db
}

#[test]
fn filter_never_grows_the_result() {
    let mut rng = StdRng::seed_from_u64(1);
    for _ in 0..100 {
        let rows = random_rows(&mut rng, 40);
        let threshold = rng.gen_range(-100.0..100.0);
        let db = test_db(&rows);
        let all = db.run("SELECT id FROM t").unwrap();
        let filtered = db
            .run(&format!("SELECT id FROM t WHERE x > {threshold:.4}"))
            .unwrap();
        assert!(filtered.len() <= all.len());
    }
}

#[test]
fn limit_truncates_exactly() {
    let mut rng = StdRng::seed_from_u64(2);
    for _ in 0..100 {
        let rows = random_rows(&mut rng, 40);
        let n = rng.gen_range(0..50u64);
        let db = test_db(&rows);
        let limited = db.run(&format!("SELECT id FROM t LIMIT {n}")).unwrap();
        assert_eq!(limited.len(), rows.len().min(n as usize));
    }
}

#[test]
fn count_matches_row_count() {
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..100 {
        let rows = random_rows(&mut rng, 40);
        let db = test_db(&rows);
        let rs = db.run("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(rows.len() as i64));
    }
}

#[test]
fn union_all_cardinality_adds() {
    let mut rng = StdRng::seed_from_u64(4);
    for _ in 0..60 {
        let rows = random_rows(&mut rng, 30);
        let db = test_db(&rows);
        let u = db
            .run("SELECT id FROM t UNION ALL SELECT id FROM t")
            .unwrap();
        assert_eq!(u.len(), rows.len() * 2);
        // Plain UNION (set semantics) is bounded by the distinct count.
        let distinct = db.run("SELECT DISTINCT id FROM t").unwrap();
        let set_union = db.run("SELECT id FROM t UNION SELECT id FROM t").unwrap();
        assert_eq!(set_union.len(), distinct.len());
    }
}

#[test]
fn order_by_produces_sorted_output() {
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..100 {
        let rows = random_rows(&mut rng, 40);
        let db = test_db(&rows);
        let rs = db.run("SELECT x FROM t ORDER BY x").unwrap();
        for w in rs.rows.windows(2) {
            let a = w[0][0].as_f64().unwrap();
            let b = w[1][0].as_f64().unwrap();
            assert!(a <= b);
        }
    }
}

#[test]
fn execution_match_is_reflexive() {
    let mut rng = StdRng::seed_from_u64(6);
    for _ in 0..60 {
        let rows = random_rows(&mut rng, 30);
        let db = test_db(&rows);
        let sql = "SELECT id, x FROM t WHERE flag = TRUE";
        assert!(sciencebenchmark::metrics::execution_match(&db, sql, sql));
    }
}

// ---------------------------------------------------------------------
// Embedding space invariants.
// ---------------------------------------------------------------------

fn random_words(rng: &mut StdRng, max_words: usize) -> String {
    let n = rng.gen_range(1..=max_words);
    (0..n)
        .map(|_| {
            let len = rng.gen_range(1..=8usize);
            (0..len)
                .map(|_| (b'a' + rng.gen_range(0..26u8)) as char)
                .collect::<String>()
        })
        .collect::<Vec<_>>()
        .join(" ")
}

#[test]
fn cosine_bounded_and_symmetric() {
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..200 {
        let a = random_words(&mut rng, 6);
        let b = random_words(&mut rng, 6);
        let ea = embed::embed(&a);
        let eb = embed::embed(&b);
        let s1 = ea.cosine(&eb);
        let s2 = eb.cosine(&ea);
        assert!((-1.0..=1.0).contains(&s1));
        assert!((s1 - s2).abs() < 1e-6);
    }
}

#[test]
fn self_similarity_is_max() {
    let mut rng = StdRng::seed_from_u64(8);
    for _ in 0..200 {
        let a = random_words(&mut rng, 6);
        let e = embed::embed(&a);
        assert!((e.cosine(&e) - 1.0).abs() < 1e-5, "text: {a}");
    }
}

#[test]
fn geometric_median_selection_returns_members() {
    let mut rng = StdRng::seed_from_u64(9);
    for _ in 0..100 {
        let n = rng.gen_range(1..8usize);
        let texts: Vec<String> = (0..n).map(|_| random_words(&mut rng, 5)).collect();
        let k = rng.gen_range(1..4usize);
        let selected = embed::select_top_k(&texts, k);
        assert_eq!(selected.len(), k.min(texts.len()));
        for s in selected {
            assert!(texts.contains(s));
        }
    }
}

// ---------------------------------------------------------------------
// Template extraction / instantiation invariants.
// ---------------------------------------------------------------------

#[test]
fn generated_fills_always_execute() {
    use sciencebenchmark::data::{Domain, SizeClass};
    use sciencebenchmark::gen::Generator;
    let d = Domain::Sdss.build(SizeClass::Tiny);
    let sql = "SELECT s.specobjid FROM specobj AS s WHERE s.class = 'GALAXY'";
    let template = sb_semql::extract(&sb_sql::parse(sql).unwrap(), &d.db.schema).unwrap();
    for seed in 0..50u64 {
        let mut g = Generator::new(&d.db, &d.enhanced, seed);
        // Whatever the sampler produces must execute (not necessarily
        // return rows).
        if let Ok(q) = g.fill(&template) {
            assert!(d.db.run_query(&q).is_ok(), "{}", q);
        }
    }
}
