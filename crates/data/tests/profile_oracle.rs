//! Differential test of `sb_engine::profile_database` against the
//! full-sort profiler it replaced, kept here as the oracle: every
//! distinct value rendered, all of them sorted by (count desc, literal
//! asc), the first `FREQUENT_VALUES` kept. The two must agree on every
//! column of every domain at every size class, of the Spider-like
//! corpus, and of hand-built tables aimed at the top-k selection's edges
//! and at `Values` columns (ints stored in a float column), which are
//! counted per value rather than per typed vector.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sb_data::{Domain, SizeClass, SpiderCorpus};
use sb_engine::key::KeyIndex;
use sb_engine::{profile_database, sql_literal, ColumnData, Database, Value};
use sb_schema::{Column, ColumnProfile, ColumnType, DataProfile, Schema, TableDef};
use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;

const FREQUENT_VALUES: usize = 24;

fn lit_hash(v: &Value) -> u64 {
    let mut h = DefaultHasher::new();
    match v {
        Value::Null => h.write_u8(0),
        Value::Int(i) => {
            h.write_u8(1);
            h.write_i64(*i);
        }
        Value::Float(f) => {
            h.write_u8(2);
            let f = if f.is_nan() { f64::NAN } else { *f };
            h.write_u64(f.to_bits());
        }
        Value::Text(s) => {
            h.write_u8(3);
            h.write(s.as_bytes());
        }
        Value::Bool(b) => {
            h.write_u8(4);
            h.write_u8(*b as u8);
        }
    }
    h.finish()
}

fn lit_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Null, Value::Null) => true,
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Float(x), Value::Float(y)) => {
            x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
        }
        (Value::Text(x), Value::Text(y)) => x == y,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        _ => false,
    }
}

/// The full-sort profiler.
fn reference_profile(db: &Database) -> DataProfile {
    let mut profile = DataProfile::new();
    for table in db.tables() {
        profile.set_row_count(&table.def.name, table.len());
        for (idx, col) in table.def.columns.iter().enumerate() {
            let mut count = 0usize;
            let mut index = KeyIndex::default();
            let mut freq: Vec<(&Value, usize)> = Vec::new();
            let mut min = f64::INFINITY;
            let mut max = f64::NEG_INFINITY;
            let mut saw_numeric = false;
            let cells: Vec<Value> = (0..table.len()).map(|r| table.cell(r, idx)).collect();
            for v in &cells {
                if v.is_null() {
                    continue;
                }
                count += 1;
                let h = lit_hash(v);
                match index.insert(h, freq.len() as u32, |t| lit_eq(freq[t as usize].0, v)) {
                    Some(t) => freq[t as usize].1 += 1,
                    None => freq.push((v, 1)),
                }
                if let Some(x) = v.as_f64() {
                    saw_numeric = true;
                    min = min.min(x);
                    max = max.max(x);
                }
            }
            let distinct = freq.len();
            let mut by_freq: Vec<(String, usize)> =
                freq.into_iter().map(|(v, n)| (sql_literal(v), n)).collect();
            by_freq.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            by_freq.truncate(FREQUENT_VALUES);
            profile.insert(
                &table.def.name,
                &col.name,
                ColumnProfile {
                    count,
                    distinct,
                    min: saw_numeric.then_some(min),
                    max: saw_numeric.then_some(max),
                    frequent_values: by_freq.into_iter().map(|(v, _)| v).collect(),
                },
            );
        }
    }
    profile
}

/// Assert the two profilers agree on every column of `db`.
fn assert_matches_reference(db: &Database, what: &str) {
    let fast = profile_database(db);
    let reference = reference_profile(db);
    assert_eq!(fast.len(), reference.len(), "{what}: column count");
    for table in db.tables() {
        let name = &table.def.name;
        assert_eq!(
            fast.row_count(name),
            reference.row_count(name),
            "{what}.{name}"
        );
        for col in &table.def.columns {
            assert_eq!(
                fast.column(name, &col.name),
                reference.column(name, &col.name),
                "{what}: {name}.{}",
                col.name
            );
        }
    }
}

#[test]
fn domains_profile_like_the_full_sort() {
    for size in [SizeClass::Tiny, SizeClass::Small, SizeClass::Full] {
        for domain in Domain::ALL {
            let data = domain.build(size);
            assert_matches_reference(&data.db, &format!("{} {size:?}", domain.name()));
        }
    }
}

#[test]
fn spider_corpus_profiles_like_the_full_sort() {
    for member in SpiderCorpus::build().databases {
        assert_matches_reference(&member.db, &member.db.schema.name);
    }
}

/// A database of one-column tables, one per case.
fn single_column_tables(cases: Vec<(&str, ColumnType, Vec<Value>)>) -> Database {
    let mut schema = Schema::new("edges");
    for (name, ty, _) in &cases {
        schema = schema.with_table(TableDef::new(name, vec![Column::new("v", *ty)]));
    }
    let mut db = Database::new(schema);
    for (name, _, values) in cases {
        db.table_mut(name)
            .unwrap()
            .push_rows(values.into_iter().map(|v| vec![v]).collect());
    }
    db
}

/// `label{i}` repeated `times` for every `i` in `ids`, in the given order.
fn repeated(label: &str, ids: impl Iterator<Item = usize>, times: usize) -> Vec<Value> {
    ids.flat_map(|i| std::iter::repeat_n(Value::from(format!("{label}{i:02}")), times))
        .collect()
}

#[test]
fn hand_built_edges_profile_like_the_full_sort() {
    // 20 values seen 5 times, then 10 seen 3 times (inserted in reverse
    // literal order): slots 21..24 go to the four smallest of the ten.
    let mut straddle = repeated("hot", 0..20, 5);
    straddle.extend(repeated("tie", (0..10).rev(), 3));
    // Every value once: the whole column ties at the last slot.
    let all_tied: Vec<Value> = (0..100).rev().map(Value::Int).collect();
    let exactly_24 = repeated("v", (0..24).rev(), 2);
    let exactly_25 = repeated("v", (0..25).rev(), 2);
    // 23 distinct above the threshold, one slot left for the ties.
    let mut one_slot = repeated("a", 0..23, 4);
    one_slot.extend(repeated("b", (0..6).rev(), 1));
    let floats = vec![
        Value::Float(f64::NAN),
        Value::Float(-f64::NAN),
        Value::Float(f64::from_bits(f64::NAN.to_bits() | 1)),
        Value::Float(0.0),
        Value::Float(-0.0),
        Value::Float(-0.0),
        Value::Float(3.0),
        Value::Float(f64::INFINITY),
        Value::Float(f64::NEG_INFINITY),
        Value::Float(1e15),
        Value::Float(2.5),
        Value::Null,
    ];
    // Int(3) and Float(3.0) are distinct literals; Int(10^15) and
    // Float(1e15) are distinct keys that render alike.
    let mut mixed = floats.clone();
    mixed.extend([
        Value::Int(3),
        Value::Int(3),
        Value::Int(1_000_000_000_000_000),
        Value::Int(-7),
    ]);
    for i in 0..30 {
        mixed.push(Value::Float(i as f64 / 4.0));
        mixed.push(Value::Int(i));
    }
    let quoted = vec![
        Value::from("it's"),
        Value::from("it's"),
        Value::from("'"),
        Value::from("''"),
        Value::from("its"),
        Value::from(""),
        Value::from("a'b'c"),
    ];
    let bools = vec![Value::Bool(true), Value::Bool(false), Value::Bool(true)];
    let db = single_column_tables(vec![
        ("straddle", ColumnType::Text, straddle),
        ("all_tied", ColumnType::Int, all_tied),
        ("exactly_24", ColumnType::Text, exactly_24),
        ("exactly_25", ColumnType::Text, exactly_25),
        ("one_slot", ColumnType::Text, one_slot),
        ("floats", ColumnType::Float, floats),
        ("mixed", ColumnType::Float, mixed),
        ("quoted", ColumnType::Text, quoted),
        ("bools", ColumnType::Bool, bools),
        ("all_null", ColumnType::Int, vec![Value::Null; 5]),
        ("empty", ColumnType::Int, Vec::new()),
    ]);
    assert_matches_reference(&db, "edges");
    // `mixed` is stored, and profiled, as one value per row.
    let image = db.table("mixed").unwrap().columnar();
    assert!(matches!(image.columns[0].data, ColumnData::Values(_)));

    let p = profile_database(&db);
    let straddle = p.column("straddle", "v").unwrap();
    assert_eq!(straddle.distinct, 30);
    assert_eq!(straddle.frequent_values.len(), FREQUENT_VALUES);
    assert_eq!(straddle.frequent_values[19], "'hot19'");
    assert_eq!(
        straddle.frequent_values[20..],
        ["'tie00'", "'tie01'", "'tie02'", "'tie03'"]
    );
    assert_eq!(
        p.column("exactly_24", "v").unwrap().frequent_values.len(),
        24
    );
    let exactly_25 = p.column("exactly_25", "v").unwrap();
    assert_eq!(exactly_25.frequent_values.last().unwrap(), "'v23'");
    assert_eq!(
        p.column("one_slot", "v").unwrap().frequent_values[23],
        "'b00'"
    );
    let floats = p.column("floats", "v").unwrap();
    assert_eq!(floats.distinct, 8, "all NaNs are one literal");
    assert_eq!(floats.frequent_values[..2], ["NaN", "-0.0"]);
    let quoted = p.column("quoted", "v").unwrap();
    assert_eq!(quoted.frequent_values[0], "'it''s'");
    let all_null = p.column("all_null", "v").unwrap();
    assert_eq!((all_null.count, all_null.distinct), (0, 0));
    assert!(all_null.frequent_values.is_empty());
    assert_eq!((all_null.min, all_null.max), (None, None));
}

#[test]
fn random_tie_heavy_columns_profile_like_the_full_sort() {
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let mut cases = Vec::new();
    let names: Vec<String> = (0..200).map(|i| format!("c{i}")).collect();
    for name in &names {
        // Few distinct counts over up to 80 distinct values forces ties
        // around the last slot in most columns.
        let distinct = rng.gen_range(1..80usize);
        let ty = [
            ColumnType::Int,
            ColumnType::Float,
            ColumnType::Text,
            ColumnType::Bool,
        ][rng.gen_range(0..4)];
        let mut values = Vec::new();
        for i in 0..distinct {
            let v = match ty {
                ColumnType::Int => Value::Int(i as i64 - 40),
                ColumnType::Float if i % 3 == 0 => Value::Int(i as i64 / 2),
                ColumnType::Float => Value::Float(i as f64 / 2.0),
                ColumnType::Text => Value::from(format!("{}'{}", i % 7, i)),
                _ => Value::Bool(i % 2 == 0),
            };
            let times = rng.gen_range(1..4usize);
            values.extend(std::iter::repeat_n(v, times));
            if rng.gen_bool(0.1) {
                values.push(Value::Null);
            }
        }
        cases.push((name.as_str(), ty, values));
    }
    assert_matches_reference(&single_column_tables(cases), "random");
}

/// A copy of `db` built row by row, without its profile memo.
fn rebuilt(db: &Database) -> Database {
    let mut copy = Database::new(db.schema.clone());
    for t in db.tables() {
        let rows = (0..t.len()).map(|r| t.row(r)).collect();
        copy.table_mut(&t.def.name).unwrap().push_rows(rows);
    }
    copy
}

#[test]
fn a_rebuilt_copy_profiles_like_the_domain() {
    for domain in Domain::ALL {
        // `Domain::build` profiled `data.db` during its build.
        let data = domain.build(SizeClass::Small);
        let copy = rebuilt(&data.db);
        assert_eq!(
            profile_database(&copy),
            profile_database(&data.db),
            "{}",
            domain.name()
        );
        assert_eq!(*copy.profile(), *data.db.profile(), "{}", domain.name());
    }
}
