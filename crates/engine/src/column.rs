//! Columnar table layout: per-column typed vectors with null bitmaps.
//!
//! [`ColumnarTable`] is a read-only, lazily built companion to the
//! row-major [`crate::database::Table`]: one typed vector per column
//! (`i64` / `f64` / `bool` arrays, dictionary-encoded strings) plus a
//! null bitmap. The batch executor ([`crate::batch`]) runs its
//! vectorized kernels over these vectors and materializes `Value`s only
//! at result boundaries, and the data profiler ([`crate::profile`])
//! counts over them; the row storage remains the source of truth and
//! the fallback path.
//!
//! Layout conventions (documented in DESIGN.md §12):
//!
//! - **Null bitmap**: bit `i` set ⇔ row `i` is NULL. Data slots under
//!   null bits hold an arbitrary placeholder (`0` / `0.0` / `false` /
//!   dict code `0`) that kernels must never interpret.
//! - **Dictionary encoding**: text columns store a `u32` code per row
//!   into a value table ordered by first occurrence. Codes are
//!   bijective with distinct strings, so equality on codes is equality
//!   on strings (ordering is *not* preserved — ordered kernels compare
//!   the looked-up strings or precompute per-code lookup tables).
//! - **Typed vectors are exact**: a column is `Int` only if every
//!   non-NULL stored value is `Value::Int` — no silent widening, since
//!   the row engine distinguishes `Int(2)` from `Float(2.0)` in
//!   results. A column mixing the two (legal: `push_row` admits ints
//!   into float columns) is [`ColumnData::Mixed`] and the batch
//!   executor falls back to the row path for queries touching it.
use crate::database::Table;
use crate::key::FxBuild;
use crate::value::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// Validity bitmap: bit set ⇔ NULL.
#[derive(Debug, Clone, Default)]
pub struct NullMask {
    words: Vec<u64>,
    any: bool,
}

impl NullMask {
    fn new(len: usize) -> Self {
        NullMask {
            words: vec![0; len.div_ceil(64)],
            any: false,
        }
    }

    fn set(&mut self, i: usize) {
        self.words[i >> 6] |= 1u64 << (i & 63);
        self.any = true;
    }

    /// Whether row `i` is NULL.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        (self.words[i >> 6] >> (i & 63)) & 1 == 1
    }

    /// Whether any row is NULL (lets kernels skip per-row checks).
    #[inline]
    pub fn any(&self) -> bool {
        self.any
    }

    /// OR the mask into per-row flags, word at a time: an all-valid
    /// word (the common case for sparse nulls) costs one compare per
    /// 64 rows instead of 64 bit probes.
    pub fn or_into(&self, out: &mut [bool]) {
        for (wi, &w) in self.words.iter().enumerate() {
            if w == 0 {
                continue;
            }
            let base = wi << 6;
            let end = out.len().min(base + 64);
            for (b, slot) in out[base..end].iter_mut().enumerate() {
                *slot |= (w >> b) & 1 == 1;
            }
        }
    }
}

/// Dictionary-encoded text column: `codes[i]` indexes `values`, which is
/// ordered by first occurrence. Codes are bijective with the distinct
/// strings of the column.
#[derive(Debug, Clone)]
pub struct DictColumn {
    /// Per-row code (placeholder `0` under null bits).
    pub codes: Vec<u32>,
    /// Distinct values, first-occurrence order. These are the row
    /// store's own text handles, so materializing a cell is a refcount
    /// bump and the image adds no string bytes.
    pub values: Vec<Arc<String>>,
}

/// Typed backing storage of one column.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// Every non-NULL value is `Value::Int`.
    Int(Vec<i64>),
    /// Every non-NULL value is `Value::Float`.
    Float(Vec<f64>),
    /// Every non-NULL value is `Value::Bool`.
    Bool(Vec<bool>),
    /// Every non-NULL value is `Value::Text`, dictionary-encoded.
    Text(DictColumn),
    /// Every value is NULL.
    AllNull,
    /// Heterogeneous value types (e.g. ints stored in a float column):
    /// not vectorizable, queries touching it take the row path.
    Mixed,
}

/// One column: typed data plus its null bitmap.
#[derive(Debug, Clone)]
pub struct Column {
    /// Typed vector.
    pub data: ColumnData,
    /// Null bitmap (bit set ⇔ NULL).
    pub nulls: NullMask,
}

impl Column {
    /// Materialize row `i` back into a [`Value`] (result boundaries
    /// only — kernels stay on the typed vectors).
    #[inline]
    pub fn value_at(&self, i: usize) -> Value {
        if self.nulls.is_null(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Float(v) => Value::Float(v[i]),
            ColumnData::Bool(v) => Value::Bool(v[i]),
            ColumnData::Text(d) => Value::Text(Arc::clone(&d.values[d.codes[i] as usize])),
            ColumnData::AllNull => Value::Null,
            ColumnData::Mixed => unreachable!("Mixed columns never reach kernels"),
        }
    }
}

/// Columnar image of one table: one [`Column`] per schema column.
#[derive(Debug, Clone)]
pub struct ColumnarTable {
    /// Columns in schema order.
    pub columns: Vec<Column>,
    /// Row count at build time (must match the row storage to be used).
    pub len: usize,
}

impl ColumnarTable {
    /// Build the columnar image of a table in one row-major pass over
    /// its row storage: each row's cells go to one builder per column.
    /// The first non-NULL value of a column fixes its variant (the NULL
    /// rows before it are backfilled with placeholders); any later
    /// disagreement demotes the column to [`ColumnData::Mixed`].
    pub fn build(table: &Table) -> Self {
        let len = table.rows.len();
        let mut builders: Vec<ColumnBuilder<'_>> = table
            .def
            .columns
            .iter()
            .map(|_| ColumnBuilder::new(len))
            .collect();
        for (i, row) in table.rows.iter().enumerate() {
            for (b, v) in builders.iter_mut().zip(row.iter()) {
                b.push(i, v);
            }
        }
        let columns = builders.into_iter().map(ColumnBuilder::finish).collect();
        ColumnarTable { columns, len }
    }
}

/// One column of [`ColumnarTable::build`] while the rows stream in.
/// `data` is `AllNull` until the first non-NULL value.
struct ColumnBuilder<'a> {
    data: ColumnData,
    /// Text columns: code of each distinct string.
    dict: HashMap<&'a str, u32, FxBuild>,
    nulls: NullMask,
    len: usize,
}

/// A vector of capacity `len` holding `backfill` placeholders (the NULL
/// rows seen so far) followed by `first`.
fn started<T: Copy>(len: usize, backfill: usize, placeholder: T, first: T) -> Vec<T> {
    let mut out = Vec::with_capacity(len);
    out.resize(backfill, placeholder);
    out.push(first);
    out
}

impl<'a> ColumnBuilder<'a> {
    fn new(len: usize) -> Self {
        ColumnBuilder {
            data: ColumnData::AllNull,
            dict: HashMap::default(),
            nulls: NullMask::new(len),
            len,
        }
    }

    /// Take row `i`'s cell.
    #[inline]
    fn push(&mut self, i: usize, v: &'a Value) {
        match (&mut self.data, v) {
            (ColumnData::Int(out), Value::Int(x)) => out.push(*x),
            (ColumnData::Float(out), Value::Float(x)) => out.push(*x),
            (ColumnData::Bool(out), Value::Bool(x)) => out.push(*x),
            (ColumnData::Text(d), Value::Text(s)) => {
                let code = *self.dict.entry(s.as_str()).or_insert_with(|| {
                    d.values.push(Arc::clone(s));
                    (d.values.len() - 1) as u32
                });
                d.codes.push(code);
            }
            (data, Value::Null) => {
                self.nulls.set(i);
                match data {
                    ColumnData::Int(out) => out.push(0),
                    ColumnData::Float(out) => out.push(0.0),
                    ColumnData::Bool(out) => out.push(false),
                    ColumnData::Text(d) => d.codes.push(0),
                    ColumnData::AllNull | ColumnData::Mixed => {}
                }
            }
            (ColumnData::Mixed, _) => {}
            // The first non-NULL value fixes the variant.
            (ColumnData::AllNull, v) => {
                let len = self.len;
                self.data = match v {
                    Value::Int(x) => ColumnData::Int(started(len, i, 0, *x)),
                    Value::Float(x) => ColumnData::Float(started(len, i, 0.0, *x)),
                    Value::Bool(x) => ColumnData::Bool(started(len, i, false, *x)),
                    Value::Text(s) => {
                        self.dict.insert(s.as_str(), 0);
                        ColumnData::Text(DictColumn {
                            codes: started(len, i, 0, 0),
                            values: vec![Arc::clone(s)],
                        })
                    }
                    Value::Null => unreachable!("NULL is matched above"),
                }
            }
            (data, _) => *data = ColumnData::Mixed,
        }
    }

    fn finish(self) -> Column {
        // Kernels never read a Mixed column, so it keeps no null bits.
        let nulls = match self.data {
            ColumnData::Mixed => NullMask::new(self.len),
            _ => self.nulls,
        };
        Column {
            data: self.data,
            nulls,
        }
    }
}

/// The two-pass, column-at-a-time builder that [`ColumnarTable::build`]
/// replaced, kept as its differential oracle: per column, a classify
/// pass over every row and then a fill pass.
#[cfg(test)]
fn build_per_column(table: &Table) -> ColumnarTable {
    let len = table.rows.len();
    let width = table.def.columns.len();
    let columns = (0..width).map(|j| build_column(table, j, len)).collect();
    ColumnarTable { columns, len }
}

#[cfg(test)]
fn build_column(table: &Table, j: usize, len: usize) -> Column {
    // Pass 1: classify. `tag` is the variant of the first non-NULL value.
    #[derive(PartialEq, Clone, Copy)]
    enum Tag {
        Int,
        Float,
        Bool,
        Text,
    }
    let mut tag: Option<Tag> = None;
    let mut mixed = false;
    for row in &table.rows {
        let t = match &row[j] {
            Value::Null => continue,
            Value::Int(_) => Tag::Int,
            Value::Float(_) => Tag::Float,
            Value::Bool(_) => Tag::Bool,
            Value::Text(_) => Tag::Text,
        };
        match tag {
            None => tag = Some(t),
            Some(seen) if seen == t => {}
            Some(_) => {
                mixed = true;
                break;
            }
        }
    }
    if mixed {
        return Column {
            data: ColumnData::Mixed,
            nulls: NullMask::new(len),
        };
    }
    let mut nulls = NullMask::new(len);
    let data = match tag {
        None => {
            for i in 0..len {
                nulls.set(i);
            }
            ColumnData::AllNull
        }
        Some(Tag::Int) => {
            let mut out = Vec::with_capacity(len);
            for (i, row) in table.rows.iter().enumerate() {
                match &row[j] {
                    Value::Int(v) => out.push(*v),
                    _ => {
                        nulls.set(i);
                        out.push(0);
                    }
                }
            }
            ColumnData::Int(out)
        }
        Some(Tag::Float) => {
            let mut out = Vec::with_capacity(len);
            for (i, row) in table.rows.iter().enumerate() {
                match &row[j] {
                    Value::Float(v) => out.push(*v),
                    _ => {
                        nulls.set(i);
                        out.push(0.0);
                    }
                }
            }
            ColumnData::Float(out)
        }
        Some(Tag::Bool) => {
            let mut out = Vec::with_capacity(len);
            for (i, row) in table.rows.iter().enumerate() {
                match &row[j] {
                    Value::Bool(v) => out.push(*v),
                    _ => {
                        nulls.set(i);
                        out.push(false);
                    }
                }
            }
            ColumnData::Bool(out)
        }
        Some(Tag::Text) => {
            let mut codes = Vec::with_capacity(len);
            let mut values: Vec<Arc<String>> = Vec::new();
            let mut dict: HashMap<&str, u32, FxBuild> = HashMap::default();
            for (i, row) in table.rows.iter().enumerate() {
                match &row[j] {
                    Value::Text(s) => {
                        let code = *dict.entry(s.as_str()).or_insert_with(|| {
                            values.push(Arc::clone(s));
                            (values.len() - 1) as u32
                        });
                        codes.push(code);
                    }
                    _ => {
                        nulls.set(i);
                        codes.push(0);
                    }
                }
            }
            ColumnData::Text(DictColumn { codes, values })
        }
    };
    Column { data, nulls }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::{Database, Row};
    use sb_schema::{Column as SColumn, ColumnType, Schema, TableDef};

    fn table() -> Database {
        let schema = Schema::new("t").with_table(TableDef::new(
            "x",
            vec![
                SColumn::pk("id", ColumnType::Int),
                SColumn::new("f", ColumnType::Float),
                SColumn::new("s", ColumnType::Text),
                SColumn::new("b", ColumnType::Bool),
            ],
        ));
        Database::new(schema)
    }

    #[test]
    fn builds_typed_vectors_with_nulls() {
        let mut db = table();
        db.table_mut("x").unwrap().push_rows(vec![
            vec![1.into(), 0.5.into(), "a".into(), true.into()],
            vec![2.into(), Value::Null, "b".into(), Value::Null],
            vec![3.into(), 1.5.into(), "a".into(), false.into()],
        ]);
        let t = db.table("x").unwrap();
        let ct = ColumnarTable::build(t);
        assert_eq!(ct.len, 3);
        assert!(matches!(&ct.columns[0].data, ColumnData::Int(v) if v == &[1, 2, 3]));
        assert!(!ct.columns[0].nulls.any());
        assert!(ct.columns[1].nulls.is_null(1));
        let ColumnData::Text(d) = &ct.columns[2].data else {
            panic!("text column expected");
        };
        let strs: Vec<&str> = d.values.iter().map(|s| s.as_str()).collect();
        assert_eq!(strs, ["a", "b"]);
        assert_eq!(d.codes, vec![0, 1, 0]);
        // The dictionary holds the row store's handles, not copies.
        for (i, row) in t.rows.iter().enumerate() {
            let Value::Text(cell) = &row[2] else {
                panic!("text cell expected");
            };
            assert!(Arc::ptr_eq(cell, &d.values[d.codes[i] as usize]));
        }
        // Round trip.
        for (i, row) in t.rows.iter().enumerate() {
            for (j, col) in ct.columns.iter().enumerate() {
                assert_eq!(&col.value_at(i), &row[j], "cell ({i},{j})");
            }
        }
    }

    #[test]
    fn int_in_float_column_is_mixed() {
        let mut db = table();
        db.table_mut("x").unwrap().push_rows(vec![
            vec![1.into(), 0.5.into(), "a".into(), true.into()],
            vec![2.into(), Value::Int(2), "b".into(), true.into()],
        ]);
        let ct = ColumnarTable::build(db.table("x").unwrap());
        assert!(matches!(ct.columns[1].data, ColumnData::Mixed));
    }

    #[test]
    fn all_null_and_empty_columns() {
        let mut db = table();
        {
            let t = db.table_mut("x").unwrap();
            t.push_rows(vec![vec![1.into(), Value::Null, Value::Null, Value::Null]]);
        }
        let ct = ColumnarTable::build(db.table("x").unwrap());
        assert!(matches!(ct.columns[1].data, ColumnData::AllNull));
        assert!(ct.columns[1].nulls.is_null(0));
        assert_eq!(ct.columns[1].value_at(0), Value::Null);
    }

    /// Assert two images are identical: variants, vectors (floats by
    /// bits), null masks, dictionary order and dictionary handles.
    fn assert_same_image(got: &ColumnarTable, want: &ColumnarTable, what: &str) {
        assert_eq!(got.len, want.len, "{what}: len");
        assert_eq!(got.columns.len(), want.columns.len(), "{what}: width");
        for (j, (g, w)) in got.columns.iter().zip(&want.columns).enumerate() {
            assert_eq!(g.nulls.words, w.nulls.words, "{what}.{j}: null bits");
            assert_eq!(g.nulls.any, w.nulls.any, "{what}.{j}: any null");
            match (&g.data, &w.data) {
                (ColumnData::Int(a), ColumnData::Int(b)) => assert_eq!(a, b, "{what}.{j}"),
                (ColumnData::Float(a), ColumnData::Float(b)) => {
                    let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(a), bits(b), "{what}.{j}");
                }
                (ColumnData::Bool(a), ColumnData::Bool(b)) => assert_eq!(a, b, "{what}.{j}"),
                (ColumnData::Text(a), ColumnData::Text(b)) => {
                    assert_eq!(a.codes, b.codes, "{what}.{j}: codes");
                    assert_eq!(a.values, b.values, "{what}.{j}: dictionary order");
                    for (x, y) in a.values.iter().zip(&b.values) {
                        assert!(Arc::ptr_eq(x, y), "{what}.{j}: handle of {x:?}");
                    }
                }
                (ColumnData::AllNull, ColumnData::AllNull)
                | (ColumnData::Mixed, ColumnData::Mixed) => {}
                _ => panic!("{what}.{j}: variants differ"),
            }
        }
    }

    fn assert_db_matches_oracle(db: &Database, what: &str) {
        for t in db.tables() {
            let what = format!("{what} {}", t.def.name);
            assert_same_image(&ColumnarTable::build(t), &build_per_column(t), &what);
        }
    }

    /// A copy of a database built by `sb-data`, in this crate's types.
    /// `sb-data` links the library build of `sb-engine`, whose `Value`
    /// is a different type from this test build's, so each cell goes
    /// over by its column type and exact payload.
    macro_rules! local_copy {
        ($src:expr) => {{
            let src = &$src;
            let mut db = Database::new(src.schema.clone());
            for t in src.tables() {
                let rows = t
                    .rows
                    .iter()
                    .map(|row| {
                        row.iter()
                            .map(|v| match v.column_type() {
                                None => Value::Null,
                                Some(ColumnType::Int) => Value::Int(v.to_string().parse().unwrap()),
                                Some(ColumnType::Float) => Value::Float(v.as_f64().unwrap()),
                                Some(ColumnType::Text) => Value::from(v.to_string()),
                                Some(ColumnType::Bool) => {
                                    Value::Bool(v.to_string().parse().unwrap())
                                }
                            })
                            .collect()
                    })
                    .collect();
                db.table_mut(&t.def.name).unwrap().push_rows(rows);
            }
            assert_eq!(db.total_rows(), src.total_rows());
            db
        }};
    }

    #[test]
    fn one_pass_build_matches_the_oracle_on_domains() {
        use sb_data::{Domain, SizeClass};
        for size in [SizeClass::Tiny, SizeClass::Small, SizeClass::Full] {
            for domain in Domain::ALL {
                let db = local_copy!(domain.build(size).db);
                assert_db_matches_oracle(&db, &format!("{} {size:?}", domain.name()));
            }
        }
    }

    #[test]
    fn one_pass_build_matches_the_oracle_on_the_spider_corpus() {
        for member in sb_data::SpiderCorpus::build().databases {
            let db = local_copy!(member.db);
            assert_db_matches_oracle(&db, &db.schema.name);
        }
    }

    #[test]
    fn one_pass_build_matches_the_oracle_on_hand_built_tables() {
        let text = |s: &str| Value::from(s);
        // Rows go straight into `Table::rows`, so a column may hold any
        // variant whatever its declared type.
        let cases: Vec<(&str, Vec<Vec<Value>>)> = vec![
            (
                "null_led",
                vec![
                    vec![Value::Null, Value::Null, Value::Null, Value::Null],
                    vec![Value::Null, Value::Null, Value::Null, Value::Null],
                    vec![7.into(), 0.5.into(), text("a"), true.into()],
                    vec![Value::Null, 1.5.into(), text("b"), Value::Null],
                    vec![8.into(), Value::Null, text("a"), false.into()],
                ],
            ),
            (
                "mixed_at_row_0",
                vec![
                    vec![1.into(), 0.5.into(), text("a"), true.into()],
                    vec![2.5.into(), 2.into(), 3.into(), text("t")],
                    vec![Value::Null, Value::Null, text("b"), false.into()],
                ],
            ),
            (
                "mixed_after_nulls",
                vec![
                    vec![Value::Null, Value::Null, Value::Null, Value::Null],
                    vec![Value::Null, 0.5.into(), text("a"), true.into()],
                    vec![3.into(), 4.into(), false.into(), 1.into()],
                    vec![Value::Null, Value::Null, Value::Null, Value::Null],
                ],
            ),
            ("all_null", vec![vec![Value::Null; 4]; 70]),
            ("empty", Vec::new()),
            (
                "bool",
                (0..130)
                    .map(|i| {
                        let b = if i % 7 == 0 {
                            Value::Null
                        } else {
                            (i % 3 == 0).into()
                        };
                        vec![Value::Int(i), Value::Null, Value::Null, b]
                    })
                    .collect(),
            ),
            (
                "floats",
                [
                    f64::NAN,
                    -f64::NAN,
                    f64::from_bits(f64::NAN.to_bits() | 1),
                    0.0,
                    -0.0,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    2.5,
                ]
                .into_iter()
                .map(|f| vec![Value::Null, Value::Float(f), Value::Null, Value::Null])
                .chain([vec![Value::Null; 4]])
                .collect(),
            ),
        ];
        let mut db = table();
        let t = db.table_mut("x").unwrap();
        for (name, rows) in cases {
            t.rows = rows.into_iter().map(Row::from).collect();
            assert_same_image(&ColumnarTable::build(t), &build_per_column(t), name);
        }
    }
}
