//! Columnar table layout: per-column typed vectors with null bitmaps.
//!
//! [`ColumnarTable`] is the only copy of a table's data: one typed
//! vector per column (`i64` / `f64` / `bool` arrays, dictionary-encoded
//! strings) plus a null bitmap. [`crate::database::Table::push_row`]
//! appends each cell straight to its column (`ColumnarTable::push_row`),
//! the batch executor (`crate::batch`) runs its vectorized kernels over
//! the vectors and materializes `Value`s only at result boundaries, the
//! data profiler ([`crate::profile`]) counts over them, and the row
//! executor and the reference interpreter build their rows from them
//! ([`Column::value_at`]).
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
//!   the engine distinguishes `Int(2)` from `Float(2.0)` in results. A
//!   column mixing the two (legal: `push_row` admits ints into float
//!   columns) is [`ColumnData::Values`], and the batch executor falls
//!   back to the row path for queries touching it.
use crate::join::NULL_RID;
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
    /// An all-valid mask over `len` rows.
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
    /// Distinct values, first-occurrence order. The handles are the
    /// table's interned strings, shared with every other column holding
    /// the same text, so materializing a cell is a refcount bump.
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
    /// Heterogeneous value types (e.g. ints stored in a float column),
    /// one `Value` per row, NULLs included; the null bitmap is left
    /// empty. Not vectorizable: queries touching it take the row path.
    Values(Vec<Value>),
}

/// The codes of a text column's strings while rows are appended, keyed
/// by the address of the table's interned handle: within one table two
/// handles are the same allocation exactly when their strings are equal.
pub(crate) type TextCodes = HashMap<usize, u32, FxBuild>;

/// One column: typed data plus its null bitmap.
#[derive(Debug, Clone)]
pub struct Column {
    /// Typed vector.
    pub data: ColumnData,
    /// Null bitmap (bit set ⇔ NULL).
    pub nulls: NullMask,
}

/// A vector holding `backfill` placeholders (the NULL rows seen so far)
/// followed by `first`.
fn started<T: Copy>(backfill: usize, placeholder: T, first: T) -> Vec<T> {
    let mut out = Vec::with_capacity(backfill + 1);
    out.resize(backfill, placeholder);
    out.push(first);
    out
}

impl Column {
    /// An empty column: `AllNull` until its first non-NULL value.
    fn empty() -> Self {
        Column {
            data: ColumnData::AllNull,
            nulls: NullMask::default(),
        }
    }

    /// Materialize row `i` back into a [`Value`] (result boundaries and
    /// the row executor — kernels stay on the typed vectors).
    #[inline]
    pub fn value_at(&self, i: usize) -> Value {
        if self.nulls.any() && self.nulls.is_null(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Float(v) => Value::Float(v[i]),
            ColumnData::Bool(v) => Value::Bool(v[i]),
            ColumnData::Text(d) => Value::Text(Arc::clone(&d.values[d.codes[i] as usize])),
            ColumnData::AllNull => Value::Null,
            ColumnData::Values(v) => v[i].clone(),
        }
    }

    /// Push the cells of row ids `rids` onto `rows`, one cell per row;
    /// [`NULL_RID`] reads NULL (the row executor's joined rows).
    pub(crate) fn push_cells(&self, rids: &[u32], rows: &mut [Vec<Value>]) {
        // Generic, not `&dyn`: each variant's cell read inlines into its
        // own loop instead of costing an indirect call per cell.
        fn fill(
            rids: &[u32],
            nulls: &NullMask,
            rows: &mut [Vec<Value>],
            cell: impl Fn(usize) -> Value,
        ) {
            for (&rid, row) in rids.iter().zip(rows) {
                let i = rid as usize;
                row.push(if rid == NULL_RID || (nulls.any() && nulls.is_null(i)) {
                    Value::Null
                } else {
                    cell(i)
                });
            }
        }
        let nulls = &self.nulls;
        match &self.data {
            ColumnData::Int(v) => fill(rids, nulls, rows, |i| Value::Int(v[i])),
            ColumnData::Float(v) => fill(rids, nulls, rows, |i| Value::Float(v[i])),
            ColumnData::Bool(v) => fill(rids, nulls, rows, |i| Value::Bool(v[i])),
            ColumnData::Text(d) => fill(rids, nulls, rows, |i| {
                Value::Text(Arc::clone(&d.values[d.codes[i] as usize]))
            }),
            ColumnData::AllNull => fill(rids, nulls, rows, |_| Value::Null),
            ColumnData::Values(v) => fill(rids, nulls, rows, |i| v[i].clone()),
        }
    }

    /// Append row `i`'s cell, text already interned (`codes` holds this
    /// column's dictionary codes) and the null mask already covering
    /// row `i`. The first non-NULL value fixes the variant, backfilling
    /// placeholders for the NULL rows before it; any later disagreement
    /// turns the column into [`ColumnData::Values`].
    fn push(&mut self, i: usize, v: Value, codes: &mut TextCodes) {
        // A number or bool of the column's variant, matched by reference:
        // matching the owned value here costs twice as much per cell.
        match (&mut self.data, &v) {
            (ColumnData::Int(out), Value::Int(x)) => return out.push(*x),
            (ColumnData::Float(out), Value::Float(x)) => return out.push(*x),
            (ColumnData::Bool(out), Value::Bool(x)) => return out.push(*x),
            _ => {}
        }
        match (&mut self.data, v) {
            (ColumnData::Text(d), Value::Text(s)) => {
                let code = *codes.entry(Arc::as_ptr(&s) as usize).or_insert_with(|| {
                    d.values.push(s);
                    (d.values.len() - 1) as u32
                });
                d.codes.push(code);
            }
            (ColumnData::Values(out), v) => out.push(v),
            (data, Value::Null) => {
                self.nulls.set(i);
                match data {
                    ColumnData::Int(out) => out.push(0),
                    ColumnData::Float(out) => out.push(0.0),
                    ColumnData::Bool(out) => out.push(false),
                    ColumnData::Text(d) => d.codes.push(0),
                    ColumnData::AllNull | ColumnData::Values(_) => {}
                }
            }
            (ColumnData::AllNull, v) => {
                self.data = match v {
                    Value::Int(x) => ColumnData::Int(started(i, 0, x)),
                    Value::Float(x) => ColumnData::Float(started(i, 0.0, x)),
                    Value::Bool(x) => ColumnData::Bool(started(i, false, x)),
                    Value::Text(s) => {
                        codes.insert(Arc::as_ptr(&s) as usize, 0);
                        ColumnData::Text(DictColumn {
                            codes: started(i, 0, 0),
                            values: vec![s],
                        })
                    }
                    Value::Null => unreachable!("NULL is matched above"),
                }
            }
            (_, v) => {
                // A second variant: rows `0..i` go over as values, and
                // the column keeps no null bits from here on.
                let mut out: Vec<Value> = (0..i).map(|r| self.value_at(r)).collect();
                out.push(v);
                self.data = ColumnData::Values(out);
                self.nulls = NullMask::new(i + 1);
                codes.clear();
            }
        }
    }

    /// Release every vector's spare capacity.
    fn shrink_to_fit(&mut self) {
        self.nulls.words.shrink_to_fit();
        match &mut self.data {
            ColumnData::Int(v) => v.shrink_to_fit(),
            ColumnData::Float(v) => v.shrink_to_fit(),
            ColumnData::Bool(v) => v.shrink_to_fit(),
            ColumnData::Text(d) => {
                d.codes.shrink_to_fit();
                d.values.shrink_to_fit();
            }
            ColumnData::AllNull => {}
            ColumnData::Values(v) => v.shrink_to_fit(),
        }
    }

    /// Bytes allocated to this column's vectors beyond their lengths.
    fn spare_bytes(&self) -> usize {
        fn spare<T>(v: &Vec<T>) -> usize {
            (v.capacity() - v.len()) * std::mem::size_of::<T>()
        }
        spare(&self.nulls.words)
            + match &self.data {
                ColumnData::Int(v) => spare(v),
                ColumnData::Float(v) => spare(v),
                ColumnData::Bool(v) => spare(v),
                ColumnData::Text(d) => spare(&d.codes) + spare(&d.values),
                ColumnData::AllNull => 0,
                ColumnData::Values(v) => spare(v),
            }
    }
}

/// Columnar image of one table: one [`Column`] per schema column. This
/// is the table's storage; rows are appended through
/// [`crate::database::Table::push_row`].
#[derive(Debug, Clone)]
pub struct ColumnarTable {
    /// Columns in schema order.
    pub columns: Vec<Column>,
    /// Row count.
    pub len: usize,
}

impl ColumnarTable {
    /// An empty image of `width` columns.
    pub(crate) fn new(width: usize) -> Self {
        ColumnarTable {
            columns: (0..width).map(|_| Column::empty()).collect(),
            len: 0,
        }
    }

    /// Append one row of exactly `columns.len()` cells whose text is
    /// interned per table; `codes` holds one [`TextCodes`] per column.
    pub(crate) fn push_row(&mut self, row: Vec<Value>, codes: &mut [TextCodes]) {
        let i = self.len;
        if i.is_multiple_of(64) {
            for col in &mut self.columns {
                col.nulls.words.push(0);
            }
        }
        for ((col, v), codes) in self.columns.iter_mut().zip(row).zip(codes) {
            col.push(i, v, codes);
        }
        self.len += 1;
    }

    /// Release the spare capacity that amortized growth left in every
    /// vector.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.columns.iter_mut().for_each(Column::shrink_to_fit);
    }

    /// Bytes allocated to the column vectors beyond their lengths: zero
    /// once a build is finished ([`crate::Database::table_mut`]).
    pub fn spare_bytes(&self) -> usize {
        self.columns.iter().map(Column::spare_bytes).sum()
    }

    /// The codes of each text column's strings, rebuilt from the
    /// dictionaries, for appending more rows.
    pub(crate) fn text_codes(&self) -> Vec<TextCodes> {
        self.columns
            .iter()
            .map(|c| match &c.data {
                ColumnData::Text(d) => (0..)
                    .zip(&d.values)
                    .map(|(code, s)| (Arc::as_ptr(s) as usize, code))
                    .collect(),
                _ => TextCodes::default(),
            })
            .collect()
    }

    /// Every text column's dictionary. `Table::push_row` admits text
    /// only into text columns, so these hold every string stored.
    pub(crate) fn dictionaries(&self) -> impl Iterator<Item = &[Arc<String>]> {
        self.columns.iter().filter_map(|c| match &c.data {
            ColumnData::Text(d) => Some(d.values.as_slice()),
            _ => None,
        })
    }
}

/// The two-pass, column-at-a-time builder, kept as the differential
/// oracle of the append path: per column, a classify pass over every
/// row and then a fill pass.
#[cfg(test)]
pub(crate) fn build_per_column(rows: &[Vec<Value>], width: usize) -> ColumnarTable {
    let len = rows.len();
    let columns = (0..width).map(|j| build_column(rows, j, len)).collect();
    ColumnarTable { columns, len }
}

#[cfg(test)]
fn build_column(rows: &[Vec<Value>], j: usize, len: usize) -> Column {
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
    for row in rows {
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
            data: ColumnData::Values(rows.iter().map(|r| r[j].clone()).collect()),
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
            for (i, row) in rows.iter().enumerate() {
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
            for (i, row) in rows.iter().enumerate() {
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
            for (i, row) in rows.iter().enumerate() {
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
            for (i, row) in rows.iter().enumerate() {
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
    use crate::database::Database;
    use sb_schema::{Column as SColumn, ColumnType, Schema, TableDef};

    /// The column types of the hand-built and random tables.
    const TYPES: [ColumnType; 6] = [
        ColumnType::Int,
        ColumnType::Float,
        ColumnType::Float,
        ColumnType::Text,
        ColumnType::Text,
        ColumnType::Bool,
    ];

    fn schema() -> Schema {
        let columns = (0..TYPES.len())
            .map(|j| SColumn::new(&format!("c{j}"), TYPES[j]))
            .collect();
        Schema::new("t").with_table(TableDef::new("x", columns))
    }

    /// Identity of two cells: variant and payload, floats by bits, text
    /// by handle.
    fn same_cell(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Null, Value::Null) => true,
            (Value::Int(x), Value::Int(y)) => x == y,
            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
            (Value::Text(x), Value::Text(y)) => Arc::ptr_eq(x, y),
            (Value::Bool(x), Value::Bool(y)) => x == y,
            _ => false,
        }
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
                (ColumnData::Values(a), ColumnData::Values(b)) => {
                    assert_eq!(a.len(), b.len(), "{what}.{j}: values");
                    for (i, (x, y)) in a.iter().zip(b).enumerate() {
                        assert!(same_cell(x, y), "{what}.{j}[{i}]: {x:?} vs {y:?}");
                    }
                }
                (ColumnData::AllNull, ColumnData::AllNull) => {}
                _ => panic!("{what}.{j}: variants differ"),
            }
        }
    }

    /// `rows` with every string swapped for the handle of its first
    /// occurrence in row-major order: what per-table interning stores.
    fn interned(rows: &[Vec<Value>]) -> Vec<Vec<Value>> {
        let mut first: HashMap<String, Arc<String>> = HashMap::new();
        rows.iter()
            .map(|row| {
                row.iter()
                    .map(|v| match v {
                        Value::Text(s) => Value::Text(Arc::clone(
                            first.entry(s.to_string()).or_insert_with(|| Arc::clone(s)),
                        )),
                        v => v.clone(),
                    })
                    .collect()
            })
            .collect()
    }

    /// Table `name` of `db` holds exactly `rows` (interned): its image
    /// equals the two-pass oracle's, every row reads back, and no
    /// vector has spare capacity.
    fn assert_holds(db: &Database, name: &str, rows: &[Vec<Value>], what: &str) {
        let t = db.table(name).unwrap();
        let want = interned(rows);
        let image = t.columnar();
        assert_same_image(image, &build_per_column(&want, t.def.columns.len()), what);
        for (r, row) in want.iter().enumerate() {
            let got = t.row(r);
            assert!(
                got.iter().zip(row).all(|(a, b)| same_cell(a, b)),
                "{what}: row {r}: {got:?} vs {row:?}"
            );
        }
        assert_eq!(image.spare_bytes(), 0, "{what}: spare capacity");
    }

    /// Push `rows` into a fresh table and check it.
    fn check(rows: Vec<Vec<Value>>, what: &str) {
        let mut db = Database::new(schema());
        db.table_mut("x").unwrap().push_rows(rows.clone());
        assert_holds(&db, "x", &rows, what);
    }

    const NULL: Value = Value::Null;

    fn text(s: &str) -> Value {
        Value::from(s)
    }

    /// A row of `TYPES` shape.
    fn row(i: i64, f: Value, g: Value, s: Value, t: Value, b: Value) -> Vec<Value> {
        vec![Value::Int(i), f, g, s, t, b]
    }

    #[test]
    fn builds_typed_vectors_with_nulls() {
        let rows = vec![
            row(1, 0.5.into(), 1.5.into(), text("a"), text("b"), true.into()),
            row(2, NULL, 2.5.into(), text("b"), NULL, NULL),
            row(
                3,
                1.5.into(),
                3.5.into(),
                text("a"),
                text("a"),
                false.into(),
            ),
        ];
        check(rows.clone(), "typed");
        let mut db = Database::new(schema());
        db.table_mut("x").unwrap().push_rows(rows);
        let ct = db.table("x").unwrap().columnar();
        assert!(matches!(&ct.columns[0].data, ColumnData::Int(v) if v == &[1, 2, 3]));
        assert!(!ct.columns[0].nulls.any());
        assert!(ct.columns[1].nulls.is_null(1));
        let ColumnData::Text(d) = &ct.columns[3].data else {
            panic!("text column expected");
        };
        let strs: Vec<&str> = d.values.iter().map(|s| s.as_str()).collect();
        assert_eq!(strs, ["a", "b"]);
        assert_eq!(d.codes, vec![0, 1, 0]);
    }

    #[test]
    fn text_repeated_across_columns_is_stored_once() {
        let mut db = Database::new(schema());
        db.table_mut("x").unwrap().push_rows(vec![
            row(1, NULL, NULL, text("x"), text("y"), NULL),
            row(2, NULL, NULL, text("y"), text("x"), NULL),
        ]);
        let ct = db.table("x").unwrap().columnar();
        let (ColumnData::Text(a), ColumnData::Text(b)) = (&ct.columns[3].data, &ct.columns[4].data)
        else {
            panic!("text columns expected");
        };
        assert!(Arc::ptr_eq(&a.values[0], &b.values[1]), "x shared");
        assert!(Arc::ptr_eq(&a.values[1], &b.values[0]), "y shared");
    }

    #[test]
    fn int_into_float_demotes_at_any_row() {
        let float_rows = |n: usize, int_at: usize| -> Vec<Vec<Value>> {
            (0..n)
                .map(|i| {
                    let f = if i == int_at {
                        Value::Int(i as i64)
                    } else if i % 3 == 1 {
                        NULL
                    } else {
                        Value::Float(i as f64 + 0.25)
                    };
                    row(i as i64, f.clone(), f, NULL, NULL, NULL)
                })
                .collect()
        };
        for (what, at) in [("first", 0), ("middle", 40), ("last", 99)] {
            let rows = float_rows(100, at);
            check(rows.clone(), what);
            let mut db = Database::new(schema());
            db.table_mut("x").unwrap().push_rows(rows);
            let ct = db.table("x").unwrap().columnar();
            assert!(
                matches!(ct.columns[1].data, ColumnData::Values(_)),
                "{what}"
            );
            assert!(!ct.columns[1].nulls.any(), "{what}: no null bits");
        }
        // Ints first, then a float.
        let mut rows = float_rows(70, usize::MAX);
        for (i, r) in rows.iter_mut().enumerate().take(65) {
            if !r[1].is_null() {
                r[1] = Value::Int(i as i64);
            }
        }
        check(rows, "ints then floats");
    }

    #[test]
    fn null_prefixes_all_null_and_bool_columns() {
        let null_led = (0..130)
            .map(|i| {
                let late = |v: Value| if i < 67 { NULL } else { v };
                row(
                    i,
                    late(Value::Float(i as f64)),
                    NULL,
                    late(text(&format!("s{}", i % 5))),
                    if i % 7 == 0 { NULL } else { text("k") },
                    late((i % 3 == 0).into()),
                )
            })
            .collect();
        check(null_led, "null-led");
        check(vec![row(1, NULL, NULL, NULL, NULL, NULL); 70], "all null");
        check(Vec::new(), "empty");
        let floats = [
            f64::NAN,
            -f64::NAN,
            f64::from_bits(f64::NAN.to_bits() | 1),
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            2.5,
        ];
        let rows = floats
            .iter()
            .map(|&f| row(0, Value::Float(f), NULL, NULL, NULL, true.into()))
            .collect();
        check(rows, "floats");
    }

    /// SplitMix64: a deterministic stream without a dependency.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// Random rows of `TYPES` shape. Each column has its own NULL rate
    /// (sometimes none, sometimes all), float columns sometimes hold
    /// ints, and both text columns draw fresh allocations from one small
    /// vocabulary.
    fn random_rows(rng: &mut Rng, n: usize) -> Vec<Vec<Value>> {
        let null_pct: Vec<u64> = (0..TYPES.len())
            .map(|_| [0, 0, 10, 50, 100][rng.below(5) as usize])
            .collect();
        let int_pct = [0, 1, 30][rng.below(3) as usize];
        (0..n)
            .map(|_| {
                (0..TYPES.len())
                    .map(|j| {
                        if rng.below(100) < null_pct[j] {
                            return NULL;
                        }
                        let k = rng.below(12);
                        match TYPES[j] {
                            ColumnType::Int => Value::Int(k as i64 - 6),
                            ColumnType::Float if rng.below(100) < int_pct => Value::Int(k as i64),
                            ColumnType::Float => Value::Float(k as f64 / 4.0),
                            ColumnType::Text => Value::from(format!("w{k}")),
                            ColumnType::Bool => Value::Bool(k.is_multiple_of(2)),
                        }
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn append_build_matches_the_oracle_on_random_tables() {
        let mut rng = Rng(0x5eed);
        for case in 0..300 {
            let n = rng.below(150) as usize;
            let rows = random_rows(&mut rng, n);
            let what = format!("case {case}");
            check(rows.clone(), &what);

            // The same rows over two builds, then a truncation or a
            // clear followed by more rows.
            let mut db = Database::new(schema());
            let split = rng.below(n as u64 + 1) as usize;
            db.table_mut("x").unwrap().push_rows(rows[..split].to_vec());
            db.table_mut("x").unwrap().push_rows(rows[split..].to_vec());
            assert_holds(&db, "x", &rows, &format!("{what} in two builds"));
            let keep = if case % 4 == 0 { 0 } else { split };
            let extra = rng.below(60) as usize;
            let more = random_rows(&mut rng, extra);
            {
                let mut t = db.table_mut("x").unwrap();
                if keep == 0 {
                    t.clear();
                } else {
                    t.truncate(keep);
                }
                t.push_rows(more.clone());
            }
            let expected: Vec<Vec<Value>> = rows[..keep].iter().chain(&more).cloned().collect();
            assert_holds(&db, "x", &expected, &format!("{what} truncated to {keep}"));
        }
    }

    #[test]
    fn truncation_keeps_only_present_strings_in_the_dictionary() {
        let mut db = Database::new(schema());
        db.table_mut("x").unwrap().push_rows(vec![
            row(1, NULL, NULL, text("kept"), NULL, NULL),
            row(2, NULL, NULL, text("gone"), text("gone"), NULL),
        ]);
        db.table_mut("x").unwrap().truncate(1);
        let ct = db.table("x").unwrap().columnar();
        let ColumnData::Text(d) = &ct.columns[3].data else {
            panic!("text column expected");
        };
        assert_eq!(d.values.len(), 1);
        assert_eq!(d.values[0].as_str(), "kept");
        assert!(matches!(ct.columns[4].data, ColumnData::AllNull));
    }

    /// A copy of a database built by `sb-data`, in this crate's types,
    /// and its rows. `sb-data` links the library build of `sb-engine`,
    /// whose `Value` is a different type from this test build's, so each
    /// cell goes over by its column type and exact payload.
    macro_rules! local_copy {
        ($src:expr) => {{
            let src = &$src;
            let mut db = Database::new(src.schema.clone());
            let mut all = Vec::new();
            for t in src.tables() {
                let rows: Vec<Vec<Value>> = (0..t.len())
                    .map(|r| {
                        t.row(r)
                            .iter()
                            .map(|v| match v.column_type() {
                                None => NULL,
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
                db.table_mut(&t.def.name).unwrap().push_rows(rows.clone());
                all.push((t.def.name.clone(), rows));
            }
            assert_eq!(db.total_rows(), src.total_rows());
            (db, all)
        }};
    }

    fn assert_db_holds(db: &Database, rows: &[(String, Vec<Vec<Value>>)], what: &str) {
        for (name, rows) in rows {
            assert_holds(db, name, rows, &format!("{what} {name}"));
        }
    }

    #[test]
    fn append_build_matches_the_oracle_on_domains() {
        use sb_data::{Domain, SizeClass};
        for size in [SizeClass::Tiny, SizeClass::Small, SizeClass::Full] {
            for domain in Domain::ALL {
                let (db, rows) = local_copy!(domain.build(size).db);
                assert_db_holds(&db, &rows, &format!("{} {size:?}", domain.name()));
            }
        }
    }

    #[test]
    fn append_build_matches_the_oracle_on_the_spider_corpus() {
        for member in sb_data::SpiderCorpus::build().databases {
            let (db, rows) = local_copy!(member.db);
            assert_db_holds(&db, &rows, &db.schema.name);
        }
    }
}
