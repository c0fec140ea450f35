//! In-memory tables and databases.
//!
//! A [`Table`] stores its rows in one place, its columnar image
//! ([`ColumnarTable`]): [`Table::push_row`] appends each cell to its
//! column, and every reader — the batch kernels, the profiler, the row
//! executor, the reference interpreter — reads the image.

use crate::column::{ColumnData, ColumnarTable, TextCodes};
use crate::error::{EngineError, Result};
use crate::exec::ExecOptions;
use crate::key::FxBuild;
use crate::result::ResultSet;
use crate::value::Value;
use sb_schema::{ColumnType, DataProfile, Schema, TableDef};
use std::collections::HashSet;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, OnceLock};

/// An in-memory table: a definition and the columnar image that holds
/// its rows.
///
/// Text cells are interned per table: [`Table::push_row`] swaps each
/// text handle for the table's first handle with the same content, so a
/// string repeated across rows and columns is stored once. The interning
/// pool and each text column's code map live only while rows are being
/// appended; [`Database::table_mut`]'s handle drops them, and trims the
/// image's spare capacity, when it goes out of scope.
#[derive(Debug, Clone)]
pub struct Table {
    /// The table's definition (name + typed columns).
    pub def: TableDef,
    /// The rows, column by column.
    image: ColumnarTable,
    /// Interning state of an unfinished build, rebuilt from the image
    /// when rows are appended after a build finished.
    appending: Option<Appending>,
}

/// What appending rows needs beyond the image itself.
#[derive(Debug, Clone)]
struct Appending {
    /// One handle per distinct string in the table.
    pool: HashSet<Arc<String>, FxBuild>,
    /// Per column, the dictionary code of each stored string.
    codes: Vec<TextCodes>,
}

impl Table {
    /// Create an empty table for a definition.
    pub fn new(def: TableDef) -> Self {
        let image = ColumnarTable::new(def.columns.len());
        Table {
            def,
            image,
            appending: None,
        }
    }

    /// The table's columnar image.
    pub fn columnar(&self) -> &ColumnarTable {
        &self.image
    }

    /// Append one row, validating arity and (loosely) types: NULL fits any
    /// column, ints are accepted by float columns. Text cells are interned
    /// against the table's earlier strings.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<()> {
        if row.len() != self.def.columns.len() {
            return Err(EngineError::TypeMismatch(format!(
                "table `{}` expects {} values, got {}",
                self.def.name,
                self.def.columns.len(),
                row.len()
            )));
        }
        for (v, c) in row.iter().zip(&self.def.columns) {
            let ok = match (v.column_type(), c.ty) {
                (None, _) => true,
                (Some(ColumnType::Int), ColumnType::Float) => true,
                (Some(t), expected) => t == expected,
            };
            if !ok {
                return Err(EngineError::TypeMismatch(format!(
                    "value {v} does not fit column `{}.{}` of type {}",
                    self.def.name, c.name, c.ty
                )));
            }
        }
        let image = &self.image;
        self.appending
            .get_or_insert_with(|| Appending::new(image))
            .push(&mut self.image, row);
        Ok(())
    }

    /// Append many rows, panicking on arity/type errors — intended for the
    /// deterministic generators, whose output is well-formed by
    /// construction.
    pub fn push_rows(&mut self, rows: Vec<Vec<Value>>) {
        for row in rows {
            self.push_row(row).expect("generated row must be valid");
        }
    }

    /// Keep the first `n` rows. The image is rebuilt from them, so each
    /// text column's dictionary holds exactly the strings still present.
    pub fn truncate(&mut self, n: usize) {
        if n >= self.len() {
            return;
        }
        let rows: Vec<Vec<Value>> = (0..n).map(|r| self.row(r)).collect();
        self.image = ColumnarTable::new(self.def.columns.len());
        self.appending = None;
        for row in rows {
            self.push_row(row).expect("stored rows fit their table");
        }
    }

    /// Remove every row.
    pub fn clear(&mut self) {
        self.truncate(0);
    }

    /// Drop the interning state and trim the image's spare capacity:
    /// the end of a build.
    fn finish_appending(&mut self) {
        if self.appending.take().is_some() {
            self.image.shrink_to_fit();
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.image.len
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cell at row `r`, column `c`.
    pub fn cell(&self, r: usize, c: usize) -> Value {
        self.image.columns[c].value_at(r)
    }

    /// Row `r`, one value per column.
    pub fn row(&self, r: usize) -> Vec<Value> {
        self.image.columns.iter().map(|c| c.value_at(r)).collect()
    }

    /// Approximate byte footprint of the stored data (used by Table 1):
    /// 8 per number, 1 per bool or NULL, `len + 8` per string.
    pub fn approx_bytes(&self) -> usize {
        let len = self.len();
        let cell = |v: &Value| match v {
            Value::Null | Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 8,
            Value::Text(s) => s.len() + 8,
        };
        let mut total = 0;
        for col in &self.image.columns {
            let valid = (0..len).filter(|&i| !col.nulls.is_null(i));
            total += match &col.data {
                ColumnData::Int(_) | ColumnData::Float(_) => len + 7 * valid.count(),
                ColumnData::Bool(_) | ColumnData::AllNull => len,
                ColumnData::Text(d) => {
                    len + valid
                        .map(|i| d.values[d.codes[i] as usize].len() + 7)
                        .sum::<usize>()
                }
                ColumnData::Values(v) => v.iter().map(cell).sum(),
            };
        }
        total
    }
}

impl Appending {
    /// The state for appending to `image`.
    fn new(image: &ColumnarTable) -> Self {
        Appending {
            pool: image.dictionaries().flatten().cloned().collect(),
            codes: image.text_codes(),
        }
    }

    /// Intern the row's text against the strings appended so far and
    /// append it to `image`.
    fn push(&mut self, image: &mut ColumnarTable, mut row: Vec<Value>) {
        for v in &mut row {
            if let Value::Text(s) = v {
                match self.pool.get(&**s) {
                    Some(shared) => *s = Arc::clone(shared),
                    None => {
                        self.pool.insert(Arc::clone(s));
                    }
                }
            }
        }
        image.push_row(row, &mut self.codes);
    }
}

/// The column image of `width`-column rows, such as a derived table's
/// result: text interned by content as in [`Table::push_row`], so each
/// text column's dictionary holds distinct strings even when equal
/// strings come from different base tables. Rows are not type-checked:
/// a column may mix value types ([`ColumnData::Values`]).
pub(crate) fn image_of_rows(width: usize, rows: Vec<Vec<Value>>) -> ColumnarTable {
    let mut image = ColumnarTable::new(width);
    let mut state = Appending::new(&image);
    for row in rows {
        state.push(&mut image, row);
    }
    image
}

/// Mutable access to one table of a [`Database`], from
/// [`Database::table_mut`]. Dropping it finishes any build: the table's
/// interning state is freed and its image trimmed to size.
pub struct TableMut<'a>(&'a mut Table);

impl Deref for TableMut<'_> {
    type Target = Table;

    fn deref(&self) -> &Table {
        self.0
    }
}

impl DerefMut for TableMut<'_> {
    fn deref_mut(&mut self) -> &mut Table {
        self.0
    }
}

impl Drop for TableMut<'_> {
    fn drop(&mut self) {
        self.0.finish_appending();
    }
}

/// A database: a schema plus one [`Table`] of content per schema table.
///
/// The data profile is derived from the content: built on the first
/// [`Database::profile`] call, shared afterwards, and dropped by
/// [`Database::table_mut`], the only way to change the content.
#[derive(Debug, Clone)]
pub struct Database {
    /// The schema (shape + foreign keys).
    pub schema: Schema,
    tables: Vec<Table>,
    /// Lazily built data profile, invalidated by [`Database::table_mut`].
    profile: OnceLock<Arc<DataProfile>>,
}

impl Database {
    /// Create a database with empty tables for every table in the schema.
    pub fn new(schema: Schema) -> Self {
        let tables = schema.tables.iter().cloned().map(Table::new).collect();
        Database {
            schema,
            tables,
            profile: OnceLock::new(),
        }
    }

    /// The data profile of the current content ([`profile_database`]),
    /// computed on first call and shared afterwards, so the enhanced-
    /// schema inference, every generator and every schema linker over
    /// this database profile it once between them. Profiling counts
    /// over each table's columnar image ([`Table::columnar`]).
    ///
    /// [`profile_database`]: crate::profile_database
    pub fn profile(&self) -> Arc<DataProfile> {
        Arc::clone(
            self.profile
                .get_or_init(|| Arc::new(crate::profile::profile_database(self))),
        )
    }

    /// Look up a table's content by (case-insensitive) name.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables
            .iter()
            .find(|t| t.def.name.eq_ignore_ascii_case(name))
    }

    /// Mutable table lookup. Drops the cached data profile, since the
    /// caller may change the table's content. Appending rows through the
    /// returned handle grows the table's image, and dropping the handle
    /// trims the image to size.
    pub fn table_mut(&mut self, name: &str) -> Option<TableMut<'_>> {
        self.profile = OnceLock::new();
        self.tables
            .iter_mut()
            .find(|t| t.def.name.eq_ignore_ascii_case(name))
            .map(TableMut)
    }

    /// All tables.
    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    /// Total row count across tables.
    pub fn total_rows(&self) -> usize {
        self.tables.iter().map(Table::len).sum()
    }

    /// Approximate byte footprint across tables.
    pub fn approx_bytes(&self) -> usize {
        self.tables.iter().map(Table::approx_bytes).sum()
    }

    /// Parse and execute a SQL string against this database.
    pub fn run(&self, sql: &str) -> Result<ResultSet> {
        let query = sb_sql::parse(sql)?;
        crate::exec::execute(self, &query)
    }

    /// Execute an already-parsed query.
    pub fn run_query(&self, query: &sb_sql::Query) -> Result<ResultSet> {
        crate::exec::execute(self, query)
    }

    /// Parse and execute with explicit executor options (used by the
    /// benchmarks and the join-equivalence tests).
    pub fn run_with(&self, sql: &str, opts: ExecOptions) -> Result<ResultSet> {
        let query = sb_sql::parse(sql)?;
        crate::exec::execute_with(self, &query, opts)
    }

    /// Execute an already-parsed query with explicit executor options.
    pub fn run_query_with(&self, query: &sb_sql::Query, opts: ExecOptions) -> Result<ResultSet> {
        crate::exec::execute_with(self, query, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_schema::Column;

    fn db() -> Database {
        let schema = Schema::new("t").with_table(TableDef::new(
            "x",
            vec![
                Column::pk("id", ColumnType::Int),
                Column::new("v", ColumnType::Float),
            ],
        ));
        Database::new(schema)
    }

    #[test]
    fn push_row_validates_arity() {
        let mut d = db();
        let mut t = d.table_mut("x").unwrap();
        assert!(t.push_row(vec![Value::Int(1)]).is_err());
        assert!(t.push_row(vec![Value::Int(1), Value::Float(0.5)]).is_ok());
    }

    #[test]
    fn push_row_validates_types_with_coercions() {
        let mut d = db();
        let mut t = d.table_mut("x").unwrap();
        // Int into Float column is fine; Text into Int is not.
        assert!(t.push_row(vec![Value::Int(1), Value::Int(2)]).is_ok());
        assert!(t
            .push_row(vec![Value::from("a"), Value::Float(0.0)])
            .is_err());
        // NULL fits anywhere.
        assert!(t.push_row(vec![Value::Null, Value::Null]).is_ok());
    }

    #[test]
    fn profile_memo_equals_a_fresh_profile() {
        let mut d = db();
        d.table_mut("x").unwrap().push_rows(vec![
            vec![Value::Int(1), Value::Float(0.5)],
            vec![Value::Int(2), Value::Float(0.5)],
        ]);
        let memo = d.profile();
        assert_eq!(*memo, crate::profile_database(&d));
        assert!(Arc::ptr_eq(&memo, &d.profile()), "second call is shared");
    }

    #[test]
    fn table_mut_invalidates_the_profile() {
        let mut d = db();
        d.table_mut("x")
            .unwrap()
            .push_rows(vec![vec![Value::Int(1), Value::Float(0.5)]]);
        assert_eq!(d.profile().row_count("x"), Some(1));
        d.table_mut("x")
            .unwrap()
            .push_row(vec![Value::Int(2), Value::Float(7.0)])
            .unwrap();
        let p = d.profile();
        assert_eq!(p.row_count("x"), Some(2));
        assert_eq!(p.column("x", "v").unwrap().max, Some(7.0));
        assert_eq!(*p, crate::profile_database(&d));
    }

    #[test]
    fn clone_carries_the_profile() {
        let mut d = db();
        d.table_mut("x")
            .unwrap()
            .push_rows(vec![vec![Value::Int(1), Value::Float(0.5)]]);
        let memo = d.profile();
        let copy = d.clone();
        assert!(Arc::ptr_eq(&memo, &copy.profile()), "clone shares the memo");
    }

    /// Table 1 reports logical bytes, not the in-memory layout: 8 per
    /// number, 1 per bool or NULL, and `len + 8` per string, whether or
    /// not the string's allocation is shared.
    #[test]
    fn approx_bytes_counts_logical_bytes() {
        let schema = Schema::new("t").with_table(TableDef::new(
            "m",
            vec![
                Column::pk("id", ColumnType::Int),
                Column::new("f", ColumnType::Float),
                Column::new("s", ColumnType::Text),
                Column::new("b", ColumnType::Bool),
            ],
        ));
        let mut d = Database::new(schema);
        d.table_mut("m").unwrap().push_rows(vec![
            vec![1.into(), 0.5.into(), "galaxy".into(), true.into()],
            vec![2.into(), Value::Null, "galaxy".into(), Value::Null],
            vec![3.into(), 1.5.into(), Value::Null, false.into()],
        ]);
        // ints 3*8, floats 2*8 + 1, text 2*(6+8) + 1, bools 2*1 + 1
        assert_eq!(d.approx_bytes(), 24 + 17 + 29 + 3);
    }

    #[test]
    fn push_row_interns_text_per_table() {
        let schema = Schema::new("t").with_table(TableDef::new(
            "s",
            vec![
                Column::new("a", ColumnType::Text),
                Column::new("b", ColumnType::Text),
            ],
        ));
        let mut d = Database::new(schema);
        d.table_mut("s").unwrap().push_rows(vec![
            vec![Value::from("x"), Value::from("y")],
            vec![Value::from("y"), Value::from("x")],
        ]);
        let t = d.table("s").unwrap();
        let handle = |r: usize, c: usize| match t.cell(r, c) {
            Value::Text(s) => s,
            v => panic!("text expected, got {v:?}"),
        };
        assert!(
            Arc::ptr_eq(&handle(0, 0), &handle(1, 1)),
            "x shared across columns"
        );
        assert!(
            Arc::ptr_eq(&handle(0, 1), &handle(1, 0)),
            "y shared across rows"
        );
        assert!(!Arc::ptr_eq(&handle(0, 0), &handle(0, 1)));
    }

    #[test]
    fn bytes_and_rows_accumulate() {
        let mut d = db();
        d.table_mut("x")
            .unwrap()
            .push_rows(vec![vec![Value::Int(1), Value::Float(0.5)]]);
        assert_eq!(d.total_rows(), 1);
        assert!(d.approx_bytes() >= 16);
    }
}
