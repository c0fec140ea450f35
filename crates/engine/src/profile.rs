//! Data profiling: extract a [`DataProfile`] from database content for
//! automatic enhanced-schema inference.

use crate::database::Database;
use crate::key::FxBuild;
use crate::value::Value;
use sb_schema::{ColumnProfile, DataProfile};
use std::collections::{BinaryHeap, HashMap};
use std::fmt::Write as _;

/// How many frequent values to retain per column. Value samplers and schema
/// linkers only need a handful of representative literals.
const FREQUENT_VALUES: usize = 24;

/// A non-NULL value under *literal identity* — the equivalence of
/// [`sql_literal`] renderings, which is exact per-type value identity
/// (notably finer than canonical-key rounding: `3` and `3.0` are
/// distinct literals). Every NaN is normalized to one bit pattern since
/// every NaN renders as the same literal. Text is borrowed, so counting
/// allocates nothing per key.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum LitKey<'a> {
    Int(i64),
    Float(u64),
    Text(&'a str),
    Bool(bool),
}

impl<'a> LitKey<'a> {
    /// The key of a value; `None` for NULL.
    fn of(v: &'a Value) -> Option<Self> {
        Some(match v {
            Value::Null => return None,
            Value::Int(i) => LitKey::Int(*i),
            Value::Float(f) => LitKey::Float(if f.is_nan() { f64::NAN } else { *f }.to_bits()),
            Value::Text(s) => LitKey::Text(s),
            Value::Bool(b) => LitKey::Bool(*b),
        })
    }

    /// Append the SQL literal of this value to `out`.
    fn write_literal(self, out: &mut String) {
        match self {
            LitKey::Int(i) => write!(out, "{i}").expect("writing to a String"),
            LitKey::Float(bits) => {
                let f = f64::from_bits(bits);
                if f.fract() == 0.0 && f.abs() < 1e15 {
                    write!(out, "{f:.1}")
                } else {
                    write!(out, "{f}")
                }
                .expect("writing to a String")
            }
            LitKey::Text(s) => {
                out.push('\'');
                for (i, part) in s.split('\'').enumerate() {
                    if i > 0 {
                        out.push_str("''");
                    }
                    out.push_str(part);
                }
                out.push('\'');
            }
            LitKey::Bool(b) => out.push_str(if b { "TRUE" } else { "FALSE" }),
        }
    }

    fn literal(self) -> String {
        let mut out = String::new();
        self.write_literal(&mut out);
        out
    }
}

/// Per-column occurrence counts under literal identity.
type Counts<'a> = HashMap<LitKey<'a>, usize, FxBuild>;

/// Profile every column of every table in `db`: non-NULL count, distinct
/// count, numeric range and the [`FREQUENT_VALUES`] most frequent values
/// rendered as SQL literals, most frequent first with ties broken by
/// ascending literal (byte order).
///
/// Values are counted by borrowed literal identity, then the top values
/// are selected exactly, with no full sort and no literal allocated per
/// distinct value: a selection finds the count `t` of the last retained
/// slot, every value counted more than `t` is rendered and sorted, and
/// the remaining slots go to the smallest literals counted exactly `t`,
/// each rendered into one reused buffer and kept in a bounded max-heap.
/// Values sharing a (count, literal) pair render identically, so the
/// result equals a full sort by (count desc, literal asc) truncated to
/// [`FREQUENT_VALUES`].
pub fn profile_database(db: &Database) -> DataProfile {
    let mut profile = DataProfile::new();
    let mut counts = Counts::default();
    for table in db.tables() {
        profile.set_row_count(&table.def.name, table.len());
        for (idx, col) in table.def.columns.iter().enumerate() {
            counts.clear();
            let mut count = 0usize;
            let mut min = f64::INFINITY;
            let mut max = f64::NEG_INFINITY;
            let mut saw_numeric = false;
            for v in table.column_values(idx) {
                let Some(key) = LitKey::of(v) else { continue };
                count += 1;
                *counts.entry(key).or_insert(0) += 1;
                if let Some(x) = v.as_f64() {
                    saw_numeric = true;
                    min = min.min(x);
                    max = max.max(x);
                }
            }
            profile.insert(
                &table.def.name,
                &col.name,
                ColumnProfile {
                    count,
                    distinct: counts.len(),
                    min: saw_numeric.then_some(min),
                    max: saw_numeric.then_some(max),
                    frequent_values: frequent_values(&counts),
                },
            );
        }
    }
    profile
}

/// The [`FREQUENT_VALUES`] most frequent literals of a column, most
/// frequent first, ties by ascending literal.
fn frequent_values(counts: &Counts<'_>) -> Vec<String> {
    let slots = counts.len().min(FREQUENT_VALUES);
    if slots == 0 {
        return Vec::new();
    }
    // `t`: the count of the last retained slot. Every count above `t`
    // ranks before that slot, so all of them are among the first
    // `slots - 1` after the selection.
    let mut tallies: Vec<usize> = counts.values().copied().collect();
    let (above, &mut t, _) = tallies.select_nth_unstable_by(slots - 1, |a, b| b.cmp(a));
    let tied_slots = slots - above.iter().filter(|&&n| n > t).count();

    let mut top: Vec<(usize, String)> = Vec::with_capacity(slots);
    let mut tied: BinaryHeap<String> = BinaryHeap::with_capacity(tied_slots);
    let mut scratch = String::new();
    for (key, &n) in counts {
        if n > t {
            top.push((n, key.literal()));
        } else if n == t {
            scratch.clear();
            key.write_literal(&mut scratch);
            if tied.len() < tied_slots {
                tied.push(std::mem::take(&mut scratch));
            } else if let Some(mut largest) = tied.peek_mut() {
                if scratch < *largest {
                    // Swap the new literal in; the evicted one's buffer
                    // becomes the next scratch.
                    std::mem::swap(&mut *largest, &mut scratch);
                }
            }
        }
    }
    top.sort_unstable_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    top.into_iter()
        .map(|(_, lit)| lit)
        .chain(tied.into_sorted_vec())
        .collect()
}

/// Render a value as a SQL literal (the form the value sampler splices into
/// generated queries).
pub fn sql_literal(v: &Value) -> String {
    LitKey::of(v).map_or_else(|| "NULL".to_string(), LitKey::literal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_schema::{Column, ColumnType, Schema, TableDef};

    #[test]
    fn profiles_counts_distinct_and_ranges() {
        let schema = Schema::new("t").with_table(TableDef::new(
            "x",
            vec![
                Column::new("class", ColumnType::Text),
                Column::new("z", ColumnType::Float),
            ],
        ));
        let mut db = Database::new(schema);
        db.table_mut("x").unwrap().push_rows(vec![
            vec!["GALAXY".into(), 0.5.into()],
            vec!["GALAXY".into(), 1.5.into()],
            vec!["STAR".into(), Value::Null],
        ]);
        let p = profile_database(&db);
        let class = p.column("x", "class").unwrap();
        assert_eq!(class.count, 3);
        assert_eq!(class.distinct, 2);
        assert_eq!(class.frequent_values[0], "'GALAXY'");
        let z = p.column("x", "z").unwrap();
        assert_eq!(z.count, 2);
        assert_eq!(z.min, Some(0.5));
        assert_eq!(z.max, Some(1.5));
        assert_eq!(p.row_count("x"), Some(3));
    }

    #[test]
    fn literals_round_trip_through_parser() {
        for v in [
            Value::Int(42),
            Value::Float(2.22),
            Value::Float(3.0),
            Value::from("it's"),
            Value::Bool(true),
            Value::Null,
        ] {
            let lit = sql_literal(&v);
            let sql = format!("SELECT a FROM t WHERE a = {lit}");
            assert!(sb_sql::parse(&sql).is_ok(), "literal `{lit}` must re-parse");
        }
    }
}
