//! Data profiling: extract a [`DataProfile`] from database content for
//! automatic enhanced-schema inference.

use crate::column::{Column, ColumnData, NullMask};
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

/// The literal-identity bits of a float: every NaN renders alike, so
/// every NaN gets one bit pattern.
#[inline]
fn float_bits(f: f64) -> u64 {
    if f.is_nan() { f64::NAN } else { f }.to_bits()
}

impl<'a> LitKey<'a> {
    /// The key of a value; `None` for NULL.
    fn of(v: &'a Value) -> Option<Self> {
        Some(match v {
            Value::Null => return None,
            Value::Int(i) => LitKey::Int(*i),
            Value::Float(f) => LitKey::Float(float_bits(*f)),
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

/// Per-column occurrence counts under literal identity (the row path).
type Counts<'a> = HashMap<LitKey<'a>, usize, FxBuild>;

/// Profile every column of every table in `db`: non-NULL count, distinct
/// count, numeric range and the [`FREQUENT_VALUES`] most frequent values
/// rendered as SQL literals, most frequent first with ties broken by
/// ascending literal (byte order).
///
/// Counting runs over each table's columnar image ([`Table::columnar`],
/// built here if it does not exist yet), with the cheapest structure
/// that fits the column: an Fx map keyed by `i64` for ints, by
/// normalized bits for floats, a count per dictionary code for text and
/// two counters for bools. A `Mixed` column, or every column of a table
/// whose image has drifted from its rows, is counted from the rows in
/// one map keyed by borrowed literal identity.
///
/// The top values are then selected exactly, with no full sort and no
/// literal allocated per distinct value: a selection finds the count `t`
/// of the last retained slot, every value counted more than `t` is
/// rendered and sorted, and the remaining slots go to the smallest
/// literals counted exactly `t`, each rendered into one reused buffer and
/// kept in a bounded max-heap. Values sharing a (count, literal) pair
/// render identically, so the result equals a full sort by (count desc,
/// literal asc) truncated to [`FREQUENT_VALUES`].
///
/// [`Table::columnar`]: crate::database::Table::columnar
pub fn profile_database(db: &Database) -> DataProfile {
    let mut profile = DataProfile::new();
    let mut tallies = Tallies::default();
    let mut counts = Counts::default();
    for table in db.tables() {
        profile.set_row_count(&table.def.name, table.len());
        let image = table.columnar();
        for (idx, col) in table.def.columns.iter().enumerate() {
            let column = match image.as_ref().map(|ct| &ct.columns[idx]) {
                Some(c) if !matches!(c.data, ColumnData::Mixed) => tallies.profile(c),
                _ => profile_rows(table.column_values(idx), &mut counts),
            };
            profile.insert(&table.def.name, &col.name, column);
        }
    }
    profile
}

/// Profile one column from its row-store cells.
fn profile_rows<'a>(
    values: impl Iterator<Item = &'a Value>,
    counts: &mut Counts<'a>,
) -> ColumnProfile {
    counts.clear();
    let mut count = 0usize;
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    let mut saw_numeric = false;
    for v in values {
        let Some(key) = LitKey::of(v) else { continue };
        count += 1;
        *counts.entry(key).or_insert(0) += 1;
        if let Some(x) = v.as_f64() {
            saw_numeric = true;
            min = min.min(x);
            max = max.max(x);
        }
    }
    ColumnProfile {
        count,
        distinct: counts.len(),
        min: saw_numeric.then_some(min),
        max: saw_numeric.then_some(max),
        frequent_values: frequent_values(counts.iter().map(|(&k, &n)| (k, n))),
    }
}

/// Counting structures for the columnar path, reused across columns.
#[derive(Default)]
struct Tallies {
    ints: HashMap<i64, usize, FxBuild>,
    floats: HashMap<u64, usize, FxBuild>,
    codes: Vec<usize>,
}

impl Tallies {
    /// Profile one typed column of a columnar image (never `Mixed`).
    fn profile(&mut self, column: &Column) -> ColumnProfile {
        let nulls = &column.nulls;
        let mut count = 0usize;
        match &column.data {
            ColumnData::Int(v) => {
                let map = &mut self.ints;
                map.clear();
                map.reserve(v.len());
                let (mut lo, mut hi) = (i64::MAX, i64::MIN);
                for_each_valid(v, nulls, |x| {
                    count += 1;
                    *map.entry(x).or_insert(0) += 1;
                    lo = lo.min(x);
                    hi = hi.max(x);
                });
                // i64 -> f64 is monotone, so the range equals the fold
                // over each value's f64 that the row path takes.
                let range = (count > 0).then_some((lo as f64, hi as f64));
                let top = frequent_values(map.iter().map(|(&k, &n)| (LitKey::Int(k), n)));
                column_profile(count, map.len(), range, top)
            }
            ColumnData::Float(v) => {
                let map = &mut self.floats;
                map.clear();
                map.reserve(v.len());
                let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
                for_each_valid(v, nulls, |x| {
                    count += 1;
                    *map.entry(float_bits(x)).or_insert(0) += 1;
                    lo = lo.min(x);
                    hi = hi.max(x);
                });
                let range = (count > 0).then_some((lo, hi));
                let top = frequent_values(map.iter().map(|(&k, &n)| (LitKey::Float(k), n)));
                column_profile(count, map.len(), range, top)
            }
            ColumnData::Text(d) => {
                let tally = &mut self.codes;
                tally.clear();
                tally.resize(d.values.len(), 0);
                for_each_valid(&d.codes, nulls, |code| {
                    count += 1;
                    tally[code as usize] += 1;
                });
                // Every dictionary entry is some non-NULL row's value.
                let pairs = d.values.iter().zip(tally.iter());
                let top = frequent_values(pairs.map(|(s, &n)| (LitKey::Text(s), n)));
                column_profile(count, d.values.len(), None, top)
            }
            ColumnData::Bool(v) => {
                let mut tally = [0usize; 2];
                for_each_valid(v, nulls, |b| tally[b as usize] += 1);
                let seen = [false, true].into_iter().zip(tally).filter(|&(_, n)| n > 0);
                let top = frequent_values(seen.clone().map(|(b, n)| (LitKey::Bool(b), n)));
                column_profile(tally[0] + tally[1], seen.count(), None, top)
            }
            ColumnData::AllNull => column_profile(0, 0, None, Vec::new()),
            ColumnData::Mixed => unreachable!("Mixed columns are profiled from the rows"),
        }
    }
}

fn column_profile(
    count: usize,
    distinct: usize,
    range: Option<(f64, f64)>,
    frequent_values: Vec<String>,
) -> ColumnProfile {
    ColumnProfile {
        count,
        distinct,
        min: range.map(|r| r.0),
        max: range.map(|r| r.1),
        frequent_values,
    }
}

/// Call `f` on every non-NULL slot of a typed vector, in row order.
#[inline]
fn for_each_valid<T: Copy>(values: &[T], nulls: &NullMask, mut f: impl FnMut(T)) {
    if nulls.any() {
        for (i, &v) in values.iter().enumerate() {
            if !nulls.is_null(i) {
                f(v);
            }
        }
    } else {
        values.iter().for_each(|&v| f(v));
    }
}

/// The [`FREQUENT_VALUES`] most frequent literals of a column, given as
/// `(literal, count)` pairs with distinct literals, most frequent first,
/// ties by ascending literal.
fn frequent_values<'a>(counts: impl Iterator<Item = (LitKey<'a>, usize)> + Clone) -> Vec<String> {
    // `t`: the count of the last retained slot. Every count above `t`
    // ranks before that slot, so all of them are among the first
    // `slots - 1` after the selection.
    let mut tallies: Vec<usize> = counts.clone().map(|(_, n)| n).collect();
    let slots = tallies.len().min(FREQUENT_VALUES);
    if slots == 0 {
        return Vec::new();
    }
    let (above, &mut t, _) = tallies.select_nth_unstable_by(slots - 1, |a, b| b.cmp(a));
    let tied_slots = slots - above.iter().filter(|&&n| n > t).count();

    let mut top: Vec<(usize, String)> = Vec::with_capacity(slots);
    let mut tied: BinaryHeap<String> = BinaryHeap::with_capacity(tied_slots);
    let mut scratch = String::new();
    for (key, n) in counts {
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
