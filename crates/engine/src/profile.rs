//! Data profiling: extract a [`DataProfile`] from database content for
//! automatic enhanced-schema inference.

use crate::column::{Column, ColumnData, NullMask};
use crate::database::Database;
use crate::key::FxBuild;
use crate::value::Value;
use sb_schema::{ColumnProfile, DataProfile};
use std::cmp::Reverse;
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

/// Per-column occurrence counts under literal identity (`Values`
/// columns).
type Counts<'a> = HashMap<LitKey<'a>, usize, FxBuild>;

/// Profile every column of every table in `db`: non-NULL count, distinct
/// count, numeric range and the `FREQUENT_VALUES` most frequent values
/// rendered as SQL literals, most frequent first with ties broken by
/// ascending literal (byte order).
///
/// Counting runs over each table's columnar image ([`Table::columnar`]),
/// with the cheapest structure that fits the column: one counter per
/// value for ints whose range is under twice their count, else an Fx map
/// keyed by `i64`; a map keyed by normalized bits for floats; a count per
/// dictionary code for text; two counters for bools. A
/// [`ColumnData::Values`] column is counted in one map keyed by borrowed
/// literal identity.
///
/// The top values are then selected exactly, with no full sort and no
/// literal allocated per distinct value: a bounded heap of counts finds
/// the count `t` of the last retained slot, every value counted more
/// than `t` is rendered and sorted, and the remaining slots go to the smallest
/// literals counted exactly `t`, each rendered into one reused buffer and
/// kept in a bounded max-heap. Values sharing a (count, literal) pair
/// render identically, so the result equals a full sort by (count desc,
/// literal asc) truncated to `FREQUENT_VALUES`.
///
/// [`Table::columnar`]: crate::database::Table::columnar
pub fn profile_database(db: &Database) -> DataProfile {
    let mut profile = DataProfile::new();
    let mut tallies = Tallies::default();
    for table in db.tables() {
        profile.set_row_count(&table.def.name, table.len());
        let image = table.columnar();
        for (col, column) in table.def.columns.iter().zip(&image.columns) {
            profile.insert(&table.def.name, &col.name, tallies.profile(column));
        }
    }
    profile
}

/// Profile a [`ColumnData::Values`] column.
fn profile_values(values: &[Value]) -> ColumnProfile {
    let mut counts = Counts::default();
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
    /// Per dictionary code, or per value of a dense int range.
    codes: Vec<usize>,
}

impl Tallies {
    /// Profile one column of a columnar image.
    fn profile(&mut self, column: &Column) -> ColumnProfile {
        let nulls = &column.nulls;
        let mut count = 0usize;
        match &column.data {
            ColumnData::Int(v) => {
                let (mut lo, mut hi) = (i64::MAX, i64::MIN);
                for_each_valid(v, nulls, |x| {
                    count += 1;
                    lo = lo.min(x);
                    hi = hi.max(x);
                });
                // i64 -> f64 is monotone, so the range equals the fold
                // over each value's f64 that a per-value pass takes.
                let range = (count > 0).then_some((lo as f64, hi as f64));
                let span = hi.abs_diff(lo);
                if span < 2 * count as u64 {
                    // A dense range (ids, codes, years): one counter per
                    // value in `lo..=hi`.
                    let tally = &mut self.codes;
                    tally.clear();
                    tally.resize(span as usize + 1, 0);
                    for_each_valid(v, nulls, |x| tally[x.abs_diff(lo) as usize] += 1);
                    let seen = tally.iter().zip(lo..).filter(|(&n, _)| n > 0);
                    let top = frequent_values(seen.clone().map(|(&n, k)| (LitKey::Int(k), n)));
                    return column_profile(count, seen.count(), range, top);
                }
                let map = &mut self.ints;
                map.clear();
                map.reserve(v.len());
                for_each_valid(v, nulls, |x| *map.entry(x).or_insert(0) += 1);
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
            ColumnData::Values(v) => profile_values(v),
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
    // The `FREQUENT_VALUES` largest counts, smallest on top. `t`, the
    // count of the last retained slot, is the smallest of them; every
    // count above `t` ranks before that slot, so all of them are here.
    let mut largest: BinaryHeap<Reverse<usize>> = BinaryHeap::with_capacity(FREQUENT_VALUES + 1);
    for (_, n) in counts.clone() {
        if largest.len() < FREQUENT_VALUES {
            largest.push(Reverse(n));
        } else if let Some(mut least) = largest.peek_mut().filter(|least| n > least.0) {
            *least = Reverse(n);
        }
    }
    let slots = largest.len();
    let Some(&Reverse(t)) = largest.peek() else {
        return Vec::new();
    };
    let tied_slots = slots - largest.iter().filter(|n| n.0 > t).count();

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

    /// The selection equals a full sort by (count desc, literal asc) on
    /// tie-heavy columns of every type, floats of every magnitude and
    /// sign and strings with quotes included.
    #[test]
    fn frequent_values_match_the_full_sort() {
        let mut state = 0x9e37_79b9_u64;
        let mut next = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let texts: Vec<String> = (0..300)
            .map(|i| match i % 4 {
                0 => format!("w{i}"),
                1 => format!("{}'{}", i % 9, i),
                2 => format!("'{i}"),
                _ => format!("a{}", i % 11),
            })
            .collect();
        for case in 0..400 {
            let distinct = 1 + next(300) as usize;
            let keys: Vec<LitKey> = (0..distinct)
                .map(|i| {
                    let k = next(2_000) as i64 - 1_000;
                    match case % 4 {
                        0 => LitKey::Int(k * [1, 7, 1_000_003][i % 3]),
                        1 => LitKey::Float(float_bits(match i % 6 {
                            0 => k as f64 / 8.0,
                            1 => k as f64,
                            2 => k as f64 * 1e13,
                            3 => k as f64 * 1e-9,
                            4 => [f64::NAN, f64::INFINITY, -0.0, 2e15][i % 4],
                            _ => -(k as f64) / 3.0,
                        })),
                        2 => LitKey::Text(&texts[i % texts.len()]),
                        _ => LitKey::Bool(i % 2 == 0),
                    }
                })
                .collect();
            let mut counts: HashMap<LitKey, usize> = HashMap::new();
            for (i, k) in keys.into_iter().enumerate() {
                *counts.entry(k).or_insert(0) += 1 + (i % 7 == 0) as usize;
            }
            let mut want: Vec<(usize, String)> =
                counts.iter().map(|(k, &n)| (n, k.literal())).collect();
            want.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
            want.truncate(FREQUENT_VALUES);
            let want: Vec<String> = want.into_iter().map(|(_, lit)| lit).collect();
            let got = frequent_values(counts.iter().map(|(&k, &n)| (k, n)));
            assert_eq!(got, want, "case {case}");
        }
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
