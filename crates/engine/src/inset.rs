//! Hashed `IN` membership under SQL equality.
//!
//! `x IN (SELECT c …)` used to scan the subquery's rows with
//! [`Value::sql_eq`] once per outer row. [`InSet`] is built once from
//! the subquery's column and answers each probe with one hash lookup,
//! returning the same three-valued outcome as that ordered loop.
//!
//! The loop's outcome has two parts: `found` (some item compared equal)
//! and `saw_null` (some comparison was unknown). A match always wins,
//! so the order of the items never matters, and `saw_null` only needs
//! to know which *classes* of item the set holds:
//!
//! - NULL items and a NULL probe are unknown against everything;
//! - a NaN probe is unknown against every item, a NaN item against
//!   every probe, so NaN never matches;
//! - numbers, text and booleans are mutually incomparable, so an item
//!   of another class counts as unknown.
//!
//! Numeric keys follow `sql_eq`'s exact int/float equality: an integral
//! float inside the i64 range folds to its `Int` key (`-0.0` to `0`),
//! any other float keys by its bits. Ints past 2^53 therefore never
//! match a nearby float, exactly like [`crate::value::cmp_int_f64`].
//! The reference interpreter keeps the ordered loop and is the oracle
//! the unit tests below hold this set against.

use crate::key::FxBuild;
use crate::value::Value;
use std::collections::HashSet;

/// Numeric key under SQL equality, shared by `IN` membership and join
/// keys ([`crate::join::JKey`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum NumKey {
    /// An int, or a float equal to one.
    Int(i64),
    /// Any other non-NaN float, by bit pattern.
    Bits(u64),
}

/// Key of a non-NaN float; `None` for NaN, which equals nothing.
#[inline]
pub(crate) fn float_key(f: f64) -> Option<NumKey> {
    const TWO_63: f64 = 9_223_372_036_854_775_808.0; // 2^63, exact as f64
    if f.is_nan() {
        None
    } else if f.fract() == 0.0 && (-TWO_63..TWO_63).contains(&f) {
        // Exact: |f| < 2^63 and integral. `-0.0 as i64` is 0.
        Some(NumKey::Int(f as i64))
    } else {
        Some(NumKey::Bits(f.to_bits()))
    }
}

/// The candidate set of one `IN` predicate, built once.
#[derive(Default)]
pub(crate) struct InSet {
    nums: HashSet<NumKey, FxBuild>,
    texts: HashSet<String, FxBuild>,
    bools: [bool; 2],
    has_null: bool,
    has_nan: bool,
    /// Any Int or Float item, NaN included.
    has_num: bool,
    has_text: bool,
    has_bool: bool,
}

impl InSet {
    /// Build from the candidate values, in any order.
    pub(crate) fn new<'v>(items: impl IntoIterator<Item = &'v Value>) -> InSet {
        let mut set = InSet::default();
        for v in items {
            match v {
                Value::Null => set.has_null = true,
                Value::Int(i) => {
                    set.has_num = true;
                    set.nums.insert(NumKey::Int(*i));
                }
                Value::Float(f) => {
                    set.has_num = true;
                    match float_key(*f) {
                        Some(k) => {
                            set.nums.insert(k);
                        }
                        None => set.has_nan = true,
                    }
                }
                Value::Text(s) => {
                    set.has_text = true;
                    if !set.texts.contains(s.as_str()) {
                        set.texts.insert(s.to_string());
                    }
                }
                Value::Bool(b) => {
                    set.has_bool = true;
                    set.bools[*b as usize] = true;
                }
            }
        }
        set
    }

    fn is_empty(&self) -> bool {
        !(self.has_null || self.has_num || self.has_text || self.has_bool)
    }

    /// `(found, saw_null)` of the ordered `sql_eq` loop over the items.
    /// `saw_null` is only meaningful when `found` is false: the loop
    /// stops at the first match, so what it saw before depends on item
    /// order, but a match decides the predicate either way.
    #[inline]
    pub(crate) fn probe(&self, v: &Value) -> (bool, bool) {
        match v {
            Value::Null => (false, true),
            Value::Int(i) => self.probe_int(*i),
            Value::Float(f) => self.probe_float(*f),
            Value::Text(s) => self.probe_text(s),
            Value::Bool(b) => self.probe_bool(*b),
        }
    }

    /// [`InSet::probe`] of `Value::Int(i)`.
    #[inline]
    pub(crate) fn probe_int(&self, i: i64) -> (bool, bool) {
        (self.nums.contains(&NumKey::Int(i)), self.num_unknown())
    }

    /// [`InSet::probe`] of `Value::Float(f)`.
    #[inline]
    pub(crate) fn probe_float(&self, f: f64) -> (bool, bool) {
        match float_key(f) {
            Some(k) => (self.nums.contains(&k), self.num_unknown()),
            // NaN compares unknown against every item.
            None => (false, !self.is_empty()),
        }
    }

    /// [`InSet::probe`] of `Value::Text(s)`.
    #[inline]
    pub(crate) fn probe_text(&self, s: &str) -> (bool, bool) {
        (
            self.texts.contains(s),
            self.has_null || self.has_num || self.has_bool,
        )
    }

    /// [`InSet::probe`] of `Value::Bool(b)`.
    #[inline]
    pub(crate) fn probe_bool(&self, b: bool) -> (bool, bool) {
        (
            self.bools[b as usize],
            self.has_null || self.has_num || self.has_text,
        )
    }

    /// Whether a non-NaN number compares unknown against some item.
    #[inline]
    fn num_unknown(&self) -> bool {
        self.has_null || self.has_nan || self.has_text || self.has_bool
    }
}

/// The value of `v [NOT] IN (…)` from a probe's `(found, saw_null)`.
pub(crate) fn in_result(found: bool, saw_null: bool, negated: bool) -> Value {
    if found {
        Value::Bool(!negated)
    } else if saw_null {
        Value::Null
    } else {
        Value::Bool(negated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ordered loop every row path ran before [`InSet`], and which
    /// the reference interpreter still runs.
    fn ordered(v: &Value, items: &[Value]) -> (bool, bool) {
        let mut saw_null = v.is_null();
        for item in items {
            match v.sql_eq(item) {
                Some(true) => return (true, saw_null),
                Some(false) => {}
                None => saw_null = true,
            }
        }
        (false, saw_null)
    }

    /// The values where a hashed set could plausibly diverge from exact
    /// SQL equality: NULL, NaN, signed zeros, the 2^53 boundary, the i64
    /// extremes and floats at or past ±2^63, infinities, text, bools.
    fn pool() -> Vec<Value> {
        const TWO_53: i64 = 1 << 53;
        const TWO_63: f64 = 9_223_372_036_854_775_808.0;
        vec![
            Value::Null,
            Value::Float(f64::NAN),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Int(0),
            Value::Int(1),
            Value::Float(1.0),
            Value::Float(1.5),
            Value::Int(-1),
            Value::Int(TWO_53 - 1),
            Value::Int(TWO_53),
            Value::Int(TWO_53 + 1),
            Value::Float(TWO_53 as f64),
            Value::Float((TWO_53 - 1) as f64),
            Value::Float((TWO_53 + 2) as f64),
            Value::Int(i64::MAX),
            Value::Int(i64::MIN),
            Value::Int(i64::MIN + 1),
            Value::Float(TWO_63),
            Value::Float(-TWO_63),
            Value::Float(2.0 * TWO_63),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NEG_INFINITY),
            Value::from(""),
            Value::from("1"),
            Value::from("a"),
            Value::Bool(true),
            Value::Bool(false),
        ]
    }

    /// xorshift64*: a dependency-free deterministic stream.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % n
        }
    }

    fn check(probe: &Value, items: &[Value], negated: bool) {
        let set = InSet::new(items);
        let (found, saw_null) = set.probe(probe);
        let (want_found, want_null) = ordered(probe, items);
        assert_eq!(found, want_found, "found: {probe:?} IN {items:?}");
        assert_eq!(
            in_result(found, saw_null, negated),
            in_result(want_found, want_null, negated),
            "{probe:?} {}IN {items:?}",
            if negated { "NOT " } else { "" }
        );
    }

    #[test]
    fn probe_matches_ordered_loop_on_random_multisets() {
        let pool = pool();
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        for _ in 0..4_000 {
            // Multisets of 0..=6 items drawn with repetition, so empty
            // sets and duplicates both occur.
            let len = rng.below(7);
            let items: Vec<Value> = (0..len)
                .map(|_| pool[rng.below(pool.len())].clone())
                .collect();
            for probe in &pool {
                for negated in [false, true] {
                    check(probe, &items, negated);
                }
            }
        }
    }

    #[test]
    fn every_single_item_set_matches_ordered_loop() {
        let pool = pool();
        for item in &pool {
            for probe in &pool {
                for negated in [false, true] {
                    check(probe, std::slice::from_ref(item), negated);
                }
            }
        }
    }

    #[test]
    fn empty_set_edge_cases() {
        let empty = InSet::new(&[]);
        // NULL IN () is NULL; NaN IN () is FALSE (nothing was compared).
        let (f, n) = empty.probe(&Value::Null);
        assert_eq!(in_result(f, n, false), Value::Null);
        let (f, n) = empty.probe(&Value::Float(f64::NAN));
        assert_eq!(in_result(f, n, false), Value::Bool(false));
        assert_eq!(in_result(f, n, true), Value::Bool(true));
    }

    #[test]
    fn exact_int_float_equality_past_two_pow_53() {
        const TWO_53: i64 = 1 << 53;
        let set = InSet::new(&[Value::Float(TWO_53 as f64)]);
        assert!(set.probe_int(TWO_53).0);
        // 2^53 + 1 rounds to 2^53 as f64 but is not equal to it.
        assert!(!set.probe_int(TWO_53 + 1).0);
        let set = InSet::new(&[Value::Int(i64::MAX)]);
        // i64::MAX as f64 rounds up to 2^63, which no i64 equals.
        assert!(!set.probe_float(i64::MAX as f64).0);
        let set = InSet::new(&[Value::Float(-0.0)]);
        assert!(set.probe_int(0).0 && set.probe_float(0.0).0);
    }
}
