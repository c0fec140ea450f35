//! Runtime values and their SQL comparison/arithmetic semantics.

use sb_schema::ColumnType;
use std::cmp::Ordering;
use std::fmt;
use std::hash::Hasher;
use std::sync::Arc;

/// Numeric canonicalization behind every grouping / dedup / multiset key:
/// round to 6 decimal places, the tolerance Spider's execution-accuracy
/// checker applies, so `1` (int) and `1.0` (float) — and any two floats
/// within rounding distance — fall into the same key class.
///
/// Where `|v * 1e6|` exceeds 2^53 the rounded value can no longer be
/// represented any more precisely than `v` itself (adjacent doubles are
/// further than 1e-6 apart), so `v` passes through unchanged. NaN is
/// normalized to one bit pattern so that bit-equality of canonicalized
/// values coincides exactly with equality of [`Value::canonical_key`]
/// strings — the property the executor's hash keys rely on.
pub fn canon_num(v: f64) -> f64 {
    if !v.is_finite() {
        return if v.is_nan() { f64::NAN } else { v };
    }
    let scaled = v * 1e6;
    if scaled.abs() >= 9_007_199_254_740_992.0 {
        return v;
    }
    scaled.round() / 1e6
}

/// Whether an i64 survives a round trip through f64 unchanged. Every
/// integer with |v| ≤ 2^53 does; beyond that only multiples of the local
/// ulp do. The i128 comparison sidesteps the saturating f64→i64 cast,
/// which would falsely report `i64::MAX` (not representable — it rounds
/// up to 2^63) as exact.
#[inline]
fn int_fits_f64(v: i64) -> bool {
    (v as f64) as i128 == v as i128
}

/// Exact ordering of an i64 against a non-NaN f64 — no i64→f64 cast, so
/// integers beyond 2^53 do not collapse onto their float neighbours.
///
/// Any float with |b| ≥ 2^53 is an integer, so after the range clamp the
/// truncation `b as i64` and the fraction `b - t` are both exact.
/// `pub(crate)` so the vectorized comparison kernels share the exact
/// semantics without materializing `Value`s.
#[inline]
pub(crate) fn cmp_int_f64(a: i64, b: f64) -> Ordering {
    const TWO_63: f64 = 9_223_372_036_854_775_808.0; // 2^63, exact as f64
    if b >= TWO_63 {
        return Ordering::Less;
    }
    if b < -TWO_63 {
        return Ordering::Greater;
    }
    let t = b as i64; // |b| < 2^63: truncation toward zero, exact
    match a.cmp(&t) {
        Ordering::Equal => {
            // a == trunc(b): decided by b's fractional part.
            let frac = b - t as f64;
            if frac > 0.0 {
                Ordering::Less
            } else if frac < 0.0 {
                Ordering::Greater
            } else {
                Ordering::Equal
            }
        }
        ord => ord,
    }
}

/// A runtime SQL value.
///
/// Text is a shared handle rather than an owned `String`: cloning a text
/// value is a refcount bump, a table's equal strings share one
/// allocation ([`crate::Table::push_row`] interns them), and the whole
/// enum is 16 bytes (pinned below). Every comparison, key and rendering
/// reads the string's content, never the pointer.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 text, shared.
    Text(Arc<String>),
    /// Boolean.
    Bool(bool),
}

// A thin text handle keeps every materialized cell at 16 bytes.
const _: () = assert!(std::mem::size_of::<Value>() == 16);

impl Value {
    /// Whether this value is NULL.
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view of the value, when it has one.
    #[inline]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The logical column type of this value, when not NULL.
    pub fn column_type(&self) -> Option<ColumnType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(ColumnType::Int),
            Value::Float(_) => Some(ColumnType::Float),
            Value::Text(_) => Some(ColumnType::Text),
            Value::Bool(_) => Some(ColumnType::Bool),
        }
    }

    /// SQL comparison. Returns `None` when either side is NULL, the types
    /// are incomparable, or a float side is NaN. Numeric comparison is
    /// **exact**: int/int compares as i64, int/float splits the float into
    /// integer and fraction (`cmp_int_f64`) instead of casting the i64
    /// to f64, so integers beyond 2^53 never compare equal to nearby
    /// floats (or to each other).
    #[inline]
    pub fn compare(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Text(a), Value::Text(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Float(a), Value::Float(b)) => a.partial_cmp(b),
            (Value::Int(a), Value::Float(b)) => (!b.is_nan()).then(|| cmp_int_f64(*a, *b)),
            (Value::Float(a), Value::Int(b)) => {
                (!a.is_nan()).then(|| cmp_int_f64(*b, *a).reverse())
            }
            _ => None,
        }
    }

    /// SQL equality: NULL never equals anything (returns `None`).
    #[inline]
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        self.compare(other).map(|o| o == Ordering::Equal)
    }

    /// Total ordering for sorting output rows: NULLs sort first, then
    /// booleans, numbers, text. This is the engine's deterministic sort
    /// order, used by ORDER BY and by result-set canonicalization.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Float(_) => 2,
                Value::Text(_) => 3,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            // Mixed int/float: exact comparison. NaN keeps its
            // `f64::total_cmp` placement (after +inf), and a mathematical
            // tie falls back to `f64::total_cmp` as well (exact, since a
            // tie means the int is representable) so that `-0.0 < 0 = 0.0`
            // stays transitive against the float/float arm.
            (Value::Int(a), Value::Float(b)) => {
                if b.is_nan() {
                    (*a as f64).total_cmp(b)
                } else {
                    match cmp_int_f64(*a, *b) {
                        Ordering::Equal => (*a as f64).total_cmp(b),
                        ord => ord,
                    }
                }
            }
            (Value::Float(a), Value::Int(b)) => {
                if a.is_nan() {
                    a.total_cmp(&(*b as f64))
                } else {
                    match cmp_int_f64(*b, *a).reverse() {
                        Ordering::Equal => a.total_cmp(&(*b as f64)),
                        ord => ord,
                    }
                }
            }
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }

    /// A canonical key for multiset comparison of result rows. Numbers are
    /// canonicalized through [`canon_num`] (6-decimal-place rounding) so
    /// that `1.0` (float) and `1` (int) produced by different but
    /// equivalent queries compare equal — the same tolerance Spider's
    /// execution-accuracy checker applies.
    ///
    /// Two values have equal keys **iff** [`Value::key_eq`] holds and
    /// [`Value::hash_key`] feeds identical bytes — the executor's
    /// allocation-free grouping relies on that equivalence, so the three
    /// must only change together.
    /// Integers too large for f64 keep their exact decimal digits under a
    /// distinct `i:` prefix: collapsing them through f64 (the pre-fix
    /// behaviour) merged distinct 19-digit identifiers — SDSS `objid`s —
    /// into one key class. The prefix cannot collide with a float's `n:`
    /// key by construction.
    pub fn canonical_key(&self) -> String {
        match self {
            Value::Null => "∅".to_string(),
            Value::Int(v) if int_fits_f64(*v) => format!("n:{}", canon_num(*v as f64)),
            Value::Int(v) => format!("i:{v}"),
            Value::Float(v) => format!("n:{}", canon_num(*v)),
            Value::Text(s) => format!("t:{s}"),
            Value::Bool(b) => format!("b:{b}"),
        }
    }

    /// Feed this value's canonical identity into a hasher without
    /// allocating. Hashes collide exactly when [`Value::canonical_key`]
    /// strings are equal (modulo ordinary hash collisions, which callers
    /// must resolve with [`Value::key_eq`]).
    #[inline]
    pub fn hash_key<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => state.write_u8(0),
            Value::Int(v) if int_fits_f64(*v) => {
                state.write_u8(1);
                state.write_u64(canon_num(*v as f64).to_bits());
            }
            Value::Int(v) => {
                // `i:` key class: exact integer identity.
                state.write_u8(4);
                state.write_i64(*v);
            }
            Value::Float(v) => {
                state.write_u8(1);
                state.write_u64(canon_num(*v).to_bits());
            }
            Value::Text(s) => {
                state.write_u8(2);
                state.write(s.as_bytes());
                state.write_u8(0xFF);
            }
            Value::Bool(b) => {
                state.write_u8(3);
                state.write_u8(*b as u8);
            }
        }
    }

    /// Canonical-key equality without materializing the key strings:
    /// `a.key_eq(&b)` ⇔ `a.canonical_key() == b.canonical_key()`. This is
    /// a total equivalence (NULL equals NULL here), distinct from SQL
    /// equality — it exists for grouping, DISTINCT and set operations.
    #[inline]
    pub fn key_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Text(a), Value::Text(b)) => a == b,
            // Ints compare exactly (f64-representable ints map injectively
            // into the `n:` class, the rest carry their own `i:` class).
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => {
                int_fits_f64(*a) && canon_num(*a as f64).to_bits() == canon_num(*b).to_bits()
            }
            (Value::Float(a), Value::Float(b)) => {
                canon_num(*a).to_bits() == canon_num(*b).to_bits()
            }
            _ => false,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Text(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(Arc::new(v.to_string()))
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(Arc::new(v))
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_type_numeric_comparison() {
        assert_eq!(
            Value::Int(1).compare(&Value::Float(1.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Int(2).compare(&Value::Float(1.5)),
            Some(Ordering::Greater)
        );
    }

    #[test]
    fn null_comparisons_are_unknown() {
        assert_eq!(Value::Null.compare(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Null), None);
        assert_eq!(Value::Null.sql_eq(&Value::Null), None);
    }

    #[test]
    fn text_and_number_incomparable() {
        assert_eq!(Value::from("a").compare(&Value::Int(1)), None);
    }

    #[test]
    fn total_cmp_is_deterministic_across_types() {
        let mut vals = [
            Value::from("b"),
            Value::Int(2),
            Value::Null,
            Value::Float(1.5),
            Value::Bool(true),
        ];
        vals.sort_by(|a, b| a.total_cmp(b));
        assert!(vals[0].is_null());
        assert_eq!(vals[1], Value::Bool(true));
        assert_eq!(vals[2], Value::Float(1.5));
        assert_eq!(vals[3], Value::Int(2));
        assert_eq!(vals[4], Value::from("b"));
    }

    #[test]
    fn canonical_key_unifies_int_and_float() {
        assert_eq!(
            Value::Int(3).canonical_key(),
            Value::Float(3.0).canonical_key()
        );
        assert_ne!(
            Value::Int(3).canonical_key(),
            Value::from("3").canonical_key()
        );
    }

    /// The load-bearing invariant of the allocation-free keys: `key_eq`
    /// and `hash_key` agree with `canonical_key` string equality on every
    /// pairing, including the awkward numeric corners.
    #[test]
    #[allow(clippy::excessive_precision)] // the near-9.3e18 literal documents intent: it rounds to the same f64
    fn key_eq_and_hash_match_canonical_key_equality() {
        use std::hash::{DefaultHasher, Hasher};
        let hash = |v: &Value| {
            let mut h = DefaultHasher::new();
            v.hash_key(&mut h);
            h.finish()
        };
        let values = [
            Value::Null,
            Value::Int(0),
            Value::Int(3),
            Value::Int(-3),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(3.0),
            Value::Float(3.0000001),
            Value::Float(3.1),
            Value::Float(f64::NAN),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NEG_INFINITY),
            Value::Float(9.3e18),
            Value::Float(9.300000000000001e18),
            Value::Int(9_007_199_254_740_992),     // 2^53: fits f64
            Value::Int(9_007_199_254_740_993),     // 2^53 + 1: does not
            Value::Int(9_007_199_254_740_994),     // 2^53 + 2: fits again
            Value::Float(9_007_199_254_740_992.0), // 2^53 as a float
            Value::Int(i64::MAX),
            Value::Int(i64::MIN),
            Value::Float(9.223372036854776e18), // 2^63: i64::MAX rounds here
            Value::from("3"),
            Value::from(""),
            // Equal strings in separate allocations: content decides.
            Value::from("shared"),
            Value::from("shared"),
            Value::Bool(true),
            Value::Bool(false),
        ];
        for a in &values {
            for b in &values {
                let by_string = a.canonical_key() == b.canonical_key();
                assert_eq!(
                    a.key_eq(b),
                    by_string,
                    "key_eq disagrees with canonical_key for {a:?} vs {b:?}"
                );
                if by_string {
                    assert_eq!(hash(a), hash(b), "equal keys must hash equal: {a:?} {b:?}");
                }
            }
        }
        let (a, b) = (&values[values.len() - 4], &values[values.len() - 3]);
        let (Value::Text(pa), Value::Text(pb)) = (a, b) else {
            panic!("text pair expected");
        };
        assert!(
            !Arc::ptr_eq(pa, pb),
            "the pair must not share an allocation"
        );
        assert!(a.key_eq(b) && hash(a) == hash(b) && a == b);
        // Rounding unifies near-equal floats the way the string keys do.
        assert!(Value::Float(3.0000001).key_eq(&Value::Float(3.0)));
        assert!(!Value::Float(3.1).key_eq(&Value::Float(3.0)));
    }

    /// Regression (cross-type precision): i64 values beyond 2^53 used to
    /// compare through f64, so adjacent 19-digit identifiers — and ints
    /// one ulp away from a float — reported `Equal`.
    #[test]
    fn compare_is_exact_beyond_2_53() {
        const BIG: i64 = 9_007_199_254_740_993; // 2^53 + 1, not an f64
        let as_float = Value::Float(9_007_199_254_740_992.0); // nearest f64
        assert_eq!(
            Value::Int(BIG).compare(&as_float),
            Some(Ordering::Greater),
            "2^53+1 must compare greater than the float 2^53"
        );
        assert_eq!(as_float.compare(&Value::Int(BIG)), Some(Ordering::Less));
        assert_eq!(Value::Int(BIG).sql_eq(&as_float), Some(false));
        // Adjacent big ints are distinct even though they share an f64.
        assert_eq!(
            Value::Int(BIG).compare(&Value::Int(BIG + 1)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Int(BIG).total_cmp(&Value::Int(BIG + 1)),
            Ordering::Less
        );
        // i64::MAX rounds *up* to 2^63 as a float; exact comparison must
        // still place the int below it.
        let two_63 = Value::Float(9.223372036854776e18);
        assert_eq!(Value::Int(i64::MAX).compare(&two_63), Some(Ordering::Less));
        assert_eq!(
            Value::Int(i64::MIN).compare(&Value::Float(-9.223372036854776e18)),
            Some(Ordering::Equal),
            "-2^63 is exactly representable"
        );
        // Representable cross-type equality still holds exactly.
        assert_eq!(
            Value::Int(9_007_199_254_740_992).sql_eq(&as_float),
            Some(true)
        );
        // Fractions decide ties against the truncated integer part.
        assert_eq!(
            Value::Int(3).compare(&Value::Float(3.5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Int(-3).compare(&Value::Float(-3.5)),
            Some(Ordering::Greater)
        );
        // Infinities and NaN.
        assert_eq!(
            Value::Int(i64::MAX).compare(&Value::Float(f64::INFINITY)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Int(i64::MIN).compare(&Value::Float(f64::NEG_INFINITY)),
            Some(Ordering::Greater)
        );
        assert_eq!(Value::Int(0).compare(&Value::Float(f64::NAN)), None);
    }

    /// The total order must keep its historical `-0.0 < 0.0` refinement
    /// without breaking transitivity against exact int/float ties.
    #[test]
    fn total_cmp_zero_classes_stay_transitive() {
        let neg0 = Value::Float(-0.0);
        let pos0 = Value::Float(0.0);
        let int0 = Value::Int(0);
        assert_eq!(neg0.total_cmp(&pos0), Ordering::Less);
        assert_eq!(int0.total_cmp(&neg0), Ordering::Greater);
        assert_eq!(int0.total_cmp(&pos0), Ordering::Equal);
        assert_eq!(int0.compare(&neg0), Some(Ordering::Equal), "SQL: -0.0 = 0");
    }

    /// Big integers get their own key class: grouping must not merge
    /// distinct identifiers, while representable ints still unify with
    /// their float doubles.
    #[test]
    fn key_class_of_big_ints_is_exact() {
        const BIG: i64 = 9_007_199_254_740_993;
        assert!(!Value::Int(BIG).key_eq(&Value::Int(BIG + 1)));
        assert_ne!(
            Value::Int(BIG).canonical_key(),
            Value::Int(BIG + 1).canonical_key()
        );
        assert!(!Value::Int(BIG).key_eq(&Value::Float(9_007_199_254_740_992.0)));
        assert!(Value::Int(9_007_199_254_740_992).key_eq(&Value::Float(9_007_199_254_740_992.0)));
    }
}
