//! Allocation-free canonical row keys.
//!
//! Grouping, `DISTINCT`, set operations and `COUNT(DISTINCT …)` all
//! partition rows by the canonical-key equivalence of
//! [`Value::canonical_key`]. Historically each row was keyed by joining
//! those strings — one `String` allocation (plus one per cell) per row.
//! This module replaces the strings with a hash-first scheme: every row
//! hashes its cells via [`Value::hash_key`] (no allocation), buckets are
//! plain `u64 → candidate` maps, and candidates within a bucket are
//! verified with [`Value::key_eq`], so hash collisions can never merge
//! distinct keys.
//!
//! The equivalence relation is *identical* to the string keys' — the
//! reference interpreter still uses the strings, and the differential
//! fuzzer holds the two implementations against each other.

use crate::value::Value;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// FxHash-style multiply-rotate seed (an odd constant derived from π).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast non-cryptographic hasher for hot per-row keying (grouping,
/// dedup, join keys). Every consumer pairs the hash with a full equality
/// check, so hash quality only affects bucket balance, never
/// correctness. SipHash's DoS resistance buys nothing here and costs
/// ~20ns per row.
#[derive(Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // Multiplication only propagates bit variation upward, so keys
        // differing in high bits alone (e.g. f64 bit patterns of large
        // power-of-two-strided ids) would collide in the low bits the
        // hash table indexes by. A xor-shift-multiply finalizer folds
        // the high bits back down.
        let mut h = self.hash;
        h ^= h >> 32;
        h = h.wrapping_mul(SEED);
        h ^ (h >> 29)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut last = 0u64;
            for &b in rem {
                last = last << 8 | u64::from(b);
            }
            self.add(last ^ bytes.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// Build-hasher alias for maps keyed by values we hash ourselves.
pub(crate) type FxBuild = BuildHasherDefault<FxHasher>;

/// Hash a row (or key tuple) of values under the canonical-key relation.
pub fn hash_values(values: &[Value]) -> u64 {
    let mut h = FxHasher::default();
    for v in values {
        v.hash_key(&mut h);
    }
    h.finish()
}

/// Canonical-key equality of two rows (or key tuples).
pub fn values_key_eq(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.key_eq(y))
}

/// A hash-first identity map over canonical row keys. It stores only
/// `u32` tags; the caller owns the keyed data and supplies an equality
/// closure resolving a tag back to its key, so inserting never clones a
/// row.
#[derive(Default)]
pub struct KeyIndex {
    buckets: HashMap<u64, Vec<u32>, FxBuild>,
}

impl KeyIndex {
    /// An empty index expecting around `cap` distinct keys.
    pub fn with_capacity(cap: usize) -> Self {
        KeyIndex {
            buckets: HashMap::with_capacity_and_hasher(cap, FxBuild::default()),
        }
    }

    /// Look up the tag whose key matches, given the key's hash and an
    /// equality predicate over previously inserted tags.
    pub fn get(&self, hash: u64, mut eq: impl FnMut(u32) -> bool) -> Option<u32> {
        self.buckets
            .get(&hash)?
            .iter()
            .copied()
            .find(|&tag| eq(tag))
    }

    /// Insert `tag` under `hash` if no existing tag matches `eq`.
    /// Returns the previously present tag, or `None` when `tag` was
    /// inserted (i.e. the key is new).
    pub fn insert(&mut self, hash: u64, tag: u32, mut eq: impl FnMut(u32) -> bool) -> Option<u32> {
        let bucket = self.buckets.entry(hash).or_default();
        if let Some(&hit) = bucket.iter().find(|&&t| eq(t)) {
            return Some(hit);
        }
        bucket.push(tag);
        None
    }
}

/// Dedup rows in place under the canonical-key relation, keeping first
/// occurrences in order — byte-for-byte the behavior of the old joined
/// string keys, without the per-row allocations.
pub fn dedup_values_rows(rows: &mut Vec<Vec<Value>>) {
    let mut index = KeyIndex::with_capacity(rows.len());
    let mut kept: Vec<Vec<Value>> = Vec::with_capacity(rows.len());
    for row in rows.drain(..) {
        let h = hash_values(&row);
        if index
            .insert(h, kept.len() as u32, |t| {
                values_key_eq(&kept[t as usize], &row)
            })
            .is_none()
        {
            kept.push(row);
        }
    }
    *rows = kept;
}

/// Dedup single values in place under the canonical-key relation,
/// keeping first occurrences in order (aggregate `DISTINCT`).
pub fn dedup_values(values: &mut Vec<Value>) {
    let mut index = KeyIndex::with_capacity(values.len());
    let mut kept: Vec<Value> = Vec::with_capacity(values.len());
    for v in values.drain(..) {
        let h = {
            let mut hasher = FxHasher::default();
            v.hash_key(&mut hasher);
            hasher.finish()
        };
        if index
            .insert(h, kept.len() as u32, |t| kept[t as usize].key_eq(&v))
            .is_none()
        {
            kept.push(v);
        }
    }
    *values = kept;
}

/// A set of rows, used for `INTERSECT` / `EXCEPT` membership probes.
/// Borrows nothing: rows stay with the caller, probes are by reference.
pub struct RowSet<'a> {
    index: KeyIndex,
    rows: &'a [Vec<Value>],
}

impl<'a> RowSet<'a> {
    /// Index every row of `rows`.
    pub fn build(rows: &'a [Vec<Value>]) -> Self {
        let mut index = KeyIndex::with_capacity(rows.len());
        for (i, row) in rows.iter().enumerate() {
            let h = hash_values(row);
            index.insert(h, i as u32, |t| values_key_eq(&rows[t as usize], row));
        }
        RowSet { index, rows }
    }

    /// Whether a row with this canonical key was indexed.
    pub fn contains(&self, row: &[Value]) -> bool {
        let h = hash_values(row);
        self.index
            .get(h, |t| values_key_eq(&self.rows[t as usize], row))
            .is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_keeps_first_occurrences_in_order() {
        let mut rows = vec![
            vec![Value::Int(1), Value::from("a")],
            vec![Value::Float(1.0), Value::from("a")], // key-equal to row 0
            vec![Value::Int(2), Value::from("a")],
            vec![Value::Null, Value::Null],
            vec![Value::Null, Value::Null],
        ];
        dedup_values_rows(&mut rows);
        assert_eq!(
            rows,
            vec![
                vec![Value::Int(1), Value::from("a")],
                vec![Value::Int(2), Value::from("a")],
                vec![Value::Null, Value::Null],
            ]
        );
    }

    #[test]
    fn row_set_membership_uses_canonical_keys() {
        let rows = vec![
            vec![Value::Int(7)],
            vec![Value::from("x")],
            vec![Value::Null],
        ];
        let set = RowSet::build(&rows);
        assert!(set.contains(&[Value::Float(7.0)]));
        assert!(set.contains(&[Value::Null]));
        assert!(!set.contains(&[Value::Int(8)]));
        assert!(!set.contains(&[Value::from("7")]));
    }

    #[test]
    fn key_index_separates_hash_collisions_by_eq() {
        // Force a collision by inserting two distinct keys under the same
        // hash; the index must keep both.
        let mut idx = KeyIndex::default();
        assert_eq!(idx.insert(42, 0, |_| false), None);
        assert_eq!(idx.insert(42, 1, |t| t == 99), None);
        assert_eq!(idx.insert(42, 2, |t| t == 1), Some(1));
    }
}
