//! Deterministic content-generation helpers shared by the domain
//! builders.

use rand::distributions::{Distribution, WeightedIndex};
use rand::rngs::StdRng;
use rand::Rng;
use sb_engine::Value;
use std::cell::RefCell;
use std::collections::HashMap;

/// Pick from a slice with explicit weights (deterministic given the RNG).
pub fn weighted<'a, T>(rng: &mut StdRng, items: &'a [(T, f64)]) -> &'a T {
    let dist = WeightedIndex::new(items.iter().map(|(_, w)| *w)).expect("weights valid");
    &items[dist.sample(rng)].0
}

/// Zipf-ish rank sampler over `n` items with skew `s` (1.0 ≈ classic
/// Zipf): realistic long-tail categorical data. Inverse-CDF on the
/// harmonic weights `1 / k^s`; each draw consumes one `f64` from `rng`.
pub fn zipf(rng: &mut StdRng, n: usize, s: f64) -> usize {
    debug_assert!(n > 0);
    ZIPF_CDFS.with(|cdfs| {
        let mut cdfs = cdfs.borrow_mut();
        let cdf = cdfs
            .entry((n, s.to_bits()))
            .or_insert_with(|| zipf_cdf(n, s));
        let target = rng.gen::<f64>() * cdf[n - 1];
        zipf_rank(cdf, target)
    })
}

/// The first rank whose cumulative weight reaches `target` (the last
/// rank if none does).
fn zipf_rank(cdf: &[f64], target: f64) -> usize {
    cdf.partition_point(|&acc| acc < target).min(cdf.len() - 1)
}

thread_local! {
    /// Cumulative weight tables of [`zipf`], one per `(n, s bits)`.
    static ZIPF_CDFS: RefCell<HashMap<(usize, u64), Vec<f64>>> = RefCell::default();
}

/// Partial sums of `1 / k^s` for `k = 1..=n`, accumulated left to right
/// so the last entry is bit-identical to the sequential sum of all `n`
/// weights.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut acc = 0.0;
    (1..=n)
        .map(|k| {
            acc += 1.0 / (k as f64).powf(s);
            acc
        })
        .collect()
}

/// A float uniform in `[lo, hi]`, rounded to `decimals`.
pub fn float_in(rng: &mut StdRng, lo: f64, hi: f64, decimals: u32) -> f64 {
    let v = rng.gen_range(lo..=hi);
    let m = 10f64.powi(decimals as i32);
    (v * m).round() / m
}

/// NULL with probability `p`, otherwise the value.
pub fn maybe_null(rng: &mut StdRng, p: f64, v: Value) -> Value {
    if rng.gen_bool(p) {
        Value::Null
    } else {
        v
    }
}

/// Deterministic pseudo-text: `n` words drawn from a topic vocabulary.
/// Used for project objectives, descriptions etc. where only length and
/// token statistics matter.
pub fn pseudo_text(rng: &mut StdRng, vocabulary: &[&str], n_words: usize) -> String {
    let mut out = String::new();
    for i in 0..n_words {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(vocabulary[rng.gen_range(0..vocabulary.len())]);
    }
    out
}

/// Scale a real row count down by the size divisor, keeping at least
/// `min` rows so that tiny builds still have joinable content.
pub fn scaled(real: f64, divisor: f64, min: usize) -> usize {
    ((real / divisor).round() as usize).max(min)
}

/// A readable identifier like `"GA-2017-0042"`.
pub fn coded_id(prefix: &str, year: i64, n: i64) -> String {
    format!("{prefix}-{year}-{n:04}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Domain, SizeClass};
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    /// The direct formula [`zipf`] replaced: normaliser and partial sums
    /// recomputed on every draw.
    fn zipf_reference(rng: &mut StdRng, n: usize, s: f64) -> usize {
        let norm: f64 = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).sum();
        reference_rank(n, s, rng.gen::<f64>() * norm)
    }

    fn reference_rank(n: usize, s: f64, target: f64) -> usize {
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            if acc >= target {
                return k - 1;
            }
        }
        n - 1
    }

    #[test]
    fn zipf_table_draws_like_the_direct_formula_for_every_builder_call() {
        // The builders run on this thread, so afterwards its memo holds
        // exactly the (n, s) pairs they draw with.
        for size in [SizeClass::Tiny, SizeClass::Small, SizeClass::Full] {
            for domain in Domain::ALL {
                domain.build(size);
            }
        }
        crate::SpiderCorpus::build();
        let used: Vec<(usize, u64)> =
            ZIPF_CDFS.with(|cdfs| cdfs.borrow().keys().copied().collect());
        assert!(
            used.len() >= 10,
            "only {} (n, s) pairs recorded",
            used.len()
        );
        for (n, bits) in used.into_iter().chain([(1, 1.0f64.to_bits())]) {
            let s = f64::from_bits(bits);
            let mut table = StdRng::seed_from_u64(n as u64 ^ bits);
            let mut direct = table.clone();
            for draw in 0..5_000 {
                assert_eq!(
                    zipf(&mut table, n, s),
                    zipf_reference(&mut direct, n, s),
                    "n {n} s {s} draw {draw}"
                );
            }
            assert_eq!(
                table.gen::<u64>(),
                direct.gen::<u64>(),
                "n {n} s {s}: RNG streams diverged"
            );
            // Random draws almost never land on a boundary; probe each
            // cumulative weight exactly and just above it.
            let cdf = zipf_cdf(n, s);
            for &acc in &cdf {
                for target in [acc, acc.next_up()] {
                    assert_eq!(zipf_rank(&cdf, target), reference_rank(n, s, target));
                }
            }
        }
    }

    #[test]
    fn zipf_favors_low_ranks() {
        let mut r = rng();
        let mut counts = [0usize; 10];
        for _ in 0..2000 {
            counts[zipf(&mut r, 10, 1.0)] += 1;
        }
        assert!(counts[0] > counts[4], "{counts:?}");
        assert!(counts[0] > counts[9], "{counts:?}");
    }

    #[test]
    fn float_in_respects_bounds_and_rounding() {
        let mut r = rng();
        for _ in 0..100 {
            let v = float_in(&mut r, 0.0, 2.0, 2);
            assert!((0.0..=2.0).contains(&v));
            assert_eq!((v * 100.0).round() / 100.0, v);
        }
    }

    #[test]
    fn scaled_applies_floor() {
        assert_eq!(scaled(86_000_000.0, 1_000.0, 10), 86_000);
        assert_eq!(scaled(5.0, 1_000.0, 10), 10);
    }

    #[test]
    fn weighted_picks_all_heavy_items_eventually() {
        let mut r = rng();
        let items = [("a", 10.0), ("b", 1.0)];
        let mut saw_a = false;
        for _ in 0..50 {
            if *weighted(&mut r, &items) == "a" {
                saw_a = true;
            }
        }
        assert!(saw_a);
    }

    #[test]
    fn pseudo_text_word_count() {
        let mut r = rng();
        let t = pseudo_text(&mut r, &["alpha", "beta"], 7);
        assert_eq!(t.split(' ').count(), 7);
    }

    #[test]
    fn coded_id_format() {
        assert_eq!(coded_id("GA", 2017, 42), "GA-2017-0042");
    }
}
