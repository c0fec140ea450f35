//! Exact order statistics over raw samples, and the process's peak RSS.

/// Nearest-rank percentile of an ascending slice (`q` in `0..=1`):
/// the smallest sample with at least `q` of the samples at or below it.
/// Exact, never interpolated or bucketed. `0` for an empty slice.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The best quartile of measurements: nearest rank a quarter of the way
/// from the best (the best itself for up to four values). Noise on a
/// shared machine only ever adds time, so the better values of repeated
/// identical work are the ones that measure the program.
pub fn best_quartile(mut values: Vec<f64>, higher_is_better: bool) -> f64 {
    values.sort_by(|a, b| {
        if higher_is_better {
            b.total_cmp(a)
        } else {
            a.total_cmp(b)
        }
    });
    let rank = (values.len() as f64 / 4.0).ceil() as usize;
    values.get(rank.max(1) - 1).copied().unwrap_or(0.0)
}

/// Median of unsorted values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile by the same rule as
/// Python's `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method), so spreads printed here match the ones a
/// Python reader computes from the same values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let cut = |k: usize| {
        let m = (n + 1) * k;
        let j = (m / 4).clamp(1, n - 1);
        // Unclamped, as in Python: tiny samples extrapolate.
        let delta = m as f64 / 4.0 - j as f64;
        v[j - 1] + delta * (v[j] - v[j - 1])
    };
    (cut(1), cut(2), cut(3))
}

/// Peak resident set size of this process (`VmHWM`), in MiB. `0` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Hand the allocator's free memory back to the operating system, so
/// that what the benchmark freed (its generated inputs) does not stay
/// resident and count toward the program's peak RSS. With several
/// threads, glibc keeps a varying number of arenas, and serve_exec_full's
/// peak moved by 10% between runs without this.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes a plain integer, touches
        // only the allocator's own free lists, and is thread-safe.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// SplitMix64: the benchmark's one way of turning `(seed, stream)` into
/// well-mixed input seeds and draws.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// 64-bit FNV-1a over bytes: response fingerprints for the oracles.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn best_quartile_counts_from_the_best() {
        let v: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(best_quartile(v.clone(), false), 2.0);
        assert_eq!(best_quartile(v, true), 7.0);
        assert_eq!(best_quartile(vec![5.0, 3.0], false), 3.0);
        assert_eq!(best_quartile(vec![], true), 0.0);
    }
}
