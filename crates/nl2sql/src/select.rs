//! Execution-guided candidate selection.
//!
//! ValueNet and SmBoP both score their candidates without executing them;
//! execution only decides whether a candidate survives. Each rule below
//! therefore executes a candidate only when its score could still make it
//! the answer, and returns exactly what executing every candidate would.
//! The eager definitions live in this module's tests as oracles.

/// ValueNet's beam rule: among the candidates that execute, the first one
/// (in beam order) with the highest score. A later candidate replaces the
/// best only with a strictly greater score, so `executes` runs only for a
/// candidate whose score beats the best so far; a candidate that loses on
/// score could not replace the best whether it executes or not. The
/// comparison is `score > best`, as in the eager rule, so a NaN score
/// never replaces a best and never gets executed once a best exists.
pub(crate) fn first_best_executable<T>(
    candidates: impl IntoIterator<Item = (f64, T)>,
    mut executes: impl FnMut(&T) -> bool,
) -> Option<T> {
    let mut best: Option<(f64, T)> = None;
    for (score, candidate) in candidates {
        if best.as_ref().is_none_or(|(b, _)| score > *b) && executes(&candidate) {
            best = Some((score, candidate));
        }
    }
    best.map(|(_, candidate)| candidate)
}

/// SmBoP's rule: candidate `i` scores `scores[i].0` (raw) if it executes
/// and `scores[i].1` (penalized, at most the raw score) if it does not;
/// the answer is the index of the last candidate with the highest score,
/// as `Iterator::max_by` picks it. Candidates execute in descending raw
/// score, ties by descending index, and execution stops at the first one
/// whose raw score cannot beat the best score so far: its score is at
/// most its raw score, and every later candidate's raw score is lower or
/// its index is.
///
/// Scores must be finite. `-0.0` and `0.0` are equal, as under
/// `partial_cmp`.
pub(crate) fn last_best_executed(
    scores: &[(f64, f64)],
    mut executes: impl FnMut(usize) -> bool,
) -> Option<usize> {
    debug_assert!(
        scores
            .iter()
            .all(|&(raw, penalized)| raw.is_finite() && penalized.is_finite() && penalized <= raw),
        "scores must be finite, penalized at most raw: {scores:?}"
    );
    // Adding 0.0 maps -0.0 to 0.0, so `total_cmp` orders like `partial_cmp`.
    let key = |x: f64| x + 0.0;
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_unstable_by(|&a, &b| {
        key(scores[b].0)
            .total_cmp(&key(scores[a].0))
            .then(b.cmp(&a))
    });
    let beats = |score: f64, i: usize, best: Option<(f64, usize)>| {
        best.is_none_or(|(b, bi)| score > b || (score == b && i > bi))
    };
    let mut best: Option<(f64, usize)> = None;
    for i in order {
        let (raw, penalized) = scores[i];
        if !beats(raw, i, best) {
            break;
        }
        let score = if executes(i) { raw } else { penalized };
        if beats(score, i, best) {
            best = Some((score, i));
        }
    }
    best.map(|(_, i)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const LISTS: u64 = 20_000;

    /// Scores on a coarse grid, so that lists hold ties, exact crossings
    /// of the -10 penalty (a raw 4 penalized to -6 ties a raw -6) and
    /// both zeros, which a failed raw 10 also ties.
    fn grid_score(rng: &mut StdRng) -> f64 {
        match rng.gen_range(0..10) {
            0 => -0.0,
            1 => 0.0,
            2 => 10.0,
            _ => rng.gen_range(-24i64..=24) as f64 / 2.0,
        }
    }

    /// A random candidate list: `(score, executes)` per candidate.
    fn random_list(rng: &mut StdRng) -> Vec<(f64, bool)> {
        let n = rng.gen_range(0..8usize);
        let p = [0.0, 0.3, 0.7, 1.0][rng.gen_range(0..4usize)];
        (0..n).map(|_| (grid_score(rng), rng.gen_bool(p))).collect()
    }

    /// The eager ValueNet beam: execute every candidate, keep the first
    /// executable one with the strictly highest score.
    fn eager_first_best(list: &[(f64, bool)]) -> Option<(f64, usize)> {
        let mut best: Option<(f64, usize)> = None;
        for (i, &(score, ok)) in list.iter().enumerate() {
            if !ok {
                continue;
            }
            if best.is_none_or(|(b, _)| score > b) {
                best = Some((score, i));
            }
        }
        best
    }

    /// The eager SmBoP rule: score every candidate after executing it,
    /// take `max_by`'s last maximum.
    fn eager_last_best(scores: &[(f64, f64)], ok: &[bool]) -> Option<usize> {
        scores
            .iter()
            .zip(ok)
            .enumerate()
            .map(|(i, (&(raw, penalized), &ok))| (if ok { raw } else { penalized }, i))
            .max_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(_, i)| i)
    }

    #[test]
    fn first_best_executable_matches_the_eager_beam() {
        let mut rng = StdRng::seed_from_u64(0xBEA4);
        for _ in 0..LISTS {
            let mut list = random_list(&mut rng);
            if rng.gen_bool(0.1) && !list.is_empty() {
                let i = rng.gen_range(0..list.len());
                list[i].0 = f64::NAN;
            }
            let mut executed = Vec::new();
            let lazy =
                first_best_executable(list.iter().enumerate().map(|(i, &(s, _))| (s, i)), |&i| {
                    executed.push(i);
                    list[i].1
                });
            let eager = eager_first_best(&list);
            assert_eq!(lazy, eager.map(|(_, i)| i), "{list:?}");
            // Executed at most once each, and never once beaten on score.
            assert!(executed.windows(2).all(|w| w[0] < w[1]), "{executed:?}");
            for &i in &executed {
                let best_before = eager_first_best(&list[..i]);
                assert!(
                    best_before.is_none_or(|(b, _)| list[i].0 > b),
                    "{list:?}: ran {i}"
                );
            }
        }
    }

    #[test]
    fn last_best_executed_matches_max_by_over_executed_scores() {
        let mut rng = StdRng::seed_from_u64(0x5B0B);
        let mut skipped = 0usize;
        for _ in 0..LISTS {
            let list = random_list(&mut rng);
            // Penalized by 10, half the time the way SmBoP does it,
            // (similarity - 10) + features, which turns -0.0 into 0.0.
            let scores: Vec<(f64, f64)> = list
                .iter()
                .map(|&(raw, _)| {
                    if rng.gen_bool(0.5) {
                        return (raw, raw - 10.0);
                    }
                    let features = grid_score(&mut rng) / 4.0;
                    let similarity = raw - features;
                    (similarity + features, (similarity - 10.0) + features)
                })
                .collect();
            let ok: Vec<bool> = list.iter().map(|&(_, ok)| ok).collect();
            let mut runs = vec![0usize; list.len()];
            let lazy = last_best_executed(&scores, |i| {
                runs[i] += 1;
                ok[i]
            });
            assert_eq!(lazy, eager_last_best(&scores, &ok), "{scores:?} {ok:?}");
            assert!(runs.iter().all(|&r| r <= 1), "{runs:?}");
            skipped += runs.iter().filter(|&&r| r == 0).count();
        }
        assert!(
            skipped > 0,
            "lists this varied must let some candidates go unexecuted"
        );
    }

    #[test]
    fn last_best_executed_breaks_ties_by_the_last_index() {
        let tied = [(1.0, -9.0), (2.0, -8.0), (2.0, -8.0), (0.0, -10.0)];
        assert_eq!(last_best_executed(&tied, |_| true), Some(2));
        assert_eq!(last_best_executed(&tied, |i| i != 2), Some(1));
        // Nothing executes: the highest penalized score, last on ties.
        assert_eq!(last_best_executed(&tied, |_| false), Some(2));
        // A failed 12 (penalized 2) ties an executed 2 and, coming later,
        // wins.
        let crossing = [(2.0, -8.0), (12.0, 2.0)];
        assert_eq!(last_best_executed(&crossing, |i| i == 0), Some(1));
        let zeros = [(0.0, -10.0), (-0.0, -10.0)];
        assert_eq!(last_best_executed(&zeros, |_| true), Some(1));
        // A failed 10 scores 0.0; the -0.0 after it ties it and wins, even
        // though a 0.0 before it also ties.
        let zeros = [(0.0, -10.0), (10.0, 0.0), (-0.0, -10.0)];
        assert_eq!(last_best_executed(&zeros, |i| i != 1), Some(2));
        assert_eq!(last_best_executed(&[], |_| true), None);
    }

    #[test]
    fn last_best_executed_stops_at_the_first_executed_top_candidate() {
        let scores = [(0.5, -9.5), (3.0, -7.0), (1.0, -9.0), (2.5, -7.5)];
        let mut runs = Vec::new();
        let best = last_best_executed(&scores, |i| {
            runs.push(i);
            true
        });
        assert_eq!(best, Some(1));
        assert_eq!(runs, vec![1]);
    }
}
