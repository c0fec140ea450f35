//! Phase 4: the discriminative (candidate-selection) phase.
//!
//! Given the candidate NL questions generated for one SQL query, select the
//! `k ∈ {1, 2}` candidates whose embeddings are closest to the *geometric
//! median* of all candidates (Equation 1 of the paper, after the
//! centroid-based summarization method of Rossiello et al.).

use crate::{embed, Embedding, DIM};
use std::borrow::Borrow;

/// The discriminative-phase selector.
#[derive(Debug, Clone)]
pub struct Discriminator {
    /// How many candidates to keep (the paper uses 1 or 2).
    pub k: usize,
}

impl Default for Discriminator {
    fn default() -> Self {
        Discriminator { k: 2 }
    }
}

impl Discriminator {
    /// Create a selector keeping `k` candidates.
    pub fn new(k: usize) -> Self {
        Discriminator { k }
    }

    /// Select the best candidates, returned in selection order (best
    /// first). Ties break toward the earlier candidate for determinism.
    pub fn select<'a>(&self, candidates: &'a [String]) -> Vec<&'a String> {
        select_top_k(candidates, self.k)
    }
}

/// Points per lane group of the Weiszfeld distance pass.
const LANES: usize = 8;

/// Geometric median of a set of embeddings via Weiszfeld's algorithm
/// (a handful of iterations is plenty at this dimensionality and set
/// size).
///
/// Each point's squared distance to the current estimate is its own
/// float chain, summed in dimension order; the chains of up to [`LANES`]
/// points run side by side over a transposed copy of the points, so no
/// reduction ever runs across dimensions. The weighted sum then
/// accumulates in point order.
pub fn geometric_median<P: Borrow<Embedding>>(points: &[P]) -> Embedding {
    if points.is_empty() {
        return Embedding::zero();
    }
    // Initialize at the centroid.
    let mut m = [0.0f32; DIM];
    for p in points {
        for (mi, pi) in m.iter_mut().zip(p.borrow().0.iter()) {
            *mi += *pi;
        }
    }
    for x in &mut m {
        *x /= points.len() as f32;
    }
    // `groups[g][i][l]` is dimension `i` of point `g * LANES + l`; lanes
    // past the last point stay zero and their distances go unread.
    let mut groups = vec![[[0.0f32; LANES]; DIM]; points.len().div_ceil(LANES)];
    for (j, p) in points.iter().enumerate() {
        for (row, x) in groups[j / LANES].iter_mut().zip(p.borrow().0.iter()) {
            row[j % LANES] = *x;
        }
    }
    let mut dist = vec![0.0f32; groups.len() * LANES];
    for _ in 0..16 {
        for (group, out) in groups.iter().zip(dist.chunks_exact_mut(LANES)) {
            let mut d2 = [0.0f32; LANES];
            for (row, mi) in group.iter().zip(m.iter()) {
                for (acc, pi) in d2.iter_mut().zip(row) {
                    let diff = pi - mi;
                    *acc += diff * diff;
                }
            }
            for (d, acc) in out.iter_mut().zip(d2) {
                *d = acc.sqrt();
            }
        }
        let mut num = [0.0f32; DIM];
        let mut denom = 0.0f32;
        let mut coincident = false;
        for (p, &d) in points.iter().zip(&dist) {
            if d < 1e-9 {
                coincident = true;
                continue;
            }
            let w = 1.0 / d;
            for (ni, pi) in num.iter_mut().zip(p.borrow().0.iter()) {
                *ni += w * pi;
            }
            denom += w;
        }
        if denom == 0.0 || coincident && denom < 1e-9 {
            break;
        }
        for i in 0..DIM {
            m[i] = num[i] / denom;
        }
    }
    Embedding(m)
}

/// Equation 1: keep the `k` candidates whose embeddings have the highest
/// cosine similarity to the geometric median of all candidate embeddings.
/// The selection is iterative — after taking the best candidate, the next
/// is chosen from the remainder — matching the paper's
/// "perform this process k times on X \ {y}" description.
pub fn select_top_k(candidates: &[String], k: usize) -> Vec<&String> {
    if candidates.is_empty() || k == 0 {
        return Vec::new();
    }
    let embeddings: Vec<Embedding> = candidates.iter().map(|c| embed(c)).collect();
    let mut remaining: Vec<usize> = (0..candidates.len()).collect();
    let mut picked = Vec::new();
    for _ in 0..k.min(candidates.len()) {
        let pts: Vec<&Embedding> = remaining.iter().map(|&i| &embeddings[i]).collect();
        let median = geometric_median(&pts);
        let median_norm = median.sq_norm();
        let scores: Vec<f32> = pts
            .iter()
            .map(|e| median.cosine_with_sq_norm(median_norm, e))
            .collect();
        // `remaining` is ascending, so position order is candidate order.
        let best_pos = (0..remaining.len())
            .max_by(|&a, &b| {
                scores[a]
                    .partial_cmp(&scores[b])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    // Stable tie-break: prefer the earlier candidate.
                    .then_with(|| b.cmp(&a))
            })
            .expect("remaining is non-empty");
        picked.push(remaining.remove(best_pos));
    }
    picked.into_iter().map(|i| &candidates[i]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::oracle;
    use crate::tests::assert_same_bits;

    /// Point sets of 0..=12 points cut from the embedding corpus, with
    /// duplicates, zero vectors and majorities of one point.
    fn point_sets() -> Vec<Vec<Embedding>> {
        let pool: Vec<Embedding> = crate::tests::corpus()
            .iter()
            .skip(200)
            .take(300)
            .map(|t| embed(t))
            .collect();
        let a = embed("find all starburst galaxies");
        let b = embed("list the projects of the EU");
        let mut sets: Vec<Vec<Embedding>> = (0..=12)
            .flat_map(|n| (0..20).map(move |s| (n, s)))
            .map(|(n, s)| {
                (0..n)
                    .map(|j| pool[(s * 13 + j * 7) % pool.len()].clone())
                    .collect()
            })
            .collect();
        sets.push(vec![a.clone(), a.clone()]);
        sets.push(vec![Embedding::zero(); 3]);
        sets.push(vec![Embedding::zero(), a.clone(), Embedding::zero()]);
        sets.push(vec![a.clone(), a.clone(), b.clone()]);
        for n in 2..=11 {
            let mut set = vec![a.clone(); n];
            set.push(b.clone());
            sets.push(set);
        }
        sets
    }

    #[test]
    fn geometric_median_matches_the_point_at_a_time_oracle_bit_for_bit() {
        let sets = point_sets();
        oracle::COINCIDENT_STEPS.with(|c| c.set([0; 2]));
        for (s, set) in sets.iter().enumerate() {
            let got = geometric_median(set);
            assert_same_bits(&got, &oracle::geometric_median(set), &format!("set {s}"));
            let refs: Vec<&Embedding> = set.iter().collect();
            assert_same_bits(&geometric_median(&refs), &got, &format!("borrowed set {s}"));
        }
        // Both outcomes of the `d < 1e-9` branch must be covered.
        let [stopped, went_on] = oracle::COINCIDENT_STEPS.with(|c| c.get());
        assert!(stopped > 0 && went_on > 0, "{stopped} {went_on}");
    }

    #[test]
    fn select_top_k_matches_the_oracle_picks() {
        let corpus = crate::tests::corpus();
        let mut sets: Vec<Vec<String>> = (1..=12)
            .flat_map(|n| (0..15).map(move |s| (n, s)))
            .map(|(n, s)| {
                (0..n)
                    .map(|j| corpus[200 + (s * 17 + j * 5) % 400].clone())
                    .collect()
            })
            .collect();
        // Duplicates tie on cosine and exercise the earlier-candidate rule.
        sets.push(vec!["alpha beta".into(); 4]);
        sets.push(vec!["b".into(), "a a".into(), "b".into(), "a a".into()]);
        sets.push(vec!["".into(), "".into(), "x y".into()]);
        for set in &sets {
            // Positions by address, so equal duplicates stay apart.
            let positions = |picks: Vec<&String>| -> Vec<usize> {
                let at = |c: &String| set.iter().position(|s| std::ptr::eq(s, c)).unwrap();
                picks.into_iter().map(at).collect()
            };
            for k in 1..=3 {
                assert_eq!(
                    positions(select_top_k(set, k)),
                    positions(oracle::select_top_k(set, k)),
                    "k = {k} over {set:?}"
                );
            }
        }
    }

    #[test]
    fn selects_the_consensus_candidate() {
        // Four near-paraphrases and one outlier: the consensus phrasing
        // must win, the outlier must lose.
        let candidates = vec![
            "find the center object with neighbor mode 2".to_string(),
            "find the center objects which have neighbor mode 2".to_string(),
            "show the center object with neighbor mode 2".to_string(),
            "find center objects whose neighbor mode is 2".to_string(),
            "what is the weather in zurich today".to_string(),
        ];
        let top = select_top_k(&candidates, 2);
        assert_eq!(top.len(), 2);
        assert!(
            !top.contains(&&candidates[4]),
            "outlier must not be selected"
        );
    }

    #[test]
    fn k_larger_than_set_is_clamped() {
        let candidates = vec!["only one".to_string()];
        let top = select_top_k(&candidates, 2);
        assert_eq!(top, vec![&candidates[0]]);
    }

    #[test]
    fn empty_input() {
        assert!(select_top_k(&[], 2).is_empty());
        let c = vec!["a".to_string()];
        assert!(select_top_k(&c, 0).is_empty());
    }

    #[test]
    fn selection_is_deterministic() {
        let candidates: Vec<String> = (0..6)
            .map(|i| format!("list all galaxies with redshift over {i}"))
            .collect();
        let a: Vec<String> = select_top_k(&candidates, 2).into_iter().cloned().collect();
        let b: Vec<String> = select_top_k(&candidates, 2).into_iter().cloned().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn geometric_median_of_identical_points() {
        let p = embed("same");
        let m = geometric_median(&[p.clone(), p.clone(), p.clone()]);
        assert!(m.cosine(&p) > 0.999);
    }

    #[test]
    fn discriminator_defaults_to_two() {
        let d = Discriminator::default();
        assert_eq!(d.k, 2);
        let candidates = vec![
            "alpha beta gamma".to_string(),
            "alpha beta gamma".to_string(),
            "delta epsilon".to_string(),
        ];
        assert_eq!(d.select(&candidates).len(), 2);
    }
}
