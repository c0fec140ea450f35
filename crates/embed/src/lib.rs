//! # sb-embed — sentence embeddings and the discriminative phase
//!
//! The paper uses SentenceBERT embeddings twice: as an automatic metric
//! (Table 3's "SentenceBERT" row) and inside the discriminative phase
//! (Phase 4), which keeps the candidate NL questions closest to the
//! geometric median of all candidates (Equation 1).
//!
//! This crate substitutes a deterministic, dependency-free embedding: each
//! sentence is mapped to a 256-dimensional vector by signed feature hashing
//! of its lower-cased word unigrams, word bigrams, and character trigrams,
//! then L2-normalized. Paraphrases share most n-grams and land close in
//! cosine space, which is the only property the pipeline relies on.

pub mod discriminate;
#[cfg(test)]
mod oracle;

pub use discriminate::{select_top_k, Discriminator};

/// Embedding dimensionality.
pub const DIM: usize = 256;

/// A dense sentence embedding.
#[derive(Debug, Clone, PartialEq)]
pub struct Embedding(pub [f32; DIM]);

impl Embedding {
    /// The zero vector (embedding of an empty sentence).
    pub fn zero() -> Self {
        Embedding([0.0; DIM])
    }

    /// Squared L2 norm, summed lane by lane in order.
    pub fn sq_norm(&self) -> f32 {
        let mut n = 0.0f32;
        for x in &self.0 {
            n += x * x;
        }
        n
    }

    /// Cosine similarity in `[-1, 1]`; 0 when either vector is zero.
    pub fn cosine(&self, other: &Embedding) -> f32 {
        self.cosine_with_sq_norm(self.sq_norm(), other)
    }

    /// [`Embedding::cosine`] given this side's [`Embedding::sq_norm`], for
    /// comparing one embedding against many: the norm is summed once, and
    /// the result is bit-identical to `cosine` either way round.
    pub fn cosine_with_sq_norm(&self, sq_norm: f32, other: &Embedding) -> f32 {
        let mut dot = 0.0f32;
        let mut nb = 0.0f32;
        for i in 0..DIM {
            dot += self.0[i] * other.0[i];
            nb += other.0[i] * other.0[i];
        }
        if sq_norm == 0.0 || nb == 0.0 {
            0.0
        } else {
            // Clamp away float rounding that can push a self-similarity
            // infinitesimally past 1.
            (dot / (sq_norm.sqrt() * nb.sqrt())).clamp(-1.0, 1.0)
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// FNV-1a 64-bit hash continued from state `h` over `bytes` — stable
/// across platforms and runs, which keeps the whole benchmark build
/// deterministic. FNV-1a reads bytes in sequence, so the hash of
/// `prefix ++ rest` is the prefix's state continued over `rest`: a
/// feature string never has to be built to be hashed.
const fn fnv1a_from(mut h: u64, bytes: &[u8]) -> u64 {
    let mut i = 0;
    while i < bytes.len() {
        h ^= bytes[i] as u64;
        h = h.wrapping_mul(FNV_PRIME);
        i += 1;
    }
    h
}

/// Hash states after the feature prefixes `w:` (word), `b:` (bigram)
/// and `c:` (character trigram).
const WORD: u64 = fnv1a_from(FNV_OFFSET, b"w:");
const BIGRAM: u64 = fnv1a_from(FNV_OFFSET, b"b:");
const TRIGRAM: u64 = fnv1a_from(FNV_OFFSET, b"c:");

fn add_feature(v: &mut [f32; DIM], h: u64, weight: f32) {
    let idx = (h % DIM as u64) as usize;
    // The next bit decides the sign: signed hashing keeps the expectation
    // of collisions at zero.
    let sign = if (h >> 32) & 1 == 0 { 1.0 } else { -1.0 };
    v[idx] += sign * weight;
}

/// The one token rule: lower-cased alphanumeric runs, appended to `out`
/// joined by single spaces. Lower-casing never yields a space, so
/// `out.split(' ')` gives the tokens back.
fn lower_tokens(text: &str, out: &mut String) {
    let mut in_token = false;
    for ch in text.chars() {
        if ch.is_alphanumeric() {
            if !in_token && !out.is_empty() {
                out.push(' ');
            }
            in_token = true;
            if ch.is_ascii() {
                out.push(ch.to_ascii_lowercase());
            } else {
                out.extend(ch.to_lowercase());
            }
        } else {
            in_token = false;
        }
    }
}

/// The tokens of a [`lower_tokens`] buffer.
fn words(joined: &str) -> impl Iterator<Item = &str> + '_ {
    joined.split(' ').filter(|w| !w.is_empty())
}

/// Lower-case word tokens (alphanumeric runs).
pub fn tokenize(text: &str) -> Vec<String> {
    let mut joined = String::with_capacity(text.len());
    lower_tokens(text, &mut joined);
    words(&joined).map(str::to_string).collect()
}

/// Embed a sentence: signed-hash word unigrams (weight 1.0), word bigrams
/// (0.7) and character trigrams (0.3), then L2-normalize.
///
/// Features are added in that order — every unigram, then every bigram,
/// then every trigram — because a dimension's float sum depends on it.
pub fn embed(text: &str) -> Embedding {
    let mut joined = String::with_capacity(text.len());
    lower_tokens(text, &mut joined);
    let mut v = [0.0f32; DIM];
    for w in words(&joined) {
        add_feature(&mut v, fnv1a_from(WORD, w.as_bytes()), 1.0);
    }
    // `b:x y` is the state after `b:x ` continued over `y`.
    let mut after_prev: Option<u64> = None;
    for w in words(&joined) {
        if let Some(h) = after_prev {
            add_feature(&mut v, fnv1a_from(h, w.as_bytes()), 0.7);
        }
        after_prev = Some(fnv1a_from(fnv1a_from(BIGRAM, w.as_bytes()), b" "));
    }
    // Each trigram is the slice of `joined` between the start of one char
    // and the start (or end) three chars later.
    let bytes = joined.as_bytes();
    let mut bounds = joined
        .char_indices()
        .map(|(i, _)| i)
        .chain(std::iter::once(joined.len()));
    if let (Some(mut a), Some(mut b), Some(mut c)) = (bounds.next(), bounds.next(), bounds.next()) {
        for d in bounds {
            add_feature(&mut v, fnv1a_from(TRIGRAM, &bytes[a..d]), 0.3);
            (a, b, c) = (b, c, d);
        }
    }
    let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 0.0 {
        for x in &mut v {
            *x /= norm;
        }
    }
    Embedding(v)
}

/// Mean cosine similarity of aligned sentence pairs — the corpus-level
/// "SentenceBERT score" used in Table 3.
pub fn corpus_similarity(pairs: &[(String, String)]) -> f64 {
    if pairs.is_empty() {
        return 0.0;
    }
    let total: f64 = pairs
        .iter()
        .map(|(a, b)| embed(a).cosine(&embed(b)) as f64)
        .sum();
    total / pairs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic test corpus: every string of up to two chars over a
    /// small pool, then random concatenations of words, digits and
    /// punctuation runs, including chars whose lower case is several
    /// chars (`İ`), another char (`ẞ`, `ǅ`) or themselves (`ﬁ`).
    pub(crate) fn corpus() -> Vec<String> {
        const CHARS: [&str; 14] = [
            "a", "Z", "7", " ", "-", "İ", "ẞ", "ﬁ", "ǅ", "é", "Σ", "日", "'", "\t",
        ];
        let pieces: Vec<&str> =
            "Find galaxies İstanbul STRAẞE ﬁle ǅemal ǄǅǆX 42 0.5 z>0.5 ... !! -- \
             ΣΑΣ Éclair 日本語 a I ’s x RedShift ra/dec ( )"
                .split_whitespace()
                .collect();
        const SEPS: [&str; 6] = ["", " ", "  ", ", ", "\n", "?! "];
        let mut out = vec![String::new()];
        for a in CHARS {
            out.push(a.to_string());
            for b in CHARS {
                out.push(format!("{a}{b}"));
            }
        }
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        // Every fourth sentence is long, so that lanes collect many
        // features of mixed weights and their order shows in the bits.
        for i in 0..3000 {
            let mut s = String::new();
            for _ in 0..next(if i % 4 == 0 { 60 } else { 12 }) {
                s.push_str(pieces[next(pieces.len())]);
                s.push_str(SEPS[next(SEPS.len())]);
            }
            out.push(s);
        }
        out
    }

    pub(crate) fn assert_same_bits(got: &Embedding, want: &Embedding, what: &str) {
        for (i, (g, w)) in got.0.iter().zip(want.0.iter()).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "lane {i} of {what}");
        }
    }

    #[test]
    fn embed_matches_the_string_building_oracle_bit_for_bit() {
        for text in corpus() {
            assert_eq!(tokenize(&text), oracle::tokenize(&text), "{text:?}");
            assert_same_bits(&embed(&text), &oracle::embed(&text), &format!("{text:?}"));
        }
    }

    #[test]
    fn cosine_with_sq_norm_matches_the_three_sum_cosine_bit_for_bit() {
        let embeddings: Vec<Embedding> = corpus().iter().map(|t| embed(t)).collect();
        for (i, a) in embeddings.iter().enumerate().step_by(61) {
            let norm = a.sq_norm();
            for (j, b) in embeddings.iter().enumerate() {
                let want = oracle::cosine(a, b).to_bits();
                assert_eq!(a.cosine_with_sq_norm(norm, b).to_bits(), want, "{i} vs {j}");
                assert_eq!(a.cosine(b).to_bits(), want, "{i} vs {j}");
                // Either side may be the fixed one.
                assert_eq!(oracle::cosine(b, a).to_bits(), want, "{j} vs {i}");
            }
        }
    }

    #[test]
    fn tokenizer_lowercases_and_splits() {
        assert_eq!(
            tokenize("Find all Starburst-galaxies!"),
            vec!["find", "all", "starburst", "galaxies"]
        );
        assert!(tokenize("  ").is_empty());
    }

    #[test]
    fn identical_sentences_have_cosine_one() {
        let a = embed("find all starburst galaxies");
        let b = embed("find all starburst galaxies");
        assert!((a.cosine(&b) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn paraphrases_are_closer_than_unrelated() {
        let q = embed("Find all the starburst galaxies");
        let para = embed("Return every galaxy in the starburst class");
        let unrelated = embed("How many EU projects started in 2020?");
        assert!(q.cosine(&para) > q.cosine(&unrelated));
    }

    #[test]
    fn embeddings_are_normalized() {
        let e = embed("some sentence with several words");
        let norm: f32 = e.0.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-5);
    }

    #[test]
    fn empty_sentence_is_zero() {
        assert_eq!(embed(""), Embedding::zero());
        assert_eq!(embed("").cosine(&embed("hello")), 0.0);
    }

    #[test]
    fn determinism() {
        let a = embed("right ascension and declination");
        let b = embed("right ascension and declination");
        assert_eq!(a, b);
    }

    #[test]
    fn corpus_similarity_averages() {
        let pairs = vec![
            ("same text".to_string(), "same text".to_string()),
            ("".to_string(), "anything".to_string()),
        ];
        let s = corpus_similarity(&pairs);
        assert!((s - 0.5).abs() < 1e-6);
        assert_eq!(corpus_similarity(&[]), 0.0);
    }

    #[test]
    fn cosine_is_symmetric_and_bounded() {
        let texts = [
            "show the count of spectroscopic objects",
            "what is the redshift of galaxies",
            "list projects funded by the EU",
        ];
        for a in &texts {
            for b in &texts {
                let ea = embed(a);
                let eb = embed(b);
                let s1 = ea.cosine(&eb);
                let s2 = eb.cosine(&ea);
                assert!((s1 - s2).abs() < 1e-6);
                assert!((-1.0..=1.0).contains(&s1));
            }
        }
    }
}
