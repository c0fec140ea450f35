//! The string-building `embed` and the point-at-a-time Weiszfeld median
//! that the kernels in `lib.rs` and `discriminate.rs` replace, kept as
//! bit-identity references for their tests.

use crate::{Embedding, DIM};
use std::cell::Cell;

thread_local! {
    /// Weiszfeld steps on this thread that met a point at distance
    /// `< 1e-9`: `[stopped there, went on without that point]`.
    pub static COINCIDENT_STEPS: Cell<[usize; 2]> = const { Cell::new([0; 2]) };
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn add_feature(v: &mut [f32; DIM], feature: &str, weight: f32) {
    let h = fnv1a(feature.as_bytes());
    let idx = (h % DIM as u64) as usize;
    let sign = if (h >> 32) & 1 == 0 { 1.0 } else { -1.0 };
    v[idx] += sign * weight;
}

pub fn tokenize(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for ch in text.chars() {
        if ch.is_alphanumeric() {
            cur.extend(ch.to_lowercase());
        } else if !cur.is_empty() {
            out.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

pub fn embed(text: &str) -> Embedding {
    let tokens = tokenize(text);
    let mut v = [0.0f32; DIM];
    for t in &tokens {
        add_feature(&mut v, &format!("w:{t}"), 1.0);
    }
    for pair in tokens.windows(2) {
        add_feature(&mut v, &format!("b:{} {}", pair[0], pair[1]), 0.7);
    }
    let joined = tokens.join(" ");
    let chars: Vec<char> = joined.chars().collect();
    for tri in chars.windows(3) {
        let g: String = tri.iter().collect();
        add_feature(&mut v, &format!("c:{g}"), 0.3);
    }
    let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 0.0 {
        for x in &mut v {
            *x /= norm;
        }
    }
    Embedding(v)
}

pub fn geometric_median(points: &[Embedding]) -> Embedding {
    if points.is_empty() {
        return Embedding::zero();
    }
    let mut m = [0.0f32; DIM];
    for p in points {
        for (mi, pi) in m.iter_mut().zip(p.0.iter()) {
            *mi += *pi;
        }
    }
    for x in &mut m {
        *x /= points.len() as f32;
    }
    for _ in 0..16 {
        let mut num = [0.0f32; DIM];
        let mut denom = 0.0f32;
        let mut coincident = false;
        for p in points {
            let mut d2 = 0.0f32;
            for (pi, mi) in p.0.iter().zip(m.iter()) {
                let diff = pi - mi;
                d2 += diff * diff;
            }
            let d = d2.sqrt();
            if d < 1e-9 {
                coincident = true;
                continue;
            }
            let w = 1.0 / d;
            for (ni, pi) in num.iter_mut().zip(p.0.iter()) {
                *ni += w * pi;
            }
            denom += w;
        }
        let stop = denom == 0.0 || coincident && denom < 1e-9;
        if coincident {
            COINCIDENT_STEPS.with(|c| {
                let mut n = c.get();
                n[usize::from(!stop)] += 1;
                c.set(n);
            });
        }
        if stop {
            break;
        }
        for i in 0..DIM {
            m[i] = num[i] / denom;
        }
    }
    Embedding(m)
}

pub fn select_top_k(candidates: &[String], k: usize) -> Vec<&String> {
    if candidates.is_empty() || k == 0 {
        return Vec::new();
    }
    let embeddings: Vec<Embedding> = candidates.iter().map(|c| embed(c)).collect();
    let mut remaining: Vec<usize> = (0..candidates.len()).collect();
    let mut picked = Vec::new();
    for _ in 0..k.min(candidates.len()) {
        let pts: Vec<Embedding> = remaining.iter().map(|&i| embeddings[i].clone()).collect();
        let median = geometric_median(&pts);
        let best_pos = remaining
            .iter()
            .enumerate()
            .max_by(|(_, &a), (_, &b)| {
                embeddings[a]
                    .cosine(&median)
                    .partial_cmp(&embeddings[b].cosine(&median))
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| b.cmp(&a))
            })
            .map(|(pos, _)| pos)
            .expect("remaining is non-empty");
        picked.push(remaining.remove(best_pos));
    }
    picked.into_iter().map(|i| &candidates[i]).collect()
}
