//! Character n-gram text similarity.
//!
//! Axiom 3 suggests "for textual contributions, n-grams could be used",
//! citing Damashek's *Gauging similarity with n-grams* (Science, 1995).
//! Damashek's method builds a frequency profile of overlapping character
//! n-grams and compares profiles with the cosine measure — it is language-
//! independent and robust to small edits, which is exactly what comparing
//! two workers' free-text contributions needs.

use std::collections::HashMap;

/// A frequency profile of character n-grams.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct NgramProfile {
    n: usize,
    counts: HashMap<Vec<u8>, u32>,
    total: u64,
}

impl NgramProfile {
    /// Build the profile of overlapping byte n-grams of `text`.
    ///
    /// The text is case-folded and whitespace runs are collapsed to single
    /// spaces first (Damashek's normalisation), so formatting differences
    /// do not masquerade as content differences. Texts shorter than `n`
    /// produce an empty profile.
    pub(crate) fn build(text: &str, n: usize) -> Self {
        assert!(n > 0, "n-gram size must be positive");
        let norm = normalize(text);
        let bytes = norm.as_bytes();
        let mut counts: HashMap<Vec<u8>, u32> = HashMap::new();
        let mut total = 0u64;
        if bytes.len() >= n {
            for w in bytes.windows(n) {
                *counts.entry(w.to_vec()).or_insert(0) += 1;
                total += 1;
            }
        }
        NgramProfile { n, counts, total }
    }

    /// Cosine similarity between two profiles in `[0, 1]`.
    ///
    /// Both-empty profiles are identical (1.0); one-empty pairs are
    /// dissimilar (0.0). Profiles built with different `n` are
    /// incomparable and return 0.0.
    pub(crate) fn cosine(&self, other: &NgramProfile) -> f64 {
        if self.n != other.n {
            return 0.0;
        }
        if self.total == 0 && other.total == 0 {
            return 1.0;
        }
        if self.total == 0 || other.total == 0 {
            return 0.0;
        }
        // Iterate the smaller map for the dot product.
        let (small, large) = if self.counts.len() <= other.counts.len() {
            (&self.counts, &other.counts)
        } else {
            (&other.counts, &self.counts)
        };
        let mut dot = 0f64;
        for (g, &c) in small {
            if let Some(&d) = large.get(g) {
                dot += c as f64 * d as f64;
            }
        }
        let na = self.norm();
        let nb = other.norm();
        (dot / (na * nb)).clamp(0.0, 1.0)
    }

    fn norm(&self) -> f64 {
        self.counts
            .values()
            .map(|&c| (c as f64) * (c as f64))
            .sum::<f64>()
            .sqrt()
    }
}

/// Case-fold and collapse whitespace.
fn normalize(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut last_space = true; // also trims leading whitespace
    for ch in text.chars() {
        if ch.is_whitespace() {
            if !last_space {
                out.push(' ');
                last_space = true;
            }
        } else {
            for lc in ch.to_lowercase() {
                out.push(lc);
            }
            last_space = false;
        }
    }
    while out.ends_with(' ') {
        out.pop();
    }
    out
}

/// One-shot n-gram cosine similarity between two texts.
pub fn ngram_cosine(a: &str, b: &str, n: usize) -> f64 {
    NgramProfile::build(a, n).cosine(&NgramProfile::build(b, n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_texts_score_one() {
        assert!((ngram_cosine("hello world", "hello world", 3) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalisation_ignores_case_and_whitespace() {
        let s = ngram_cosine("Hello   World", "hello world", 3);
        assert!((s - 1.0).abs() < 1e-12);
        let t = ngram_cosine("  hello world  ", "hello world", 3);
        assert!((t - 1.0).abs() < 1e-12);
    }

    #[test]
    fn small_edits_stay_similar() {
        let s = ngram_cosine(
            "the committee approved the annual budget proposal",
            "the committee approved the annual budget proposals",
            3,
        );
        assert!(s > 0.9, "one-char edit should barely move cosine: {s}");
    }

    #[test]
    fn unrelated_texts_score_low() {
        let s = ngram_cosine(
            "crowdsourcing fairness axioms",
            "zzz qqq xxyy vvv www kkk",
            3,
        );
        assert!(s < 0.2, "unrelated texts: {s}");
    }

    #[test]
    fn empty_edge_cases() {
        assert_eq!(ngram_cosine("", "", 3), 1.0);
        assert_eq!(ngram_cosine("abcdef", "", 3), 0.0);
        assert_eq!(ngram_cosine("ab", "ab", 3), 1.0); // both shorter than n -> both empty
        assert_eq!(ngram_cosine("ab", "abcdef", 3), 0.0);
    }

    #[test]
    fn mismatched_n_is_incomparable() {
        let a = NgramProfile::build("hello", 2);
        let b = NgramProfile::build("hello", 3);
        assert_eq!(a.cosine(&b), 0.0);
    }

    #[test]
    fn symmetry_and_bounds() {
        let texts = [
            "the quick brown fox",
            "the quick brown foxes",
            "pack my box with five dozen liquor jugs",
            "",
        ];
        for a in &texts {
            for b in &texts {
                let sab = ngram_cosine(a, b, 3);
                let sba = ngram_cosine(b, a, 3);
                assert!((sab - sba).abs() < 1e-12);
                assert!((0.0..=1.0).contains(&sab));
            }
        }
    }

    #[test]
    fn unicode_case_folding() {
        let s = ngram_cosine("ÉCOLE PRIMAIRE", "école primaire", 3);
        assert!((s - 1.0).abs() < 1e-12);
    }
}
