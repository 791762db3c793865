//! Skill keywords and skill vectors.
//!
//! The paper fixes a set of skill keywords `S = {s1, …, sm}` and gives every
//! task a Boolean requirement vector `S_t = ⟨t(s1), …, t(sm)⟩` and every
//! worker a Boolean interest vector `S_w`. "Skill keywords may be
//! interpreted as expected workers' interests or qualifications" (§3.2).
//!
//! Keywords are dense [`SkillId`]s; [`SkillVector`] is a bitset over them
//! with the set algebra and similarity kernels (cosine, Jaccard, Dice,
//! Hamming) that Axioms 1–2 need.

use crate::ids::SkillId;
use serde::{Deserialize, Serialize};
use std::fmt;

const WORD_BITS: usize = 64;

/// A Boolean vector over the skill universe (`S_t` / `S_w` in the paper),
/// stored as a bitset.
#[derive(Debug, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct SkillVector {
    len: usize,
    words: Vec<u64>,
}

impl Clone for SkillVector {
    fn clone(&self) -> Self {
        SkillVector {
            len: self.len,
            words: self.words.clone(),
        }
    }

    /// Reuses `self`'s buffer, so a view refreshed every round does not
    /// allocate.
    fn clone_from(&mut self, source: &Self) {
        self.len = source.len;
        self.words.clone_from(&source.words);
    }
}

impl SkillVector {
    /// All-false vector of the given length.
    pub fn with_len(len: usize) -> Self {
        SkillVector {
            len,
            words: vec![0; len.div_ceil(WORD_BITS)],
        }
    }

    /// Build from an iterator of Booleans.
    pub fn from_bools<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let bits: Vec<bool> = bits.into_iter().collect();
        let mut v = Self::with_len(bits.len());
        for (i, b) in bits.iter().enumerate() {
            v.set(SkillId::new(i as u32), *b);
        }
        v
    }

    /// Number of dimensions `m`.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Read one bit; out-of-range ids are reported as `false`.
    pub(crate) fn get(&self, id: SkillId) -> bool {
        let i = id.index();
        if i >= self.len {
            return false;
        }
        (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Write one bit. Panics if out of range (a task/worker must be built
    /// against the right universe).
    pub fn set(&mut self, id: SkillId, value: bool) {
        let i = id.index();
        assert!(
            i < self.len,
            "skill index {i} out of range (len {})",
            self.len
        );
        let mask = 1u64 << (i % WORD_BITS);
        if value {
            self.words[i / WORD_BITS] |= mask;
        } else {
            self.words[i / WORD_BITS] &= !mask;
        }
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Size of the intersection with another vector.
    pub fn intersection_count(&self, other: &SkillVector) -> usize {
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Size of the union with another vector.
    pub fn union_count(&self, other: &SkillVector) -> usize {
        let shared: usize = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a | b).count_ones() as usize)
            .sum();
        // Bits beyond the zip range (vectors of different lengths).
        let extra_self: usize = self
            .words
            .iter()
            .skip(other.words.len())
            .map(|w| w.count_ones() as usize)
            .sum();
        let extra_other: usize = other
            .words
            .iter()
            .skip(self.words.len())
            .map(|w| w.count_ones() as usize)
            .sum();
        shared + extra_self + extra_other
    }

    /// `self ⊇ other`: does this vector cover every requirement in `other`?
    /// This is the paper's qualification test — a worker qualifies for a
    /// task when her skill vector covers the task's requirement vector.
    pub fn covers(&self, other: &SkillVector) -> bool {
        for (i, &ow) in other.words.iter().enumerate() {
            let sw = self.words.get(i).copied().unwrap_or(0);
            if ow & !sw != 0 {
                return false;
            }
        }
        true
    }

    /// Cosine similarity between Boolean vectors:
    /// `|A ∩ B| / sqrt(|A| · |B|)`; 1.0 when both are empty (identical).
    pub fn cosine(&self, other: &SkillVector) -> f64 {
        let a = self.count();
        let b = other.count();
        if a == 0 && b == 0 {
            return 1.0;
        }
        if a == 0 || b == 0 {
            return 0.0;
        }
        self.intersection_count(other) as f64 / ((a as f64) * (b as f64)).sqrt()
    }

    /// Jaccard similarity `|A ∩ B| / |A ∪ B|`; 1.0 when both empty.
    pub fn jaccard(&self, other: &SkillVector) -> f64 {
        let u = self.union_count(other);
        if u == 0 {
            return 1.0;
        }
        self.intersection_count(other) as f64 / u as f64
    }

    /// Dice coefficient `2|A ∩ B| / (|A| + |B|)`; 1.0 when both empty.
    pub fn dice(&self, other: &SkillVector) -> f64 {
        let denom = self.count() + other.count();
        if denom == 0 {
            return 1.0;
        }
        2.0 * self.intersection_count(other) as f64 / denom as f64
    }
}

impl fmt::Display for SkillVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for i in 0..self.len {
            let bit = self.get(SkillId::new(i as u32));
            write!(f, "{}", u8::from(bit))?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(bits: &[u8]) -> SkillVector {
        SkillVector::from_bools(bits.iter().map(|&b| b == 1))
    }

    #[test]
    fn bit_ops_across_word_boundary() {
        let mut sv = SkillVector::with_len(130);
        sv.set(SkillId::new(0), true);
        sv.set(SkillId::new(64), true);
        sv.set(SkillId::new(129), true);
        assert_eq!(sv.count(), 3);
        assert!(sv.get(SkillId::new(129)));
        assert!(!sv.get(SkillId::new(128)));
        sv.set(SkillId::new(64), false);
        assert_eq!(sv.count(), 2);
        // out-of-range get is false, not a panic
        assert!(!sv.get(SkillId::new(1000)));
    }

    #[test]
    fn covers_is_qualification() {
        let worker = v(&[1, 1, 0, 1]);
        let task = v(&[1, 0, 0, 1]);
        assert!(worker.covers(&task));
        assert!(!task.covers(&worker));
        // empty requirement: everyone qualifies
        assert!(worker.covers(&v(&[0, 0, 0, 0])));
    }

    #[test]
    fn cosine_known_values() {
        let a = v(&[1, 1, 0, 0]);
        let b = v(&[1, 0, 1, 0]);
        // |A∩B| = 1, sqrt(2*2) = 2
        assert!((a.cosine(&b) - 0.5).abs() < 1e-12);
        assert!((a.cosine(&a) - 1.0).abs() < 1e-12);
        assert_eq!(a.cosine(&v(&[0, 0, 0, 0])), 0.0);
        assert_eq!(v(&[0, 0]).cosine(&v(&[0, 0])), 1.0);
    }

    #[test]
    fn jaccard_and_dice() {
        let a = v(&[1, 1, 0, 0]);
        let b = v(&[1, 0, 1, 0]);
        assert!((a.jaccard(&b) - 1.0 / 3.0).abs() < 1e-12);
        assert!((a.dice(&b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn similarity_bounds_and_symmetry() {
        // small exhaustive sweep over 4-bit vectors
        for x in 0u8..16 {
            for y in 0u8..16 {
                let a = v(&[(x & 1), (x >> 1) & 1, (x >> 2) & 1, (x >> 3) & 1]);
                let b = v(&[(y & 1), (y >> 1) & 1, (y >> 2) & 1, (y >> 3) & 1]);
                for (sa, sb) in [
                    (a.cosine(&b), b.cosine(&a)),
                    (a.jaccard(&b), b.jaccard(&a)),
                    (a.dice(&b), b.dice(&a)),
                ] {
                    assert!((0.0..=1.0).contains(&sa), "similarity out of bounds");
                    assert!((sa - sb).abs() < 1e-12, "similarity not symmetric");
                }
            }
        }
    }

    #[test]
    fn union_with_unequal_lengths() {
        let a = v(&[1, 0, 1]);
        let mut b = SkillVector::with_len(130);
        b.set(SkillId::new(0), true);
        b.set(SkillId::new(128), true);
        assert_eq!(a.union_count(&b), 3);
        assert_eq!(a.intersection_count(&b), 1);
    }

    #[test]
    fn display_compact() {
        assert_eq!(v(&[1, 0, 1]).to_string(), "[101]");
    }
}
