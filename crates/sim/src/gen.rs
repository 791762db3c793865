//! Contribution generation.
//!
//! Workers in the simulator produce contributions whose *objective quality*
//! is controlled by their archetype and motivation, so that Axiom-3 and
//! quality experiments have ground truth to compare against:
//!
//! * **labels** — drawn from a per-worker accuracy (confusion) model;
//! * **free text** — sampled from the task's reference word pool with
//!   noise words mixed in, so n-gram similarity to the reference tracks
//!   the intended quality;
//! * **rankings** — the reference permutation perturbed by random adjacent
//!   swaps (a Mallows-style noise model).

use faircrowd_model::contribution::Contribution;
use faircrowd_model::time::SimDuration;
use faircrowd_quality::spam::WorkerArchetype;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// Reference material the generator needs per task: what a perfect
/// contribution looks like.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Reference {
    /// True label.
    Label(u8, u8), // (true label, n classes)
    /// Reference text (the "ideal summary").
    Text(String),
    /// Reference ranking.
    Ranking(Vec<u16>),
    /// Survey: any good-faith answer is valid (label space of size k).
    Survey(u8),
}

/// Build a deterministic reference text for a task: a pool of topic words
/// keyed by the task index.
pub(crate) fn reference_text(task_index: u32) -> String {
    // A fixed vocabulary; each task draws a deterministic slice so
    // different tasks have different (but overlapping) references.
    const VOCAB: [&str; 24] = [
        "market",
        "worker",
        "task",
        "reward",
        "quality",
        "label",
        "image",
        "review",
        "summary",
        "fair",
        "payment",
        "platform",
        "requester",
        "skill",
        "survey",
        "answer",
        "crowd",
        "data",
        "report",
        "trust",
        "rating",
        "bonus",
        "time",
        "effort",
    ];
    let start = (task_index as usize * 7) % VOCAB.len();
    let words: Vec<&str> = (0..10)
        .map(|i| VOCAB[(start + i * 3) % VOCAB.len()])
        .collect();
    words.join(" ")
}

/// The worker's *intended* quality for this contribution in `[0, 1]`:
/// how close to perfect she is trying (and able) to get.
pub(crate) fn intended_quality(
    archetype: WorkerArchetype,
    base_accuracy: f64,
    motivation: f64,
    rng: &mut StdRng,
) -> f64 {
    match archetype {
        WorkerArchetype::Diligent | WorkerArchetype::Sloppy => {
            // Good-faith workers' effective quality responds to motivation
            // (the §4.1 quality-vs-fairness mechanism): a fully demotivated
            // worker loses a quarter of her accuracy.
            (base_accuracy * (0.75 + 0.25 * motivation.clamp(0.0, 1.0))).clamp(0.0, 1.0)
        }
        WorkerArchetype::RandomSpammer => rng.gen_range(0.0..0.3),
        WorkerArchetype::UniformSpammer => 0.0,
        WorkerArchetype::SemiRandomSpammer => {
            if rng.gen_bool(0.5) {
                base_accuracy
            } else {
                rng.gen_range(0.0..0.3)
            }
        }
    }
}

/// Generate a contribution against a reference at the given intended
/// quality.
pub(crate) fn contribution(
    reference: &Reference,
    archetype: WorkerArchetype,
    quality: f64,
    rng: &mut StdRng,
) -> Contribution {
    match reference {
        Reference::Label(truth, classes) => {
            let k = (*classes).max(2);
            let label = match archetype {
                WorkerArchetype::UniformSpammer => 0,
                _ => {
                    if rng.gen_bool(quality.clamp(0.0, 1.0)) {
                        *truth
                    } else {
                        // a wrong label, uniform over the others
                        let mut l = rng.gen_range(0..k);
                        if l == *truth {
                            l = (l + 1) % k;
                        }
                        l
                    }
                }
            };
            Contribution::Label(label)
        }
        Reference::Text(reference_text) => {
            let ref_words: Vec<&str> = reference_text.split_whitespace().collect();
            const NOISE: [&str; 8] = [
                "lorem", "ipsum", "qwerty", "zigzag", "foo", "bar", "baz", "blah",
            ];
            let mut words = Vec::with_capacity(ref_words.len());
            for w in &ref_words {
                if rng.gen_bool(quality.clamp(0.0, 1.0)) {
                    words.push(*w);
                } else {
                    words.push(NOISE[rng.gen_range(0..NOISE.len())]);
                }
            }
            if words.is_empty() {
                words.push(NOISE[0]);
            }
            Contribution::Text(words.join(" "))
        }
        Reference::Ranking(truth) => {
            let mut ranking = truth.clone();
            // number of adjacent swaps scales inversely with quality
            let max_swaps = ranking.len().saturating_sub(1) * 2;
            let swaps = ((1.0 - quality.clamp(0.0, 1.0)) * max_swaps as f64).round() as usize;
            for _ in 0..swaps {
                if ranking.len() >= 2 {
                    let i = rng.gen_range(0..ranking.len() - 1);
                    ranking.swap(i, i + 1);
                }
            }
            if archetype == WorkerArchetype::UniformSpammer {
                // uniform spammers submit the identity permutation
                let mut ident = truth.clone();
                ident.sort_unstable();
                return Contribution::Ranking(ident);
            }
            if archetype == WorkerArchetype::RandomSpammer {
                ranking.shuffle(rng);
            }
            Contribution::Ranking(ranking)
        }
        Reference::Survey(k) => {
            // any answer is valid; spammers still rush the same button
            let label = match archetype {
                WorkerArchetype::UniformSpammer => 0,
                _ => rng.gen_range(0..(*k).max(2)),
            };
            Contribution::Label(label)
        }
    }
}

/// Objective quality of a contribution against its reference (the measure
/// the Axiom-3 checker and E6 use).
pub(crate) fn objective_quality(reference: &Reference, c: &Contribution) -> f64 {
    match (reference, c) {
        (Reference::Label(truth, _), Contribution::Label(l)) => f64::from(l == truth),
        (Reference::Text(r), Contribution::Text(t)) => faircrowd_model::text::ngram_cosine(r, t, 3),
        (Reference::Ranking(r), Contribution::Ranking(got)) => {
            faircrowd_model::ranking::ranking_similarity(r, got)
        }
        (Reference::Survey(_), Contribution::Label(_)) => 1.0, // good-faith by definition
        _ => 0.0,
    }
}

/// How long the worker takes: honest workers take around the estimate
/// (scaled by diligence), spammers rush.
pub(crate) fn work_duration(
    archetype: WorkerArchetype,
    est: SimDuration,
    rng: &mut StdRng,
) -> SimDuration {
    let factor = match archetype {
        WorkerArchetype::Diligent => rng.gen_range(0.85..1.35),
        WorkerArchetype::Sloppy => rng.gen_range(0.5..0.9),
        WorkerArchetype::SemiRandomSpammer => rng.gen_range(0.2..0.6),
        WorkerArchetype::RandomSpammer | WorkerArchetype::UniformSpammer => {
            rng.gen_range(0.05..0.15)
        }
    };
    let d = est.mul_f64(factor);
    // nobody takes zero seconds
    SimDuration::from_secs(d.as_secs().max(5))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn reference_text_is_deterministic_and_distinct() {
        assert_eq!(reference_text(3), reference_text(3));
        assert_ne!(reference_text(3), reference_text(4));
        assert_eq!(reference_text(0).split_whitespace().count(), 10);
    }

    #[test]
    fn diligent_quality_tracks_motivation() {
        let mut r = rng();
        let high = intended_quality(WorkerArchetype::Diligent, 0.9, 1.0, &mut r);
        let low = intended_quality(WorkerArchetype::Diligent, 0.9, 0.0, &mut r);
        assert!((high - 0.9).abs() < 1e-12);
        assert!((low - 0.9 * 0.75).abs() < 1e-12);
    }

    #[test]
    fn spammer_quality_is_low() {
        let mut r = rng();
        for _ in 0..20 {
            let q = intended_quality(WorkerArchetype::RandomSpammer, 0.9, 1.0, &mut r);
            assert!(q < 0.3);
            assert_eq!(
                intended_quality(WorkerArchetype::UniformSpammer, 0.9, 1.0, &mut r),
                0.0
            );
        }
    }

    #[test]
    fn label_generation_matches_quality() {
        let mut r = rng();
        let reference = Reference::Label(1, 2);
        let mut correct = 0;
        for _ in 0..1000 {
            let c = contribution(&reference, WorkerArchetype::Diligent, 0.8, &mut r);
            if objective_quality(&reference, &c) > 0.5 {
                correct += 1;
            }
        }
        let rate = correct as f64 / 1000.0;
        assert!((rate - 0.8).abs() < 0.05, "observed accuracy {rate}");
    }

    #[test]
    fn uniform_spammer_always_answers_zero() {
        let mut r = rng();
        let reference = Reference::Label(1, 4);
        for _ in 0..10 {
            let c = contribution(&reference, WorkerArchetype::UniformSpammer, 0.0, &mut r);
            assert_eq!(c, Contribution::Label(0));
        }
    }

    #[test]
    fn text_quality_scales_with_intent() {
        let mut r = rng();
        let reference = Reference::Text(reference_text(0));
        let good = contribution(&reference, WorkerArchetype::Diligent, 0.95, &mut r);
        let bad = contribution(&reference, WorkerArchetype::Diligent, 0.2, &mut r);
        assert!(objective_quality(&reference, &good) > objective_quality(&reference, &bad));
    }

    #[test]
    fn ranking_quality_scales_with_intent() {
        let mut r = rng();
        let reference = Reference::Ranking((0..8u16).collect());
        let good = contribution(&reference, WorkerArchetype::Diligent, 1.0, &mut r);
        let bad = contribution(&reference, WorkerArchetype::Diligent, 0.0, &mut r);
        let qg = objective_quality(&reference, &good);
        let qb = objective_quality(&reference, &bad);
        assert!((qg - 1.0).abs() < 1e-9, "perfect intent reproduces truth");
        assert!(qb < qg);
    }

    #[test]
    fn survey_answers_are_always_good_faith() {
        let mut r = rng();
        let reference = Reference::Survey(5);
        let c = contribution(&reference, WorkerArchetype::Sloppy, 0.5, &mut r);
        assert_eq!(objective_quality(&reference, &c), 1.0);
    }

    #[test]
    fn durations_rank_by_archetype() {
        let mut r = rng();
        let est = SimDuration::from_mins(10);
        let mut mean = |a: WorkerArchetype| -> f64 {
            (0..200)
                .map(|_| work_duration(a, est, &mut r).as_secs() as f64)
                .sum::<f64>()
                / 200.0
        };
        let diligent = mean(WorkerArchetype::Diligent);
        let sloppy = mean(WorkerArchetype::Sloppy);
        let spam = mean(WorkerArchetype::RandomSpammer);
        assert!(diligent > sloppy && sloppy > spam);
        assert!(spam >= 5.0, "floor of 5 seconds");
    }

    #[test]
    fn mismatched_contribution_kind_scores_zero() {
        let reference = Reference::Label(0, 2);
        assert_eq!(
            objective_quality(&reference, &Contribution::Text("x".into())),
            0.0
        );
    }
}
