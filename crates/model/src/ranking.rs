//! Ranked-list comparison.
//!
//! Axiom 3 suggests that "for ranked lists, using measures such as
//! Discounted Cumulative Gain would be more appropriate", citing
//! Järvelin & Kekäläinen (TOIS 2002). This module implements DCG/nDCG,
//! plus the symmetric ranking similarity used for contribution
//! comparison.

/// Discounted Cumulative Gain of a relevance sequence (already in rank
/// order, best-first). Uses the standard log-discount formulation
/// `DCG = Σ_{i≥1} rel_i / log2(i + 1)` with 1-based rank `i`, so the
/// discount is active from rank 2 onward.
pub(crate) fn dcg(relevances: &[f64]) -> f64 {
    relevances
        .iter()
        .enumerate()
        .map(|(i, &rel)| rel / ((i as f64 + 2.0).log2()))
        .sum()
}

/// Normalised DCG of a ranking against per-item relevance scores.
///
/// `ranking` lists item indices best-first; `relevance[item]` is the item's
/// graded relevance. Returns `DCG(ranking) / DCG(ideal)` in `[0, 1]`
/// (1.0 when the ideal DCG is zero — there is nothing to get wrong).
/// Items out of range contribute zero relevance.
pub fn ndcg(ranking: &[u16], relevance: &[f64]) -> f64 {
    let gains: Vec<f64> = ranking
        .iter()
        .map(|&item| relevance.get(item as usize).copied().unwrap_or(0.0))
        .collect();
    let mut ideal: Vec<f64> = relevance.to_vec();
    ideal.sort_by(|a, b| b.partial_cmp(a).expect("relevance must not be NaN"));
    ideal.truncate(ranking.len());
    let ideal_dcg = dcg(&ideal);
    if ideal_dcg == 0.0 {
        return 1.0;
    }
    (dcg(&gains) / ideal_dcg).clamp(0.0, 1.0)
}

/// Symmetric similarity in `[0, 1]` between two ranked-list contributions.
///
/// Treats each ranking as the "relevance truth" for the other (positional
/// gain `n - rank`), computes nDCG both ways and averages; identical
/// rankings score 1.0, reversed rankings score low. This symmetrisation is
/// what Axiom 3 needs: neither worker's list is privileged.
pub fn ranking_similarity(a: &[u16], b: &[u16]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let rel_from = |r: &[u16]| -> Vec<f64> {
        let max_item = r.iter().copied().max().unwrap_or(0) as usize;
        let mut rel = vec![0.0; max_item + 1];
        let n = r.len() as f64;
        for (rank, &item) in r.iter().enumerate() {
            rel[item as usize] = n - rank as f64;
        }
        rel
    };
    let ab = ndcg(a, &rel_from(b));
    let ba = ndcg(b, &rel_from(a));
    ((ab + ba) / 2.0).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dcg_classic_example() {
        // Järvelin & Kekäläinen style: graded relevances in rank order
        let rels = [3.0, 2.0, 3.0, 0.0, 1.0, 2.0];
        let d = dcg(&rels);
        // hand computation with rank-i discount log2(i+1), 1-based i
        let expect = 3.0 / 2f64.log2()
            + 2.0 / 3f64.log2()
            + 3.0 / 4f64.log2()
            + 0.0 / 5f64.log2()
            + 1.0 / 6f64.log2()
            + 2.0 / 7f64.log2();
        assert!((d - expect).abs() < 1e-12);
    }

    #[test]
    fn dcg_is_order_sensitive() {
        assert!(dcg(&[3.0, 1.0]) > dcg(&[1.0, 3.0]));
        assert_eq!(dcg(&[]), 0.0);
    }

    #[test]
    fn ndcg_perfect_ranking_is_one() {
        let rel = [0.0, 1.0, 2.0, 3.0];
        // best-first ranking by relevance: items 3,2,1,0
        assert!((ndcg(&[3, 2, 1, 0], &rel) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ndcg_worst_ranking_below_one() {
        let rel = [0.0, 1.0, 2.0, 3.0];
        let worst = ndcg(&[0, 1, 2, 3], &rel);
        assert!(worst < 1.0 && worst > 0.0);
    }

    #[test]
    fn ndcg_handles_zero_ideal_and_oob_items() {
        assert_eq!(ndcg(&[0, 1], &[0.0, 0.0]), 1.0);
        // out-of-range items contribute nothing
        let rel = [1.0];
        assert!((ndcg(&[0, 9], &rel) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ranking_similarity_properties() {
        let a: Vec<u16> = vec![0, 1, 2, 3, 4];
        let rev: Vec<u16> = vec![4, 3, 2, 1, 0];
        let near: Vec<u16> = vec![0, 1, 2, 4, 3];
        assert!((ranking_similarity(&a, &a) - 1.0).abs() < 1e-9);
        let s_near = ranking_similarity(&a, &near);
        let s_rev = ranking_similarity(&a, &rev);
        assert!(s_near > s_rev, "{s_near} vs {s_rev}");
        // symmetry
        assert!((ranking_similarity(&a, &near) - ranking_similarity(&near, &a)).abs() < 1e-12);
        // empties
        assert_eq!(ranking_similarity(&[], &[]), 1.0);
        assert_eq!(ranking_similarity(&a, &[]), 0.0);
    }
}
