//! The order-independent bounded risk ranking.
//!
//! [`TopK`] keeps the k highest-risk scenarios under a *total* order —
//! risk descending, then the canonical axis tuple ascending — so the
//! final contents depend only on the set of scenarios pushed, never on
//! the order they arrive in. That makes a sequential enumeration, a
//! shuffled one and a merge of per-variant rankings all byte-identical,
//! which is exactly what the crate's
//! `topk_is_enumeration_order_independent` proptest asserts.

use crate::engine::CellScore;

/// A bounded, order-independent top-k ranking of [`CellScore`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct TopK {
    k: usize,
    /// Sorted ascending by [`CellScore::rank_key`] (best first).
    entries: Vec<CellScore>,
}

impl TopK {
    /// Creates an empty ranking holding at most `k` scenarios.
    #[must_use]
    pub fn new(k: usize) -> Self {
        TopK {
            k,
            entries: Vec::with_capacity(k.min(4_096)),
        }
    }

    /// The capacity bound.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Scenarios currently ranked, best (highest risk) first.
    #[must_use]
    pub fn entries(&self) -> &[CellScore] {
        &self.entries
    }

    /// Number of ranked scenarios (≤ k).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the ranking is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Offers one scenario; it enters iff it ranks among the best k
    /// seen so far. A scenario already present (same canonical key) is
    /// left untouched, so repeated pushes are idempotent.
    pub fn push(&mut self, score: CellScore) {
        if self.k == 0 {
            return;
        }
        let key = score.rank_key();
        match self.entries.binary_search_by_key(&key, CellScore::rank_key) {
            Ok(_) => {}
            Err(pos) => {
                if pos < self.k {
                    self.entries.insert(pos, score);
                    self.entries.truncate(self.k);
                }
            }
        }
    }

    /// Merges another ranking in (the union's best k survive). The
    /// result equals pushing every scenario of both rankings into a
    /// fresh one, whatever the split was — how the engine folds its
    /// per-variant rankings together.
    pub fn merge(&mut self, other: &TopK) {
        for score in &other.entries {
            self.push(*score);
        }
    }

    /// Consumes the ranking, best first.
    #[must_use]
    pub fn into_vec(self) -> Vec<CellScore> {
        self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(risk: u8, class: u16, variant: u32) -> CellScore {
        CellScore::synthetic(risk, class, variant)
    }

    #[test]
    fn keeps_the_best_k_in_total_order() {
        let mut top = TopK::new(3);
        for (risk, class) in [(1, 0), (5, 2), (3, 1), (5, 1), (4, 0)] {
            top.push(cell(risk, class, 0));
        }
        let risks: Vec<(u8, u16)> = top.entries().iter().map(|c| (c.risk.0, c.class)).collect();
        // Risk descending, class ascending on the tie.
        assert_eq!(risks, vec![(5, 1), (5, 2), (4, 0)]);
    }

    #[test]
    fn insertion_order_is_irrelevant() {
        let scores: Vec<CellScore> = (0..40).map(|i| cell((i % 5) as u8 + 1, i, 0)).collect();
        let mut forward = TopK::new(7);
        let mut backward = TopK::new(7);
        for s in &scores {
            forward.push(*s);
        }
        for s in scores.iter().rev() {
            backward.push(*s);
        }
        assert_eq!(forward, backward);
    }

    #[test]
    fn merge_equals_global_push() {
        let scores: Vec<CellScore> = (0..50).map(|i| cell((i % 6) as u8, i, i as u32)).collect();
        let mut global = TopK::new(9);
        for s in &scores {
            global.push(*s);
        }
        let mut left = TopK::new(9);
        let mut right = TopK::new(9);
        for (i, s) in scores.iter().enumerate() {
            if i % 2 == 0 {
                left.push(*s);
            } else {
                right.push(*s);
            }
        }
        left.merge(&right);
        assert_eq!(left, global);
    }

    #[test]
    fn duplicate_pushes_fold() {
        let mut top = TopK::new(4);
        top.push(cell(5, 1, 0));
        top.push(cell(5, 1, 0));
        assert_eq!(top.len(), 1);
    }

    #[test]
    fn zero_capacity_holds_nothing() {
        let mut top = TopK::new(0);
        top.push(cell(5, 0, 0));
        assert!(top.is_empty());
    }
}
