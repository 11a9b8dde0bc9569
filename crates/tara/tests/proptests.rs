//! Property-based tests over the generative TARA's invariants:
//! canonical-hash dedup, enumeration-order-independent top-k ranking,
//! and hypothesis idempotence under duplicate SIEM evidence.

use proptest::prelude::*;
use silvasec_risk::catalog::worksite_model;
use silvasec_tara::engine::CellScore;
use silvasec_tara::{scenario_hash, HypothesisSet, ScenarioSpace, TaraCatalog, TopK};
use std::collections::HashMap;

/// Unpacks one word into a small canonical axis tuple (the real
/// catalog's axes are this size: ≤16 classes, ≤16 assets, ≤8 entries,
/// ≤8 odds, small variants).
fn tuple_of(word: u32) -> (u64, u64, u64, u64, u64) {
    (
        u64::from(word & 0xF),
        u64::from((word >> 4) & 0xF),
        u64::from((word >> 8) & 0x7),
        u64::from((word >> 11) & 0x7),
        u64::from((word >> 14) & 0xFF),
    )
}

proptest! {
    // ---------------- canonical scenario hash ----------------

    /// Over arbitrary samples of the axis space, equal tuples hash
    /// equal and distinct tuples never collide — duplicates fold to
    /// one scenario, distinct scenarios stay distinct.
    #[test]
    fn scenario_hash_is_injective_on_the_axis_space(
        words in proptest::collection::vec(any::<u32>(), 1..400),
    ) {
        let mut by_hash: HashMap<u64, (u64, u64, u64, u64, u64)> = HashMap::new();
        for word in words {
            let t = tuple_of(word);
            let h = scenario_hash(t.0, t.1, t.2, t.3, t.4);
            // Same tuple → same hash (stateless), different tuple with
            // the same hash would be a collision.
            prop_assert_eq!(h, scenario_hash(t.0, t.1, t.2, t.3, t.4));
            if let Some(prev) = by_hash.insert(h, t) {
                prop_assert_eq!(prev, t, "hash collision at {:#x}", h);
            }
        }
    }

    /// Whatever the scaling knobs, the engine's dedup accounting
    /// balances and matches the catalog's closed-form counts.
    #[test]
    fn dedup_accounting_balances_for_any_knobs(
        seed in any::<u64>(),
        variants in 1u32..6,
        top_k in 0usize..128,
    ) {
        let catalog = TaraCatalog::from_model(&worksite_model());
        let report = ScenarioSpace::new(&catalog, seed, variants, top_k).enumerate();
        prop_assert_eq!(report.enumerated, catalog.cells_per_variant() * u64::from(variants));
        prop_assert_eq!(report.distinct, catalog.distinct_per_variant() * u64::from(variants));
        prop_assert_eq!(report.enumerated, report.distinct + report.duplicates_folded);
        prop_assert_eq!(report.top.len(), top_k.min(report.distinct as usize));
    }

    // ---------------- top-k order independence ----------------

    /// The ranking depends only on the *set* of scenarios pushed:
    /// forward order, reverse order, and an arbitrary two-shard split
    /// merged back together all agree.
    #[test]
    fn topk_is_enumeration_order_independent(
        words in proptest::collection::vec(any::<u32>(), 1..200),
        k in 0usize..32,
        split in any::<u64>(),
    ) {
        let scores: Vec<CellScore> = words
            .iter()
            .map(|&w| CellScore::synthetic((w % 6) as u8, (w >> 3) as u16 & 0xFF, w >> 11))
            .collect();
        let mut forward = TopK::new(k);
        let mut backward = TopK::new(k);
        let mut left = TopK::new(k);
        let mut right = TopK::new(k);
        for s in &scores {
            forward.push(*s);
        }
        for s in scores.iter().rev() {
            backward.push(*s);
        }
        for (i, s) in scores.iter().enumerate() {
            if (split >> (i % 64)) & 1 == 0 {
                left.push(*s);
            } else {
                right.push(*s);
            }
        }
        left.merge(&right);
        prop_assert_eq!(&forward, &backward);
        prop_assert_eq!(&forward, &left);
        // The contents really are sorted best-first under the total
        // order, and bounded by k.
        prop_assert!(forward.len() <= k);
        for w in forward.entries().windows(2) {
            prop_assert!(w[0].rank_key() < w[1].rank_key());
        }
    }

    // ---------------- hypothesis idempotence ----------------

    /// Replaying an evidence stream with every item duplicated (at a
    /// later timestamp) leaves the hypothesis set exactly where the
    /// deduplicated stream leaves it: confirm and retire are no-ops on
    /// already-transitioned hypotheses, and first timestamps stick.
    #[test]
    fn confirm_and_retire_are_idempotent_under_duplicate_evidence(
        seed in any::<u64>(),
        ops in proptest::collection::vec(any::<u16>(), 1..60),
    ) {
        let catalog = TaraCatalog::from_model(&worksite_model());
        let top = ScenarioSpace::new(&catalog, seed, 1, 96).enumerate().top;
        let classes = catalog.classes.clone();

        let mut once = HypothesisSet::from_ranking(top.clone());
        let mut twice = HypothesisSet::from_ranking(top);
        let mut now = 0u64;
        for word in ops {
            let class = &classes[usize::from(word) % classes.len()];
            let sites = u32::from(word >> 8) % 9 + 1;
            let retire = word & 0x40 != 0;
            if retire {
                once.retire(class, now);
                twice.retire(class, now);
                twice.retire(class, now + 1);
            } else {
                once.confirm(class, sites, now);
                twice.confirm(class, sites, now);
                twice.confirm(class, sites + 3, now + 1);
            }
            now += 100;
            prop_assert_eq!(once.first_divergence(&twice), None);
        }
        // Retirement is terminal: a retired hypothesis never reopens
        // or re-confirms, whatever evidence follows.
        for h in once.hypotheses() {
            if let Some(retired) = h.retired_at_ms {
                if let Some(confirmed) = h.confirmed_at_ms {
                    prop_assert!(confirmed <= retired);
                }
            }
        }
    }
}
