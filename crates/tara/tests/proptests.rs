//! Property-based tests over the generative TARA's invariants:
//! canonical-hash dedup, the top-k ranking against a brute-force
//! oracle, and hypothesis idempotence under duplicate SIEM evidence.

use proptest::prelude::*;
use silvasec_risk::catalog::worksite_model;
use silvasec_tara::catalog::ENTRY_POINTS;
use silvasec_tara::engine::CellScore;
use silvasec_tara::{scenario_hash, HypothesisSet, ScenarioSpace, ScoredScenario, TaraCatalog};
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

/// The ranking by brute force: every `(class, asset, entry, odd,
/// variant)` of the catalog — walked by class, not by Table I row, so
/// no cell repeats — scored by `score_cell`, sorted by `rank_key`, cut
/// at `top_k` and materialized.
fn oracle_ranking(space: &ScenarioSpace<'_>) -> Vec<ScoredScenario> {
    let catalog = space.catalog;
    let mut cells: Vec<CellScore> = Vec::new();
    for class in 0..catalog.classes.len() as u16 {
        for asset in 0..catalog.assets.len() as u16 {
            for entry in 0..ENTRY_POINTS.len() as u8 {
                for odd in 0..catalog.odd_conditions.len() as u8 {
                    for variant in 0..space.variants {
                        cells.push(space.score_cell(class, asset, entry, odd, variant));
                    }
                }
            }
        }
    }
    cells.sort_by_key(CellScore::rank_key);
    cells.truncate(space.top_k);
    cells.iter().map(|cell| space.materialize(cell)).collect()
}

/// The fleet's enumeration (2 variants, top 4 096) ranks exactly what
/// the oracle ranks: all 4 000 distinct scenarios, since the cut
/// exceeds them.
#[test]
fn fleet_ranking_matches_the_brute_force_oracle() {
    let catalog = TaraCatalog::from_model(&worksite_model());
    let space = ScenarioSpace::new(&catalog, 11, 2, 4_096);
    let top = space.enumerate().top;
    assert_eq!(top.len() as u64, 2 * catalog.distinct_per_variant());
    assert_eq!(top, oracle_ranking(&space));
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

    // ---------------- the ranking ----------------

    /// Whatever the seed, variant count and capacity, the one-sort
    /// ranking equals the brute-force oracle: bounded by `top_k`, best
    /// first under the total order, and every canonical scenario at
    /// most once however many Table I rows reach it.
    #[test]
    fn ranking_matches_the_brute_force_oracle(
        seed in any::<u64>(),
        variants in 1u32..6,
        top_k in 0usize..129,
    ) {
        let catalog = TaraCatalog::from_model(&worksite_model());
        let space = ScenarioSpace::new(&catalog, seed, variants, top_k);
        prop_assert_eq!(space.enumerate().top, oracle_ranking(&space));
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
