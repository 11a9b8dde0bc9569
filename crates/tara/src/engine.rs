//! The enumerator/scorer: cross product → canonical hash dedup →
//! 21434 scoring → deterministic top-k.
//!
//! A [`ScenarioSpace`] walks `variants × rows × assets × entry points
//! × ODD conditions` in one loop. Each cell's canonical identity is the
//! axis tuple `(class, asset, entry, odd, variant)` — the Table I *row*
//! that exposed the class is deliberately not part of it, so a class
//! exposed by several characteristics enumerates several cells that
//! fold into one scenario. Identity is hashed with the stateless
//! SplitMix64 [`scenario_hash`]; scoring is pure arithmetic over the
//! 21434 machinery of `silvasec-risk` ([`RiskLevel::from_matrix`],
//! [`AttackFeasibility::from_total`], impact-rating overall), so the
//! grounded baseline cell of every hand-built threat reproduces the
//! `exp3_tara` score exactly. The distinct cells are ranked with one
//! sort on [`CellScore::rank_key`], cut at `top_k`.

use crate::catalog::{TaraCatalog, CLEAR_ODD, ENTRY_PENALTY, ENTRY_POINTS, UNGROUNDED_BASE_TOTAL};
use serde::Serialize;
use silvasec_crypto::sha256;
use silvasec_risk::feasibility::AttackFeasibility;
use silvasec_risk::impact::{ImpactLevel, ImpactRating};
use silvasec_risk::tara::{RiskLevel, Tara, Treatment};
use silvasec_sim::rng::hash3;
use std::collections::HashSet;

/// Canonical SplitMix64 hash of one scenario's axis tuple. Two cells
/// with the same tuple hash identically whatever enumeration path
/// reached them; distinct tuples collide with probability ~2⁻⁶⁴ (the
/// dedup proptests sample this over arbitrary catalogs).
#[must_use]
pub fn scenario_hash(class: u64, asset: u64, entry: u64, odd: u64, variant: u64) -> u64 {
    hash3(hash3(class, asset, entry), odd, variant)
}

/// Impact under an ODD condition: an adverse condition (any index
/// past [`CLEAR_ODD`]) escalates a safety-relevant rating one level —
/// the degraded ODD strips exactly the sensing margin the safety
/// argument leans on. Non-safety-relevant scenarios and the clear
/// baseline keep the rating's overall.
fn effective_impact(rating: &ImpactRating, odd: u8) -> ImpactLevel {
    let overall = rating.overall();
    if odd == 0 || !rating.is_safety_relevant() {
        return overall;
    }
    match overall {
        ImpactLevel::Negligible => ImpactLevel::Moderate,
        ImpactLevel::Moderate => ImpactLevel::Major,
        _ => ImpactLevel::Severe,
    }
}

/// A scored cell in compact, `Copy` form — what the enumeration loop
/// ranks; materialized into a [`ScoredScenario`] (with the axis names
/// spelled out) only once ranked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellScore {
    /// Canonical scenario hash.
    pub hash: u64,
    /// Class index into [`TaraCatalog::classes`].
    pub class: u16,
    /// Asset index into [`TaraCatalog::assets`].
    pub asset: u16,
    /// Entry-point index into [`ENTRY_POINTS`].
    pub entry: u8,
    /// ODD-condition index into [`TaraCatalog::odd_conditions`].
    pub odd: u8,
    /// Variant index.
    pub variant: u32,
    /// Whether a hand-built threat grounded the cell.
    pub grounded: bool,
    /// Scored impact.
    pub impact: ImpactLevel,
    /// Scored feasibility.
    pub feasibility: AttackFeasibility,
    /// Risk value from the 21434 matrix.
    pub risk: RiskLevel,
    /// Treatment under the default policy.
    pub treatment: Treatment,
}

impl CellScore {
    /// The ranking key: risk descending, then the canonical axis tuple
    /// ascending — a total order, so rankings are enumeration-order
    /// independent.
    #[must_use]
    pub fn rank_key(&self) -> (u8, u16, u16, u8, u8, u32) {
        (
            u8::MAX - self.risk.0,
            self.class,
            self.asset,
            self.entry,
            self.odd,
            self.variant,
        )
    }
}

/// One ranked scenario with its axis names spelled out.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ScoredScenario {
    /// Canonical scenario hash.
    pub hash: u64,
    /// Attack-class tag (e.g. `"gnss-spoofing"`).
    pub attack_class: String,
    /// Attacked asset id (e.g. `"fw.gnss"`).
    pub asset_id: String,
    /// Entry point (e.g. `"ep.gnss-band"`).
    pub entry_point: String,
    /// ODD condition (e.g. `"tc.fog"`, or `"odd.clear"`).
    pub odd: String,
    /// Variant index (0 = the baseline attack-path variant).
    pub variant: u32,
    /// Whether a hand-built threat grounded the cell.
    pub grounded: bool,
    /// Scored impact.
    pub impact: ImpactLevel,
    /// Scored feasibility.
    pub feasibility: AttackFeasibility,
    /// Risk value from the 21434 matrix.
    pub risk: RiskLevel,
    /// Treatment under the default policy.
    pub treatment: Treatment,
}

/// The result of one enumeration: dedup accounting plus the ranking.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EnumerationReport {
    /// Seed the variant perturbations were keyed by.
    pub seed: u64,
    /// Variants enumerated.
    pub variants: u32,
    /// Cells walked (before dedup).
    pub enumerated: u64,
    /// Distinct canonical scenarios scored.
    pub distinct: u64,
    /// Cells folded into an already-seen scenario.
    pub duplicates_folded: u64,
    /// Distinct scenarios a hand-built threat grounded.
    pub grounded_scored: u64,
    /// The top-k ranking, highest risk first.
    pub top: Vec<ScoredScenario>,
}

impl EnumerationReport {
    /// The ranking as canonical JSONL (one scenario per line) — the
    /// byte string determinism assertions compare.
    #[must_use]
    pub fn ranking_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.top {
            out.push_str(&serde_json::to_string(s).expect("scenario serializes"));
            out.push('\n');
        }
        out
    }

    /// SHA-256 over the dedup counters and the canonical ranking — a
    /// compact fingerprint for byte-identity assertions.
    #[must_use]
    pub fn digest(&self) -> [u8; 32] {
        let header = format!(
            "silvasec-tara seed={} variants={} enumerated={} distinct={} folded={} grounded={}\n",
            self.seed,
            self.variants,
            self.enumerated,
            self.distinct,
            self.duplicates_folded,
            self.grounded_scored
        );
        let mut bytes = header.into_bytes();
        bytes.extend_from_slice(self.ranking_jsonl().as_bytes());
        sha256::digest(&bytes)
    }
}

/// The enumeration space: a catalog plus the scaling knobs.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioSpace<'a> {
    /// The generative axes.
    pub catalog: &'a TaraCatalog,
    /// Seed keying the variant attack-path perturbations.
    pub seed: u64,
    /// Attack-path variants per canonical (class, asset, entry, odd)
    /// cell; variant 0 is the unperturbed baseline.
    pub variants: u32,
    /// Ranking capacity.
    pub top_k: usize,
}

impl<'a> ScenarioSpace<'a> {
    /// Creates a space over `catalog` with the given knobs.
    #[must_use]
    pub fn new(catalog: &'a TaraCatalog, seed: u64, variants: u32, top_k: usize) -> Self {
        ScenarioSpace {
            catalog,
            seed,
            variants,
            top_k,
        }
    }

    /// Extra attack potential variant `v` adds to a cell: 0 for the
    /// baseline variant, else a stateless draw in `0..9` keyed by
    /// `(seed, class, asset, variant)` — entry and ODD deliberately
    /// excluded, so a variant models one alternative attack path
    /// reused across the surface.
    #[must_use]
    pub fn variant_delta(&self, class: u16, asset: u16, variant: u32) -> u8 {
        if variant == 0 {
            return 0;
        }
        (hash3(
            self.seed,
            hash3(u64::from(class), u64::from(asset), u64::from(variant)),
            0xD51A,
        ) % 9) as u8
    }

    /// Scores one canonical cell.
    #[must_use]
    pub fn score_cell(
        &self,
        class: u16,
        asset: u16,
        entry: u8,
        odd: u8,
        variant: u32,
    ) -> CellScore {
        let grounding = self.catalog.grounded[class as usize]
            .as_ref()
            .filter(|g| g.asset == asset);
        let (base_total, rating) = match grounding {
            Some(g) => (g.base_total, &g.impact),
            None => (
                UNGROUNDED_BASE_TOTAL,
                &self.catalog.asset_impacts[asset as usize],
            ),
        };
        let native = TaraCatalog::native_entry(&self.catalog.classes[class as usize]);
        let entry_cost = if entry == native { 0 } else { ENTRY_PENALTY };
        let total = base_total
            .saturating_add(entry_cost)
            .saturating_add(self.variant_delta(class, asset, variant));
        let feasibility = AttackFeasibility::from_total(total);
        let impact = effective_impact(rating, odd);
        let risk = RiskLevel::from_matrix(impact, feasibility);
        CellScore {
            hash: scenario_hash(
                u64::from(class),
                u64::from(asset),
                u64::from(entry),
                u64::from(odd),
                u64::from(variant),
            ),
            class,
            asset,
            entry,
            odd,
            variant,
            grounded: grounding.is_some(),
            impact,
            feasibility,
            risk,
            treatment: Tara::default_treatment(risk),
        }
    }

    /// Walks every variant of the cross product — every surface row ×
    /// asset × entry × ODD cell — deduped by canonical hash, and ranks
    /// the distinct cells: one sort on [`CellScore::rank_key`], a total
    /// order, cut at `top_k`.
    #[must_use]
    pub fn enumerate(&self) -> EnumerationReport {
        let catalog = self.catalog;
        let mut report = EnumerationReport {
            seed: self.seed,
            variants: self.variants,
            enumerated: 0,
            distinct: 0,
            duplicates_folded: 0,
            grounded_scored: 0,
            top: Vec::new(),
        };
        let mut seen: HashSet<u64> = HashSet::new();
        let mut cells = Vec::new();
        for variant in 0..self.variants {
            for &(_, class) in &catalog.rows {
                for asset in 0..catalog.assets.len() as u16 {
                    for entry in 0..ENTRY_POINTS.len() as u8 {
                        for odd in 0..catalog.odd_conditions.len() as u8 {
                            report.enumerated += 1;
                            let hash = scenario_hash(
                                u64::from(class),
                                u64::from(asset),
                                u64::from(entry),
                                u64::from(odd),
                                u64::from(variant),
                            );
                            if !seen.insert(hash) {
                                report.duplicates_folded += 1;
                                continue;
                            }
                            let score = self.score_cell(class, asset, entry, odd, variant);
                            report.grounded_scored += u64::from(score.grounded);
                            cells.push(score);
                        }
                    }
                }
            }
        }
        report.distinct = cells.len() as u64;
        cells.sort_unstable_by_key(CellScore::rank_key);
        cells.truncate(self.top_k);
        report.top = cells.iter().map(|c| self.materialize(c)).collect();
        report
    }

    /// Spells out a compact score's axis names.
    #[must_use]
    pub fn materialize(&self, cell: &CellScore) -> ScoredScenario {
        ScoredScenario {
            hash: cell.hash,
            attack_class: self.catalog.classes[cell.class as usize].clone(),
            asset_id: self.catalog.assets[cell.asset as usize].clone(),
            entry_point: ENTRY_POINTS[cell.entry as usize].to_string(),
            odd: self.catalog.odd_conditions[cell.odd as usize].clone(),
            variant: cell.variant,
            grounded: cell.grounded,
            impact: cell.impact,
            feasibility: cell.feasibility,
            risk: cell.risk,
            treatment: cell.treatment,
        }
    }

    /// The grounded baseline cells — native entry point, clear ODD,
    /// variant 0 — one per grounded class. These are the cells the
    /// hand-built `exp3_tara` assessment must agree with, paired with
    /// the grounding threat's id for the lookup.
    #[must_use]
    pub fn baseline_cells(&self) -> Vec<(String, ScoredScenario)> {
        let clear = self
            .catalog
            .odd_conditions
            .iter()
            .position(|o| o == CLEAR_ODD)
            .unwrap_or(0) as u8;
        let mut cells = Vec::new();
        for (class, grounding) in self.catalog.grounded.iter().enumerate() {
            let Some(g) = grounding else { continue };
            let native = TaraCatalog::native_entry(&self.catalog.classes[class]);
            let cell = self.score_cell(class as u16, g.asset, native, clear, 0);
            cells.push((g.threat_id.clone(), self.materialize(&cell)));
        }
        cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silvasec_risk::catalog::worksite_model;

    fn space(catalog: &TaraCatalog, variants: u32) -> ScenarioSpace<'_> {
        ScenarioSpace::new(catalog, 11, variants, 32)
    }

    #[test]
    fn dedup_accounting_balances() {
        let catalog = TaraCatalog::from_model(&worksite_model());
        let report = space(&catalog, 3).enumerate();
        assert_eq!(report.enumerated, catalog.cells_per_variant() * 3);
        assert_eq!(report.distinct, catalog.distinct_per_variant() * 3);
        assert_eq!(
            report.enumerated,
            report.distinct + report.duplicates_folded
        );
        assert!(report.duplicates_folded > 0, "Table I rows must overlap");
    }

    #[test]
    fn same_seed_is_byte_identical_and_seeds_differ() {
        let catalog = TaraCatalog::from_model(&worksite_model());
        let a = ScenarioSpace::new(&catalog, 7, 4, 32).enumerate();
        let b = ScenarioSpace::new(&catalog, 7, 4, 32).enumerate();
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.ranking_jsonl(), b.ranking_jsonl());
        let c = ScenarioSpace::new(&catalog, 8, 4, 32).enumerate();
        assert_ne!(a.digest(), c.digest(), "seed must key the variants");
    }

    #[test]
    fn baseline_cells_reproduce_the_hand_built_assessment() {
        let model = worksite_model();
        let catalog = TaraCatalog::from_model(&model);
        let oracle = Tara::assess(&model);
        let cells = space(&catalog, 1).baseline_cells();
        assert_eq!(cells.len(), 8);
        for (threat_id, cell) in &cells {
            let expected = oracle
                .risks
                .iter()
                .find(|r| &r.threat_id == threat_id)
                .expect("grounding threat is assessed");
            assert_eq!(cell.impact, expected.impact, "{threat_id}");
            assert_eq!(cell.feasibility, expected.feasibility, "{threat_id}");
            assert_eq!(cell.risk, expected.risk, "{threat_id}");
            assert_eq!(cell.treatment, expected.treatment, "{threat_id}");
            assert!(cell.grounded);
        }
    }

    #[test]
    fn ranking_is_sorted_and_bounded() {
        let catalog = TaraCatalog::from_model(&worksite_model());
        let report = space(&catalog, 2).enumerate();
        assert_eq!(report.top.len(), 32);
        for w in report.top.windows(2) {
            assert!(w[0].risk >= w[1].risk);
        }
        // The worksite's headline risks must surface at the top.
        assert_eq!(report.top[0].risk, RiskLevel(5));
    }

    #[test]
    fn adverse_odd_escalates_only_safety_relevant_cells() {
        let catalog = TaraCatalog::from_model(&worksite_model());
        let s = space(&catalog, 1);
        let camera = catalog
            .classes
            .iter()
            .position(|c| c == "camera-blinding")
            .unwrap() as u16;
        let g = catalog.grounded[camera as usize].as_ref().unwrap();
        let clear = s.score_cell(camera, g.asset, 2, 0, 0);
        let fog = s.score_cell(camera, g.asset, 2, 1, 0);
        assert!(fog.impact >= clear.impact);
        assert!(fog.risk >= clear.risk);
    }
}
