//! The generative axes: what the cross product ranges over.
//!
//! A [`TaraCatalog`] is distilled from a
//! [`WorksiteModel`]: the distinct attack classes (with every Table I
//! surface row that exposes them), the asset ids, a fixed entry-point
//! vocabulary, and the ODD conditions (the model's SOTIF triggering
//! conditions plus the clear-weather baseline). The hand-built threat
//! scenarios *ground* the catalog: for a (class, asset) pair the expert
//! already assessed, the generator starts from the expert's attack
//! paths and impact rating, so the baseline cell reproduces the
//! hand-built score exactly (the `exp3_tara` oracle cross-check).

use serde::Serialize;
use silvasec_risk::catalog::ForestryCharacteristic;
use silvasec_risk::impact::{ImpactCategory, ImpactRating};
use silvasec_risk::threat::WorksiteModel;

/// The entry-point surface every scenario is reached through. The
/// vocabulary is fixed: entry points are *how* the attacker touches the
/// worksite, not *what* they attack, and the worksite's physical
/// surface does not change with the model.
pub const ENTRY_POINTS: [&str; 5] = [
    "ep.radio-link",
    "ep.gnss-band",
    "ep.optical-path",
    "ep.update-channel",
    "ep.physical-access",
];

/// The ODD condition under which nothing is degraded (the baseline
/// cell of the ODD axis; adverse conditions come from the model's
/// SOTIF triggering conditions).
pub const CLEAR_ODD: &str = "odd.clear";

/// Attack potential a non-native entry point adds to every path: the
/// attacker must first build a foothold on a surface the attack class
/// was not designed for.
pub const ENTRY_PENALTY: u8 = 6;

/// Base attack-potential total for a (class, asset) pair no hand-built
/// threat grounds — a moderate two-step campaign (cf. the `moderate`
/// step builder of the hand-built catalog, total 15).
pub const UNGROUNDED_BASE_TOTAL: u8 = 15;

/// Grounding of one attack class by a hand-built threat scenario.
#[derive(Debug, Clone, Serialize)]
pub struct Grounding {
    /// The hand-built threat scenario id (e.g. `"ts.gnss-spoofing"`).
    pub threat_id: String,
    /// Index (into [`TaraCatalog::assets`]) of the asset the threat's
    /// damage scenario attacks.
    pub asset: u16,
    /// The hand-built threat's
    /// [`required_potential`](silvasec_risk::threat::ThreatScenario::required_potential):
    /// its easiest path's hardest step.
    pub base_total: u8,
    /// The hand-built damage scenario's impact rating.
    pub impact: ImpactRating,
}

/// The generative axes distilled from one worksite model.
#[derive(Debug, Clone)]
pub struct TaraCatalog {
    /// Distinct attack classes, sorted — the canonical class index
    /// order every hash and ranking tiebreak uses.
    pub classes: Vec<String>,
    /// Table I surface rows as (characteristic, class index) pairs —
    /// the *enumeration source*. Classes exposed by several
    /// characteristics appear once per row, so the cross product
    /// produces duplicate canonical scenarios that dedup must fold.
    pub rows: Vec<(ForestryCharacteristic, u16)>,
    /// Asset ids, in model order.
    pub assets: Vec<String>,
    /// ODD conditions: [`CLEAR_ODD`] first, then the model's
    /// triggering-condition ids in model order.
    pub odd_conditions: Vec<String>,
    /// Per-class grounding from the hand-built threats (index-aligned
    /// with `classes`; `None` for classes no hand-built threat covers).
    pub grounded: Vec<Option<Grounding>>,
    /// Per-asset worst-case impact rating, merged per category across
    /// the model's damage scenarios on that asset (used for ungrounded
    /// cells).
    pub asset_impacts: Vec<ImpactRating>,
}

/// Merges two impact ratings per category (worst case wins).
fn merge_ratings(a: &ImpactRating, b: &ImpactRating) -> ImpactRating {
    let mut merged = ImpactRating::new();
    for cat in ImpactCategory::ALL {
        merged = merged.with(cat, a.level(cat).max(b.level(cat)));
    }
    merged
}

impl TaraCatalog {
    /// Distils the generative axes from a worksite model and the
    /// Table I attack catalog.
    #[must_use]
    pub fn from_model(model: &WorksiteModel) -> Self {
        // Distinct classes across Table I *and* the model's threats
        // (either side may name a class the other does not), sorted
        // for a canonical index order.
        let mut classes: Vec<String> = ForestryCharacteristic::ALL
            .iter()
            .flat_map(|c| c.attack_classes().iter().map(|s| (*s).to_string()))
            .chain(model.threats.iter().filter_map(|t| t.attack_class.clone()))
            .collect();
        classes.sort();
        classes.dedup();

        let class_index = |name: &str| -> u16 {
            classes
                .iter()
                .position(|c| c == name)
                .expect("class collected above") as u16
        };

        // One surface row per (characteristic, class) pair of Table I;
        // classes the model grounds but no characteristic exposes still
        // enumerate via a synthetic ThreatProfile row, so grounding is
        // never silently dropped.
        let mut rows: Vec<(ForestryCharacteristic, u16)> = ForestryCharacteristic::ALL
            .iter()
            .flat_map(|c| {
                c.attack_classes()
                    .iter()
                    .map(move |class| (*c, class_index(class)))
            })
            .collect();
        for (i, _) in classes.iter().enumerate() {
            if !rows.iter().any(|(_, ci)| *ci == i as u16) {
                rows.push((ForestryCharacteristic::ThreatProfile, i as u16));
            }
        }

        let assets: Vec<String> = model.assets.iter().map(|a| a.id.clone()).collect();
        let asset_index =
            |id: &str| -> Option<u16> { assets.iter().position(|a| a == id).map(|i| i as u16) };

        let mut odd_conditions = vec![CLEAR_ODD.to_string()];
        odd_conditions.extend(model.triggering_conditions.iter().map(|tc| tc.id.clone()));

        let mut grounded: Vec<Option<Grounding>> = vec![None; classes.len()];
        for threat in &model.threats {
            let Some(class) = threat.attack_class.as_deref() else {
                continue;
            };
            let Some(ds) = model.damage_scenario(&threat.damage_scenario_id) else {
                continue;
            };
            let Some(asset) = asset_index(&ds.asset_id) else {
                continue;
            };
            let Some(base_total) = threat.required_potential() else {
                continue;
            };
            let slot = &mut grounded[class_index(class) as usize];
            // First grounding wins; the hand-built model keeps one
            // threat per class, so this is belt-and-braces.
            if slot.is_none() {
                *slot = Some(Grounding {
                    threat_id: threat.id.clone(),
                    asset,
                    base_total,
                    impact: ds.impact.clone(),
                });
            }
        }

        let asset_impacts: Vec<ImpactRating> = assets
            .iter()
            .map(|id| {
                model
                    .damage_scenarios
                    .iter()
                    .filter(|ds| &ds.asset_id == id)
                    .fold(ImpactRating::new(), |acc, ds| {
                        merge_ratings(&acc, &ds.impact)
                    })
            })
            .collect();

        TaraCatalog {
            classes,
            rows,
            assets,
            odd_conditions,
            grounded,
            asset_impacts,
        }
    }

    /// The entry point an attack class natively comes through (index
    /// into [`ENTRY_POINTS`]); every other entry point costs
    /// [`ENTRY_PENALTY`] extra attack potential.
    #[must_use]
    pub fn native_entry(class: &str) -> u8 {
        match class {
            "gnss-spoofing" | "gnss-jamming" => 1,
            "camera-blinding" => 2,
            "firmware-tampering" => 3,
            // Radio-borne classes (jamming, deauth, replay, rogue
            // node) and anything unknown default to the radio link.
            _ => 0,
        }
    }

    /// Cells one variant of the cross product enumerates (before
    /// dedup): surface rows × assets × entry points × ODD conditions.
    #[must_use]
    pub fn cells_per_variant(&self) -> u64 {
        self.rows.len() as u64
            * self.assets.len() as u64
            * ENTRY_POINTS.len() as u64
            * self.odd_conditions.len() as u64
    }

    /// Distinct canonical scenarios one variant holds (classes ×
    /// assets × entry points × ODD conditions).
    #[must_use]
    pub fn distinct_per_variant(&self) -> u64 {
        self.classes.len() as u64
            * self.assets.len() as u64
            * ENTRY_POINTS.len() as u64
            * self.odd_conditions.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silvasec_risk::catalog::worksite_model;
    use silvasec_risk::impact::ImpactLevel;

    #[test]
    fn catalog_distils_the_worksite_model() {
        let catalog = TaraCatalog::from_model(&worksite_model());
        assert_eq!(catalog.classes.len(), 8, "{:?}", catalog.classes);
        assert!(catalog.rows.len() > catalog.classes.len(), "duplicates");
        assert_eq!(catalog.assets.len(), 10);
        assert_eq!(catalog.odd_conditions.len(), 5);
        assert_eq!(catalog.odd_conditions[0], CLEAR_ODD);
        // Every class of the hand-built model is grounded.
        for (i, g) in catalog.grounded.iter().enumerate() {
            assert!(g.is_some(), "class {} ungrounded", catalog.classes[i]);
        }
    }

    #[test]
    fn grounding_reproduces_hand_built_feasibility_totals() {
        let model = worksite_model();
        let catalog = TaraCatalog::from_model(&model);
        for threat in model.threats.iter().filter(|t| t.attack_class.is_some()) {
            let class = threat.attack_class.as_deref().unwrap();
            let idx = catalog.classes.iter().position(|c| c == class).unwrap();
            let g = catalog.grounded[idx].as_ref().unwrap();
            assert_eq!(g.threat_id, threat.id);
            let expected: u8 = threat
                .attack_paths
                .iter()
                .filter_map(|p| p.iter().map(|s| s.potential.total()).max())
                .min()
                .unwrap();
            assert_eq!(g.base_total, expected);
        }
    }

    #[test]
    fn asset_impacts_take_the_worst_damage_scenario() {
        let model = worksite_model();
        let catalog = TaraCatalog::from_model(&model);
        let gnss = catalog.assets.iter().position(|a| a == "fw.gnss").unwrap();
        // fw.gnss carries both ds.nav-corrupted (Severe safety) and
        // ds.nav-denied (Major operational): the merge keeps Severe.
        assert_eq!(catalog.asset_impacts[gnss].overall(), ImpactLevel::Severe);
    }

    #[test]
    fn every_class_appears_in_some_row() {
        let catalog = TaraCatalog::from_model(&worksite_model());
        for i in 0..catalog.classes.len() {
            assert!(catalog.rows.iter().any(|(_, ci)| *ci == i as u16));
        }
    }
}
