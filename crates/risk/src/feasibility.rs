//! Attack-feasibility rating (ISO/SAE 21434 clause 15.7, attack-potential
//! approach).

use serde::{Deserialize, Serialize};

/// The attack-potential factors, each on its standard point scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttackPotential {
    /// Elapsed time needed: 0 (≤1 day) … 19 (>6 months).
    pub elapsed_time: u8,
    /// Specialist expertise: 0 (layman) … 8 (multiple experts).
    pub expertise: u8,
    /// Knowledge of the item: 0 (public) … 11 (strictly confidential).
    pub knowledge: u8,
    /// Window of opportunity: 0 (unlimited) … 10 (difficult).
    pub window: u8,
    /// Equipment: 0 (standard) … 9 (multiple bespoke).
    pub equipment: u8,
}

impl AttackPotential {
    /// Creates a rating, clamping each factor to its scale.
    #[must_use]
    pub fn new(elapsed_time: u8, expertise: u8, knowledge: u8, window: u8, equipment: u8) -> Self {
        AttackPotential {
            elapsed_time: elapsed_time.min(19),
            expertise: expertise.min(8),
            knowledge: knowledge.min(11),
            window: window.min(10),
            equipment: equipment.min(9),
        }
    }

    /// The summed attack-potential value.
    #[must_use]
    pub fn total(&self) -> u8 {
        self.elapsed_time + self.expertise + self.knowledge + self.window + self.equipment
    }

    /// Maps the total to an attack-feasibility rating
    /// ([`AttackFeasibility::from_total`]).
    #[must_use]
    pub fn feasibility(&self) -> AttackFeasibility {
        AttackFeasibility::from_total(self.total())
    }
}

/// The 21434 attack-feasibility levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum AttackFeasibility {
    /// Considerable resources required.
    VeryLow,
    /// Significant resources required.
    Low,
    /// Moderate resources required.
    Medium,
    /// Attack is easy to mount.
    High,
}

impl AttackFeasibility {
    /// The 21434 table from a summed attack-potential total to a
    /// feasibility rating: higher potential required ⇒ lower
    /// feasibility. The one such table; every rating reads it.
    #[must_use]
    pub fn from_total(total: u8) -> Self {
        match total {
            0..=13 => AttackFeasibility::High,
            14..=19 => AttackFeasibility::Medium,
            20..=24 => AttackFeasibility::Low,
            _ => AttackFeasibility::VeryLow,
        }
    }

    /// Numeric value 0–3 for risk matrices.
    #[must_use]
    pub fn value(self) -> u8 {
        match self {
            AttackFeasibility::VeryLow => 0,
            AttackFeasibility::Low => 1,
            AttackFeasibility::Medium => 2,
            AttackFeasibility::High => 3,
        }
    }

    /// Raises feasibility by one level (evidence the attack is happening
    /// in the field — used by continuous assessment).
    #[must_use]
    pub fn escalate(self) -> AttackFeasibility {
        match self {
            AttackFeasibility::VeryLow => AttackFeasibility::Low,
            AttackFeasibility::Low => AttackFeasibility::Medium,
            _ => AttackFeasibility::High,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamping() {
        let p = AttackPotential::new(200, 200, 200, 200, 200);
        assert_eq!(p.total(), 19 + 8 + 11 + 10 + 9);
    }

    #[test]
    fn thresholds() {
        assert_eq!(
            AttackPotential::new(0, 0, 0, 0, 0).feasibility(),
            AttackFeasibility::High
        );
        assert_eq!(
            AttackPotential::new(13, 0, 0, 0, 0).feasibility(),
            AttackFeasibility::High
        );
        assert_eq!(
            AttackPotential::new(14, 0, 0, 0, 0).feasibility(),
            AttackFeasibility::Medium
        );
        assert_eq!(
            AttackPotential::new(19, 1, 0, 0, 0).feasibility(),
            AttackFeasibility::Low
        );
        assert_eq!(
            AttackPotential::new(19, 6, 0, 0, 0).feasibility(),
            AttackFeasibility::VeryLow
        );
    }

    #[test]
    fn feasibility_ordering() {
        assert!(AttackFeasibility::VeryLow < AttackFeasibility::High);
        assert_eq!(AttackFeasibility::High.value(), 3);
    }

    #[test]
    fn escalation_saturates() {
        assert_eq!(
            AttackFeasibility::VeryLow.escalate(),
            AttackFeasibility::Low
        );
        assert_eq!(
            AttackFeasibility::Medium.escalate(),
            AttackFeasibility::High
        );
        assert_eq!(AttackFeasibility::High.escalate(), AttackFeasibility::High);
    }

    #[test]
    fn more_potential_never_raises_feasibility() {
        let mut last = AttackFeasibility::High;
        for t in 0..40u8 {
            let p = AttackPotential::new(t.min(19), t.saturating_sub(19).min(8), 0, 0, 0);
            let f = p.feasibility();
            assert!(f <= last, "feasibility rose with potential at {t}");
            last = f;
        }
    }
}
