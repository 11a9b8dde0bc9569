//! Generative threat analysis and risk assessment for the silvasec
//! worksite.
//!
//! The hand-curated TARA of `silvasec-risk` scores ten threat scenarios
//! an expert wrote down — exactly the manual bottleneck the paper's
//! certification pathway inherits from ISO/SAE 21434. This crate
//! *derives* the scenario set instead: threat scenarios are enumerated
//! as the cross product of the worksite asset model, the forestry
//! attack catalog (the paper's Table I), the entry-point surface and
//! the operational-design-domain conditions, then scored with the same
//! 21434 impact/feasibility matrices the hand-built assessment uses.
//!
//! * [`catalog`] — the generative axes, distilled from a
//!   [`WorksiteModel`](silvasec_risk::threat::WorksiteModel): distinct
//!   attack classes with their Table I surface rows, asset ids,
//!   entry points, ODD conditions, and the hand-built threats as
//!   *grounding* (baseline attack paths and impact ratings).
//! * [`engine`] — the enumerator/scorer: walks the cross product,
//!   dedups by a canonical SplitMix64 scenario hash
//!   ([`engine::scenario_hash`]), scores every distinct scenario and
//!   keeps a deterministic top-k risk ranking. Sequential and
//!   `par_sweep`-parallel enumeration are bit-identical.
//! * [`topk`] — the order-independent bounded ranking the engine and
//!   its parallel shards merge through.
//! * [`hypothesis`] — the live end: the top-k ranking becomes a set of
//!   *hypotheses* that fleet SIEM evidence (correlated campaigns by
//!   attack class) confirms, and completed mitigations retire. Every
//!   transition is a `TaraHypothesis` telemetry event, so the
//!   hypothesis state replays from the JSONL trace alone.
//!
//! # Determinism contract
//!
//! Given the same model, seed and configuration, enumeration produces a
//! byte-identical ranking regardless of worker count or enumeration
//! order: scenario identity is a pure function of the canonical axis
//! tuple, scoring is pure arithmetic, and the top-k order is total
//! (risk descending, then the canonical tuple ascending). Duplicate
//! cells — the same canonical scenario reached through different
//! Table I rows — fold into one. The engine's unit tests and the crate's
//! proptests assert parallel == sequential, same-seed byte-identity and
//! the dedup accounting, and cross-check grounded baseline cells against
//! the hand-built assessment `exp3_tara` prints. Hypothesis
//! confirm/retire is idempotent under duplicate SIEM evidence, and the
//! hypothesis set replays from the transition trace alone
//! (`tara_hypotheses_confirm_retire_and_replay_from_the_trace`, and
//! every round of the pathway benchmark).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod engine;
pub mod hypothesis;
pub mod topk;

pub use catalog::TaraCatalog;
pub use engine::{scenario_hash, EnumerationReport, ScenarioSpace, ScoredScenario};
pub use hypothesis::{HypothesisSet, HypothesisStatus, TaraHypothesis};
pub use topk::TopK;

/// Convenient glob import of the crate's primary types.
pub mod prelude {
    pub use crate::catalog::TaraCatalog;
    pub use crate::engine::{scenario_hash, EnumerationReport, ScenarioSpace, ScoredScenario};
    pub use crate::hypothesis::{HypothesisSet, HypothesisStatus, TaraHypothesis};
    pub use crate::topk::TopK;
}
