//! Deterministic incident-response operations for the silvasec fleet.
//!
//! The paper's CE-certification argument assumes detections are
//! *handled*: an alert that nobody triages, contains, remediates and
//! verifies is not operational evidence. This crate turns the one-shot
//! `ids::response` actions into a full incident lifecycle with an audit
//! trail that replays byte-identically from the telemetry trace:
//!
//! * [`queue`] — a durable in-sim queue: SimTime-stamped, lease-based
//!   (visibility timeout, max-delivery → dead-letter), deterministic
//!   backoff with SplitMix64 hash jitter. No wall clock, no threads —
//!   "durable" means every state change is also a telemetry event, so
//!   the queue's history is exactly reconstructible from the JSONL
//!   trace.
//! * [`workflow`] — the typed step machine `Triage → Contain → Gate →
//!   Remediate → Verify → Close` with `Escalate`/`Reject` edges and the
//!   Silas retry → consult → re-plan → escalate failure ladder.
//! * [`run_store`] — the replayable run store: runs keyed by canonical
//!   incident hash with dedup, a content digest, a
//!   `first_divergence`-style run differ, and
//!   [`run_store::RunStore::replay_from_jsonl`] which rebuilds the
//!   whole store from nothing but recorded `Ops*` events.
//! * [`gate`] — review gates between containment and remediation:
//!   severity-based auto-approve policies, explicit reviewer verdicts,
//!   and a review timeout that escalates instead of stalling.
//! * [`engine`] — [`engine::OpsEngine`] ties the above together and
//!   speaks to the host (the fleet layer, or a synthetic harness) in
//!   commands: `tick(now)` returns [`engine::OpsCommand`]s to execute,
//!   the host reports each outcome via `complete(id, ok, now)`. The
//!   engine never touches fleet types, so `fleet → ops` is the only
//!   dependency direction.
//!
//! # Determinism contract
//!
//! Given the same seed, configuration and incident arrivals, two runs
//! produce byte-identical run stores ([`run_store::RunStore::digest`])
//! and byte-identical `Ops*` telemetry JSONL; and a store replayed from
//! that JSONL is digest-identical to the live one. The tests
//! `ops_load_settles_conserves_and_replays` (a 100-incident synthetic
//! load) and `same_seed_history_is_byte_identical_and_replays` (ops
//! proptests) assert all three, and the pathway benchmark re-checks the
//! replay every round.

pub mod engine;
pub mod gate;
pub mod incident;
pub mod queue;
pub mod run_store;
pub mod workflow;

pub use engine::{Action, OpsCommand, OpsConfig, OpsEngine};
pub use gate::{GateDecision, GatePolicy};
pub use incident::{Incident, IncidentScope, FLEET_SITE};
pub use queue::{DurableQueue, QueueConfig, QueueCounters};
pub use run_store::{RunRecord, RunStore, StoreCounters, Transition};
pub use workflow::{LadderAction, LadderPolicy, Step};
