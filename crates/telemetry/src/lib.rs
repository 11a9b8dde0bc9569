//! # silvasec-telemetry — deterministic flight recorder
//!
//! The observability substrate of the SilvaSec stack: a structured,
//! `SimTime`-stamped event recorder and a trace export/diff toolkit,
//! built for the simulator's two hard rules:
//!
//! 1. **Determinism.** No wall clock anywhere: events are stamped with
//!    the simulation clock ([`Recorder::advance`]) and a monotonic
//!    sequence number, so identically-seeded runs export byte-identical
//!    JSONL traces — and [`export::first_divergence`] pinpoints the
//!    first divergent event when they don't.
//! 2. **Zero allocation on the hot path.** [`Event`] is a `Copy` enum
//!    whose strings are inline [`Label`]s; recording writes into
//!    pre-sized ring buffers ([`ring::RingBuffer`]) that overwrite their
//!    oldest entry when full and count every drop.
//!
//! There is no global mutable state: a [`Recorder`] handle is threaded
//! through the instrumented components exactly the way `SimRng` flows,
//! and [`Recorder::disabled`] makes every call a no-op pointer check so
//! instrumentation stays in release builds for free.
//!
//! Subscribers attach bounded rings with per-kind filters
//! ([`EventFilter`]); the worksite uses an unfiltered "flight" ring for
//! full traffic plus a low-volume [`EventFilter::security`] ring so the
//! first IDS alerts of an episode survive frame-traffic churn. Every
//! ring's drop accounting is in [`Recorder::stats`], so silent event
//! loss is always visible.
//!
//! ```
//! use silvasec_sim::SimTime;
//! use silvasec_telemetry::{Event, Label, Recorder};
//!
//! let recorder = Recorder::new();
//! let flight = recorder.subscribe("flight", 4096);
//! recorder.advance(SimTime::from_millis(500));
//! recorder.record(Event::IdsAlert {
//!     class: Label::new("jamming"),
//!     severity: Label::new("high"),
//! });
//! let jsonl = recorder.export_jsonl(flight);
//! assert_eq!(jsonl.lines().count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod export;
pub mod recorder;
pub mod ring;

pub use event::{Event, EventFilter, EventKind, Label, Record, LABEL_CAPACITY};
pub use export::{first_divergence, first_divergence_jsonl, Divergence};
pub use recorder::{Recorder, SubscriberId, SubscriberStats};
pub use ring::RingBuffer;

/// Convenience re-exports for `use silvasec_telemetry::prelude::*`.
pub mod prelude {
    pub use crate::event::{Event, EventFilter, EventKind, Label, Record};
    pub use crate::recorder::{Recorder, SubscriberId, SubscriberStats};
}

#[cfg(test)]
mod tests {
    use super::*;
    use silvasec_sim::SimTime;

    #[test]
    fn end_to_end_record_export_parse_diff() {
        let run = |vals: &[i64]| {
            let rec = Recorder::new();
            let sub = rec.subscribe("flight", 128);
            for (i, v) in vals.iter().enumerate() {
                rec.advance(SimTime::from_millis(500 * i as u64));
                rec.record(Event::Custom {
                    key: Label::new("step"),
                    value: *v,
                });
            }
            rec.export_jsonl(sub)
        };
        let a = run(&[1, 2, 3]);
        let b = run(&[1, 2, 3]);
        assert_eq!(first_divergence_jsonl(&a, &b).unwrap(), None);
        let c = run(&[1, 5, 3]);
        let d = first_divergence_jsonl(&a, &c).unwrap().unwrap();
        assert_eq!(d.index, 1);
        let records = export::parse_jsonl_records(&a).unwrap();
        assert_eq!(records.len(), 3);
    }
}
