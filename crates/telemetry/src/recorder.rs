//! The flight recorder: a cheap, cloneable handle threaded through the
//! instrumented stack, mirroring how `SimRng` flows.

use crate::event::{Event, EventFilter, Record};
use crate::ring::RingBuffer;
use silvasec_sim::SimTime;
use std::cell::RefCell;
use std::rc::Rc;

/// Handle to a subscriber ring inside a [`Recorder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubscriberId(usize);

/// Ring-buffer accounting for one recorder subscriber.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubscriberStats {
    /// Subscriber name.
    pub name: String,
    /// Ring capacity in records.
    pub capacity: u64,
    /// Records currently held.
    pub len: u64,
    /// Records ever pushed to this subscriber.
    pub pushed: u64,
    /// Records evicted by ring overwrites (event loss).
    pub dropped: u64,
}

impl SubscriberStats {
    /// Fraction of pushed records that were dropped (0 when none pushed).
    #[must_use]
    pub fn drop_rate(&self) -> f64 {
        if self.pushed == 0 {
            0.0
        } else {
            self.dropped as f64 / self.pushed as f64
        }
    }
}

#[derive(Debug)]
struct Subscriber {
    name: String,
    filter: EventFilter,
    ring: RingBuffer,
}

#[derive(Debug)]
struct Core {
    now: SimTime,
    seq: u64,
    subscribers: Vec<Subscriber>,
}

/// A deterministic structured-event recorder.
///
/// The recorder is a cheap, cloneable handle (`Rc`-backed); every clone
/// shares the same core, so the owning component (`Worksite`) can hand
/// clones to the medium, the attack engine, the IDS, sessions and boot
/// devices without any global mutable state. A [`Recorder::disabled`]
/// handle turns every operation into a no-op, so instrumented code never
/// branches on an `Option`.
///
/// Time never comes from the wall clock: the owner calls
/// [`Recorder::advance`] once per simulation tick and every recorded
/// event is stamped with that [`SimTime`] plus a monotonic sequence
/// number. Identical seeds therefore produce byte-identical exports.
///
/// ```
/// use silvasec_telemetry::{Event, EventFilter, Label, Recorder};
/// use silvasec_sim::SimTime;
///
/// let rec = Recorder::new();
/// let flight = rec.subscribe("flight", 1024);
/// rec.advance(SimTime::from_millis(500));
/// rec.record(Event::Custom { key: Label::new("k"), value: 1 });
/// assert_eq!(rec.records(flight).len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    core: Option<Rc<RefCell<Core>>>,
}

impl Recorder {
    /// Creates an enabled recorder with no subscribers yet.
    #[must_use]
    pub fn new() -> Self {
        Recorder {
            core: Some(Rc::new(RefCell::new(Core {
                now: SimTime::ZERO,
                seq: 0,
                subscribers: Vec::new(),
            }))),
        }
    }

    /// Creates a disabled recorder: every operation is a no-op and
    /// recording costs a single pointer check.
    #[must_use]
    pub fn disabled() -> Self {
        Recorder { core: None }
    }

    /// Returns `true` when this handle records events.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// Adds a subscriber receiving every event, with a ring of
    /// `capacity` records. Returns a no-op id on a disabled recorder.
    pub fn subscribe(&self, name: &str, capacity: usize) -> SubscriberId {
        self.subscribe_filtered(name, capacity, EventFilter::all())
    }

    /// Adds a subscriber receiving only events allowed by `filter`.
    pub fn subscribe_filtered(
        &self,
        name: &str,
        capacity: usize,
        filter: EventFilter,
    ) -> SubscriberId {
        match &self.core {
            Some(core) => {
                let mut c = core.borrow_mut();
                c.subscribers.push(Subscriber {
                    name: name.to_string(),
                    filter,
                    ring: RingBuffer::new(capacity),
                });
                SubscriberId(c.subscribers.len() - 1)
            }
            None => SubscriberId(usize::MAX),
        }
    }

    /// Resets the shared core for a new episode: clock and sequence
    /// number to zero, every subscriber ring emptied with its counters
    /// zeroed. Subscriber ids, names, filters, capacities and all
    /// allocations are preserved, so instrumented components keep their
    /// handles across episodes. No-op when disabled.
    pub fn reset(&self) {
        if let Some(core) = &self.core {
            let mut c = core.borrow_mut();
            c.now = SimTime::ZERO;
            c.seq = 0;
            for sub in &mut c.subscribers {
                sub.ring.reset();
            }
        }
    }

    /// Advances the recorder's clock; subsequent [`Recorder::record`]
    /// calls are stamped with `now`.
    pub fn advance(&self, now: SimTime) {
        if let Some(core) = &self.core {
            core.borrow_mut().now = now;
        }
    }

    /// Current recorder time ([`SimTime::ZERO`] when disabled).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.core.as_ref().map_or(SimTime::ZERO, |c| c.borrow().now)
    }

    /// Records an event at the current recorder time.
    pub fn record(&self, event: Event) {
        if let Some(core) = &self.core {
            let mut c = core.borrow_mut();
            let at = c.now;
            c.push(at, event);
        }
    }

    /// Records an event at an explicit time (used by components that
    /// receive `now` as a parameter).
    pub fn record_at(&self, at: SimTime, event: Event) {
        if let Some(core) = &self.core {
            core.borrow_mut().push(at, event);
        }
    }

    /// Total number of events recorded (across all subscribers' filters).
    #[must_use]
    pub fn events_recorded(&self) -> u64 {
        self.core.as_ref().map_or(0, |c| c.borrow().seq)
    }

    /// Copies a subscriber's held records, oldest first.
    #[must_use]
    pub fn records(&self, id: SubscriberId) -> Vec<Record> {
        match &self.core {
            Some(core) => core
                .borrow()
                .subscribers
                .get(id.0)
                .map_or_else(Vec::new, |s| s.ring.to_vec()),
            None => Vec::new(),
        }
    }

    /// Removes and returns a subscriber's held records, oldest first.
    /// Ring counters (pushed/dropped) are preserved.
    pub fn drain(&self, id: SubscriberId) -> Vec<Record> {
        match &self.core {
            Some(core) => core
                .borrow_mut()
                .subscribers
                .get_mut(id.0)
                .map_or_else(Vec::new, |s| s.ring.drain()),
            None => Vec::new(),
        }
    }

    /// Serializes a subscriber's held records as JSON Lines (one record
    /// per line, oldest first, trailing newline).
    #[must_use]
    pub fn export_jsonl(&self, id: SubscriberId) -> String {
        let mut out = String::new();
        if let Some(core) = &self.core {
            let c = core.borrow();
            if let Some(s) = c.subscribers.get(id.0) {
                for r in s.ring.iter() {
                    // Serialization of plain-old-data records cannot fail.
                    if let Ok(line) = serde_json::to_string(r) {
                        out.push_str(&line);
                        out.push('\n');
                    }
                }
            }
        }
        out
    }

    /// Ring statistics for every subscriber, including drop counts, so
    /// silent event loss is always visible.
    #[must_use]
    pub fn stats(&self) -> Vec<SubscriberStats> {
        match &self.core {
            Some(core) => core
                .borrow()
                .subscribers
                .iter()
                .map(|s| SubscriberStats {
                    name: s.name.clone(),
                    capacity: s.ring.capacity() as u64,
                    len: s.ring.len() as u64,
                    pushed: s.ring.pushed(),
                    dropped: s.ring.dropped(),
                })
                .collect(),
            None => Vec::new(),
        }
    }
}

impl Core {
    fn push(&mut self, at: SimTime, event: Event) {
        let record = Record {
            at,
            seq: self.seq,
            event,
        };
        self.seq += 1;
        let kind = event.kind();
        for sub in &mut self.subscribers {
            if sub.filter.allows(kind) {
                sub.ring.push(record);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, Label};

    fn custom(v: i64) -> Event {
        Event::Custom {
            key: Label::new("t"),
            value: v,
        }
    }

    #[test]
    fn clones_share_one_core() {
        let rec = Recorder::new();
        let sub = rec.subscribe("flight", 16);
        let handle = rec.clone();
        handle.advance(SimTime::from_millis(250));
        handle.record(custom(1));
        let records = rec.records(sub);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].at, SimTime::from_millis(250));
        assert_eq!(records[0].seq, 0);
        assert_eq!(rec.events_recorded(), 1);
    }

    #[test]
    fn disabled_recorder_is_a_no_op() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        let sub = rec.subscribe("flight", 16);
        rec.advance(SimTime::from_secs(9));
        rec.record(custom(1));
        assert!(rec.records(sub).is_empty());
        assert_eq!(rec.events_recorded(), 0);
        assert!(rec.stats().is_empty());
        assert!(rec.export_jsonl(sub).is_empty());
    }

    #[test]
    fn filtered_subscriber_sees_only_its_kinds() {
        let rec = Recorder::new();
        let all = rec.subscribe("flight", 16);
        let security = rec.subscribe_filtered(
            "security",
            16,
            EventFilter::none().with(EventKind::IdsAlert),
        );
        rec.record(custom(1));
        rec.record(Event::IdsAlert {
            class: Label::new("jamming"),
            severity: Label::new("high"),
        });
        assert_eq!(rec.records(all).len(), 2);
        let sec = rec.records(security);
        assert_eq!(sec.len(), 1);
        assert_eq!(sec[0].seq, 1, "sequence numbers are global");
    }

    #[test]
    fn overflow_drops_are_visible_in_stats() {
        // Silent event loss can never masquerade as a clean trace:
        // drops must show up in the ring statistics.
        let rec = Recorder::new();
        let _sub = rec.subscribe("tiny", 4);
        for i in 0..20 {
            rec.record(custom(i));
        }
        let stats = rec.stats();
        assert_eq!(stats.len(), 1);
        assert_eq!((stats[0].pushed, stats[0].dropped), (20, 16));
        assert_eq!((stats[0].capacity, stats[0].len), (4, 4));
        assert!((stats[0].drop_rate() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn export_jsonl_is_one_record_per_line() {
        let rec = Recorder::new();
        let sub = rec.subscribe("flight", 8);
        rec.advance(SimTime::from_millis(500));
        rec.record(custom(1));
        rec.record(custom(2));
        let jsonl = rec.export_jsonl(sub);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        let back: Record = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(back.event, custom(1));
        assert!(jsonl.ends_with('\n'));
    }

    #[test]
    fn drain_empties_but_keeps_accounting() {
        let rec = Recorder::new();
        let sub = rec.subscribe("flight", 2);
        for i in 0..5 {
            rec.record(custom(i));
        }
        let drained = rec.drain(sub);
        assert_eq!(drained.len(), 2);
        assert!(rec.records(sub).is_empty());
        let stats = rec.stats();
        assert_eq!(stats[0].pushed, 5);
        assert_eq!(stats[0].dropped, 3);
    }
}
