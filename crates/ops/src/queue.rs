//! The durable in-sim incident queue.
//!
//! "Durable" in a deterministic simulation does not mean fsync: it
//! means every state change the queue makes is also recorded as a
//! telemetry event by the engine driving it, so the queue's entire
//! history is reconstructible from the JSONL trace. The queue itself is
//! pure data — SimTime-stamped, lease-based, with deterministic
//! backoff — and never reads a clock or an RNG stream; redelivery
//! jitter is a stateless SplitMix64 hash of `(seed, run, delivery)`, so
//! evaluation order cannot perturb anything.
//!
//! # Lifecycle
//!
//! ```text
//! enqueue ─▶ ready ─lease(now)─▶ in-flight ─ack─▶ done
//!              ▲                    │
//!              │   nack / lease expiry, deliveries < max
//!              └────(backoff: base·2^(d−1) + jitter)───┘
//!                                   │ deliveries ≥ max
//!                                   ▼
//!                              dead letter
//! ```
//!
//! # Conservation invariant
//!
//! At every instant `enqueued == acked + dead_lettered + ready +
//! in_flight` — no message is ever lost or duplicated. The ops
//! proptests drive random operation sequences against the invariant;
//! `ops_load_settles_conserves_and_replays` checks it at idle after a
//! synthetic incident load, where nothing is ready or in flight.

use silvasec_sim::rng::hash3;
use std::collections::{BTreeMap, BTreeSet};

/// Queue tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueConfig {
    /// How long a lease lasts before the message is considered
    /// abandoned and redelivered.
    pub visibility_timeout_ms: u64,
    /// Deliveries after which a message is dead-lettered instead of
    /// redelivered.
    pub max_deliveries: u32,
    /// Backoff base: a message nacked on delivery `d` becomes available
    /// again after `base · 2^(d−1)` ms (capped at 2^10·base) plus
    /// jitter.
    pub backoff_base_ms: u64,
    /// Exclusive upper bound on the deterministic backoff jitter.
    pub backoff_jitter_ms: u64,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig {
            visibility_timeout_ms: 10_000,
            max_deliveries: 6,
            backoff_base_ms: 500,
            backoff_jitter_ms: 250,
        }
    }
}

/// Monotonic queue accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueCounters {
    /// Unique messages accepted.
    pub enqueued: u64,
    /// Leases granted (first deliveries and redeliveries).
    pub leased: u64,
    /// Redeliveries granted (leases beyond a message's first).
    pub redelivered: u64,
    /// Messages acknowledged (removed successfully).
    pub acked: u64,
    /// Explicit negative acknowledgements.
    pub nacked: u64,
    /// Leases that expired before ack/nack.
    pub lease_expired: u64,
    /// Messages dead-lettered after exhausting deliveries.
    pub dead_lettered: u64,
}

#[derive(Debug, Clone, Copy)]
struct Msg {
    delivery: u32,
    /// When the message becomes leasable (ready messages only).
    avail_at: u64,
    /// Current lease expiry (in-flight messages only).
    lease_expiry: u64,
    in_flight: bool,
}

/// What one [`DurableQueue::tick`] call did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueueTick {
    /// Runs whose lease expired and were re-queued, with the delivery
    /// count the expired lease had consumed.
    pub expired: Vec<(u64, u32)>,
    /// Runs dead-lettered this tick, with total deliveries consumed.
    pub dead: Vec<(u64, u32)>,
}

/// The lease-based durable queue. Messages are keyed by run id.
#[derive(Debug, Clone)]
pub struct DurableQueue {
    config: QueueConfig,
    seed: u64,
    msgs: BTreeMap<u64, Msg>,
    /// Ready messages ordered by `(avail_at, run)` — lease order is a
    /// pure function of queue content, never of insertion history.
    ready: BTreeSet<(u64, u64)>,
    /// In-flight messages ordered by `(lease_expiry, run)`.
    in_flight: BTreeSet<(u64, u64)>,
    /// Dead-lettered `(run, deliveries)` in dead-letter order.
    dead: Vec<(u64, u32)>,
    counters: QueueCounters,
}

impl DurableQueue {
    /// Creates an empty queue. `seed` keys the deterministic backoff
    /// jitter.
    ///
    /// # Panics
    ///
    /// Panics if `max_deliveries` is zero — a queue that may never
    /// deliver is a configuration bug.
    #[must_use]
    pub fn new(config: QueueConfig, seed: u64) -> Self {
        assert!(config.max_deliveries > 0, "max_deliveries must be > 0");
        DurableQueue {
            config,
            seed,
            msgs: BTreeMap::new(),
            ready: BTreeSet::new(),
            in_flight: BTreeSet::new(),
            dead: Vec::new(),
            counters: QueueCounters::default(),
        }
    }

    /// Accepts a new message. Returns `false` (and changes nothing) if
    /// the run is already queued, in flight, or dead-lettered — the
    /// caller deduplicates at the incident level, this is the backstop.
    pub fn enqueue(&mut self, run: u64, now_ms: u64) -> bool {
        if self.msgs.contains_key(&run) || self.dead.iter().any(|&(r, _)| r == run) {
            return false;
        }
        self.msgs.insert(
            run,
            Msg {
                delivery: 0,
                avail_at: now_ms,
                lease_expiry: 0,
                in_flight: false,
            },
        );
        self.ready.insert((now_ms, run));
        self.counters.enqueued += 1;
        true
    }

    /// Expires overdue leases: each message whose lease expired is
    /// redelivered with backoff, or dead-lettered once its delivery
    /// budget is exhausted.
    pub fn tick(&mut self, now_ms: u64) -> QueueTick {
        let mut out = QueueTick::default();
        while let Some(&(expiry, run)) = self.in_flight.iter().next() {
            if expiry > now_ms {
                break;
            }
            self.in_flight.remove(&(expiry, run));
            self.counters.lease_expired += 1;
            let msg = self.msgs.get_mut(&run).expect("in-flight msg exists");
            msg.in_flight = false;
            if msg.delivery >= self.config.max_deliveries {
                let deliveries = msg.delivery;
                self.msgs.remove(&run);
                self.dead.push((run, deliveries));
                self.counters.dead_lettered += 1;
                out.dead.push((run, deliveries));
            } else {
                let delivery = msg.delivery;
                let avail = now_ms + backoff_ms(&self.config, self.seed, run, delivery);
                msg.avail_at = avail;
                self.ready.insert((avail, run));
                out.expired.push((run, delivery));
            }
        }
        out
    }

    /// Leases the next available message: the ready message with the
    /// earliest `avail_at ≤ now` (ties broken by run id). Returns the
    /// run and its 1-based delivery attempt.
    pub fn lease(&mut self, now_ms: u64) -> Option<(u64, u32)> {
        let &(avail_at, run) = self.ready.iter().next()?;
        if avail_at > now_ms {
            return None;
        }
        self.ready.remove(&(avail_at, run));
        let msg = self.msgs.get_mut(&run).expect("ready msg exists");
        msg.delivery += 1;
        msg.in_flight = true;
        msg.lease_expiry = now_ms + self.config.visibility_timeout_ms;
        self.in_flight.insert((msg.lease_expiry, run));
        self.counters.leased += 1;
        if msg.delivery > 1 {
            self.counters.redelivered += 1;
        }
        Some((run, msg.delivery))
    }

    /// Acknowledges an in-flight message, removing it permanently.
    /// Returns `false` if the run holds no live lease (e.g. it already
    /// expired) — the caller's work is then moot and must not be
    /// committed twice.
    pub fn ack(&mut self, run: u64) -> bool {
        let Some(msg) = self.msgs.get(&run) else {
            return false;
        };
        if !msg.in_flight {
            return false;
        }
        let expiry = msg.lease_expiry;
        self.in_flight.remove(&(expiry, run));
        self.msgs.remove(&run);
        self.counters.acked += 1;
        true
    }

    /// Negative-acknowledges an in-flight message: the delivery failed
    /// and the message should come back after backoff. Returns `true`
    /// if it was re-queued, `false` if it was dead-lettered instead
    /// (delivery budget exhausted) or held no live lease.
    pub fn nack(&mut self, run: u64, now_ms: u64) -> bool {
        let Some(msg) = self.msgs.get_mut(&run) else {
            return false;
        };
        if !msg.in_flight {
            return false;
        }
        let expiry = msg.lease_expiry;
        self.in_flight.remove(&(expiry, run));
        self.counters.nacked += 1;
        msg.in_flight = false;
        if msg.delivery >= self.config.max_deliveries {
            let deliveries = msg.delivery;
            self.msgs.remove(&run);
            self.dead.push((run, deliveries));
            self.counters.dead_lettered += 1;
            return false;
        }
        let delivery = msg.delivery;
        let avail = now_ms + backoff_ms(&self.config, self.seed, run, delivery);
        msg.avail_at = avail;
        self.ready.insert((avail, run));
        true
    }

    /// Extends the lease on an in-flight message to `expiry_ms` — the
    /// heartbeat a long-running workflow uses so progress resets the
    /// abandonment clock. Returns `false` when no live lease exists.
    pub fn extend_until(&mut self, run: u64, expiry_ms: u64) -> bool {
        let Some(msg) = self.msgs.get_mut(&run) else {
            return false;
        };
        if !msg.in_flight {
            return false;
        }
        let old = msg.lease_expiry;
        if expiry_ms <= old {
            return true;
        }
        self.in_flight.remove(&(old, run));
        msg.lease_expiry = expiry_ms;
        self.in_flight.insert((expiry_ms, run));
        true
    }

    /// Monotonic accounting counters.
    #[must_use]
    pub fn counters(&self) -> QueueCounters {
        self.counters
    }

    /// Messages currently ready (including ones whose backoff has not
    /// elapsed yet).
    #[must_use]
    pub fn ready_len(&self) -> usize {
        self.ready.len()
    }

    /// Messages currently leased out.
    #[must_use]
    pub fn in_flight_len(&self) -> usize {
        self.in_flight.len()
    }

    /// Dead-lettered `(run, deliveries)` pairs in dead-letter order.
    #[must_use]
    pub fn dead_letters(&self) -> &[(u64, u32)] {
        &self.dead
    }

    /// The conservation invariant: every message ever enqueued is
    /// exactly one of acked, dead-lettered, ready or in flight.
    #[must_use]
    pub fn conserves(&self) -> bool {
        self.counters.enqueued
            == self.counters.acked
                + self.counters.dead_lettered
                + self.ready.len() as u64
                + self.in_flight.len() as u64
    }
}

/// Deterministic nack/expiry backoff for a message that just finished
/// its `delivery`-th delivery: exponential in the delivery count plus
/// SplitMix64 hash jitter keyed by `(seed, run, delivery)`.
#[must_use]
fn backoff_ms(config: &QueueConfig, seed: u64, run: u64, delivery: u32) -> u64 {
    let exp = u64::from(delivery.saturating_sub(1).min(10));
    let base = config.backoff_base_ms.saturating_mul(1 << exp);
    let jitter = if config.backoff_jitter_ms == 0 {
        0
    } else {
        hash3(seed, run, u64::from(delivery)) % config.backoff_jitter_ms
    };
    base + jitter
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queue() -> DurableQueue {
        DurableQueue::new(
            QueueConfig {
                visibility_timeout_ms: 1_000,
                max_deliveries: 3,
                backoff_base_ms: 100,
                backoff_jitter_ms: 50,
            },
            7,
        )
    }

    #[test]
    fn lease_ack_lifecycle() {
        let mut q = queue();
        assert!(q.enqueue(10, 0));
        assert!(!q.enqueue(10, 0), "duplicate enqueue rejected");
        let (run, delivery) = q.lease(0).unwrap();
        assert_eq!((run, delivery), (10, 1));
        assert!(q.lease(0).is_none(), "no double lease");
        assert!(q.ack(10));
        assert!(!q.ack(10), "double ack rejected");
        assert!(q.conserves());
        assert_eq!(q.counters().acked, 1);
    }

    #[test]
    fn expired_lease_redelivers_with_backoff() {
        let mut q = queue();
        q.enqueue(10, 0);
        q.lease(0).unwrap();
        assert!(q.tick(999).expired.is_empty(), "lease still live");
        let t = q.tick(1_000);
        assert_eq!(t.expired, vec![(10, 1)]);
        // Backoff: not leasable immediately...
        assert!(q.lease(1_000).is_none());
        // ...but within base + jitter.
        let (_, delivery) = q.lease(1_000 + 100 + 50).unwrap();
        assert_eq!(delivery, 2);
        assert_eq!(q.counters().redelivered, 1);
        assert!(q.conserves());
    }

    #[test]
    fn exhausted_deliveries_dead_letter() {
        let mut q = queue();
        q.enqueue(10, 0);
        let mut now = 0;
        for expected in 1..=3u32 {
            // Generous skip past any backoff.
            now += 10_000;
            let (_, delivery) = q.lease(now).unwrap();
            assert_eq!(delivery, expected);
            if expected < 3 {
                assert!(q.nack(10, now));
            } else {
                assert!(!q.nack(10, now), "third nack dead-letters");
            }
        }
        assert_eq!(q.dead_letters(), &[(10, 3)]);
        assert_eq!(q.counters().dead_lettered, 1);
        assert!(q.lease(now + 100_000).is_none());
        assert!(!q.enqueue(10, now), "dead run stays dead");
        assert!(q.conserves());
    }

    #[test]
    fn extend_keeps_lease_alive() {
        let mut q = queue();
        q.enqueue(10, 0);
        q.lease(0).unwrap();
        assert!(q.extend_until(10, 5_000));
        assert!(q.tick(4_999).expired.is_empty());
        assert_eq!(q.tick(5_000).expired.len(), 1);
        // Shrinking is a no-op, not an error.
        q.lease(10_000).unwrap();
        assert!(q.extend_until(10, 1));
        assert!(q.tick(10_999).expired.is_empty());
    }

    #[test]
    fn lease_order_is_by_avail_time_then_run() {
        let mut q = queue();
        q.enqueue(20, 5);
        q.enqueue(10, 5);
        q.enqueue(30, 1);
        assert_eq!(q.lease(10).unwrap().0, 30, "earliest avail first");
        assert_eq!(q.lease(10).unwrap().0, 10, "ties broken by run id");
        assert_eq!(q.lease(10).unwrap().0, 20);
    }

    #[test]
    fn backoff_is_deterministic_and_exponential() {
        let config = queue().config;
        for delivery in 1..=5u32 {
            assert_eq!(
                backoff_ms(&config, 7, 42, delivery),
                backoff_ms(&config, 7, 42, delivery)
            );
        }
        // Exponential base dominates jitter.
        assert!(backoff_ms(&config, 7, 42, 3) > backoff_ms(&config, 7, 42, 1));
        // Different seeds jitter differently somewhere in the range.
        assert!((1..=16u32).any(|d| backoff_ms(&config, 7, 42, d) != backoff_ms(&config, 8, 42, d)));
    }
}
