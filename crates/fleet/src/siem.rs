//! Fleet SIEM: streaming cross-site correlation of worksite security
//! telemetry.
//!
//! Each worksite already keeps a security-event ring (IDS alerts,
//! handshake failures, boot measurements). The fleet backend drains
//! those rings and correlates across sites: the same attack class
//! reported by `k` distinct sites inside a sliding window is no longer
//! k local incidents — it is one coordinated campaign against the
//! fleet, and is escalated as such into the continuous risk assessment.
//!
//! # Memory model
//!
//! The correlator is *streaming*: each alert class keeps one bounded
//! sliding window of 4 096 observations instead of an unbounded
//! per-class alert vector, so correlator memory is `O(classes × window)`
//! no matter how many alerts a million-site fleet produces. When a
//! window overflows, the oldest observation is evicted and counted in
//! [`FleetSiem::window_drops`] — loss is observable, never silent. As
//! long as no window overflows (every fleet of the sizes the tier-1
//! tests cover), correlation decisions are *identical* to the unbounded
//! reference the correlator replaced, which is what keeps the
//! historical 64-site fleet traces byte-stable.
//!
//! The window is 30 s, and a campaign needs `k = 3` distinct sites.

use silvasec_telemetry::{Event, Record};
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// Sliding correlation window in milliseconds.
const WINDOW_MS: u64 = 30_000;

/// Distinct sites reporting the same class within the window that
/// constitute a coordinated campaign.
const K_SITES: usize = 3;

/// Observations held per alert class. The oldest observation is
/// evicted (and counted as a drop) when a class window is full,
/// bounding correlator memory at fleet scale.
const WINDOW_CAPACITY: usize = 4_096;

/// A correlated fleet-level campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorrelatedCampaign {
    /// The correlated alert class.
    pub class: String,
    /// Distinct sites reporting the class inside the window.
    pub sites: u32,
    /// Correlation instant in fleet milliseconds.
    pub at_ms: u64,
}

/// One alert class's bounded sliding window.
#[derive(Debug, Default)]
struct ClassWindow {
    /// `(site, alert time)` observations in ingest order.
    ring: VecDeque<(u32, u64)>,
    /// Observations evicted because the window was full.
    dropped: u64,
    /// When the class last fired a campaign alert (cooldown of one
    /// window so a sustained campaign is one alert, not hundreds).
    last_fired: Option<u64>,
}

/// The fleet-level streaming aggregator.
#[derive(Debug, Default)]
pub struct FleetSiem {
    windows: BTreeMap<String, ClassWindow>,
    campaigns: Vec<CorrelatedCampaign>,
    ingested: u64,
    /// Scratch buffer for distinct-site counting, reused across
    /// [`FleetSiem::correlate`] calls so the hot path stays off the
    /// allocator once warm.
    scratch: Vec<u32>,
}

impl FleetSiem {
    /// Ingests one security record drained from `site`'s ring. Only IDS
    /// alerts participate in correlation; everything else is counted and
    /// dropped. Returns the alert class when the record was an alert.
    pub fn ingest(&mut self, site: u32, record: &Record) -> Option<String> {
        if let Event::IdsAlert { class, .. } = &record.event {
            let class = class.as_str().to_string();
            self.ingest_alert(site, &class, record.at.as_millis());
            Some(class)
        } else {
            self.ingested += 1;
            None
        }
    }

    /// Ingests one alert by class directly — the non-allocating fast
    /// path the shadow population feeds (no `Record` is ever built for a
    /// shadow alert). Allocates only the first time a class is seen.
    pub fn ingest_alert(&mut self, site: u32, class: &str, at_ms: u64) {
        self.ingested += 1;
        let window = match self.windows.get_mut(class) {
            Some(window) => window,
            None => self.windows.entry(class.to_string()).or_default(),
        };
        if window.ring.len() >= WINDOW_CAPACITY {
            window.ring.pop_front();
            window.dropped += 1;
        }
        window.ring.push_back((site, at_ms));
    }

    /// Runs correlation at `now_ms`: ages observations older than the
    /// window out of each class ring and fires a campaign per class seen
    /// on at least three distinct sites.
    pub fn correlate(&mut self, now_ms: u64) -> Vec<CorrelatedCampaign> {
        let horizon = now_ms.saturating_sub(WINDOW_MS);
        let mut fired = Vec::new();
        for (class, window) in &mut self.windows {
            window.ring.retain(|&(_, at)| at >= horizon);
            if window.ring.len() < K_SITES {
                continue;
            }
            self.scratch.clear();
            self.scratch
                .extend(window.ring.iter().map(|&(site, _)| site));
            self.scratch.sort_unstable();
            self.scratch.dedup();
            if self.scratch.len() < K_SITES {
                continue;
            }
            let cooled = window.last_fired.is_none_or(|at| now_ms >= at + WINDOW_MS);
            if !cooled {
                continue;
            }
            window.last_fired = Some(now_ms);
            fired.push(CorrelatedCampaign {
                class: class.clone(),
                sites: self.scratch.len() as u32,
                at_ms: now_ms,
            });
        }
        self.campaigns.extend(fired.iter().cloned());
        fired
    }

    /// Every campaign correlated so far.
    #[must_use]
    pub fn campaigns(&self) -> &[CorrelatedCampaign] {
        &self.campaigns
    }

    /// Total records ingested.
    #[must_use]
    pub fn records_ingested(&self) -> u64 {
        self.ingested
    }

    /// Observations evicted across every class window because the
    /// bounded ring was full — the streaming correlator's loss counter.
    #[must_use]
    pub fn window_drops(&self) -> u64 {
        self.windows.values().map(|w| w.dropped).sum()
    }

    /// Per-class `(class, dropped)` eviction counters, classes with no
    /// drops included.
    #[must_use]
    pub fn window_drops_by_class(&self) -> Vec<(String, u64)> {
        self.windows
            .iter()
            .map(|(class, w)| (class.clone(), w.dropped))
            .collect()
    }

    /// Observations currently held across every class window — bounded
    /// by `classes × 4 096` by construction.
    #[must_use]
    pub fn observations_held(&self) -> usize {
        self.windows.values().map(|w| w.ring.len()).sum()
    }

    /// Distinct sites with a `class` observation still held in the
    /// class window, ascending — the blast radius incident-response
    /// containment quarantines when a campaign class must be isolated.
    #[must_use]
    pub fn sites_reporting(&self, class: &str) -> Vec<u32> {
        let Some(window) = self.windows.get(class) else {
            return Vec::new();
        };
        let mut sites: Vec<u32> = window.ring.iter().map(|&(site, _)| site).collect();
        sites.sort_unstable();
        sites.dedup();
        sites
    }

    /// The newest `class` observation still held in its window, if any —
    /// incident-response verification asks this to decide whether the
    /// trouble actually stopped after remediation.
    #[must_use]
    pub fn last_alert_at(&self, class: &str) -> Option<u64> {
        self.windows
            .get(class)
            .and_then(|w| w.ring.iter().map(|&(_, at)| at).max())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silvasec_sim::time::SimTime;
    use silvasec_telemetry::Label;

    fn alert(site: u32, at_ms: u64, class: &str) -> (u32, Record) {
        (
            site,
            Record {
                at: SimTime::from_millis(at_ms),
                seq: at_ms,
                event: Event::IdsAlert {
                    class: Label::new(class),
                    severity: Label::new("high"),
                },
            },
        )
    }

    #[test]
    fn k_distinct_sites_in_window_fire_once() {
        let mut siem = FleetSiem::default();
        for (site, rec) in [
            alert(0, 1_000, "jamming"),
            alert(1, 2_000, "jamming"),
            alert(1, 2_500, "jamming"), // same site again: still 2 distinct
        ] {
            siem.ingest(site, &rec);
        }
        assert!(siem.correlate(3_000).is_empty());
        let (site, rec) = alert(2, 4_000, "jamming");
        siem.ingest(site, &rec);
        let fired = siem.correlate(4_500);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].class, "jamming");
        assert_eq!(fired[0].sites, 3);
        // Cooldown: the sustained campaign does not re-fire immediately.
        assert!(siem.correlate(5_000).is_empty());
        // ... but does after the window has passed, if still active on
        // enough sites.
        for (site, rec) in [
            alert(3, 34_600, "jamming"),
            alert(4, 34_600, "jamming"),
            alert(5, 34_600, "jamming"),
        ] {
            siem.ingest(site, &rec);
        }
        assert_eq!(siem.correlate(34_600).len(), 1);
    }

    #[test]
    fn stale_observations_age_out() {
        let mut siem = FleetSiem::default();
        siem.ingest_alert(0, "replay", 1_000);
        for site in [1, 2] {
            let (site, rec) = alert(site, 40_000, "replay");
            siem.ingest(site, &rec);
        }
        // Site 0's alert is out of the window by now, so two sites are
        // left of the three a campaign needs.
        assert!(siem.correlate(40_000).is_empty());
        assert_eq!(siem.observations_held(), 2);
    }

    #[test]
    fn non_alert_records_are_counted_not_correlated() {
        let mut siem = FleetSiem::default();
        let rec = Record {
            at: SimTime::from_millis(10),
            seq: 1,
            event: Event::Response {
                action: Label::new("log-only"),
            },
        };
        assert_eq!(siem.ingest(4, &rec), None);
        assert_eq!(siem.records_ingested(), 1);
        assert!(siem.correlate(20).is_empty());
    }

    #[test]
    fn bounded_window_evicts_oldest_and_counts_drops() {
        let mut siem = FleetSiem::default();
        // Four more distinct sites than the window holds flood one
        // class: the window holds the last 4 096, and the four
        // evictions are accounted.
        let sites = WINDOW_CAPACITY as u32 + 4;
        for site in 0..sites {
            siem.ingest_alert(site, "jamming", 1_000 + u64::from(site));
        }
        assert_eq!(siem.window_drops(), 4);
        assert_eq!(siem.observations_held(), WINDOW_CAPACITY);
        assert_eq!(siem.sites_reporting("jamming")[0], 4, "oldest evicted");
        // Correlation still fires off the surviving window...
        let fired = siem.correlate(u64::from(sites) + 1_000);
        assert_eq!(fired.len(), 1);
        // ...and reports only the sites the bounded window retained.
        assert_eq!(fired[0].sites, WINDOW_CAPACITY as u32);
        assert_eq!(siem.window_drops_by_class(), vec![("jamming".into(), 4)]);
    }

    #[test]
    fn reporting_and_last_seen_queries_track_the_window() {
        let mut siem = FleetSiem::default();
        assert!(siem.sites_reporting("jamming").is_empty());
        assert_eq!(siem.last_alert_at("jamming"), None);
        siem.ingest_alert(3, "jamming", 1_000);
        siem.ingest_alert(1, "jamming", 2_000);
        siem.ingest_alert(3, "jamming", 2_500);
        assert_eq!(siem.sites_reporting("jamming"), vec![1, 3]);
        assert_eq!(siem.last_alert_at("jamming"), Some(2_500));
        // Ageing happens at correlation time: once the window passes,
        // both queries see an empty window again.
        siem.correlate(40_000);
        assert!(siem.sites_reporting("jamming").is_empty());
        assert_eq!(siem.last_alert_at("jamming"), None);
    }

    #[test]
    fn memory_is_bounded_by_capacity_not_alert_volume() {
        let mut siem = FleetSiem::default();
        for i in 0..100_000u64 {
            siem.ingest_alert((i % 50_000) as u32, "deauth-flood", i);
        }
        assert_eq!(siem.observations_held(), WINDOW_CAPACITY);
        assert_eq!(siem.window_drops(), 100_000 - WINDOW_CAPACITY as u64);
        assert_eq!(siem.records_ingested(), 100_000);
    }
}
