//! Intrusion detection for the forestry worksite.
//!
//! The paper's Table I calls for remote-monitoring security and threat
//! profiles; its survey (Sec. IV-C) enumerates the concrete attack
//! classes — de-auth floods, RF jamming, GNSS spoofing/jamming, camera
//! attacks. This crate is the detection side of that catalog: a set of
//! lightweight detectors over the telemetry the worksite already produces
//! (radio link statistics, navigation cross-checks, sensor health), plus
//! response policies. Forestry's "remote and
//! isolated locations" characteristic means everything runs *inside* the
//! worksite — there is no cloud SOC to stream events to.
//!
//! * [`alert`] — alert types.
//! * [`radio`] — de-auth flood, jamming and auth-failure detectors.
//! * [`nav`] — the GNSS/odometry consistency monitor.
//! * [`sensor_health`] — detection-rate collapse (camera blinding).
//! * [`response`] — alert → response-action policy.
//!
//! # Example
//!
//! ```
//! use silvasec_ids::prelude::*;
//! use silvasec_sim::time::SimTime;
//!
//! let mut ids = WorksiteIds::new(IdsConfig::default());
//! // A burst of de-auth frames within one window trips the detector.
//! let mut alerts = Vec::new();
//! for i in 0..10 {
//!     alerts.extend(ids.observe_radio(&RadioObservation {
//!         node_label: "forwarder-01".into(),
//!         at: SimTime::from_millis(100 * i),
//!         noise_dbm: Some(-94.0),
//!         delivery_ratio: 1.0,
//!         deauth_frames: 3,
//!         auth_failures: 0,
//!         unknown_assoc_requests: 0,
//!     }));
//! }
//! assert!(alerts.iter().any(|a| a.kind == AlertKind::DeauthFlood));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alert;
pub mod nav;
pub mod radio;
pub mod response;
pub mod sensor_health;

pub use alert::{Alert, AlertKind, Severity};
pub use response::{ResponseAction, ResponsePolicy};

use nav::{NavConsistencyMonitor, NavObservation};
use radio::{RadioDetectors, RadioObservation};
use sensor_health::{SensorHealthMonitor, SensorObservation};
use silvasec_telemetry::{Event, Label, Recorder};
use std::collections::HashMap;

/// Tuning for all detectors.
#[derive(Debug, Clone, Default)]
pub struct IdsConfig {
    /// Radio-detector tuning.
    pub radio: radio::RadioConfig,
    /// Navigation-monitor tuning.
    pub nav: nav::NavConfig,
    /// Sensor-health tuning.
    pub sensor: sensor_health::SensorHealthConfig,
}

/// The worksite IDS: per-entity detector instances behind one facade.
///
/// Detector maps are keyed by [`Label`] (fixed-capacity, `Copy`), so
/// routing an observation to its detector on the steady-state tick path
/// never allocates.
#[derive(Debug, Default)]
pub struct WorksiteIds {
    config: IdsConfig,
    radio: HashMap<Label, RadioDetectors>,
    nav: HashMap<Label, NavConsistencyMonitor>,
    sensor: HashMap<Label, SensorHealthMonitor>,
    alerts_raised: u64,
    recorder: Recorder,
}

impl WorksiteIds {
    /// Creates an IDS with the given tuning.
    #[must_use]
    pub fn new(config: IdsConfig) -> Self {
        WorksiteIds {
            config,
            ..WorksiteIds::default()
        }
    }

    /// Attaches a telemetry recorder; every raised alert is then
    /// mirrored as an `IdsAlert` event.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// Feeds one radio telemetry observation; returns any new alerts.
    pub fn observe_radio(&mut self, obs: &RadioObservation) -> Vec<Alert> {
        let detector = self
            .radio
            .entry(obs.node_label)
            .or_insert_with(|| RadioDetectors::new(self.config.radio.clone()));
        let alerts = detector.observe(obs);
        self.account(&alerts);
        alerts
    }

    /// Feeds one navigation observation; returns any new alerts.
    pub fn observe_nav(&mut self, obs: &NavObservation) -> Vec<Alert> {
        let monitor = self
            .nav
            .entry(obs.machine_label)
            .or_insert_with(|| NavConsistencyMonitor::new(self.config.nav.clone()));
        let alerts = monitor.observe(obs);
        self.account(&alerts);
        alerts
    }

    /// Feeds one sensor-health observation; returns any new alerts.
    pub fn observe_sensor(&mut self, obs: &SensorObservation) -> Vec<Alert> {
        let monitor = self
            .sensor
            .entry(obs.sensor_label)
            .or_insert_with(|| SensorHealthMonitor::new(self.config.sensor.clone()));
        let alerts = monitor.observe(obs);
        self.account(&alerts);
        alerts
    }

    fn account(&mut self, alerts: &[Alert]) {
        self.alerts_raised += alerts.len() as u64;
        for alert in alerts {
            self.recorder.record_at(
                alert.at,
                Event::IdsAlert {
                    class: Label::new(alert.kind.as_str()),
                    severity: Label::new(alert.severity.as_str()),
                },
            );
        }
    }

    /// Total alerts raised since construction.
    #[must_use]
    pub fn alerts_raised(&self) -> u64 {
        self.alerts_raised
    }
}

/// Convenient glob import of the crate's primary types.
pub mod prelude {
    pub use crate::alert::{Alert, AlertKind, Severity};
    pub use crate::nav::{NavConfig, NavObservation};
    pub use crate::radio::{RadioConfig, RadioObservation};
    pub use crate::response::{ResponseAction, ResponsePolicy};
    pub use crate::sensor_health::{SensorHealthConfig, SensorObservation};
    pub use crate::{IdsConfig, WorksiteIds};
}
