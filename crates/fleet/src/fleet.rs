//! The fleet orchestrator: N worksites, one update backend, one SIEM.

use crate::bundle::{UpdateBundle, UpdateManifest};
use crate::rollout::{RolloutPhase, RolloutPolicy, RolloutReport};
use crate::shadow::{
    campaign_class, ShadowCampaign, ShadowConfig, ShadowPopulation, ShadowRolloutCtx, SiteSlot,
    REJECT_REASONS,
};
use crate::siem::FleetSiem;
use crate::transport::{Delivery, Uplink, CHUNKS_PER_TICK, CHUNK_BYTES, UPLINK_RANGE_M};
use serde::Serialize;
use silvasec_attacks::{AttackCampaign, AttackKind, AttackTarget};
use silvasec_crypto::schnorr::SigningKey;
use silvasec_ids::alert::{AlertKind, Severity};
use silvasec_ops::{
    Action, GateDecision, Incident, IncidentScope, OpsCommand, OpsConfig, OpsEngine,
};
use silvasec_pki::{
    Certificate, CertificateAuthority, CertificateRevocationList, ComponentRole, KeyUsage, Subject,
    TrustStore, Validity,
};
use silvasec_risk::catalog::worksite_model;
use silvasec_risk::continuous::{
    alert_class_to_attack_class, ContinuousAssessment, IncidentReport,
};
use silvasec_secure_boot::{Device, FirmwareImage, FirmwareStage};
use silvasec_sim::geom::Vec2;
use silvasec_sim::rng::SimRng;
use silvasec_sim::time::{SimDuration, SimTime};
use silvasec_sos::{Worksite, WorksiteConfig};
use silvasec_tara::{HypothesisSet, ScenarioSpace, TaraCatalog};
use silvasec_telemetry::{Event, EventFilter, EventKind, Label, Recorder, SubscriberId};
use std::collections::{BTreeMap, BTreeSet};

/// The fleet component every site's update device runs (one machine
/// model fleet-wide, so one image serves every site).
pub const FLEET_COMPONENT: &str = "forwarder-fw";

/// PKI validity horizon for fleet credentials, milliseconds.
const VALIDITY_HORIZON_MS: u64 = 365 * 24 * 3600 * 1000;

/// Application image payload size of every published bundle, bytes
/// (the bootloader image carries a quarter of it).
const IMAGE_PAYLOAD_BYTES: usize = 2048;

/// Upper bound on rollout duration, ticks: a stuck rollout ends with
/// `completed: false` instead of spinning forever.
const MAX_ROLLOUT_TICKS: u32 = 4_000;

/// Fleet scenario configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of worksites under management.
    pub sites: usize,
    /// Configuration every worksite is built from.
    pub site: WorksiteConfig,
    /// Staged-rollout policy.
    pub policy: RolloutPolicy,
    /// Two-fidelity split: when set, only a deterministically-sampled
    /// subset of sites runs the full `Worksite` simulation and the rest
    /// live in the compact sharded shadow population. `None` (the
    /// default) is the all-full layout: every site is a full worksite
    /// and the shadow population has no shards.
    pub shadow: Option<ShadowConfig>,
    /// Incident-response mode: when set, an [`OpsEngine`] rides on the
    /// fleet — site alerts and correlated campaigns open deterministic
    /// response runs whose containment, remediation and verification
    /// execute against the real fleet subsystems. `None` (the default)
    /// keeps incident response off — byte-identical to the historical
    /// behaviour.
    pub ops: Option<OpsConfig>,
    /// Generative-TARA mode: when set, the fleet enumerates and ranks
    /// threat scenarios at commissioning and carries the top-k as live
    /// hypotheses — SIEM-correlated campaigns confirm them, completed
    /// mitigations retire them, every transition a `TaraHypothesis`
    /// trace event. `None` (the default) keeps the generative TARA
    /// off — byte-identical to the historical behaviour.
    pub tara: Option<TaraConfig>,
}

/// Generative-TARA tuning for the fleet's live hypotheses.
#[derive(Debug, Clone, Copy)]
pub struct TaraConfig {
    /// Attack-path variants enumerated per canonical scenario cell
    /// (variant 0 is the unperturbed baseline).
    pub variants: u32,
    /// Ranking capacity: how many top-risk scenarios become live
    /// hypotheses.
    pub top_k: usize,
}

impl Default for TaraConfig {
    fn default() -> Self {
        TaraConfig {
            variants: 2,
            top_k: 64,
        }
    }
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            sites: 4,
            site: WorksiteConfig::default(),
            policy: RolloutPolicy::default(),
            shadow: None,
            ops: None,
            tara: None,
        }
    }
}

/// The central update backend: fleet CA, firmware signer, bundle
/// history.
#[derive(Debug)]
pub struct FleetBackend {
    root: CertificateAuthority,
    signer: SigningKey,
    signer_chain: Vec<Certificate>,
    store: TrustStore,
    published: Vec<UpdateBundle>,
    next_update_id: u32,
    /// CRLs published by revocation drills, oldest first. Sites check
    /// bundle signer chains against these, so revoking the signer leaf
    /// actually rejects bundles distributed under the old chain.
    crls: Vec<CertificateRevocationList>,
}

impl FleetBackend {
    pub(crate) fn commission(rng: &mut SimRng) -> Self {
        let mut root = CertificateAuthority::new_root(
            "fleet-root",
            &rng.next_seed(),
            Validity::new(0, VALIDITY_HORIZON_MS),
        );
        let signer = SigningKey::from_seed(&rng.next_seed());
        let leaf = root.issue_mut(
            &Subject::new("fleet-fw-signer", ComponentRole::FirmwareSigner),
            &signer.verifying_key(),
            KeyUsage::FIRMWARE_SIGNING,
            Validity::new(0, VALIDITY_HORIZON_MS),
        );
        let store = TrustStore::with_roots([root.certificate().clone()]);
        FleetBackend {
            root,
            signer,
            signer_chain: vec![leaf],
            store,
            published: Vec::new(),
            next_update_id: 1,
            crls: Vec::new(),
        }
    }

    /// Containment: revokes the current firmware-signing leaf, publishes
    /// a CRL, and re-issues a fresh leaf for the *same* signing key.
    ///
    /// Site devices pin the signing key, not the certificate, so bundles
    /// published after the rotation still verify and boot — but anything
    /// distributed under the revoked chain (including the baseline a
    /// downgrade MITM would replay) is rejected with a chain error.
    pub fn revoke_signer(&mut self, now_ms: u64) {
        if let Some(leaf) = self.signer_chain.first() {
            self.root.revoke(leaf.serial, now_ms);
        }
        let crl = self.root.sign_crl(now_ms);
        self.crls.push(crl);
        let leaf = self.root.issue_mut(
            &Subject::new("fleet-fw-signer", ComponentRole::FirmwareSigner),
            &self.signer.verifying_key(),
            KeyUsage::FIRMWARE_SIGNING,
            Validity::new(now_ms, VALIDITY_HORIZON_MS),
        );
        self.signer_chain = vec![leaf];
    }

    /// CRLs published so far (empty until a revocation drill).
    #[must_use]
    pub fn crls(&self) -> &[CertificateRevocationList] {
        &self.crls
    }

    /// Builds, signs and records a new update bundle.
    pub fn publish(&mut self, version: u32, released_at_ms: u64, rng: &mut SimRng) -> UpdateBundle {
        let mut make_payload = |len: usize| {
            let mut payload = vec![0u8; len];
            rng.fill_bytes(&mut payload);
            payload
        };
        let images = vec![
            FirmwareImage::new(
                FLEET_COMPONENT,
                FirmwareStage::Bootloader,
                version,
                make_payload(IMAGE_PAYLOAD_BYTES / 4),
            )
            .sign(&self.signer),
            FirmwareImage::new(
                FLEET_COMPONENT,
                FirmwareStage::Application,
                version,
                make_payload(IMAGE_PAYLOAD_BYTES),
            )
            .sign(&self.signer),
        ];
        let manifest = UpdateManifest {
            component_id: FLEET_COMPONENT.to_string(),
            version,
            channel: "stable".to_string(),
            released_at_ms,
        };
        let bundle = UpdateBundle::build(manifest, images, self.signer_chain.clone(), &self.signer);
        self.published.push(bundle.clone());
        self.next_update_id += 1;
        bundle
    }

    /// The trust store sites verify bundles against.
    #[must_use]
    pub fn trust_store(&self) -> &TrustStore {
        &self.store
    }

    /// The fleet root CA (for revocation drills and inspection).
    #[must_use]
    pub fn root(&self) -> &CertificateAuthority {
        &self.root
    }

    /// The update signer's verifying key (pinned by site devices).
    #[must_use]
    pub fn signer_key(&self) -> silvasec_crypto::schnorr::VerifyingKey {
        self.signer.verifying_key()
    }

    /// Previously published bundles, oldest first.
    #[must_use]
    pub fn published(&self) -> &[UpdateBundle] {
        &self.published
    }
}

/// One managed worksite plus its fleet-facing attachments.
struct FleetSite {
    index: u32,
    site: Worksite,
    uplink: Uplink,
    device: Device,
    installed_version: u32,
    alerts_sub: SubscriberId,
    delivery: Option<Delivery>,
    /// Outcome of the current rollout at this site: `Ok(version)` or the
    /// rejection reason tag.
    outcome: Option<Result<u32, &'static str>>,
}

impl FleetSite {
    /// Verifies and applies a fully received encoded bundle.
    ///
    /// Returns the outcome plus the host wall-clock microseconds the
    /// bundle verification took (`None` when the bundle never decoded,
    /// so there was nothing to verify). The timing is measurement only —
    /// it never influences the simulation or the security trace.
    fn apply(
        &mut self,
        bytes: &[u8],
        store: &TrustStore,
        crls: &[CertificateRevocationList],
        now_ms: u64,
    ) -> (Result<u32, &'static str>, Option<u64>) {
        let bundle = match UpdateBundle::decode(bytes) {
            Ok(bundle) => bundle,
            Err(e) => return (Err(e.reason()), None),
        };
        let verify_started = std::time::Instant::now();
        let verified = bundle.verify(store, now_ms, crls, FLEET_COMPONENT, self.installed_version);
        let verify_us = u64::try_from(verify_started.elapsed().as_micros()).unwrap_or(u64::MAX);
        if let Err(e) = verified {
            // Stash the reason tag; the caller tallies it.
            return (Err(e.reason()), Some(verify_us));
        }
        let report = self.device.boot(&bundle.images);
        if !report.success {
            return (Err("boot"), Some(verify_us));
        }
        self.installed_version = bundle.manifest.version;
        (Ok(bundle.manifest.version), Some(verify_us))
    }
}

/// The incident-response runtime riding on a fleet: the engine plus
/// the host-side containment state its commands act on.
struct OpsRuntime {
    engine: OpsEngine,
    /// Sites whose alerts are withheld from the SIEM (containment).
    quarantined: BTreeSet<u32>,
    /// Containment has frozen staged rollouts; cleared when an ops
    /// remediation rollout supersedes the halt.
    rollouts_halted: bool,
    /// `OtaRollout` commands awaiting a driver-run remediation rollout
    /// (a rollout is a synchronous multi-tick loop, so it cannot run
    /// inside the tick that issued the command). One rollout per
    /// [`Fleet::run_ops_remediations`] call serves every command parked
    /// here, so a lease must cover one rollout, not the whole park.
    pending_ota: Vec<OpsCommand>,
    /// IDS alerts withheld because their site was quarantined.
    withheld_alerts: u64,
}

/// The deterministic fleet-operations layer.
pub struct Fleet {
    config: FleetConfig,
    backend: FleetBackend,
    /// The full-fidelity sites, in the order of
    /// [`ShadowLayout::full`](crate::ShadowLayout::full).
    sites: Vec<FleetSite>,
    shadows: ShadowPopulation,
    shadow_campaigns: Vec<ShadowCampaign>,
    siem: FleetSiem,
    risk: ContinuousAssessment,
    tara: Option<HypothesisSet>,
    ops: Option<OpsRuntime>,
    recorder: Recorder,
    trace_sub: SubscriberId,
    campaigns: Vec<AttackCampaign>,
    now: SimTime,
    tick_index: u64,
    rng: SimRng,
}

/// Builds the site-scope incident for one IDS alert; the severity is
/// the alert class's IDS default.
fn site_incident(class: &str, site: u32, at_ms: u64) -> Incident {
    let severity =
        AlertKind::from_class(class).map_or(Severity::Medium, AlertKind::default_severity);
    Incident {
        class: class.to_string(),
        severity,
        scope: IncidentScope::Site(site),
        detected_at_ms: at_ms,
    }
}

impl Fleet {
    /// Commissions a fleet: backend PKI, the shadow population, one
    /// worksite per full-fidelity site index with its uplink, and
    /// baseline firmware (version 1) booted on every full site's update
    /// device.
    ///
    /// # Panics
    ///
    /// Panics if baseline commissioning fails — a construction bug, not
    /// a runtime condition.
    #[must_use]
    pub fn new(config: FleetConfig, seed: u64) -> Self {
        let root_rng = SimRng::from_seed(seed);
        let mut rng = root_rng.fork("fleet");
        let mut backend = FleetBackend::commission(&mut root_rng.fork("backend"));
        let baseline = backend.publish(1, 0, &mut rng);

        let recorder = Recorder::new();
        let trace_sub = recorder.subscribe_filtered("fleet", 65_536, EventFilter::security());
        let mut risk = ContinuousAssessment::new(worksite_model());
        risk.set_recorder(recorder.clone());

        // Generative TARA: enumerate and rank once at commissioning
        // (the model is static), then carry the top-k as live
        // hypotheses wired into the same trace recorder.
        let tara = config.tara.map(|tc| {
            let catalog = TaraCatalog::from_model(&worksite_model());
            let top = ScenarioSpace::new(&catalog, seed, tc.variants, tc.top_k)
                .enumerate()
                .top;
            let mut set = HypothesisSet::from_ranking(top);
            set.set_recorder(recorder.clone());
            set
        });

        // Two-fidelity split: only the sampled subset is commissioned as
        // a full worksite (keyed by its *global* index, so a full site
        // behaves identically to the same site in an all-full fleet);
        // everything else lives in the compact shadow population.
        // Without a shadow config every site is full.
        let shadow_config = config.shadow.unwrap_or(ShadowConfig {
            full_sites: config.sites,
            ..ShadowConfig::default()
        });
        let shadows = ShadowPopulation::new(config.sites, &shadow_config, seed);

        let mut sites = Vec::with_capacity(shadows.layout.full.len());
        for &i in &shadows.layout.full {
            let mut site_rng = root_rng.fork(&format!("fleet-site-{i}"));
            let site = Worksite::new(&config.site, site_rng.next_u64());
            let alerts_sub = site.recorder().subscribe_filtered(
                "fleet-siem",
                1_024,
                EventFilter::none().with(EventKind::IdsAlert),
            );
            let range = UPLINK_RANGE_M * (0.8 + 0.4 * site_rng.uniform());
            let uplink = Uplink::new(range, site_rng.fork("uplink"));
            let mut device = Device::new(FLEET_COMPONENT, backend.signer_key());
            let report = device.boot(&baseline.images);
            assert!(report.success, "baseline firmware must boot");
            sites.push(FleetSite {
                index: i,
                site,
                uplink,
                device,
                installed_version: 1,
                alerts_sub,
                delivery: None,
                outcome: None,
            });
        }

        // The ops engine records into the same recorder as the rest of
        // the fleet, so its audit trail lands in the fleet security
        // trace and the run store replays from that one JSONL stream.
        let ops = config.ops.map(|oc| OpsRuntime {
            engine: OpsEngine::new(oc, recorder.clone()),
            quarantined: BTreeSet::new(),
            rollouts_halted: false,
            pending_ota: Vec::new(),
            withheld_alerts: 0,
        });

        Fleet {
            siem: FleetSiem::default(),
            config,
            backend,
            sites,
            shadows,
            shadow_campaigns: Vec::new(),
            risk,
            tara,
            ops,
            recorder,
            trace_sub,
            campaigns: Vec::new(),
            now: SimTime::ZERO,
            tick_index: 0,
            rng,
        }
    }

    /// Where a global site index lives: full worksite or shadow slot.
    ///
    /// # Panics
    ///
    /// Panics if `site` is out of range.
    #[must_use]
    pub fn site_slot(&self, site: u32) -> SiteSlot {
        self.shadows.layout.slot_of(site)
    }

    /// Whether `site` has applied the in-progress rollout, across both
    /// fidelities.
    fn is_site_applied(&self, site: u32) -> bool {
        match self.site_slot(site) {
            SiteSlot::Full(pos) => {
                matches!(self.sites[pos as usize].outcome, Some(Ok(_)))
            }
            SiteSlot::Shadow { shard, slot } => self.shadows.shard(shard).is_applied(slot),
        }
    }

    /// Schedules a fleet-layer attack campaign. Worksite-layer kinds are
    /// applied to every site's local attack engine instead.
    pub fn schedule_fleet_attack(&mut self, campaign: AttackCampaign) {
        match campaign.kind {
            AttackKind::UpdateTampering
            | AttackKind::Downgrade
            | AttackKind::RolloutPoisoning
            | AttackKind::RfJamming => self.campaigns.push(campaign),
            _ => {
                // Shadow sites model the same campaign as a detection
                // schedule over its active window.
                if let Some(class) = campaign_class(campaign.kind) {
                    let start_ms = campaign.start.as_millis();
                    self.shadow_campaigns.push(ShadowCampaign {
                        class,
                        start_ms,
                        end_ms: start_ms + campaign.duration.as_millis(),
                    });
                }
                for fs in &mut self.sites {
                    fs.site.attack_engine_mut().add_campaign(campaign.clone());
                }
            }
        }
    }

    /// Schedules a worksite-layer attack on one full-fidelity site,
    /// named by its position `full_pos` in the full-site list
    /// ([`ShadowLayout::full`](crate::ShadowLayout::full)), not by its
    /// global site index.
    ///
    /// # Panics
    ///
    /// Panics if `full_pos` is not below the number of full sites.
    pub fn schedule_site_attack(&mut self, full_pos: usize, campaign: AttackCampaign) {
        self.sites[full_pos]
            .site
            .attack_engine_mut()
            .add_campaign(campaign);
    }

    /// Feeds a disclosed vulnerability into the continuous assessment —
    /// fleet risk rises before any machine is attacked, which is exactly
    /// what motivates the next rollout.
    pub fn disclose_vulnerability(&mut self, attack_class: &str) {
        let incident = IncidentReport {
            attack_class: alert_class_to_attack_class(attack_class).to_string(),
            at_ms: self.now.as_millis(),
        };
        self.risk.ingest(&incident);
    }

    fn kind_active(&self, kind: AttackKind) -> bool {
        self.campaigns
            .iter()
            .any(|c| c.kind == kind && c.active_at(self.now))
    }

    /// Advances the whole fleet by one tick: every worksite steps, the
    /// SIEM drains and correlates their security rings, and correlated
    /// campaigns feed the continuous risk assessment. Returns the IDS
    /// alerts drained this tick as `(site, at_ms)` pairs.
    pub fn tick(&mut self) -> Vec<(u32, u64)> {
        let prev = self.now;
        self.now += self.config.site.tick;
        self.tick_index += 1;
        self.recorder.advance(self.now);

        // Fleet-layer jamming applies to every uplink while active.
        let jamming = self
            .campaigns
            .iter()
            .find(|c| c.kind == AttackKind::RfJamming && c.active_at(self.now))
            .map(|c| c.intensity);
        for fs in &mut self.sites {
            match jamming {
                Some(intensity) => fs.uplink.set_jamming(true, 10.0 + 30.0 * intensity),
                None => fs.uplink.set_jamming(false, 0.0),
            }
        }

        let ops_on = self.ops.is_some();
        let mut incidents: Vec<Incident> = Vec::new();
        let mut withheld = 0u64;
        let mut alerts = Vec::new();
        for fs in &mut self.sites {
            fs.site.tick();
            // Containment: a quarantined site is off the air — its ring
            // still drains (bounded memory) but nothing reaches the SIEM.
            let quarantined = self
                .ops
                .as_ref()
                .is_some_and(|o| o.quarantined.contains(&fs.index));
            for record in fs.site.recorder().drain(fs.alerts_sub) {
                if quarantined {
                    withheld += 1;
                    continue;
                }
                if let Some(class) = self.siem.ingest(fs.index, &record) {
                    let at_ms = record.at.as_millis();
                    alerts.push((fs.index, at_ms));
                    if ops_on {
                        incidents.push(site_incident(&class, fs.index, at_ms));
                    }
                }
            }
        }

        // Shadow alerts, sharded over the sweep pool and merged in shard
        // order after the full sites — a deterministic stream order.
        for alert in self.shadows.alert_sweep(
            &self.shadow_campaigns,
            prev.as_millis(),
            self.now.as_millis(),
        ) {
            if self
                .ops
                .as_ref()
                .is_some_and(|o| o.quarantined.contains(&alert.site))
            {
                withheld += 1;
                continue;
            }
            self.siem.ingest_alert(alert.site, alert.class, alert.at_ms);
            alerts.push((alert.site, alert.at_ms));
            if ops_on {
                incidents.push(site_incident(alert.class, alert.site, alert.at_ms));
            }
        }

        let now_ms = self.now.as_millis();
        for campaign in self.siem.correlate(now_ms) {
            self.recorder.record_at(
                self.now,
                Event::CampaignAlert {
                    class: Label::new(&campaign.class),
                    sites: campaign.sites,
                },
            );
            self.risk.ingest(&IncidentReport {
                attack_class: alert_class_to_attack_class(&campaign.class).to_string(),
                at_ms: campaign.at_ms,
            });
            if let Some(tara) = &mut self.tara {
                // Correlated multi-site evidence confirms every open
                // hypothesis of the campaign's attack class.
                tara.confirm(
                    alert_class_to_attack_class(&campaign.class),
                    campaign.sites,
                    campaign.at_ms,
                );
            }
            if ops_on {
                // A correlated multi-site campaign is always critical:
                // it passes no auto-approve gate without review.
                incidents.push(Incident {
                    class: campaign.class.clone(),
                    severity: Severity::Critical,
                    scope: IncidentScope::Fleet {
                        sites: campaign.sites,
                    },
                    detected_at_ms: campaign.at_ms,
                });
            }
        }

        if let Some(ops) = &mut self.ops {
            ops.withheld_alerts += withheld;
            for incident in &incidents {
                ops.engine.enqueue_incident(incident, now_ms);
            }
            let cmds = ops.engine.tick(now_ms);
            self.ops_run_commands(cmds, now_ms);
        }
        alerts
    }

    /// Pumps the ops command loop: executes each command against the
    /// fleet subsystems and feeds completions back until the engine
    /// blocks. Deferred commands (remediation rollouts) accumulate for
    /// [`Fleet::run_ops_remediations`].
    fn ops_run_commands(&mut self, mut cmds: Vec<OpsCommand>, now_ms: u64) {
        while let Some(cmd) = cmds.pop() {
            match self.ops_execute(&cmd, now_ms) {
                Some(ok) => {
                    let ops = self.ops.as_mut().expect("pump runs only with ops on");
                    cmds.extend(ops.engine.complete(cmd.id, ok, now_ms));
                }
                None => {
                    let ops = self.ops.as_mut().expect("pump runs only with ops on");
                    ops.pending_ota.push(cmd);
                }
            }
        }
    }

    /// Executes one ops command against the real subsystems. `None`
    /// means the command is deferred (it needs the driver), otherwise
    /// the command's outcome.
    fn ops_execute(&mut self, cmd: &OpsCommand, now_ms: u64) -> Option<bool> {
        match &cmd.action {
            Action::QuarantineSite { site } => {
                let known = (*site as usize) < self.len();
                if known {
                    let ops = self.ops.as_mut().expect("ops on");
                    ops.quarantined.insert(*site);
                }
                Some(known)
            }
            Action::QuarantineReporting { class } => {
                let reporting = self.siem.sites_reporting(class);
                let ops = self.ops.as_mut().expect("ops on");
                ops.quarantined.extend(reporting);
                Some(true)
            }
            Action::RevokeSigner => {
                self.backend.revoke_signer(now_ms);
                Some(true)
            }
            Action::HaltRollout => {
                let ops = self.ops.as_mut().expect("ops on");
                ops.rollouts_halted = true;
                Some(true)
            }
            Action::OtaRollout => None,
            Action::CheckQuiet { class, since_ms } => Some(
                self.siem
                    .last_alert_at(class)
                    .is_none_or(|at| at < *since_ms),
            ),
            Action::MitigateRisk { class } => {
                let attack_class = alert_class_to_attack_class(class);
                self.risk.mitigate(attack_class, now_ms);
                if let Some(tara) = &mut self.tara {
                    tara.retire(attack_class, now_ms);
                }
                Some(true)
            }
        }
    }

    /// Runs the fleet for `duration` with no rollout in progress (attack
    /// campaigns and SIEM correlation still run).
    pub fn run(&mut self, duration: SimDuration) {
        let end = self.now + duration;
        while self.now < end {
            self.tick();
        }
    }

    /// Publishes firmware `version` and distributes it fleet-wide under
    /// the staged rollout policy.
    ///
    /// The rollout proceeds wave by wave (canary first). A wave must
    /// fully resolve (every member applied or rejected) and then soak for
    /// [`RolloutPolicy::observe_ticks`]; IDS alerts raised by wave
    /// members during distribution or soak count towards
    /// [`RolloutPolicy::halt_alert_threshold`], and reaching it halts
    /// the rollout. A fully completed rollout withdraws the
    /// firmware-tampering escalation from the continuous assessment
    /// (the fleet has patched; the field evidence is stale).
    ///
    /// While an ops containment `HaltRollout` stands, the rollout is
    /// refused: nothing is published or distributed, no tick runs, and
    /// the report reads `halted_at_wave == Some(0)` with zero
    /// `bytes_on_air`. Only a remediation rollout
    /// ([`Fleet::run_ops_remediations`]) supersedes the halt.
    ///
    /// An empty fleet has no wave to run: nothing is published or
    /// distributed and no tick runs. No site is left on the old
    /// firmware, so the report reads `completed` with every count zero,
    /// and the escalation is withdrawn as after any completed rollout.
    pub fn run_rollout(&mut self, version: u32) -> RolloutReport {
        let mut report = RolloutReport {
            fleet_size: self.len(),
            target_version: version,
            completed: false,
            halted_at_wave: None,
            applied_sites: 0,
            rejected_sites: 0,
            reject_reasons: BTreeMap::new(),
            latency_ms: 0,
            bytes_on_air: 0,
            frames_sent: 0,
            detect_to_halt_ms: None,
            verify_wall_us: 0,
            verify_calls: 0,
            batch_verify_calls: 0,
            batch_verified_sites: 0,
            individually_verified_sites: 0,
        };
        // Containment freeze: an ops HaltRollout stands — nothing is
        // published or distributed — until a remediation rollout
        // supersedes it ([`Fleet::run_ops_remediations`] clears the
        // flag before calling back in here).
        if self.ops.as_ref().is_some_and(|o| o.rollouts_halted) {
            report.halted_at_wave = Some(0);
            return report;
        }
        let waves = self.config.policy.waves(self.len());
        if waves.is_empty() {
            report.completed = true;
            self.withdraw_firmware_tampering();
            return report;
        }
        let update_id = self.backend.next_update_id;
        let released_at = self.now.as_millis();
        let bundle = self.backend.publish(version, released_at, &mut self.rng);
        // The rollback candidate a downgrade attacker would replay: the
        // oldest published bundle (the genuinely signed baseline).
        let old_encoded = self.backend.published.first().map(UpdateBundle::encode);

        for fs in &mut self.sites {
            fs.delivery = None;
            fs.outcome = None;
        }
        self.shadows.reset_rollout(bundle.encode(), old_encoded);

        let started = self.now;
        let mut wave = 0usize;
        let mut phase = RolloutPhase::Distributing;
        let mut observe_left = 0u32;
        let mut updated_site_alerts = 0u32;
        let mut first_update_alert_ms: Option<u64> = None;
        let mut shadow_resolved_in_wave = 0usize;
        self.record_wave(wave, "start");

        for _ in 0..MAX_ROLLOUT_TICKS {
            let alerts = self.tick();
            for &(site, at_ms) in &alerts {
                // Only alerts from machines running the new firmware
                // implicate the rollout itself.
                if self.is_site_applied(site) {
                    updated_site_alerts += 1;
                    first_update_alert_ms.get_or_insert(at_ms);
                }
            }

            if updated_site_alerts >= self.config.policy.halt_alert_threshold {
                self.record_wave(wave, "halt");
                report.halted_at_wave = Some(wave as u32);
                report.detect_to_halt_ms =
                    first_update_alert_ms.map(|at| self.now.as_millis().saturating_sub(at));
                break;
            }

            match phase {
                RolloutPhase::Distributing => {
                    let tamper = self.kind_active(AttackKind::UpdateTampering);
                    let downgrade = self.kind_active(AttackKind::Downgrade);
                    let poisoning = self.kind_active(AttackKind::RolloutPoisoning);
                    let now = self.now;
                    let budget = CHUNKS_PER_TICK;
                    let wave_sites = waves[wave].clone();
                    let full = self.shadows.layout.full_within(&wave_sites);
                    let mut applied_sites = Vec::new();
                    for pos in full.clone() {
                        let fs = &mut self.sites[pos];
                        if fs.outcome.is_some() {
                            continue;
                        }
                        let idx = fs.index;
                        let delivery = fs.delivery.get_or_insert_with(|| {
                            // A downgrade MITM substitutes the old but
                            // genuinely signed bundle on the wire.
                            Delivery::new(
                                update_id,
                                self.shadows.delivered(downgrade),
                                CHUNK_BYTES,
                                self.rng.fork(&format!("tamper-{update_id}-{idx}")),
                            )
                        });
                        let Some(bytes) = delivery.step(&mut fs.uplink, budget, tamper, now) else {
                            continue;
                        };
                        report.bytes_on_air += delivery.bytes_on_air;
                        report.frames_sent += delivery.frames_sent;
                        fs.delivery = None;
                        let (outcome, verify_us) = fs.apply(
                            &bytes,
                            &self.backend.store,
                            &self.backend.crls,
                            now.as_millis(),
                        );
                        if let Some(us) = verify_us {
                            report.verify_wall_us += us;
                            report.verify_calls += 1;
                        }
                        let (ok, reason) = match &outcome {
                            Ok(_) => {
                                report.applied_sites += 1;
                                applied_sites.push(pos);
                                (true, "applied")
                            }
                            Err(reason) => {
                                report.rejected_sites += 1;
                                *report
                                    .reject_reasons
                                    .entry((*reason).to_string())
                                    .or_default() += 1;
                                (false, *reason)
                            }
                        };
                        fs.outcome = Some(outcome);
                        self.recorder.record_at(
                            now,
                            Event::UpdateApply {
                                site: idx,
                                version,
                                ok,
                                reason: Label::new(reason),
                            },
                        );
                    }
                    // A poisoned (signed but malicious) image starts
                    // misbehaving right after it is applied — the staged
                    // rollout exists to catch exactly this at the canary.
                    if poisoning {
                        for pos in applied_sites {
                            self.poison_site(pos);
                        }
                    }

                    // Shadow members of the wave: sharded distribution,
                    // merged in shard order. Untampered sites read one
                    // shared verdict per bundle variant, decided under
                    // this tick's CRLs.
                    let jam = self
                        .campaigns
                        .iter()
                        .find(|c| c.kind == AttackKind::RfJamming && c.active_at(now))
                        .map_or(0.0, |c| c.intensity);
                    let poison_at_ms = poisoning.then(|| (now + self.config.site.tick).as_millis());
                    let ctx = ShadowRolloutCtx {
                        store: &self.backend.store,
                        crls: &self.backend.crls,
                        budget,
                        now_ms: now.as_millis(),
                        tick_index: self.tick_index,
                        tamper,
                        downgrade,
                        poison_at_ms,
                        jam,
                    };
                    for (shard, out) in self
                        .shadows
                        .rollout_sweep(wave_sites.start as u32, wave_sites.end as u32, &ctx)
                        .iter()
                        .enumerate()
                    {
                        report.applied_sites += out.applied;
                        report.rejected_sites += out.rejected;
                        for (ri, &n) in out.reject_reasons.iter().enumerate() {
                            if n > 0 {
                                *report
                                    .reject_reasons
                                    .entry(REJECT_REASONS[ri].to_string())
                                    .or_default() += n;
                            }
                        }
                        report.bytes_on_air += out.bytes_on_air;
                        report.frames_sent += out.frames_sent;
                        report.batch_verify_calls += out.batch_verify_calls;
                        report.batch_verified_sites += out.batch_verified_sites;
                        report.individually_verified_sites += out.individually_verified_sites;
                        shadow_resolved_in_wave += out.resolved() as usize;
                        if out.resolved() > 0 {
                            self.recorder.record_at(
                                now,
                                Event::ShadowWave {
                                    shard: shard as u32,
                                    applied: out.applied,
                                    rejected: out.rejected,
                                },
                            );
                        }
                    }

                    let full_resolved = self.sites[full.clone()]
                        .iter()
                        .all(|fs| fs.outcome.is_some());
                    if full_resolved && shadow_resolved_in_wave >= wave_sites.len() - full.len() {
                        phase = RolloutPhase::Observing;
                        observe_left = self.config.policy.observe_ticks;
                    }
                }
                RolloutPhase::Observing => {
                    if observe_left > 0 {
                        observe_left -= 1;
                    } else {
                        self.record_wave(wave, "complete");
                        wave += 1;
                        if wave == waves.len() {
                            phase = RolloutPhase::Complete;
                        } else {
                            phase = RolloutPhase::Distributing;
                            shadow_resolved_in_wave = 0;
                            self.record_wave(wave, "start");
                        }
                    }
                }
                RolloutPhase::Complete => {}
            }

            if phase == RolloutPhase::Complete {
                report.completed = true;
                self.withdraw_firmware_tampering();
                break;
            }
        }

        // Deliveries still in flight when the rollout ends (halted, or a
        // jammed uplink that never completed) have spent real airtime.
        for fs in &mut self.sites {
            if let Some(delivery) = fs.delivery.take() {
                report.bytes_on_air += delivery.bytes_on_air;
                report.frames_sent += delivery.frames_sent;
            }
        }
        report.latency_ms = self.now.since(started).as_millis();
        report
    }

    /// The fleet has patched: withdraws the field-evidence escalation
    /// that motivated the rollout.
    fn withdraw_firmware_tampering(&mut self) {
        self.risk
            .mitigate("firmware-tampering", self.now.as_millis());
        if let Some(tara) = &mut self.tara {
            tara.retire("firmware-tampering", self.now.as_millis());
        }
    }

    /// Models a poisoned image's misbehaviour: the compromised machine
    /// starts replaying captured traffic, forging de-auth frames and
    /// feeding spoofed GNSS fixes on its own worksite, which the site
    /// IDS picks up across three distinct detector classes.
    fn poison_site(&mut self, idx: usize) {
        let start = self.now + self.config.site.tick;
        let duration = SimDuration::from_secs(120);
        let engine = self.sites[idx].site.attack_engine_mut();
        engine.add_campaign(AttackCampaign {
            kind: AttackKind::Replay,
            target: AttackTarget::Network,
            start,
            duration,
            intensity: 1.0,
        });
        engine.add_campaign(AttackCampaign {
            kind: AttackKind::DeauthFlood,
            target: AttackTarget::Link {
                spoof_as: silvasec_comms::NodeId(0),
                victim: silvasec_comms::NodeId(1),
            },
            start,
            duration,
            intensity: 1.0,
        });
        // A third misbehavior class: the IDS rate-limits repeats of a
        // class (30 s cooldown), so crossing the fleet halt threshold
        // quickly needs alerts from *distinct* detectors, exactly what a
        // trojanized machine produces.
        engine.add_campaign(AttackCampaign {
            kind: AttackKind::GnssSpoofing,
            target: AttackTarget::Area {
                center: Vec2::new(100.0, 100.0),
                radius_m: 500.0,
            },
            start,
            duration,
            intensity: 1.0,
        });
    }

    fn record_wave(&self, wave: usize, phase: &str) {
        self.recorder.record_at(
            self.now,
            Event::RolloutWave {
                wave: wave as u32,
                phase: Label::new(phase),
            },
        );
    }

    /// The fleet-level security trace (rollout, campaign and risk
    /// events) as JSONL — the stream the trace-divergence tooling
    /// compares across runs.
    #[must_use]
    pub fn export_trace_jsonl(&self) -> String {
        self.recorder.export_jsonl(self.trace_sub)
    }

    /// The continuous risk assessment fed by the SIEM.
    #[must_use]
    pub fn risk(&self) -> &ContinuousAssessment {
        &self.risk
    }

    /// The SIEM aggregator.
    #[must_use]
    pub fn siem(&self) -> &FleetSiem {
        &self.siem
    }

    /// The update backend.
    #[must_use]
    pub fn backend(&self) -> &FleetBackend {
        &self.backend
    }

    /// The incident-response engine, when [`FleetConfig::ops`] is set.
    #[must_use]
    pub fn ops(&self) -> Option<&OpsEngine> {
        self.ops.as_ref().map(|o| &o.engine)
    }

    /// The live TARA hypotheses, when [`FleetConfig::tara`] is set.
    #[must_use]
    pub fn tara(&self) -> Option<&HypothesisSet> {
        self.tara.as_ref()
    }

    /// Runs blocked on an explicit ops review, in run-id order (empty
    /// with ops off).
    #[must_use]
    pub fn ops_pending_reviews(&self) -> Vec<u64> {
        self.ops
            .as_ref()
            .map_or_else(Vec::new, |o| o.engine.pending_reviews())
    }

    /// Delivers a reviewer verdict for a run awaiting its gate and
    /// executes the follow-on commands (remediation on approve).
    pub fn ops_review(&mut self, run: u64, decision: GateDecision) {
        let now_ms = self.now.as_millis();
        let Some(ops) = &mut self.ops else {
            return;
        };
        let cmds = ops.engine.review(run, decision, now_ms);
        self.ops_run_commands(cmds, now_ms);
    }

    /// Remediation rollouts the ops engine has requested but the driver
    /// has not yet run.
    #[must_use]
    pub fn ops_pending_remediations(&self) -> usize {
        self.ops.as_ref().map_or(0, |o| o.pending_ota.len())
    }

    /// Runs one staged rollout of the next firmware version for every
    /// ops remediation parked so far, then reports its outcome to each
    /// parked command in park order (success feeds the run into
    /// verification). The rollout supersedes the containment freeze.
    /// Commands parked while it ticks wait for the next call. With
    /// nothing parked (or ops off) nothing is published and the result
    /// is `None`.
    ///
    /// A rollout spans many ticks of fleet time, so every remediating
    /// run's queue lease must cover one rollout (not the whole park):
    /// configure [`silvasec_ops::QueueConfig::visibility_timeout_ms`]
    /// above the expected rollout duration or the engine will treat the
    /// rollout as abandoned and redeliver the run mid-remediation.
    pub fn run_ops_remediations(&mut self) -> Option<RolloutReport> {
        let pending = std::mem::take(&mut self.ops.as_mut()?.pending_ota);
        if pending.is_empty() {
            return None;
        }
        self.ops.as_mut().expect("ops on").rollouts_halted = false;
        let version = self
            .backend
            .published
            .iter()
            .map(|b| b.manifest.version)
            .max()
            .unwrap_or(0)
            + 1;
        let report = self.run_rollout(version);
        let now_ms = self.now.as_millis();
        for cmd in pending {
            let ops = self.ops.as_mut().expect("ops on");
            let more = ops.engine.complete(cmd.id, report.completed, now_ms);
            self.ops_run_commands(more, now_ms);
        }
        Some(report)
    }

    /// Sites currently quarantined by ops containment, ascending.
    #[must_use]
    pub fn quarantined_sites(&self) -> Vec<u32> {
        self.ops
            .as_ref()
            .map_or_else(Vec::new, |o| o.quarantined.iter().copied().collect())
    }

    /// IDS alerts withheld from the SIEM because their site was
    /// quarantined at drain time.
    #[must_use]
    pub fn ops_withheld_alerts(&self) -> u64 {
        self.ops.as_ref().map_or(0, |o| o.withheld_alerts)
    }

    /// Number of managed sites, full-fidelity and shadow members both.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shadows.layout.sites
    }

    /// Whether the fleet manages no sites.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Installed firmware version at `site` (full or shadow fidelity).
    ///
    /// # Panics
    ///
    /// Panics if `site` is out of range.
    #[must_use]
    pub fn installed_version(&self, site: usize) -> u32 {
        match self.site_slot(site as u32) {
            SiteSlot::Full(pos) => self.sites[pos as usize].installed_version,
            SiteSlot::Shadow { shard, slot } => self.shadows.shard(shard).installed_version(slot),
        }
    }

    /// Current fleet time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Read access to one managed worksite.
    ///
    /// # Panics
    ///
    /// Panics if `site` is out of range, or if `site` is a shadow member
    /// (shadow sites carry compact state, not a full [`Worksite`] — see
    /// [`Fleet::site_slot`]).
    #[must_use]
    pub fn worksite(&self, site: usize) -> &Worksite {
        match self.site_slot(site as u32) {
            SiteSlot::Full(pos) => &self.sites[pos as usize].site,
            SiteSlot::Shadow { .. } => panic!(
                "site {site} is a shadow member; only full-fidelity sites \
                 carry a Worksite (see Fleet::site_slot)"
            ),
        }
    }

    /// The shadow population and the fleet's layout. A fleet built
    /// without [`FleetConfig::shadow`] has every site full and no
    /// shards.
    #[must_use]
    pub fn shadows(&self) -> &ShadowPopulation {
        &self.shadows
    }

    /// A point-in-time security observability snapshot: population split,
    /// SIEM ingest/retention/drop counters and the fleet trace-ring state,
    /// so operators can see alert loss rather than infer it.
    #[must_use]
    pub fn security_snapshot(&self) -> FleetSecuritySnapshot {
        let trace = self
            .recorder
            .stats()
            .into_iter()
            .find(|s| s.name == "fleet");
        FleetSecuritySnapshot {
            sites: self.len(),
            full_sites: self.sites.len(),
            shadow_sites: self.shadows.layout.shadow_count(),
            siem_records_ingested: self.siem.records_ingested(),
            siem_observations_held: self.siem.observations_held(),
            siem_window_drops: self.siem.window_drops(),
            siem_window_drops_by_class: self.siem.window_drops_by_class(),
            siem_campaigns: self.siem.campaigns().len(),
            trace_pushed: trace.as_ref().map_or(0, |s| s.pushed),
            trace_ring_dropped: trace.as_ref().map_or(0, |s| s.dropped),
            shadow_mem_bytes: self.shadows.mem_bytes(),
            shadow_calendar_bytes: self.shadows.calendar_bytes(),
        }
    }
}

/// What [`Fleet::security_snapshot`] reports: where alerts can be lost
/// (SIEM sliding windows, trace ring) and how much state the shadow
/// population holds.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct FleetSecuritySnapshot {
    /// Total managed sites (full + shadow).
    pub sites: usize,
    /// Sites simulated at full fidelity.
    pub full_sites: usize,
    /// Sites tracked as compact shadows.
    pub shadow_sites: usize,
    /// Telemetry records the SIEM has ingested.
    pub siem_records_ingested: u64,
    /// Alert observations currently held across all class windows.
    pub siem_observations_held: usize,
    /// Alert observations dropped because a class window was full.
    pub siem_window_drops: u64,
    /// Per-class breakdown of window drops.
    pub siem_window_drops_by_class: Vec<(String, u64)>,
    /// Correlated campaigns detected so far.
    pub siem_campaigns: usize,
    /// Events pushed into the fleet trace ring.
    pub trace_pushed: u64,
    /// Events the fleet trace ring has dropped (ring full).
    pub trace_ring_dropped: u64,
    /// Bytes held by the shadow population (struct-of-arrays state,
    /// verdict caches and alert calendars).
    pub shadow_mem_bytes: usize,
    /// The part of `shadow_mem_bytes` held by alert calendars: zero
    /// until a campaign class can first fire.
    pub shadow_calendar_bytes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use silvasec_tara::HypothesisStatus;

    fn small_config(sites: usize) -> FleetConfig {
        FleetConfig {
            sites,
            policy: RolloutPolicy {
                canary_sites: 1,
                wave_size: 2,
                observe_ticks: 6,
                halt_alert_threshold: 3,
            },
            ..FleetConfig::default()
        }
    }

    #[test]
    fn clean_rollout_reaches_every_site() {
        let mut fleet = Fleet::new(small_config(3), 42);
        let report = fleet.run_rollout(2);
        assert!(report.completed, "rollout did not complete: {report:?}");
        assert_eq!(report.applied_sites, 3);
        assert_eq!(report.rejected_sites, 0);
        assert!(report.bytes_on_air > 0);
        for site in 0..fleet.len() {
            assert_eq!(fleet.installed_version(site), 2);
        }
    }

    #[test]
    fn shadowless_fleet_is_the_all_full_layout() {
        // `shadow: None` and a shadow config that keeps all four sites
        // full must build the same layout and export the same trace,
        // through a deauth campaign (which the shadow population also
        // schedules) and a rollout.
        let run = |shadow: Option<ShadowConfig>| {
            let mut fleet = Fleet::new(
                FleetConfig {
                    shadow,
                    ..small_config(4)
                },
                42,
            );
            assert_eq!(fleet.shadows().layout.full, [0, 1, 2, 3]);
            assert_eq!(fleet.shadows().shard_count(), 0);
            fleet.schedule_fleet_attack(AttackCampaign {
                kind: AttackKind::DeauthFlood,
                target: AttackTarget::Link {
                    spoof_as: silvasec_comms::NodeId(0),
                    victim: silvasec_comms::NodeId(1),
                },
                start: SimTime::from_secs(2),
                duration: SimDuration::from_secs(30),
                intensity: 1.0,
            });
            fleet.run(SimDuration::from_secs(40));
            let report = fleet.run_rollout(2);
            assert!(report.completed, "{report:?}");
            let report = serde_json::to_string(&report).expect("report serializes");
            (report, fleet.export_trace_jsonl())
        };
        let (report, trace) = run(None);
        assert!(trace.contains("CampaignAlert"), "{trace}");
        let all_full = ShadowConfig {
            full_sites: 4,
            ..ShadowConfig::default()
        };
        assert_eq!(run(Some(all_full)), (report, trace));
    }

    #[test]
    fn zero_site_fleet_builds_empty() {
        let fleet = Fleet::new(small_config(0), 42);
        assert!(fleet.is_empty());
        assert!(fleet.shadows().layout.full.is_empty());
        let snapshot = fleet.security_snapshot();
        assert_eq!((snapshot.full_sites, snapshot.shadow_sites), (0, 0));
    }

    #[test]
    fn zero_site_rollout_is_empty_and_complete() {
        let mut fleet = Fleet::new(small_config(0), 42);
        let published = fleet.backend.published.len();
        let report = fleet.run_rollout(2);
        assert!(report.completed, "{report:?}");
        assert_eq!(report.halted_at_wave, None);
        assert_eq!(report.fleet_size, 0);
        assert_eq!((report.applied_sites, report.rejected_sites), (0, 0));
        assert!(report.reject_reasons.is_empty());
        assert_eq!((report.bytes_on_air, report.frames_sent), (0, 0));
        assert_eq!(report.latency_ms, 0, "no tick runs");
        assert_eq!(
            fleet.backend.published.len(),
            published,
            "nothing published"
        );
    }

    #[test]
    fn tara_knob_carries_hypotheses_and_rollout_retires_firmware_tampering() {
        // Rank wide enough that every distinct scenario (2000 per
        // variant) becomes a hypothesis, so the firmware-tampering
        // retirement below is observable.
        let tc = TaraConfig {
            variants: 1,
            top_k: 2_048,
        };
        let config = FleetConfig {
            tara: Some(tc),
            ..small_config(3)
        };
        let mut fleet = Fleet::new(config, 42);
        let tara = fleet.tara().expect("tara knob on");
        assert_eq!(tara.hypotheses().len(), 2_000);
        let (open, confirmed, retired) = tara.counts();
        assert_eq!((confirmed, retired), (0, 0));
        assert!(open > 0);

        // A completed rollout mitigates firmware-tampering: the matching
        // hypotheses retire and the transitions land in the fleet trace.
        let report = fleet.run_rollout(2);
        assert!(report.completed);
        let tara = fleet.tara().expect("tara knob on");
        let retired_classes: Vec<&str> = tara
            .hypotheses()
            .iter()
            .filter(|h| h.status == HypothesisStatus::Retired)
            .map(|h| h.scenario.attack_class.as_str())
            .collect();
        assert!(!retired_classes.is_empty());
        assert!(retired_classes.iter().all(|c| *c == "firmware-tampering"));
        let trace = fleet.export_trace_jsonl();
        assert!(trace.contains("TaraHypothesis"), "transitions are traced");

        // With the knob off (the default), nothing TARA-shaped exists.
        let mut off = Fleet::new(small_config(3), 42);
        assert!(off.tara().is_none());
        let _ = off.run_rollout(2);
        assert!(!off.export_trace_jsonl().contains("TaraHypothesis"));
    }

    #[test]
    fn backend_signs_verifiable_bundles() {
        let mut rng = SimRng::from_seed(7);
        let mut backend = FleetBackend::commission(&mut rng);
        let bundle = backend.publish(3, 0, &mut rng);
        bundle
            .verify(backend.trust_store(), 100, &[], FLEET_COMPONENT, 1)
            .unwrap();
    }

    #[test]
    fn revoking_the_signer_rejects_old_chain_but_not_new_bundles() {
        let mut rng = SimRng::from_seed(7);
        let mut backend = FleetBackend::commission(&mut rng);
        let old = backend.publish(2, 0, &mut rng);
        backend.revoke_signer(500);
        assert_eq!(backend.crls().len(), 1);
        // The pre-revocation bundle fails chain validation once the CRL
        // is consulted...
        let err = old
            .verify(
                backend.trust_store(),
                1_000,
                backend.crls(),
                FLEET_COMPONENT,
                1,
            )
            .unwrap_err();
        assert!(matches!(err, crate::BundleError::Chain(_)));
        // ...while ignoring CRLs still accepts it.
        old.verify(backend.trust_store(), 1_000, &[], FLEET_COMPONENT, 1)
            .unwrap();
        // A bundle published after rotation carries the fresh leaf for
        // the same pinned signing key: it verifies under the CRLs and
        // still boots on a device pinned at commissioning.
        let fresh = backend.publish(3, 1_500, &mut rng);
        fresh
            .verify(
                backend.trust_store(),
                2_000,
                backend.crls(),
                FLEET_COMPONENT,
                1,
            )
            .unwrap();
        let mut device = Device::new(FLEET_COMPONENT, backend.signer_key());
        assert!(device.boot(&fresh.images).success);
    }
}
