//! **Performance snapshot** — the machine-readable datapoints behind the
//! `BENCH_*.json` trajectory.
//!
//! Runs the reference Figure 2 occlusion sweep (8 densities × 4 seeds)
//! once sequentially and once on the parallel sweep engine, plus one
//! standard worksite episode and a flight-recorder overhead comparison
//! (instrumented vs disabled), then **appends** one run entry to
//! `BENCH_perf_snapshot.json` so successive revisions accumulate into a
//! perf trajectory instead of overwriting each other. The sequential and
//! parallel sweeps are compared field for field — the engine's
//! determinism contract (bit-identical results) is asserted on every run.
//!
//! Run keys come from the environment, never from a wall clock inside
//! the simulation:
//!
//! * `SILVASEC_GIT_SHA` — revision identifier (falls back to
//!   `git rev-parse HEAD`, then `unknown`);
//! * `SILVASEC_RUN_TS` — timestamp string (default `unspecified`);
//! * `SILVASEC_PERF_OUT` — output path (default
//!   `BENCH_perf_snapshot.json` at the workspace root).
//!
//! Run with: `cargo run --release -p silvasec-bench --bin perf_snapshot`

use serde::Serialize;
use silvasec::crypto::schnorr::{self, BatchItem, SigningKey};
use silvasec::experiments::{
    occlusion_point, occlusion_sweep, run_episode_pooled, run_fleet_scale_point, run_ops_load,
    run_worksite, EpisodeRunner, EpisodeSpec, FleetScenario, OcclusionRow,
};
use silvasec::prelude::*;
use silvasec::sweep::{par_sweep_with_stats, worker_count};
use silvasec_bench::{
    append_trajectory_run, measure_recorder_overhead, run_keys, session_pair, trajectory_out_path,
    RecorderOverhead,
};
use silvasec_sim::time::SimDuration;
use std::time::Instant;

/// Reference sweep: 8 densities × 4 seeds at 15 m relief.
const DENSITIES: [f64; 8] = [0.0, 100.0, 300.0, 500.0, 700.0, 900.0, 1200.0, 1500.0];
const SEEDS: [u64; 4] = [5, 17, 29, 43];
const RELIEF_M: f64 = 15.0;
const POINT_SECS: u64 = 200;

#[derive(Debug, Serialize)]
struct RunEntry {
    /// Revision identifier (`SILVASEC_GIT_SHA`, else `git rev-parse
    /// HEAD`, else `unknown`).
    git_sha: String,
    /// Run timestamp (`SILVASEC_RUN_TS`, `unspecified` if unset).
    run_ts: String,
    /// Worker threads the parallel sweep used (hardware-dependent).
    workers: usize,
    /// Hardware threads the host reported (`available_parallelism`).
    /// Readers of the trajectory need this to interpret `speedup`: a
    /// `workers: 1` entry from a single-core container is not a
    /// regression, it is the host.
    detected_cores: usize,
    /// Grid size of the reference sweep.
    sweep_points: usize,
    /// Sequential wall-clock for the reference sweep, seconds.
    sequential_wall_s: f64,
    /// Parallel wall-clock for the reference sweep, seconds.
    parallel_wall_s: f64,
    /// sequential / parallel.
    speedup: f64,
    /// Sweep points per second, sequential.
    sequential_points_per_s: f64,
    /// Sweep points per second, parallel.
    parallel_points_per_s: f64,
    /// Whether the parallel rows matched the sequential rows bit for bit.
    deterministic: bool,
    /// Wall-clock of one standard 300 s worksite episode, seconds.
    worksite_episode_wall_s: f64,
    /// Simulated seconds per wall-clock second for that episode.
    worksite_sim_rate: f64,
    /// Flight-recorder overhead (instrumented vs disabled episode).
    telemetry: RecorderOverhead,
    /// Crypto hot-path headline numbers (fast paths only — see
    /// `crypto_bench` for the full suite with frozen naive baselines,
    /// cross-check digests, and acceptance floors).
    crypto: CryptoHeadline,
    /// Secure-session data-plane headline (fast paths only — see
    /// `data_plane_bench` for the full suite with frozen naive
    /// baselines, cross-check digests, and acceptance floors).
    session: SessionHeadline,
    /// Fleet-scale control-plane headline (one mid-size two-fidelity
    /// rollout — see `exp12_fleet_scale` / `BENCH_fleet_scale.json` for
    /// the full 64 → 1M sweep with the equivalence proofs and the peak
    /// bytes/site ceiling).
    fleet_scale: FleetScaleHeadline,
    /// Incident-response ops headline (one 1k-incident synthetic load —
    /// see `exp13_ops` / `BENCH_ops.json` for the full 10 → 10k sweep
    /// with the determinism, replay and accounting proofs).
    ops: OpsHeadline,
    /// Generative TARA headline (one 10⁵-scenario enumeration — see
    /// `exp11_tara` / `BENCH_tara.json` for the full 10² → 10⁶ sweep
    /// with the determinism, dedup and oracle proofs).
    tara: TaraHeadline,
    /// Pooled episode-engine headline (one mid-size batch).
    episodes: EpisodeHeadline,
}

/// Pooled episode-engine throughput at one mid-size batch.
#[derive(Debug, Serialize)]
struct EpisodeHeadline {
    /// Episodes in the measured batch.
    episodes: usize,
    /// Pooled episodes per wall-clock second.
    episodes_per_s: f64,
    /// Mean `reset_for_episode` wall time, microseconds per episode.
    setup_us_per_episode: f64,
}

fn episode_headline() -> EpisodeHeadline {
    const EPISODES: usize = 500;
    const ATTACKS: [Option<AttackKind>; 4] = [
        None,
        Some(AttackKind::RfJamming),
        Some(AttackKind::DeauthFlood),
        Some(AttackKind::Replay),
    ];
    let specs: Vec<EpisodeSpec> = (0..EPISODES)
        .map(|i| {
            EpisodeSpec::compact(
                SecurityPosture::secure(),
                ATTACKS[i % ATTACKS.len()],
                11,
                SimDuration::from_secs(2),
            )
        })
        .collect();

    let t0 = Instant::now();
    let outcomes = EpisodeRunner::with_workers(1).run(&specs);
    let wall_s = t0.elapsed().as_secs_f64();
    assert_eq!(outcomes.len(), EPISODES);

    // Steady-state reset window: warm one episode per attack class,
    // then time the reset + arm calls.
    let mut slot: Option<Worksite> = None;
    for spec in specs.iter().take(ATTACKS.len()) {
        let _ = run_episode_pooled(&mut slot, spec);
    }
    let site = slot.as_mut().expect("warmup populated the pool slot");
    const RESETS: usize = 64;
    let t0 = Instant::now();
    for spec in specs.iter().cycle().take(RESETS) {
        site.reset_for_episode(&spec.config, spec.seed);
        spec.arm(site);
    }
    let setup_us = t0.elapsed().as_secs_f64() / RESETS as f64 * 1e6;

    EpisodeHeadline {
        episodes: EPISODES,
        episodes_per_s: EPISODES as f64 / wall_s.max(1e-9),
        setup_us_per_episode: setup_us,
    }
}

/// Generative TARA enumeration throughput at one mid-size point.
#[derive(Debug, Serialize)]
struct TaraHeadline {
    /// Scenario cells enumerated, deduped and scored.
    scenarios: u64,
    /// Enumerated scenarios per wall-clock second.
    scenarios_per_s: f64,
    /// Scenarios kept in the deterministic ranking.
    top_k: usize,
}

fn tara_headline() -> TaraHeadline {
    use silvasec::risk::catalog::worksite_model;
    use silvasec::tara::{ScenarioSpace, TaraCatalog};
    const TARGET: u64 = 100_000;
    const TOP_K: usize = 64;
    let catalog = TaraCatalog::from_model(&worksite_model());
    let variants = ScenarioSpace::variants_for(&catalog, TARGET);
    let space = ScenarioSpace::new(&catalog, 11, variants, TOP_K);
    let t0 = Instant::now();
    let report = space.enumerate_parallel();
    let wall_s = t0.elapsed().as_secs_f64();
    assert!(
        report.enumerated >= TARGET && report.top.len() <= TOP_K,
        "tara headline enumeration must cover the target: {report:?}"
    );
    TaraHeadline {
        scenarios: report.enumerated,
        scenarios_per_s: report.enumerated as f64 / wall_s.max(1e-9),
        top_k: report.top.len(),
    }
}

/// Incident-response workflow throughput at one mid-size load point.
#[derive(Debug, Serialize)]
struct OpsHeadline {
    /// Incidents submitted to the engine.
    incidents: usize,
    /// Incidents driven to settlement per wall-clock second.
    incidents_per_s: f64,
    /// Fraction of opened runs that closed verified (the rest escalated,
    /// were rejected at triage, or dead-lettered).
    closed_frac: f64,
}

fn ops_headline() -> OpsHeadline {
    const INCIDENTS: usize = 1_000;
    let t0 = Instant::now();
    let (engine, _) = run_ops_load(INCIDENTS, 13);
    let wall_s = t0.elapsed().as_secs_f64();
    let counters = engine.store().counters();
    assert!(
        engine.queue_conserves() && counters.settled() == counters.opened,
        "ops headline load must settle cleanly: {counters:?}"
    );
    OpsHeadline {
        incidents: INCIDENTS,
        incidents_per_s: INCIDENTS as f64 / wall_s.max(1e-9),
        closed_frac: counters.closed as f64 / counters.opened.max(1) as f64,
    }
}

/// Two-fidelity fleet rollout throughput and batched-verify
/// amortization at one mid-size point.
#[derive(Debug, Serialize)]
struct FleetScaleHeadline {
    /// Fleet size of the measured point.
    sites: usize,
    /// Site-updates applied per wall-clock second.
    sites_per_s: f64,
    /// Shadow sites resolved per Fiat–Shamir batch verification — the
    /// factor by which per-site verifies were amortized away.
    batch_verify_amortization: f64,
}

fn fleet_scale_headline() -> FleetScaleHeadline {
    const SITES: usize = 16_384;
    let t0 = Instant::now();
    let (report, _) = run_fleet_scale_point(SITES, 11, FleetScenario::Clean, false);
    let wall_s = t0.elapsed().as_secs_f64();
    assert!(
        report.completed && report.applied_sites == SITES as u32,
        "fleet-scale headline rollout must complete fleet-wide: {report:?}"
    );
    FleetScaleHeadline {
        sites: SITES,
        sites_per_s: SITES as f64 / wall_s.max(1e-9),
        batch_verify_amortization: report.batch_verified_sites as f64
            / report.batch_verify_calls.max(1) as f64,
    }
}

/// Schnorr throughput on the fast scalar-multiplication paths.
#[derive(Debug, Serialize)]
struct CryptoHeadline {
    /// Signatures per second (shared basepoint table).
    sign_per_s: f64,
    /// Single verifications per second (Straus double-scalar path).
    verify_per_s: f64,
    /// Per-signature throughput of a 16-signature batch verification
    /// (one shared doubling chain).
    verify_batch16_per_sig_per_s: f64,
}

fn crypto_headline() -> CryptoHeadline {
    const ITERS: usize = 32;
    const BATCH: usize = 16;
    let time = |f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        for _ in 0..ITERS {
            f();
        }
        t0.elapsed().as_secs_f64().max(1e-12) / ITERS as f64
    };

    let keys: Vec<SigningKey> = (0..BATCH)
        .map(|i| SigningKey::from_seed(&[0x60 + i as u8; 32]))
        .collect();
    let messages: Vec<Vec<u8>> = (0..BATCH)
        .map(|i| format!("perf-snapshot crypto headline {i}").into_bytes())
        .collect();
    let signatures: Vec<_> = keys.iter().zip(&messages).map(|(k, m)| k.sign(m)).collect();
    let verifiers: Vec<_> = keys.iter().map(SigningKey::verifying_key).collect();
    let items: Vec<BatchItem<'_>> = (0..BATCH)
        .map(|i| BatchItem {
            message: &messages[i],
            signature: &signatures[i],
            key: &verifiers[i],
        })
        .collect();

    let sign_s = time(&mut || {
        std::hint::black_box(keys[0].sign(&messages[0]));
    });
    let verify_s = time(&mut || {
        verifiers[0].verify(&messages[0], &signatures[0]).unwrap();
    });
    let batch_s = time(&mut || {
        assert!(schnorr::verify_batch(&items));
    });
    CryptoHeadline {
        sign_per_s: 1.0 / sign_s,
        verify_per_s: 1.0 / verify_s,
        verify_batch16_per_sig_per_s: BATCH as f64 / batch_s,
    }
}

/// Established-session record throughput over the one-pass AEAD and
/// reused buffers (each iteration seals one record and opens it on the
/// peer — the full data-plane round trip).
#[derive(Debug, Serialize)]
struct SessionHeadline {
    /// Record payload size used for the measurement, bytes.
    record_payload_bytes: usize,
    /// Records sealed **and** opened per second.
    records_per_s: f64,
    /// Plaintext throughput implied by the record rate, MB/s.
    mb_per_s: f64,
}

fn session_headline() -> SessionHeadline {
    const ITERS: usize = 2048;
    const PAYLOAD: usize = 1024;
    let (mut tx, mut rx) = session_pair(47);
    let payload = vec![0x42u8; PAYLOAD];
    let mut record = Vec::new();
    let mut opened = Vec::new();
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        for _ in 0..ITERS {
            tx.seal_into(&payload, &mut record).expect("seal record");
            rx.open_into(&record, &mut opened).expect("open record");
        }
        best = best.min(t0.elapsed().as_secs_f64());
    }
    assert_eq!(opened, payload);
    let records_per_s = ITERS as f64 / best.max(1e-12);
    SessionHeadline {
        record_payload_bytes: PAYLOAD,
        records_per_s,
        mb_per_s: records_per_s * PAYLOAD as f64 / 1e6,
    }
}

fn rows_bit_identical(a: &[OcclusionRow], b: &[OcclusionRow]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.density.to_bits() == y.density.to_bits()
                && x.relief_m.to_bits() == y.relief_m.to_bits()
                && x.forwarder_coverage.to_bits() == y.forwarder_coverage.to_bits()
                && x.combined_coverage.to_bits() == y.combined_coverage.to_bits()
                && x.forwarder_ttd_s.to_bits() == y.forwarder_ttd_s.to_bits()
                && x.combined_ttd_s.to_bits() == y.combined_ttd_s.to_bits()
        })
}

fn main() {
    let duration = SimDuration::from_secs(POINT_SECS);

    // Sequential reference: the nested map `occlusion_sweep` used before
    // the sweep engine existed, aggregation fold order included.
    let t0 = Instant::now();
    let sequential: Vec<OcclusionRow> = DENSITIES
        .iter()
        .map(|&density| {
            let rows: Vec<OcclusionRow> = SEEDS
                .iter()
                .map(|&s| occlusion_point(density, RELIEF_M, s, duration))
                .collect();
            let n = rows.len() as f64;
            OcclusionRow {
                density,
                relief_m: RELIEF_M,
                forwarder_coverage: rows.iter().map(|r| r.forwarder_coverage).sum::<f64>() / n,
                combined_coverage: rows.iter().map(|r| r.combined_coverage).sum::<f64>() / n,
                forwarder_ttd_s: rows.iter().map(|r| r.forwarder_ttd_s).sum::<f64>() / n,
                combined_ttd_s: rows.iter().map(|r| r.combined_ttd_s).sum::<f64>() / n,
            }
        })
        .collect();
    let sequential_wall_s = t0.elapsed().as_secs_f64();

    // Parallel run of the same grid through the engine.
    let t1 = Instant::now();
    let parallel = occlusion_sweep(&DENSITIES, RELIEF_M, &SEEDS, duration);
    let parallel_wall_s = t1.elapsed().as_secs_f64();

    let deterministic = rows_bit_identical(&sequential, &parallel);

    // Engine stats for the same grid (per-point timings, worker count).
    let points: Vec<(f64, u64)> = DENSITIES
        .iter()
        .flat_map(|&d| SEEDS.iter().map(move |&s| (d, s)))
        .collect();
    let (_, stats) =
        par_sweep_with_stats(&points, |&(d, s)| occlusion_point(d, RELIEF_M, s, duration));

    // One standard worksite episode (the E1 baseline) for the episode
    // throughput axis of the trajectory.
    let t2 = Instant::now();
    let episode_secs = 300u64;
    let _ = run_worksite(
        SecurityPosture::secure(),
        None,
        3,
        SimDuration::from_secs(episode_secs),
    );
    let worksite_episode_wall_s = t2.elapsed().as_secs_f64();

    // Flight-recorder overhead on the same episode class (interleaved
    // median-of-rounds so frequency ramps cannot make it negative).
    let telemetry = measure_recorder_overhead(3, episode_secs, 3);

    // Crypto hot-path headline throughput.
    let crypto = crypto_headline();

    // Secure-session data-plane headline throughput.
    let session = session_headline();

    // Fleet-scale control-plane headline throughput.
    let fleet_scale = fleet_scale_headline();

    // Incident-response ops headline throughput.
    let ops = ops_headline();

    // Generative TARA enumeration headline throughput.
    let tara = tara_headline();

    // Pooled episode-engine headline throughput.
    let episodes = episode_headline();

    let sweep_points = DENSITIES.len() * SEEDS.len();
    let detected_cores =
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let (git_sha, run_ts) = run_keys();
    let entry = RunEntry {
        git_sha,
        run_ts,
        workers: worker_count(sweep_points).max(stats.workers),
        detected_cores,
        sweep_points,
        sequential_wall_s,
        parallel_wall_s,
        speedup: sequential_wall_s / parallel_wall_s.max(1e-9),
        sequential_points_per_s: sweep_points as f64 / sequential_wall_s.max(1e-9),
        parallel_points_per_s: sweep_points as f64 / parallel_wall_s.max(1e-9),
        deterministic,
        worksite_episode_wall_s,
        worksite_sim_rate: episode_secs as f64 / worksite_episode_wall_s.max(1e-9),
        telemetry,
        crypto,
        session,
        fleet_scale,
        ops,
        tara,
        episodes,
    };

    assert!(
        entry.deterministic,
        "parallel sweep rows diverged from the sequential reference — determinism contract broken"
    );
    // On a multi-core host the engine must actually win; a single-core
    // host cannot, so there the entry only records the fact.
    if detected_cores >= 2 {
        assert!(
            entry.speedup >= 1.0,
            "parallel sweep slower than sequential on a {detected_cores}-core host \
             (speedup {:.2})",
            entry.speedup
        );
    } else {
        eprintln!("single-core host: skipping the speedup assertion");
    }

    let out_path = trajectory_out_path("SILVASEC_PERF_OUT", "BENCH_perf_snapshot.json");
    append_trajectory_run(
        &out_path,
        "silvasec-perf-trajectory/1",
        Some("silvasec-perf-snapshot/1"),
        &entry,
    );

    println!(
        "{}",
        serde_json::to_string_pretty(&entry).expect("entry serializes")
    );
}
