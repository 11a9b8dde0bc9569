//! End-to-end and per-layer benchmark of the SilvaSec pathway.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <site_soak|episode_sweep|pathway|fleet_scale> \
//!     [--seed <u64>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Run from the repository root so `.cargo/config.toml` applies. One
//! workload per process: an untimed warm-up round, then timed rounds
//! until `--seconds` have passed (at least three). Every round sets its
//! system up, replays the same inputs, all derived from `--seed`, and
//! must reproduce the warm-up's digest. With `--trace 1` traced rounds alternate with untraced ones,
//! spans are written as JSON Lines under `benchmark/target/traces/` and
//! a per-layer table goes to stderr. `benchmark/README.md` describes the
//! workloads, metrics and bounds.
//!
//! Stdout ends with two JSON lines: a self-describing report, then the
//! result: `{"correct", "attempted", "failed", "metrics"}` with the
//! end-to-end metrics (untraced) or the per-layer metrics (traced).

mod episode_sweep;
mod fleet_scale;
mod pathway;
mod site_soak;
mod stats;
mod trace;
mod workload;

use serde_json::{Number, Value};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};
use trace::{Span, Tracer};
use workload::{Round, Workload};
use Reduce::{Median, Percentile, Total};

/// Workload names, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["site_soak", "episode_sweep", "pathway", "fleet_scale"];

/// End-to-end metrics `(name, unit)`, from untraced rounds.
const END_TO_END: [(&str, &str); 3] = [("round_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics `(name, unit)`, from traced rounds. Every workload
/// reports all of them; a layer a workload does not exercise reads 0.
/// `share.<span>` is that span name's share of the traced rounds' self
/// time (`bench.unattributed` is the rounds' own).
const PER_LAYER: [(&str, &str); 63] = [
    ("sos.tick_us.p50", "us"),
    ("sos.tick_us.p99", "us"),
    ("sos.tick_us.attack_p50", "us"),
    ("sos.tick_us.quiet_p50", "us"),
    ("sos.run_ms.p50", "ms"),
    ("sos.reset_us.hit_p50", "us"),
    ("sos.reset_us.miss_p50", "us"),
    ("sos.pki_template.hit_ratio", "frac"),
    ("sweep.parallel_efficiency", "frac"),
    ("fleet.new_ms", "ms"),
    ("tara.enumerate_ms", "ms"),
    ("fleet.tick_ms.p50", "ms"),
    ("fleet.tick_ms.p90", "ms"),
    ("fleet.run_s", "s"),
    ("fleet.rollout_ms.clean", "ms"),
    ("fleet.rollout_ms.tampered", "ms"),
    ("fleet.remediation_ms.mean", "ms"),
    ("fleet.bundle_verify_us", "us"),
    ("ops.review_us", "us"),
    ("share.sos.new", "frac"),
    ("share.sos.reset", "frac"),
    ("share.sos.tick", "frac"),
    ("share.sos.export", "frac"),
    ("share.sweep.episode", "frac"),
    ("share.fleet.new", "frac"),
    ("share.fleet.tick", "frac"),
    ("share.fleet.rollout", "frac"),
    ("share.fleet.rollout_tampered", "frac"),
    ("share.fleet.remediation", "frac"),
    ("share.fleet.export", "frac"),
    ("share.ops.review", "frac"),
    ("share.tara.enumerate", "frac"),
    ("share.bench.check", "frac"),
    ("share.bench.telemetry", "frac"),
    ("share.bench.unattributed", "frac"),
    ("trace.coverage", "frac"),
    ("trace_overhead_frac", "frac"),
    ("sos.ticks", "count"),
    ("comms.frames_tx", "count"),
    ("comms.frames_rx", "count"),
    ("comms.frames_lost", "count"),
    ("comms.loss_ratio", "frac"),
    ("channel.auth_fail", "count"),
    ("channel.forged_accepted", "count"),
    ("ids.alerts", "count"),
    ("machines.sensor_readings", "count"),
    ("telemetry.events", "count"),
    ("telemetry.ring_drops", "count"),
    ("fleet.remediation_rollouts", "count"),
    ("fleet.bytes_on_air", "bytes"),
    ("fleet.batch_amortization", "sites/call"),
    ("fleet.individually_verified_sites", "count"),
    ("fleet.shadow_bytes_per_site", "bytes"),
    ("ops.opened", "count"),
    ("ops.closed", "count"),
    ("ops.escalated", "count"),
    ("ops.redelivered", "count"),
    ("ops.dead_lettered", "count"),
    ("siem.ingested", "count"),
    ("siem.campaigns", "count"),
    ("siem.drop_ratio", "frac"),
    ("tara.confirmed", "count"),
    ("tara.retired", "count"),
];

/// How a per-layer timing reduces one traced round's spans of a name.
#[derive(Debug, Clone, Copy)]
enum Reduce {
    /// Σ durations: the time the round spent in the call.
    Total,
    /// Median duration of one call.
    Median,
    /// Nearest-rank percentile of one call, per mille, when ten calls
    /// rank above it.
    Percentile(usize),
}

/// Seconds per millisecond and per microsecond.
const MS: f64 = 1e-3;
const US: f64 = 1e-6;

/// Per-layer timings read off the spans of each traced round: metric,
/// span name, reduction and the metric's unit in seconds.
const SPAN_TIMINGS: [(&str, &str, Reduce, f64); 9] = [
    ("sos.run_ms.p50", "sweep.episode", Median, MS),
    ("fleet.new_ms", "fleet.new", Total, MS),
    ("tara.enumerate_ms", "tara.enumerate", Total, MS),
    ("fleet.tick_ms.p50", "fleet.tick", Median, MS),
    ("fleet.tick_ms.p90", "fleet.tick", Percentile(900), MS),
    ("fleet.run_s", "fleet.tick", Total, 1.0),
    ("fleet.rollout_ms.clean", "fleet.rollout", Total, MS),
    (
        "fleet.rollout_ms.tampered",
        "fleet.rollout_tampered",
        Total,
        MS,
    ),
    ("ops.review_us", "ops.review", Total, US),
];

/// Timed rounds (pairs, when traced) a run makes at least.
const MIN_ROUNDS: usize = 3;

const USAGE: &str = "usage: --workload <site_soak|episode_sweep|pathway|fleet_scale> \
                     [--seed <u64>] [--seconds <s>] [--trace <0|1>]";

/// Command-line arguments.
#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 11,
        seconds: 20,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => out.workload.clone_from(&value),
            "--seed" => out.seed = value.parse().map_err(bad)?,
            "--seconds" => out.seconds = value.parse().map_err(bad)?,
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value for --trace: {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&out.workload.as_str()) {
        return Err(format!("unknown workload {:?}", out.workload));
    }
    Ok(out)
}

/// The workload `name` at its benchmark size.
fn workload(name: &str, seed: u64, workers: usize) -> Box<dyn Workload> {
    match name {
        "site_soak" => Box::new(site_soak::SiteSoak { seed, hours: 12 }),
        "episode_sweep" => Box::new(episode_sweep::EpisodeSweep {
            seed,
            worlds: 128,
            workers,
        }),
        "pathway" => Box::new(pathway::Pathway {
            seed,
            sites: 128,
            full_sites: 8,
        }),
        "fleet_scale" => Box::new(fleet_scale::FleetScale {
            seed,
            sites: 524_288,
        }),
        other => unreachable!("workload {other} passed argument parsing"),
    }
}

/// Everything one run measured.
struct Run {
    warm_up: Round,
    plain: Vec<Round>,
    traced: Vec<(Round, Vec<Span>)>,
}

fn measure(w: &dyn Workload, seconds: u64, trace: bool) -> Run {
    let warm_up = w.round(&mut Tracer::new(false));
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    while plain.len() < MIN_ROUNDS || Instant::now() < deadline {
        plain.push(w.round(&mut Tracer::new(false)));
        if trace {
            let mut t = Tracer::new(true);
            let round = w.round(&mut t);
            // Each round's tracer numbers from 1; shift every round into
            // its own id range so ids stay unique across the run.
            let base = (traced.len() as u64 + 1) << 40;
            let spans = t
                .take()
                .into_iter()
                .map(|s| Span {
                    id: s.id + base,
                    parent: if s.parent == 0 { 0 } else { s.parent + base },
                    ..s
                })
                .collect();
            traced.push((round, spans));
        }
    }
    Run {
        warm_up,
        plain,
        traced,
    }
}

/// Peak resident set size of this process, MB (Linux `VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status (Linux)");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// `git rev-parse HEAD` of the checkout, `-dirty` when tracked files
/// changed, `unknown` outside a git repository. The search stops at the
/// checkout root.
fn git_head() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root");
    let git = |args: &[&str]| {
        Command::new("git")
            .arg("-C")
            .arg(root)
            .args(args)
            .env("GIT_CEILING_DIRECTORIES", root.parent().unwrap_or(root))
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    match git(&["rev-parse", "HEAD"]) {
        Some(sha) => {
            let dirty = git(&["status", "--porcelain", "--untracked-files=no"])
                .is_some_and(|s| !s.is_empty());
            if dirty {
                sha + "-dirty"
            } else {
                sha
            }
        }
        None => "unknown".into(),
    }
}

fn num(x: f64) -> Value {
    Value::Number(Number::F(x))
}

fn int(x: u64) -> Value {
    Value::Number(Number::U(x))
}

fn text(s: &str) -> Value {
    Value::String(s.to_string())
}

fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// Median, quartiles and sample count of `samples`.
fn summary(unit: &str, samples: &[f64]) -> Value {
    let (q1, q3) = stats::quartiles(samples);
    obj([
        ("unit", text(unit)),
        ("median", num(stats::median(samples))),
        ("q1", num(q1)),
        ("q3", num(q3)),
        ("n", int(samples.len() as u64)),
    ])
}

/// Median of `samples`, 0 for none (a layer the workload lacks).
fn median_or_zero(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        stats::median(samples)
    }
}

/// Per-layer metric values of a traced run.
fn per_layer(w: &dyn Workload, run: &Run) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|m| (m.0, 0.0)).collect();

    // Worksite tick latency, over every traced round's ticks.
    let ticks: Vec<&(f64, bool)> = run.traced.iter().flat_map(|r| &r.0.ticks).collect();
    let pick = |attack: Option<bool>| -> Vec<f64> {
        ticks
            .iter()
            .filter(|s| attack.is_none_or(|a| s.1 == a))
            .map(|s| s.0)
            .collect()
    };
    let all = pick(None);
    out.insert("sos.tick_us.p50", median_or_zero(&all));
    out.insert(
        "sos.tick_us.p99",
        stats::percentile(&all, 990).unwrap_or(0.0),
    );
    out.insert("sos.tick_us.attack_p50", median_or_zero(&pick(Some(true))));
    out.insert("sos.tick_us.quiet_p50", median_or_zero(&pick(Some(false))));

    // Everything else per traced round, then the median over rounds.
    let plain_work = stats::median(&run.plain.iter().map(|r| r.work_s).collect::<Vec<_>>());
    let traced_work = stats::median(&run.traced.iter().map(|r| r.0.work_s).collect::<Vec<_>>());
    out.insert("trace_overhead_frac", traced_work / plain_work - 1.0);
    let mut per_round: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (round, spans) in &run.traced {
        let by_name = trace::self_by_name(spans);
        let total: f64 = by_name.values().sum();
        for (name, s) in &by_name {
            if let Some(m) = PER_LAYER
                .iter()
                .find(|m| m.0.strip_prefix("share.") == Some(*name))
            {
                per_round.entry(m.0).or_default().push(s / total);
            }
        }
        let wall_s: f64 = durations_s(spans, trace::ROUND).iter().sum();
        per_round
            .entry("trace.coverage")
            .or_default()
            .push(total / (wall_s * w.workers() as f64));
        for (metric, name, reduce, unit_s) in SPAN_TIMINGS {
            let durs = durations_s(spans, name);
            let value_s = match reduce {
                Total => durs.iter().sum(),
                Median => median_or_zero(&durs),
                Percentile(pm) => stats::percentile(&durs, pm).unwrap_or(0.0),
            };
            per_round.entry(metric).or_default().push(value_s / unit_s);
        }
        if w.workers() > 1 {
            let busy: f64 = durations_s(spans, "sweep.episode").iter().sum();
            per_round
                .entry("sweep.parallel_efficiency")
                .or_default()
                .push(busy / (plain_work * w.workers() as f64));
        }
        for &(name, value) in &round.layer {
            per_round.entry(name).or_default().push(value);
        }
    }
    for (name, values) in per_round {
        out.insert(name, stats::median(&values));
    }
    out
}

/// Durations in seconds of the spans named `name`.
fn durations_s(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e9)
        .collect()
}

/// Writes the traced spans as JSON Lines and prints the per-layer table
/// to stderr; returns the table as JSON. `self%` is the share of the
/// traced rounds' wall time × the benchmark's worker threads.
fn report_trace(args: &Args, run: &Run, workers: usize) -> Value {
    let spans: Vec<Span> = run
        .traced
        .iter()
        .flat_map(|r| r.1.iter().copied())
        .collect();
    let table = trace::layer_table(&spans);
    let wall_s: f64 = durations_s(&spans, trace::ROUND).iter().sum();
    let capacity_s = wall_s * workers as f64;
    eprintln!(
        "{:<28} {:>9} {:>10} {:>10} {:>7} {:>11} {:>14}",
        "span", "calls", "total_s", "self_s", "self%", "p50_us", "tail_us"
    );
    for r in &table {
        let tail = r
            .tail_us
            .map_or_else(|| "-".into(), |(p, v)| format!("p{p}={v:.1}"));
        eprintln!(
            "{:<28} {:>9} {:>10.4} {:>10.4} {:>6.1}% {:>11.1} {:>14}",
            r.name,
            r.calls,
            r.total_s,
            r.self_s,
            100.0 * r.self_s / capacity_s,
            r.p50_us,
            tail
        );
    }
    let self_s: f64 = table.iter().map(|r| r.self_s).sum();
    eprintln!(
        "traced rounds: {}, wall {wall_s:.4} s x {workers} worker(s), self time {:.1}% of that",
        run.traced.len(),
        100.0 * self_s / capacity_s
    );

    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/traces");
    let path = dir.join(format!("{}-{}.jsonl", args.workload, args.seed));
    // The first traced round only: a site soak records 86 400 tick spans
    // a round, and one round shows the structure of them all.
    let first = run.traced.first().map_or(&[][..], |r| &r.1[..]);
    match std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, trace::to_jsonl(0, first)))
    {
        Ok(()) => eprintln!("spans: {}", path.display()),
        Err(e) => eprintln!("spans not written to {}: {e}", path.display()),
    }

    Value::Array(
        table
            .iter()
            .map(|r| {
                obj([
                    ("span", text(r.name)),
                    ("calls", int(r.calls as u64)),
                    ("total_s", num(r.total_s)),
                    ("self_s", num(r.self_s)),
                    ("p50_us", num(r.p50_us)),
                    ("tail_pct", r.tail_us.map_or(Value::Null, |t| num(t.0))),
                    ("tail_us", r.tail_us.map_or(Value::Null, |t| num(t.1))),
                ])
            })
            .collect(),
    )
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let available = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let workers = available.min(2);
    let w = workload(&args.workload, args.seed, workers);
    let started = Instant::now();
    let run = measure(&*w, args.seconds, args.trace);
    let elapsed_s = started.elapsed().as_secs_f64();

    // Correctness: every round's checks, and every round reproduces the
    // warm-up's digest.
    let rounds = std::iter::once(&run.warm_up)
        .chain(&run.plain)
        .chain(run.traced.iter().map(|r| &r.0));
    let (mut attempted, mut failed) = (0, 0);
    let mut failures: Vec<String> = Vec::new();
    for (i, r) in rounds.enumerate() {
        attempted += r.checks.attempted;
        if r.digest == run.warm_up.digest {
            failed += r.checks.failed;
            failures.extend(r.checks.failures.iter().cloned());
        } else {
            failed += r.checks.attempted;
            failures.push(format!("round {i} digest differs from the warm-up's"));
        }
    }
    failures.truncate(8);

    let work: Vec<f64> = run.plain.iter().map(|r| r.work_s).collect();
    let setup: Vec<f64> = run.plain.iter().map(|r| r.setup_s).collect();
    let rss = peak_rss_mb();
    let end_to_end = [stats::median(&work), stats::median(&setup), rss];
    let mut detail: Vec<(String, Value)> = vec![
        ("round_s".into(), summary("s", &work)),
        ("setup_s".into(), summary("s", &setup)),
        ("peak_rss_mb".into(), summary("MB", &[rss])),
    ];
    let mut named: BTreeMap<&str, (&str, Vec<f64>)> = BTreeMap::new();
    for r in &run.plain {
        for &(name, unit, value) in &r.detail {
            named
                .entry(name)
                .or_insert((unit, Vec::new()))
                .1
                .push(value);
        }
    }
    detail.extend(
        named
            .into_iter()
            .map(|(k, (unit, v))| (k.to_string(), summary(unit, &v))),
    );

    let layer = args.trace.then(|| per_layer(&*w, &run));
    let mut report = vec![
        ("bench", text("silvasec-pathway-bench/1")),
        ("workload", text(&args.workload)),
        ("seed", int(args.seed)),
        ("seconds", int(args.seconds)),
        ("rounds", int(run.plain.len() as u64)),
        ("traced_rounds", int(run.traced.len() as u64)),
        ("traced", Value::Bool(args.trace)),
        ("git", text(&git_head())),
        ("available_parallelism", int(available as u64)),
        ("workers", int(w.workers() as u64)),
        ("elapsed_s", num(elapsed_s)),
        ("digest", text(&hex(&run.warm_up.digest))),
        ("attempted", int(attempted)),
        ("failed", int(failed)),
        ("failed_frac", num(failed as f64 / attempted.max(1) as f64)),
        (
            "failures",
            Value::Array(failures.iter().map(|f| text(f)).collect()),
        ),
        ("end_to_end", obj(detail)),
    ];
    if let Some(layer) = &layer {
        report.push(("layers", report_trace(&args, &run, w.workers())));
        report.push(("per_layer", obj(layer.iter().map(|(k, v)| (*k, num(*v))))));
    }
    println!("{}", to_json(&obj(report)));

    let metric = |name: &str, unit: &str, value: f64| {
        (
            name.to_string(),
            obj([("value", num(value)), ("unit", text(unit))]),
        )
    };
    let metrics: Vec<(String, Value)> = match &layer {
        Some(layer) => PER_LAYER
            .iter()
            .map(|&(name, unit)| metric(name, unit, layer[name]))
            .collect(),
        None => END_TO_END
            .iter()
            .zip(end_to_end)
            .map(|(&(name, unit), value)| metric(name, unit, value))
            .collect(),
    };
    let result = obj([
        ("correct", Value::Bool(failed == 0)),
        ("attempted", int(attempted)),
        ("failed", int(failed)),
        ("metrics", obj(metrics)),
    ]);
    println!("{}", to_json(&result));
}

fn to_json(v: &Value) -> String {
    serde_json::to_string(v).expect("a JSON value always serializes")
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_parse_with_defaults_and_reject_garbage() {
        assert_eq!(
            args("--workload pathway --seed 29 --seconds 5 --trace 1"),
            Ok(Args {
                workload: "pathway".into(),
                seed: 29,
                seconds: 5,
                trace: true,
            })
        );
        let defaults = args("--workload site_soak").unwrap();
        assert_eq!((defaults.seed, defaults.trace), (11, false));
        assert!(args("").is_err());
        assert!(args("--workload nope").is_err());
        assert!(args("--workload pathway --trace 2").is_err());
        assert!(args("--workload pathway --seed").is_err());
        assert!(args("--workload pathway --bogus 1").is_err());
    }

    /// The metric tables here and in `BENCHMARK.json` name the same
    /// metrics with the same units, in the same order.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = serde_json::parse(&text).expect("BENCHMARK.json parses");
        let pairs = |key: &str| -> Vec<(String, String)> {
            let field = |v: &Value, k: &str| match v.get_field(k) {
                Value::String(s) => s.clone(),
                other => panic!("{key}.{k} is {other:?}"),
            };
            json.get_field(key)
                .as_array()
                .expect("metric list")
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit")))
                .collect()
        };
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
                .collect()
        };
        assert_eq!(pairs("end_to_end"), own(&END_TO_END));
        assert_eq!(pairs("per_layer"), own(&PER_LAYER));
        let names: Vec<String> = json
            .get_field("workloads")
            .as_array()
            .expect("workload list")
            .iter()
            .map(|w| match w.get_field("name") {
                Value::String(s) => s.clone(),
                other => panic!("workload name {other:?}"),
            })
            .collect();
        assert_eq!(names, WORKLOADS);
        let defaults = args("--workload site_soak").unwrap();
        assert_eq!(
            json.get_field("run_seconds"),
            &Value::Number(Number::U(defaults.seconds)),
            "the default --seconds is BENCHMARK.json's run_seconds"
        );
    }

    /// Panics unless `round`'s per-layer values and every span in
    /// `spans` map onto [`PER_LAYER`] metrics.
    pub(crate) fn assert_known_metrics(round: &Round, spans: &[Span]) {
        let known = |name: &str| PER_LAYER.iter().any(|m| m.0 == name);
        for (name, _) in &round.layer {
            assert!(known(name), "per-layer value {name} is not in PER_LAYER");
        }
        for name in trace::self_by_name(spans).keys() {
            assert!(
                known(&format!("share.{name}")),
                "span {name} has no share metric"
            );
        }
    }
}
