//! **Fleet trace dump** — run the E10 fleet OTA rollout once and write
//! the resulting flight-recorder security trace to a JSONL file.
//!
//! Companion to `trace_compare`: where that tool diffs two traces,
//! this one materialises a single trace on disk so a "before" snapshot
//! can be captured, the code changed, and the "after" trace compared
//! byte for byte (`trace_compare before.jsonl after.jsonl`). That is
//! exactly the workflow used to prove that performance work on the
//! crypto hot path leaves fleet rollout outcomes bit-identical.
//!
//! Run with:
//! `cargo run --release -p silvasec-bench --bin fleet_trace_dump -- <out.jsonl> [sites] [seed]`
//! (defaults: 64 sites, seed 11, clean scenario). An argument that is
//! not a number prints the usage and exits 1.

use silvasec::experiments::{run_fleet_rollout, FleetScenario};
use std::process::ExitCode;

const USAGE: &str = "usage: fleet_trace_dump <out.jsonl> [sites] [seed]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(out) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let (Ok(sites), Ok(seed)) = (
        args.get(1).map_or(Ok(64), |s| s.parse::<usize>()),
        args.get(2).map_or(Ok(11), |s| s.parse::<u64>()),
    ) else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };

    let (report, trace) = run_fleet_rollout(sites, seed, FleetScenario::Clean);
    if let Err(e) = std::fs::write(out, &trace) {
        eprintln!("error: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "wrote {} events ({} bytes) to {out}: sites={sites} seed={seed} applied={} rejected={}",
        trace.lines().count(),
        trace.len(),
        report.applied_sites,
        report.rejected_sites,
    );
    ExitCode::SUCCESS
}
