//! **Trace comparison** — diff two flight-recorder JSONL trace files
//! event by event and report the first divergence.
//!
//! `trace_compare [--max-events N] <left.jsonl> <right.jsonl>` streams
//! both files line by line, so fleet-sized traces never have to fit in
//! memory. `--max-events N` stops after the first `N` events: a bounded
//! spot-check that keeps diffs of fleet-scale traces cheap.
//!
//! Identical traces exit 0 and print `identical`; diverging traces exit
//! 1 and print the event index, the field path, and both values at the
//! first mismatch. Same seed must always compare identical — that is
//! the recorder's determinism contract. `fleet_trace_dump` writes the
//! trace files, so a "before" snapshot can be captured, the code
//! changed, and the "after" trace compared byte for byte.
//!
//! Run with:
//! `cargo run --release -p silvasec-bench --bin trace_compare -- before.jsonl after.jsonl`

use silvasec::telemetry::first_divergence_jsonl;
use std::io::BufRead;
use std::process::ExitCode;

const USAGE: &str = "usage: trace_compare [--max-events N] <left.jsonl> <right.jsonl>";

/// Streams two trace files line by line — memory is bounded by one
/// event per side regardless of file size — and reports the first
/// divergence, stopping after `max_events` events when set.
fn compare_files(
    left_path: &str,
    right_path: &str,
    max_events: Option<usize>,
) -> std::io::Result<ExitCode> {
    let open = |p: &str| std::fs::File::open(p).map(std::io::BufReader::new);
    let mut left_lines = open(left_path)?.lines();
    let mut right_lines = open(right_path)?.lines();
    let mut index = 0usize;
    loop {
        if max_events.is_some_and(|n| index >= n) {
            println!(
                "identical: {left_path} and {right_path} agree on the first {index} events \
                 (--max-events reached)"
            );
            return Ok(ExitCode::SUCCESS);
        }
        match (
            left_lines.next().transpose()?,
            right_lines.next().transpose()?,
        ) {
            (None, None) => {
                println!("identical: {left_path} and {right_path} agree on all {index} events");
                return Ok(ExitCode::SUCCESS);
            }
            (Some(_), None) | (None, Some(_)) => {
                println!("traces diverge at event {index}:");
                println!("  one trace ends here while the other continues");
                return Ok(ExitCode::FAILURE);
            }
            (Some(left), Some(right)) => match first_divergence_jsonl(&left, &right) {
                Ok(None) => {}
                Ok(Some(div)) => {
                    println!("traces diverge at event {index}:");
                    println!("  field: {}", div.field);
                    println!("  {left_path}: {}", div.left);
                    println!("  {right_path}: {}", div.right);
                    return Ok(ExitCode::FAILURE);
                }
                Err(e) => {
                    eprintln!("error: malformed trace at event {index}: {e}");
                    return Ok(ExitCode::FAILURE);
                }
            },
        }
        index += 1;
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();

    // `--max-events N` may appear anywhere; extract it first.
    let mut max_events: Option<usize> = None;
    if let Some(pos) = args.iter().position(|a| a == "--max-events") {
        let Some(Ok(n)) = args.get(pos + 1).map(|s| s.parse::<usize>()) else {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        };
        max_events = Some(n);
        args.drain(pos..=pos + 1);
    }

    let [left_path, right_path] = args.as_slice() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    match compare_files(left_path, right_path, max_events) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
