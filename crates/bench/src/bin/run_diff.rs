//! `run_diff`: structural comparison of two recorded runs.
//!
//! Usage: `run_diff <a.jsonl> <b.jsonl> [--context <n>]`
//!
//! Canonicalizes both JSONL traces (stripping the wall-clock side channel
//! of `ExecuteBatch`) and reports:
//!
//! - the first divergent canonical event, with a context window of the
//!   surrounding events on both sides;
//! - per-event-kind count deltas and summary-metric deltas (bytes,
//!   staleness, accuracy, virtual time) between the two runs.
//!
//! Two runs of the same configuration and seed must compare identical —
//! that is the engine's determinism contract — so CI diffs every PR's
//! smoke trace against the checked-in baseline: an *expected* behaviour
//! change shows up as a reviewed baseline update, an unexpected one as a
//! divergence report in the log.
//!
//! Exit codes: `0` identical, `1` divergent, `2` usage/unreadable or
//! unparsable input — a caller can accept "legitimately diverged" (`1`)
//! while still failing on a broken trace (`2`).

use jwins_metrics::diff::{TraceDiff, DEFAULT_CONTEXT};
use std::process::ExitCode;

const USAGE: &str = "usage: run_diff <a.jsonl> <b.jsonl> [--context <n>]";

fn load_trace(path: &str) -> Result<Vec<jwins_trace::TraceEvent>, String> {
    let parsed = jwins_trace::read_jsonl(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if !parsed.is_clean() {
        let first = &parsed.failures[0];
        return Err(format!(
            "{path} has {} unparsable line(s); first: {first}",
            parsed.failures.len()
        ));
    }
    Ok(parsed.events)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut paths: Vec<String> = Vec::new();
    let mut context = DEFAULT_CONTEXT;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--context" => {
                let Some(value) = it.next() else {
                    eprintln!("run_diff: --context needs a count\n{USAGE}");
                    return ExitCode::from(2);
                };
                match value.parse() {
                    Ok(n) => context = n,
                    Err(_) => {
                        eprintln!("run_diff: --context {value:?} is not a number\n{USAGE}");
                        return ExitCode::from(2);
                    }
                }
            }
            flag if flag.starts_with("--") => {
                eprintln!("run_diff: unknown flag {flag}\n{USAGE}");
                return ExitCode::from(2);
            }
            positional => paths.push(positional.to_owned()),
        }
    }
    if paths.len() != 2 {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }

    let (a, b) = match (load_trace(&paths[0]), load_trace(&paths[1])) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("run_diff: {e}");
            return ExitCode::from(2);
        }
    };
    let diff = TraceDiff::compare(&a, &b);
    println!("== run_diff: {} vs {} ==", paths[0], paths[1]);
    print!("{}", diff.render(context));

    if diff.is_identical() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
