//! `trace_report`: summarize, validate and analyze a JSONL run trace.
//!
//! Usage:
//! `trace_report <trace.jsonl> [--check] [--critical-path] [--target <acc>]
//! [--metrics <prefix>] [--canonicalize <out>]`
//!
//! Prints a post-hoc run report from the archival trace written via
//! `TrainConfig::trace.jsonl_path`:
//!
//! - event counts per kind and the run header/footer (nodes, seed, rounds
//!   run, queue high-water mark);
//! - the execute-batch width histogram per class, with the summed
//!   propose/execute/commit wall times (where the host time actually went);
//! - per-node virtual compute totals (straggler spread);
//! - the top edges by mean mixing staleness (where gossip stalls).
//!
//! With `--critical-path` the report appends the `jwins_metrics`
//! critical-path analysis: the causal chain of compute/uplink/link/wait
//! segments bounding the run's virtual time-to-accuracy, with per-owner
//! blame shares. `--target <acc>` points the analysis at the first
//! evaluation reaching that accuracy instead of the last one.
//!
//! With `--metrics <prefix>` the full metrics aggregation of the trace is
//! exported to `<prefix>.prom` (Prometheus text) and `<prefix>.csv`
//! (windowed time series).
//!
//! With `--canonicalize <out>` the canonical form of the trace — wall-clock
//! side-channel fields zeroed, so the bytes are identical for any worker
//! thread count and any host — is rewritten to `<out>` as JSONL. This is
//! how the checked-in CI baseline `tests/fixtures/trace_smoke_baseline.jsonl`
//! is regenerated after an intended engine-behaviour change.
//!
//! With `--check` the exit code becomes a validation verdict, used by CI
//! against the bench-smoke trace artifact: every line must parse as a
//! `TraceEvent`, virtual time must never run backwards, and the trace must
//! be bracketed by `RunStart`/`RunEnd`. Exit codes: `0` ok, `1` validation
//! or analysis failure, `2` usage/unreadable input.

use jwins_metrics::{CriticalPath, MetricsRegistry, DEFAULT_WINDOW_S};
use jwins_trace::{BatchClass, TraceEvent};
use std::collections::BTreeMap;
use std::process::ExitCode;

const USAGE: &str = "usage: trace_report <trace.jsonl> [--check] [--critical-path] \
     [--target <acc>] [--metrics <prefix>] [--canonicalize <out>]";

struct Args {
    path: String,
    check: bool,
    critical_path: bool,
    target: Option<f64>,
    metrics: Option<String>,
    canonicalize: Option<String>,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Self, String> {
        let mut path = None;
        let mut check = false;
        let mut critical_path = false;
        let mut target = None;
        let mut metrics = None;
        let mut canonicalize = None;
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--check" => check = true,
                "--critical-path" => critical_path = true,
                "--target" => {
                    let value = it.next().ok_or("--target needs an accuracy value")?;
                    let acc: f64 = value
                        .parse()
                        .map_err(|_| format!("--target {value:?} is not a number"))?;
                    target = Some(acc);
                }
                "--metrics" => {
                    metrics = Some(
                        it.next()
                            .ok_or("--metrics needs an output path prefix")?
                            .clone(),
                    );
                }
                "--canonicalize" => {
                    canonicalize = Some(
                        it.next()
                            .ok_or("--canonicalize needs an output path")?
                            .clone(),
                    );
                }
                flag if flag.starts_with("--") => {
                    return Err(format!("unknown flag {flag}"));
                }
                positional => {
                    if path.replace(positional.to_owned()).is_some() {
                        return Err("expected exactly one trace path".into());
                    }
                }
            }
        }
        Ok(Self {
            path: path.ok_or("missing trace path")?,
            check,
            critical_path,
            target,
            metrics,
            canonicalize,
        })
    }
}

struct ClassStats {
    batches: u64,
    events: u64,
    /// Histogram over power-of-two width buckets: `widths[k]` counts
    /// batches with `2^k <= width < 2^(k+1)`.
    widths: Vec<u64>,
    propose_ns: u64,
    execute_ns: u64,
    commit_ns: u64,
}

impl ClassStats {
    fn new() -> Self {
        Self {
            batches: 0,
            events: 0,
            widths: Vec::new(),
            propose_ns: 0,
            execute_ns: 0,
            commit_ns: 0,
        }
    }

    fn add(&mut self, width: u32, propose_ns: u64, execute_ns: u64, commit_ns: u64) {
        self.batches += 1;
        self.events += u64::from(width);
        let bucket = (32 - width.max(1).leading_zeros() - 1) as usize;
        if self.widths.len() <= bucket {
            self.widths.resize(bucket + 1, 0);
        }
        self.widths[bucket] += 1;
        self.propose_ns += propose_ns;
        self.execute_ns += execute_ns;
        self.commit_ns += commit_ns;
    }

    fn print(&self, label: &str) {
        println!(
            "  {label}: {} batches, {} events (mean width {:.1})",
            self.batches,
            self.events,
            self.events as f64 / (self.batches.max(1)) as f64
        );
        for (k, &count) in self.widths.iter().enumerate() {
            if count > 0 {
                println!(
                    "    width {:>4}..{:<4} {count}",
                    1u64 << k,
                    (1u64 << (k + 1)) - 1
                );
            }
        }
        println!(
            "    wall: propose {:.3} ms | execute {:.3} ms | commit {:.3} ms",
            self.propose_ns as f64 * 1e-6,
            self.execute_ns as f64 * 1e-6,
            self.commit_ns as f64 * 1e-6
        );
    }
}

fn fail(message: String, failures: &mut u64) {
    eprintln!("trace_report: {message}");
    *failures += 1;
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("trace_report: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let path = &args.path;
    let parsed = match jwins_trace::read_jsonl(path) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("trace_report: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };

    let mut failures = 0u64;
    for failure in &parsed.failures {
        fail(format!("{path}:{failure}"), &mut failures);
    }
    let events = parsed.events;

    // Structural validation: bracketed by RunStart/RunEnd, virtual time
    // never runs backwards (emission happens in commit order, and the
    // simulation clock is monotone).
    match events.first() {
        Some(TraceEvent::RunStart { .. }) => {}
        _ => fail(
            format!("{path}: trace does not start with RunStart"),
            &mut failures,
        ),
    }
    match events.last() {
        Some(TraceEvent::RunEnd { .. }) => {}
        _ => fail(
            format!("{path}: trace does not end with RunEnd"),
            &mut failures,
        ),
    }
    let mut clock = 0u64;
    for event in &events {
        let t = event.t_ns();
        if t < clock {
            fail(
                format!("{path}: virtual time ran backwards ({t} < {clock})"),
                &mut failures,
            );
            break;
        }
        clock = t;
    }

    let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut train_batches = ClassStats::new();
    let mut mix_batches = ClassStats::new();
    // node -> total virtual compute ns.
    let mut compute: BTreeMap<u32, u64> = BTreeMap::new();
    // (from, to) -> (staleness sum, messages).
    let mut edges: BTreeMap<(u32, u32), (f64, u64)> = BTreeMap::new();
    for event in &events {
        *counts.entry(event.kind_name()).or_insert(0) += 1;
        match *event {
            TraceEvent::ExecuteBatch {
                class,
                width,
                propose_ns,
                execute_ns,
                commit_ns,
                ..
            } => match class {
                BatchClass::Train => train_batches.add(width, propose_ns, execute_ns, commit_ns),
                BatchClass::Mix => mix_batches.add(width, propose_ns, execute_ns, commit_ns),
            },
            TraceEvent::Train {
                node, compute_ns, ..
            } => {
                *compute.entry(node).or_insert(0) += compute_ns;
            }
            TraceEvent::MsgMixed {
                node,
                from,
                staleness_s,
                ..
            } => {
                let slot = edges.entry((from, node)).or_insert((0.0, 0));
                slot.0 += staleness_s;
                slot.1 += 1;
            }
            _ => {}
        }
    }

    println!("== trace_report: {path} ==");
    for event in &events {
        if let TraceEvent::RunStart {
            nodes,
            rounds,
            seed,
        } = *event
        {
            println!("run: {nodes} nodes, {rounds} rounds, seed {seed}");
        }
        if let TraceEvent::RunEnd {
            t_ns,
            rounds_run,
            queue_depth_hwm,
        } = *event
        {
            println!(
                "end: {rounds_run} rounds in {:.3} virtual s, queue HWM {queue_depth_hwm}",
                t_ns as f64 * 1e-9
            );
        }
    }
    println!("events ({} total):", events.len());
    for (name, count) in &counts {
        println!("  {name:<16} {count}");
    }
    if train_batches.batches + mix_batches.batches > 0 {
        println!("execute batches:");
        if train_batches.batches > 0 {
            train_batches.print("train");
        }
        if mix_batches.batches > 0 {
            mix_batches.print("mix");
        }
    }
    if !compute.is_empty() {
        let total: u64 = compute.values().sum();
        let slowest = compute.iter().map(|(&n, &ns)| (ns, n)).max().unwrap();
        let fastest = compute.iter().map(|(&n, &ns)| (ns, n)).min().unwrap();
        println!(
            "compute: node {} slowest ({:.1}% of total), node {} fastest ({:.1}%)",
            slowest.1,
            slowest.0 as f64 * 100.0 / total.max(1) as f64,
            fastest.1,
            fastest.0 as f64 * 100.0 / total.max(1) as f64
        );
    }
    if !edges.is_empty() {
        let mut by_mean: Vec<((u32, u32), f64, u64)> = edges
            .iter()
            .map(|(&edge, &(sum, count))| (edge, sum / count as f64, count))
            .collect();
        // Deterministic order: mean descending, edge id as tie-break.
        by_mean.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        println!("top stall edges (mean mixing staleness):");
        for ((from, to), mean, count) in by_mean.into_iter().take(5) {
            println!("  {from} -> {to}: {mean:.4} s over {count} messages");
        }
    }

    if let Some(out) = &args.canonicalize {
        let mut text = String::new();
        for event in jwins_trace::replay::canonicalize(&events) {
            text.push_str(&serde::json::to_string(&event));
            text.push('\n');
        }
        if let Err(e) = std::fs::write(out, text) {
            eprintln!("trace_report: cannot write {out}: {e}");
            return ExitCode::from(2);
        }
        println!("canonical trace rewritten to {out}");
    }

    if let Some(prefix) = &args.metrics {
        let registry = MetricsRegistry::from_events(DEFAULT_WINDOW_S, &events);
        for (suffix, contents) in [
            ("prom", registry.to_prometheus()),
            ("csv", registry.to_csv()),
        ] {
            let out = format!("{prefix}.{suffix}");
            if let Err(e) = std::fs::write(&out, contents) {
                eprintln!("trace_report: cannot write {out}: {e}");
                return ExitCode::from(2);
            }
            println!("metrics: wrote {out}");
        }
    }

    if args.critical_path {
        match CriticalPath::analyze(&events, args.target) {
            Ok(path) => print!("{}", path.render()),
            Err(e) => {
                eprintln!("trace_report: critical path unavailable: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if args.check {
        if failures > 0 {
            eprintln!("trace_report: {failures} validation failure(s)");
            return ExitCode::FAILURE;
        }
        println!("check: ok");
    } else if failures > 0 {
        println!("warnings: {failures} (run with --check to fail on these)");
    }
    ExitCode::SUCCESS
}
