//! Extension: wall-clock speedup of deterministic parallel event execution.
//!
//! The event-driven engine pops maximal batches of simultaneous independent
//! events (same kind, disjoint nodes) and executes them on a worker pool,
//! committing side effects in the queue's seeded order — so `threads` is a
//! pure performance knob that cannot change results (see the module docs of
//! `jwins::engine` and `tests/parallel_determinism.rs`).
//!
//! This experiment measures what that buys on a 64-node asynchronous run
//! with a class-structured straggler profile (25% of nodes 4× slower over
//! 100 Mbit/s links): same-speed cohorts stay time-aligned, so train/mix
//! batches are wide and the pool has real work to split. Every run's full
//! `RoundRecord` stream is asserted bit-identical to the single-threaded
//! baseline — the speedup table is only reportable because the outputs are
//! provably the same.
//!
//! Note: speedup is bounded by host cores and by batch width, so the table
//! is printed, never asserted; the determinism assertion runs and must hold
//! everywhere.

use jwins::config::ExecutionMode;
use jwins::metrics::RunResult;
use jwins_bench::{banner, phase_seconds, run_cifar_n, Algo, RunCfg, Scale};
use jwins_metrics::{MetricsRegistry, DEFAULT_WINDOW_S};
use jwins_sim::HeterogeneityProfile;
use std::time::Instant;

const DEGREE: usize = 4;

fn run_with_threads(
    scale: Scale,
    nodes: usize,
    rounds: usize,
    threads: usize,
    trace_jsonl: Option<String>,
) -> (RunResult, MetricsRegistry) {
    let mut cfg = RunCfg::new(rounds);
    cfg.train.threads = threads;
    // Evaluate sparsely so the event loop, not evaluation, dominates.
    cfg.train.eval_every = rounds;
    cfg.train.execution = ExecutionMode::EventDriven;
    cfg.train.heterogeneity = HeterogeneityProfile::stragglers(0.25, 4.0, 0.005, 12.5e6);
    // The phase-time split comes from the trace's ExecuteBatch records;
    // tracing is observational (see tests/trace_determinism.rs), so the
    // bit-identical assertion below also covers traced-vs-traced runs.
    let memory = jwins_trace::MemorySink::new();
    cfg.trace_memory = Some(memory.clone());
    if let Some(path) = trace_jsonl {
        cfg.train.trace.jsonl_path = Some(path);
    }
    let result = run_cifar_n(scale, nodes, DEGREE, &Algo::Full, &cfg, 2);
    let metrics = MetricsRegistry::from_events(DEFAULT_WINDOW_S, &memory.events());
    (result, metrics)
}

fn main() {
    let scale = Scale::from_env();
    let smoke = jwins_bench::smoke();
    banner(
        "ext_parallel — deterministic parallel event execution",
        "independent same-time events execute on worker threads behind an \
         ordered commit; outputs are bit-identical at every thread count",
    );
    // The smoke configuration keeps the determinism assertion meaningful
    // (two runs, both compared to the baseline bit for bit) while staying
    // CI-cheap; the speedup table needs the full run.
    let (nodes, rounds, thread_sweep): (usize, usize, &[usize]) = if smoke {
        (16, 3, &[1, 2])
    } else {
        (64, scale.rounds(6), &[1, 2, 4, 8])
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "{nodes} nodes, {rounds} rounds, host cores: {cores}{}\n",
        if smoke { " [smoke]" } else { "" }
    );
    println!(
        "{:>8} {:>10} {:>9}  records",
        "threads", "wall s", "speedup"
    );
    // When set, the first (single-threaded) run also writes its full JSONL
    // trace there — CI validates it with `trace_report --check` and uploads
    // it as an artifact.
    let trace_jsonl = std::env::var("JWINS_TRACE_JSONL").ok();
    let mut csv = String::from("threads,host_cores,wall_s,speedup,rounds_run,final_accuracy\n");
    let mut baseline: Option<(f64, RunResult)> = None;
    for &threads in thread_sweep {
        let jsonl = if baseline.is_none() {
            trace_jsonl.clone()
        } else {
            None
        };
        let start = Instant::now();
        let (result, metrics) = run_with_threads(scale, nodes, rounds, threads, jsonl);
        let wall = start.elapsed().as_secs_f64();
        let speedup = match &baseline {
            Some((base_wall, base_result)) => {
                base_result.assert_bit_identical(&result, &format!("threads 1 vs {threads}"));
                base_wall / wall
            }
            None => 1.0,
        };
        let accuracy = result.final_record().map_or(f64::NAN, |r| r.test_accuracy);
        let verdict = if baseline.is_some() {
            "bit-identical: yes"
        } else {
            "baseline"
        };
        println!(
            "{threads:>8} {wall:>10.2} {speedup:>8.2}x  {verdict} ({} records)",
            result.records.len()
        );
        let [propose_s, execute_s, commit_s] = phase_seconds(&metrics);
        println!(
            "         phases: propose {propose_s:.3}s | execute {execute_s:.3}s | commit {commit_s:.3}s"
        );
        csv.push_str(&format!(
            "{threads},{cores},{wall:.4},{speedup:.4},{},{accuracy:.6}\n",
            result.rounds_run
        ));
        if baseline.is_none() {
            baseline = Some((wall, result));
        }
    }
    jwins_bench::save_csv("ext_parallel", &csv);
    println!("\ndeterminism asserted at every thread count; speedup is core-bound ({cores} here).");
}
