//! Extension: the event engine at large node counts.
//!
//! The event-driven engine runs on one seeded event heap
//! (`ShardedEventQueue`) and an arena-backed parameter store, so the
//! simulator scales past the paper's 256-node ceiling. This bench measures
//! two things:
//!
//! 1. **Scale sweep** — events/sec and peak RSS (`VmHWM`) as the node count
//!    grows (1k, 10k; 100k at `JWINS_SCALE=paper`), and from the two ends of
//!    the sweep the marginal KiB of peak RSS one more node costs. The
//!    workload is a tiny MLP on synthetic features so the event loop, not
//!    the math, dominates.
//! 2. **Fully-random speeds** — under `ComputeProfile::LogNormal` no two
//!    events share a timestamp, so only the links' latency lets the engine
//!    execute events together. The window count and mean width it gets are
//!    printed.
//!
//! Peak RSS is read from `/proc/self/status` (`VmHWM`), which is a
//! process-lifetime high-water mark — the sweep therefore runs node counts
//! in ascending order and reports the mark after each size.

use jwins::config::{ExecutionMode, TrainConfig};
use jwins::engine::Trainer;
use jwins::metrics::RunResult;
use jwins::strategies::FullSharing;
use jwins::strategy::ShareStrategy;
use jwins_bench::{banner, phase_seconds, Scale};
use jwins_data::images::{cifar_like, ImageConfig};
use jwins_metrics::{MetricsSink, DEFAULT_WINDOW_S};
use jwins_nn::models::{mlp_classifier, ClassSample};
use jwins_sim::{ComputeProfile, HeterogeneityProfile, LinkProfile};
use jwins_topology::dynamic::StaticTopology;
use std::time::Instant;

const SEED: u64 = 42;
const DEGREE: usize = 4;
/// Distinct per-node datasets; nodes beyond this cycle through them, so
/// data generation stays O(1) in the node count.
const TEMPLATES: usize = 16;
/// Samples each node trains on per round (`local_steps = 1`).
const SAMPLES_PER_NODE: usize = 2;
/// Ceiling on the marginal peak RSS per node of a full sweep: 1.25 × the
/// 9.03 KiB CHANGES.md (PR 22) records for `JWINS_SCALE=small` (four runs
/// read 9.02–9.04; the parent commit, with a model per node, 16.9–17.0).
const MARGINAL_KIB_CEILING: f64 = 11.3;

/// Queue events per run: every active node schedules StartRound, TrainDone
/// and Mix once per round (faults and eval ticks are off here).
fn event_count(nodes: usize, rounds: usize) -> u64 {
    3 * nodes as u64 * rounds as u64
}

/// Peak resident set size in bytes (`VmHWM` from `/proc/self/status`);
/// `None` off Linux or if the field is missing.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Fully-random per-node compute speeds: with probability 1 no two nodes
/// finish a round at the same instant, so only the links' 2 ms of latency
/// lets the engine execute two events together.
fn random_speeds() -> HeterogeneityProfile {
    HeterogeneityProfile {
        compute: ComputeProfile::LogNormal { sigma: 0.5 },
        links: LinkProfile::Uniform {
            latency_s: 0.002,
            bandwidth_bps: 12.5e6,
        },
    }
}

fn run_scale(
    nodes: usize,
    rounds: usize,
    threads: usize,
    hetero: HeterogeneityProfile,
) -> (RunResult, MetricsSink) {
    let data = cifar_like(&ImageConfig::tiny(), TEMPLATES, 2, SEED);
    let node_train: Vec<Vec<ClassSample>> = (0..nodes)
        .map(|i| {
            data.node_train[i % TEMPLATES]
                .iter()
                .take(SAMPLES_PER_NODE)
                .cloned()
                .collect()
        })
        .collect();
    let mut cfg = TrainConfig::new(rounds);
    cfg.seed = SEED;
    cfg.local_steps = 1;
    cfg.batch_size = SAMPLES_PER_NODE;
    cfg.lr = 0.05;
    // One final evaluation over a small slice: at 10k+ nodes a full eval
    // pass would dwarf the event loop this bench is measuring.
    cfg.eval_every = rounds;
    cfg.eval_test_samples = 16;
    cfg.threads = threads;
    cfg.execution = ExecutionMode::EventDriven;
    cfg.heterogeneity = hetero;
    // The propose/execute/commit split of every case comes from the trace's
    // ExecuteBatch records, folded by a metrics sink as they arrive: keeping
    // the trace would show up in the peak RSS this bench reports. The
    // caller snapshots the registry after it has stopped the clock.
    let metrics = MetricsSink::new(DEFAULT_WINDOW_S);
    let trainer = Trainer::builder(cfg)
        .topology(
            StaticTopology::random_regular(nodes, DEGREE, SEED ^ 0xD1).expect("feasible graph"),
        )
        .test_set(data.test.clone())
        .trace_sink(Box::new(metrics.clone()))
        .nodes(node_train, |_node| {
            (
                mlp_classifier(2 * 8 * 8, &[4], 4, SEED),
                Box::new(FullSharing::new()) as Box<dyn ShareStrategy>,
            )
        })
        .build()
        .expect("valid experiment");
    let result = trainer.run().expect("run completes");
    (result, metrics)
}

fn main() {
    let scale = Scale::from_env();
    let smoke = jwins_bench::smoke();
    banner(
        "ext_scale — the event engine from 1k to 100k nodes",
        "one event heap + arena-backed node state keep events/sec flat and \
         memory sublinear as the node count grows",
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // ---- Part 1: scale sweep (ascending, for the VmHWM high-water mark).
    let (sizes, rounds): (&[usize], usize) = if smoke {
        (&[256, 1000], 2)
    } else if matches!(scale, Scale::Paper) {
        (&[1000, 10_000, 100_000], 3)
    } else {
        (&[1000, 10_000], 3)
    };
    println!(
        "host cores: {cores}{}\n",
        if smoke { " [smoke]" } else { "" }
    );
    println!(
        "{:>8} {:>8} {:>10} {:>12} {:>12} {:>10} {:>10} {:>10}",
        "nodes",
        "rounds",
        "wall s",
        "events/s",
        "peak RSS MB",
        "propose s",
        "execute s",
        "commit s"
    );
    let mut csv = String::from(
        "section,nodes,rounds,threads,wall_s,events_per_s,peak_rss_mb,\
         final_accuracy,propose_s,execute_s,commit_s,marginal_kib_per_node,batches,\
         mean_batch_width\n",
    );
    let mut rss_per_node: Vec<(usize, f64)> = Vec::new();
    for &nodes in sizes {
        // Stragglers keep cohorts time-aligned so strict batches stay wide
        // even at scale.
        let hetero = HeterogeneityProfile::stragglers(0.25, 4.0, 0.005, 12.5e6);
        let start = Instant::now();
        let (result, metrics) = run_scale(nodes, rounds, 0, hetero);
        let wall = start.elapsed().as_secs_f64();
        let events = event_count(nodes, rounds);
        let eps = events as f64 / wall;
        let rss_mb = peak_rss_bytes().map_or(f64::NAN, |b| b as f64 / (1024.0 * 1024.0));
        rss_per_node.push((nodes, rss_mb));
        let accuracy = result.final_record().map_or(f64::NAN, |r| r.test_accuracy);
        let [propose_s, execute_s, commit_s] = phase_seconds(&metrics.registry());
        println!(
            "{nodes:>8} {rounds:>8} {wall:>10.2} {eps:>12.0} {rss_mb:>12.1} \
             {propose_s:>10.3} {execute_s:>10.3} {commit_s:>10.3}"
        );
        csv.push_str(&format!(
            "scale,{nodes},{rounds},0,{wall:.4},{eps:.1},{rss_mb:.1},{accuracy:.6},\
             {propose_s:.4},{execute_s:.4},{commit_s:.4},,,\n"
        ));
    }
    // What one more node costs: ΔVmHWM / Δnodes between the first and the
    // last sweep point (the process baseline cancels). The full run holds
    // it under a ceiling; the smoke sweep (256 → 1 000 nodes) is too short
    // a lever for one and only prints.
    if let (Some(&(n_small, rss_small)), Some(&(n_big, rss_big))) =
        (rss_per_node.first(), rss_per_node.last())
    {
        if rss_small.is_finite() && rss_big.is_finite() {
            let marginal_kib = (rss_big - rss_small) * 1024.0 / (n_big - n_small) as f64;
            println!(
                "\nmarginal peak RSS: {marginal_kib:.2} KiB per node ({n_small} → {n_big} nodes)"
            );
            csv.push_str(&format!(
                "scale_marginal,{},{rounds},0,,,,,,,,{marginal_kib:.3},,\n",
                n_big - n_small
            ));
            assert!(
                smoke || marginal_kib <= MARGINAL_KIB_CEILING,
                "a node costs {marginal_kib:.2} KiB of peak RSS, over the \
                 {MARGINAL_KIB_CEILING} KiB ceiling — something per node grew \
                 (a model, mailbox slack, a per-node copy of the arena?)"
            );
        }
    }

    // ---- Part 2: fully-random per-node speeds.
    // No two events share a timestamp here: the engine executes together
    // only what fires within one link latency (2 ms — exact). The batch
    // counts and widths printed beside the wall time are what that buys.
    let (random_nodes, random_rounds) = if smoke { (256, 2) } else { (2000, 4) };
    println!(
        "\nfully-random (log-normal) speeds @ {random_nodes} nodes, {random_rounds} rounds, \
         8 threads:"
    );
    println!(
        "{:>10} {:>12} {:>10} {:>10} {:>10} {:>10} {:>9} {:>11}",
        "wall s",
        "events/s",
        "accuracy",
        "propose s",
        "execute s",
        "commit s",
        "batches",
        "mean width"
    );
    let start = Instant::now();
    let (result, metrics) = run_scale(random_nodes, random_rounds, 8, random_speeds());
    let wall = start.elapsed().as_secs_f64();
    let events = event_count(random_nodes, random_rounds);
    let eps = events as f64 / wall;
    let accuracy = result.final_record().map_or(f64::NAN, |r| r.test_accuracy);
    let registry = metrics.registry();
    let [propose_s, execute_s, commit_s] = phase_seconds(&registry);
    let (batches, mean_batch_width) = jwins_bench::batch_shape(&registry);
    println!(
        "{wall:>10.2} {eps:>12.0} {accuracy:>10.4} {propose_s:>10.3} {execute_s:>10.3} \
         {commit_s:>10.3} {batches:>9} {mean_batch_width:>11.3}"
    );
    csv.push_str(&format!(
        "random_speeds,{random_nodes},{random_rounds},8,{wall:.4},{eps:.1},,{accuracy:.6},\
         {propose_s:.4},{execute_s:.4},{commit_s:.4},,{batches},{mean_batch_width:.4}\n"
    ));

    jwins_bench::save_csv("ext_scale", &csv);
}
