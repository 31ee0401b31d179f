//! Chaos demo: a 16-node asynchronous run where a quarter of the cluster
//! crashes mid-round and rejoins, with and without a staleness cap.
//!
//! ```sh
//! cargo run --release --example chaos
//! cargo run --release --example chaos -- --trace /tmp/chaos
//! cargo run --release --example chaos -- --nodes 1000
//! ```
//!
//! The fault engine kills the victims' in-flight messages at the crash and
//! destroys deliveries to the dead hosts; survivors keep gossiping around
//! the hole. When the victims rejoin (warm, with their last model), their
//! now-ancient parameters re-enter the mix — unless a staleness cap drops
//! over-age messages and renormalizes their weight into the self-weight.
//! The run prints each evaluation (crash/rejoin counters included) and the
//! simulated time to a target accuracy for both policies.
//!
//! With `--trace <prefix>` each policy's run writes its full structured
//! trace to `<prefix>-<policy>.jsonl` (summarize or validate it with the
//! `trace_report` bin), and the example prints the flight-recorder tail —
//! the last events before the run ended, the same buffer a panicking run
//! dumps to stderr. With `--metrics <prefix>` each run also exports its
//! metrics aggregation to `<prefix>-<policy>.prom` (Prometheus text) and
//! `<prefix>-<policy>.csv` (windowed time series) via the in-engine
//! `MetricsSink` — the `TrainConfig::metrics` path, proven a bit-no-op by
//! `tests/metrics_layer.rs`.
//!
//! With `--nodes N` the cluster scales past the default 16 nodes — the
//! correlated outage still takes out a quarter of whatever is running.
//! Above 16 nodes the per-node datasets cycle through 16 templates so
//! data generation stays cheap at any scale.

use jwins::config::{ExecutionMode, TrainConfig};
use jwins::engine::Trainer;
use jwins::strategies::FullSharing;
use jwins::strategy::ShareStrategy;
use jwins_data::images::{cifar_like, ImageConfig};
use jwins_fault::{FaultConfig, FaultPlan, RejoinMode, StalenessPolicy};
use jwins_nn::models::{mlp_classifier, ClassSample};
use jwins_sim::HeterogeneityProfile;
use jwins_topology::dynamic::StaticTopology;

use jwins_repro::smoke;
use jwins_trace::FlightRecorder;

/// The value of a `--<name> <prefix>` flag, if given.
fn flag_value(name: &str) -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == name {
            return Some(
                args.next()
                    .unwrap_or_else(|| panic!("{name} requires a value")),
            );
        }
    }
    None
}

/// The node count from `--nodes N`, defaulting to `default`.
fn node_count(default: usize) -> usize {
    let nodes = flag_value("--nodes").map_or(default, |v| {
        v.parse()
            .unwrap_or_else(|_| panic!("--nodes {v:?} is not a node count"))
    });
    assert!(
        nodes >= 5,
        "--nodes needs at least 5 nodes for this topology"
    );
    nodes
}

/// Per-node train shards plus the shared test set. Above 16 nodes the
/// datasets cycle through 16 templates, so `--nodes 10000` costs the same
/// data generation as 16.
fn node_data(nodes: usize, seed: u64) -> (Vec<Vec<ClassSample>>, Vec<ClassSample>) {
    let templates = nodes.min(16);
    let data = cifar_like(&ImageConfig::tiny(), templates, 2, seed);
    let train = (0..nodes)
        .map(|i| data.node_train[i % templates].clone())
        .collect();
    (train, data.test)
}

fn run(
    nodes: usize,
    staleness: StalenessPolicy,
    trace_jsonl: Option<String>,
    metrics_prefix: Option<&str>,
    flight: Option<FlightRecorder>,
) -> jwins::metrics::RunResult {
    let (node_train, test) = node_data(nodes, 42);
    let mut cfg = TrainConfig::new(if smoke() { 8 } else { 30 });
    cfg.local_steps = 1;
    cfg.batch_size = 8;
    cfg.lr = 0.02;
    cfg.eval_every = 2;
    cfg.eval_test_samples = 128;
    cfg.time_model.compute_s = 1.0;
    cfg.execution = ExecutionMode::EventDriven;
    // 4 of 16 nodes are 4x slower; 100 Mbit/s links with 5 ms latency.
    cfg.heterogeneity = HeterogeneityProfile::stragglers(0.25, 4.0, 0.005, 100.0e6 / 8.0);
    // A quarter of the cluster dies together at t = 6.5 s — mid-round for
    // fast (1 s/round) and slow (4 s/round) nodes alike — and rejoins warm
    // 8 s later with whatever model it crashed with.
    cfg.faults = FaultConfig {
        plan: FaultPlan::CorrelatedOutage {
            fraction: 0.25,
            at_s: 6.5,
            down_s: 8.0,
            rejoin: RejoinMode::Warm,
        },
        staleness,
    };
    cfg.trace.jsonl_path = trace_jsonl;
    if let Some(prefix) = metrics_prefix {
        cfg.metrics.prometheus_path = Some(format!("{prefix}.prom"));
        cfg.metrics.csv_path = Some(format!("{prefix}.csv"));
    }
    let mut builder = Trainer::builder(cfg)
        .topology(StaticTopology::random_regular(nodes, 4, 7).expect("feasible graph"))
        .test_set(test)
        .nodes(node_train, |_| {
            (
                mlp_classifier(2 * 8 * 8, &[16], 4, 42),
                Box::new(FullSharing::new()) as Box<dyn ShareStrategy>,
            )
        });
    // A shared-handle flight recorder: the clone we keep sees everything
    // the attached sink recorded, so the tail can be printed post-run.
    if let Some(flight) = flight {
        builder = builder.trace_sink(Box::new(flight));
    }
    let trainer = builder.build().expect("valid experiment");
    trainer.run().expect("run completes")
}

fn main() {
    const TARGET: f64 = 0.9;
    let prefix = flag_value("--trace");
    let metrics = flag_value("--metrics");
    let nodes = node_count(16);
    println!(
        "chaos cluster: {nodes} nodes, a quarter of them 4x slower, 100 Mbit/s \
         links;\na quarter of the cluster crashes at t=6.5s and rejoins at t=14.5s\n"
    );
    let mut time_to_target = Vec::new();
    for (name, slug, staleness) in [
        (
            "no staleness cap (mix anything)",
            "uncapped",
            StalenessPolicy::unbounded(),
        ),
        (
            "staleness cap k=2 (drop older)",
            "capped",
            StalenessPolicy::drop_after_rounds(2),
        ),
    ] {
        let jsonl = prefix.as_ref().map(|p| format!("{p}-{slug}.jsonl"));
        let metrics_prefix = metrics.as_ref().map(|p| format!("{p}-{slug}"));
        let flight = prefix
            .as_ref()
            .map(|_| FlightRecorder::with_byte_bound(2048));
        let result = run(
            nodes,
            staleness,
            jsonl.clone(),
            metrics_prefix.as_deref(),
            flight.clone(),
        );
        if let Some(p) = &metrics_prefix {
            println!("metrics exports written to {p}.prom and {p}.csv");
        }
        println!("== {name} ==");
        println!("round  accuracy  sim-time[s]  staleness[s]  crashes  rejoins  expired");
        for r in &result.records {
            println!(
                "{:>5}  {:>8.3}  {:>11.1}  {:>12.4}  {:>7}  {:>7}  {:>7}",
                r.round + 1,
                r.test_accuracy,
                r.sim_time_s,
                r.mean_staleness_s,
                r.crashes,
                r.rejoins,
                r.messages_expired
            );
        }
        let dropped = result.total_traffic.messages_dropped;
        let hit = result
            .records
            .iter()
            .find(|r| r.test_accuracy >= TARGET)
            .map(|r| r.sim_time_s);
        match hit {
            Some(t) => println!(
                "crash-killed messages: {dropped}; time to {:.0}% accuracy: \
                 {t:.2} simulated seconds\n",
                TARGET * 100.0
            ),
            None => println!(
                "crash-killed messages: {dropped}; never reached {:.0}% accuracy\n",
                TARGET * 100.0
            ),
        }
        if let (Some(jsonl), Some(flight)) = (&jsonl, &flight) {
            println!("full trace written to {jsonl} (inspect with `trace_report {jsonl}`)");
            let tail = flight.dump();
            let show = tail.len().min(5);
            println!(
                "flight-recorder tail ({} of {} retained events — what a \
                 panicking run would dump):",
                show,
                tail.len()
            );
            for event in &tail[tail.len() - show..] {
                println!("  {}", serde::json::to_string(event));
            }
            println!();
        }
        time_to_target.push(hit);
    }
    if let (Some(Some(uncapped)), Some(Some(capped))) =
        (time_to_target.first(), time_to_target.get(1))
    {
        println!(
            "Same crashes, same links: time to {:.0}% accuracy is {uncapped:.2}s \
             without a cap vs {capped:.2}s with k=2. The cap drops the rejoining \
             nodes' ancient models from the mix (weight renormalized into the \
             self-weight) — freshness it buys on hard non-IID tasks, information \
             it costs on easy ones. Sweep the trade with `cargo bench --bench \
             ext_staleness`.",
            TARGET * 100.0
        );
    }
}
