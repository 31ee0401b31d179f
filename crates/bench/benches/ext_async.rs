//! Extension: synchronous vs asynchronous time-to-accuracy on a
//! heterogeneous cluster.
//!
//! The paper measures wall-clock on a bandwidth-constrained cluster where
//! every round waits for the slowest node (§IV-C-3). The event-driven
//! runtime removes that barrier: nodes gossip with whatever neighbour
//! models have *arrived*. This experiment quantifies the trade on a
//! straggler cluster (25% of nodes 4× slower, 100 Mbit/s links):
//!
//! - **barrier**: every round costs the straggler's compute plus the full
//!   transfer, but all mixed information is fresh;
//! - **async**: fast nodes keep their own pace and mix slightly stale
//!   models, finishing the same round budget in far less simulated time.
//!
//! Protocol (per strategy — full-sharing, JWINS, CHOCO-SGD, and PowerGossip
//! now that its per-edge state is round-versioned and async-safe): a barrier
//! baseline run fixes a target accuracy (90% of its final accuracy); both
//! substrates then run to that target and report simulated time, rounds and
//! bytes at the moment it is reached, plus the async run's mean staleness —
//! and, beside the host seconds each run took, how many windows the event
//! scheduler executed and how wide they were (exact counts; the barrier has
//! none).
//!
//! `JWINS_SMOKE=1` shrinks the round budget for the CI `bench-smoke` job.

use jwins::config::ExecutionMode;
use jwins::strategies::{ChocoConfig, JwinsConfig, PowerGossipConfig};
use jwins_bench::{banner, fmt_bytes, run_cifar, save_csv, Algo, RunCfg, Scale};
use jwins_metrics::{MetricsRegistry, DEFAULT_WINDOW_S};
use jwins_sim::HeterogeneityProfile;

/// 25% of nodes 4× slower; 100 Mbit/s, 5 ms links (the sync TimeModel's
/// default link, so the two substrates price bytes identically).
fn straggler_cluster() -> HeterogeneityProfile {
    HeterogeneityProfile::stragglers(0.25, 4.0, 0.005, 100.0e6 / 8.0)
}

fn main() {
    let scale = Scale::from_env();
    let smoke = jwins_bench::smoke();
    banner(
        "ext_async — sync vs async time-to-accuracy under stragglers",
        "asynchronous gossip reaches the target in less simulated time by \
         not waiting for the slowest node",
    );
    let rounds = if smoke { 8 } else { scale.rounds(60) };
    if smoke {
        println!("[smoke] reduced to {rounds} rounds");
    }
    let mut csv = String::from(
        "strategy,mode,rounds_run,final_accuracy,target_accuracy,\
         time_to_target_s,bytes_per_node_at_target,mean_staleness_s,wall_s,batches,\
         mean_batch_width\n",
    );
    let algos = [
        ("full-sharing", Algo::Full),
        ("jwins", Algo::Jwins(JwinsConfig::paper_default())),
        ("choco@20%", Algo::Choco(ChocoConfig::budget_20())),
        // The low-rank per-edge baseline: runnable under async gossip since
        // its warm starts became round-versioned.
        (
            "power-gossip@r1",
            Algo::PowerGossip(PowerGossipConfig::global(1)),
        ),
    ];
    for (label, algo) in algos {
        // Phase 1: barrier baseline fixes the target for this strategy.
        let mut base = RunCfg::new(rounds);
        base.train.eval_every = (rounds / 15).max(2);
        let baseline = run_cifar(scale, &algo, &base, 2);
        let target = (baseline.final_accuracy() * 0.9).min(0.99);
        println!(
            "\n[{label}] baseline accuracy {:.3} -> target {:.3}",
            baseline.final_accuracy(),
            target
        );
        // Phase 2: both substrates run to the target.
        for (mode_name, execution, heterogeneity) in [
            (
                "sync-barrier",
                ExecutionMode::BulkSynchronous,
                HeterogeneityProfile::default(),
            ),
            (
                "async-gossip",
                ExecutionMode::EventDriven,
                straggler_cluster(),
            ),
        ] {
            let mut cfg = RunCfg::new(rounds);
            cfg.train.eval_every = (rounds / 15).max(2);
            cfg.train.target_accuracy = Some(target);
            cfg.train.execution = execution;
            cfg.train.heterogeneity = heterogeneity;
            if execution == ExecutionMode::BulkSynchronous {
                // The barrier waits for the slowest node: on this cluster a
                // round's compute is the straggler's 4× slowdown.
                cfg.train.time_model = jwins_net::TimeModel::edge_100mbit(0.05 * 4.0);
            }
            // The event scheduler's `ExecuteBatch` windows (the barrier
            // emits none): how wide the straggler schedule let it execute.
            let memory = jwins_trace::MemorySink::new();
            cfg.trace_memory = Some(memory.clone());
            let start = std::time::Instant::now();
            let result = run_cifar(scale, &algo, &cfg, 2);
            let wall = start.elapsed().as_secs_f64();
            let registry = MetricsRegistry::from_events(DEFAULT_WINDOW_S, &memory.events());
            let (batches, mean_batch_width) = jwins_bench::batch_shape(&registry);
            let last = result.final_record().expect("at least one evaluation");
            let (time_s, bytes) = result
                .reached_target
                .map_or((f64::NAN, f64::NAN), |h| (h.sim_time_s, h.bytes_per_node));
            println!(
                "  {mode_name:<14} rounds {:>4}  acc {:.3}  t_target {:>9.1}s  \
                 bytes/node {:>10}  staleness {:>7.3}s  wall {wall:>6.2}s  \
                 batches {batches:>5}  mean width {mean_batch_width:>6.3}",
                result.rounds_run,
                last.test_accuracy,
                time_s,
                if bytes.is_nan() {
                    "-".into()
                } else {
                    fmt_bytes(bytes)
                },
                last.mean_staleness_s,
            );
            csv.push_str(&format!(
                "{label},{mode_name},{},{:.6},{:.6},{:.3},{:.0},{:.4},{wall:.4},{batches},\
                 {mean_batch_width:.4}\n",
                result.rounds_run, last.test_accuracy, target, time_s, bytes, last.mean_staleness_s,
            ));
        }
    }
    save_csv("ext_async", &csv);
    println!(
        "\nNote: the barrier rows charge TimeModel::round_seconds per round \
         (compute + latency + slowest transfer); the async rows charge the \
         event clock of the straggler cluster above."
    );
}
