//! Shard-count invariance of the sharded event engine.
//!
//! `TrainConfig::shards` routes events to per-node-group heaps behind a
//! global merge; the contract is that it is *purely structural*: any shard
//! count replays the single-heap schedule bit for bit, at any thread count.
//! This test replays one fault-laden event-driven workload across the
//! {threads} × {shards} grid and compares the full `RoundRecord` streams.

use jwins::config::{ExecutionMode, TrainConfig};
use jwins::engine::Trainer;
use jwins::metrics::RunResult;
use jwins::strategies::FullSharing;
use jwins::strategy::ShareStrategy;
use jwins_data::images::{cifar_like, ImageConfig};
use jwins_fault::{FaultConfig, FaultOutage, FaultPlan, RejoinMode, StalenessPolicy};
use jwins_nn::models::mlp_classifier;
use jwins_sim::HeterogeneityProfile;
use jwins_topology::dynamic::StaticTopology;

const NODES: usize = 12;

/// Stragglers (wide batches), a crash+rejoin and mid-round checkpoints:
/// the queue carries every event class, so a routing bug in any of them
/// would break the comparison.
fn scale_config(threads: usize, shards: usize) -> TrainConfig {
    let mut cfg = TrainConfig::quick_test();
    cfg.rounds = 5;
    cfg.lr = 0.1;
    cfg.eval_every = 1;
    cfg.threads = threads;
    cfg.shards = shards;
    cfg.execution = ExecutionMode::EventDriven;
    cfg.time_model.compute_s = 1.0;
    cfg.heterogeneity = HeterogeneityProfile::stragglers(0.25, 3.0, 0.002, 1.0e6);
    cfg.faults = FaultConfig {
        plan: FaultPlan::Scripted(vec![FaultOutage {
            rejoin: RejoinMode::Resync,
            ..FaultOutage::new(2, 2.5, 3.0)
        }]),
        staleness: StalenessPolicy::drop_after_rounds(1),
    };
    cfg.eval_interval_s = Some(1.5);
    cfg
}

fn run(threads: usize, shards: usize) -> RunResult {
    let data = cifar_like(&ImageConfig::tiny(), NODES, 2, 5);
    Trainer::builder(scale_config(threads, shards))
        .topology(StaticTopology::random_regular(NODES, 3, 3).unwrap())
        .test_set(data.test)
        .nodes(data.node_train, |_node| {
            (
                mlp_classifier(2 * 8 * 8, &[8], 4, 7),
                Box::new(FullSharing::new()) as Box<dyn ShareStrategy>,
            )
        })
        .build()
        .unwrap()
        .run()
        .unwrap()
}

#[test]
fn strict_runs_are_identical_across_threads_and_shards() {
    // The single-heap, single-threaded run is the reference schedule.
    let base = run(1, 0);
    let last = base.records.last().expect("records recorded");
    assert!(last.crashes >= 1, "crashes replayed: {}", last.crashes);
    assert!(last.rejoins >= 1, "rejoins replayed: {}", last.rejoins);
    for threads in [1usize, 2, 8] {
        for shards in [1usize, 4, 16] {
            let result = run(threads, shards);
            base.assert_bit_identical(
                &result,
                &format!("threads-1/shards-0 vs threads-{threads}/shards-{shards}"),
            );
        }
    }
}
