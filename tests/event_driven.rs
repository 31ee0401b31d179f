//! Integration tests for the event-driven simulation runtime.
//!
//! The two hard guarantees of `ExecutionMode::EventDriven`:
//!
//! 1. with a *degenerate* heterogeneity profile (uniform compute,
//!    instantaneous links) it reproduces the bulk-synchronous engine
//!    **bit-for-bit** — same accuracies, same losses, same traffic — for
//!    sparsifying and per-edge strategies too, not just full sharing;
//! 2. with real heterogeneity it stays **deterministic**: replays from the
//!    same seed are identical, worker-thread count never changes results,
//!    and staleness appears exactly when links/compute make messages late.

use jwins::config::{ExecutionMode, TrainConfig};
use jwins::engine::Trainer;
use jwins::metrics::RunResult;
use jwins::strategies::{ChocoConfig, ChocoSgd, FullSharing, Jwins, JwinsConfig, RandomModelWalk};
use jwins::strategy::ShareStrategy;
use jwins_data::images::{cifar_like, ImageConfig};
use jwins_nn::models::mlp_classifier;
use jwins_sim::{ComputeProfile, HeterogeneityProfile, LinkProfile};
use jwins_topology::dynamic::StaticTopology;

type StrategyFactory = fn(usize) -> Box<dyn ShareStrategy>;

fn run_once(
    execution: ExecutionMode,
    heterogeneity: HeterogeneityProfile,
    threads: usize,
    strategy: StrategyFactory,
) -> RunResult {
    let data = cifar_like(&ImageConfig::tiny(), 6, 2, 11);
    let mut cfg = TrainConfig::quick_test();
    cfg.rounds = 8;
    cfg.lr = 0.1;
    cfg.eval_every = 2;
    cfg.threads = threads;
    cfg.execution = execution;
    cfg.heterogeneity = heterogeneity;
    Trainer::builder(cfg)
        .topology(StaticTopology::random_regular(6, 2, 13).unwrap())
        .test_set(data.test)
        .nodes(data.node_train, |node| {
            (mlp_classifier(2 * 8 * 8, &[8], 4, 7), strategy(node))
        })
        .build()
        .unwrap()
        .run()
        .unwrap()
}

fn assert_bitwise_equal_modulo_time(sync: &RunResult, event: &RunResult) {
    assert_eq!(sync.rounds_run, event.rounds_run);
    assert_eq!(sync.total_traffic, event.total_traffic);
    assert_eq!(sync.records.len(), event.records.len());
    for (s, e) in sync.records.iter().zip(&event.records) {
        assert_eq!(s.round, e.round);
        assert_eq!(s.train_loss.to_bits(), e.train_loss.to_bits(), "train loss");
        assert_eq!(s.test_loss.to_bits(), e.test_loss.to_bits(), "test loss");
        assert_eq!(
            s.test_accuracy.to_bits(),
            e.test_accuracy.to_bits(),
            "accuracy"
        );
        assert_eq!(s.test_rmse.to_bits(), e.test_rmse.to_bits(), "rmse");
        assert_eq!(s.mean_alpha.to_bits(), e.mean_alpha.to_bits(), "alpha");
        assert_eq!(s.cum_bytes_per_node, e.cum_bytes_per_node);
        assert_eq!(s.cum_payload_per_node, e.cum_payload_per_node);
        assert_eq!(s.cum_metadata_per_node, e.cum_metadata_per_node);
        assert_eq!(e.mean_staleness_s, 0.0, "degenerate profile must be fresh");
        // sim_time_s intentionally differs: the barrier model charges
        // latency + max-bytes/bandwidth per round, the event clock charges
        // what its (here: instantaneous) links actually cost.
    }
}

fn full_sharing(_node: usize) -> Box<dyn ShareStrategy> {
    Box::new(FullSharing::new())
}

fn jwins_strategy(node: usize) -> Box<dyn ShareStrategy> {
    Box::new(Jwins::new(JwinsConfig::paper_default(), 900 + node as u64))
}

fn choco(_node: usize) -> Box<dyn ShareStrategy> {
    Box::new(ChocoSgd::new(ChocoConfig::budget_20()))
}

fn random_walk(node: usize) -> Box<dyn ShareStrategy> {
    Box::new(RandomModelWalk::new(700 + node as u64))
}

#[test]
fn degenerate_event_mode_reproduces_sync_for_full_sharing() {
    let sync = run_once(
        ExecutionMode::BulkSynchronous,
        HeterogeneityProfile::default(),
        1,
        full_sharing,
    );
    let event = run_once(
        ExecutionMode::EventDriven,
        HeterogeneityProfile::default(),
        1,
        full_sharing,
    );
    assert_bitwise_equal_modulo_time(&sync, &event);
}

#[test]
fn degenerate_event_mode_reproduces_sync_for_jwins() {
    let sync = run_once(
        ExecutionMode::BulkSynchronous,
        HeterogeneityProfile::default(),
        1,
        jwins_strategy,
    );
    let event = run_once(
        ExecutionMode::EventDriven,
        HeterogeneityProfile::default(),
        1,
        jwins_strategy,
    );
    assert_bitwise_equal_modulo_time(&sync, &event);
}

#[test]
fn degenerate_event_mode_reproduces_sync_for_choco() {
    let sync = run_once(
        ExecutionMode::BulkSynchronous,
        HeterogeneityProfile::default(),
        1,
        choco,
    );
    let event = run_once(
        ExecutionMode::EventDriven,
        HeterogeneityProfile::default(),
        1,
        choco,
    );
    assert_bitwise_equal_modulo_time(&sync, &event);
}

/// A per-edge strategy: one message per node-round, on an edge the sender
/// picks.
#[test]
fn degenerate_event_mode_reproduces_sync_for_random_model_walk() {
    let sync = run_once(
        ExecutionMode::BulkSynchronous,
        HeterogeneityProfile::default(),
        1,
        random_walk,
    );
    let event = run_once(
        ExecutionMode::EventDriven,
        HeterogeneityProfile::default(),
        1,
        random_walk,
    );
    assert_eq!(sync.total_traffic.messages_sent, 6 * 8);
    assert_bitwise_equal_modulo_time(&sync, &event);
}

/// A zero-variance profile that is *not* the `Default` value must still
/// degrade exactly: degeneracy is a property of the physics, not of which
/// enum variant was picked.
#[test]
fn zero_variance_stragglers_also_degrade_exactly() {
    let profile = HeterogeneityProfile {
        compute: ComputeProfile::Stragglers {
            fraction: 0.0,
            slowdown: 9.0,
        },
        links: LinkProfile::Instant,
    };
    assert!(profile.is_degenerate());
    let sync = run_once(
        ExecutionMode::BulkSynchronous,
        HeterogeneityProfile::default(),
        1,
        full_sharing,
    );
    let event = run_once(ExecutionMode::EventDriven, profile, 1, full_sharing);
    assert_bitwise_equal_modulo_time(&sync, &event);
}

#[test]
fn heterogeneous_runs_replay_identically_across_seed_and_threads() {
    let profile = || HeterogeneityProfile {
        compute: ComputeProfile::LogNormal { sigma: 0.6 },
        links: LinkProfile::LogNormal {
            latency_s: 0.004,
            bandwidth_bps: 2.0e6,
            sigma: 0.5,
        },
    };
    let a = run_once(ExecutionMode::EventDriven, profile(), 1, jwins_strategy);
    let b = run_once(ExecutionMode::EventDriven, profile(), 1, jwins_strategy);
    let c = run_once(ExecutionMode::EventDriven, profile(), 4, jwins_strategy);
    for other in [&b, &c] {
        assert_eq!(a.rounds_run, other.rounds_run);
        assert_eq!(a.total_traffic, other.total_traffic);
        assert_eq!(a.records.len(), other.records.len());
        for (x, y) in a.records.iter().zip(&other.records) {
            assert_eq!(x.test_accuracy.to_bits(), y.test_accuracy.to_bits());
            assert_eq!(x.test_loss.to_bits(), y.test_loss.to_bits());
            assert_eq!(x.train_loss.to_bits(), y.train_loss.to_bits());
            assert_eq!(x.sim_time_s.to_bits(), y.sim_time_s.to_bits());
            assert_eq!(x.mean_staleness_s.to_bits(), y.mean_staleness_s.to_bits());
        }
    }
}

#[test]
fn slow_links_produce_staleness_and_stretch_the_clock() {
    // 64 kB/s links: a full model broadcast takes longer than a round's
    // compute, so mixes consume messages from earlier rounds.
    let slow_links = HeterogeneityProfile {
        compute: ComputeProfile::Uniform,
        links: LinkProfile::Uniform {
            latency_s: 0.02,
            bandwidth_bps: 64_000.0,
        },
    };
    let fresh = run_once(
        ExecutionMode::EventDriven,
        HeterogeneityProfile::default(),
        1,
        full_sharing,
    );
    let stale = run_once(ExecutionMode::EventDriven, slow_links, 1, full_sharing);
    let fresh_last = fresh.final_record().unwrap();
    let stale_last = stale.final_record().unwrap();
    assert_eq!(fresh_last.mean_staleness_s, 0.0);
    assert!(
        stale_last.mean_staleness_s > 0.0,
        "thin links must leave messages in flight"
    );
    assert!(
        stale_last.sim_time_s > fresh_last.sim_time_s,
        "transfer time must show up on the clock"
    );
    // Async gossip drops nothing: every sent message is still accounted.
    assert_eq!(
        stale.total_traffic.messages_sent,
        fresh.total_traffic.messages_sent
    );
}

#[test]
fn event_mode_supports_early_stop_on_target() {
    let data = cifar_like(&ImageConfig::tiny(), 4, 2, 5);
    let mut cfg = TrainConfig::quick_test();
    cfg.rounds = 60;
    cfg.lr = 0.1;
    cfg.eval_every = 1;
    cfg.target_accuracy = Some(0.3);
    cfg.execution = ExecutionMode::EventDriven;
    cfg.heterogeneity = HeterogeneityProfile::stragglers(0.25, 2.0, 0.001, 1.0e6);
    let result = Trainer::builder(cfg)
        .topology(StaticTopology::random_regular(4, 2, 3).unwrap())
        .test_set(data.test)
        .nodes(data.node_train, |_| {
            (
                mlp_classifier(2 * 8 * 8, &[8], 4, 7),
                Box::new(FullSharing::new()) as Box<dyn ShareStrategy>,
            )
        })
        .build()
        .unwrap()
        .run()
        .unwrap();
    let hit = result.reached_target.expect("tiny task reaches 30%");
    assert!(result.rounds_run < 60, "stopped at {}", result.rounds_run);
    assert_eq!(hit.round + 1, result.rounds_run);
    assert!(hit.sim_time_s > 0.0);
}
