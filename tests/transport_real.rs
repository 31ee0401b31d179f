//! Real-backend integration: the same `TrainConfig` on OS threads.
//!
//! The flagship check of the transport abstraction: a 16-node cluster runs
//! end to end on the channel backend (one OS thread per node, framed
//! messages over real channels, wall-clock time), then the *same* config +
//! seed replays on the simulated backend under the latency profile the
//! real transport measured, and the two accuracy trajectories must agree
//! within the declared tolerance ([`jwins::crosscheck`]).

use jwins::config::{ChannelTransportConfig, ExecutionMode, TrainConfig, TransportKind};
use jwins::crosscheck::{self, DEFAULT_ACCURACY_TOLERANCE};
use jwins::engine::Trainer;
use jwins::metrics::RunResult;
use jwins::strategies::{FullSharing, Jwins, JwinsConfig};
use jwins::strategy::ShareStrategy;
use jwins_adversary::Robust;
use jwins_data::images::{cifar_like, ImageConfig};
use jwins_nn::models::mlp_classifier;
use jwins_topology::dynamic::StaticTopology;
use jwins_trace::{MemorySink, TraceEvent};

const NODES: usize = 16;

fn base_config(rounds: usize) -> TrainConfig {
    let mut c = TrainConfig::new(rounds);
    c.local_steps = 2;
    c.batch_size = 8;
    c.lr = 0.1;
    c.eval_every = 2;
    c.eval_test_samples = 64;
    c.threads = 2;
    c
}

/// A generous wait budget so an in-process message never misses its round
/// even on a loaded CI machine.
fn channel_kind() -> TransportKind {
    TransportKind::Channel(ChannelTransportConfig {
        mix_wait_ms: 2_000,
        poll_us: 100,
    })
}

/// Builds and runs a `NODES`-node FullSharing cluster. Data, models,
/// topology and strategy seeds are all derived from constants, so two
/// calls construct identical clusters — only the transport differs.
fn run_full_sharing(config: TrainConfig, memory: Option<MemorySink>) -> RunResult {
    let img = ImageConfig::tiny();
    let data = cifar_like(&img, NODES, 2, 7);
    let mut builder = Trainer::builder(config)
        .topology(StaticTopology::random_regular(NODES, 4, 3).unwrap())
        .test_set(data.test)
        .nodes(data.node_train, |_| {
            (
                mlp_classifier(img.channels * img.height * img.width, &[16], img.classes, 7),
                Box::new(FullSharing::new()) as Box<dyn ShareStrategy>,
            )
        });
    if let Some(memory) = memory {
        builder = builder.trace_sink(Box::new(memory));
    }
    builder.build().unwrap().run().unwrap()
}

#[test]
fn sixteen_node_channel_run_matches_the_sim_oracle() {
    let rounds = 6;
    let mut real_cfg = base_config(rounds);
    real_cfg.transport = channel_kind();
    let real = run_full_sharing(real_cfg, None);

    assert_eq!(real.rounds_run, rounds, "all rounds completed on threads");
    assert!(
        real.measured_latency_s.is_some(),
        "real backend reports its measured flight latency"
    );
    let evals: Vec<usize> = real.round_records().map(|r| r.round).collect();
    assert_eq!(evals, vec![1, 3, 5], "eval cadence survives the backend");
    for record in real.round_records() {
        assert_eq!(record.per_node_accuracy.len(), NODES);
    }

    // Replay the measured profile through the sim oracle. In-process
    // channel latency is microseconds against a ~1 s modelled compute
    // round, so the profile clamps to degenerate and the oracle is the
    // plain barrier sim; a slower (future, socketed) backend would flip
    // this into an event-driven replay instead.
    let mut oracle_cfg = base_config(rounds);
    let profile =
        crosscheck::oracle_profile(real.measured_latency_s, oracle_cfg.time_model.compute_s);
    assert!(
        profile.is_degenerate(),
        "in-process latency must clamp to instant links (measured {:?})",
        real.measured_latency_s
    );
    if !profile.is_degenerate() {
        oracle_cfg.execution = ExecutionMode::EventDriven;
        oracle_cfg.heterogeneity = profile;
    }
    let oracle = run_full_sharing(oracle_cfg, None);

    let check = crosscheck::compare_to_oracle(&real, &oracle, DEFAULT_ACCURACY_TOLERANCE);
    assert_eq!(check.compared, 3, "every eval record aligned");
    assert!(
        check.within_tolerance(),
        "accuracy trajectory diverged from the oracle: {check:?}"
    );
    assert_eq!(
        check.traffic_gap_ratio, 0.0,
        "fixed-size strategy must meter identical bytes on both backends: {check:?}"
    );
    assert_eq!(check.rounds_real, check.rounds_oracle);
}

/// The channel scheduler drains the strategies' robust-aggregation telemetry
/// like the other two: the clipped mass reaches the records and the trace.
/// Not bit-equal to the sim oracle — the order nodes deposit in varies the
/// float sum, and on a loaded host a late message can miss its round — so
/// the pin is "non-zero and within 1 %".
#[test]
fn channel_run_reports_clipped_mass_like_the_sim_oracle() {
    let config = || {
        let mut cfg = base_config(4);
        // Far below any neighbour's distance: every message is clipped.
        cfg.robust = Robust::NormClip { tau: 1e-3 };
        cfg
    };
    let oracle = run_full_sharing(config(), None);
    let expected = oracle.final_record().expect("evaluated").mass_clipped;
    assert!(expected > 0.0, "the sim oracle clips");

    let mut real_cfg = config();
    real_cfg.transport = channel_kind();
    let memory = MemorySink::new();
    let real = run_full_sharing(real_cfg, Some(memory.clone()));
    let clipped = real.final_record().expect("evaluated").mass_clipped;
    assert!(clipped > 0.0, "channel run reports no clipped mass");
    assert!(
        (clipped - expected).abs() <= 0.01 * expected,
        "channel clipped mass {clipped} strays from the oracle's {expected}"
    );
    assert!(
        memory
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::RobustClip { .. })),
        "channel trace carries no RobustClip event"
    );
}

#[test]
fn channel_run_stops_early_on_target_accuracy() {
    let mut cfg = base_config(8);
    cfg.transport = channel_kind();
    cfg.target_accuracy = Some(0.0); // any evaluation hits it
    let result = run_full_sharing(cfg, None);
    let hit = result.reached_target.expect("target must be reached");
    assert_eq!(hit.round, 1, "first eval round triggers the stop");
    assert_eq!(result.rounds_run, 2, "run stops after the hit");
}

#[test]
fn jwins_strategy_trains_on_the_channel_backend() {
    let img = ImageConfig::tiny();
    let data = cifar_like(&img, 4, 2, 7);
    let mut cfg = base_config(4);
    cfg.eval_every = 0; // final eval only
    cfg.transport = channel_kind();
    let trainer = Trainer::builder(cfg)
        .topology(StaticTopology::random_regular(4, 2, 1).unwrap())
        .test_set(data.test)
        .nodes(data.node_train, |node| {
            (
                mlp_classifier(img.channels * img.height * img.width, &[16], img.classes, 7),
                Box::new(Jwins::new(JwinsConfig::paper_default(), 1000 + node as u64))
                    as Box<dyn ShareStrategy>,
            )
        })
        .build()
        .unwrap();
    let result = trainer.run().unwrap();
    assert_eq!(result.rounds_run, 4);
    let last = result.final_record().expect("final eval present");
    assert!(last.test_accuracy > 0.0);
    assert!(
        last.mean_alpha < 1.0,
        "sparsified sharing keeps its cut-off on the real backend"
    );
    assert!(result.measured_latency_s.is_some());
}

#[test]
fn channel_transport_rejects_virtual_time_features_at_build() {
    let mut cfg = base_config(2);
    cfg.transport = channel_kind();
    cfg.execution = ExecutionMode::EventDriven;
    assert!(
        cfg.validate().is_err(),
        "event-driven execution needs the virtual clock"
    );

    let mut cfg = base_config(2);
    cfg.transport = channel_kind();
    cfg.message_loss = 0.1;
    assert!(cfg.validate().is_err(), "loss model is a sim construct");

    let mut cfg = base_config(2);
    cfg.transport = TransportKind::Channel(ChannelTransportConfig {
        mix_wait_ms: 0,
        poll_us: 100,
    });
    assert!(cfg.validate().is_err(), "zero wait budget cannot mix");

    let mut cfg = base_config(2);
    cfg.transport = channel_kind();
    assert!(cfg.validate().is_ok(), "the supported combination passes");
}
