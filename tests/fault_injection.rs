//! Integration tests for the fault-injection & bounded-staleness subsystem.
//!
//! The hard guarantees:
//!
//! 1. a **degenerate fault config** (no faults, infinite TTL, no cap) is a
//!    strict no-op: event-driven runs reproduce the pre-fault-engine results
//!    **bit-for-bit**, both against a default config under real
//!    heterogeneity and against the bulk-synchronous engine under a
//!    degenerate profile (the `tests/event_driven.rs` contract); a no-op
//!    plan is a no-op on the barrier scheduler too;
//! 2. mid-round crashes kill in-flight messages, recoveries rejoin (warm or
//!    re-synced), and the whole thing stays deterministic; one plan and one
//!    seed give one outage sequence on the barrier and the event scheduler,
//!    and a churned barrier run is a pure function of its serialized config;
//! 3. the staleness policy is airtight: no message older than the cap is
//!    ever mixed (verified by a round-stamping probe strategy), TTL drops
//!    are metered separately from link-loss drops, and down-weighting moves
//!    mass to the self-weight instead of losing it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use jwins::config::{ExecutionMode, TrainConfig};
use jwins::engine::Trainer;
use jwins::metrics::RunResult;
use jwins::strategies::{
    ChocoConfig, ChocoSgd, FullSharing, Jwins, JwinsConfig, RandomModelWalk, RandomSampling,
};
use jwins::strategy::{OutMessage, ReceivedMessage, ShareStrategy};
use jwins_data::images::{cifar_like, ImageConfig};
use jwins_fault::{CapAction, FaultConfig, FaultOutage, FaultPlan, RejoinMode, StalenessPolicy};
use jwins_net::{ByteBreakdown, TimeModel, TrafficStats};
use jwins_nn::models::mlp_classifier;
use jwins_sim::{ComputeProfile, HeterogeneityProfile, LinkProfile};
use jwins_topology::dynamic::StaticTopology;
use jwins_topology::repair::RepairPolicy;
use jwins_trace::{KillReason, MemorySink, TraceEvent};

fn straggler_profile() -> HeterogeneityProfile {
    HeterogeneityProfile::stragglers(0.25, 4.0, 0.002, 1.0e6)
}

fn base_config(heterogeneity: HeterogeneityProfile, faults: FaultConfig) -> TrainConfig {
    let mut cfg = TrainConfig::quick_test();
    cfg.rounds = 8;
    cfg.lr = 0.1;
    cfg.eval_every = 2;
    cfg.time_model.compute_s = 1.0;
    cfg.execution = ExecutionMode::EventDriven;
    cfg.heterogeneity = heterogeneity;
    cfg.faults = faults;
    cfg
}

fn run_full_sharing(cfg: TrainConfig, nodes: usize) -> RunResult {
    run_traced(cfg, nodes, MemorySink::new())
}

fn run_traced(cfg: TrainConfig, nodes: usize, sink: MemorySink) -> RunResult {
    let data = cifar_like(&ImageConfig::tiny(), nodes, 2, 11);
    Trainer::builder(cfg)
        .topology(StaticTopology::random_regular(nodes, 2, 13).unwrap())
        .trace_sink(Box::new(sink))
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
        .unwrap()
}

fn assert_bitwise_equal(a: &RunResult, b: &RunResult) {
    // The canonical full-strength comparison lives on RunResult so every
    // determinism test and bench stays in lockstep as fields are added.
    a.assert_bit_identical(b, "fault-injection");
}

/// An explicitly-spelled-out no-op: empty script, infinite TTL, no cap.
fn degenerate_faults() -> FaultConfig {
    FaultConfig {
        plan: FaultPlan::Scripted(Vec::new()),
        staleness: StalenessPolicy {
            ttl_s: Some(f64::INFINITY),
            max_age_rounds: None,
            max_age_s: Some(f64::INFINITY),
            over_cap: CapAction::Drop,
        },
    }
}

/// Acceptance criterion: the degenerate fault config reproduces the
/// fault-engine-free results bit-for-bit — on the event scheduler under real
/// heterogeneity, and on the barrier scheduler (which replays a plan at
/// round starts) for every plan that injects nothing, at any thread count.
#[test]
fn degenerate_fault_config_is_a_bitwise_noop() {
    let plain = run_full_sharing(base_config(straggler_profile(), FaultConfig::default()), 8);
    let spelled = run_full_sharing(base_config(straggler_profile(), degenerate_faults()), 8);
    assert!(
        plain.final_record().unwrap().mean_staleness_s > 0.0,
        "profile must actually create staleness for the comparison to bite"
    );
    assert_bitwise_equal(&plain, &spelled);

    let barrier = |faults: FaultConfig, threads: usize| {
        let mut cfg = base_config(HeterogeneityProfile::default(), faults);
        cfg.execution = ExecutionMode::BulkSynchronous;
        cfg.threads = threads;
        run_full_sharing(cfg, 6)
    };
    let plain = barrier(FaultConfig::default(), 1);
    let nobody = FaultPlan::CorrelatedOutage {
        fraction: 0.0,
        at_s: 2.0,
        down_s: 3.0,
        rejoin: RejoinMode::Resync,
    };
    for threads in [1, 2] {
        for plan in [
            FaultPlan::None,
            FaultPlan::Scripted(Vec::new()),
            nobody.clone(),
        ] {
            let mut faults = degenerate_faults();
            faults.plan = plan;
            assert_bitwise_equal(&plain, &barrier(faults, threads));
        }
    }
}

/// A churned barrier run is a pure function of its configuration: the config
/// survives JSON with its plan, and re-runs — at another thread count — to
/// the same records, which count the outages.
#[test]
fn barrier_churn_survives_serde_and_replays() {
    let faults = FaultConfig {
        plan: FaultPlan::Scripted(vec![
            FaultOutage::new(2, 1.5, 3.0),
            FaultOutage {
                rejoin: RejoinMode::Resync,
                ..FaultOutage::new(4, 2.0, 2.5)
            },
        ]),
        ..FaultConfig::default()
    };
    let mut cfg = base_config(HeterogeneityProfile::default(), faults);
    cfg.execution = ExecutionMode::BulkSynchronous;
    cfg.time_model = TimeModel::fixed_round(1.0);
    cfg.threads = 1;
    let mut back: TrainConfig = serde::json::from_str(&serde::json::to_string(&cfg)).unwrap();
    assert_eq!(back.faults, cfg.faults);
    assert_eq!(back.time_model, cfg.time_model);
    back.threads = 2;
    let first = run_full_sharing(cfg, 6);
    assert_bitwise_equal(&first, &run_full_sharing(back, 6));
    let last = first.final_record().unwrap();
    assert_eq!((last.crashes, last.rejoins), (2, 2));
}

/// `(node, is_crash)` of every lifecycle event in a trace, in order.
fn lifecycle(sink: &MemorySink) -> Vec<(u32, bool)> {
    sink.events()
        .iter()
        .filter_map(|event| match *event {
            TraceEvent::NodeCrash { node, .. } => Some((node, true)),
            TraceEvent::NodeRejoin { node, .. } => Some((node, false)),
            _ => None,
        })
        .collect()
}

/// One plan and one seed give one outage timeline on both virtual clocks:
/// the barrier and the event scheduler replay the same crashes and rejoins
/// in the same order and count them alike. The *trajectories* are not
/// expected to agree — a down barrier node skips the cluster's rounds, a
/// down event node abandons one round and resumes its own round counter.
#[test]
fn one_plan_gives_one_outage_sequence_on_both_schedulers() {
    let plans = [
        FaultPlan::Scripted(vec![
            FaultOutage::new(3, 2.5, 4.0),
            FaultOutage::new(1, 4.0, 0.25),
            FaultOutage::new(5, 6.0, f64::INFINITY),
        ]),
        // Every crash and recovery falls well inside the 30 one-second
        // rounds, so neither scheduler ends before the plan does.
        FaultPlan::RandomChurn {
            mean_up_s: 6.0,
            mean_down_s: 1.5,
            horizon_s: 15.0,
            rejoin: RejoinMode::Resync,
        },
    ];
    for plan in plans {
        let run = |execution: ExecutionMode| {
            let faults = FaultConfig {
                plan: plan.clone(),
                ..FaultConfig::default()
            };
            let mut cfg = base_config(HeterogeneityProfile::default(), faults);
            cfg.rounds = 30;
            cfg.execution = execution;
            cfg.time_model = TimeModel::fixed_round(1.0);
            let sink = MemorySink::new();
            let result = run_traced(cfg, 6, sink.clone());
            let last = result.records.last().unwrap();
            (lifecycle(&sink), last.crashes, last.rejoins)
        };
        let barrier = run(ExecutionMode::BulkSynchronous);
        let event = run(ExecutionMode::EventDriven);
        assert!(barrier.1 >= 3, "the plan must crash someone: {plan:?}");
        assert_eq!(barrier, event, "{plan:?}");
    }
}

/// The `tests/event_driven.rs` contract still holds through the fault
/// engine: degenerate profile + degenerate fault config == bulk-synchronous,
/// bit for bit.
#[test]
fn degenerate_fault_config_still_matches_sync_bitwise() {
    let mut sync_cfg = base_config(HeterogeneityProfile::default(), FaultConfig::default());
    sync_cfg.execution = ExecutionMode::BulkSynchronous;
    let sync = run_full_sharing(sync_cfg, 6);
    let event = run_full_sharing(
        base_config(HeterogeneityProfile::default(), degenerate_faults()),
        6,
    );
    assert_eq!(sync.rounds_run, event.rounds_run);
    assert_eq!(sync.total_traffic, event.total_traffic);
    assert_eq!(sync.records.len(), event.records.len());
    for (s, e) in sync.records.iter().zip(&event.records) {
        assert_eq!(s.round, e.round);
        assert_eq!(s.train_loss.to_bits(), e.train_loss.to_bits());
        assert_eq!(s.test_loss.to_bits(), e.test_loss.to_bits());
        assert_eq!(s.test_accuracy.to_bits(), e.test_accuracy.to_bits());
        assert_eq!(s.cum_bytes_per_node, e.cum_bytes_per_node);
        assert_eq!(e.mean_staleness_s, 0.0);
        assert_eq!(e.crashes, 0);
        assert_eq!(e.messages_expired, 0);
        assert_eq!(e.downweight_mass, 0.0);
    }
}

#[test]
fn correlated_mid_round_crashes_kill_messages_and_rejoin() {
    let faults = FaultConfig {
        plan: FaultPlan::CorrelatedOutage {
            fraction: 0.25,
            at_s: 2.5, // mid-round for both fast (1 s) and slow (4 s) nodes
            down_s: 3.0,
            rejoin: RejoinMode::Warm,
        },
        staleness: StalenessPolicy::default(),
    };
    let run = || run_full_sharing(base_config(straggler_profile(), faults.clone()), 8);
    let a = run();
    // All rounds still complete: crashed nodes abandon their round in
    // progress and resume after recovery.
    assert_eq!(a.rounds_run, 8);
    let last = a.final_record().unwrap();
    assert_eq!(last.crashes, 2, "a quarter of 8 nodes crash");
    assert_eq!(last.rejoins, 2);
    // Deliveries to (or from) dead nodes are destroyed and metered as drops.
    assert!(
        a.total_traffic.messages_dropped > 0,
        "crashes must kill in-flight messages"
    );
    assert!(
        a.total_traffic.bytes_received < a.total_traffic.bytes_sent,
        "kills must show up as a sent/received gap"
    );
    // The cluster still trains through the outage.
    assert!(last.test_accuracy > 0.25, "accuracy {}", last.test_accuracy);
    // Fault injection is a pure function of the seed.
    let b = run();
    assert_bitwise_equal(&a, &b);
}

#[test]
fn warm_and_resync_rejoins_diverge() {
    let faults = |rejoin: RejoinMode| FaultConfig {
        plan: FaultPlan::Scripted(vec![FaultOutage {
            node: 3,
            at_s: 2.2,
            down_s: 2.0,
            rejoin,
        }]),
        staleness: StalenessPolicy::default(),
    };
    let warm = run_full_sharing(
        base_config(straggler_profile(), faults(RejoinMode::Warm)),
        8,
    );
    let resync = run_full_sharing(
        base_config(straggler_profile(), faults(RejoinMode::Resync)),
        8,
    );
    assert_eq!(warm.rounds_run, 8);
    assert_eq!(resync.rounds_run, 8);
    assert_eq!(warm.final_record().unwrap().rejoins, 1);
    // A re-synced node restarts from a peer's model instead of its own, so
    // the trajectories must differ.
    let diverged = warm
        .records
        .iter()
        .zip(&resync.records)
        .any(|(w, r)| w.test_loss.to_bits() != r.test_loss.to_bits());
    assert!(diverged, "rejoin mode must affect the trajectory");
}

/// Uniform compute over slow links: every node's `TrainDone` fires at
/// t = 1.0 but its `Mix` only after the serialized transfers, so a crash at
/// t = 1.1 lands between the round's send and its mix. The `Warm` rejoin
/// (the `FaultOutage` default) keeps the node's parameters; its strategy
/// restarts, or the next round's `make_*` finds the abandoned one open.
#[test]
fn warm_rejoin_after_a_mid_round_crash_resumes_cleanly() {
    type Factory = fn(usize) -> Box<dyn ShareStrategy>;
    let strategies: [(&str, Factory); 5] = [
        ("full sharing", |_| Box::new(FullSharing::new())),
        ("jwins", |node| {
            Box::new(Jwins::new(JwinsConfig::paper_default(), 100 + node as u64))
        }),
        ("choco", |_| {
            Box::new(ChocoSgd::new(ChocoConfig::budget_20()))
        }),
        ("random sampling", |_| {
            Box::new(RandomSampling::new(0.37, 42))
        }),
        ("random walk", |node| {
            Box::new(RandomModelWalk::new(300 + node as u64))
        }),
    ];
    let mut aborted = Vec::new();
    for (name, strategy) in strategies {
        let data = cifar_like(&ImageConfig::tiny(), 4, 2, 5);
        let mut cfg = TrainConfig::quick_test();
        cfg.rounds = 6;
        cfg.lr = 0.1;
        cfg.eval_every = 0;
        cfg.execution = ExecutionMode::EventDriven;
        cfg.time_model.compute_s = 1.0;
        cfg.heterogeneity = HeterogeneityProfile {
            compute: ComputeProfile::Uniform,
            links: LinkProfile::Uniform {
                latency_s: 0.02,
                bandwidth_bps: 1_000.0,
            },
        };
        cfg.faults = FaultConfig {
            plan: FaultPlan::Scripted(vec![FaultOutage::new(1, 1.1, 2.0)]),
            ..FaultConfig::default()
        };
        let sink = MemorySink::new();
        let run = Trainer::builder(cfg)
            .topology(StaticTopology::random_regular(4, 2, 3).unwrap())
            .test_set(data.test)
            .trace_sink(Box::new(sink.clone()))
            .nodes(data.node_train, |node| {
                (mlp_classifier(2 * 8 * 8, &[8], 4, 7), strategy(node))
            })
            .build()
            .unwrap()
            .run();
        let result = match run {
            Ok(result) => result,
            Err(e) => {
                aborted.push(format!("{name}: {e}"));
                continue;
            }
        };
        assert_eq!(result.rounds_run, 6, "{name}");
        let last = result.records.last().unwrap();
        assert_eq!((last.crashes, last.rejoins), (1, 1), "{name}");
        assert!(last.test_accuracy.is_finite(), "{name}");
        // Not vacuous: node 1 sent round 0, then abandoned it.
        let node_round = |e: &TraceEvent| match *e {
            TraceEvent::Train { node, round, .. }
            | TraceEvent::RoundAbandon { node, round, .. } => Some((e.kind_name(), node, round)),
            _ => None,
        };
        let round_0: Vec<_> = (sink.events().iter().filter_map(node_round))
            .filter(|&(_, node, round)| (node, round) == (1, 0))
            .map(|(kind, ..)| kind)
            .collect();
        assert_eq!(round_0, ["Train", "RoundAbandon"], "{name}");
    }
    assert!(
        aborted.is_empty(),
        "warm rejoins aborted runs: {aborted:#?}"
    );
}

#[test]
fn permanent_crash_ends_with_a_final_checkpoint() {
    let faults = FaultConfig {
        plan: FaultPlan::Scripted(vec![FaultOutage::new(2, 1.5, f64::INFINITY)]),
        staleness: StalenessPolicy::default(),
    };
    let result = run_full_sharing(base_config(straggler_profile(), faults), 6);
    // Rounds beyond the dead node's abandonment never complete
    // cluster-wide...
    assert!(result.rounds_run < 6, "rounds_run {}", result.rounds_run);
    // ...but the run still terminates and closes with a checkpoint record
    // reflecting the surviving nodes' trained models.
    let last = result.records.last().expect("a final record");
    assert!(last.checkpoint, "tail record must be a checkpoint");
    assert_eq!(last.crashes, 1);
    assert_eq!(last.rejoins, 0);
    assert!(last.sim_time_s > 0.0);
    // Peers kept transmitting to the dead host; those deliveries are
    // destroyed (there is no recovery to purge them, so the engine does it
    // at the end of the run) and the accounting must show it.
    assert!(
        result.total_traffic.messages_dropped > 0,
        "deliveries to a permanently dead host must be metered as drops"
    );
    assert!(
        result.total_traffic.bytes_received < result.total_traffic.bytes_sent,
        "kills must show up as a sent/received gap"
    );
}

#[test]
fn eval_checkpoints_stop_when_training_ends() {
    // A fault event far beyond the end of training keeps the event queue
    // non-empty for 1000 virtual seconds; the checkpoint cadence must stop
    // with the last training event instead of ticking into that void.
    let faults = FaultConfig {
        plan: FaultPlan::Scripted(vec![FaultOutage::new(1, 1000.0, 5.0)]),
        staleness: StalenessPolicy::default(),
    };
    let mut cfg = base_config(straggler_profile(), faults);
    cfg.eval_interval_s = Some(1.0);
    let result = run_full_sharing(cfg, 6);
    assert_eq!(result.rounds_run, 8);
    let last_round_eval_time = result
        .round_records()
        .last()
        .expect("round evaluations exist")
        .sim_time_s;
    // Training ends around 8 straggler rounds (~32 s + transfers); every
    // checkpoint must sit within one interval of it, not at t≈1000.
    for cp in result.checkpoints() {
        assert!(
            cp.sim_time_s <= last_round_eval_time + 1.0,
            "checkpoint at {} s outlived training ({} s)",
            cp.sim_time_s,
            last_round_eval_time
        );
    }
    assert!(
        result.checkpoints().count() < 60,
        "cadence must not tick until the stray fault event"
    );
}

#[test]
fn ttl_expiry_is_metered_separately_from_drops() {
    // Thin links leave messages in flight long enough to outlive a tight
    // TTL; no lossy links and no faults, so every loss is a staleness loss.
    let slow_links = HeterogeneityProfile {
        compute: ComputeProfile::Uniform,
        links: LinkProfile::Uniform {
            latency_s: 0.02,
            bandwidth_bps: 64_000.0,
        },
    };
    let faults = FaultConfig {
        plan: FaultPlan::None,
        staleness: StalenessPolicy {
            ttl_s: Some(0.5),
            ..StalenessPolicy::default()
        },
    };
    let result = run_full_sharing(base_config(slow_links, faults), 6);
    assert_eq!(result.rounds_run, 8);
    assert!(
        result.total_traffic.messages_expired > 0,
        "tight TTL must expire in-flight messages"
    );
    assert_eq!(
        result.total_traffic.messages_dropped, 0,
        "TTL losses must not masquerade as link drops"
    );
    let last = result.final_record().unwrap();
    assert_eq!(last.messages_expired, result.total_traffic.messages_expired);
}

#[test]
fn decay_downweighting_moves_mass_to_self_weight() {
    let faults = FaultConfig {
        plan: FaultPlan::None,
        staleness: StalenessPolicy::decay_after_rounds(0, 0.7),
    };
    let result = run_full_sharing(base_config(straggler_profile(), faults), 8);
    assert_eq!(result.rounds_run, 8);
    let last = result.final_record().unwrap();
    assert!(
        last.downweight_mass > 0.0,
        "stragglers' stale messages must be down-weighted"
    );
    assert_eq!(
        last.messages_expired, 0,
        "decay keeps messages, it does not drop them"
    );
    assert!(last.test_accuracy > 0.25, "accuracy {}", last.test_accuracy);
}

/// A probe strategy that stamps every message with its round and records the
/// maximum round-age it was ever asked to mix.
#[derive(Debug)]
struct RoundStamp {
    max_mixed_age: Arc<AtomicUsize>,
}

impl ShareStrategy for RoundStamp {
    fn name(&self) -> &'static str {
        "round-stamp"
    }

    fn make_message(&mut self, round: usize, _params: &[f32]) -> jwins::Result<OutMessage> {
        Ok(OutMessage::new(
            (round as u64).to_le_bytes().to_vec(),
            ByteBreakdown {
                payload: 8,
                metadata: 0,
            },
        ))
    }

    fn aggregate(
        &mut self,
        round: usize,
        params: &[f32],
        _self_weight: f64,
        received: &[ReceivedMessage<'_>],
    ) -> jwins::Result<Vec<f32>> {
        for msg in received {
            let sent_round = u64::from_le_bytes(msg.bytes.try_into().expect("8-byte stamp"));
            let age = round.saturating_sub(sent_round as usize);
            self.max_mixed_age.fetch_max(age, Ordering::Relaxed);
        }
        Ok(params.to_vec())
    }
}

fn run_round_stamp(staleness: StalenessPolicy, rounds: usize) -> (RunResult, usize) {
    let nodes = 8;
    let data = cifar_like(&ImageConfig::tiny(), nodes, 2, 11);
    let mut cfg = base_config(
        straggler_profile(),
        FaultConfig {
            plan: FaultPlan::None,
            staleness,
        },
    );
    cfg.rounds = rounds;
    cfg.eval_every = 0;
    let max_mixed_age = Arc::new(AtomicUsize::new(0));
    let result = Trainer::builder(cfg)
        .topology(StaticTopology::random_regular(nodes, 2, 13).unwrap())
        .test_set(data.test)
        .nodes(data.node_train, |_| {
            (
                mlp_classifier(2 * 8 * 8, &[8], 4, 7),
                Box::new(RoundStamp {
                    max_mixed_age: Arc::clone(&max_mixed_age),
                }) as Box<dyn ShareStrategy>,
            )
        })
        .build()
        .unwrap()
        .run()
        .unwrap();
    (result, max_mixed_age.load(Ordering::Relaxed))
}

/// Satellite property, engine-level: with a cap of k rounds, *no* message
/// older than k rounds ever reaches a strategy's aggregate — while the same
/// cluster without the cap provably mixes much older ones.
#[test]
fn no_message_older_than_the_cap_is_ever_mixed() {
    const CAP: usize = 1;
    let (uncapped, max_age_uncapped) = run_round_stamp(StalenessPolicy::unbounded(), 12);
    assert!(
        max_age_uncapped > CAP,
        "stragglers must produce round-staleness beyond the cap \
         (saw max age {max_age_uncapped})"
    );
    assert_eq!(uncapped.total_traffic.messages_expired, 0);
    let (capped, max_age_capped) = run_round_stamp(StalenessPolicy::drop_after_rounds(CAP), 12);
    assert!(
        max_age_capped <= CAP,
        "cap violated: a message {max_age_capped} rounds old was mixed"
    );
    assert!(
        capped.total_traffic.messages_expired > 0,
        "the cap must actually have dropped something"
    );
}

#[test]
fn eval_checkpoints_fire_on_virtual_time() {
    let mut cfg = base_config(straggler_profile(), FaultConfig::default());
    cfg.eval_interval_s = Some(3.0);
    let result = run_full_sharing(cfg, 8);
    let checkpoints: Vec<_> = result.checkpoints().collect();
    assert!(!checkpoints.is_empty(), "interval must produce checkpoints");
    // Checkpoints land on the virtual clock, strictly increasing.
    for pair in checkpoints.windows(2) {
        assert!(pair[0].sim_time_s < pair[1].sim_time_s);
    }
    // Round-boundary evaluations still exist alongside them and the final
    // record is the last round's (checkpoints never outlive training).
    assert!(result.round_records().count() > 0);
    assert_eq!(result.rounds_run, 8);
    // Checkpoint cadence is heterogeneity-aware: the first checkpoint fires
    // before the 4x straggler's first round (4 s) completes the cluster
    // round, making fast nodes' progress visible mid-round.
    let first_round_eval = result
        .round_records()
        .next()
        .expect("at least one round eval");
    let first_checkpoint = checkpoints.first().unwrap();
    assert!(first_checkpoint.sim_time_s < first_round_eval.sim_time_s);
    // The run closes on the final round's record, not on a trailing tick
    // dated after training ended.
    let last = result.final_record().unwrap();
    assert!(!last.checkpoint, "final record must be the last round's");
    // Without an interval there are no checkpoints.
    let plain = run_full_sharing(base_config(straggler_profile(), FaultConfig::default()), 8);
    assert_eq!(plain.checkpoints().count(), 0);
}

#[test]
fn eval_checkpoints_survive_a_long_outage() {
    // Node 1 is down over [2, 42) s — long enough that every other node
    // drains its entire round budget first. The cadence must keep ticking
    // through the outage and cover the post-recovery phase where node 1
    // trains its remaining rounds alone.
    let faults = FaultConfig {
        plan: FaultPlan::Scripted(vec![FaultOutage::new(1, 2.0, 40.0)]),
        staleness: StalenessPolicy::default(),
    };
    let mut cfg = base_config(straggler_profile(), faults);
    cfg.eval_interval_s = Some(3.0);
    let result = run_full_sharing(cfg, 6);
    assert_eq!(result.rounds_run, 8, "training resumes after the outage");
    assert!(
        result.checkpoints().any(|cp| cp.sim_time_s > 40.0),
        "checkpoints must cover the post-recovery phase"
    );
    assert!(!result.final_record().unwrap().checkpoint);
}

/// The stragglers' timeline on 12 nodes: nodes 3, 6 and 7 take 4 s a round,
/// the rest 1 s, so the fast nodes pass their last round at ≈ 6 s while the
/// stragglers broadcast to them until ≈ 24 s. Fast node 0 (a neighbour of
/// stragglers 3 and 6) crashes after its last round and recovers; straggler
/// 3 crashes 3 ms after sending in its round 3, with its messages still on
/// the wire, and recovers; straggler 7 crashes in its last round and never
/// recovers. Repair re-wires around each outage, a tenth of the messages are
/// lost and a 3.5 s TTL expires the stragglers' oldest deliveries.
fn finished_node_config() -> TrainConfig {
    let mut cfg = base_config(
        straggler_profile(),
        FaultConfig {
            plan: FaultPlan::Scripted(vec![
                FaultOutage::new(0, 9.0, 4.0),
                FaultOutage::new(3, 16.036, 3.0),
                FaultOutage::new(7, 22.0, f64::INFINITY),
            ]),
            staleness: StalenessPolicy {
                ttl_s: Some(3.5),
                ..StalenessPolicy::default()
            },
        },
    );
    cfg.rounds = 6;
    cfg.message_loss = 0.1;
    cfg.repair = RepairPolicy::DegreePreserving;
    cfg
}

/// The traffic totals and the kills of [`finished_node_config`], pinned: a
/// node that has passed its last round keeps no message it will never read,
/// but the messages sent to it are still received, lost, expired and killed
/// exactly as before, on the sender's and the receiver's counters alike.
#[test]
fn finished_nodes_keep_the_traffic_accounting_of_a_full_run() {
    let sink = MemorySink::new();
    let data = cifar_like(&ImageConfig::tiny(), 12, 2, 11);
    let result = Trainer::builder(finished_node_config())
        .topology(StaticTopology::random_regular(12, 3, 5).unwrap())
        .trace_sink(Box::new(sink.clone()))
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
    assert_eq!(result.rounds_run, 6);
    assert_eq!(
        result.total_traffic,
        TrafficStats {
            bytes_sent: 780_462,
            bytes_received: 684_708,
            payload_sent: 780_038,
            metadata_sent: 424,
            messages_sent: 212,
            messages_dropped: 26,
            messages_expired: 8,
        }
    );
    let kills: Vec<(u64, u32, u64, KillReason)> = jwins_trace::replay::canonicalize(&sink.events())
        .into_iter()
        .filter_map(|event| match event {
            TraceEvent::MsgKill {
                t_ns,
                node,
                count,
                reason,
            } => Some((t_ns, node, count, reason)),
            _ => None,
        })
        .collect();
    assert_eq!(
        kills,
        [
            (9_000_000_000, 0, 2, KillReason::CrashInbox),
            (16_036_000_000, 3, 2, KillReason::CrashInbox),
            (16_036_000_000, 3, 2, KillReason::CrashInFlight),
            (16_036_000_000, 0, 1, KillReason::RepairEdge),
            (22_000_000_000, 2, 1, KillReason::RepairEdge),
            (22_000_000_000, 3, 1, KillReason::RepairEdge),
            (22_000_000_000, 9, 1, KillReason::RepairEdge),
        ]
    );
}
