//! PowerGossip under asynchronous gossip, faults and repair.
//!
//! The per-edge warm starts are round-versioned (see the edge-state
//! versioning contract on `jwins::strategy::ShareStrategy`), which makes
//! three guarantees testable at the engine level:
//!
//! 1. under a *degenerate* heterogeneity profile the event-driven engine
//!    reproduces the bulk-synchronous PowerGossip run bit-for-bit (modulo
//!    the substrates' different wall-clock models);
//! 2. under real heterogeneity *with* a fault plan and topology repair the
//!    run is bit-identical at `threads` ∈ {1, 2, 8};
//! 3. a dropped or expired half-handshake never panics and always converges
//!    back to the deterministic fresh planes (proptest), and the engine
//!    tells every survivor to forget a permanently crashed peer's edges.

use jwins::config::{ExecutionMode, TrainConfig};
use jwins::engine::Trainer;
use jwins::metrics::RunResult;
use jwins::strategies::{PowerGossip, PowerGossipConfig};
use jwins::strategy::{OutMessage, ReceivedMessage, ShareStrategy};
use jwins_data::images::{cifar_like, ImageConfig};
use jwins_fault::{FaultConfig, FaultOutage, FaultPlan, RejoinMode, StalenessPolicy};
use jwins_net::ByteBreakdown;
use jwins_nn::models::mlp_classifier;
use jwins_sim::HeterogeneityProfile;
use jwins_topology::dynamic::StaticTopology;
use jwins_topology::repair::RepairPolicy;
use std::sync::{Arc, Mutex};

const NODES: usize = 8;

fn power_gossip(node: usize) -> Box<dyn ShareStrategy> {
    Box::new(PowerGossip::new(PowerGossipConfig::global(1), node, 42))
}

fn run_degenerate(execution: ExecutionMode) -> RunResult {
    let data = cifar_like(&ImageConfig::tiny(), 6, 2, 11);
    let mut cfg = TrainConfig::quick_test();
    cfg.rounds = 8;
    cfg.lr = 0.1;
    cfg.eval_every = 2;
    cfg.execution = execution;
    cfg.heterogeneity = HeterogeneityProfile::default();
    Trainer::builder(cfg)
        .topology(StaticTopology::random_regular(6, 2, 13).unwrap())
        .test_set(data.test)
        .nodes(data.node_train, |node| {
            (mlp_classifier(2 * 8 * 8, &[8], 4, 7), power_gossip(node))
        })
        .build()
        .unwrap()
        .run()
        .unwrap()
}

#[test]
fn degenerate_profile_matches_sync_engine_bitwise() {
    let sync = run_degenerate(ExecutionMode::BulkSynchronous);
    let event = run_degenerate(ExecutionMode::EventDriven);
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
        assert_eq!(s.mean_alpha.to_bits(), e.mean_alpha.to_bits(), "alpha");
        assert_eq!(s.cum_bytes_per_node, e.cum_bytes_per_node);
        assert_eq!(s.cum_payload_per_node, e.cum_payload_per_node);
        assert_eq!(s.cum_metadata_per_node, e.cum_metadata_per_node);
        assert_eq!(e.mean_staleness_s, 0.0, "degenerate profile must be fresh");
        // sim_time_s intentionally differs: the barrier model charges
        // latency + max-bytes/bandwidth per round, the event clock charges
        // what its (here: instantaneous) links actually cost.
    }
    assert!(
        event.final_record().unwrap().test_accuracy > 0.25,
        "lockstep async PowerGossip still learns"
    );
}

/// One crash+resync rejoin, one permanent crash, a staleness cap,
/// stragglers and degree-preserving repair: the full chaos PowerGossip was
/// previously refused under, replayed at several thread counts.
fn run_chaos(threads: usize) -> RunResult {
    let data = cifar_like(&ImageConfig::tiny(), NODES, 2, 5);
    let mut cfg = TrainConfig::quick_test();
    cfg.rounds = 6;
    cfg.lr = 0.1;
    cfg.eval_every = 1;
    cfg.threads = threads;
    cfg.execution = ExecutionMode::EventDriven;
    cfg.time_model.compute_s = 1.0;
    cfg.heterogeneity = HeterogeneityProfile::stragglers(0.25, 3.0, 0.002, 1.0e6);
    cfg.faults = FaultConfig {
        plan: FaultPlan::Scripted(vec![
            FaultOutage {
                rejoin: RejoinMode::Resync,
                ..FaultOutage::new(1, 2.5, 3.0)
            },
            FaultOutage::new(3, 7.5, f64::INFINITY),
        ]),
        staleness: StalenessPolicy::drop_after_rounds(2),
    };
    cfg.repair = RepairPolicy::DegreePreserving;
    Trainer::builder(cfg)
        .topology(StaticTopology::random_regular(NODES, 3, 3).unwrap())
        .test_set(data.test)
        .nodes(data.node_train, |node| {
            (mlp_classifier(2 * 8 * 8, &[8], 4, 7), power_gossip(node))
        })
        .build()
        .unwrap()
        .run()
        .unwrap()
}

#[test]
fn chaos_run_is_identical_at_1_2_and_8_threads() {
    let t1 = run_chaos(1);
    let t2 = run_chaos(2);
    let t8 = run_chaos(8);
    // The workload must be non-degenerate, or the comparison proves little.
    let last = t1.records.last().expect("records recorded");
    assert!(last.crashes >= 2, "crashes replayed: {}", last.crashes);
    assert!(last.rejoins >= 1, "rejoins replayed: {}", last.rejoins);
    assert!(last.edges_rewired > 0, "repair actually rewired");
    assert!(
        t1.records.iter().any(|r| r.mean_staleness_s > 0.0),
        "stale mixes observed"
    );
    assert!(
        t1.records
            .iter()
            .all(|r| r.test_accuracy.is_finite() && r.train_loss.is_finite()),
        "no corrupted per-edge state may leak into the metrics"
    );
    t1.assert_bit_identical(&t2, "power-gossip chaos threads 1 vs 2");
    t1.assert_bit_identical(&t8, "power-gossip chaos threads 1 vs 8");
}

/// A probe that records which peers the engine told it to forget.
#[derive(Debug)]
struct ForgetProbe {
    node: usize,
    forgotten: Arc<Mutex<Vec<(usize, usize)>>>,
}

impl ShareStrategy for ForgetProbe {
    fn name(&self) -> &'static str {
        "forget-probe"
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
        _round: usize,
        params: &[f32],
        _self_weight: f64,
        _received: &[ReceivedMessage<'_>],
    ) -> jwins::Result<Vec<f32>> {
        Ok(params.to_vec())
    }

    fn forget_edge(&mut self, peer: usize) {
        self.forgotten.lock().unwrap().push((self.node, peer));
    }
}

#[test]
fn permanent_crash_makes_every_survivor_forget_the_peer() {
    let data = cifar_like(&ImageConfig::tiny(), 4, 2, 5);
    let mut cfg = TrainConfig::quick_test();
    cfg.rounds = 6;
    cfg.eval_every = 0;
    cfg.execution = ExecutionMode::EventDriven;
    cfg.time_model.compute_s = 1.0;
    cfg.faults = FaultConfig {
        plan: FaultPlan::Scripted(vec![FaultOutage::new(2, 2.5, f64::INFINITY)]),
        ..FaultConfig::default()
    };
    let forgotten = Arc::new(Mutex::new(Vec::new()));
    let result = Trainer::builder(cfg)
        .topology(StaticTopology::random_regular(4, 2, 3).unwrap())
        .test_set(data.test)
        .nodes(data.node_train, |node| {
            (
                mlp_classifier(2 * 8 * 8, &[8], 4, 7),
                Box::new(ForgetProbe {
                    node,
                    forgotten: Arc::clone(&forgotten),
                }) as Box<dyn ShareStrategy>,
            )
        })
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert!(result.records.last().is_some_and(|r| r.crashes == 1));
    let seen = forgotten.lock().unwrap().clone();
    for survivor in [0usize, 1, 3] {
        assert!(
            seen.contains(&(survivor, 2)),
            "survivor {survivor} was never told to forget the dead peer: {seen:?}"
        );
    }
    assert!(
        !seen.iter().any(|&(node, _)| node == 2),
        "the dead node itself is not asked to forget"
    );
}

#[test]
fn warm_rejoin_after_a_mid_round_crash_resumes_cleanly() {
    // Uniform compute over slow links: every node's TrainDone fires at
    // t=1.0 but its Mix only after the serialized transfers, so a crash at
    // t=1.1 is guaranteed to land *between* make_outbound and aggregate —
    // the round is abandoned with the strategy's half-open state. The Warm
    // rejoin (the `FaultOutage` default) keeps that state, and the next
    // round's make_outbound must treat the stale pending round as an
    // abandoned handshake rather than a protocol violation that aborts the
    // whole run.
    use jwins_sim::{ComputeProfile, LinkProfile};
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
    let result = Trainer::builder(cfg)
        .topology(StaticTopology::random_regular(4, 2, 3).unwrap())
        .test_set(data.test)
        .nodes(data.node_train, |node| {
            (mlp_classifier(2 * 8 * 8, &[8], 4, 7), power_gossip(node))
        })
        .build()
        .unwrap()
        .run()
        .expect("a warm rejoin after a mid-round crash must not abort the run");
    assert_eq!(result.rounds_run, 6);
    let last = result.records.last().unwrap();
    assert_eq!(last.crashes, 1);
    assert_eq!(last.rejoins, 1);
    assert!(last.test_accuracy.is_finite());
}

mod half_handshake_faults {
    //! Strategy-level proptest: arbitrary per-direction message drops never
    //! panic, and a full blackout always converges back to the fresh
    //! planes, from which the edge re-pairs cleanly.

    use jwins::strategies::{PowerGossip, PowerGossipConfig, FRESH_VERSION, HISTORY_WINDOW};
    use jwins::strategy::{OutMessage, Outbound, ReceivedMessage, ShareStrategy};
    use proptest::prelude::*;

    fn params(dim: usize, phase: f32) -> Vec<f32> {
        (0..dim).map(|i| (i as f32 * 0.17 + phase).sin()).collect()
    }

    fn halves(
        a: &mut PowerGossip,
        b: &mut PowerGossip,
        round: usize,
        xa: &[f32],
        xb: &[f32],
    ) -> (OutMessage, OutMessage) {
        let Outbound::PerEdge(mut va) = a.make_outbound(round, xa, &[1]).unwrap() else {
            panic!("per-edge")
        };
        let Outbound::PerEdge(mut vb) = b.make_outbound(round, xb, &[0]).unwrap() else {
            panic!("per-edge")
        };
        (va.remove(0).unwrap(), vb.remove(0).unwrap())
    }

    fn aggregate_one(
        node: &mut PowerGossip,
        round: usize,
        x: &[f32],
        from: usize,
        msg: Option<&OutMessage>,
    ) -> Vec<f32> {
        let received: Vec<ReceivedMessage<'_>> = msg
            .iter()
            .map(|m| ReceivedMessage {
                from,
                round,
                weight: 0.5,
                edge_weight: 0.5,
                bytes: &m.bytes,
                decoded: None,
            })
            .collect();
        node.aggregate(round, x, 0.5, &received).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn dropped_halves_never_panic_and_converge_back_to_fresh(
            drops in proptest::collection::vec((any::<bool>(), any::<bool>()), 1..20)
        ) {
            let config = PowerGossipConfig::global(1);
            let mut a = PowerGossip::new(config.clone(), 0, 7);
            let mut b = PowerGossip::new(config, 1, 7);
            let mut xa = params(49, 0.0);
            let mut xb = params(49, 0.9);
            a.init(&xa);
            b.init(&xb);
            let mut round = 0usize;
            // Arbitrary per-direction losses: whatever the pattern, no
            // panic and no non-finite parameter may ever appear.
            for &(deliver_ab, deliver_ba) in &drops {
                let (m_a, m_b) = halves(&mut a, &mut b, round, &xa, &xb);
                xa = aggregate_one(&mut a, round, &xa, 1, deliver_ba.then_some(&m_b));
                xb = aggregate_one(&mut b, round, &xb, 0, deliver_ab.then_some(&m_a));
                prop_assert!(xa.iter().chain(&xb).all(|v| v.is_finite()));
                round += 1;
            }
            // Full blackout past the history window: every outstanding
            // half-handshake expires and both sides must be back on the
            // deterministic fresh planes.
            for _ in 0..HISTORY_WINDOW + 1 {
                let _ = halves(&mut a, &mut b, round, &xa, &xb);
                xa = aggregate_one(&mut a, round, &xa, 1, None);
                xb = aggregate_one(&mut b, round, &xb, 0, None);
                round += 1;
            }
            prop_assert_eq!(a.edge_version(1), Some(FRESH_VERSION));
            prop_assert_eq!(b.edge_version(0), Some(FRESH_VERSION));
            // Connectivity returns: fresh pairs fresh and the warm chain
            // regrows in lockstep on both endpoints.
            for _ in 0..2 {
                let (m_a, m_b) = halves(&mut a, &mut b, round, &xa, &xb);
                xa = aggregate_one(&mut a, round, &xa, 1, Some(&m_b));
                xb = aggregate_one(&mut b, round, &xb, 0, Some(&m_a));
                round += 1;
            }
            prop_assert_eq!(a.edge_version(1), Some(2));
            prop_assert_eq!(b.edge_version(0), Some(2));
            prop_assert!(xa.iter().chain(&xb).all(|v| v.is_finite()));
        }
    }
}
