//! Thread-count invariance of the parallel event-driven engine.
//!
//! The engine executes independent simultaneous events on a worker pool and
//! commits their side effects in the event queue's seeded pop order (see the
//! module docs of `jwins::engine`). The contract is that `TrainConfig::
//! threads` may not change *any* observable output, bit for bit — not the
//! losses, not the virtual clock, not the fault or staleness telemetry.
//! These tests replay one fault + bounded-staleness CIFAR workload at
//! `threads` ∈ {1, 2, 8} and compare the full `RoundRecord` streams.

use jwins::config::{ExecutionMode, TrainConfig};
use jwins::engine::Trainer;
use jwins::metrics::RunResult;
use jwins::strategies::{FullSharing, Jwins, JwinsConfig};
use jwins::strategy::{OutMessage, Outbound, ReceivedMessage, ShareStrategy};
use jwins_data::images::{cifar_like, ImageConfig};
use jwins_fault::{FaultConfig, FaultOutage, FaultPlan, RejoinMode, StalenessPolicy};
use jwins_nn::models::mlp_classifier;
use jwins_sim::HeterogeneityProfile;
use jwins_topology::dynamic::StaticTopology;
use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

const NODES: usize = 8;

/// An event-driven run with stragglers.
fn straggler_config(threads: usize) -> TrainConfig {
    let mut cfg = TrainConfig::quick_test();
    cfg.rounds = 6;
    cfg.lr = 0.1;
    cfg.eval_every = 1;
    cfg.threads = threads;
    cfg.execution = ExecutionMode::EventDriven;
    cfg.time_model.compute_s = 1.0;
    // Two speed classes keep cohorts time-aligned, so batches are wide and
    // the parallel path is actually exercised (not just singleton batches).
    cfg.heterogeneity = HeterogeneityProfile::stragglers(0.25, 3.0, 0.002, 1.0e6);
    cfg
}

/// One crash+rejoin, one permanent crash, a staleness policy, stragglers
/// and mid-round checkpoints — every telemetry counter gets exercised.
fn chaos_config(threads: usize, staleness: StalenessPolicy) -> TrainConfig {
    let mut cfg = straggler_config(threads);
    cfg.faults = FaultConfig {
        plan: FaultPlan::Scripted(vec![
            FaultOutage {
                rejoin: RejoinMode::Resync,
                ..FaultOutage::new(1, 2.5, 3.0)
            },
            // Never recovers: exercises the trailing-checkpoint close-out.
            FaultOutage::new(3, 7.5, f64::INFINITY),
        ]),
        staleness,
    };
    cfg.eval_interval_s = Some(1.5);
    cfg
}

fn run(threads: usize, staleness: StalenessPolicy, sparsify: bool) -> RunResult {
    let data = cifar_like(&ImageConfig::tiny(), NODES, 2, 5);
    Trainer::builder(chaos_config(threads, staleness))
        .topology(StaticTopology::random_regular(NODES, 3, 3).unwrap())
        .test_set(data.test)
        .nodes(data.node_train, |node| {
            let strategy: Box<dyn ShareStrategy> = if sparsify {
                Box::new(Jwins::new(JwinsConfig::paper_default(), 100 + node as u64))
            } else {
                Box::new(FullSharing::new())
            };
            (mlp_classifier(2 * 8 * 8, &[8], 4, 7), strategy)
        })
        .build()
        .unwrap()
        .run()
        .unwrap()
}

#[test]
fn fault_staleness_run_is_identical_at_1_2_and_8_threads() {
    let staleness = StalenessPolicy::drop_after_rounds(1);
    let t1 = run(1, staleness, false);
    let t2 = run(2, staleness, false);
    let t8 = run(8, staleness, false);
    // The workload must be non-degenerate, or the comparison proves little.
    let last = t1.records.last().expect("records recorded");
    assert!(last.crashes >= 2, "crashes replayed: {}", last.crashes);
    assert!(last.rejoins >= 1, "rejoins replayed: {}", last.rejoins);
    assert!(
        t1.records.iter().any(|r| r.checkpoint),
        "virtual-time checkpoints fired"
    );
    assert!(
        t1.records.iter().any(|r| r.mean_staleness_s > 0.0),
        "stale mixes observed"
    );
    t1.assert_bit_identical(&t2, "threads 1 vs 2");
    t1.assert_bit_identical(&t8, "threads 1 vs 8");
}

#[test]
fn decayed_staleness_and_sparsification_are_thread_invariant() {
    // Exponential down-weighting exercises the float-ordered commit of
    // absorbed mixing mass; JWINS exercises codec round-trips per message.
    let staleness = StalenessPolicy::decay_after_rounds(1, 0.5);
    let t1 = run(1, staleness, true);
    let t8 = run(8, staleness, true);
    assert!(
        t1.records.last().is_some_and(|r| r.downweight_mass > 0.0),
        "decay policy absorbed mass into self-weights"
    );
    t1.assert_bit_identical(&t8, "decay+jwins threads 1 vs 8");
}

/// Records which OS threads ever ran a node's share path.
struct ThreadSpy {
    inner: Box<dyn ShareStrategy>,
    seen: Arc<Mutex<HashSet<ThreadId>>>,
}

impl ThreadSpy {
    fn note(&self) {
        self.seen
            .lock()
            .expect("no spy panics under the lock")
            .insert(std::thread::current().id());
    }
}

impl ShareStrategy for ThreadSpy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn init(&mut self, params: &[f32]) {
        self.inner.init(params);
    }

    fn make_message(&mut self, round: usize, params: &[f32]) -> jwins::Result<OutMessage> {
        self.inner.make_message(round, params)
    }

    fn make_outbound(
        &mut self,
        round: usize,
        params: &[f32],
        neighbors: &[usize],
    ) -> jwins::Result<Outbound> {
        self.note();
        self.inner.make_outbound(round, params, neighbors)
    }

    fn aggregate(
        &mut self,
        round: usize,
        params: &[f32],
        self_weight: f64,
        received: &[ReceivedMessage<'_>],
    ) -> jwins::Result<Vec<f32>> {
        self.note();
        self.inner.aggregate(round, params, self_weight, received)
    }

    fn last_alpha(&self) -> f64 {
        self.inner.last_alpha()
    }
}

/// A 64-node event-driven straggler run; returns the result and every
/// thread that executed `make_outbound` or `aggregate`.
fn spied_run(threads: usize) -> (RunResult, HashSet<ThreadId>) {
    const SPIED_NODES: usize = 64;
    let images = ImageConfig {
        train_per_unit: 64,
        ..ImageConfig::tiny()
    };
    let data = cifar_like(&images, SPIED_NODES, 2, 5);
    let seen = Arc::new(Mutex::new(HashSet::new()));
    let result = Trainer::builder(straggler_config(threads))
        .topology(StaticTopology::random_regular(SPIED_NODES, 4, 3).unwrap())
        .test_set(data.test)
        .nodes(data.node_train, |_| {
            let spy = ThreadSpy {
                inner: Box::new(FullSharing::new()),
                seen: Arc::clone(&seen),
            };
            (
                mlp_classifier(2 * 8 * 8, &[8], 4, 7),
                Box::new(spy) as Box<dyn ShareStrategy>,
            )
        })
        .build()
        .unwrap()
        .run()
        .unwrap();
    let seen = seen.lock().unwrap().clone();
    (result, seen)
}

#[test]
fn workers_are_resident_for_the_whole_run() {
    // One thread asked for: everything runs on the thread that called
    // `run()`. Two asked for: that thread plus one helper that outlives
    // every batch — a dispatcher that spawned per batch would show a fresh
    // thread id for each of the run's hundreds of dispatches.
    let (t1, seen1) = spied_run(1);
    assert_eq!(
        seen1,
        HashSet::from([std::thread::current().id()]),
        "threads = 1 never leaves the caller"
    );
    let (t2, seen2) = spied_run(2);
    assert!(
        seen2.len() <= 2,
        "threads = 2 ran node work on {} distinct threads",
        seen2.len()
    );
    t1.assert_bit_identical(&t2, "spied threads 1 vs 2");
}
