//! The workspace contract, checked from the engine's side.
//!
//! A `Model` instance is a workspace: what it computes depends only on the
//! parameters loaded into it and the batch (see `jwins_nn::model::Model`),
//! and everything a node must remember lives in its flat vector. The engine
//! therefore keeps one instance per worker, not per node. These tests hand
//! it models that *forget* — every instance overwrites its own parameters
//! with NaN as soon as a compute call returns — and count how many distinct
//! instances are ever called.

use jwins::config::{ChannelTransportConfig, ExecutionMode, TrainConfig, TransportKind};
use jwins::engine::Trainer;
use jwins::metrics::RunResult;
use jwins::strategies::FullSharing;
use jwins::strategy::ShareStrategy;
use jwins_data::images::{cifar_like, ImageConfig};
use jwins_nn::model::{EvalMetrics, Model};
use jwins_nn::models::{mlp_classifier, ClassSample, ImageClassifier};
use jwins_sim::HeterogeneityProfile;
use jwins_topology::dynamic::StaticTopology;
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

const NODES: usize = 16;

/// The instance ids (= the node each was handed in for) ever called.
type Called = Arc<Mutex<BTreeSet<usize>>>;

/// Forwards to the wrapped model, registers itself when a compute call
/// reaches it, and scrubs its parameters after every one.
struct Forgetful {
    inner: ImageClassifier,
    id: usize,
    called: Called,
}

impl Forgetful {
    fn compute<R>(&mut self, call: impl FnOnce(&mut ImageClassifier) -> R) -> R {
        self.called
            .lock()
            .expect("no holder panics")
            .insert(self.id);
        let out = call(&mut self.inner);
        let scrub = vec![f32::NAN; self.inner.param_count()];
        self.inner.set_params(&scrub);
        out
    }
}

impl Model for Forgetful {
    type Sample = ClassSample;

    fn param_count(&self) -> usize {
        self.inner.param_count()
    }

    fn params(&self) -> Vec<f32> {
        self.inner.params()
    }

    fn set_params(&mut self, flat: &[f32]) {
        self.inner.set_params(flat);
    }

    fn loss_and_grad(&mut self, batch: &[ClassSample]) -> (f32, Vec<f32>) {
        self.compute(|model| model.loss_and_grad(batch))
    }

    fn evaluate(&mut self, batch: &[ClassSample]) -> EvalMetrics {
        self.compute(|model| model.evaluate(batch))
    }
}

fn config(execution: ExecutionMode, threads: usize) -> TrainConfig {
    let mut cfg = TrainConfig::quick_test();
    cfg.rounds = 4;
    cfg.local_steps = 2;
    cfg.lr = 0.1;
    cfg.eval_every = 2;
    cfg.threads = threads;
    cfg.execution = execution;
    if execution == ExecutionMode::EventDriven {
        cfg.time_model.compute_s = 1.0;
        // Two speed classes: wide batches, stale mixes, and an evaluation
        // that finds fast nodes a round ahead of slow ones.
        cfg.heterogeneity = HeterogeneityProfile::stragglers(0.25, 3.0, 0.002, 1.0e6);
    }
    cfg
}

/// Runs `cfg` on 16 nodes whose models come from `model(node)`.
fn run<M>(cfg: TrainConfig, mut model: impl FnMut(usize) -> M) -> RunResult
where
    M: Model<Sample = ClassSample> + 'static,
{
    let data = cifar_like(&ImageConfig::tiny(), NODES, 2, 5);
    Trainer::builder(cfg)
        .topology(StaticTopology::random_regular(NODES, 3, 3).unwrap())
        .test_set(data.test)
        .nodes(data.node_train, |node| {
            let strategy: Box<dyn ShareStrategy> = Box::new(FullSharing::new());
            (model(node), strategy)
        })
        .build()
        .unwrap()
        .run()
        .unwrap()
}

fn plain(_node: usize) -> ImageClassifier {
    mlp_classifier(2 * 8 * 8, &[8], 4, 7)
}

/// Runs `cfg` with forgetful models; returns the result and who was called.
fn forgetful_run(cfg: TrainConfig) -> (RunResult, BTreeSet<usize>) {
    let called = Called::default();
    let result = run(cfg, |node| Forgetful {
        inner: plain(node),
        id: node,
        called: Arc::clone(&called),
    });
    let called = called.lock().expect("the run is over").clone();
    (result, called)
}

#[test]
fn forgetful_models_change_nothing_and_at_most_one_per_thread_is_ever_called() {
    for execution in [ExecutionMode::BulkSynchronous, ExecutionMode::EventDriven] {
        let reference = run(config(execution, 1), plain);
        assert!(
            reference.records.iter().all(|r| r.test_loss.is_finite()),
            "{execution:?}: the reference run must train"
        );
        for threads in [1, 2, 8] {
            let (result, called) = forgetful_run(config(execution, threads));
            reference.assert_bit_identical(&result, &format!("{execution:?}, {threads} threads"));
            assert!(
                (1..=threads).contains(&called.len()),
                "{execution:?}, {threads} threads: instances {called:?} were called"
            );
        }
    }
}

#[test]
fn the_channel_backend_calls_exactly_one_instance_per_node_thread() {
    let mut cfg = config(ExecutionMode::BulkSynchronous, 2);
    cfg.transport = TransportKind::Channel(ChannelTransportConfig {
        mix_wait_ms: 2_000,
        poll_us: 100,
    });
    let (result, called) = forgetful_run(cfg);
    assert_eq!(result.rounds_run, 4);
    assert!(result.records.iter().all(|r| r.test_loss.is_finite()));
    assert_eq!(called, (0..NODES).collect::<BTreeSet<usize>>());
}
