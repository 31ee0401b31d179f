//! The four workloads: what they are, why they exist, and how their inputs
//! are generated from `--seed`.
//!
//! `--seed` generates the *inputs* — dataset, partition, communication
//! graph and the initial model. The engine's own master seed (batch order,
//! straggler assignment, queue tie-breaks) and the per-node cut-off seeds
//! are constants of the workload, like the learning rate: with them fixed,
//! the α draws repeat across seeds, so `bytes_per_node` and `sim_time_s`
//! move only with what the codecs make of the data and stay a tight guard
//! that a host-time gain did not change what is simulated.

use jwins::config::{ExecutionMode, TrainConfig};
use jwins::engine::Trainer;
use jwins::strategies::{FullSharing, Jwins, JwinsConfig};
use jwins::strategy::ShareStrategy;
use jwins::JwinsError;
use jwins_data::images::{cifar_like, ImageConfig};
use jwins_nn::init::sub_seed;
use jwins_nn::model::Model;
use jwins_nn::models::{gn_lenet, mlp_classifier, ClassSample, ImageClassifier};
use jwins_sim::{HeterogeneityProfile, Ordering};
use jwins_topology::dynamic::{StaticTopology, TopologyProvider};
use jwins_topology::gen::random_regular;
use jwins_topology::Graph;
use jwins_trace::TraceSink;

/// Every workload gossips on a 4-regular graph.
pub const DEGREE: usize = 4;
/// The engine's master seed — a constant of every workload (see the module
/// docs for why `--seed` does not reach it).
const ENGINE_SEED: u64 = 42;
/// Node `i` draws its cut-offs from `CUTOFF_SEED_BASE + i`.
const CUTOFF_SEED_BASE: u64 = 1000;

/// The dataset a workload trains on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Data {
    /// `ImageConfig::cifar_small()` at `noise = 2.5`, 2-shard non-IID. At
    /// the default noise of 0.6 every model reaches accuracy 1.000 and the
    /// metric can show no regression.
    CifarNoisy,
    /// `ImageConfig::tiny()` cut to one 4×4 channel: 16 per-node templates
    /// of 2 samples each, cycled over the nodes, so data generation is O(1)
    /// in the node count and a sample is 16 floats.
    TinyTemplates,
}

/// The model every node trains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Net {
    /// GN-LeNet of the given width on 3×12×12 inputs.
    LeNet { width: usize },
    /// One-hidden-layer MLP over the flattened image.
    Mlp { hidden: usize },
}

/// The sharing strategy every node runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Share {
    /// `JwinsConfig::paper_default()`.
    Jwins,
    /// `FullSharing` (D-PSGD).
    Full,
}

/// One workload's fixed configuration.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// Why the workload exists (one line; also printed in `BENCHMARK.json`).
    pub why: &'static str,
    pub nodes: usize,
    pub data: Data,
    pub net: Net,
    pub share: Share,
    /// `Some(shards)` runs event-driven under the straggler profile.
    pub event_shards: Option<usize>,
    pub rounds: usize,
    pub local_steps: usize,
    pub batch: usize,
    pub lr: f32,
    /// Evaluations spread evenly over the run (the last one is final).
    pub evaluations: usize,
    pub eval_samples: usize,
    /// Every run's final accuracy must reach this (three times chance on
    /// the ten-class data; `None` where 16 test samples decide nothing).
    pub accuracy_floor: Option<f64>,
}

/// The benchmark's workloads, in reporting order.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "lenet_sync",
        why: "small conv model on the barrier driver: SGD and evaluation dominate, the share path is nearly absent",
        nodes: 16,
        data: Data::CifarNoisy,
        net: Net::LeNet { width: 8 },
        share: Share::Jwins,
        event_shards: None,
        rounds: 50,
        local_steps: 2,
        batch: 8,
        lr: 0.08,
        evaluations: 5,
        eval_samples: 256,
        accuracy_floor: Some(0.3),
    },
    Spec {
        name: "mlp_jwins",
        why: "large flat model with JWINS: wavelet, top-k, sparse codec and sparse averaging do most of the work",
        nodes: 8,
        data: Data::CifarNoisy,
        net: Net::Mlp { hidden: 256 },
        share: Share::Jwins,
        event_shards: None,
        rounds: 44,
        local_steps: 2,
        batch: 8,
        lr: 0.08,
        evaluations: 4,
        eval_samples: 256,
        accuracy_floor: Some(0.3),
    },
    Spec {
        name: "mlp_full_async",
        why: "same model, full sharing on the event engine with stragglers: dense codec, dense averaging, ordered commit",
        nodes: 8,
        data: Data::CifarNoisy,
        net: Net::Mlp { hidden: 256 },
        share: Share::Full,
        event_shards: Some(0),
        rounds: 16,
        local_steps: 2,
        batch: 8,
        lr: 0.08,
        evaluations: 2,
        eval_samples: 256,
        accuracy_floor: Some(0.3),
    },
    Spec {
        name: "event_scale",
        why: "16384 nodes with negligible math: event queue, simulated network, arena and sequential commit dominate",
        nodes: 16384,
        data: Data::TinyTemplates,
        net: Net::Mlp { hidden: 1 },
        share: Share::Full,
        event_shards: Some(256),
        rounds: 16,
        local_steps: 1,
        batch: 2,
        lr: 0.05,
        evaluations: 1,
        eval_samples: 16,
        accuracy_floor: None,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Spec {
    fn image_config(&self) -> ImageConfig {
        match self.data {
            Data::CifarNoisy => ImageConfig {
                noise: 2.5,
                ..ImageConfig::cifar_small()
            },
            Data::TinyTemplates => ImageConfig {
                channels: 1,
                height: 4,
                width: 4,
                ..ImageConfig::tiny()
            },
        }
    }

    /// A fresh model with initial weights drawn from `seed`.
    pub fn model(&self, seed: u64) -> ImageClassifier {
        let img = self.image_config();
        match self.net {
            Net::LeNet { width } => gn_lenet(
                img.channels,
                img.height,
                img.width,
                img.classes,
                width,
                seed,
            ),
            Net::Mlp { hidden } => mlp_classifier(img.pixels(), &[hidden], img.classes, seed),
        }
    }

    /// Node `node`'s sharing strategy.
    pub fn strategy(&self, node: usize) -> Box<dyn ShareStrategy> {
        match self.share {
            Share::Jwins => Box::new(Jwins::new(
                JwinsConfig::paper_default(),
                CUTOFF_SEED_BASE + node as u64,
            )),
            Share::Full => Box::new(FullSharing::new()),
        }
    }

    /// The straggler profile of the event-driven workloads: a quarter of the
    /// nodes compute 4× slower; 100 Mbit/s links with 5 ms latency.
    pub fn stragglers() -> HeterogeneityProfile {
        HeterogeneityProfile::stragglers(0.25, 4.0, 0.005, 12.5e6)
    }

    /// The engine configuration. `threads = 0` (all cores) is the engine's
    /// default and what the end-to-end numbers are reported at.
    pub fn config(&self) -> TrainConfig {
        let mut cfg = TrainConfig::new(self.rounds);
        cfg.seed = ENGINE_SEED;
        cfg.local_steps = self.local_steps;
        cfg.batch_size = self.batch;
        cfg.lr = self.lr;
        cfg.eval_every = self.rounds / self.evaluations;
        cfg.eval_test_samples = self.eval_samples;
        cfg.threads = 0;
        if let Some(shards) = self.event_shards {
            cfg.execution = ExecutionMode::EventDriven;
            cfg.heterogeneity = Self::stragglers();
            cfg.shards = shards;
            cfg.ordering = Ordering::Strict;
        }
        cfg
    }

    /// Queue events of one run: every node schedules `StartRound`,
    /// `TrainDone` and `Mix` once per round (0 on the barrier driver).
    pub fn queue_events(&self) -> u64 {
        match self.event_shards {
            Some(_) => 3 * self.nodes as u64 * self.rounds as u64,
            None => 0,
        }
    }
}

/// Everything the program under test receives: generated from `--seed`
/// alone, so the same seed gives the same inputs.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub node_train: Vec<Vec<ClassSample>>,
    pub test: Vec<ClassSample>,
    pub graph: Graph,
    /// Seed of the cluster-wide initial model.
    pub model_seed: u64,
}

/// Seed of the cluster-wide initial model for `--seed`.
pub fn model_seed(seed: u64) -> u64 {
    sub_seed(seed, 3)
}

/// Generates a workload's inputs — a pure function of `(spec, seed)`.
///
/// # Panics
///
/// Panics if the workload's `(nodes, DEGREE)` pair admits no regular graph,
/// which no entry of [`WORKLOADS`] does.
pub fn generate(spec: &Spec, seed: u64) -> Inputs {
    let img = spec.image_config();
    let (node_train, test) = match spec.data {
        Data::CifarNoisy => {
            let data = cifar_like(&img, spec.nodes, 2, sub_seed(seed, 1));
            (data.node_train, data.test)
        }
        Data::TinyTemplates => {
            const TEMPLATES: usize = 16;
            let data = cifar_like(&img, TEMPLATES, 2, sub_seed(seed, 1));
            let train = (0..spec.nodes)
                .map(|i| {
                    data.node_train[i % TEMPLATES]
                        .iter()
                        .take(spec.batch)
                        .cloned()
                        .collect()
                })
                .collect();
            (train, data.test)
        }
    };
    let graph = random_regular(spec.nodes, DEGREE, sub_seed(seed, 2))
        .expect("workload node counts admit a 4-regular graph");
    Inputs {
        node_train,
        test,
        graph,
        model_seed: model_seed(seed),
    }
}

/// Where a run may wrap the layers it hands to the engine. The timed runs
/// use [`Plain`]; the traced run substitutes timing decorators.
pub trait Hooks {
    type Model: Model<Sample = ClassSample> + 'static;
    type Topology: TopologyProvider + 'static;
    fn model(&mut self, node: usize, model: ImageClassifier) -> Self::Model;
    fn strategy(&mut self, node: usize, strategy: Box<dyn ShareStrategy>)
        -> Box<dyn ShareStrategy>;
    fn topology(&mut self, topology: StaticTopology) -> Self::Topology;
    fn sink(&mut self) -> Option<Box<dyn TraceSink>>;
}

/// No wrapping: the engine sees the layers as they are.
pub struct Plain;

impl Hooks for Plain {
    type Model = ImageClassifier;
    type Topology = StaticTopology;
    fn model(&mut self, _node: usize, model: ImageClassifier) -> ImageClassifier {
        model
    }
    fn strategy(
        &mut self,
        _node: usize,
        strategy: Box<dyn ShareStrategy>,
    ) -> Box<dyn ShareStrategy> {
        strategy
    }
    fn topology(&mut self, topology: StaticTopology) -> StaticTopology {
        topology
    }
    fn sink(&mut self) -> Option<Box<dyn TraceSink>> {
        None
    }
}

/// Set-up as `setup_s` times it: input generation from the seed, topology
/// (graph + Metropolis–Hastings weights) and `TrainerBuilder::build()`.
///
/// # Errors
///
/// Propagates the builder's configuration errors.
pub fn set_up<H: Hooks>(
    spec: &Spec,
    seed: u64,
    hooks: &mut H,
) -> Result<Trainer<H::Model>, JwinsError> {
    let inputs = generate(spec, seed);
    let model_seed = inputs.model_seed;
    let topology = hooks.topology(StaticTopology::new(inputs.graph));
    let mut builder = Trainer::builder(spec.config())
        .topology(topology)
        .test_set(inputs.test);
    if let Some(sink) = hooks.sink() {
        builder = builder.trace_sink(sink);
    }
    builder
        .nodes(inputs.node_train, |node| {
            (
                hooks.model(node, spec.model(model_seed)),
                hooks.strategy(node, spec.strategy(node)),
            )
        })
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(samples: &[ClassSample]) -> Vec<u32> {
        samples
            .iter()
            .flat_map(|(x, y)| x.iter().map(|v| v.to_bits()).chain([*y as u32]))
            .collect()
    }

    /// Train bits per node, test bits, edges, model seed.
    type Digest = (Vec<Vec<u32>>, Vec<u32>, Vec<(usize, usize)>, u64);

    fn digest(inputs: &Inputs) -> Digest {
        (
            inputs.node_train.iter().map(|s| bits(s)).collect(),
            bits(&inputs.test),
            inputs.graph.edges().collect(),
            inputs.model_seed,
        )
    }

    #[test]
    fn generation_is_a_pure_function_of_the_seed() {
        for spec in &WORKLOADS {
            let a = digest(&generate(spec, 42));
            let b = digest(&generate(spec, 42));
            let c = digest(&generate(spec, 43));
            assert_eq!(a, b, "{}: seed 42 twice", spec.name);
            assert_ne!(a.0, c.0, "{}: train data differs for seed 43", spec.name);
            assert_ne!(a.1, c.1, "{}: test data differs for seed 43", spec.name);
            assert_ne!(a.2, c.2, "{}: graph differs for seed 43", spec.name);
            assert_ne!(a.3, c.3, "{}: model seed differs for seed 43", spec.name);
        }
    }

    #[test]
    fn workload_shapes_match_the_catalogue() {
        let dims: Vec<usize> = WORKLOADS.iter().map(|w| w.model(1).param_count()).collect();
        assert_eq!(dims, [1570, 113_418, 113_418, 25]);
        for spec in &WORKLOADS {
            let inputs = generate(spec, 7);
            assert_eq!(inputs.node_train.len(), spec.nodes);
            assert!((0..spec.nodes).all(|v| inputs.graph.degree(v) == DEGREE));
            assert_eq!(spec.rounds % spec.evaluations, 0, "{}", spec.name);
            assert!(spec.config().validate().is_ok());
            assert!(find(spec.name).is_some());
        }
        assert_eq!(find("event_scale").map(Spec::queue_events), Some(786_432));
        assert!(find("nope").is_none());
    }
}
