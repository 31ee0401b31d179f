//! Shared harness for the per-figure/table benchmark targets.
//!
//! Every bench target in `benches/` regenerates one table or figure of the
//! JWINS evaluation (the README's Quickstart and Performance sections list
//! them). They share:
//!
//! - [`Scale`]: `small` (default, minutes), `medium`, `paper` (hours, the
//!   full 96–384-node configuration) — selected via `JWINS_SCALE`;
//! - workload constructors that build the five dataset analogues plus their
//!   models at the chosen scale;
//! - experiment runners wiring strategies into the engine;
//! - output helpers that print paper-style rows and persist CSV series under
//!   `target/experiments/`.

#![deny(unsafe_code)]

use jwins::config::TrainConfig;
use jwins::engine::Trainer;
use jwins::metrics::RunResult;
use jwins::strategies::{
    ChocoConfig, ChocoSgd, FullSharing, Jwins, JwinsConfig, PowerGossip, PowerGossipConfig,
    QuantizedSharing, RandomModelWalk, RandomSampling,
};
use jwins::strategy::ShareStrategy;
use jwins_data::images::{celeba_like, cifar_like, femnist_like, ImageConfig};
use jwins_data::ratings::{movielens_like, RatingConfig};
use jwins_data::text::{shakespeare_like, TextConfig};
use jwins_data::Partitioned;
use jwins_nn::model::Model;
use jwins_nn::models::{gn_lenet, leaf_cnn, CharLstm, MatrixFactorization};
use jwins_topology::dynamic::{DynamicRegular, StaticTopology};
use jwins_topology::peer_sampling::{PeerSampling, PeerSamplingConfig};

/// Experiment scale, from the `JWINS_SCALE` environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Laptop-friendly defaults (minutes for the whole suite).
    Small,
    /// Closer to the paper's shape (tens of minutes).
    Medium,
    /// The paper's node counts and round budgets (hours).
    Paper,
}

/// Whether `JWINS_SMOKE=1` requests the CI-sized reduced configuration:
/// benches shrink to a couple of minutes and examples to seconds, so CI
/// *runs* them instead of merely compiling them. Delegates to the single
/// definition of the smoke contract in [`jwins::smoke`].
pub use jwins::smoke;

impl Scale {
    /// Reads `JWINS_SCALE` (`small`/`medium`/`paper`; unset = `small`).
    ///
    /// # Panics
    ///
    /// Panics on any other value: a typo must not silently run `small`.
    pub fn from_env() -> Self {
        match std::env::var("JWINS_SCALE") {
            Ok(value) => Self::parse(&value)
                .unwrap_or_else(|| panic!("JWINS_SCALE={value:?}: expected small|medium|paper")),
            Err(_) => Scale::Small,
        }
    }

    fn parse(value: &str) -> Option<Self> {
        match value {
            "small" => Some(Scale::Small),
            "medium" => Some(Scale::Medium),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// Node count for the main experiments (96 in the paper).
    pub fn nodes(self) -> usize {
        match self {
            Scale::Small => 8,
            Scale::Medium => 24,
            Scale::Paper => 96,
        }
    }

    /// Graph degree (4-regular in the paper's 96-node runs).
    pub fn degree(self) -> usize {
        4
    }

    /// Multiplier applied to round budgets.
    pub fn round_factor(self) -> f64 {
        match self {
            Scale::Small => 1.0,
            Scale::Medium => 2.0,
            Scale::Paper => 6.0,
        }
    }

    /// Scales a base (small) round count.
    pub fn rounds(self, base: usize) -> usize {
        ((base as f64) * self.round_factor()).round() as usize
    }
}

/// Which algorithm to run.
#[derive(Debug, Clone)]
pub enum Algo {
    /// Full-sharing D-PSGD.
    Full,
    /// Random-sampling sparsification at a fraction.
    Random(f64),
    /// JWINS with a config.
    Jwins(JwinsConfig),
    /// CHOCO-SGD with a config.
    Choco(ChocoConfig),
    /// PowerGossip with a config (extension).
    PowerGossip(PowerGossipConfig),
    /// QSGD-quantized full sharing with this many levels (extension).
    Quantized(u32),
    /// Random model walk (extension).
    Rmw,
}

impl Algo {
    /// Human-readable label.
    pub fn label(&self) -> String {
        match self {
            Algo::Full => "full-sharing".into(),
            Algo::Random(f) => format!("random-sampling@{:.0}%", f * 100.0),
            Algo::Jwins(c) => {
                let base = match (&c.wavelet, c.accumulation, c.randomized_cutoff) {
                    (Some(_), true, true) => "jwins",
                    (None, _, _) => "jwins-no-wavelet",
                    (_, false, _) => "jwins-no-accum",
                    (_, _, false) => "jwins-no-cutoff",
                };
                base.into()
            }
            Algo::Choco(c) => format!("choco@{:.0}%", c.fraction * 100.0),
            Algo::PowerGossip(c) => match &c.layout {
                jwins::strategies::MatrixLayout::GlobalSquare => {
                    format!("power-gossip-glob@r{}", c.rank)
                }
                _ => format!("power-gossip@rank{}", c.rank),
            },
            Algo::Quantized(levels) => format!("qsgd@{levels}"),
            Algo::Rmw => "random-model-walk".into(),
        }
    }

    /// Builds the per-node strategy.
    pub fn strategy(&self, node: usize, seed: u64) -> Box<dyn ShareStrategy> {
        match self {
            Algo::Full => Box::new(FullSharing::new()),
            Algo::Random(f) => Box::new(RandomSampling::new(*f, seed)),
            Algo::Jwins(c) => Box::new(Jwins::new(
                c.clone(),
                seed.wrapping_mul(0x9E37_79B9).wrapping_add(node as u64),
            )),
            Algo::Choco(c) => Box::new(ChocoSgd::new(c.clone())),
            // The cluster-shared seed for PowerGossip's per-edge warm
            // starts; node-distinct seeds for the stochastic strategies.
            Algo::PowerGossip(c) => Box::new(PowerGossip::new(c.clone(), node, seed)),
            Algo::Quantized(levels) => Box::new(QuantizedSharing::new(
                *levels,
                seed.wrapping_mul(0x85EB_CA6B).wrapping_add(node as u64),
            )),
            Algo::Rmw => Box::new(RandomModelWalk::new(
                seed.wrapping_mul(0xC2B2_AE35).wrapping_add(node as u64),
            )),
        }
    }
}

/// One of the five dataset/model pairings of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// CIFAR-10 analogue with GN-LeNet, 2-shard non-IID.
    Cifar,
    /// MovieLens analogue with matrix factorization.
    MovieLens,
    /// Shakespeare analogue with the stacked LSTM.
    Shakespeare,
    /// CelebA analogue with the LEAF CNN (binary).
    Celeba,
    /// FEMNIST analogue with the LEAF CNN.
    Femnist,
}

impl Workload {
    /// All five, in the paper's Table I order.
    pub fn all() -> [Workload; 5] {
        [
            Workload::Cifar,
            Workload::MovieLens,
            Workload::Shakespeare,
            Workload::Celeba,
            Workload::Femnist,
        ]
    }

    /// Table label.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Cifar => "CIFAR-like",
            Workload::MovieLens => "MovieLens-like",
            Workload::Shakespeare => "Shakespeare-like",
            Workload::Celeba => "CelebA-like",
            Workload::Femnist => "FEMNIST-like",
        }
    }

    /// Base round budget at small scale (stands in for the paper's epochs).
    pub fn base_rounds(self) -> usize {
        match self {
            Workload::Cifar => 120,
            Workload::MovieLens => 100,
            Workload::Shakespeare => 50,
            Workload::Celeba => 60,
            Workload::Femnist => 80,
        }
    }

    /// Learning rate tuned for the small-scale workloads (grid-searched on
    /// the full-sharing baseline, mirroring the paper's §IV-B-b protocol).
    pub fn lr(self) -> f32 {
        match self {
            Workload::Cifar => 0.08,
            Workload::MovieLens => 0.3,
            Workload::Shakespeare => 0.8,
            Workload::Celeba => 0.05,
            Workload::Femnist => 0.08,
        }
    }

    /// Runs this workload with the given algorithm; one seeded repetition.
    pub fn run(self, scale: Scale, algo: &Algo, cfg: &RunCfg) -> RunResult {
        match self {
            Workload::Cifar => run_cifar(scale, algo, cfg, 2),
            Workload::MovieLens => run_movielens(scale, algo, cfg),
            Workload::Shakespeare => run_shakespeare(scale, algo, cfg),
            Workload::Celeba => run_celeba(scale, algo, cfg),
            Workload::Femnist => run_femnist(scale, algo, cfg),
        }
    }
}

/// Common experiment parameters: the engine configuration plus the choices
/// the harness makes around it (which graph, who listens).
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// The engine configuration, preset by [`RunCfg::new`] to the harness
    /// defaults; benches set whatever else they sweep directly on it.
    /// `train.lr` is overwritten per workload — set [`RunCfg::lr`] instead.
    pub train: TrainConfig,
    /// Override learning rate (None = workload default).
    pub lr: Option<f32>,
    /// Use a per-round re-randomized topology (Figure 7).
    pub dynamic_topology: bool,
    /// Sample the topology from a Cyclon peer-sampling service instead of a
    /// random-regular construction (extension).
    pub peer_sampling: bool,
    /// An in-memory trace collector attached to the run's tracer. Clones
    /// share the buffer: keep one handle here and read the events back
    /// after the run.
    pub trace_memory: Option<jwins_trace::MemorySink>,
}

impl RunCfg {
    /// Harness defaults for `rounds` rounds: τ = 2, b = 8, a dozen
    /// evaluations over 256 test samples, seed 42.
    pub fn new(rounds: usize) -> Self {
        let mut train = TrainConfig::new(rounds);
        train.local_steps = 2;
        train.batch_size = 8;
        train.seed = 42;
        train.eval_every = (rounds / 12).max(5);
        train.eval_test_samples = 256;
        Self {
            train,
            lr: None,
            dynamic_topology: false,
            peer_sampling: false,
            trace_memory: None,
        }
    }
}

/// Builds and runs one experiment: `data` over a `degree`-regular graph of
/// the kind `cfg` selects, every node starting from `model()` and sharing
/// with `algo`'s strategy.
fn run_experiment<M>(
    cfg: &RunCfg,
    workload_lr: f32,
    degree: usize,
    data: Partitioned<M::Sample>,
    algo: &Algo,
    model: impl Fn() -> M,
) -> RunResult
where
    M: Model + Send,
    M::Sample: Send + Sync,
{
    let seed = cfg.train.seed;
    let nodes = data.nodes();
    let mut train = cfg.train.clone();
    train.lr = cfg.lr.unwrap_or(workload_lr);
    let builder = Trainer::builder(train);
    let mut builder = if cfg.peer_sampling {
        let ps = PeerSamplingConfig {
            degree: degree.div_ceil(2).max(1),
            ..PeerSamplingConfig::default()
        };
        builder.topology(PeerSampling::new(nodes, ps, seed ^ 0xAB))
    } else if cfg.dynamic_topology {
        builder.topology(DynamicRegular::new(nodes, degree, seed ^ 0xD1).expect("feasible graph"))
    } else {
        builder.topology(
            StaticTopology::random_regular(nodes, degree, seed ^ 0xD1).expect("feasible graph"),
        )
    }
    .test_set(data.test)
    .nodes(data.node_train, |node| (model(), algo.strategy(node, seed)));
    if let Some(m) = &cfg.trace_memory {
        builder = builder.trace_sink(Box::new(m.clone()));
    }
    let trainer = builder.build().expect("valid experiment");
    trainer.run().expect("run completes")
}

/// The CIFAR-like workload (shards per node = 2 for the main runs, 4 for the
/// Figure-10 "less strict" regime).
pub fn run_cifar(scale: Scale, algo: &Algo, cfg: &RunCfg, shards: usize) -> RunResult {
    run_cifar_n(scale, scale.nodes(), scale.degree(), algo, cfg, shards)
}

/// CIFAR-like with an explicit node count/degree (Figure 10 scalability).
pub fn run_cifar_n(
    scale: Scale,
    nodes: usize,
    degree: usize,
    algo: &Algo,
    cfg: &RunCfg,
    shards: usize,
) -> RunResult {
    let seed = cfg.train.seed;
    let mut img = ImageConfig::cifar_small();
    if scale == Scale::Paper {
        img.train_per_unit = 512;
    }
    let data = cifar_like(&img, nodes, shards, seed);
    run_experiment(cfg, Workload::Cifar.lr(), degree, data, algo, || {
        gn_lenet(img.channels, img.height, img.width, img.classes, 8, seed)
    })
}

/// The FEMNIST-like workload.
pub fn run_femnist(scale: Scale, algo: &Algo, cfg: &RunCfg) -> RunResult {
    let seed = cfg.train.seed;
    let img = ImageConfig::femnist_small();
    let nodes = scale.nodes();
    let data = femnist_like(&img, nodes, nodes * 3, seed);
    run_experiment(
        cfg,
        Workload::Femnist.lr(),
        scale.degree(),
        data,
        algo,
        || {
            leaf_cnn(
                img.channels,
                img.height,
                img.width,
                img.classes,
                4,
                24,
                seed,
            )
        },
    )
}

/// The CelebA-like workload.
pub fn run_celeba(scale: Scale, algo: &Algo, cfg: &RunCfg) -> RunResult {
    let seed = cfg.train.seed;
    let img = ImageConfig::celeba_small();
    let nodes = scale.nodes();
    let data = celeba_like(&img, nodes, nodes * 2, seed);
    run_experiment(
        cfg,
        Workload::Celeba.lr(),
        scale.degree(),
        data,
        algo,
        || {
            leaf_cnn(
                img.channels,
                img.height,
                img.width,
                img.classes,
                3,
                16,
                seed,
            )
        },
    )
}

/// The MovieLens-like workload.
pub fn run_movielens(scale: Scale, algo: &Algo, cfg: &RunCfg) -> RunResult {
    let seed = cfg.train.seed;
    let mut rcfg = RatingConfig::small();
    rcfg.users = scale.nodes() * 6;
    rcfg.items = 64;
    let data = movielens_like(&rcfg, scale.nodes(), seed);
    let (users, items) = (data.users, data.items);
    run_experiment(
        cfg,
        Workload::MovieLens.lr(),
        scale.degree(),
        data.partitioned,
        algo,
        || MatrixFactorization::new(users, items, 8, seed),
    )
}

/// The Shakespeare-like workload.
pub fn run_shakespeare(scale: Scale, algo: &Algo, cfg: &RunCfg) -> RunResult {
    let seed = cfg.train.seed;
    let tcfg = TextConfig::small();
    let nodes = scale.nodes();
    let data = shakespeare_like(&tcfg, nodes, nodes, seed);
    run_experiment(
        cfg,
        Workload::Shakespeare.lr(),
        scale.degree(),
        data,
        algo,
        || CharLstm::new(tcfg.vocab, 8, 24, seed),
    )
}

/// Propose / execute / commit wall seconds of a run, as `jwins_metrics`
/// folded them from the run's `ExecuteBatch` spans. A parallel speedup can
/// only shrink the middle one.
pub fn phase_seconds(metrics: &jwins_metrics::MetricsRegistry) -> [f64; 3] {
    let facts = metrics.run_facts();
    [
        facts.propose_wall_ns,
        facts.execute_wall_ns,
        facts.commit_wall_ns,
    ]
    .map(|ns| ns as f64 * 1e-9)
}

/// How many `ExecuteBatch` windows a run executed and how many events one
/// held on average — the width the worker pool was offered. Both repeat
/// exactly for a configuration, whatever the thread count or the host.
pub fn batch_shape(metrics: &jwins_metrics::MetricsRegistry) -> (u64, f64) {
    let facts = metrics.run_facts();
    let mean_width = facts.batch_width_sum as f64 / facts.batches.max(1) as f64;
    (facts.batches, mean_width)
}

/// Formats bytes as a human unit.
pub fn fmt_bytes(bytes: f64) -> String {
    const GIB: f64 = 1024.0 * 1024.0 * 1024.0;
    const MIB: f64 = 1024.0 * 1024.0;
    if bytes >= GIB {
        format!("{:.2} GiB", bytes / GIB)
    } else if bytes >= MIB {
        format!("{:.2} MiB", bytes / MIB)
    } else {
        format!("{:.1} KiB", bytes / 1024.0)
    }
}

/// Writes a CSV under the workspace's `target/experiments/`, creating the
/// directory (`cargo bench` runs with the package root as cwd, so a relative
/// path would land under `crates/bench/`).
pub fn save_csv(name: &str, contents: &str) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments");
    if let Ok(dir) = std::fs::create_dir_all(&dir).and_then(|()| dir.canonicalize()) {
        let path = dir.join(format!("{name}.csv"));
        if std::fs::write(&path, contents).is_ok() {
            println!("  [csv] {}", path.display());
        }
    }
}

/// Prints a banner naming the experiment and the paper artifact it
/// regenerates.
pub fn banner(figure: &str, claim: &str) {
    println!("\n================================================================");
    println!("{figure}");
    println!("paper claim: {claim}");
    println!(
        "scale: {:?} (set JWINS_SCALE=medium|paper for larger runs)",
        Scale::from_env()
    );
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parses_env_values() {
        // from_env reads the live environment; exercise what it delegates to.
        assert_eq!(Scale::parse("small"), Some(Scale::Small));
        assert_eq!(Scale::parse("medium"), Some(Scale::Medium));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        for unknown in ["smoke", "", "Small", "large"] {
            assert_eq!(Scale::parse(unknown), None, "{unknown:?} must be rejected");
        }
        assert_eq!(Scale::Small.nodes(), 8);
        assert_eq!(Scale::Paper.nodes(), 96);
        assert_eq!(Scale::Small.rounds(100), 100);
        assert_eq!(Scale::Medium.rounds(100), 200);
    }

    #[test]
    fn algo_labels_are_stable() {
        assert_eq!(Algo::Full.label(), "full-sharing");
        assert_eq!(Algo::Random(0.37).label(), "random-sampling@37%");
        assert_eq!(Algo::Jwins(JwinsConfig::paper_default()).label(), "jwins");
        assert_eq!(Algo::Choco(ChocoConfig::budget_20()).label(), "choco@20%");
    }

    #[test]
    fn bytes_formatting() {
        assert_eq!(fmt_bytes(512.0), "0.5 KiB");
        assert_eq!(fmt_bytes(3.0 * 1024.0 * 1024.0), "3.00 MiB");
        assert!(fmt_bytes(2.5 * 1024.0 * 1024.0 * 1024.0).ends_with("GiB"));
    }

    #[test]
    fn workload_table_is_complete() {
        assert_eq!(Workload::all().len(), 5);
        for w in Workload::all() {
            assert!(!w.name().is_empty());
            assert!(w.base_rounds() > 0);
            assert!(w.lr() > 0.0);
        }
    }
}
