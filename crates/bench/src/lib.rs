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

use jwins::config::{ExecutionMode, TrainConfig};
use jwins::engine::Trainer;
use jwins::metrics::RunResult;
use jwins::participation::RandomDropout;
use jwins::strategies::{
    ChocoConfig, ChocoSgd, FullSharing, Jwins, JwinsConfig, PowerGossip, PowerGossipConfig,
    QuantizedSharing, RandomModelWalk, RandomSampling,
};
use jwins::strategy::ShareStrategy;
use jwins_data::images::{celeba_like, cifar_like, femnist_like, ImageConfig};
use jwins_data::ratings::{movielens_like, RatingConfig};
use jwins_data::text::{shakespeare_like, TextConfig};
use jwins_data::Partitioned;
use jwins_nn::models::{
    gn_lenet, leaf_cnn, CharLstm, ClassSample, ImageClassifier, MatrixFactorization,
};
use jwins_sim::HeterogeneityProfile;
use jwins_topology::dynamic::{DynamicRegular, StaticTopology, TopologyProvider};
use jwins_topology::peer_sampling::{PeerSampling, PeerSamplingConfig};
use jwins_topology::repair::RepairPolicy;

pub mod report;

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
    /// Reads `JWINS_SCALE` (`small`/`medium`/`paper`; default `small`).
    pub fn from_env() -> Self {
        match std::env::var("JWINS_SCALE").unwrap_or_default().as_str() {
            "medium" => Scale::Medium,
            "paper" => Scale::Paper,
            _ => Scale::Small,
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

/// Common experiment parameters.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// Communication rounds.
    pub rounds: usize,
    /// Master seed.
    pub seed: u64,
    /// Evaluation cadence.
    pub eval_every: usize,
    /// Stop when this mean test accuracy is reached.
    pub target_accuracy: Option<f64>,
    /// Record per-node α draws.
    pub record_alphas: bool,
    /// Override learning rate (None = workload default).
    pub lr: Option<f32>,
    /// Use a per-round re-randomized topology (Figure 7).
    pub dynamic_topology: bool,
    /// Per-round node dropout probability (extension: churn experiments).
    pub dropout: Option<f64>,
    /// Sample the topology from a Cyclon peer-sampling service instead of a
    /// random-regular construction (extension).
    pub peer_sampling: bool,
    /// Execution substrate (barrier rounds vs event-driven async gossip).
    pub execution: ExecutionMode,
    /// Transport backend (virtual-time sim vs real OS-thread channels —
    /// extension: `ext_transport`).
    pub transport: jwins::config::TransportKind,
    /// Hardware heterogeneity for event-driven runs.
    pub heterogeneity: HeterogeneityProfile,
    /// Fault injection and staleness policy for event-driven runs
    /// (extension: chaos and bounded-staleness experiments).
    pub faults: jwins_fault::FaultConfig,
    /// Liveness-aware topology repair for event-driven runs under a fault
    /// plan (extension: `ext_repair`).
    pub repair: RepairPolicy,
    /// Byzantine attack schedule injected at message-build time
    /// (extension: `ext_byzantine`).
    pub attack: jwins_adversary::AttackPlan,
    /// Robust aggregation rule screening decoded contributions at mixing
    /// time (extension: `ext_byzantine`).
    pub robust: jwins_adversary::Robust,
    /// Virtual-time evaluation checkpoint cadence for event-driven runs.
    pub eval_interval_s: Option<f64>,
    /// Override the simulated wall-clock model (None = engine default).
    pub time_model: Option<jwins_net::TimeModel>,
    /// Worker threads (`0` = all available cores). Thread count never
    /// changes results — see the `ext_parallel` speedup bench.
    pub threads: usize,
    /// Event-queue shard count for event-driven runs (`0` = single heap).
    /// Purely structural: any value replays the same schedule — see the
    /// `ext_scale` bench.
    pub shards: usize,
    /// Commit-order mode for event-driven runs (`Strict` by default;
    /// `Window` widens batches under heterogeneous speeds at the cost of a
    /// bounded virtual-time skew — extension: `ext_scale`).
    pub ordering: jwins_sim::Ordering,
    /// Tracing configuration applied to the run (None = engine default:
    /// flight recorder only, no files). Tracing is observational — see the
    /// `trace_determinism` test.
    pub trace: Option<jwins_trace::TraceConfig>,
    /// An in-memory trace collector attached to the run's tracer. Clones
    /// share the buffer: keep one handle here and read phase timings back
    /// after the run (`report::PhaseTotals::from_events`).
    pub trace_memory: Option<jwins_trace::MemorySink>,
}

impl RunCfg {
    /// Defaults for `rounds` rounds.
    pub fn new(rounds: usize) -> Self {
        Self {
            rounds,
            seed: 42,
            eval_every: (rounds / 12).max(5),
            target_accuracy: None,
            record_alphas: false,
            lr: None,
            dynamic_topology: false,
            dropout: None,
            peer_sampling: false,
            execution: ExecutionMode::default(),
            transport: jwins::config::TransportKind::default(),
            heterogeneity: HeterogeneityProfile::default(),
            faults: jwins_fault::FaultConfig::default(),
            repair: RepairPolicy::None,
            attack: jwins_adversary::AttackPlan::None,
            robust: jwins_adversary::Robust::None,
            eval_interval_s: None,
            time_model: None,
            threads: 0,
            shards: 0,
            ordering: jwins_sim::Ordering::Strict,
            trace: None,
            trace_memory: None,
        }
    }
}

fn train_config(cfg: &RunCfg, lr: f32) -> TrainConfig {
    let mut c = TrainConfig::new(cfg.rounds);
    c.local_steps = 2;
    c.batch_size = 8;
    c.lr = cfg.lr.unwrap_or(lr);
    c.seed = cfg.seed;
    c.eval_every = cfg.eval_every;
    c.eval_test_samples = 256;
    c.target_accuracy = cfg.target_accuracy;
    c.record_alphas = cfg.record_alphas;
    c.execution = cfg.execution;
    c.transport = cfg.transport;
    c.heterogeneity = cfg.heterogeneity.clone();
    c.faults = cfg.faults.clone();
    c.repair = cfg.repair;
    c.attack = cfg.attack.clone();
    c.robust = cfg.robust;
    c.eval_interval_s = cfg.eval_interval_s;
    c.threads = cfg.threads;
    c.shards = cfg.shards;
    c.ordering = cfg.ordering;
    if let Some(tm) = cfg.time_model {
        c.time_model = tm;
    }
    if let Some(trace) = &cfg.trace {
        c.trace = trace.clone();
    }
    c
}

fn topology(scale: Scale, cfg: &RunCfg, nodes: usize, degree: usize) -> Box<dyn TopologyProvider> {
    let _ = scale;
    if cfg.peer_sampling {
        let ps = PeerSamplingConfig {
            degree: degree.div_ceil(2).max(1),
            ..PeerSamplingConfig::default()
        };
        Box::new(PeerSampling::new(nodes, ps, cfg.seed ^ 0xAB))
    } else if cfg.dynamic_topology {
        Box::new(DynamicRegular::new(nodes, degree, cfg.seed ^ 0xD1).expect("feasible graph"))
    } else {
        Box::new(
            StaticTopology::random_regular(nodes, degree, cfg.seed ^ 0xD1).expect("feasible graph"),
        )
    }
}

struct BoxedProvider(Box<dyn TopologyProvider>);

impl TopologyProvider for BoxedProvider {
    fn nodes(&self) -> usize {
        self.0.nodes()
    }
    fn topology(&self, round: usize) -> jwins_topology::dynamic::RoundTopology {
        self.0.topology(round)
    }
    fn topology_for(
        &self,
        round: usize,
        live: &jwins_topology::LiveSet,
    ) -> jwins_topology::dynamic::RoundTopology {
        self.0.topology_for(round, live)
    }
    fn is_live_aware(&self) -> bool {
        self.0.is_live_aware()
    }
    fn is_dynamic(&self) -> bool {
        self.0.is_dynamic()
    }
}

fn run_image(
    data: Partitioned<ClassSample>,
    img: &ImageConfig,
    model: impl Fn(u64) -> ImageClassifier,
    scale: Scale,
    algo: &Algo,
    cfg: &RunCfg,
    lr: f32,
) -> RunResult {
    let nodes = data.nodes();
    let _ = img;
    let mut builder = Trainer::builder(train_config(cfg, lr))
        .topology(BoxedProvider(topology(scale, cfg, nodes, scale.degree())))
        .test_set(data.test.clone())
        .nodes(data.node_train, |node| {
            (model(cfg.seed), algo.strategy(node, cfg.seed))
        });
    if let Some(p) = cfg.dropout {
        builder = builder.participation(RandomDropout::new(p, cfg.seed ^ 0xC4));
    }
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
    let mut img = ImageConfig::cifar_small();
    if scale == Scale::Paper {
        img.train_per_unit = 512;
    }
    let data = cifar_like(&img, nodes, shards, cfg.seed);
    let lr = cfg.lr.unwrap_or(Workload::Cifar.lr());
    let mut builder = Trainer::builder(train_config(cfg, lr))
        .topology(BoxedProvider(topology(scale, cfg, nodes, degree)))
        .test_set(data.test.clone())
        .nodes(data.node_train, |node| {
            (
                gn_lenet(
                    img.channels,
                    img.height,
                    img.width,
                    img.classes,
                    8,
                    cfg.seed,
                ),
                algo.strategy(node, cfg.seed),
            )
        });
    if let Some(p) = cfg.dropout {
        builder = builder.participation(RandomDropout::new(p, cfg.seed ^ 0xC4));
    }
    if let Some(m) = &cfg.trace_memory {
        builder = builder.trace_sink(Box::new(m.clone()));
    }
    let trainer = builder.build().expect("valid experiment");
    trainer.run().expect("run completes")
}

/// The FEMNIST-like workload.
pub fn run_femnist(scale: Scale, algo: &Algo, cfg: &RunCfg) -> RunResult {
    let img = ImageConfig::femnist_small();
    let nodes = scale.nodes();
    let data = femnist_like(&img, nodes, nodes * 3, cfg.seed);
    run_image(
        data,
        &img,
        |seed| {
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
        scale,
        algo,
        cfg,
        Workload::Femnist.lr(),
    )
}

/// The CelebA-like workload.
pub fn run_celeba(scale: Scale, algo: &Algo, cfg: &RunCfg) -> RunResult {
    let img = ImageConfig::celeba_small();
    let nodes = scale.nodes();
    let data = celeba_like(&img, nodes, nodes * 2, cfg.seed);
    run_image(
        data,
        &img,
        |seed| {
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
        scale,
        algo,
        cfg,
        Workload::Celeba.lr(),
    )
}

/// The MovieLens-like workload.
pub fn run_movielens(scale: Scale, algo: &Algo, cfg: &RunCfg) -> RunResult {
    let mut rcfg = RatingConfig::small();
    rcfg.users = scale.nodes() * 6;
    rcfg.items = 64;
    let data = movielens_like(&rcfg, scale.nodes(), cfg.seed);
    let users = data.users;
    let items = data.items;
    let mut builder = Trainer::builder(train_config(cfg, Workload::MovieLens.lr()))
        .topology(BoxedProvider(topology(
            scale,
            cfg,
            scale.nodes(),
            scale.degree(),
        )))
        .test_set(data.partitioned.test.clone())
        .nodes(data.partitioned.node_train, |node| {
            (
                MatrixFactorization::new(users, items, 8, cfg.seed),
                algo.strategy(node, cfg.seed),
            )
        });
    if let Some(p) = cfg.dropout {
        builder = builder.participation(RandomDropout::new(p, cfg.seed ^ 0xC4));
    }
    if let Some(m) = &cfg.trace_memory {
        builder = builder.trace_sink(Box::new(m.clone()));
    }
    let trainer = builder.build().expect("valid experiment");
    trainer.run().expect("run completes")
}

/// The Shakespeare-like workload.
pub fn run_shakespeare(scale: Scale, algo: &Algo, cfg: &RunCfg) -> RunResult {
    let tcfg = TextConfig::small();
    let nodes = scale.nodes();
    let data = shakespeare_like(&tcfg, nodes, nodes, cfg.seed);
    let mut builder = Trainer::builder(train_config(cfg, Workload::Shakespeare.lr()))
        .topology(BoxedProvider(topology(scale, cfg, nodes, scale.degree())))
        .test_set(data.test.clone())
        .nodes(data.node_train, |node| {
            (
                CharLstm::new(tcfg.vocab, 8, 24, cfg.seed),
                algo.strategy(node, cfg.seed),
            )
        });
    if let Some(p) = cfg.dropout {
        builder = builder.participation(RandomDropout::new(p, cfg.seed ^ 0xC4));
    }
    if let Some(m) = &cfg.trace_memory {
        builder = builder.trace_sink(Box::new(m.clone()));
    }
    let trainer = builder.build().expect("valid experiment");
    trainer.run().expect("run completes")
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

/// Writes a CSV under `target/experiments/`, creating the directory.
pub fn save_csv(name: &str, contents: &str) {
    let dir = std::path::Path::new("target").join("experiments");
    if std::fs::create_dir_all(&dir).is_ok() {
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
        // from_env reads the live environment; just exercise the helpers.
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
