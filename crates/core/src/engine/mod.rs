//! The decentralized training engine: one round program, two schedulers.
//!
//! What a node does in a round (paper §II-A, Alg. 1) — τ local SGD steps,
//! build one strategy message, fan it out to the round's neighbours, mix what
//! arrived with Metropolis–Hastings weights, evaluate — lives once, in
//! `round`. Nothing else in the engine calls a strategy, and `round`'s
//! `Scoreboard` is the only place a [`crate::metrics::RoundRecord`] is
//! built. A scheduler decides only *when* a node runs each step, and on
//! which clock:
//!
//! - `barrier` — **bulk-synchronous** (the paper's round structure): train,
//!   deliver and mix phases separated by barriers, nodes in parallel inside
//!   a phase; a round costs [`jwins_net::TimeModel::round_seconds`] of the
//!   busiest node's bytes. The fault plan is sampled at round starts: a node
//!   that is down skips the round.
//! - `event` — **event-driven**
//!   ([`crate::config::ExecutionMode::EventDriven`]): a virtual clock on
//!   `jwins_sim`'s discrete-event queue. Each local round costs
//!   `compute_s / speed` simulated seconds, messages are serialized over the
//!   sender's uplink and arrive `latency + bytes/bandwidth` later, and a
//!   node mixes whatever has *arrived* by its local clock — possibly stale
//!   messages, whose age feeds the staleness policy and metric. Replays the
//!   fault plan mid-round (lifecycle epochs, destroyed messages) and adds
//!   topology repair.
//!
//! Both run on the virtual clock over one [`SimNetwork`], which carries the
//! serialized payloads a socket would and meters them.
//!
//! Under a degenerate heterogeneity profile (uniform compute, instantaneous
//! links) the barrier and event schedulers produce bit-identical models and
//! bytes. `barrier` is nevertheless kept as its own ~150-line scheduler
//! rather than a degenerate event schedule: the two clocks differ by design
//! (`tests/event_driven.rs` compares "modulo time"), the repo benchmark pins
//! the barrier clock's `sim_time_s`, and all three golden trace fixtures are
//! event-scheduler traces that an extra barrier mode inside it could only
//! disturb.
//!
//! # Resident workers
//!
//! [`Trainer::run`] starts `min(threads, nodes) − 1` helper threads once (a
//! batch never has more items than there are nodes), in one
//! [`std::thread::scope`] around the whole barrier or event schedule; the
//! calling thread is a worker too, and no thread is created afterwards.
//! Every parallel step — a barrier phase, an event window's execute phase,
//! an evaluation — is one [`workers::Workers::batch`]: the items are cut into
//! chunks that workers *claim*, so the caller finishes a narrow batch before
//! a helper has woken and a wide one balances itself, with no threshold to
//! tune. A job may borrow only what outlives the pool (configuration,
//! transport, test set) plus what is moved into it (a batch's round
//! contexts); node state is reached through one locked cell per node, never
//! contended because batch node ids are pairwise distinct. The [`workers`]
//! docs give the full contract, including how errors and panics come back.
//!
//! # Who owns what
//!
//! A node owns its window of the parameter arena, its batch sampler and its
//! strategy state — nothing else. A [`Model`] instance is a *workspace*
//! (layer buffers, gradients, cached activations) whose results depend only
//! on the parameters loaded into it, and every call into one starts with
//! that load, so any instance can serve any node: the trainer keeps one per
//! worker (`min(threads, nodes)`), and a worker holds its own for each
//! chunk of a batch it claims.
//!
//! # Parallel event execution and the determinism contract
//!
//! The event loop *commits* one event at a time, in the queue's seeded total
//! order — the schedule of a single-heap, single-thread simulator — and
//! *executes ahead* of its commits inside the network's lookahead. The
//! expensive, node-local half of a `TrainDone` (τ SGD steps, message
//! building) or `Mix` (mailbox drain, aggregation) runs on the resident
//! workers ([`workers`]) in **windows**: the queue head plus every following
//! event of its kind that is simultaneous with it or fires less than `H`
//! after it, `H = min(smallest link latency, smallest compute time)`. Each
//! window goes through three phases —
//!
//! 1. **gather** (sequential): pop the window, drop stale-epoch events (see
//!    [`jwins_sim::LifecycleTracker`]), resolve per-round topology;
//! 2. **execute** (parallel): run the per-node work with every shared-state
//!    side effect buffered (outgoing messages as [`jwins_net::PendingSend`],
//!    expiry/staleness counters in per-event proposals);
//! 3. **commit** (sequential, one event per turn of the loop, interleaved in
//!    queue order with everything those commits schedule): apply the
//!    buffered sends, fold the float accumulators, schedule follow-up
//!    events, and take round-completion evaluation points.
//!
//! Executing ahead is exact, not approximately right — three facts,
//! spelled out in the `event` module docs: (a) a message sent at `t` arrives
//! no earlier than `t + latency`, so nothing an uncommitted event will send
//! can be due at a window member, and an early drain leaves the mailbox as
//! a late one would; (b) a node has one pending event and a round takes at
//! least its compute time, so no node passes two rounds inside a window;
//! (c) faults and checkpoints touch cluster state and are never crossed.
//! One rule closes a window early: the event that can complete an
//! *evaluated* round is its window's last member, so an evaluation never
//! sees parameters of an event still to come. The observable run is
//! therefore a pure function of the configuration, identical to executing
//! every event when it is the earliest uncommitted one — which is how the
//! tests prove it (`engine::tests::lookahead_*` run the same loop with
//! `H = 0` and windows of one as the reference). Concretely, these knobs
//! **may not** change any result, bit for bit:
//!
//! - [`crate::config::TrainConfig::threads`] (1, 2, 8, or 0 = all cores) —
//!   workers only split the execute phase of already-independent events,
//!   and which worker claims which chunk is invisible: outputs return in
//!   item order and commit sequentially;
//! - [`crate::config::TrainConfig::shards`] — simply ignored: the event
//!   queue ([`jwins_sim::ShardedEventQueue`]) is one heap
//!   (`tests/scale_determinism.rs`);
//! - host core count / scheduler timing, for the same reason.
//!
//! These knobs **do** change results, deterministically:
//!
//! - [`crate::config::TrainConfig::seed`] — drives initial weights, batch
//!   order, queue tie-breaks, loss draws and fault expansion;
//! - the heterogeneity profile, fault plan, staleness policy, topology and
//!   every learning hyperparameter.
//!
//! The contract is enforced by tests: `engine::tests::lookahead_*` compare
//! against the one-at-a-time schedule (stragglers, early stop on an
//! evaluated round, rounds shorter than the latency, crash + resync under
//! repair, loss, expiry, per-edge messages on a dynamic topology);
//! `tests/parallel_determinism.rs` replays a fault + staleness workload at
//! `threads` ∈ {1, 2, 8} and asserts identical `RoundRecord` streams;
//! `tests/event_driven.rs` pins event-vs-barrier bit-equality on degenerate
//! profiles, and the two golden trace fixtures pin the commit order itself.
//! The window width bounds the attainable speedup: with instant or
//! log-normal links `H = 0` and only simultaneous events share a window
//! (class-structured profiles such as
//! [`jwins_sim::HeterogeneityProfile::stragglers`] keep same-speed cohorts
//! aligned; fully random speeds yield singletons) — see the `ext_parallel`
//! bench, and `ext_scale`, which prints the window count and mean width
//! under fully-random speeds.

mod barrier;
mod event;
pub(crate) mod round;
pub mod workers;

use crate::arena::ParamArena;
use crate::config::{ExecutionMode, TrainConfig};
use crate::metrics::RunResult;
use crate::strategy::ShareStrategy;
use crate::{JwinsError, Result};
use event::EventRun;
use jwins_adversary::{AttackBehavior, AttackTimeline};
use jwins_data::batch::BatchSampler;
use jwins_fault::{FaultTimeline, RejoinMode};
use jwins_net::{LossModel, SimNetwork, Transport};
use jwins_nn::model::Model;
use jwins_sim::{LifecycleTracker, SimTime};
use jwins_topology::dynamic::TopologyProvider;
use jwins_trace::{AttackKind, TraceEvent, TraceSink, Tracer};
use round::{NodeScore, NodeState, Scoreboard, ATTACK_SALT, FAULT_SALT};
use std::collections::VecDeque;
use std::sync::Arc;
use workers::Workers;

/// Builder for [`Trainer`] (see [`Trainer::builder`]).
pub struct TrainerBuilder<M: Model> {
    config: TrainConfig,
    topology: Option<Box<dyn TopologyProvider>>,
    test: Vec<M::Sample>,
    /// Every node's initial parameters, read from its model as it is added.
    arena: ParamArena,
    /// The last `workspaces` models handed in; earlier ones were dropped as
    /// soon as their parameters had been read (holding all of them until
    /// `build()` would set the run's peak memory at large node counts).
    models: VecDeque<M>,
    /// One per worker thread (resolved once, here — never per node).
    workspaces: usize,
    /// The first node whose model disagrees with node 0's in size, if any.
    mismatch: Option<String>,
    strategies: Vec<Box<dyn ShareStrategy>>,
    shards: Vec<Vec<M::Sample>>,
    sync_init: bool,
    trace_sinks: Vec<Box<dyn TraceSink>>,
}

impl<M: Model> TrainerBuilder<M> {
    /// Sets the topology provider (static or dynamic).
    #[must_use]
    pub fn topology(mut self, provider: impl TopologyProvider + 'static) -> Self {
        self.topology = Some(Box::new(provider));
        self
    }

    /// Sets the shared test set.
    #[must_use]
    pub fn test_set(mut self, test: Vec<M::Sample>) -> Self {
        self.test = test;
        self
    }

    /// Takes the next node in: its initial parameters go to the arena, its
    /// model joins the workspaces (pushing the oldest out). `more` nodes
    /// follow in the same call.
    fn add(
        &mut self,
        model: M,
        strategy: Box<dyn ShareStrategy>,
        shard: Vec<M::Sample>,
        more: usize,
    ) {
        let node = self.strategies.len();
        let params = model.params();
        if node > 0 && self.mismatch.is_none() && params.len() != self.arena.node(0).len() {
            self.mismatch = Some(format!(
                "node {node}'s model has {} parameters but node 0's has {}",
                params.len(),
                self.arena.node(0).len()
            ));
        }
        self.arena.push(&params, more);
        self.models.push_back(model);
        if self.models.len() > self.workspaces {
            self.models.pop_front();
        }
        self.strategies.push(strategy);
        self.shards.push(shard);
    }

    /// Adds one node with its model, strategy and local shard. All nodes
    /// must share one architecture: the engine reads the model's initial
    /// parameters and keeps the instance only as one of its per-worker
    /// workspaces (see [`Model`]).
    #[must_use]
    pub fn node(
        mut self,
        model: M,
        strategy: Box<dyn ShareStrategy>,
        shard: Vec<M::Sample>,
    ) -> Self {
        self.add(model, strategy, shard, 0);
        self
    }

    /// Adds one node per shard, building model and strategy from a factory
    /// receiving the node index (`0..n` across all `node`/`nodes` calls, the
    /// engine's node numbering exactly).
    #[must_use]
    pub fn nodes(
        mut self,
        shards: Vec<Vec<M::Sample>>,
        mut factory: impl FnMut(usize) -> (M, Box<dyn ShareStrategy>),
    ) -> Self {
        let mut more = shards.len();
        for shard in shards {
            more -= 1;
            let (model, strategy) = factory(self.strategies.len());
            self.add(model, strategy, shard, more);
        }
        self
    }

    /// Keep each node's own initial weights instead of broadcasting node 0's
    /// (used by consensus tests; real D-PSGD starts from a common model).
    #[must_use]
    pub fn keep_distinct_init(mut self) -> Self {
        self.sync_init = false;
        self
    }

    /// Attaches an extra trace sink (e.g. a [`jwins_trace::MemorySink`]) on
    /// top of whatever [`TrainConfig::trace`] configures. Sinks observe the
    /// run; they cannot change it — every [`crate::metrics::RoundRecord`] is
    /// bit-identical with or without them.
    #[must_use]
    pub fn trace_sink(mut self, sink: Box<dyn TraceSink>) -> Self {
        self.trace_sinks.push(sink);
        self
    }

    /// Validates and assembles the trainer.
    ///
    /// # Errors
    ///
    /// Fails when the configuration is invalid, the topology is missing or
    /// its node count disagrees with the number of nodes added, the nodes'
    /// models differ in parameter count, or the fault or attack plan names a
    /// node outside the cluster.
    pub fn build(mut self) -> Result<Trainer<M>> {
        self.config.validate()?;
        let topology = self
            .topology
            .ok_or_else(|| JwinsError::InvalidConfig("topology is required".into()))?;
        let n = self.strategies.len();
        if n == 0 {
            return Err(JwinsError::InvalidConfig(
                "at least one node required".into(),
            ));
        }
        // Envelopes and the trace stamp node ids as `u32`.
        if u32::try_from(n).is_err() {
            return Err(JwinsError::InvalidConfig(format!(
                "at most {} nodes",
                u32::MAX
            )));
        }
        if topology.nodes() != n {
            return Err(JwinsError::InvalidConfig(format!(
                "topology has {} nodes but {n} were added",
                topology.nodes(),
            )));
        }
        if self.test.is_empty() {
            return Err(JwinsError::InvalidConfig("test set is empty".into()));
        }
        if let Some(mismatch) = self.mismatch {
            return Err(JwinsError::InvalidConfig(mismatch));
        }
        // Both plans are expanded here, where the cluster size is first
        // known, so a plan naming a node outside it is a configuration error
        // like any other; the schedulers only replay the timelines.
        let (config, seed) = (&self.config, self.config.seed);
        let faults = FaultTimeline::expand(&config.faults.plan, n, seed ^ FAULT_SALT)
            .map_err(JwinsError::InvalidConfig)?;
        let attacks = AttackTimeline::expand(&config.attack, n, seed ^ ATTACK_SALT)
            .map_err(JwinsError::InvalidConfig)?;
        // Decided here, not as nodes arrive: `keep_distinct_init` may be
        // called after them.
        if self.sync_init {
            self.arena.sync_to_first();
        }
        let mut nodes = Vec::with_capacity(n);
        for (i, (mut strategy, shard)) in self.strategies.into_iter().zip(self.shards).enumerate() {
            if shard.is_empty() {
                return Err(JwinsError::InvalidConfig(format!("node {i} has no data")));
            }
            // The robust rule is applied where messages land
            // (`NodeState::mix`). A strategy whose update is not an average
            // the mixing layer can screen is a configuration error, caught
            // here — before any training state exists.
            if !self.config.robust.is_none() && !strategy.supports_robust() {
                return Err(JwinsError::InvalidConfig(format!(
                    "strategy '{}' does not support robust aggregation \
                     (TrainConfig::robust must be Robust::None with it)",
                    strategy.name()
                )));
            }
            strategy.init(self.arena.node(i));
            let sampler = BatchSampler::new(
                shard,
                jwins_nn::init::sub_seed(self.config.seed, 0x1000 + i as u64),
            );
            nodes.push(NodeState {
                sampler,
                strategy,
                last_train_loss: 0.0,
                last_alpha: 0.0,
            });
        }
        let mut network = if self.config.message_loss > 0.0 {
            SimNetwork::lossy(
                n,
                LossModel::new(self.config.message_loss, self.config.seed ^ 0x1055),
            )
        } else {
            SimNetwork::new(n)
        };
        // File sinks are opened here so a bad trace path fails the build as
        // a configuration error rather than wedging mid-run.
        let mut tracer = Tracer::from_config(&self.config.trace)
            .map_err(|e| JwinsError::InvalidConfig(format!("cannot open trace sink: {e}")))?;
        // The metrics layer rides the tracer as one more sink; like any
        // sink it only observes committed events, so attaching it cannot
        // change a bit of the run (tests/metrics_layer.rs).
        if let Some(metrics) = jwins_metrics::MetricsSink::from_config(&self.config.metrics)
            .map_err(|e| JwinsError::InvalidConfig(format!("cannot open metrics export: {e}")))?
        {
            tracer.push_sink(Box::new(metrics));
        }
        for sink in self.trace_sinks {
            tracer.push_sink(sink);
        }
        let tracer = Arc::new(tracer);
        network.set_tracer(Arc::clone(&tracer));
        Ok(Trainer {
            network: Arc::new(network),
            test: Arc::new(self.test),
            topology,
            faults,
            attacks,
            nodes,
            models: self.models.into_iter().map(workers::Cell::new).collect(),
            arena: self.arena,
            tracer,
            config: self.config,
        })
    }
}

/// Maps a plan behavior to its trace-event kind tag.
fn attack_kind(behavior: AttackBehavior) -> AttackKind {
    match behavior {
        AttackBehavior::Garbage { .. } => AttackKind::Garbage,
        AttackBehavior::SignFlip => AttackKind::SignFlip,
        AttackBehavior::Scale { .. } => AttackKind::Scale,
        AttackBehavior::Drift { .. } => AttackKind::Drift,
        _ => unreachable!("unknown attack behavior"),
    }
}

/// One node's mutable state for the length of a scheduled run.
struct NodeSlot<'a, M: Model> {
    state: &'a mut NodeState<M>,
    /// The node's window of the [`ParamArena`].
    params: &'a mut [f32],
}

/// A [`NodeSlot`] behind the lock that lets resident workers reach it.
type NodeCell<'a, M> = workers::Cell<NodeSlot<'a, M>>;

/// Splits the trainer's node states and arena into one cell per node.
fn node_cells<'a, M: Model>(
    nodes: &'a mut [NodeState<M>],
    arena: &'a mut ParamArena,
) -> Vec<NodeCell<'a, M>> {
    nodes
        .iter_mut()
        .zip(arena.slices_mut())
        .map(|(state, params)| NodeCell::new(NodeSlot { state, params }))
        .collect()
}

/// What a scheduler sees of the trainer while it runs on resident workers:
/// run-long shared borrows of everything immutable, the per-node cells, and
/// the pool. `'a` is the run (what a job may borrow — see [`workers`]); `'w`
/// is the pool inside it.
struct Run<'w, 'a, M: Model> {
    config: &'a TrainConfig,
    topology: &'a dyn TopologyProvider,
    /// The fault and attack plans as the builder expanded them.
    faults: &'a FaultTimeline,
    attacks: &'a AttackTimeline,
    network: &'a Arc<SimNetwork>,
    test: &'a [M::Sample],
    tracer: &'a Arc<Tracer>,
    /// Node `i`'s state and arena window; sequential code locks a cell
    /// between batches, workers inside one.
    cells: &'a [NodeCell<'a, M>],
    /// Worker `w`'s model workspace; only batches reach them.
    models: &'a [workers::Cell<M>],
    workers: &'w Workers<'a>,
}

impl<'a, M> Run<'_, 'a, M>
where
    M: Model + Send,
    M::Sample: Send + Sync,
{
    /// Executes one closure per `(node, item)` pair on the resident workers
    /// — the event scheduler's *execute* phase, a barrier phase, an
    /// evaluation — with the worker's model workspace and the node's state
    /// and parameters. Items carry distinct node ids (a node has one pending
    /// event). Outputs come back in item order and the
    /// first error *in item order* wins regardless of thread timing, so both
    /// results and failures are independent of thread count.
    fn batch<T, P, F>(&self, items: Vec<(usize, T)>, f: F) -> Result<Vec<P>>
    where
        T: Send + 'a,
        P: Send + 'a,
        F: Fn(usize, &mut M, &mut NodeState<M>, &mut [f32], T) -> Result<P> + Send + Sync + 'a,
    {
        self.workers.batch(
            self.cells,
            self.models,
            items,
            move |id, slot, model, item| f(id, model, slot.state, slot.params, item),
        )
    }

    /// Replays one recovery of the fault plan at `at`: marks `node` alive
    /// again and, on a [`RejoinMode::Resync`] rejoin, has it adopt the
    /// current model of the lowest-indexed live peer (a warm restart if it is
    /// fully alone). The donor is picked *before* the node is marked alive,
    /// so the tracker cannot hand the rejoiner its own stale model.
    fn rejoin(&self, lifecycle: &mut LifecycleTracker, node: usize, mode: RejoinMode, at: SimTime) {
        let donor = match mode {
            RejoinMode::Resync => lifecycle.first_alive(),
            _ => None,
        };
        lifecycle.recover(node);
        self.tracer.emit(TraceEvent::NodeRejoin {
            t_ns: at.0,
            node: node as u32,
            epoch: lifecycle.epoch(node),
            resync_from: donor.map(|d| d as u32),
        });
        if let Some(donor) = donor {
            // `donor` was alive while `node` was not: two distinct cells.
            let donor = self.cells[donor].lock();
            let mut slot = self.cells[node].lock();
            let NodeSlot { state, params } = &mut *slot;
            crate::arena::copy_node(donor.params, params);
            state.strategy.init(params);
        }
    }

    /// Evaluates all nodes on the shared test set (possibly subsampled),
    /// one [`NodeScore`] per node in node order — batch outputs, so the
    /// float merges downstream cannot depend on which worker finished first.
    fn evaluate(&self) -> Result<Vec<NodeScore>> {
        let (test, cap) = (self.test, self.config.eval_test_samples);
        let all = (0..self.cells.len()).map(|i| (i, ())).collect();
        self.batch(all, move |_, model, node, params, ()| {
            Ok(node.evaluate(model, params, test, cap))
        })
    }
}

/// A configured decentralized training run.
pub struct Trainer<M: Model> {
    pub(crate) config: TrainConfig,
    pub(crate) topology: Box<dyn TopologyProvider>,
    /// [`TrainConfig::faults`]' plan, expanded for this cluster: who is down
    /// when. The barrier and event schedulers replay it.
    pub(crate) faults: FaultTimeline,
    /// [`TrainConfig::attack`], expanded likewise.
    pub(crate) attacks: AttackTimeline,
    pub(crate) network: Arc<SimNetwork>,
    pub(crate) nodes: Vec<NodeState<M>>,
    /// The model workspaces, one per worker of the parallel phases:
    /// `min(threads, nodes)` of them, `threads` resolved once when the
    /// builder was created (`available_parallelism` reads cgroup files —
    /// never per node or per round).
    pub(crate) models: Vec<workers::Cell<M>>,
    /// Every node's flat parameters in one contiguous buffer (see
    /// [`ParamArena`]); `nodes[i]`'s window is `arena.node(i)`.
    pub(crate) arena: ParamArena,
    pub(crate) test: Arc<Vec<M::Sample>>,
    /// Run telemetry. Always present — the flight recorder inside is the
    /// always-on crash context — and only ever *read from* sequential code,
    /// so it can never perturb a result (see `jwins_trace`).
    pub(crate) tracer: Arc<Tracer>,
}

impl<M: Model> Trainer<M> {
    /// Starts building a trainer.
    pub fn builder(config: TrainConfig) -> TrainerBuilder<M> {
        let workspaces = match config.threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            threads => threads,
        };
        TrainerBuilder {
            config,
            topology: None,
            test: Vec::new(),
            arena: ParamArena::new(),
            models: VecDeque::new(),
            workspaces,
            mismatch: None,
            strategies: Vec::new(),
            shards: Vec::new(),
            sync_init: true,
            trace_sinks: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// A node's current flat parameters (test hook).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn node_params(&self, node: usize) -> &[f32] {
        self.arena.node(node)
    }

    /// Overwrites a node's parameters (test hook for consensus experiments).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or the length mismatches.
    pub fn set_node_params(&mut self, node: usize, params: &[f32]) {
        let window = self.arena.node_mut(node);
        assert_eq!(params.len(), window.len());
        window.copy_from_slice(params);
        self.nodes[node].strategy.init(params);
    }

    /// Runs the barrier or event scheduler (per [`TrainConfig::execution`])
    /// on resident workers, leaving the trained node states in place. The
    /// cells and the helpers are created here and gone on return: no thread
    /// is started after this point, and none survives it.
    fn run_scheduled(&mut self) -> Result<RunResult>
    where
        M: Send,
        M::Sample: Send + Sync,
    {
        self.run_with(None, barrier::Decodes::Shared)
    }

    /// [`Self::run_scheduled`] with the event scheduler's lookahead fixed to
    /// `lookahead` instead of derived, and the barrier's broadcasts decoded
    /// as `decodes` says — `Some` and `Private` only in tests, which compare
    /// against the one-event-at-a-time schedule and per-receiver decodes.
    fn run_with(
        &mut self,
        lookahead: Option<event::Lookahead>,
        decodes: barrier::Decodes,
    ) -> Result<RunResult>
    where
        M: Send,
        M::Sample: Send + Sync,
    {
        let board = Scoreboard::new(self);
        let cells = node_cells(&mut self.nodes, &mut self.arena);
        workers::with_workers(self.models.len(), |pool| {
            let run = Run {
                config: &self.config,
                topology: &*self.topology,
                faults: &self.faults,
                attacks: &self.attacks,
                network: &self.network,
                test: &self.test,
                tracer: &self.tracer,
                cells: &cells,
                models: &self.models,
                workers: pool,
            };
            match self.config.execution {
                ExecutionMode::BulkSynchronous => barrier::run_sync(&run, board, decodes),
                ExecutionMode::EventDriven => EventRun::new(run, board, lookahead).run(),
            }
        })
    }

    /// Executes the full run on the substrate selected by
    /// [`TrainConfig::execution`].
    ///
    /// # Errors
    ///
    /// Propagates strategy, codec and topology errors.
    pub fn run(mut self) -> Result<RunResult>
    where
        M: Send,
        M::Sample: Send + Sync,
    {
        let tracer = Arc::clone(&self.tracer);
        tracer.emit(TraceEvent::RunStart {
            nodes: self.nodes.len() as u32,
            rounds: self.config.rounds as u32,
            seed: self.config.seed,
        });
        // If anything below panics, the guard dumps the flight recorder's
        // tail to stderr before the process unwinds.
        let guard = jwins_trace::FlightDumpGuard::new(Arc::clone(&tracer));
        let result = self.run_scheduled();
        drop(guard);
        if result.is_err() {
            // Protocol violations surface as errors, not panics; dump the
            // same crash context for them.
            tracer.dump_flight_to_stderr("protocol violation");
        }
        tracer.finish();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::RoundRecord;
    use crate::strategies::FullSharing;
    use crate::strategy::{OutMessage, Outbound, ReceivedMessage};
    use jwins_data::images::{cifar_like, ImageConfig};
    use jwins_fault::{FaultOutage, FaultPlan};
    use jwins_nn::models::mlp_classifier;
    use jwins_topology::dynamic::StaticTopology;
    use std::collections::HashSet;
    use std::sync::Mutex;

    type TinyTrainer = Trainer<jwins_nn::models::ImageClassifier>;

    /// Four nodes on a degree-2 graph, each a small MLP sharing by
    /// `strategy(node)`.
    fn four_nodes_sharing(
        cfg: TrainConfig,
        mut strategy: impl FnMut(usize) -> Box<dyn ShareStrategy>,
    ) -> TrainerBuilder<jwins_nn::models::ImageClassifier> {
        let data = cifar_like(&ImageConfig::tiny(), 4, 2, 5);
        Trainer::builder(cfg)
            .topology(StaticTopology::random_regular(4, 2, 3).unwrap())
            .test_set(data.test)
            .nodes(data.node_train, |node| {
                (mlp_classifier(2 * 8 * 8, &[8], 4, 7), strategy(node))
            })
    }

    fn four_nodes(cfg: TrainConfig) -> TrainerBuilder<jwins_nn::models::ImageClassifier> {
        four_nodes_sharing(cfg, |_| Box::new(FullSharing::new()))
    }

    fn full_sharing(cfg: TrainConfig) -> TinyTrainer {
        four_nodes(cfg).build().unwrap()
    }

    fn tiny_trainer(rounds: usize, lr: f32) -> TinyTrainer {
        let mut cfg = TrainConfig::quick_test();
        cfg.rounds = rounds;
        cfg.lr = lr;
        cfg.eval_every = 0;
        full_sharing(cfg)
    }

    #[test]
    fn builder_validates_shapes() {
        let data = cifar_like(&ImageConfig::tiny(), 4, 2, 5);
        // Topology size mismatch: 3-node topology, 4 nodes.
        let err = Trainer::builder(TrainConfig::quick_test())
            .topology(StaticTopology::random_regular(4, 2, 3).unwrap())
            .test_set(data.test.clone())
            .nodes(data.node_train[..3].to_vec(), |_| {
                (
                    mlp_classifier(2 * 8 * 8, &[8], 4, 7),
                    Box::new(FullSharing::new()) as Box<dyn ShareStrategy>,
                )
            })
            .build();
        assert!(err.is_err());
        // One node's model is a different architecture: a configuration
        // error naming the node, whatever the init mode.
        for distinct in [false, true] {
            let mut builder = Trainer::builder(TrainConfig::quick_test())
                .topology(StaticTopology::random_regular(4, 2, 3).unwrap())
                .test_set(data.test.clone())
                .nodes(data.node_train.clone(), |node| {
                    let hidden = if node == 2 { 9 } else { 8 };
                    (
                        mlp_classifier(2 * 8 * 8, &[hidden], 4, 7),
                        Box::new(FullSharing::new()) as Box<dyn ShareStrategy>,
                    )
                });
            if distinct {
                builder = builder.keep_distinct_init();
            }
            let Err(JwinsError::InvalidConfig(what)) = builder.build() else {
                panic!("mismatched models must not build");
            };
            assert!(what.contains("node 2's model"), "{what}");
        }
    }

    #[test]
    fn builder_rejects_plans_naming_a_node_outside_the_cluster() {
        use jwins_adversary::{AttackPlan, AttackWindow};
        for execution in [ExecutionMode::BulkSynchronous, ExecutionMode::EventDriven] {
            let mut base = TrainConfig::quick_test();
            base.execution = execution;
            assert!(four_nodes(base.clone()).build().is_ok());
            let mut faulty = base.clone();
            faulty.faults.plan = FaultPlan::Scripted(vec![FaultOutage::new(99, 1.0, 1.0)]);
            let mut attacked = base;
            let flip = AttackWindow::forever(99, AttackBehavior::SignFlip);
            attacked.attack = AttackPlan::Scripted(vec![flip]);
            for (cfg, what) in [(faulty, "outage node 99"), (attacked, "attack node 99")] {
                let Err(JwinsError::InvalidConfig(why)) = four_nodes(cfg).build() else {
                    panic!("{what} must not build under {execution:?}");
                };
                assert!(why.contains(what), "{why}");
            }
        }
    }

    #[test]
    fn par_batch_keeps_item_order_and_reports_the_first_error_in_item_order() {
        let data = cifar_like(&ImageConfig::tiny(), 8, 2, 5);
        let mut trainer = Trainer::builder(TrainConfig::quick_test())
            .topology(StaticTopology::random_regular(8, 3, 3).unwrap())
            .test_set(data.test)
            .nodes(data.node_train, |_| {
                (
                    mlp_classifier(2 * 8 * 8, &[8], 4, 7),
                    Box::new(FullSharing::new()) as Box<dyn ShareStrategy>,
                )
            })
            .build()
            .unwrap();
        let all = || (0..8).map(|i| (i, 10 * i)).collect::<Vec<_>>();
        let spaces: Vec<workers::Cell<()>> = (0..8).map(|_| workers::Cell::new(())).collect();
        for threads in [1, 2, 8] {
            let cells = node_cells(&mut trainer.nodes, &mut trainer.arena);
            workers::with_workers(threads, |pool| {
                // Every node, in index order, each with its own arena window.
                let visited = pool
                    .batch(&cells, &spaces, all(), |i, slot, (), tag| {
                        slot.params[0] = i as f32;
                        Ok((i, tag))
                    })
                    .unwrap();
                assert_eq!(visited, all(), "threads = {threads}");
                for (i, cell) in cells.iter().enumerate() {
                    assert_eq!(cell.lock().params[0], i as f32);
                }
                // Nodes 2 and 5 both fail: the earlier *item* wins, whichever
                // worker finishes first and whatever the node ids are.
                for (items, first) in [(all(), 2), (all().into_iter().rev().collect(), 5)] {
                    let err = pool
                        .batch(&cells, &spaces, items, |i, _, (), _| match i {
                            2 | 5 => Err(JwinsError::InvalidConfig(format!("node {i}"))),
                            _ => Ok(()),
                        })
                        .unwrap_err();
                    assert_eq!(
                        err.to_string(),
                        format!("invalid configuration: node {first}"),
                        "threads = {threads}"
                    );
                }
            });
        }
    }

    #[test]
    fn all_nodes_start_identical() {
        let trainer = tiny_trainer(1, 0.05);
        let p0 = trainer.node_params(0).to_vec();
        for i in 1..trainer.node_count() {
            assert_eq!(trainer.node_params(i), &p0[..]);
        }
    }

    #[test]
    fn consensus_on_pure_gossip() {
        // lr so small that gradients are negligible: full sharing must
        // contract distinct initial models toward their mean.
        let mut trainer = tiny_trainer(25, 1e-9);
        let d = trainer.node_params(0).len();
        for i in 0..4 {
            let params: Vec<f32> = (0..d).map(|k| ((k + i * 13) as f32 * 0.01).sin()).collect();
            trainer.set_node_params(i, &params);
        }
        let before_spread = {
            let p0 = trainer.node_params(0).to_vec();
            let p1 = trainer.node_params(1).to_vec();
            p0.iter()
                .zip(&p1)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max)
        };
        let mut means = vec![0.0f64; d];
        for i in 0..4 {
            for (m, &v) in means.iter_mut().zip(trainer.node_params(i)) {
                *m += f64::from(v) / 4.0;
            }
        }
        let result = run_and_reclaim(trainer);
        let (after_params, _) = result;
        let spread = (0..d)
            .map(|k| {
                let vals: Vec<f32> = after_params.iter().map(|p| p[k]).collect();
                let max = vals.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let min = vals.iter().copied().fold(f32::INFINITY, f32::min);
                max - min
            })
            .fold(0.0f32, f32::max);
        assert!(
            spread < before_spread * 0.05,
            "no contraction: spread {spread} vs initial {before_spread}"
        );
        // Doubly stochastic mixing preserves the mean.
        for k in 0..d {
            let mean_after: f64 = after_params.iter().map(|p| f64::from(p[k])).sum::<f64>() / 4.0;
            assert!((mean_after - means[k]).abs() < 1e-4);
        }
    }

    /// Runs the configured scheduler (the barrier one, in these tests) in
    /// place and returns final per-node params plus the result —
    /// `Trainer::run` consumes the trainer, so the node state would not be
    /// inspectable through it.
    fn run_and_reclaim(mut trainer: TinyTrainer) -> (Vec<Vec<f32>>, RunResult) {
        let result = trainer.run_scheduled().unwrap();
        let params = (0..trainer.node_count())
            .map(|i| trainer.node_params(i).to_vec())
            .collect();
        (params, result)
    }

    #[test]
    fn training_reduces_loss_and_counts_bytes() {
        let trainer = tiny_trainer(12, 0.1);
        let result = trainer.run().unwrap();
        assert_eq!(result.rounds_run, 12);
        let last = result.final_record().unwrap();
        assert!(last.test_accuracy > 0.3, "accuracy {}", last.test_accuracy);
        assert!(result.total_traffic.bytes_sent > 0);
        assert!(last.cum_bytes_per_node > 0.0);
        assert!(last.sim_time_s > 0.0);
    }

    #[test]
    fn runs_are_deterministic() {
        let r1 = tiny_trainer(4, 0.1).run().unwrap();
        let r2 = tiny_trainer(4, 0.1).run().unwrap();
        assert_eq!(
            r1.final_record().unwrap().test_accuracy,
            r2.final_record().unwrap().test_accuracy
        );
        assert_eq!(r1.total_traffic.bytes_sent, r2.total_traffic.bytes_sent);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let mk = |threads: usize| {
            let mut cfg = TrainConfig::quick_test();
            cfg.rounds = 4;
            cfg.lr = 0.1;
            cfg.threads = threads;
            full_sharing(cfg)
        };
        let a = mk(1).run().unwrap();
        let b = mk(4).run().unwrap();
        assert_eq!(
            a.final_record().unwrap().test_accuracy,
            b.final_record().unwrap().test_accuracy
        );
        assert_eq!(a.total_traffic.bytes_sent, b.total_traffic.bytes_sent);
    }

    #[test]
    fn node_factory_receives_consecutive_indices() {
        // Regression: the factory index is the engine's node id, not
        // 0, 2, 4, … (the old bug).
        let mut seen = Vec::new();
        let _ = four_nodes_sharing(TrainConfig::quick_test(), |node| {
            seen.push(node);
            Box::new(FullSharing::new())
        });
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn per_edge_strategy_trains_end_to_end() {
        use crate::strategies::RandomModelWalk;
        let mut cfg = TrainConfig::quick_test();
        cfg.rounds = 15;
        cfg.lr = 0.1;
        let trainer =
            four_nodes_sharing(cfg, |node| Box::new(RandomModelWalk::new(42 + node as u64)));
        let result = trainer.build().unwrap().run().unwrap();
        let last = result.final_record().unwrap();
        assert!(last.test_accuracy > 0.3, "accuracy {}", last.test_accuracy);
        // One full model per node-round, on one of its two edges.
        assert_eq!(result.total_traffic.messages_sent, 15 * 4);
    }

    #[test]
    fn lossy_links_still_train_broadcast_strategies() {
        let mut cfg = TrainConfig::quick_test();
        cfg.rounds = 12;
        cfg.lr = 0.1;
        cfg.message_loss = 0.2;
        let trainer = full_sharing(cfg);
        let result = trainer.run().unwrap();
        // 20% of deliveries vanish; renormalized averaging shrugs it off.
        assert!(result.total_traffic.messages_dropped > 0);
        assert!(
            result.total_traffic.bytes_received < result.total_traffic.bytes_sent,
            "drops must show up as a sent/received gap"
        );
        assert!(result.final_record().unwrap().test_accuracy > 0.3);
    }

    /// A barrier run of [`four_nodes`] under `plan`, one second per round
    /// (so outages read in rounds), with its trace.
    fn churned(rounds: usize, plan: FaultPlan) -> (RunResult, Vec<TraceEvent>) {
        let mut cfg = TrainConfig::quick_test();
        cfg.rounds = rounds;
        cfg.lr = 0.05;
        cfg.eval_every = 1;
        cfg.time_model = jwins_net::TimeModel::fixed_round(1.0);
        cfg.faults.plan = plan;
        let sink = jwins_trace::MemorySink::new();
        let trainer = four_nodes(cfg).trace_sink(Box::new(sink.clone()));
        (trainer.build().unwrap().run().unwrap(), sink.events())
    }

    fn outage(node: usize, at_s: f64, down_s: f64) -> FaultPlan {
        FaultPlan::Scripted(vec![FaultOutage::new(node, at_s, down_s)])
    }

    /// The crashes and rejoins of a trace, in order.
    fn lifecycle(trace: &[TraceEvent]) -> Vec<TraceEvent> {
        let kept = |e: &&TraceEvent| {
            matches!(
                e,
                TraceEvent::NodeCrash { .. } | TraceEvent::NodeRejoin { .. }
            )
        };
        trace.iter().filter(kept).copied().collect()
    }

    #[test]
    fn scripted_outage_pauses_node_traffic() {
        let (full, _) = churned(6, FaultPlan::None);
        let (churned, _) = churned(6, outage(3, 1.0, 4.0));
        // The absent node neither sends nor receives for 4 of 6 rounds.
        assert!(
            churned.total_traffic.bytes_sent < full.total_traffic.bytes_sent,
            "{} vs {}",
            churned.total_traffic.bytes_sent,
            full.total_traffic.bytes_sent
        );
        // Training still completes and produces a usable model.
        assert_eq!(churned.rounds_run, 6);
        assert!(churned.final_record().unwrap().test_accuracy > 0.2);
    }

    #[test]
    fn barrier_outage_sits_out_exactly_its_rounds() {
        let (full, _) = churned(40, FaultPlan::None);
        let (result, trace) = churned(40, outage(3, 5.0, 20.0));
        // Down over [5 s, 25 s): rounds 5–24 carry no message from or to
        // node 3, every other round its full degree-2 fan-out and fan-in.
        let mut touching = [0; 40];
        for event in &trace {
            match *event {
                TraceEvent::MsgSend {
                    from, to, round, ..
                } if from == 3 || to == 3 => touching[round as usize] += 1,
                _ => {}
            }
        }
        for (round, &messages) in touching.iter().enumerate() {
            let expected = if (5..25).contains(&round) { 0 } else { 4 };
            assert_eq!(messages, expected, "round {round}");
        }
        assert_eq!(
            full.total_traffic.messages_sent - result.total_traffic.messages_sent,
            20 * 4
        );
        let last = result.final_record().unwrap();
        assert_eq!((last.crashes, last.rejoins), (1, 1));
        // One crash, one rejoin, stamped on the barrier clock — on which the
        // whole trace is monotone (what `trace_report --check` asks).
        assert!(trace.windows(2).all(|w| w[0].t_ns() <= w[1].t_ns()));
        let crash = TraceEvent::NodeCrash {
            t_ns: SimTime::from_secs_f64(5.0).0,
            node: 3,
            epoch: 1,
            permanent: false,
        };
        let rejoin = TraceEvent::NodeRejoin {
            t_ns: SimTime::from_secs_f64(25.0).0,
            node: 3,
            epoch: 1,
            resync_from: None,
        };
        assert_eq!(lifecycle(&trace), vec![crash, rejoin]);
    }

    #[test]
    fn barrier_permanent_crash_never_rejoins() {
        let (result, trace) = churned(8, outage(2, 3.0, f64::INFINITY));
        let last = result.final_record().unwrap();
        assert_eq!((last.crashes, last.rejoins), (1, 0));
        let crash = TraceEvent::NodeCrash {
            t_ns: SimTime::from_secs_f64(3.0).0,
            node: 2,
            epoch: 1,
            permanent: true,
        };
        assert_eq!(lifecycle(&trace), vec![crash]);
    }

    #[test]
    fn barrier_outage_inside_one_round_costs_no_round() {
        let (full, _) = churned(6, FaultPlan::None);
        let (blip, _) = churned(6, outage(1, 2.2, 0.3));
        assert_eq!(full.total_traffic, blip.total_traffic);
        assert_eq!(full.records.len(), blip.records.len());
        for (a, b) in full.records.iter().zip(&blip.records) {
            // Both events are replayed at the start of round 3.
            let counted = RoundRecord {
                crashes: u64::from(b.round >= 3),
                rejoins: u64::from(b.round >= 3),
                ..a.clone()
            };
            assert_eq!(&counted, b);
        }
        assert_eq!(blip.final_record().unwrap().crashes, 1);
    }

    #[test]
    fn barrier_rejoin_resyncs_from_the_lowest_live_node_or_restarts_warm() {
        // No edges and a vanishing learning rate: every node keeps the
        // parameters it was given, so a copy shows.
        let run = |rejoin: RejoinMode| {
            let data = cifar_like(&ImageConfig::tiny(), 4, 2, 5);
            let mut cfg = TrainConfig::quick_test();
            cfg.rounds = 6;
            cfg.lr = 1e-9;
            cfg.time_model = jwins_net::TimeModel::fixed_round(1.0);
            // Node 0 is still down when node 3 returns: the donor is node 1.
            cfg.faults.plan = FaultPlan::Scripted(vec![
                FaultOutage::new(0, 1.0, f64::INFINITY),
                FaultOutage {
                    rejoin,
                    ..FaultOutage::new(3, 1.0, 2.0)
                },
            ]);
            let graph = jwins_topology::Graph::from_edges(4, &[]).unwrap();
            let trainer = Trainer::builder(cfg)
                .topology(StaticTopology::new(graph))
                .test_set(data.test)
                .nodes(data.node_train, |node| {
                    (
                        mlp_classifier(2 * 8 * 8, &[8], 4, 7 + node as u64),
                        Box::new(FullSharing::new()) as Box<dyn ShareStrategy>,
                    )
                })
                .keep_distinct_init()
                .build()
                .unwrap();
            let before: Vec<Vec<f32>> = (0..4).map(|i| trainer.node_params(i).to_vec()).collect();
            (before, run_and_reclaim(trainer).0)
        };
        let close = |a: &[f32], b: &[f32]| a.iter().zip(b).all(|(x, y)| (x - y).abs() < 1e-6);
        let (before, after) = run(RejoinMode::Resync);
        assert!(!close(&before[3], &before[1]), "inits must be distinct");
        assert!(close(&after[3], &before[1]), "adopted node 1's model");
        let (before, after) = run(RejoinMode::Warm);
        assert!(close(&after[3], &before[3]), "kept its own model");
    }

    #[test]
    fn sparsifying_strategy_survives_churn() {
        use crate::strategies::{Jwins, JwinsConfig};
        let mut cfg = TrainConfig::quick_test();
        cfg.rounds = 10;
        cfg.lr = 0.05;
        cfg.time_model = jwins_net::TimeModel::fixed_round(1.0);
        // Down 40 % of the time, one round at a stretch on average.
        cfg.faults.plan = FaultPlan::RandomChurn {
            mean_up_s: 1.5,
            mean_down_s: 1.0,
            horizon_s: 10.0,
            rejoin: RejoinMode::Warm,
        };
        let trainer = four_nodes_sharing(cfg, |node| {
            Box::new(Jwins::new(JwinsConfig::paper_default(), 100 + node as u64))
        });
        // Protocol bookkeeping (pending rounds, accumulation resets) must
        // tolerate nodes skipping rounds entirely.
        let result = trainer.build().unwrap().run().unwrap();
        assert_eq!(result.rounds_run, 10);
        assert!(result.final_record().unwrap().crashes > 0, "nobody left");
    }

    #[test]
    fn event_driven_degenerate_profile_matches_sync_bitwise() {
        use jwins_sim::HeterogeneityProfile;
        let build = |execution: ExecutionMode| {
            let mut cfg = TrainConfig::quick_test();
            cfg.rounds = 8;
            cfg.lr = 0.1;
            cfg.eval_every = 2;
            cfg.execution = execution;
            cfg.heterogeneity = HeterogeneityProfile::default();
            full_sharing(cfg)
        };
        let sync = build(ExecutionMode::BulkSynchronous).run().unwrap();
        let event = build(ExecutionMode::EventDriven).run().unwrap();
        assert_eq!(sync.rounds_run, event.rounds_run);
        assert_eq!(sync.total_traffic, event.total_traffic);
        assert_eq!(sync.records.len(), event.records.len());
        for (s, e) in sync.records.iter().zip(&event.records) {
            assert_eq!(s.round, e.round);
            assert_eq!(s.train_loss.to_bits(), e.train_loss.to_bits());
            assert_eq!(s.test_loss.to_bits(), e.test_loss.to_bits());
            assert_eq!(s.test_accuracy.to_bits(), e.test_accuracy.to_bits());
            assert_eq!(s.cum_bytes_per_node, e.cum_bytes_per_node);
            // Instant links leave nothing in flight, so nothing is stale.
            assert_eq!(e.mean_staleness_s, 0.0);
        }
    }

    #[test]
    fn stragglers_slow_the_clock_and_create_staleness() {
        use jwins_sim::HeterogeneityProfile;
        let mut cfg = TrainConfig::quick_test();
        cfg.rounds = 6;
        cfg.lr = 0.1;
        cfg.eval_every = 0;
        cfg.time_model.compute_s = 1.0;
        cfg.execution = ExecutionMode::EventDriven;
        // One node 4x slower over thin links: messages now spend real time
        // in flight and fast nodes mix stale models.
        cfg.heterogeneity = HeterogeneityProfile::stragglers(0.25, 4.0, 0.01, 64_000.0);
        let trainer = full_sharing(cfg);
        let result = trainer.run().unwrap();
        assert_eq!(result.rounds_run, 6);
        let last = result.final_record().unwrap();
        // The straggler bounds the run: at least rounds * slowed compute.
        assert!(last.sim_time_s >= 6.0 * 4.0, "sim time {}", last.sim_time_s);
        assert!(last.mean_staleness_s > 0.0, "expected stale mixes");
        assert!(result.total_traffic.bytes_sent > 0);
    }

    #[test]
    fn event_driven_replays_identically_and_ignores_thread_count() {
        use jwins_sim::HeterogeneityProfile;
        let run = |threads: usize| {
            let mut cfg = TrainConfig::quick_test();
            cfg.rounds = 5;
            cfg.lr = 0.1;
            cfg.threads = threads;
            cfg.eval_every = 1;
            cfg.execution = ExecutionMode::EventDriven;
            cfg.heterogeneity = HeterogeneityProfile::stragglers(0.5, 3.0, 0.002, 1.0e6);
            full_sharing(cfg).run().unwrap()
        };
        let a = run(1);
        let b = run(1);
        let c = run(4);
        for other in [&b, &c] {
            assert_eq!(a.rounds_run, other.rounds_run);
            assert_eq!(a.total_traffic, other.total_traffic);
            assert_eq!(a.records.len(), other.records.len());
            for (x, y) in a.records.iter().zip(&other.records) {
                assert_eq!(x.test_accuracy.to_bits(), y.test_accuracy.to_bits());
                assert_eq!(x.train_loss.to_bits(), y.train_loss.to_bits());
                assert_eq!(x.sim_time_s.to_bits(), y.sim_time_s.to_bits());
                assert_eq!(x.mean_staleness_s.to_bits(), y.mean_staleness_s.to_bits());
            }
        }
    }

    #[test]
    fn repair_rewires_around_a_permanent_crash_and_saves_bytes() {
        use jwins_fault::{FaultConfig, FaultOutage, FaultPlan};
        use jwins_topology::repair::RepairPolicy;
        let run = |repair: RepairPolicy| {
            let data = cifar_like(&ImageConfig::tiny(), 8, 2, 5);
            let mut cfg = TrainConfig::quick_test();
            cfg.rounds = 6;
            cfg.lr = 0.1;
            cfg.eval_every = 1;
            cfg.execution = ExecutionMode::EventDriven;
            cfg.time_model.compute_s = 1.0;
            cfg.repair = repair;
            cfg.faults = FaultConfig {
                plan: FaultPlan::Scripted(vec![FaultOutage::new(2, 2.5, f64::INFINITY)]),
                ..FaultConfig::default()
            };
            Trainer::builder(cfg)
                .topology(StaticTopology::random_regular(8, 3, 3).unwrap())
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
        };
        let none = run(RepairPolicy::None);
        let repaired = run(RepairPolicy::DegreePreserving);
        let last_none = none.records.last().unwrap();
        let last_rep = repaired.records.last().unwrap();
        assert_eq!(last_none.edges_rewired, 0);
        assert_eq!(last_none.bandwidth_saved_bytes, 0);
        assert!(last_rep.edges_rewired > 0, "survivors re-wired");
        assert!(
            last_rep.bandwidth_saved_bytes > 0,
            "dead-edge sends avoided"
        );
        // Without repair the dead node's neighbours keep paying for it.
        assert!(
            repaired.total_traffic.bytes_sent < none.total_traffic.bytes_sent,
            "repair must reduce bytes: {} vs {}",
            repaired.total_traffic.bytes_sent,
            none.total_traffic.bytes_sent
        );
        // Per-node accuracies are reported for every node at every eval.
        assert_eq!(last_rep.per_node_accuracy.len(), 8);
        assert!(
            (last_rep.per_node_accuracy.iter().sum::<f64>() / 8.0 - last_rep.test_accuracy).abs()
                < 1e-9,
            "per-node accuracies are consistent with the cluster mean"
        );
    }

    /// Eight nodes of 536 parameters each on `topology`, sharing by
    /// `strategy(node)`, traced into `sink`.
    fn eight_nodes(
        cfg: TrainConfig,
        topology: impl TopologyProvider + 'static,
        mut strategy: impl FnMut(usize) -> Box<dyn ShareStrategy>,
        sink: &jwins_trace::MemorySink,
    ) -> TinyTrainer {
        let data = cifar_like(&ImageConfig::tiny(), 8, 2, 5);
        Trainer::builder(cfg)
            .topology(topology)
            .test_set(data.test)
            .nodes(data.node_train, |node| {
                (mlp_classifier(2 * 8 * 8, &[4], 4, 7), strategy(node))
            })
            .trace_sink(Box::new(sink.clone()))
            .build()
            .unwrap()
    }

    /// The `mlp_full_async` shape of the repo benchmark at test size: a
    /// quarter of the nodes 4× slower, 5 ms / 100 Mbit/s links.
    fn straggler_config(rounds: usize) -> TrainConfig {
        let mut cfg = TrainConfig::quick_test();
        cfg.rounds = rounds;
        cfg.lr = 0.1;
        cfg.eval_every = 2;
        cfg.execution = ExecutionMode::EventDriven;
        cfg.heterogeneity = jwins_sim::HeterogeneityProfile::stragglers(0.25, 4.0, 0.005, 12.5e6);
        cfg
    }

    /// Everything of a run that a schedule could change: the result, the
    /// trace without its `ExecuteBatch` lines, their count, and every
    /// node's final parameters.
    struct Observed {
        result: RunResult,
        trace: Vec<TraceEvent>,
        batches: usize,
        params: Vec<Vec<f32>>,
    }

    fn observe(
        build: &dyn Fn(usize, &jwins_trace::MemorySink) -> TinyTrainer,
        threads: usize,
        lookahead: Option<event::Lookahead>,
    ) -> Observed {
        let sink = jwins_trace::MemorySink::new();
        let mut trainer = build(threads, &sink);
        let result = trainer
            .run_with(lookahead, barrier::Decodes::Shared)
            .unwrap();
        let (batches, trace): (Vec<_>, Vec<_>) = sink
            .events()
            .into_iter()
            .partition(|e| matches!(e, TraceEvent::ExecuteBatch { .. }));
        Observed {
            result,
            trace,
            batches: batches.len(),
            params: (0..trainer.node_count())
                .map(|i| trainer.node_params(i).to_vec())
                .collect(),
        }
    }

    /// Runs `build(threads, sink)` under the derived lookahead and under the
    /// one-event-at-a-time reference (`H = 0`, cap 1), for one and two
    /// threads, and asserts the two schedules indistinguishable: records,
    /// traffic, early stop, the trace modulo `ExecuteBatch`, final
    /// parameters. Returns the two `ExecuteBatch` counts (threads = 2).
    fn assert_lookahead_is_exact(
        what: &str,
        build: &dyn Fn(usize, &jwins_trace::MemorySink) -> TinyTrainer,
    ) -> (usize, Observed) {
        let mut last = None;
        for threads in [1, 2] {
            let ahead = observe(build, threads, None);
            let reference = observe(build, threads, Some(event::Lookahead::ONE_AT_A_TIME));
            let (a, r) = (&ahead.result, &reference.result);
            assert_eq!(a.records, r.records, "{what}, threads {threads}");
            assert_eq!(a.total_traffic, r.total_traffic, "{what}");
            assert_eq!(a.rounds_run, r.rounds_run, "{what}");
            assert_eq!(a.reached_target, r.reached_target, "{what}");
            assert_eq!(a.alpha_history, r.alpha_history, "{what}");
            assert_eq!(ahead.trace, reference.trace, "{what}, threads {threads}");
            let bits = |params: &[Vec<f32>]| -> Vec<Vec<u32>> {
                let node = |p: &Vec<f32>| p.iter().map(|v| v.to_bits()).collect();
                params.iter().map(node).collect()
            };
            assert_eq!(bits(&ahead.params), bits(&reference.params), "{what}");
            // One event per window in the reference: nothing stale, so one
            // `ExecuteBatch` per executed train or mix.
            assert!(ahead.batches <= reference.batches, "{what}");
            last = Some((ahead.batches, reference));
        }
        last.expect("two thread counts ran")
    }

    #[test]
    fn lookahead_is_exact_under_stragglers_and_uniform_links() {
        let ring = || StaticTopology::random_regular(8, 4, 3).unwrap();
        let (windows, reference) = assert_lookahead_is_exact("stragglers", &|threads, sink| {
            let mut cfg = straggler_config(6);
            cfg.threads = threads;
            eight_nodes(cfg, ring(), |_| Box::new(FullSharing::new()), sink)
        });
        // The test is not vacuous: the six fast nodes' events, microseconds
        // apart, share windows — the reference executed them one by one.
        assert_eq!(reference.batches, 2 * 8 * 6);
        assert!(
            windows * 2 < reference.batches,
            "{windows} windows for {} events",
            reference.batches
        );
        assert!(reference.result.final_record().unwrap().mean_staleness_s > 0.0);
    }

    #[test]
    fn lookahead_never_runs_past_an_evaluation_that_stops_the_run() {
        // Every round is evaluated and the target is hit mid-run: whatever
        // executed ahead of the stopping evaluation would show in the final
        // parameters, and whatever executed ahead of any evaluation in its
        // record.
        let (_, reference) = assert_lookahead_is_exact("early stop", &|threads, sink| {
            let mut cfg = straggler_config(30);
            cfg.threads = threads;
            cfg.eval_every = 1;
            cfg.lr = 0.01;
            cfg.target_accuracy = Some(0.95);
            let ring = StaticTopology::random_regular(8, 4, 3).unwrap();
            eight_nodes(cfg, ring, |_| Box::new(FullSharing::new()), sink)
        });
        let stopped = reference.result.rounds_run;
        assert!(reference.result.reached_target.is_some(), "target not hit");
        assert!((2..30).contains(&stopped), "stopped after {stopped} rounds");
    }

    #[test]
    fn lookahead_is_clamped_to_the_shortest_round() {
        // A fast node's round (1 ms of compute) is shorter than the link
        // latency (5 ms), and that node rejoins far behind two stragglers
        // whose 4 ms trains are pending: unclamped, a window opened by the
        // rejoiner's round-r event would hold a straggler's train that fires
        // after the rejoiner's round r+1 completes — and evaluates — inside
        // that very window (fact (b)). Every second round is evaluated so
        // that round r itself closes nothing.
        use jwins_sim::ComputeProfile;
        let (windows, reference) = assert_lookahead_is_exact("short rounds", &|threads, sink| {
            let mut cfg = straggler_config(12);
            cfg.threads = threads;
            cfg.time_model.compute_s = 0.001;
            let speeds = vec![1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.25, 0.25];
            cfg.heterogeneity.compute = ComputeProfile::Explicit(speeds);
            cfg.faults.plan = FaultPlan::Scripted(vec![FaultOutage::new(0, 0.0005, 0.0295)]);
            let ring = StaticTopology::random_regular(8, 4, 3).unwrap();
            eight_nodes(cfg, ring, |_| Box::new(FullSharing::new()), sink)
        });
        assert!(windows < reference.batches, "no window held two events");
        assert_eq!(reference.result.final_record().unwrap().rejoins, 1);
    }

    #[test]
    fn lookahead_is_exact_under_faults_loss_and_expiry() {
        use jwins_fault::StalenessPolicy;
        use jwins_topology::repair::RepairPolicy;
        let ring = || StaticTopology::random_regular(8, 4, 3).unwrap();
        let full = |_| Box::new(FullSharing::new()) as Box<dyn ShareStrategy>;
        // A crash mid-round, a Resync rejoin, survivors re-wired meanwhile.
        let (_, crashed) = assert_lookahead_is_exact("crash + resync", &|threads, sink| {
            let mut cfg = straggler_config(8);
            cfg.threads = threads;
            cfg.eval_every = 1;
            cfg.repair = RepairPolicy::DegreePreserving;
            cfg.faults.plan = FaultPlan::Scripted(vec![FaultOutage {
                rejoin: RejoinMode::Resync,
                ..FaultOutage::new(2, 0.12, 0.2)
            }]);
            eight_nodes(cfg, ring(), full, sink)
        });
        let last = crashed.result.final_record().unwrap();
        assert_eq!((last.crashes, last.rejoins), (1, 1));
        assert!(last.edges_rewired > 0, "repair never ran");
        // Per-link loss sequences advance at commit, in queue order.
        let (_, lossy) = assert_lookahead_is_exact("message loss", &|threads, sink| {
            let mut cfg = straggler_config(6);
            cfg.threads = threads;
            cfg.message_loss = 0.2;
            eight_nodes(cfg, ring(), full, sink)
        });
        assert!(lossy.result.total_traffic.messages_dropped > 0);
        // A TTL shorter than the stragglers' lag expires messages at drain,
        // and a round cap down-weights what survives.
        let (_, expiring) = assert_lookahead_is_exact("staleness ttl", &|threads, sink| {
            let mut cfg = straggler_config(6);
            cfg.threads = threads;
            cfg.faults.staleness = StalenessPolicy {
                ttl_s: Some(0.1),
                ..StalenessPolicy::decay_after_rounds(1, 0.5)
            };
            eight_nodes(cfg, ring(), full, sink)
        });
        let last = expiring.result.final_record().unwrap();
        assert!(last.messages_expired > 0, "the TTL never fired");
    }

    #[test]
    fn lookahead_is_exact_for_per_edge_messages_on_a_dynamic_topology() {
        use jwins_topology::dynamic::DynamicRegular;
        let (windows, reference) = assert_lookahead_is_exact("random walk", &|threads, sink| {
            let mut cfg = straggler_config(8);
            cfg.threads = threads;
            cfg.eval_every = 1;
            let topology = DynamicRegular::new(8, 4, 11).unwrap();
            let chosen = Arc::new(Mutex::new(HashSet::new()));
            let walk = |node| {
                let strategy = Routed {
                    inner: crate::strategies::RandomModelWalk::new(42 + node as u64),
                    node,
                    chosen: Arc::clone(&chosen),
                };
                Box::new(strategy) as Box<dyn ShareStrategy>
            };
            eight_nodes(cfg, topology, walk, sink)
        });
        assert!(windows < reference.batches, "no window held two events");
        assert_eq!(reference.result.total_traffic.messages_sent, 8 * 8);
    }

    /// A per-edge strategy that checks the engine's routing: every message
    /// a node mixes must come on an edge its sender chose for it.
    struct Routed {
        inner: crate::strategies::RandomModelWalk,
        node: usize,
        /// `(from, to, round)` of every message built in the run.
        chosen: Arc<Mutex<HashSet<(usize, usize, usize)>>>,
    }

    impl ShareStrategy for Routed {
        fn name(&self) -> &'static str {
            "routed"
        }

        fn init(&mut self, params: &[f32]) {
            self.inner.init(params);
        }

        fn make_message(&mut self, round: usize, params: &[f32]) -> Result<OutMessage> {
            self.inner.make_message(round, params)
        }

        fn make_outbound(
            &mut self,
            round: usize,
            params: &[f32],
            neighbors: &[usize],
        ) -> Result<Outbound> {
            let outbound = self.inner.make_outbound(round, params, neighbors)?;
            if let Outbound::PerEdge(messages) = &outbound {
                let mut chosen = self.chosen.lock().unwrap();
                for (&to, _) in neighbors.iter().zip(messages).filter(|(_, m)| m.is_some()) {
                    chosen.insert((self.node, to, round));
                }
            }
            Ok(outbound)
        }

        fn aggregate(
            &mut self,
            round: usize,
            params: &[f32],
            self_weight: f64,
            received: &[ReceivedMessage<'_>],
        ) -> Result<Vec<f32>> {
            let chosen = self.chosen.lock().unwrap();
            for msg in received {
                if !chosen.contains(&(msg.from, self.node, msg.round)) {
                    return Err(JwinsError::Protocol(
                        "message on an edge its sender did not choose",
                    ));
                }
            }
            drop(chosen);
            self.inner.aggregate(round, params, self_weight, received)
        }
    }

    /// A broadcast decoded once for all its receivers folds exactly as the
    /// bytes each would have decoded: same records, same trace, same
    /// parameters, whatever the worker count and the robust rule, with a
    /// sign-flipping node among the senders.
    #[test]
    fn shared_decodes_match_private_decodes() {
        use crate::strategies::{Jwins, JwinsConfig};
        use jwins_adversary::{AttackPlan, AttackWindow, Robust};
        let jwins = |node: usize| {
            let strategy = Jwins::new(JwinsConfig::paper_default(), 100 + node as u64);
            Box::new(strategy) as Box<dyn ShareStrategy>
        };
        let full = |_| Box::new(FullSharing::new()) as Box<dyn ShareStrategy>;
        type Factory<'f> = &'f dyn Fn(usize) -> Box<dyn ShareStrategy>;
        let strategies: [(&str, Factory); 2] = [("jwins", &jwins), ("full sharing", &full)];
        for (name, strategy) in strategies {
            for robust in [Robust::None, Robust::Median] {
                for threads in [1, 2, 8] {
                    let run = |decodes| {
                        let mut cfg = TrainConfig::quick_test();
                        cfg.rounds = 8;
                        cfg.lr = 0.1;
                        cfg.eval_every = 2;
                        cfg.threads = threads;
                        cfg.robust = robust;
                        cfg.record_alphas = true;
                        let flip = AttackWindow::forever(3, AttackBehavior::SignFlip);
                        cfg.attack = AttackPlan::Scripted(vec![flip]);
                        let sink = jwins_trace::MemorySink::new();
                        let topology = StaticTopology::random_regular(8, 4, 3).unwrap();
                        let mut trainer = eight_nodes(cfg, topology, strategy, &sink);
                        let result = trainer.run_with(None, decodes).unwrap();
                        let params: Vec<Vec<u32>> = (0..8)
                            .map(|i| trainer.node_params(i).iter().map(|v| v.to_bits()).collect())
                            .collect();
                        (result, sink.events(), params)
                    };
                    let what = format!("{name}, {robust:?}, threads {threads}");
                    let (shared, shared_trace, shared_params) = run(barrier::Decodes::Shared);
                    let (private, private_trace, private_params) = run(barrier::Decodes::Private);
                    assert_eq!(shared.records, private.records, "{what}");
                    assert_eq!(shared.total_traffic, private.total_traffic, "{what}");
                    assert_eq!(shared_trace, private_trace, "{what}");
                    assert_eq!(shared_params, private_params, "{what}");
                    assert_eq!(shared.final_record().unwrap().attacks_injected, 8, "{what}");
                    // Not vacuous for JWINS: full-budget shares, the
                    // implied frames, went out.
                    let full_budget = shared.alpha_history.iter().flatten().any(|&a| a == 1.0);
                    assert!(full_budget, "{what}");
                }
            }
        }
    }

    #[test]
    fn early_stop_on_target() {
        let mut cfg = TrainConfig::quick_test();
        cfg.rounds = 50;
        cfg.lr = 0.1;
        cfg.eval_every = 1;
        cfg.target_accuracy = Some(0.3);
        let trainer = full_sharing(cfg);
        let result = trainer.run().unwrap();
        let hit = result
            .reached_target
            .expect("should reach 30% on tiny data");
        assert!(result.rounds_run < 50, "stopped at {}", result.rounds_run);
        assert_eq!(hit.round + 1, result.rounds_run);
    }
}
