//! The event scheduler: the round program on a virtual clock, with faults,
//! staleness and topology repair.
//!
//! Each node cycles through three events on the shared virtual clock:
//!
//! 1. `StartRound` — resolve the round's topology if this node is the first
//!    to start it, and schedule `TrainDone` after `compute_s / speed`
//!    seconds;
//! 2. `TrainDone` — run the local half of the round program, then serialize
//!    this round's messages over the uplink one neighbour at a time (each
//!    arrives `latency + bytes/bandwidth` after its transmission starts) and
//!    schedule `Mix` once the last byte has left;
//! 3. `Mix` — drain every message that has *arrived* by the local clock and
//!    survived the staleness policy (TTL expiry at drain, over-cap drop or
//!    down-weighting at mix — down-weighted mass moves to the self-weight so
//!    mixing stays row-stochastic), mix, and start the next round.
//!
//! The fault plan (see `jwins_fault`) is replayed as `Crash`/`Recover`
//! events: a crash abandons the node's round in progress, destroys its inbox
//! and its in-flight outgoing messages, and invalidates its scheduled events
//! via lifecycle epochs; a recovery rejoins warm or re-synced from the
//! lowest-indexed live peer and resumes with the node's next round.
//! `TrainConfig::eval_interval_s` adds virtual-time evaluation checkpoints
//! so fast nodes' progress is visible mid-round.
//!
//! Simultaneous events are ordered fault < train < mix < start < eval, then
//! by node id, so equal-time rounds interleave exactly like the barrier
//! scheduler — which is why a degenerate heterogeneity profile (with a no-op
//! fault config) reproduces bulk-synchronous results bit-for-bit.
//!
//! Independent simultaneous events (same kind — same round, for mixes — on
//! disjoint nodes) execute as one parallel batch whose side effects are
//! buffered and committed in pop order: [`EventRun::on_train`] and
//! [`EventRun::on_mix`] are each a propose / execute / commit triple. See
//! the [`super`] docs for the full contract and why `threads` cannot change
//! any result.
//!
//! Every trace emit sits in sequential propose/commit code and only *reads*
//! engine state, so tracing can never perturb RNG draws, event order or any
//! `RoundRecord` bit. Wall-clock phase timings (the `ExecuteBatch` side
//! channel) are the one non-deterministic payload;
//! `TraceEvent::canonical` zeroes them.

use super::round::{eval_due, fan_out, weigh, Scoreboard};
use super::{attack_kind, Run};
use crate::metrics::RunResult;
use crate::strategy::{Outbound, ReceivedMessage};
use crate::Result;
use jwins_adversary::AttackBehavior;
use jwins_fault::{CapAction, RejoinMode};
use jwins_net::{PendingSend, PurgeScope};
use jwins_nn::model::Model;
use jwins_sim::{
    Conflict, LifecycleEvent, LifecycleTracker, Scheduled, ShardedEventQueue, SimTime,
};
use jwins_topology::dynamic::RoundTopology;
use jwins_topology::repair::{dead_neighbor_counts, LiveSet};
use jwins_trace::{BatchClass, KillReason, TraceEvent};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy)]
enum Ev {
    StartRound {
        node: usize,
        round: usize,
        epoch: u64,
    },
    TrainDone {
        node: usize,
        round: usize,
        epoch: u64,
    },
    Mix {
        node: usize,
        round: usize,
        epoch: u64,
    },
    Fault {
        event: LifecycleEvent,
        rejoin: RejoinMode,
    },
    EvalTick,
}

const RANK_FAULT: u64 = 0;
const RANK_TRAIN: u64 = 1;
const RANK_MIX: u64 = 2;
const RANK_START: u64 = 3;
const RANK_EVAL: u64 = 4;

fn prio(rank: u64, node: usize) -> u64 {
    (rank << 32) | node as u64
}

/// Per-node events batch with same-kind events on other nodes; fault replay
/// and checkpoints touch cluster state and run alone. Mix classes
/// additionally encode the *round*: a round's completion evaluates all
/// nodes, so a mix must never share a batch (and thus an execute phase) with
/// a mix of a different round — the n-th completer of a round is then always
/// the last item of its batch, with every other aggregate of that round
/// already committed and no foreign-round aggregate executed early.
fn classify(ev: &Ev) -> Conflict {
    match *ev {
        Ev::StartRound { node, .. } => Conflict::Exclusive {
            class: RANK_START,
            node,
        },
        Ev::TrainDone { node, .. } => Conflict::Exclusive {
            class: RANK_TRAIN,
            node,
        },
        Ev::Mix { node, round, .. } => Conflict::Exclusive {
            class: (RANK_MIX << 32) | round as u64,
            node,
        },
        Ev::Fault { .. } | Ev::EvalTick => Conflict::Solo,
    }
}

/// One round's resolved context. Under repair it also keeps the per-node
/// count of dead base-graph neighbours the repaired topology avoids (the
/// bandwidth-savings accounting).
#[derive(Clone)]
struct RoundCtx {
    topo: RoundTopology,
    avoided: Arc<Vec<u64>>,
}

/// The sequential identity of a live `TrainDone`: what commit needs back.
#[derive(Clone, Copy)]
struct TrainMeta {
    node: usize,
    round: usize,
    epoch: u64,
    /// This event's own fire time — the batch head's under Strict, up to
    /// `max_skew_ns` later under Window.
    at: SimTime,
    /// Byzantine behavior covering this node at train-completion time
    /// (`None` for honest nodes — the overwhelmingly common case).
    attack: Option<AttackBehavior>,
}

// Work items and buffered proposals of the two expensive event kinds.
// Proposals are everything an event wants to do to *shared* state; they are
// applied at commit, in the queue's pop order.
struct TrainItem {
    meta: TrainMeta,
    /// Index into the batch's [`TrainBatch::ctxs`].
    ctx: usize,
}

/// A proposed train batch. Its events may sit in different rounds (the
/// class ignores the round), so the batch carries each distinct round's
/// context once and the items point into that list — nothing is cloned per
/// item.
struct TrainBatch {
    items: Vec<(usize, TrainItem)>,
    ctxs: Vec<(usize, RoundCtx)>,
}

struct TrainProposal {
    meta: TrainMeta,
    sends: Vec<PendingSend>,
    mix_at: SimTime,
    alpha: f64,
    /// Bytes not spent on dead neighbours thanks to repair (per-message
    /// size × avoided edges; 0 with repair off).
    saved_bytes: u64,
}

/// A live `Mix` in pop order: `(node, round, epoch, fire time)`.
type LiveMix = (usize, usize, u64, SimTime);

/// A proposed mix batch: the fire time of every live `Mix`, and the one
/// round and topology they share (a mix class encodes its round) — `None`
/// only when every mix in the batch was epoch-stale.
struct MixBatch {
    items: Vec<(usize, SimTime)>,
    round: Option<(usize, RoundTopology)>,
}

struct MixProposal {
    // Per *message*, in drain order: `(from, sent_round, staleness_s)`. The
    // global accumulator folds the staleness terms one at a time at commit,
    // so the float-addition grouping is identical to processing events
    // singly; the provenance pair only feeds `TraceEvent::MsgMixed`.
    staleness: Vec<(usize, usize, f64)>,
    absorbed: f64,
    expired: u64,
}

/// The head of a popped batch: `(fire time, node, round)`.
type Head = (SimTime, usize, usize);

/// The mean size of the messages a node sends this round — what one avoided
/// dead neighbour would have cost.
fn per_message_bytes(outbound: &Outbound) -> u64 {
    match outbound {
        Outbound::Broadcast(msg) => msg.bytes.len() as u64,
        Outbound::PerEdge(messages) => {
            let (count, total) = messages
                .iter()
                .flatten()
                .fold((0u64, 0u64), |(c, t), m| (c + 1, t + m.bytes.len() as u64));
            total.checked_div(count).unwrap_or(0)
        }
    }
}

/// The state of one event-driven run: queue, lifecycle, round-context cache
/// and counters, with one handler per event class.
pub(super) struct EventRun<'w, 'a, M: Model> {
    t: Run<'w, 'a, M>,
    /// The sharded queue preserves the single-heap total order exactly
    /// (global sequence counter + seeded tie-break, min over shard heads),
    /// so the shard count is a pure data-structure knob; only
    /// `Ordering::Window` changes the schedule, and only batch shapes.
    queue: ShardedEventQueue<Ev>,
    lifecycle: LifecycleTracker,
    /// Per-round topology cache: nodes at the same round
    /// share one construction (dynamic topologies rebuild graph + MH weights
    /// per call — 2n calls per round without this). Entries are evicted once
    /// every node has completed the round, bounding memory by the
    /// fast/slow-node spread.
    round_ctx: HashMap<usize, RoundCtx>,
    board: Scoreboard,
    compute_time: Vec<SimTime>,
    completed: Vec<usize>,
    /// Rounds each node has passed — by mixing or by crash-abandonment. A
    /// node's pending events always concern round `rounds_passed[i]`, so
    /// every node contributes to every round's completion exactly once and
    /// `completed` still counts to `n` under churn.
    rounds_passed: Vec<usize>,
    /// Per-(round, node) sharing fractions, filled as TrainDone events
    /// fire; only fully completed rounds are reported.
    alpha_rows: Vec<Vec<f64>>,
    /// Queued StartRound/TrainDone/Mix events (the initial StartRounds
    /// count). Fault events scheduled far past the end of training must not
    /// keep evaluation checkpoints ticking, so EvalTick re-arms only while
    /// training events remain — not while the queue is non-empty.
    pending_work: usize,
    /// Scheduled recoveries per node, and how many of the currently-down
    /// nodes will resume actual training when they fire: a down node with
    /// rounds left re-adds work on recovery, so the checkpoint cadence must
    /// keep ticking through its outage even when every live node has
    /// drained its queue.
    recoveries_scheduled: Vec<usize>,
    productive_recoveries: usize,
    last_time: SimTime,
    queue_hwm: u32,
    run_wall: Instant,
}

impl<'w, 'a, M> EventRun<'w, 'a, M>
where
    M: Model + Send,
    M::Sample: Send + Sync,
{
    pub(super) fn new(t: Run<'w, 'a, M>, board: Scoreboard) -> Self {
        let n = t.cells.len();
        let config = t.config;
        // Cross-round messages (real heterogeneity, fault plans) are part of
        // the contract: every delivery carries its sender's round stamp, and
        // strategies with per-edge state version their handshakes by it (see
        // the edge-state versioning contract on `ShareStrategy`), so no
        // strategy needs to be refused here.
        let compute_time = config
            .heterogeneity
            .compute
            .speeds(n, config.seed ^ 0xC0_FFEE)
            .iter()
            .map(|s| SimTime::from_secs_f64(config.time_model.compute_s / s))
            .collect();
        let mut queue =
            ShardedEventQueue::new(config.seed ^ 0xE0E0, config.shards, config.ordering);
        for node in 0..n {
            let start = Ev::StartRound {
                node,
                round: 0,
                epoch: 0,
            };
            queue.push(SimTime::ZERO, prio(RANK_START, node), node, start);
        }
        // Fault and checkpoint events are scheduled *after* the initial
        // StartRounds so a no-op fault config leaves every insertion
        // sequence number — and with it the queue's seeded tie-breaks —
        // exactly as before, preserving the bit-for-bit contract.
        let mut recoveries_scheduled = vec![0usize; n];
        for tf in t.faults.events() {
            let node = tf.event.node();
            let fault = Ev::Fault {
                event: tf.event,
                rejoin: tf.rejoin,
            };
            queue.push(tf.at, prio(RANK_FAULT, node), node, fault);
            if !tf.event.is_crash() {
                recoveries_scheduled[node] += 1;
            }
        }
        if let Some(interval) = config.eval_interval_s {
            let first = SimTime::from_secs_f64(interval);
            queue.push(first, prio(RANK_EVAL, 0), 0, Ev::EvalTick);
        }
        let rounds = config.rounds;
        Self {
            lifecycle: LifecycleTracker::new(n),
            round_ctx: HashMap::new(),
            board,
            compute_time,
            completed: vec![0; rounds],
            rounds_passed: vec![0; n],
            alpha_rows: if config.record_alphas {
                vec![vec![0.0; n]; rounds]
            } else {
                Vec::new()
            },
            pending_work: n,
            recoveries_scheduled,
            productive_recoveries: 0,
            last_time: SimTime::ZERO,
            queue_hwm: queue.len() as u32,
            run_wall: Instant::now(),
            queue,
            t,
        }
    }

    /// Pops and dispatches batches until the queue runs dry.
    pub(super) fn run(mut self) -> Result<RunResult> {
        loop {
            let batch = self.queue.pop_independent_batch(classify);
            let (Some(first), Some(last)) = (batch.first(), batch.last()) else {
                break;
            };
            // Reconstruct the pre-pop depth: the popped batch was still
            // queued when this iteration began.
            self.queue_hwm = self.queue_hwm.max((self.queue.len() + batch.len()) as u32);
            let (time, head) = (first.time, first.event);
            // Under `Ordering::Window` a batch spans fire times; the run's
            // last event time is the batch tail's (equal to the head's under
            // Strict, where batches are simultaneous).
            self.last_time = last.time;
            match head {
                Ev::StartRound { .. } => self.on_start(batch),
                Ev::TrainDone { node, round, .. } => self.on_train(batch, (time, node, round))?,
                Ev::Mix { node, round, .. } => self.on_mix(batch, (time, node, round))?,
                Ev::Fault { event, rejoin } => match event {
                    LifecycleEvent::Crash { node } => self.on_crash(node, time)?,
                    LifecycleEvent::Recover { node } => self.on_recover(node, rejoin, time),
                },
                Ev::EvalTick => self.on_eval_tick(time)?,
            }
        }
        self.finish()
    }

    fn push(&mut self, at: SimTime, rank: u64, node: usize, event: Ev) {
        self.queue.push(at, prio(rank, node), node, event);
    }

    /// Resolves `round` against the current live set through the provider's
    /// live-aware path and repairs it around the dead nodes, returning the
    /// topology and the per-node avoided-send counts.
    fn repaired(&mut self, round: usize, live: &LiveSet) -> (RoundTopology, Vec<u64>) {
        let seed = self.t.config.seed ^ 0x5245_5041; // "REPA"
        let base = self.t.topology.topology_for(round, live);
        let out = self.t.config.repair.apply(&base, live, seed, round);
        self.board.tally.edges_rewired += out.edges_added;
        // Savings count against the liveness-blind graph: a live-aware
        // provider (PeerSampling) filters dead peers out of `base` itself,
        // which would zero the avoided-sends accounting. Blind providers
        // already counted on that graph inside apply().
        let avoided = if self.t.topology.is_live_aware() && !live.is_fully_alive() {
            dead_neighbor_counts(&self.t.topology.topology(round).graph, live)
        } else {
            out.dead_neighbors
        };
        (out.topology, avoided)
    }

    fn live_set(&self) -> LiveSet {
        LiveSet::new(
            self.lifecycle.alive_flags().to_vec(),
            self.lifecycle.version(),
        )
    }

    /// The context of `round`, resolved on first use (only ever from
    /// sequential code). With repair on, every context goes through
    /// [`Self::repaired`]; `RepairPolicy::None` takes the plain
    /// `topology(round)` path, bit-for-bit as before repair existed.
    fn ctx_for(&mut self, round: usize, at: SimTime) -> &RoundCtx {
        if !self.round_ctx.contains_key(&round) {
            let repaired = !self.t.config.repair.is_none();
            let (topo, avoided) = if repaired {
                let live = self.live_set();
                self.repaired(round, &live)
            } else {
                (self.t.topology.topology(round), Vec::new())
            };
            self.t.tracer.emit(TraceEvent::RoundResolve {
                t_ns: at.0,
                round: round as u32,
                edges: topo.graph.edges().count() as u32,
                repaired,
            });
            let ctx = RoundCtx {
                topo,
                avoided: Arc::new(avoided),
            };
            self.round_ctx.insert(round, ctx);
        }
        &self.round_ctx[&round]
    }

    /// Re-resolves every cached (in-progress) round against the current
    /// live set after a crash or rejoin: survivors re-wire, Metropolis
    /// weights refresh, and the round's messages on edges the repair
    /// removed — in flight *or already arrived* — are invalidated with
    /// their receive accounting reversed. An arrived message on a removed
    /// edge could never be mixed anyway (the mix weight lookup no longer
    /// lists the sender), so purging it meters the loss instead of leaving
    /// it to be skipped silently. Runs only in the sequential path of solo
    /// fault events, so determinism is untouched; rounds iterate in sorted
    /// order because the map's iteration order is not deterministic.
    fn repair_refresh(&mut self, at: SimTime) {
        if self.t.config.repair.is_none() {
            return;
        }
        let live = self.live_set();
        let mut cached: Vec<usize> = self.round_ctx.keys().copied().collect();
        cached.sort_unstable();
        let rounds_refreshed = cached.len() as u32;
        let rewired_before = self.board.tally.edges_rewired;
        for round in cached {
            let (topo, avoided) = self.repaired(round, &live);
            let old = self.round_ctx[&round].topo.graph.clone();
            for (a, b) in old.edges() {
                if topo.graph.has_edge(a, b) {
                    continue;
                }
                // The connection is gone in both directions; only this
                // round's messages die — other rounds may still carry the
                // edge.
                for (from, to) in [(a, b), (b, a)] {
                    let scope = PurgeScope::Link {
                        from,
                        to,
                        sent_round: Some(round),
                    };
                    self.kill(scope, to, at, KillReason::RepairEdge);
                }
                // Live endpoints drop their per-edge strategy state for the
                // removed connection: its pending handshakes can never
                // complete, and if repair later restores the edge it must
                // restart from the deterministic fresh state rather than a
                // stale warm start.
                for (end, other) in [(a, b), (b, a)] {
                    if self.lifecycle.is_alive(end) {
                        let mut slot = self.t.cells[end].lock();
                        slot.state.strategy.forget_edge(other);
                    }
                }
            }
            let ctx = self.round_ctx.get_mut(&round).expect("key just listed");
            ctx.topo = topo;
            ctx.avoided = Arc::new(avoided);
        }
        self.t.tracer.emit(TraceEvent::RepairRewire {
            t_ns: at.0,
            live_version: self.lifecycle.version(),
            edges_added: self.board.tally.edges_rewired - rewired_before,
            rounds_refreshed,
        });
    }

    /// Purges `scope` and reports the destroyed messages against `node`.
    fn kill(&self, scope: PurgeScope, node: usize, at: SimTime, reason: KillReason) {
        let count = self.t.network.purge(scope).messages;
        if count > 0 {
            self.t.tracer.emit(TraceEvent::MsgKill {
                t_ns: at.0,
                node: node as u32,
                count,
                reason,
            });
        }
    }

    /// Evaluates every node and records the point; `true` on target hit.
    fn score(&mut self, round: usize, at: SimTime, checkpoint: bool) -> Result<bool> {
        let scores = self.t.evaluate()?;
        self.board.tally.crashes = self.lifecycle.crashes();
        self.board.tally.rejoins = self.lifecycle.recoveries();
        Ok(self
            .board
            .record(round, at.0, at.as_secs_f64(), checkpoint, &scores))
    }

    /// Round-completion bookkeeping, entered when a node *passes* a round
    /// (its Mix fired, or a crash abandoned its round in progress): the last
    /// of the `n` passes triggers the round's evaluation point and, on
    /// target hit, the early stop. Returns `true` when the run just stopped
    /// — the caller must commit nothing further from the current batch,
    /// mirroring how the sequential schedule leaves simultaneous events to
    /// die in the cleared queue.
    fn pass_round(&mut self, round: usize, at: SimTime) -> Result<bool> {
        self.completed[round] += 1;
        if self.completed[round] < self.t.cells.len() {
            return Ok(false);
        }
        self.round_ctx.remove(&round);
        self.board.rounds_run = round + 1;
        self.t.tracer.emit(TraceEvent::RoundComplete {
            t_ns: at.0,
            round: round as u32,
        });
        let stop = eval_due(self.t.config, round) && self.score(round, at, false)?;
        if stop {
            // Early stop: cancel everything in flight.
            self.queue.clear();
        }
        Ok(stop)
    }

    /// Reports one executed batch and its wall-clock phase split (`walls`:
    /// start, end of propose, end of execute; commit ends now). Train
    /// batches may span rounds (the class ignores the round) and report the
    /// head's; mix batches are single-round by construction. The shard id is
    /// the head node's.
    fn emit_batch(
        &self,
        class: BatchClass,
        head: Head,
        width: u32,
        depth: u32,
        walls: [Duration; 3],
    ) {
        if width == 0 {
            return;
        }
        let (time, node, round) = head;
        let [start, proposed, executed] = walls;
        self.t.tracer.emit(TraceEvent::ExecuteBatch {
            t_ns: time.0,
            class,
            round: round as u32,
            width,
            queue_depth: depth,
            shard: self.queue.shard_of(node) as u32,
            wall_start_ns: start.as_nanos() as u64,
            propose_ns: (proposed - start).as_nanos() as u64,
            execute_ns: (executed - proposed).as_nanos() as u64,
            commit_ns: (self.run_wall.elapsed() - executed).as_nanos() as u64,
        });
    }

    /// `StartRound`: pure scheduling — no compute worth parallelizing;
    /// processed in pop order like a one-at-a-time loop.
    fn on_start(&mut self, batch: Vec<Scheduled<Ev>>) {
        for s in batch {
            let Ev::StartRound { node, round, epoch } = s.event else {
                unreachable!("batches are homogeneous by class")
            };
            self.pending_work -= 1;
            if !self.lifecycle.is_current(node, epoch) {
                continue;
            }
            // A round's topology is resolved (and, under repair, wired
            // around whoever is down) when its first node starts it.
            self.ctx_for(round, s.time);
            let end = s.time.plus(self.compute_time[node]);
            self.pending_work += 1;
            let done = Ev::TrainDone { node, round, epoch };
            self.push(end, RANK_TRAIN, node, done);
        }
    }

    fn on_train(&mut self, batch: Vec<Scheduled<Ev>>, head: Head) -> Result<()> {
        let start = self.run_wall.elapsed();
        let items = self.propose_train(batch);
        let (width, depth) = (items.items.len() as u32, self.queue.len() as u32);
        let proposed = self.run_wall.elapsed();
        let proposals = self.execute_train(items)?;
        let executed = self.run_wall.elapsed();
        self.commit_train(proposals);
        let walls = [start, proposed, executed];
        self.emit_batch(BatchClass::Train, head, width, depth, walls);
        Ok(())
    }

    /// Propose: charge the pops, filter stale epochs, and resolve round
    /// contexts up front (the cache is only touched here, sequentially).
    fn propose_train(&mut self, batch: Vec<Scheduled<Ev>>) -> TrainBatch {
        let mut items = Vec::with_capacity(batch.len());
        let mut ctxs: Vec<(usize, RoundCtx)> = Vec::new();
        for s in batch {
            let Ev::TrainDone { node, round, epoch } = s.event else {
                unreachable!("batches are homogeneous by class")
            };
            self.pending_work -= 1;
            if !self.lifecycle.is_current(node, epoch) {
                continue;
            }
            // Neighbouring events almost always share a round: look from
            // the back, resolve (and clone the context's `Arc`s) once per
            // distinct round.
            let ctx = match ctxs.iter().rposition(|&(r, _)| r == round) {
                Some(known) => known,
                None => {
                    ctxs.push((round, self.ctx_for(round, s.time).clone()));
                    ctxs.len() - 1
                }
            };
            let meta = TrainMeta {
                node,
                round,
                epoch,
                at: s.time,
                attack: self.t.attacks.behavior_at(node, s.time),
            };
            items.push((node, TrainItem { meta, ctx }));
        }
        TrainBatch { items, ctxs }
    }

    /// Execute: the local half of the round program on the resident
    /// workers. Everything a handler would do to shared state — mailbox
    /// appends, metering, the Mix schedule — is buffered into the proposal
    /// instead. The job owns the batch's contexts and borrows only the
    /// run-long configuration.
    fn execute_train(&self, batch: TrainBatch) -> Result<Vec<TrainProposal>> {
        let TrainBatch { items, ctxs } = batch;
        let config = self.t.config;
        let links = &config.heterogeneity.links;
        let link_seed = config.seed ^ 0x11_4B;
        self.t.batch(
            items,
            move |node, model, state, params, TrainItem { meta, ctx }| {
                let ctx = &ctxs[ctx].1;
                let neighbors = ctx.topo.graph.neighbors(node);
                let outbound = state.train_and_build(
                    model,
                    node,
                    params,
                    config,
                    meta.round,
                    neighbors,
                    meta.attack,
                )?;
                // Savings accounting: the bytes this node would have pushed
                // to its dead base-graph neighbours had repair not removed
                // them (one message per avoided edge, at this round's
                // message size).
                let avoided = ctx.avoided.get(node).copied().unwrap_or(0);
                let saved_bytes = avoided * per_message_bytes(&outbound);
                // Serialize over the uplink one message at a time: the k-th
                // transmission starts when the (k-1)-th has left, and
                // arrives one link latency after its last byte.
                let mut departure = meta.at;
                let mut sends = Vec::with_capacity(neighbors.len());
                fan_out(outbound, neighbors, |to, msg| {
                    let link = links.link(node, to, link_seed);
                    let tx = link.serialize_secs(msg.bytes.len() as u64);
                    sends.push(PendingSend {
                        from: node,
                        to,
                        payload: msg.bytes,
                        breakdown: msg.breakdown,
                        sent: meta.at,
                        arrives: departure.after_secs(tx + link.latency_s),
                        sent_round: meta.round,
                    });
                    departure = departure.after_secs(tx);
                })?;
                Ok(TrainProposal {
                    meta,
                    sends,
                    mix_at: departure,
                    alpha: state.last_alpha,
                    saved_bytes,
                })
            },
        )
    }

    /// Commit in pop order: mailbox append order, loss-model link sequences
    /// and the Mix schedule replay the sequential interleaving exactly.
    fn commit_train(&mut self, proposals: Vec<TrainProposal>) {
        for proposal in proposals {
            let TrainMeta { node, round, .. } = proposal.meta;
            let t_ns = proposal.meta.at.0;
            self.t.tracer.emit(TraceEvent::Train {
                t_ns,
                node: node as u32,
                round: round as u32,
                compute_ns: self.compute_time[node].0,
            });
            if let Some(behavior) = proposal.meta.attack {
                self.board.tally.attacks_injected += 1;
                self.t.tracer.emit(TraceEvent::AttackInject {
                    t_ns,
                    node: node as u32,
                    round: round as u32,
                    kind: attack_kind(behavior),
                });
            }
            self.t.network.send_batch(proposal.sends);
            self.board.tally.bandwidth_saved_bytes += proposal.saved_bytes;
            if self.t.config.record_alphas {
                self.alpha_rows[round][node] = proposal.alpha;
            }
            self.pending_work += 1;
            let mix = Ev::Mix {
                node,
                round,
                epoch: proposal.meta.epoch,
            };
            self.push(proposal.mix_at, RANK_MIX, node, mix);
        }
    }

    fn on_mix(&mut self, batch: Vec<Scheduled<Ev>>, head: Head) -> Result<()> {
        let start = self.run_wall.elapsed();
        let (live, mixes) = self.propose_mix(batch);
        let (width, depth) = (mixes.items.len() as u32, self.queue.len() as u32);
        let proposed = self.run_wall.elapsed();
        let proposals = self.execute_mix(mixes)?;
        let executed = self.run_wall.elapsed();
        self.commit_mix(live, proposals)?;
        let walls = [start, proposed, executed];
        self.emit_batch(BatchClass::Mix, head, width, depth, walls);
        Ok(())
    }

    /// Propose: charge the pops, filter stale epochs, and resolve the round's
    /// topology if any mix is live.
    fn propose_mix(&mut self, batch: Vec<Scheduled<Ev>>) -> (Vec<LiveMix>, MixBatch) {
        let mut live = Vec::with_capacity(batch.len());
        for s in batch {
            let Ev::Mix { node, round, epoch } = s.event else {
                unreachable!("batches are homogeneous by class")
            };
            self.pending_work -= 1;
            if self.lifecycle.is_current(node, epoch) {
                live.push((node, round, epoch, s.time));
            }
        }
        let round = live
            .first()
            .map(|&(_, round, _, at)| (round, self.ctx_for(round, at).topo.clone()));
        let items = live.iter().map(|&(node, .., at)| (node, at)).collect();
        (live, MixBatch { items, round })
    }

    /// Execute: drain and mix on the resident workers. Mailboxes are per-node, so
    /// disjoint drains cannot race; expiry counters and the shared staleness
    /// accumulators are deferred into the proposal because float sums must
    /// be committed in pop order — and not at all for events discarded by
    /// an early stop.
    fn execute_mix(&self, batch: MixBatch) -> Result<Vec<MixProposal>> {
        let (items, Some((round, topo))) = (batch.items, batch.round) else {
            return Ok(Vec::new());
        };
        let staleness = self.t.config.faults.staleness;
        let ttl = staleness.ttl().map(SimTime::from_secs_f64);
        let has_cap = staleness.has_cap();
        let robust = &self.t.config.robust;
        let network = self.t.network;
        self.t.batch(items, move |node, _, state, params, at| {
            let drained = network.drain(node, at, ttl);
            let (inbox, mut expired) = (drained.envelopes, drained.expired);
            let mut received = Vec::with_capacity(inbox.len());
            let mut absorbed = 0.0f64;
            let mut staleness_terms = Vec::with_capacity(inbox.len());
            for env in &inbox {
                // A message from a node that is no longer a neighbour
                // under this round's topology carries no mixing weight;
                // drop it (dynamic graphs only — static topologies never
                // hit this).
                let Some(base) = weigh(&topo, node, env.from) else {
                    continue;
                };
                let factor = if has_cap {
                    staleness.weight_factor(env.age_rounds(round), env.age_at(at).as_secs_f64())
                } else {
                    1.0
                };
                if factor == 0.0 && matches!(staleness.over_cap, CapAction::Drop) {
                    // Over the staleness cap with a Drop action: never
                    // decoded, counted as expired. The absent weight
                    // renormalizes inside the strategy's partial
                    // averaging, exactly like a lost message. (A Decay
                    // factor that *underflows* to zero is not a drop:
                    // the message stays in the mix at weight zero and
                    // its whole mass moves to the self-weight below.)
                    expired += 1;
                    continue;
                }
                // Down-weighted mass moves to the self-weight so the
                // effective mixing row stays stochastic (factor 1.0
                // keeps the weight bit-unchanged).
                let (weight, moved) = jwins_fault::apply_factor(base, factor);
                absorbed += moved;
                staleness_terms.push((env.from, env.sent_round, at.since(env.sent).as_secs_f64()));
                received.push(ReceivedMessage {
                    from: env.from,
                    round: env.sent_round,
                    weight,
                    edge_weight: base,
                    bytes: &env.payload,
                });
            }
            let mut self_weight = topo.weights.self_weight(node);
            if absorbed > 0.0 {
                self_weight += absorbed;
            }
            state.mix(params, round, self_weight, &received, robust)?;
            Ok(MixProposal {
                staleness: staleness_terms,
                absorbed,
                expired,
            })
        })
    }

    /// Commit in pop order. An early stop breaks out: since a batch is
    /// single-round and the stop fires at the round's n-th completer, the
    /// trigger is necessarily the batch's last item — the break just keeps
    /// the discard-the-rest invariant explicit.
    fn commit_mix(&mut self, live: Vec<LiveMix>, proposals: Vec<MixProposal>) -> Result<()> {
        let tracer = self.t.tracer;
        for ((node, round, epoch, at), p) in live.into_iter().zip(proposals) {
            self.t.network.record_expired(node, p.expired);
            if p.expired > 0 {
                tracer.emit(TraceEvent::MsgExpire {
                    t_ns: at.0,
                    node: node as u32,
                    round: round as u32,
                    count: p.expired,
                });
            }
            // Fold per message, not per event: the same non-associative
            // float grouping as one-at-a-time execution.
            let tally = &mut self.board.tally;
            for &(from, sent_round, s) in &p.staleness {
                tally.total_staleness_s += s;
                tracer.emit(TraceEvent::MsgMixed {
                    t_ns: at.0,
                    node: node as u32,
                    from: from as u32,
                    round: round as u32,
                    sent_round: sent_round as u32,
                    staleness_s: s,
                });
            }
            tally.mixed_messages += p.staleness.len() as u64;
            if p.absorbed > 0.0 {
                tally.downweight_mass += p.absorbed;
            }
            let mass_clipped = &mut tally.mass_clipped;
            self.t.cells[node]
                .lock()
                .state
                .drain_stats(node, round, at.0, tracer, mass_clipped);
            self.rounds_passed[node] = round + 1;
            if self.pass_round(round, at)? {
                break;
            }
            if round + 1 < self.t.config.rounds {
                self.pending_work += 1;
                let next = Ev::StartRound {
                    node,
                    round: round + 1,
                    epoch,
                };
                self.push(at, RANK_START, node, next);
            }
        }
        Ok(())
    }

    fn on_crash(&mut self, node: usize, at: SimTime) -> Result<()> {
        if !self.lifecycle.crash(node) {
            return Ok(());
        }
        let permanent = self.recoveries_scheduled[node] == 0;
        // The host dies with its inbox and open connections: everything
        // queued for it and everything it still has in flight is destroyed.
        let killed_inbox = self.t.network.purge(PurgeScope::Inbox { node }).messages;
        let in_flight = PurgeScope::InFlightFrom {
            from: node,
            cutoff: at,
        };
        let killed_in_flight = self.t.network.purge(in_flight).messages;
        self.t.tracer.emit(TraceEvent::NodeCrash {
            t_ns: at.0,
            node: node as u32,
            epoch: self.lifecycle.epoch(node),
            permanent,
        });
        for (count, reason) in [
            (killed_inbox, KillReason::CrashInbox),
            (killed_in_flight, KillReason::CrashInFlight),
        ] {
            if count > 0 {
                self.t.tracer.emit(TraceEvent::MsgKill {
                    t_ns: at.0,
                    node: node as u32,
                    count,
                    reason,
                });
            }
        }
        // A crash with no scheduled recovery is permanent: no handshake with
        // this node can ever complete, so every other node drops its
        // per-edge strategy state for it — otherwise stale warm starts would
        // survive across lifecycle epochs and the state would leak for the
        // rest of the run.
        if permanent {
            for (i, cell) in self.t.cells.iter().enumerate() {
                if i != node {
                    cell.lock().state.strategy.forget_edge(node);
                }
            }
        }
        // Survivors re-wire around the hole: every round in progress is
        // re-resolved against the shrunken live set, and sends on
        // repair-removed edges die.
        self.repair_refresh(at);
        // Abandon the round in progress (its scheduled events are now stale
        // via the epoch bump) so the cluster-wide round completion still
        // counts to n.
        let rounds = self.t.config.rounds;
        let round = self.rounds_passed[node];
        if round < rounds {
            self.rounds_passed[node] = round + 1;
            self.t.tracer.emit(TraceEvent::RoundAbandon {
                t_ns: at.0,
                node: node as u32,
                round: round as u32,
            });
        }
        // A scheduled recovery that will resume training keeps the
        // checkpoint cadence alive through the outage.
        if !permanent && self.rounds_passed[node] < rounds {
            self.productive_recoveries += 1;
        }
        if round < rounds {
            // A solo event is its whole batch: on early stop there is
            // nothing further to discard.
            self.pass_round(round, at)?;
        }
        Ok(())
    }

    fn on_recover(&mut self, node: usize, rejoin: RejoinMode, at: SimTime) {
        self.recoveries_scheduled[node] -= 1;
        if self.lifecycle.is_alive(node) {
            return;
        }
        self.t.rejoin(&mut self.lifecycle, node, rejoin, at);
        let epoch = self.lifecycle.epoch(node);
        let round = self.rounds_passed[node];
        let resumes = round < self.t.config.rounds;
        if resumes {
            self.productive_recoveries -= 1;
        }
        // Deliveries that completed while the host was down hit a dead
        // machine; still-in-flight tails land on the recovered host and
        // survive.
        let arrived = PurgeScope::ArrivedBy { node, deadline: at };
        self.kill(arrived, node, at, KillReason::RejoinArrived);
        // Re-admission runs through the same repair policy: in-progress
        // rounds re-resolve with the node back in the live set (repair-added
        // detour edges drop out; their in-flight messages are invalidated).
        self.repair_refresh(at);
        if resumes {
            self.pending_work += 1;
            self.push(at, RANK_START, node, Ev::StartRound { node, round, epoch });
        }
    }

    fn on_eval_tick(&mut self, at: SimTime) -> Result<()> {
        // Keep ticking while training events remain or a down node will
        // resume training on recovery — fault events scheduled past the end
        // of training must not prolong the cadence. Once training is over,
        // swallow the trailing tick instead of emitting a checkpoint dated
        // after the run's real end.
        if self.pending_work == 0 && self.productive_recoveries == 0 {
            return Ok(());
        }
        let interval = self.t.config.eval_interval_s;
        let interval = interval.expect("EvalTick only scheduled with an interval");
        // Checkpoints never trigger early stop.
        self.score(self.board.rounds_run.saturating_sub(1), at, true)?;
        self.push(at.after_secs(interval), RANK_EVAL, 0, Ev::EvalTick);
        Ok(())
    }

    fn finish(mut self) -> Result<RunResult> {
        // Nodes still down at the end never recovered to purge the
        // deliveries that piled up at their dead hosts; destroy them now so
        // the traffic accounting honours the crash semantics (no-fault runs
        // have every node alive, so this cannot disturb their totals).
        for node in 0..self.t.cells.len() {
            if !self.lifecycle.is_alive(node) {
                self.t.network.purge(PurgeScope::Inbox { node });
            }
        }
        if !self.board.stopped() && self.board.rounds_run < self.t.config.rounds {
            // A node stayed crashed to the end, so later rounds never
            // completed cluster-wide and their evaluation points never
            // fired. Close the run with a final checkpoint at the last event
            // time so the result still reflects the trained models.
            self.score(
                self.board.rounds_run.saturating_sub(1),
                self.last_time,
                true,
            )?;
        }
        Ok(self
            .board
            .finish(self.last_time.0, self.queue_hwm, self.alpha_rows))
    }
}
