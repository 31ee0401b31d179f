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
//! # Execute ahead, commit in queue order
//!
//! The *commit* order is the queue's total order, one event at a time — the
//! schedule a single-heap, single-thread loop would produce. What runs in
//! parallel is the expensive, node-local half of `TrainDone` and `Mix`
//! events, executed *ahead* of their commit inside a **window**: the queue
//! head and every following event of the same kind that is simultaneous with
//! it or fires strictly less than the horizon `H` after it. The network's
//! latency is the lookahead. With `f` the head's fire time (the earliest
//! uncommitted event) and `L` the smallest link latency, three facts make
//! executing a window member at `τ < f + H` before the commits that precede
//! it *exact*:
//!
//! (a) every send is stamped `arrives = departure + tx + latency` with
//!     `departure ≥` its sender's fire time, so nothing an uncommitted event
//!     will send can have arrived by `τ < f + L`; and a drain keeps
//!     un-arrived envelopes in push order, so draining *before* those pushes
//!     leaves the same mailbox as draining after them. A train reads no
//!     mailbox at all.
//! (b) a node has exactly one pending event (`StartRound → TrainDone → Mix →
//!     …`, the next pushed when the previous commits), so a window's members
//!     sit on pairwise-distinct nodes; and a round costs at least its
//!     compute time, so with `H = min(L, min compute_time)` no node passes
//!     two rounds inside a window: a train scheduled after the window was
//!     gathered fires past its end. What a window's commits set off in
//!     between — a train's `Mix`, a mix's `StartRound` — touches only a node
//!     the rest of the window does not hold, and completes no round the
//!     closing rule below did not see coming.
//! (c) faults and `EvalTick` touch cluster state: a window never extends
//!     past one, and they are handled with nothing executed ahead.
//!
//! **The closing rule.** Completing an evaluated round reads every node's
//! parameters, so nothing may have executed past the event that completes
//! it. While a window is gathered, the live events of each evaluated round
//! are counted — trains as well as mixes, because a train's `Mix` can land
//! inside the same window — and the member with which `completed[round] +
//! count` reaches the node count is the window's last. The n-th completer
//! of an evaluated round therefore always commits with nothing executed
//! ahead; on a target hit the queue is cleared with `ready` empty, exactly
//! where the one-at-a-time schedule stops.
//!
//! **The loop** ([`EventRun::run`]): `ready` holds executed, uncommitted
//! proposals sorted by the queue's own `(time, rank, node)` key.
//!
//! ```text
//! loop:
//!   if ready.front() precedes queue.peek():  commit it (one event)
//!   else pop the queue head:
//!     StartRound       → handle inline
//!     Fault, EvalTick  → handle (ready is empty)
//!     TrainDone, Mix   → gather its window (same kind; simultaneous or < H
//!                        later; stop at ready.front()'s key, at WINDOW_CAP
//!                        events, after a closing member), execute it on the
//!                        workers, push its proposals on the front of ready
//! ```
//!
//! A commit schedules follow-ups (a train's `Mix` lands `Σtx` later, a
//! mix's `StartRound` at the same instant). If one precedes `ready.front()`
//! it is simply the next queue head and gets a *nested* window bounded by
//! `ready.front()`'s key.
//!
//! `H` and the cap are derived, never configured. `H` is
//! [`jwins_sim::LinkProfile::min_latency_s`] in nanoseconds — zero for
//! instant and log-normal links, where only simultaneous events share a
//! window — clamped to the smallest compute time. [`WINDOW_CAP`] bounds
//! executed-but-uncommitted work (see its docs for the measurements behind
//! the value).
//!
//! Every trace emit sits in sequential gather/commit code and only *reads*
//! engine state, so tracing can never perturb RNG draws, event order or any
//! `RoundRecord` bit. One `ExecuteBatch` is emitted per window, when its
//! last member commits. Wall-clock phase timings (the `ExecuteBatch` side
//! channel) are the one non-deterministic payload;
//! `TraceEvent::canonical` zeroes them.

use super::round::{eval_due, fan_out, weigh, Scoreboard};
use super::{attack_kind, Run};
use crate::config::TrainConfig;
use crate::metrics::RunResult;
use crate::strategy::{Outbound, ReceivedMessage};
use crate::Result;
use jwins_adversary::AttackBehavior;
use jwins_fault::{CapAction, RejoinMode};
use jwins_net::{PendingSend, PurgeScope, Transport};
use jwins_nn::model::Model;
use jwins_sim::{LifecycleEvent, LifecycleTracker, Scheduled, ShardedEventQueue, SimTime};
use jwins_topology::dynamic::RoundTopology;
use jwins_topology::repair::{dead_neighbor_counts, LiveSet};
use jwins_trace::{BatchClass, KillReason, TraceEvent};
use std::collections::{HashMap, VecDeque};
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

impl Ev {
    /// The node-local work a `TrainDone` or `Mix` stands for — `(kind, node,
    /// round, epoch)`, the two kinds that execute ahead in windows. Starts
    /// only schedule; fault replay and checkpoints touch cluster state.
    fn work(&self) -> Option<(BatchClass, usize, usize, u64)> {
        match *self {
            Ev::TrainDone { node, round, epoch } => Some((BatchClass::Train, node, round, epoch)),
            Ev::Mix { node, round, epoch } => Some((BatchClass::Mix, node, round, epoch)),
            Ev::StartRound { .. } | Ev::Fault { .. } | Ev::EvalTick => None,
        }
    }
}

const RANK_FAULT: u64 = 0;
const RANK_TRAIN: u64 = 1;
const RANK_MIX: u64 = 2;
const RANK_START: u64 = 3;
const RANK_EVAL: u64 = 4;

fn prio(rank: u64, node: usize) -> u64 {
    (rank << 32) | node as u64
}

/// An event's place in the commit order: `(fire time, prio(rank, node))`,
/// the queue's own key up to its seeded tie-break. Two keys can only be equal
/// for one node's live event and a stale-epoch leftover of the same kind,
/// and a stale event does nothing but count itself out — either order gives
/// the same run.
type Key = (SimTime, u64);

/// Most events one window pops: the bound on executed-but-uncommitted work
/// (one `TrainProposal` of ≈ 400 B with its sends per member). Measured,
/// not guessed, on the repo benchmark's `event_scale` (16 384 nodes, `H` =
/// 5 ms, where the horizon alone would gather windows of 4 096 / 12 288 /
/// 16 384): five alternating passes of five children per cap on the 2-vCPU
/// reference host, medians, against the simultaneous-only parent commit
/// (`wall_s` 1.297 s, `peak_rss_mb` 40.88):
///
/// | cap | `wall_s` | `peak_rss_mb` |
/// |---|---|---|
/// | 256 | 1.426 s (× 1.10: twice the dispatches) | 40.70 |
/// | 1 024 | 1.263 s (× 0.97) | 41.04 (+ 0.4 %) |
/// | 2 048 | 1.255 s (× 0.97) | 41.44 (+ 1.4 %) |
/// | 4 096 | 1.162 s (× 0.90) | 42.23 (+ 3.3 %) |
/// | none | 1.123 s (× 0.87) | 46.13 (+ 12.8 %: 12 288 proposals alive at once) |
///
/// 1 024 is the smallest cap that leaves `event_scale` no slower and the
/// largest that keeps its resident set within 1 %; the wider ones buy their
/// seconds with memory, which is that workload's scarcer metric. No window
/// of `mlp_full_async` is wider than 8, so the cap cannot move it.
const WINDOW_CAP: usize = 1024;

/// How far execution may run ahead of commit (see the module docs). Both
/// numbers are derived from the configuration; neither is part of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Lookahead {
    /// `H` in nanoseconds: a window holds its head, the events simultaneous
    /// with it, and those firing strictly less than this after it.
    horizon_ns: u64,
    /// Most events one window pops.
    cap: usize,
}

impl Lookahead {
    /// The reference schedule the lookahead is proved against: every window
    /// is one event, executed when it is the earliest uncommitted one.
    #[cfg(test)]
    pub(super) const ONE_AT_A_TIME: Lookahead = Lookahead {
        horizon_ns: 0,
        cap: 1,
    };

    /// `H = min(L, min compute_time)`. `L` converts like
    /// `arrives` does (`SimTime::from_secs_f64` is monotone and `tx ≥ 0`, so
    /// no message beats `departure + L` nanoseconds); the clamp is fact (b).
    fn derive(config: &TrainConfig, compute_time: &[SimTime]) -> Self {
        let latency = SimTime::from_secs_f64(config.heterogeneity.links.min_latency_s()).0;
        let round = compute_time.iter().map(|t| t.0).min().unwrap_or(0);
        Self {
            horizon_ns: latency.min(round),
            cap: WINDOW_CAP,
        }
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

/// The sequential identity of a live `TrainDone` or `Mix`: what commit
/// needs back.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Meta {
    node: usize,
    round: usize,
    epoch: u64,
    /// This event's own fire time — up to the horizon after its window's
    /// head.
    at: SimTime,
    /// Byzantine behavior covering this node at train-completion time
    /// (`None` for mixes and for honest nodes — the overwhelmingly common
    /// case).
    attack: Option<AttackBehavior>,
}

/// A gathered window, ready to execute. Its members may sit in different
/// rounds, so it carries each distinct round's context once and the items
/// point into that list — nothing is cloned per item.
struct Batch {
    /// `(node, (identity, index into `ctxs`))`, in queue order.
    items: Vec<(usize, (Meta, usize))>,
    ctxs: Vec<(usize, RoundCtx)>,
}

// Buffered proposals of the two expensive event kinds: everything an event
// wants to do to *shared* state, applied at commit, in the queue's order.
struct TrainProposal {
    meta: Meta,
    sends: Vec<PendingSend>,
    mix_at: SimTime,
    alpha: f64,
    /// Bytes not spent on dead neighbours thanks to repair (per-message
    /// size × avoided edges; 0 with repair off).
    saved_bytes: u64,
}

struct MixProposal {
    meta: Meta,
    // Per *message*, in drain order: `(from, sent_round, staleness_s)`. The
    // global accumulator folds the staleness terms one at a time at commit,
    // so the float-addition grouping is identical to processing events
    // singly; the provenance pair only feeds `TraceEvent::MsgMixed`.
    staleness: Vec<(u32, u32, f64)>,
    absorbed: f64,
    expired: u64,
}

/// An executed, uncommitted event.
enum Ready {
    Train(TrainProposal),
    Mix(MixProposal),
}

impl Ready {
    fn key(&self) -> Key {
        match self {
            Ready::Train(p) => (p.meta.at, prio(RANK_TRAIN, p.meta.node)),
            Ready::Mix(p) => (p.meta.at, prio(RANK_MIX, p.meta.node)),
        }
    }
}

/// A window some of whose members are still in `ready`: what its one
/// `ExecuteBatch` will report. Windows nest like a stack — a nested window's
/// members all precede what is left of the window around it.
struct OpenWindow {
    class: BatchClass,
    /// The head's round.
    round: usize,
    width: u32,
    /// `queue.len() + ready.len()` right after the window was popped.
    depth: u32,
    /// Members not yet committed.
    left: u32,
    /// Wall-clock offsets from run start: gather began, gather ended,
    /// execute ended.
    walls: [Duration; 3],
    /// Wall time of this window's own commits (nested windows keep theirs).
    commit: Duration,
}

/// The closing rule (module docs): counts a window's live events per
/// *evaluated* round against the nodes that have yet to complete it.
struct Closing<'r> {
    config: &'r TrainConfig,
    completed: &'r [usize],
    nodes: usize,
    /// `(evaluated round, this window's live events of it so far)`.
    counts: Vec<(usize, usize)>,
}

impl<'r> Closing<'r> {
    fn new(config: &'r TrainConfig, completed: &'r [usize], nodes: usize) -> Self {
        Self {
            config,
            completed,
            nodes,
            counts: Vec::new(),
        }
    }

    /// Counts one live event of `round`; `true` when every node that has not
    /// completed the round now has an event in the window, i.e. this one may
    /// be followed by the round's evaluation and must be the last member.
    fn closes(&mut self, round: usize) -> bool {
        if !eval_due(self.config, round) {
            return false;
        }
        let known = self.counts.iter().rposition(|&(r, _)| r == round);
        let at = known.unwrap_or_else(|| {
            self.counts.push((round, 0));
            self.counts.len() - 1
        });
        self.counts[at].1 += 1;
        self.completed[round] + self.counts[at].1 >= self.nodes
    }
}

/// What [`pop_window`] took off the queue.
struct Window {
    class: BatchClass,
    /// Events popped, stale ones included.
    popped: usize,
    /// Fire time of the last event popped.
    last: SimTime,
    /// The current-epoch members, in queue order.
    live: Vec<Meta>,
}

/// Pops the window that `first` — the queue head, already popped — opens:
/// `first` and every following event of its kind that fires with it or
/// strictly less than the horizon after it, stopping at the first event of
/// another kind, at `before` (the key of the earliest executed, uncommitted
/// event), at the cap, and after a member that [`Closing::closes`] its
/// round. Stale-epoch events are popped and dropped.
fn pop_window(
    queue: &mut ShardedEventQueue<Ev>,
    first: Scheduled<Ev>,
    lookahead: Lookahead,
    before: Option<Key>,
    lifecycle: &LifecycleTracker,
    mut closing: Closing<'_>,
) -> Window {
    let head = first.time;
    let (class, ..) = first.event.work().expect("a window opens on node work");
    let follows = |next: &Scheduled<&Ev>| {
        next.event.work().is_some_and(|(kind, ..)| kind == class)
            && (next.time == head || next.time.0 - head.0 < lookahead.horizon_ns)
            && before.is_none_or(|bound| (next.time, next.priority) < bound)
    };
    let mut window = Window {
        class,
        popped: 0,
        last: head,
        live: Vec::new(),
    };
    let mut next = Some(first);
    while let Some(member) = next.take() {
        window.popped += 1;
        window.last = member.time;
        let (_, node, round, epoch) = member.event.work().expect("checked by `follows`");
        if lifecycle.is_current(node, epoch) {
            window.live.push(Meta {
                node,
                round,
                epoch,
                at: member.time,
                attack: None,
            });
            if closing.closes(round) {
                break;
            }
        }
        if window.popped < lookahead.cap && queue.peek().is_some_and(|n| follows(&n)) {
            next = queue.pop();
        }
    }
    window
}

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

/// The state of one event-driven run: queue, executed-ahead proposals,
/// lifecycle, round-context cache and counters, with one handler per event
/// kind.
pub(super) struct EventRun<'w, 'a, M: Model> {
    t: Run<'w, 'a, M>,
    /// One heap in the seeded total order; `TrainConfig::shards` is
    /// ignored.
    queue: ShardedEventQueue<Ev>,
    /// Executed, uncommitted events, sorted by [`Ready::key`]: a window's
    /// proposals go on the front (everything in a window precedes what was
    /// ready before it) and commits take the front.
    ready: VecDeque<Ready>,
    /// The windows `ready` holds members of, innermost last.
    windows: Vec<OpenWindow>,
    lookahead: Lookahead,
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
    /// Nodes between a committed `TrainDone` and its `Mix`: their
    /// strategy has a round open.
    shared: Vec<bool>,
    /// Per-(round, node) sharing fractions, filled as TrainDone events
    /// fire; only fully completed rounds are reported.
    alpha_rows: Vec<Vec<f64>>,
    /// Queued StartRound/TrainDone/Mix events (the initial StartRounds
    /// count). Fault events scheduled far past the end of training must not
    /// keep evaluation checkpoints ticking, so EvalTick re-arms only while
    /// training events remain — not while the queue is non-empty. Only read
    /// with `ready` empty, where executed-ahead pops have all been matched
    /// by their commits' pushes.
    pending_work: usize,
    /// Scheduled recoveries per node, and how many of the currently-down
    /// nodes will resume actual training when they fire: a down node with
    /// rounds left re-adds work on recovery, so the checkpoint cadence must
    /// keep ticking through its outage even when every live node has
    /// drained its queue.
    recoveries_scheduled: Vec<usize>,
    productive_recoveries: usize,
    /// Fire time of the latest event taken off the queue.
    last_time: SimTime,
    /// Most events pending at once in the one-at-a-time schedule: queued
    /// plus executed-ahead.
    queue_hwm: u32,
    run_wall: Instant,
}

impl<'w, 'a, M> EventRun<'w, 'a, M>
where
    M: Model + Send,
    M::Sample: Send + Sync,
{
    /// `lookahead` is `None` outside tests: the horizon and the cap are
    /// derived here from the link profile and the compute times.
    pub(super) fn new(t: Run<'w, 'a, M>, board: Scoreboard, lookahead: Option<Lookahead>) -> Self {
        let n = t.cells.len();
        let config = t.config;
        // Cross-round messages (real heterogeneity, fault plans) are part of
        // the contract: every delivery carries its sender's round stamp
        // (`ReceivedMessage::round`), so no strategy needs to be refused here.
        let compute_time: Vec<SimTime> = config
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
            ready: VecDeque::new(),
            windows: Vec::new(),
            lookahead: lookahead.unwrap_or_else(|| Lookahead::derive(config, &compute_time)),
            lifecycle: LifecycleTracker::new(n),
            round_ctx: HashMap::new(),
            board,
            compute_time,
            completed: vec![0; rounds],
            rounds_passed: vec![0; n],
            shared: vec![false; n],
            alpha_rows: if config.record_alphas {
                vec![vec![0.0; n]; rounds]
            } else {
                Vec::new()
            },
            pending_work: n,
            recoveries_scheduled,
            productive_recoveries: 0,
            last_time: SimTime::ZERO,
            queue_hwm: 0,
            run_wall: Instant::now(),
            queue,
            t,
        }
    }

    /// Whether the earliest executed-ahead event is the next to commit —
    /// it precedes everything still queued.
    fn ready_is_next(&self) -> bool {
        let Some(ready) = self.ready.front().map(Ready::key) else {
            return false;
        };
        self.queue
            .peek()
            .is_none_or(|head| ready <= (head.time, head.priority))
    }

    /// Folds the pending-event count — queued plus executed-ahead, the queue
    /// depth of the one-at-a-time schedule — into the run's high-water mark.
    /// Called before every event leaves that set.
    fn note_depth(&mut self) {
        let pending = self.queue.len() + self.ready.len();
        self.queue_hwm = self.queue_hwm.max(pending as u32);
    }

    /// The loop of the module docs: commit what was executed ahead while it
    /// is next in the queue's order, otherwise take the queue head, until
    /// both run dry.
    pub(super) fn run(mut self) -> Result<RunResult> {
        loop {
            if self.ready_is_next() {
                self.commit_ready()?;
                continue;
            }
            self.note_depth();
            let Some(head) = self.queue.pop() else {
                break;
            };
            self.last_time = self.last_time.max(head.time);
            self.on_head(head)?;
        }
        self.finish()
    }

    /// Fact (c) and the closing rule, checked where they matter: whoever
    /// reads or rewires cluster state — a fault, a checkpoint, an evaluation
    /// — does so with every executed event committed.
    fn assert_nothing_ahead(&self) {
        assert!(
            self.ready.is_empty(),
            "an event was executed past one that touches cluster state"
        );
    }

    /// Handles the queue head: a start inline, cluster-state events alone,
    /// node work by opening its window.
    fn on_head(&mut self, head: Scheduled<Ev>) -> Result<()> {
        let time = head.time;
        match head.event {
            Ev::StartRound { node, round, epoch } => self.on_start(node, round, epoch, time),
            Ev::TrainDone { .. } | Ev::Mix { .. } => self.open_window(head)?,
            Ev::Fault { event, rejoin } => {
                self.assert_nothing_ahead();
                match event {
                    LifecycleEvent::Crash { node } => self.on_crash(node, time)?,
                    LifecycleEvent::Recover { node } => self.on_recover(node, rejoin, time),
                }
            }
            Ev::EvalTick => {
                self.assert_nothing_ahead();
                self.on_eval_tick(time)?;
            }
        }
        Ok(())
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
        // An evaluation reads every node's parameters: none of them may
        // belong to an event still to come.
        self.assert_nothing_ahead();
        let scores = self.t.evaluate()?;
        self.board.tally.crashes = self.lifecycle.crashes();
        self.board.tally.rejoins = self.lifecycle.recoveries();
        Ok(self
            .board
            .record(round, at.0, at.as_secs_f64(), checkpoint, &scores))
    }

    /// Round-completion bookkeeping, entered when a node *passes* a round
    /// (its Mix committed, or a crash abandoned its round in progress): the
    /// last of the `n` passes triggers the round's evaluation point and, on
    /// target hit, the early stop. Returns `true` when the run just stopped:
    /// the queue is cleared, and the closing rule has kept `ready` empty, so
    /// later events die unexecuted exactly as in the one-at-a-time schedule.
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

    /// Reports one window — its wall-clock phase split included — when its
    /// last member has committed, stamped with that member's fire time `at`
    /// so the trace stays monotone in virtual time across nested windows.
    /// The round is the head's; the queue is one heap, so the shard is 0.
    fn emit_batch(&self, window: &OpenWindow, at: SimTime) {
        let [start, gathered, executed] = window.walls;
        self.t.tracer.emit(TraceEvent::ExecuteBatch {
            t_ns: at.0,
            class: window.class,
            round: window.round as u32,
            width: window.width,
            queue_depth: window.depth,
            shard: 0,
            wall_start_ns: start.as_nanos() as u64,
            propose_ns: (gathered - start).as_nanos() as u64,
            execute_ns: (executed - gathered).as_nanos() as u64,
            commit_ns: window.commit.as_nanos() as u64,
        });
    }

    /// `StartRound`: pure scheduling — nothing worth executing ahead.
    fn on_start(&mut self, node: usize, round: usize, epoch: u64, at: SimTime) {
        self.pending_work -= 1;
        if !self.lifecycle.is_current(node, epoch) {
            return;
        }
        // A round's topology is resolved (and, under repair, wired around
        // whoever is down) when its first node starts it.
        self.ctx_for(round, at);
        let end = at.plus(self.compute_time[node]);
        self.pending_work += 1;
        let done = Ev::TrainDone { node, round, epoch };
        self.push(end, RANK_TRAIN, node, done);
    }

    /// Gathers the window `first` opens, executes it on the workers and
    /// queues its proposals for commit. Gathering is sequential: it charges
    /// the pops, drops stale epochs and resolves round contexts (the cache
    /// is only touched from sequential code).
    fn open_window(&mut self, first: Scheduled<Ev>) -> Result<()> {
        let start = self.run_wall.elapsed();
        let closing = Closing::new(self.t.config, &self.completed, self.t.cells.len());
        let before = self.ready.front().map(Ready::key);
        let window = pop_window(
            &mut self.queue,
            first,
            self.lookahead,
            before,
            &self.lifecycle,
            closing,
        );
        self.pending_work -= window.popped;
        self.last_time = self.last_time.max(window.last);
        let Some(&Meta { round, .. }) = window.live.first() else {
            return Ok(());
        };
        let train = window.class == BatchClass::Train;
        let mut items = Vec::with_capacity(window.live.len());
        let mut ctxs: Vec<(usize, RoundCtx)> = Vec::new();
        for mut meta in window.live {
            // Neighbouring events almost always share a round: look from
            // the back, resolve (and clone the context's `Arc`s) once per
            // distinct round.
            let ctx = match ctxs.iter().rposition(|&(r, _)| r == meta.round) {
                Some(known) => known,
                None => {
                    ctxs.push((meta.round, self.ctx_for(meta.round, meta.at).clone()));
                    ctxs.len() - 1
                }
            };
            if train {
                meta.attack = self.t.attacks.behavior_at(meta.node, meta.at);
            }
            items.push((meta.node, (meta, ctx)));
        }
        let width = items.len() as u32;
        let depth = (self.queue.len() + self.ready.len()) as u32;
        let gathered = self.run_wall.elapsed();
        let batch = Batch { items, ctxs };
        let proposals = if train {
            self.execute_train(batch)?
        } else {
            self.execute_mix(batch)?
        };
        let executed = self.run_wall.elapsed();
        for proposal in proposals.into_iter().rev() {
            self.ready.push_front(proposal);
        }
        self.windows.push(OpenWindow {
            class: window.class,
            round,
            width,
            depth,
            left: width,
            walls: [start, gathered, executed],
            commit: Duration::ZERO,
        });
        Ok(())
    }

    /// Commits executed-ahead events, one at a time, for as long as the next
    /// one belongs to the innermost open window and precedes the queue head
    /// — the stretch is timed as one and the window reported when its last
    /// member has committed.
    fn commit_ready(&mut self) -> Result<()> {
        let began = self.run_wall.elapsed();
        let mut window = self.windows.pop().expect("a ready event has its window");
        let mut at = SimTime::ZERO;
        while window.left > 0 && self.ready_is_next() {
            self.note_depth();
            window.left -= 1;
            let proposal = self.ready.pop_front().expect("ready_is_next saw it");
            at = proposal.key().0;
            match proposal {
                Ready::Train(proposal) => self.commit_train(proposal),
                Ready::Mix(proposal) => self.commit_mix(proposal)?,
            }
        }
        window.commit += self.run_wall.elapsed() - began;
        if window.left == 0 {
            self.emit_batch(&window, at);
        } else {
            self.windows.push(window);
        }
        Ok(())
    }

    /// Execute: the local half of the round program on the resident
    /// workers. Everything a handler would do to shared state — mailbox
    /// appends, metering, the Mix schedule — is buffered into the proposal
    /// instead. The job owns the batch's contexts and borrows only the
    /// run-long configuration.
    fn execute_train(&self, batch: Batch) -> Result<Vec<Ready>> {
        let Batch { items, ctxs } = batch;
        let config = self.t.config;
        let links = &config.heterogeneity.links;
        let link_seed = config.seed ^ 0x11_4B;
        self.t
            .batch(items, move |node, model, state, params, (meta, ctx)| {
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
                Ok(Ready::Train(TrainProposal {
                    meta,
                    sends,
                    mix_at: departure,
                    alpha: state.last_alpha,
                    saved_bytes,
                }))
            })
    }

    /// Commit: mailbox append order, loss-model link sequences and the Mix
    /// schedule replay the one-at-a-time interleaving exactly.
    fn commit_train(&mut self, proposal: TrainProposal) {
        let Meta {
            node,
            round,
            epoch,
            at,
            attack,
        } = proposal.meta;
        self.t.tracer.emit(TraceEvent::Train {
            t_ns: at.0,
            node: node as u32,
            round: round as u32,
            compute_ns: self.compute_time[node].0,
        });
        if let Some(behavior) = attack {
            self.board.tally.attacks_injected += 1;
            self.t.tracer.emit(TraceEvent::AttackInject {
                t_ns: at.0,
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
        self.shared[node] = true;
        self.pending_work += 1;
        let mix = Ev::Mix { node, round, epoch };
        self.push(proposal.mix_at, RANK_MIX, node, mix);
    }

    /// Execute: drain and mix on the resident workers. Mailboxes are
    /// per-node, so disjoint drains cannot race, and nothing a window member
    /// drains can be missing (fact (a)); expiry counters and the shared
    /// staleness accumulators are deferred into the proposal because float
    /// sums must be committed in queue order.
    fn execute_mix(&self, batch: Batch) -> Result<Vec<Ready>> {
        let Batch { items, ctxs } = batch;
        let staleness = self.t.config.faults.staleness;
        let ttl = staleness.ttl().map(SimTime::from_secs_f64);
        let has_cap = staleness.has_cap();
        let robust = &self.t.config.robust;
        let network = self.t.network;
        self.t.batch(items, move |node, _, state, params, item| {
            let (meta, ctx): (Meta, usize) = item;
            let (topo, round, at) = (&ctxs[ctx].1.topo, meta.round, meta.at);
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
                let (from, sent_round) = (env.from as usize, env.sent_round as usize);
                let Some(base) = weigh(topo, node, from) else {
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
                    from,
                    round: sent_round,
                    weight,
                    bytes: &env.payload,
                    decoded: None,
                });
            }
            let mut self_weight = topo.weights.self_weight(node);
            if absorbed > 0.0 {
                self_weight += absorbed;
            }
            state.mix(params, round, self_weight, &received, robust)?;
            Ok(Ready::Mix(MixProposal {
                meta,
                staleness: staleness_terms,
                absorbed,
                expired,
            }))
        })
    }

    /// Commit: fold what the mix buffered, pass the round, start the next —
    /// unless this mix completed an evaluated round on target and the run
    /// just stopped.
    fn commit_mix(&mut self, proposal: MixProposal) -> Result<()> {
        let tracer = self.t.tracer;
        let Meta {
            node,
            round,
            epoch,
            at,
            ..
        } = proposal.meta;
        self.t.network.record_expired(node, proposal.expired);
        if proposal.expired > 0 {
            tracer.emit(TraceEvent::MsgExpire {
                t_ns: at.0,
                node: node as u32,
                round: round as u32,
                count: proposal.expired,
            });
        }
        // Fold per message, not per event: the same non-associative
        // float grouping as one-at-a-time execution.
        let tally = &mut self.board.tally;
        for &(from, sent_round, s) in &proposal.staleness {
            tally.total_staleness_s += s;
            tracer.emit(TraceEvent::MsgMixed {
                t_ns: at.0,
                node: node as u32,
                from,
                round: round as u32,
                sent_round,
                staleness_s: s,
            });
        }
        tally.mixed_messages += proposal.staleness.len() as u64;
        if proposal.absorbed > 0.0 {
            tally.downweight_mass += proposal.absorbed;
        }
        self.shared[node] = false;
        let mass_clipped = &mut tally.mass_clipped;
        self.t.cells[node]
            .lock()
            .state
            .drain_stats(node, round, at.0, tracer, mass_clipped);
        self.rounds_passed[node] = round + 1;
        let stopped = self.pass_round(round, at)?;
        if !stopped && round + 1 < self.t.config.rounds {
            self.pending_work += 1;
            let next = Ev::StartRound {
                node,
                round: round + 1,
                epoch,
            };
            self.push(at, RANK_START, node, next);
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
        // A round abandoned between its send and its mix leaves the
        // strategy's round open (its `make_*` ran, its mix never will):
        // restart the strategy on the node's current parameters, as a
        // `Resync` rejoin does on the donor's, or the next round's `make_*`
        // fails. No window spans a fault, so that send has committed.
        if std::mem::take(&mut self.shared[node]) {
            let slot = &mut *self.t.cells[node].lock();
            slot.state.strategy.init(slot.params);
        }
        // A scheduled recovery that will resume training keeps the
        // checkpoint cadence alive through the outage.
        if !permanent && self.rounds_passed[node] < rounds {
            self.productive_recoveries += 1;
        }
        if round < rounds {
            // On early stop there is nothing further to discard.
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

#[cfg(test)]
mod tests {
    use super::*;
    use jwins_sim::Ordering;

    const NODES: usize = 8;

    fn queue() -> ShardedEventQueue<Ev> {
        ShardedEventQueue::new(7, 0, Ordering::Strict)
    }

    fn train(queue: &mut ShardedEventQueue<Ev>, at: u64, node: usize, round: usize) {
        let event = Ev::TrainDone {
            node,
            round,
            epoch: 0,
        };
        queue.push(SimTime(at), prio(RANK_TRAIN, node), node, event);
    }

    fn mix(queue: &mut ShardedEventQueue<Ev>, at: u64, node: usize, round: usize) {
        let event = Ev::Mix {
            node,
            round,
            epoch: 0,
        };
        queue.push(SimTime(at), prio(RANK_MIX, node), node, event);
    }

    /// Ten rounds, every second one evaluated (rounds 1, 3, … and the last).
    fn config() -> TrainConfig {
        let mut config = TrainConfig::quick_test();
        config.rounds = 10;
        config.eval_every = 2;
        config
    }

    /// Opens the window at the head of `queue`: `(node, round)` of its live
    /// members and how many events it popped.
    fn window(
        queue: &mut ShardedEventQueue<Ev>,
        lookahead: Lookahead,
        before: Option<Key>,
        completed: &[usize],
        lifecycle: &LifecycleTracker,
    ) -> (Vec<(usize, usize)>, usize) {
        let config = config();
        let first = queue.pop().expect("a head to open on");
        let closing = Closing::new(&config, completed, NODES);
        let window = pop_window(queue, first, lookahead, before, lifecycle, closing);
        let live = window.live.iter().map(|m| (m.node, m.round)).collect();
        (live, window.popped)
    }

    const AHEAD: Lookahead = Lookahead {
        horizon_ns: 100,
        cap: 4,
    };

    #[test]
    fn a_window_is_one_kind_within_the_horizon_and_the_cap() {
        let (alive, idle) = (LifecycleTracker::new(NODES), [0; 10]);
        let mut q = queue();
        // Simultaneous with the head, inside the horizon, exactly at it.
        for (at, node) in [(1000, 0), (1000, 1), (1099, 2), (1100, 3)] {
            train(&mut q, at, node, 0);
        }
        let (live, popped) = window(&mut q, AHEAD, None, &idle, &alive);
        assert_eq!(live, vec![(0, 0), (1, 0), (2, 0)], "strictly less than H");
        assert_eq!((popped, q.len()), (3, 1));
        // A mix inside the horizon ends a train window; the mix window after
        // it may span rounds.
        let mut q = queue();
        train(&mut q, 1000, 0, 0);
        mix(&mut q, 1010, 1, 0);
        mix(&mut q, 1020, 2, 4);
        train(&mut q, 1030, 3, 0);
        assert_eq!(window(&mut q, AHEAD, None, &idle, &alive).0, vec![(0, 0)]);
        let (live, _) = window(&mut q, AHEAD, None, &idle, &alive);
        assert_eq!(live, vec![(1, 0), (2, 4)]);
        // Never more than the cap, however many would fit.
        let mut q = queue();
        for node in 0..NODES {
            train(&mut q, 1000 + node as u64, node, 0);
        }
        let (live, popped) = window(&mut q, AHEAD, None, &idle, &alive);
        assert_eq!((live.len(), popped, q.len()), (4, 4, 4));
        // `H = 0`: only what is simultaneous with the head.
        let strict = Lookahead {
            horizon_ns: 0,
            cap: 4,
        };
        let mut q = queue();
        for (at, node) in [(1000, 0), (1000, 1), (1001, 2)] {
            mix(&mut q, at, node, 0);
        }
        let (live, _) = window(&mut q, strict, None, &idle, &alive);
        assert_eq!(live, vec![(0, 0), (1, 0)]);
        // The reference schedule: one event, whatever follows.
        let (live, popped) = window(&mut q, Lookahead::ONE_AT_A_TIME, None, &idle, &alive);
        assert_eq!((live, popped), (vec![(2, 0)], 1));
    }

    #[test]
    fn a_window_never_spans_a_solo_event_a_start_or_the_ready_front() {
        let (alive, idle) = (LifecycleTracker::new(NODES), [0; 10]);
        let solos = [
            (prio(RANK_EVAL, 0), Ev::EvalTick),
            (
                prio(RANK_FAULT, 5),
                Ev::Fault {
                    event: LifecycleEvent::Crash { node: 5 },
                    rejoin: RejoinMode::Warm,
                },
            ),
            (
                prio(RANK_START, 5),
                Ev::StartRound {
                    node: 5,
                    round: 0,
                    epoch: 0,
                },
            ),
        ];
        for (rank, solo) in solos {
            let mut q = queue();
            train(&mut q, 1000, 0, 0);
            train(&mut q, 1010, 1, 0);
            q.push(SimTime(1020), rank, 5, solo);
            train(&mut q, 1030, 2, 0);
            let (live, _) = window(&mut q, AHEAD, None, &idle, &alive);
            assert_eq!(live, vec![(0, 0), (1, 0)], "{solo:?}");
            assert_eq!(q.len(), 2);
        }
        // A nested window stops short of what was executed before it.
        let mut q = queue();
        for (at, node) in [(1000, 0), (1010, 1), (1020, 2)] {
            mix(&mut q, at, node, 0);
        }
        let before = Some((SimTime(1020), prio(RANK_TRAIN, 7)));
        let (live, _) = window(&mut q, AHEAD, before, &idle, &alive);
        assert_eq!(live, vec![(0, 0), (1, 0)], "a train at 1020 precedes a mix");
    }

    #[test]
    fn a_window_holds_one_live_event_per_node() {
        // Node 1 crashed and rejoined: its old train is still queued beside
        // the new one. Both are popped, only the current epoch's is kept.
        let mut lifecycle = LifecycleTracker::new(NODES);
        lifecycle.crash(1);
        lifecycle.recover(1);
        let epoch = lifecycle.epoch(1);
        let mut q = queue();
        train(&mut q, 1000, 0, 0);
        train(&mut q, 1005, 1, 0);
        let rejoined = Ev::TrainDone {
            node: 1,
            round: 1,
            epoch,
        };
        q.push(SimTime(1010), prio(RANK_TRAIN, 1), 1, rejoined);
        let (live, popped) = window(&mut q, AHEAD, None, &[0; 10], &lifecycle);
        assert_eq!(live, vec![(0, 0), (1, 1)]);
        assert_eq!(popped, 3);
    }

    #[test]
    fn the_event_that_can_complete_an_evaluated_round_is_a_windows_last() {
        let alive = LifecycleTracker::new(NODES);
        let wide = Lookahead {
            horizon_ns: 100,
            cap: 64,
        };
        // Round 1 is evaluated and six nodes have completed it: the second
        // of its events closes the window, whatever its kind and whatever
        // sits between.
        let mut completed = [0; 10];
        completed[1] = NODES - 2;
        type Push = fn(&mut ShardedEventQueue<Ev>, u64, usize, usize);
        for push in [train as Push, mix as Push] {
            let mut q = queue();
            push(&mut q, 1000, 0, 1);
            push(&mut q, 1010, 1, 2);
            push(&mut q, 1020, 2, 1);
            push(&mut q, 1030, 3, 2);
            let (live, _) = window(&mut q, wide, None, &completed, &alive);
            assert_eq!(live, vec![(0, 1), (1, 2), (2, 1)]);
            assert_eq!(q.len(), 1, "node 3 waits for the evaluation");
        }
        // Round 2 is not evaluated: completing it closes nothing.
        completed[2] = NODES - 1;
        let mut q = queue();
        for (at, node, round) in [(1000, 0, 2), (1010, 1, 3), (1020, 2, 3)] {
            train(&mut q, at, node, round);
        }
        let (live, _) = window(&mut q, wide, None, &completed, &alive);
        assert_eq!(live.len(), 3);
        // A stale event counts for nothing: its node passed the round when
        // it crashed.
        let mut lifecycle = LifecycleTracker::new(NODES);
        lifecycle.crash(0);
        let mut q = queue();
        for (at, node) in [(1000, 0), (1010, 1), (1020, 2), (1030, 3)] {
            mix(&mut q, at, node, 1);
        }
        let (live, popped) = window(&mut q, wide, None, &completed, &lifecycle);
        assert_eq!(live, vec![(1, 1), (2, 1)]);
        assert_eq!(popped, 3);
    }

    #[test]
    fn the_horizon_is_the_smallest_latency_clamped_to_the_shortest_round() {
        use jwins_sim::{HeterogeneityProfile, LinkProfile};
        let ms = |ms: f64| SimTime::from_secs_f64(ms / 1000.0);
        let mut config = config();
        config.heterogeneity = HeterogeneityProfile::stragglers(0.25, 4.0, 0.005, 12.5e6);
        let horizon = |config: &TrainConfig, compute: &[SimTime]| {
            let lookahead = Lookahead::derive(config, compute);
            assert_eq!(lookahead.cap, WINDOW_CAP);
            lookahead.horizon_ns
        };
        assert_eq!(horizon(&config, &[ms(50.0), ms(200.0)]), 5_000_000);
        assert_eq!(horizon(&config, &[ms(50.0), ms(1.0)]), 1_000_000);
        // Instant and log-normal links promise nothing.
        config.heterogeneity.links = LinkProfile::Instant;
        assert_eq!(horizon(&config, &[ms(50.0)]), 0);
        config.heterogeneity.links = LinkProfile::LogNormal {
            latency_s: 0.005,
            bandwidth_bps: 12.5e6,
            sigma: 0.3,
        };
        assert_eq!(horizon(&config, &[ms(50.0)]), 0);
    }
}
