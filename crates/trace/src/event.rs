//! The trace-event taxonomy.

use serde::{Deserialize, Serialize};

/// Why a batch of messages was destroyed (`TraceEvent::MsgKill`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum KillReason {
    /// A crash destroyed the victim's queued inbox.
    CrashInbox,
    /// A crash destroyed the victim's still-in-flight outgoing messages.
    CrashInFlight,
    /// A rejoin destroyed deliveries that completed while the host was down.
    RejoinArrived,
    /// Topology repair removed the edge the messages were travelling on.
    RepairEdge,
}

/// Which Byzantine perturbation an attacker applied
/// (`TraceEvent::AttackInject`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AttackKind {
    /// Parameters replaced with seeded wire-valid noise.
    Garbage,
    /// Parameters negated.
    SignFlip,
    /// Parameters scaled by a constant factor.
    Scale,
    /// Parameters drifted toward the colluders' shared target.
    Drift,
}

/// Which event class an execute batch carried (`TraceEvent::ExecuteBatch`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BatchClass {
    /// `TrainDone` events: τ SGD steps plus message building per node.
    Train,
    /// `Mix` events: mailbox drain plus aggregation per node.
    Mix,
}

/// One structured telemetry event.
///
/// All variants are heapless (`Copy`), so a [`crate::FlightRecorder`]'s
/// byte bound is exactly `capacity × size_of::<TraceEvent>()`. Virtual
/// times are integer nanoseconds on the simulation clock (`t_ns`);
/// deterministic by construction. The only wall-clock (hence
/// nondeterministic) fields are the `wall_start_ns` / `*_ns` phase timings
/// of [`TraceEvent::ExecuteBatch`] — the side channel that
/// [`TraceEvent::canonical`] strips.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// The run began.
    RunStart {
        /// Cluster size.
        nodes: u32,
        /// Configured communication rounds.
        rounds: u32,
        /// Master seed.
        seed: u64,
    },
    /// The run ended (normally or by early stop).
    RunEnd {
        /// Final virtual time.
        t_ns: u64,
        /// Rounds completed cluster-wide.
        rounds_run: u32,
        /// High-water mark of the event-queue depth over the whole run.
        queue_depth_hwm: u32,
    },
    /// A node crashed (lifecycle epoch bumped; round in progress abandoned).
    NodeCrash {
        /// Virtual time of the crash.
        t_ns: u64,
        /// The victim.
        node: u32,
        /// The victim's lifecycle epoch after the crash.
        epoch: u64,
        /// No recovery is scheduled: survivors forget their edge state.
        permanent: bool,
    },
    /// A crashed node rejoined.
    NodeRejoin {
        /// Virtual time of the rejoin.
        t_ns: u64,
        /// The rejoiner.
        node: u32,
        /// The rejoiner's lifecycle epoch after the rejoin.
        epoch: u64,
        /// Donor node for a re-synced rejoin (`None` = warm restart).
        resync_from: Option<u32>,
    },
    /// A message entered the transport.
    MsgSend {
        /// Virtual send time.
        t_ns: u64,
        /// Sender.
        from: u32,
        /// Receiver.
        to: u32,
        /// The sender's round stamp.
        round: u32,
        /// Wire bytes.
        bytes: u64,
        /// Virtual arrival time.
        arrives_ns: u64,
    },
    /// The loss model dropped a message at send time.
    MsgDrop {
        /// Virtual send time.
        t_ns: u64,
        /// Sender.
        from: u32,
        /// Receiver.
        to: u32,
        /// The sender's round stamp.
        round: u32,
        /// Wire bytes lost.
        bytes: u64,
    },
    /// A purge destroyed `count` messages at `node`.
    MsgKill {
        /// Virtual time of the purge.
        t_ns: u64,
        /// The node whose messages died (victim or edge endpoint).
        node: u32,
        /// Messages destroyed.
        count: u64,
        /// What destroyed them.
        reason: KillReason,
    },
    /// TTL expiry at mailbox drain discarded `count` messages.
    MsgExpire {
        /// Virtual drain time.
        t_ns: u64,
        /// The draining node.
        node: u32,
        /// The draining node's round.
        round: u32,
        /// Messages expired (TTL plus over-cap drops).
        count: u64,
    },
    /// One message was mixed into a node's aggregate.
    MsgMixed {
        /// Virtual mix time.
        t_ns: u64,
        /// The aggregating node.
        node: u32,
        /// The sender.
        from: u32,
        /// The aggregating node's round.
        round: u32,
        /// The sender's round stamp.
        sent_round: u32,
        /// Message age at mix time, in virtual seconds.
        staleness_s: f64,
    },
    /// A node finished its local training for a round.
    Train {
        /// Virtual completion time.
        t_ns: u64,
        /// The node.
        node: u32,
        /// The round trained for.
        round: u32,
        /// Virtual compute duration (τ local steps at this node's speed).
        compute_ns: u64,
    },
    /// A round context was resolved (topology + repair).
    RoundResolve {
        /// Virtual time of the resolution.
        t_ns: u64,
        /// The round.
        round: u32,
        /// Undirected edges in the (possibly repaired) round topology.
        edges: u32,
        /// Resolved through the liveness-aware repair path.
        repaired: bool,
    },
    /// A crash abandoned a node's round in progress.
    RoundAbandon {
        /// Virtual time of the crash.
        t_ns: u64,
        /// The crashed node.
        node: u32,
        /// The abandoned round.
        round: u32,
    },
    /// The n-th node passed a round: it is complete cluster-wide.
    RoundComplete {
        /// Virtual completion time.
        t_ns: u64,
        /// The completed round.
        round: u32,
    },
    /// An evaluation point fired (round-complete eval or virtual-time tick).
    Eval {
        /// Virtual evaluation time.
        t_ns: u64,
        /// Last completed round at evaluation time.
        round: u32,
        /// `true` for an `eval_interval_s` checkpoint tick.
        checkpoint: bool,
        /// Mean test accuracy across nodes.
        accuracy: f64,
    },
    /// Topology repair rewired cached round contexts after a lifecycle
    /// event (or resolved a fresh round through the repair path).
    RepairRewire {
        /// Virtual time of the rewire.
        t_ns: u64,
        /// Live-set version the rewire was computed against.
        live_version: u64,
        /// Detour edges added across the re-resolved rounds.
        edges_added: u64,
        /// Rounds re-resolved (1 for a fresh `RoundResolve`-path repair).
        rounds_refreshed: u32,
    },
    /// A strategy's pair-vs-fresh-fallback decisions since its last report
    /// (see `ShareStrategy::pairing_stats`; PowerGossip implements it).
    StrategyPairing {
        /// Virtual time of the report (the node's mix commit).
        t_ns: u64,
        /// The reporting node.
        node: u32,
        /// The node's round at the report.
        round: u32,
        /// Successfully paired exchanges.
        paired: u64,
        /// Fresh-plane fallbacks (divergence, desync, overfull stash).
        fresh_resets: u64,
        /// Pre-advance leftovers ignored without a reset.
        ignored: u64,
    },
    /// A Byzantine node perturbed the parameters it advertised for a round
    /// (injection happens at message-build time, right after the node's
    /// `Train` event; a crashed node builds no messages and never injects).
    AttackInject {
        /// Virtual time of the injection (the node's train completion).
        t_ns: u64,
        /// The attacking node.
        node: u32,
        /// The round whose outbound messages carry the perturbation.
        round: u32,
        /// Which perturbation was applied.
        kind: AttackKind,
    },
    /// A robust aggregation rule removed mass at a node's mix (emitted only
    /// when something was actually trimmed or clipped).
    RobustClip {
        /// Virtual time of the mix commit.
        t_ns: u64,
        /// The aggregating node.
        node: u32,
        /// The node's round at the mix.
        round: u32,
        /// Entries removed: trimmed coordinate entries, or clipped messages.
        clipped: u64,
        /// Mixing weight removed and renormalized over the surviving
        /// entries.
        mass: f64,
    },
    /// One window of the event scheduler — events executed in parallel ahead
    /// of their commits — has fully committed. The `wall_*`/`*_ns` phase
    /// fields are host wall-clock (the nondeterministic side channel);
    /// everything else is deterministic.
    ExecuteBatch {
        /// Virtual time of the window's last member, whose commit this
        /// event follows (windows nest, so the head's time could lie behind
        /// events already traced).
        t_ns: u64,
        /// The event class the window carried.
        class: BatchClass,
        /// The head's round (a window may span rounds).
        round: u32,
        /// Events in the window after stale-epoch filtering.
        width: u32,
        /// Pending events — queued, or executed ahead by an enclosing
        /// window — right after the window was popped.
        queue_depth: u32,
        /// The event-queue shard the batch head was routed to (0 on the
        /// unsharded engine; absent in pre-shard traces, which parse as 0).
        #[serde(default)]
        shard: u32,
        /// Wall-clock offset from run start at which gathering began (ns).
        wall_start_ns: u64,
        /// Wall nanoseconds spent gathering the window, sequentially: queue
        /// pops, stale-epoch filtering, round-context resolution.
        propose_ns: u64,
        /// Wall nanoseconds spent in the parallel execute phase.
        execute_ns: u64,
        /// Wall nanoseconds spent committing this window's own members
        /// (sequential; nested windows report theirs).
        commit_ns: u64,
    },
}

impl TraceEvent {
    /// Virtual time of the event on the simulation clock (ns);
    /// [`TraceEvent::RunStart`] is pinned to 0.
    pub fn t_ns(&self) -> u64 {
        match *self {
            TraceEvent::RunStart { .. } => 0,
            TraceEvent::RunEnd { t_ns, .. }
            | TraceEvent::NodeCrash { t_ns, .. }
            | TraceEvent::NodeRejoin { t_ns, .. }
            | TraceEvent::MsgSend { t_ns, .. }
            | TraceEvent::MsgDrop { t_ns, .. }
            | TraceEvent::MsgKill { t_ns, .. }
            | TraceEvent::MsgExpire { t_ns, .. }
            | TraceEvent::MsgMixed { t_ns, .. }
            | TraceEvent::Train { t_ns, .. }
            | TraceEvent::RoundResolve { t_ns, .. }
            | TraceEvent::RoundAbandon { t_ns, .. }
            | TraceEvent::RoundComplete { t_ns, .. }
            | TraceEvent::Eval { t_ns, .. }
            | TraceEvent::RepairRewire { t_ns, .. }
            | TraceEvent::StrategyPairing { t_ns, .. }
            | TraceEvent::AttackInject { t_ns, .. }
            | TraceEvent::RobustClip { t_ns, .. }
            | TraceEvent::ExecuteBatch { t_ns, .. } => t_ns,
        }
    }

    /// The variant name, stable across releases — the key used by event
    /// counters (`trace_report`), the metrics registry and `run_diff`'s
    /// per-kind delta table.
    pub fn kind_name(&self) -> &'static str {
        match self {
            TraceEvent::RunStart { .. } => "RunStart",
            TraceEvent::RunEnd { .. } => "RunEnd",
            TraceEvent::NodeCrash { .. } => "NodeCrash",
            TraceEvent::NodeRejoin { .. } => "NodeRejoin",
            TraceEvent::MsgSend { .. } => "MsgSend",
            TraceEvent::MsgDrop { .. } => "MsgDrop",
            TraceEvent::MsgKill { .. } => "MsgKill",
            TraceEvent::MsgExpire { .. } => "MsgExpire",
            TraceEvent::MsgMixed { .. } => "MsgMixed",
            TraceEvent::Train { .. } => "Train",
            TraceEvent::RoundResolve { .. } => "RoundResolve",
            TraceEvent::RoundAbandon { .. } => "RoundAbandon",
            TraceEvent::RoundComplete { .. } => "RoundComplete",
            TraceEvent::Eval { .. } => "Eval",
            TraceEvent::RepairRewire { .. } => "RepairRewire",
            TraceEvent::StrategyPairing { .. } => "StrategyPairing",
            TraceEvent::AttackInject { .. } => "AttackInject",
            TraceEvent::RobustClip { .. } => "RobustClip",
            TraceEvent::ExecuteBatch { .. } => "ExecuteBatch",
        }
    }

    /// The event with its wall-clock side channel zeroed: canonical traces
    /// are invariant under the worker-thread count (and host load), so they
    /// can be compared across runs the way `RoundRecord`s are.
    #[must_use]
    pub fn canonical(self) -> Self {
        match self {
            TraceEvent::ExecuteBatch {
                t_ns,
                class,
                round,
                width,
                queue_depth,
                shard,
                ..
            } => TraceEvent::ExecuteBatch {
                t_ns,
                class,
                round,
                width,
                queue_depth,
                shard,
                wall_start_ns: 0,
                propose_ns: 0,
                execute_ns: 0,
                commit_ns: 0,
            },
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<TraceEvent> {
        vec![
            TraceEvent::RunStart {
                nodes: 16,
                rounds: 30,
                seed: 42,
            },
            TraceEvent::RunEnd {
                t_ns: 9_000_000_000,
                rounds_run: 30,
                queue_depth_hwm: 48,
            },
            TraceEvent::NodeCrash {
                t_ns: 6_500_000_000,
                node: 3,
                epoch: 1,
                permanent: false,
            },
            TraceEvent::NodeRejoin {
                t_ns: 14_500_000_000,
                node: 3,
                epoch: 2,
                resync_from: Some(0),
            },
            TraceEvent::NodeRejoin {
                t_ns: 14_500_000_000,
                node: 4,
                epoch: 2,
                resync_from: None,
            },
            TraceEvent::MsgSend {
                t_ns: 1_000,
                from: 0,
                to: 1,
                round: 0,
                bytes: 4096,
                arrives_ns: 6_000,
            },
            TraceEvent::MsgDrop {
                t_ns: 1_000,
                from: 0,
                to: 2,
                round: 0,
                bytes: 4096,
            },
            TraceEvent::MsgKill {
                t_ns: 6_500_000_000,
                node: 3,
                count: 5,
                reason: KillReason::CrashInbox,
            },
            TraceEvent::MsgExpire {
                t_ns: 2_000_000,
                node: 7,
                round: 4,
                count: 2,
            },
            TraceEvent::MsgMixed {
                t_ns: 2_000_000,
                node: 7,
                from: 2,
                round: 4,
                sent_round: 3,
                staleness_s: 0.125,
            },
            TraceEvent::Train {
                t_ns: 1_000_000,
                node: 0,
                round: 0,
                compute_ns: 1_000_000,
            },
            TraceEvent::RoundResolve {
                t_ns: 0,
                round: 0,
                edges: 32,
                repaired: true,
            },
            TraceEvent::RoundAbandon {
                t_ns: 6_500_000_000,
                node: 3,
                round: 6,
            },
            TraceEvent::RoundComplete {
                t_ns: 3_000_000_000,
                round: 2,
            },
            TraceEvent::Eval {
                t_ns: 3_000_000_000,
                round: 2,
                checkpoint: false,
                accuracy: 0.875,
            },
            TraceEvent::RepairRewire {
                t_ns: 6_500_000_000,
                live_version: 2,
                edges_added: 3,
                rounds_refreshed: 2,
            },
            TraceEvent::StrategyPairing {
                t_ns: 2_000_000,
                node: 7,
                round: 4,
                paired: 3,
                fresh_resets: 1,
                ignored: 0,
            },
            TraceEvent::AttackInject {
                t_ns: 1_000_000,
                node: 5,
                round: 0,
                kind: AttackKind::SignFlip,
            },
            TraceEvent::RobustClip {
                t_ns: 2_000_000,
                node: 7,
                round: 4,
                clipped: 12,
                mass: 0.75,
            },
            TraceEvent::ExecuteBatch {
                t_ns: 1_000_000,
                class: BatchClass::Mix,
                round: 4,
                width: 6,
                queue_depth: 20,
                shard: 3,
                wall_start_ns: 123,
                propose_ns: 456,
                execute_ns: 789,
                commit_ns: 10,
            },
        ]
    }

    #[test]
    fn every_variant_round_trips_through_jsonl() {
        for ev in samples() {
            let line = serde::json::to_string(&ev);
            let back: TraceEvent = serde::json::from_str(&line).expect("parses back");
            assert_eq!(back, ev, "round-trip mismatch for {line}");
        }
    }

    #[test]
    fn pre_shard_batch_lines_parse_with_shard_zero() {
        // Fixture traces recorded before the sharded engine carry no
        // `shard` key; they must keep loading (and comparing) as shard 0.
        let line = "{\"ExecuteBatch\":{\"t_ns\":1000,\"class\":\"Train\",\
                    \"round\":2,\"width\":4,\"queue_depth\":8,\
                    \"wall_start_ns\":5,\"propose_ns\":6,\"execute_ns\":7,\
                    \"commit_ns\":8}}";
        let ev: TraceEvent = serde::json::from_str(line).expect("old line parses");
        match ev {
            TraceEvent::ExecuteBatch { shard, width, .. } => {
                assert_eq!(shard, 0);
                assert_eq!(width, 4);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn canonical_strips_only_the_wall_side_channel() {
        for ev in samples() {
            let canon = ev.canonical();
            match ev {
                TraceEvent::ExecuteBatch {
                    t_ns,
                    class,
                    round,
                    width,
                    queue_depth,
                    shard,
                    ..
                } => {
                    assert_eq!(
                        canon,
                        TraceEvent::ExecuteBatch {
                            t_ns,
                            class,
                            round,
                            width,
                            queue_depth,
                            shard,
                            wall_start_ns: 0,
                            propose_ns: 0,
                            execute_ns: 0,
                            commit_ns: 0,
                        }
                    );
                }
                other => assert_eq!(canon, other, "non-batch events are untouched"),
            }
            assert_eq!(canon.t_ns(), ev.t_ns(), "virtual time survives");
        }
    }

    #[test]
    fn events_are_heapless() {
        // The flight-recorder byte bound counts `size_of::<TraceEvent>()`
        // per slot; a variant growing a heap allocation would break it.
        fn assert_copy<T: Copy>() {}
        assert_copy::<TraceEvent>();
    }
}
