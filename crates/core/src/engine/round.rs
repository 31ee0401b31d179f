//! The per-node round program (paper §II-A, Alg. 1), written once.
//!
//! What a node *does* in a round is the same under every scheduler: τ local
//! SGD steps → build one strategy message (from a perturbed copy if the node
//! is Byzantine this round) → fan it out to the round's neighbours → mix what
//! arrived with Metropolis–Hastings weights → evaluate. The two schedulers
//! (`barrier`, `event`) only decide *when* each step runs; neither calls a
//! strategy itself, so this module is the single boundary where messages
//! are built and mixed.
//! [`Scoreboard`] is the matching single place where per-node metrics become
//! a [`RoundRecord`].

use crate::config::TrainConfig;
use crate::engine::Trainer;
use crate::metrics::{RoundRecord, RunResult, TargetHit};
use crate::strategy::{DecodeSlot, OutMessage, Outbound, ReceivedMessage, ShareStrategy};
use crate::{JwinsError, Result};
use jwins_adversary::{AttackBehavior, Robust};
use jwins_data::batch::BatchSampler;
use jwins_net::{Envelope, SimNetwork, Transport};
use jwins_nn::model::{EvalMetrics, Model};
use jwins_topology::dynamic::RoundTopology;
use jwins_trace::{TraceEvent, Tracer};
use std::sync::Arc;

/// Engine-side seed salt for attack-plan expansion — distinct from every
/// other salt so the attack schedule draws randomness independent of fault
/// expansion, compute speeds, link jitter, queue tie-breaks and loss draws.
pub(crate) const ATTACK_SALT: u64 = 0x4174_636B; // "Atck"

/// Seed salt for fault-plan expansion. The builder expands the plan once
/// with it, so one plan and one seed give one outage timeline whichever
/// scheduler replays it.
pub(crate) const FAULT_SALT: u64 = 0xFA_17;

/// Per-node training state: what a node must remember between its turns,
/// apart from its flat parameters. Those live in the trainer's
/// [`crate::arena::ParamArena`] — one contiguous buffer indexed by node id —
/// and every method takes the node's window as a slice. A node owns no
/// [`Model`]: an instance is a workspace whose results depend only on the
/// parameters loaded into it, so the methods that compute borrow whichever
/// one the calling worker holds.
pub(crate) struct NodeState<M: Model> {
    pub(crate) sampler: BatchSampler<M::Sample>,
    pub(crate) strategy: Box<dyn ShareStrategy>,
    pub(crate) last_train_loss: f32,
    pub(crate) last_alpha: f64,
}

/// Whether completing `round` cluster-wide is an evaluation point.
pub(crate) fn eval_due(config: &TrainConfig, round: usize) -> bool {
    round + 1 == config.rounds
        || (config.eval_every > 0 && (round + 1).is_multiple_of(config.eval_every))
}

/// Expands what a node built into one `(to, message)` call per neighbour
/// that gets one, in neighbour order. The count check runs before anything
/// is emitted.
///
/// # Errors
///
/// A `PerEdge` outbound whose length differs from the neighbour list.
pub(crate) fn fan_out(
    outbound: Outbound,
    neighbors: &[usize],
    mut emit: impl FnMut(usize, OutMessage),
) -> Result<()> {
    match outbound {
        Outbound::Broadcast(msg) => {
            for &to in neighbors {
                emit(to, msg.clone());
            }
        }
        Outbound::PerEdge(messages) => {
            if messages.len() != neighbors.len() {
                return Err(JwinsError::Protocol(
                    "per-edge message count mismatches neighbour count",
                ));
            }
            for (&to, msg) in neighbors.iter().zip(messages) {
                if let Some(msg) = msg {
                    emit(to, msg);
                }
            }
        }
    }
    Ok(())
}

/// Metropolis–Hastings weight of the edge `node ← from` under the round's
/// topology; `None` when `from` is not a neighbour there. Lockstep
/// schedulers treat that as a protocol violation, the event scheduler drops
/// the message (a dynamic graph moved on while it was in flight).
pub(crate) fn weigh(topo: &RoundTopology, node: usize, from: usize) -> Option<f64> {
    let pos = topo.graph.neighbors(node).binary_search(&from).ok()?;
    Some(topo.weights.neighbor_weights(node)[pos])
}

impl<M: Model> NodeState<M> {
    /// The local half of a round: τ SGD steps, then this round's outbound
    /// message. A Byzantine node (`attack`) still trains honestly — its own
    /// trajectory is untouched — but builds the message from a perturbed
    /// *copy* of its parameters; honest nodes take the copy-free path.
    /// The instruction sequence is identical under every scheduler, which is
    /// what makes degenerate event runs replay barrier runs bit-for-bit.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn train_and_build(
        &mut self,
        model: &mut M,
        id: usize,
        params: &mut [f32],
        config: &TrainConfig,
        round: usize,
        neighbors: &[usize],
        attack: Option<AttackBehavior>,
    ) -> Result<Outbound> {
        let lr = config.lr;
        model.set_params(params);
        let mut loss = 0.0;
        for _ in 0..config.local_steps {
            let batch = self.sampler.sample(config.batch_size);
            let (l, grad) = model.loss_and_grad(&batch);
            loss = l;
            for (p, g) in params.iter_mut().zip(&grad) {
                *p -= lr * g;
            }
            model.set_params(params);
        }
        self.last_train_loss = loss;
        let outbound = if let Some(behavior) = attack {
            let mut tainted = params.to_vec();
            let seed = config.seed ^ ATTACK_SALT;
            jwins_adversary::apply_behavior(behavior, seed, id, round, &mut tainted);
            self.strategy.make_outbound(round, &tainted, neighbors)?
        } else {
            self.strategy.make_outbound(round, params, neighbors)?
        };
        self.last_alpha = self.strategy.last_alpha();
        Ok(outbound)
    }

    /// Folds the weighted messages into the node's parameters, screening
    /// them with the run's `robust` rule when one is configured (the builder
    /// has already rejected strategies that cannot).
    pub(crate) fn mix(
        &mut self,
        params: &mut [f32],
        round: usize,
        self_weight: f64,
        received: &[ReceivedMessage<'_>],
        robust: &Robust,
    ) -> Result<()> {
        self.strategy
            .aggregate_into(round, params, self_weight, received, robust)
    }

    /// [`Self::mix`] for the lockstep scheduler (the barrier): every
    /// message in `inbox` was built for `round` and mixes at its full edge
    /// weight. `slots[j]`, where there is one, is where sender `j`'s
    /// broadcast is decoded for all its receivers; an empty `slots` has
    /// every message decoded by its receiver alone.
    ///
    /// # Errors
    ///
    /// A sender outside the round's neighbour list is a protocol violation.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn mix_lockstep(
        &mut self,
        id: usize,
        params: &mut [f32],
        round: usize,
        topo: &RoundTopology,
        inbox: &[Envelope],
        slots: &[Option<DecodeSlot>],
        robust: &Robust,
    ) -> Result<()> {
        let received: Vec<ReceivedMessage<'_>> = inbox
            .iter()
            .map(|env| {
                let from = env.from as usize;
                let weight = weigh(topo, id, from)
                    .ok_or(JwinsError::Protocol("message from non-neighbour"))?;
                Ok(ReceivedMessage {
                    from,
                    round,
                    weight,
                    bytes: &env.payload,
                    decoded: slots.get(from).and_then(Option::as_ref),
                })
            })
            .collect::<Result<_>>()?;
        self.mix(
            params,
            round,
            topo.weights.self_weight(id),
            &received,
            robust,
        )
    }

    /// Drains the strategy's robust-aggregation telemetry into
    /// the trace, adding the clipped mass to `mass_clipped`. Called from
    /// sequential code only, and unconditionally (take-and-reset): the drain
    /// is part of the deterministic schedule whether or not any sink listens.
    pub(crate) fn drain_stats(
        &mut self,
        id: usize,
        round: usize,
        t_ns: u64,
        tracer: &Tracer,
        mass_clipped: &mut f64,
    ) {
        if let Some(rs) = self.strategy.robust_stats() {
            *mass_clipped += rs.mass;
            tracer.emit(TraceEvent::RobustClip {
                t_ns,
                node: id as u32,
                round: round as u32,
                clipped: rs.clipped,
                mass: rs.mass,
            });
        }
    }

    /// Evaluates the node's parameters on the shared test set (its first
    /// `cap` samples when `0 < cap < len`), in chunks of 64.
    pub(crate) fn evaluate(
        &self,
        model: &mut M,
        params: &[f32],
        test: &[M::Sample],
        cap: usize,
    ) -> NodeScore {
        let subset = if cap == 0 || cap >= test.len() {
            test
        } else {
            &test[..cap]
        };
        model.set_params(params);
        let mut eval = EvalMetrics::default();
        for chunk in subset.chunks(64) {
            eval.merge(&model.evaluate(chunk));
        }
        NodeScore {
            eval,
            train_loss: self.last_train_loss,
            alpha: self.last_alpha,
        }
    }
}

/// One node's contribution to an evaluation point.
pub(crate) struct NodeScore {
    pub(crate) eval: EvalMetrics,
    pub(crate) train_loss: f32,
    pub(crate) alpha: f64,
}

/// Running staleness/fault/repair/attack counters surfaced in every
/// [`RoundRecord`]; schedulers bump the ones they can produce.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Tally {
    pub(crate) total_staleness_s: f64,
    pub(crate) mixed_messages: u64,
    pub(crate) crashes: u64,
    pub(crate) rejoins: u64,
    pub(crate) downweight_mass: f64,
    pub(crate) edges_rewired: u64,
    pub(crate) bandwidth_saved_bytes: u64,
    pub(crate) attacks_injected: u64,
    pub(crate) mass_clipped: f64,
}

/// The run's ledger: turns per-node scores into [`RoundRecord`]s, emits the
/// matching [`TraceEvent::Eval`], decides the target hit and assembles the
/// [`RunResult`]. Only ever driven from sequential (or lock-holding) code.
pub(crate) struct Scoreboard {
    pub(crate) tally: Tally,
    pub(crate) rounds_run: usize,
    records: Vec<RoundRecord>,
    reached_target: Option<TargetHit>,
    target: Option<f64>,
    strategy: String,
    network: Arc<SimNetwork>,
    tracer: Arc<Tracer>,
}

impl Scoreboard {
    pub(crate) fn new<M: Model>(trainer: &Trainer<M>) -> Self {
        Self {
            tally: Tally::default(),
            rounds_run: 0,
            records: Vec::new(),
            reached_target: None,
            target: trainer.config.target_accuracy,
            strategy: trainer.nodes[0].strategy.name().to_owned(),
            network: Arc::clone(&trainer.network),
            tracer: Arc::clone(&trainer.tracer),
        }
    }

    /// Records one evaluation point from every node's score, in node order
    /// (float sums must not depend on which worker finished first). Returns
    /// `true` when a round-boundary record is the first to reach the target
    /// accuracy — the caller stops the run. Checkpoints never stop it.
    pub(crate) fn record(
        &mut self,
        round: usize,
        t_ns: u64,
        sim_time_s: f64,
        checkpoint: bool,
        scores: &[NodeScore],
    ) -> bool {
        let n = scores.len() as f64;
        let mut merged = EvalMetrics::default();
        for score in scores {
            merged.merge(&score.eval);
        }
        let total = self.network.total_stats();
        let tally = self.tally;
        let record = RoundRecord {
            round,
            train_loss: scores.iter().map(|s| f64::from(s.train_loss)).sum::<f64>() / n,
            test_loss: merged.mean_loss(),
            test_accuracy: merged.accuracy(),
            test_rmse: merged.rmse(),
            mean_alpha: scores.iter().map(|s| s.alpha).sum::<f64>() / n,
            cum_bytes_per_node: total.bytes_sent as f64 / n,
            cum_payload_per_node: total.payload_sent as f64 / n,
            cum_metadata_per_node: total.metadata_sent as f64 / n,
            sim_time_s,
            mean_staleness_s: if tally.mixed_messages == 0 {
                0.0
            } else {
                tally.total_staleness_s / tally.mixed_messages as f64
            },
            crashes: tally.crashes,
            rejoins: tally.rejoins,
            messages_expired: total.messages_expired,
            downweight_mass: tally.downweight_mass,
            edges_rewired: tally.edges_rewired,
            bandwidth_saved_bytes: tally.bandwidth_saved_bytes,
            attacks_injected: tally.attacks_injected,
            mass_clipped: tally.mass_clipped,
            per_node_accuracy: scores.iter().map(|s| s.eval.accuracy()).collect(),
            checkpoint,
        };
        self.tracer.emit(TraceEvent::Eval {
            t_ns,
            round: round as u32,
            checkpoint,
            accuracy: record.test_accuracy,
        });
        let hit = !checkpoint
            && self.reached_target.is_none()
            && self.target.is_some_and(|t| record.test_accuracy >= t);
        if hit {
            self.reached_target = Some(TargetHit {
                round,
                sim_time_s,
                bytes_per_node: record.cum_bytes_per_node,
            });
        }
        self.records.push(record);
        hit
    }

    /// Whether a record already stopped the run.
    pub(crate) fn stopped(&self) -> bool {
        self.reached_target.is_some()
    }

    /// Closes the trace and assembles the result; `alpha_rows` holds one row
    /// per round, of which only the completed ones are reported.
    pub(crate) fn finish(
        self,
        t_ns: u64,
        queue_depth_hwm: u32,
        alpha_rows: Vec<Vec<f64>>,
    ) -> RunResult {
        self.tracer.emit(TraceEvent::RunEnd {
            t_ns,
            rounds_run: self.rounds_run as u32,
            queue_depth_hwm,
        });
        RunResult {
            strategy: self.strategy,
            records: self.records,
            total_traffic: self.network.total_stats(),
            rounds_run: self.rounds_run,
            reached_target: self.reached_target,
            alpha_history: alpha_rows.into_iter().take(self.rounds_run).collect(),
            measured_latency_s: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::FullSharing;
    use bytes::Bytes;
    use jwins_net::ByteBreakdown;
    use jwins_nn::models::{mlp_classifier, ImageClassifier};
    use jwins_sim::SimTime;
    use jwins_topology::Graph;

    fn message(len: usize) -> OutMessage {
        let breakdown = ByteBreakdown {
            payload: len,
            metadata: 0,
        };
        OutMessage::new(vec![7; len], breakdown)
    }

    fn emitted(outbound: Outbound, neighbors: &[usize]) -> Result<Vec<(usize, usize)>> {
        let mut seen = Vec::new();
        fan_out(outbound, neighbors, |to, msg| {
            seen.push((to, msg.bytes.len()))
        })?;
        Ok(seen)
    }

    #[test]
    fn fan_out_addresses_neighbours_in_order() {
        let broadcast = emitted(Outbound::Broadcast(message(3)), &[4, 1, 9]).unwrap();
        assert_eq!(broadcast, vec![(4, 3), (1, 3), (9, 3)]);
        let per_edge = Outbound::PerEdge(vec![Some(message(2)), None, Some(message(5))]);
        assert_eq!(emitted(per_edge, &[4, 1, 9]).unwrap(), vec![(4, 2), (9, 5)]);
        assert!(emitted(Outbound::Broadcast(message(3)), &[])
            .unwrap()
            .is_empty());
    }

    #[test]
    fn fan_out_rejects_a_per_edge_count_mismatch_before_sending_anything() {
        for neighbors in [&[4usize, 1][..], &[4, 1, 9, 2]] {
            let per_edge = Outbound::PerEdge(vec![Some(message(2)), None, Some(message(5))]);
            let mut sent = 0;
            let err = fan_out(per_edge, neighbors, |_, _| sent += 1).unwrap_err();
            assert!(
                matches!(err, JwinsError::Protocol(what) if what.contains("per-edge message count")),
                "{err}"
            );
            assert_eq!(sent, 0);
        }
    }

    /// A path 0 – 1 – 2: node 0 neighbours 1 only.
    fn path() -> RoundTopology {
        RoundTopology::new(Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap())
    }

    #[test]
    fn weigh_is_the_mixing_weight_or_none_for_a_stranger() {
        let topo = path();
        assert_eq!(
            weigh(&topo, 0, 1),
            Some(topo.weights.neighbor_weights(0)[0])
        );
        assert_eq!(
            weigh(&topo, 1, 2),
            Some(topo.weights.neighbor_weights(1)[1])
        );
        assert_eq!(weigh(&topo, 0, 2), None, "two hops away is not a neighbour");
        assert_eq!(weigh(&topo, 0, 0), None, "nor is the node itself");
    }

    #[test]
    fn a_node_carries_no_model() {
        // Sampler (shard `Vec`, cursor, 136-byte RNG) + boxed strategy + two
        // floats. One more 8-byte field costs 128 KiB at 16 384 nodes, and a
        // model here — even an empty three-layer `ImageClassifier` — 0.9 MiB
        // inline plus ≈ 14 MiB of layer buffers on the heap.
        assert!(std::mem::size_of::<NodeState<ImageClassifier>>() <= 192);
    }

    #[test]
    fn lockstep_mix_rejects_a_message_from_a_non_neighbour() {
        let topo = path();
        let mut params = mlp_classifier(4, &[2], 2, 1).params();
        let mut strategy: Box<dyn ShareStrategy> = Box::new(FullSharing::new());
        strategy.init(&params);
        let Outbound::Broadcast(msg) = strategy.make_outbound(0, &params, &[1]).unwrap() else {
            panic!("full sharing broadcasts");
        };
        let mut node: NodeState<ImageClassifier> = NodeState {
            sampler: BatchSampler::new(vec![(vec![0.0; 4], 0)], 1),
            strategy,
            last_train_loss: 0.0,
            last_alpha: 0.0,
        };
        let from = |from| Envelope {
            from,
            payload: Bytes::clone(&msg.bytes),
            sent: SimTime::ZERO,
            arrives: SimTime::ZERO,
            sent_round: 0,
        };
        let err = node
            .mix_lockstep(
                0,
                &mut params,
                0,
                &topo,
                &[from(1), from(2)],
                &[],
                &Robust::None,
            )
            .unwrap_err();
        assert!(
            matches!(err, JwinsError::Protocol("message from non-neighbour")),
            "{err}"
        );
        node.mix_lockstep(0, &mut params, 0, &topo, &[from(1)], &[], &Robust::None)
            .expect("a neighbour's message mixes");
    }
}
