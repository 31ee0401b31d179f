//! The barrier scheduler: the paper's bulk-synchronous round loop.
//!
//! Every round, all active nodes run the local half of the round program in
//! parallel, their messages are delivered sequentially in node order, and
//! all active nodes mix in parallel; the phases are barrier-separated, so
//! results do not depend on the worker count. Why this is its own scheduler
//! over [`super::round`] and not a degenerate event schedule is answered in
//! the [`super`] docs.
//!
//! The fault plan is sampled at round starts: before a round, every crash
//! and recovery due by then is replayed in timeline order, and a node that
//! is down sits the round out — it neither trains nor sends, nobody sends to
//! it, and it keeps its model. An outage that begins and ends between two
//! round starts costs no round.
//!
//! Each broadcast is decoded once per round, not once per receiver: the mix
//! phase's job owns one [`DecodeSlot`] per node that broadcast, the first
//! receiver to reach a slot fills it, the others fold what it holds, and
//! the job drops them all when the phase ends. JWINS folds a slot's
//! contribution with the same steps, in the same inbox order, as the bytes
//! it would have decoded itself, so sharing changes no bit — which
//! `engine::tests::shared_decodes_*` check against [`Decodes::Private`].
//! Every other strategy streams its messages and leaves its slots empty —
//! a few words per sender, no decoded values.
//! Per-edge messages differ by receiver and get no slot.

use super::round::{eval_due, fan_out, Scoreboard};
use super::{attack_kind, Run};
use crate::metrics::RunResult;
use crate::strategy::{DecodeSlot, Outbound};
use crate::Result;
use jwins_adversary::AttackBehavior;
use jwins_net::Transport;
use jwins_nn::model::Model;
use jwins_sim::{LifecycleEvent, LifecycleTracker, SimTime};
use jwins_trace::TraceEvent;

/// Who decodes a round's broadcasts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Decodes {
    /// One decode per broadcast, shared by its receivers.
    Shared,
    /// Every receiver decodes for itself: the reference the tests compare
    /// [`Decodes::Shared`] against.
    #[cfg(test)]
    Private,
}

/// Runs every configured round (or until the target accuracy is hit),
/// leaving the trained node states in place.
pub(super) fn run_sync<M>(
    run: &Run<'_, '_, M>,
    mut board: Scoreboard,
    decodes: Decodes,
) -> Result<RunResult>
where
    M: Model + Send,
    M::Sample: Send + Sync,
{
    let (config, network, tracer) = (run.config, run.network, run.tracer);
    let n = run.cells.len();
    // The events the event scheduler queues, replayed at round boundaries.
    let mut faults = run.faults.events().into_iter().peekable();
    let mut recoveries_left = vec![0usize; n];
    for fault in faults.clone().filter(|f| !f.event.is_crash()) {
        recoveries_left[fault.event.node()] += 1;
    }
    let mut lifecycle = LifecycleTracker::new(n);
    let mut alpha_history = Vec::new();
    let mut sim_time = 0.0f64;
    for round in 0..config.rounds {
        let topo = run.topology.topology(round);
        // Fault and attack plans are virtual-time schedules; resolve them at
        // the round's start time, sequentially.
        let t_start = SimTime::from_secs_f64(sim_time);
        while let Some(fault) = faults.next_if(|f| f.at <= t_start) {
            match fault.event {
                LifecycleEvent::Crash { node } => {
                    lifecycle.crash(node);
                    tracer.emit(TraceEvent::NodeCrash {
                        t_ns: t_start.0,
                        node: node as u32,
                        epoch: lifecycle.epoch(node),
                        permanent: recoveries_left[node] == 0,
                    });
                }
                LifecycleEvent::Recover { node } => {
                    recoveries_left[node] -= 1;
                    run.rejoin(&mut lifecycle, node, fault.rejoin, t_start);
                }
            }
        }
        board.tally.crashes = lifecycle.crashes();
        board.tally.rejoins = lifecycle.recoveries();
        // Down nodes skip the round entirely, keeping their last model.
        let alive = lifecycle.alive_flags().to_vec();
        let batch: Vec<(usize, Option<AttackBehavior>)> = (0..n)
            .filter(|&i| alive[i])
            .map(|i| (i, run.attacks.behavior_at(i, t_start)))
            .collect();
        // A phase's job outlives this loop body as far as the workers can
        // tell, so it owns the round's context instead of borrowing it.
        let built = {
            let topo = topo.clone();
            run.batch(batch.clone(), move |i, model, node, params, attack| {
                let neighbors: Vec<usize> = topo
                    .graph
                    .neighbors(i)
                    .iter()
                    .copied()
                    .filter(|&j| alive[j])
                    .collect();
                let outbound =
                    node.train_and_build(model, i, params, config, round, &neighbors, attack)?;
                Ok((neighbors, outbound))
            })?
        };
        // Sequential, after the barrier: one injection event per
        // attacker that actually sent this round.
        for &(i, attack) in &batch {
            if let Some(behavior) = attack {
                board.tally.attacks_injected += 1;
                tracer.emit(TraceEvent::AttackInject {
                    t_ns: t_start.0,
                    node: i as u32,
                    round: round as u32,
                    kind: attack_kind(behavior),
                });
            }
        }
        if config.record_alphas {
            let alphas = run.cells.iter().map(|c| c.lock().state.last_alpha);
            alpha_history.push(alphas.collect());
        }
        // Delivery, in node order; the busiest uplink prices the round.
        let mut max_node_bytes = 0u64;
        let mut slots: Vec<Option<DecodeSlot>> = Vec::new();
        if decodes == Decodes::Shared {
            slots.resize_with(n, || None);
        }
        for (&(i, _), (neighbors, outbound)) in batch.iter().zip(built) {
            if let (Some(slot), Outbound::Broadcast(_)) = (slots.get_mut(i), &outbound) {
                *slot = Some(DecodeSlot::new());
            }
            let mut node_bytes = 0u64;
            // Stamped with the round and its start, so a barrier trace runs
            // on one monotone clock.
            fan_out(outbound, &neighbors, i, round, t_start, |send| {
                node_bytes += send.message.payload().len() as u64;
                network.send(send);
            })?;
            max_node_bytes = max_node_bytes.max(node_bytes);
        }
        sim_time += config.time_model.round_seconds(max_node_bytes);
        run.batch(batch, move |i, _, node, params, _| {
            // No deadline, no TTL: barrier rounds deliver everything sent.
            let inbox = network.drain(i, SimTime::MAX, None).envelopes;
            node.mix_lockstep(i, params, round, &topo, &inbox, &slots, &config.robust)
        })?;
        board.rounds_run = round + 1;
        let t_ns = SimTime::from_secs_f64(sim_time).0;
        // Sequential, in node order — strategy telemetry is drained only
        // from the barrier, never from the parallel mix phase.
        for (i, cell) in run.cells.iter().enumerate() {
            let mass_clipped = &mut board.tally.mass_clipped;
            cell.lock()
                .state
                .drain_stats(i, round, t_ns, tracer, mass_clipped);
        }
        tracer.emit(TraceEvent::RoundComplete {
            t_ns,
            round: round as u32,
        });
        if eval_due(config, round) {
            let scores = run.evaluate()?;
            if board.record(round, t_ns, sim_time, false, &scores) {
                break;
            }
        }
    }
    let t_end = SimTime::from_secs_f64(sim_time).0;
    Ok(board.finish(t_end, 0, alpha_history))
}
