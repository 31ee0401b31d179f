//! The barrier scheduler: the paper's bulk-synchronous round loop.
//!
//! Every round, all active nodes run the local half of the round program in
//! parallel, their messages are delivered sequentially in node order, and
//! all active nodes mix in parallel; the phases are barrier-separated, so
//! results do not depend on the worker count. Why this is its own scheduler
//! over [`super::round`] and not a degenerate event schedule is answered in
//! the [`super`] docs.

use super::round::{active_neighbors, eval_due, fan_out, Scoreboard, ATTACK_SALT};
use super::{attack_kind, Run};
use crate::metrics::RunResult;
use crate::{JwinsError, Result};
use jwins_adversary::{AttackBehavior, AttackTimeline};
use jwins_net::PendingSend;
use jwins_nn::model::Model;
use jwins_sim::SimTime;
use jwins_trace::TraceEvent;

/// Runs every configured round (or until the target accuracy is hit),
/// leaving the trained node states in place.
pub(super) fn run_sync<M>(run: &Run<'_, '_, M>, mut board: Scoreboard) -> Result<RunResult>
where
    M: Model + Send,
    M::Sample: Send + Sync,
{
    let (config, network, tracer) = (run.config, run.network, run.tracer);
    let n = run.cells.len();
    let attacks = AttackTimeline::expand(&config.attack, n, config.seed ^ ATTACK_SALT)
        .map_err(JwinsError::InvalidConfig)?;
    let mut alpha_history = Vec::new();
    let mut sim_time = 0.0f64;
    for round in 0..config.rounds {
        let topo = run.topology.topology(round);
        let active: Vec<bool> = (0..n)
            .map(|i| run.participation.is_active(round, i))
            .collect();
        // Attack windows are virtual-time spans; resolve them at the
        // round's start time, sequentially. Inactive nodes skip the
        // round entirely, keeping their last model.
        let t_start = SimTime::from_secs_f64(sim_time);
        let batch: Vec<(usize, Option<AttackBehavior>)> = (0..n)
            .filter(|&i| active[i])
            .map(|i| (i, attacks.behavior_at(i, t_start)))
            .collect();
        // A phase's job outlives this loop body as far as the workers can
        // tell, so it owns the round's context instead of borrowing it.
        let built = {
            let topo = topo.clone();
            run.batch(batch.clone(), move |i, model, node, params, attack| {
                let neighbors = active_neighbors(&topo, &active, i);
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
        for (&(i, _), (neighbors, outbound)) in batch.iter().zip(built) {
            let mut node_bytes = 0u64;
            fan_out(outbound, &neighbors, |to, msg| {
                node_bytes += msg.bytes.len() as u64;
                network.send(PendingSend::bulk(i, to, msg.bytes, msg.breakdown));
            })?;
            max_node_bytes = max_node_bytes.max(node_bytes);
        }
        sim_time += config.time_model.round_seconds(max_node_bytes);
        run.batch(batch, move |i, _, node, params, _| {
            // No deadline, no TTL: barrier rounds deliver everything sent.
            let inbox = network.drain(i, SimTime::MAX, None).envelopes;
            node.mix_lockstep(i, params, round, &topo, &inbox, &config.robust)
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
