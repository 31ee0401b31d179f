//! The real-concurrency scheduler: one OS thread per node.
//!
//! This is the engine's third scheduler, selected by
//! [`TransportKind::Channel`]: the *same* per-node round program as the
//! other two ([`crate::engine::round`] — τ local SGD steps → strategy-built
//! messages → Metropolis–Hastings mix), but with no global barrier and no
//! virtual clock. Every node runs on its own OS thread, messages cross real
//! [`jwins_net::ThreadChannelTransport`] channels, and time is the wall
//! clock mapped onto [`SimTime`] by the transport.
//!
//! # What replaces the barrier
//!
//! A node finishing round `r` *waits* — bounded by
//! [`crate::config::ChannelTransportConfig::mix_wait_ms`] — until a round-`r`
//! message from every neighbour has arrived, then mixes and moves
//! on. A fast neighbour may already be a round ahead; its early messages
//! are stashed and consumed when their round comes. A peer that never
//! sends (a `PerEdge` strategy skipping an edge, or a node that stopped
//! early) costs one timeout, not a deadlock.
//!
//! # What this driver deliberately does not do
//!
//! Runs here are **not** bit-reproducible: thread scheduling decides
//! arrival interleavings and wall-clock stamps. The determinism story is
//! instead the *cross-check* ([`crate::crosscheck`]): the accuracy
//! trajectory must stay within a declared tolerance of a sim-oracle replay
//! of the same config + seed under the transport's measured latency
//! profile. Everything that only has meaning on the virtual clock (fault
//! plans, modelled heterogeneity, seeded loss, attack windows) is rejected
//! at validation time — see [`crate::config::TrainConfig::validate`].

#![warn(clippy::too_many_lines)]

use crate::config::{ChannelTransportConfig, TransportKind};
use crate::engine::round::{eval_due, fan_out, NodeScore, NodeState, Scoreboard};
use crate::engine::Trainer;
use crate::metrics::RunResult;
use crate::{JwinsError, Result};
use jwins_net::{Envelope, PendingSend, Transport};
use jwins_nn::model::Model;
use jwins_sim::SimTime;
use jwins_topology::dynamic::RoundTopology;
use jwins_trace::TraceEvent;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// The cluster-shared round ledger. Nodes deposit as they finish a round;
/// the `n`-th depositor finalizes it (round-completion trace, evaluation
/// record, early-stop check) while still holding the lock, so records form
/// in strict round order.
struct Board {
    /// Per-round deposit slots, indexed by node: `Some` once the node has
    /// finished the round, holding its score on evaluation rounds. A round's
    /// entry exists from its first deposit to its finalization.
    pending: HashMap<usize, Vec<Option<Option<NodeScore>>>>,
    scores: Scoreboard,
    alpha_rows: Vec<Vec<f64>>,
}

/// The bounded stand-in for the barrier: waits until every
/// neighbour's round-`round` message is in `stash`, the run is stopping, or
/// the wait budget is spent, then takes this round's messages out of it.
fn gather(
    network: &dyn Transport,
    channel: &ChannelTransportConfig,
    stop: &AtomicBool,
    stash: &mut Vec<Envelope>,
    node: usize,
    round: usize,
    neighbors: &[usize],
) -> Vec<Envelope> {
    let deadline = Instant::now() + Duration::from_millis(channel.mix_wait_ms);
    loop {
        stash.extend(network.drain(node, SimTime::MAX, None).envelopes);
        let complete = neighbors.iter().all(|&j| {
            (stash.iter()).any(|e| e.from as usize == j && e.sent_round as usize == round)
        });
        if complete || stop.load(Ordering::SeqCst) || Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(Duration::from_micros(channel.poll_us.max(1)));
    }
    // Split the stash: this round mixes now, future rounds wait, and a
    // message older than the current round missed the mix that wanted it
    // (its receive bytes stay metered — it did cross the wire).
    let mut inbox = Vec::new();
    let mut keep = Vec::new();
    for env in stash.drain(..) {
        match (env.sent_round as usize).cmp(&round) {
            std::cmp::Ordering::Equal => inbox.push(env),
            std::cmp::Ordering::Greater => keep.push(env),
            std::cmp::Ordering::Less => {}
        }
    }
    *stash = keep;
    // Arrival interleavings are scheduler-dependent; sorting by sender gives
    // the aggregation a stable fold order.
    inbox.sort_by_key(|env| env.from);
    inbox
}

/// Runs the trainer's round program on one OS thread per node over the
/// channel transport. Called by [`Trainer::run`] when
/// [`TransportKind::Channel`] is configured.
pub(crate) fn run_channel<M>(trainer: Trainer<M>) -> Result<RunResult>
where
    M: Model + Send,
    M::Sample: Send + Sync,
{
    let scores = Scoreboard::new(&trainer);
    let Trainer {
        config,
        topology,
        network,
        nodes,
        models,
        mut arena,
        test,
        tracer,
        ..
    } = trainer;
    let TransportKind::Channel(channel) = config.transport else {
        return Err(JwinsError::Protocol(
            "channel driver invoked without a channel transport",
        ));
    };
    let n = nodes.len();
    let rounds = config.rounds;

    // Round topologies are resolved up front, sequentially: providers are
    // not required to be `Sync`, and resolving per-thread would also re-draw
    // dynamic topologies n times. These are the topologies every other
    // scheduler would see.
    let topologies: Vec<RoundTopology> = (0..rounds).map(|r| topology.topology(r)).collect();

    let board = parking_lot::Mutex::new(Board {
        pending: HashMap::new(),
        scores,
        alpha_rows: if config.record_alphas {
            vec![vec![0.0; n]; rounds]
        } else {
            Vec::new()
        },
    });
    let stop = AtomicBool::new(false);

    let worker = |i: usize, mut state: NodeState<M>, params: &mut [f32]| -> Result<()> {
        // A node thread is this backend's worker: the builder kept one model
        // workspace per node, and thread `i` holds the `i`-th for its life.
        let mut model = models[i].lock();
        // Early messages from fast neighbours, waiting for their round.
        let mut stash: Vec<Envelope> = Vec::new();
        for (round, topo) in topologies.iter().enumerate() {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let mut mixed_now = 0u64;
            let mut staleness_now = 0.0f64;
            // Pull the wires before training: frames that landed while this
            // node was mixing or evaluating get their arrival stamped now, so
            // the measured flight latency reflects the wire, not the
            // receiver's own busy time (the cross-check oracle models busy
            // time as compute, not link latency).
            stash.extend(network.drain(i, SimTime::MAX, None).envelopes);
            let wall = Instant::now();
            let neighbors = topo.graph.neighbors(i);
            let outbound =
                state.train_and_build(&mut model, i, params, &config, round, neighbors, None)?;
            let now = network.now();
            tracer.emit(TraceEvent::Train {
                t_ns: now.0,
                node: i as u32,
                round: round as u32,
                compute_ns: wall.elapsed().as_nanos() as u64,
            });
            fan_out(outbound, neighbors, |to, msg| {
                network.send(PendingSend {
                    from: i,
                    to,
                    payload: msg.bytes,
                    breakdown: msg.breakdown,
                    sent: now,
                    // The true arrival instant is the receiver's to stamp;
                    // `arrives == sent` is the send-side view.
                    arrives: now,
                    sent_round: round,
                });
            })?;
            let inbox = gather(&*network, &channel, &stop, &mut stash, i, round, neighbors);
            let now = network.now();
            for env in &inbox {
                let staleness_s = now.since(env.sent).as_secs_f64();
                staleness_now += staleness_s;
                mixed_now += 1;
                tracer.emit(TraceEvent::MsgMixed {
                    t_ns: now.0,
                    node: i as u32,
                    from: env.from,
                    round: round as u32,
                    sent_round: env.sent_round,
                    staleness_s,
                });
            }
            // No barrier closes a round here, so nothing could own a slot
            // its receivers share: each node decodes what it receives.
            state.mix_lockstep(i, params, round, topo, &inbox, &[], &config.robust)?;
            let evaluating = eval_due(&config, round);
            let eval = evaluating
                .then(|| state.evaluate(&mut model, params, &test, config.eval_test_samples));

            let mut board = board.lock();
            board.scores.tally.total_staleness_s += staleness_now;
            board.scores.tally.mixed_messages += mixed_now;
            // The deposit is this driver's one sequential point: strategy
            // telemetry is drained here, like the other schedulers' commits.
            let mass_clipped = &mut board.scores.tally.mass_clipped;
            state.drain_stats(i, round, network.now().0, &tracer, mass_clipped);
            if config.record_alphas {
                board.alpha_rows[round][i] = state.last_alpha;
            }
            let slots = board
                .pending
                .entry(round)
                .or_insert_with(|| (0..n).map(|_| None).collect());
            slots[i] = Some(eval);
            if slots.iter().all(Option::is_some) {
                // The n-th depositor finalizes, lock held: records and the
                // early-stop decision are serialized in round order.
                let slots = board.pending.remove(&round).expect("entry just filled");
                let now = network.now();
                board.scores.rounds_run = board.scores.rounds_run.max(round + 1);
                tracer.emit(TraceEvent::RoundComplete {
                    t_ns: now.0,
                    round: round as u32,
                });
                if evaluating {
                    let scores: Vec<NodeScore> = slots
                        .into_iter()
                        .map(|slot| slot.flatten().expect("eval round deposits a score"))
                        .collect();
                    if board
                        .scores
                        .record(round, now.0, now.as_secs_f64(), false, &scores)
                    {
                        stop.store(true, Ordering::SeqCst);
                    }
                }
            }
        }
        Ok(())
    };

    let results: Vec<Result<()>> = crossbeam::thread::scope(|scope| {
        // Each node thread owns its state plus a disjoint `&mut` window of
        // the shared parameter arena; the scope joins before the arena's
        // borrow ends.
        let handles: Vec<_> = nodes
            .into_iter()
            .zip(arena.slices_mut())
            .enumerate()
            .map(|(i, (state, params))| {
                let worker = &worker;
                scope.spawn(move |_| worker(i, state, params))
            })
            .collect();
        // Joined in spawn (= node) order, so the first error reported is
        // the lowest-indexed node's regardless of thread timing.
        handles
            .into_iter()
            .map(|h| h.join().expect("node thread must not panic"))
            .collect()
    })
    .expect("scope does not panic");
    results.into_iter().collect::<Result<Vec<()>>>()?;

    let board = board.into_inner();
    Ok(board.scores.finish(network.now().0, 0, board.alpha_rows))
}
