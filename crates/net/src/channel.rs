//! The real-concurrency backend: [`ThreadChannelTransport`].
//!
//! One crossbeam channel per directed edge, one mailbox per node, and
//! *wall-clock* timestamps mapped onto the [`SimTime`] axis (nanoseconds
//! since transport construction). The engine's channel driver runs one OS
//! thread per node against this transport, so messages really do cross
//! thread boundaries, really are framed/validated ([`crate::framing`]) and
//! really arrive in nondeterministic order — the relaxed real-world regime
//! the sim backend only models.
//!
//! Byte accounting is [`crate::SimNetwork`]'s, from the same mailbox core
//! (`transport::MailboxCore`): the sender is charged at send time, the
//! receiver credited at enqueue time, frame headers excluded — so a real
//! run's `RoundRecord` traffic columns are directly comparable to the sim
//! oracle's (the cross-check harness depends on this).
//!
//! What this backend does **not** provide: the loss model (a virtual-time
//! construct; real links here are reliable channels) and any purge-driven
//! fault scripting — config validation rejects those combinations before a
//! run starts. Purges still work (the conformance suite exercises them);
//! they map "in flight" to "still in the channel" and "arrived" to "pulled
//! into the mailbox".

use crate::framing::{self, FrameKind};
use crate::meter::TrafficStats;
use crate::transport::{
    Drained, Envelope, MailboxCore, MeasuredFlight, PendingSend, PurgeReport, PurgeScope, Transport,
};
use bytes::Bytes;
use crossbeam::channel::{Receiver, Sender};
use jwins_sim::SimTime;
use parking_lot::Mutex;
use std::time::Instant;

/// An `n`-node transport over per-edge channels and wall-clock time.
pub struct ThreadChannelTransport {
    /// Mailboxes of already-pulled (i.e. *arrived*) envelopes, and the
    /// traffic counters (same accounting as the sim backend).
    core: MailboxCore,
    /// Wall-clock origin of the transport's [`SimTime`] axis.
    start: Instant,
    /// Outbound wire, indexed `[from][to]`.
    senders: Vec<Vec<Sender<Bytes>>>,
    /// Inbound wire, indexed `[to][from]`.
    inbound: Vec<Vec<Receiver<Bytes>>>,
    /// Observational telemetry; sends emit `MsgSend` with wall stamps.
    tracer: Option<std::sync::Arc<jwins_trace::Tracer>>,
    /// Accumulated `(latency seconds, messages)` over every pulled message.
    flight: Mutex<(f64, u64)>,
}

impl std::fmt::Debug for ThreadChannelTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadChannelTransport")
            .field("nodes", &self.core.len())
            .field("now", &self.now())
            .finish_non_exhaustive()
    }
}

impl ThreadChannelTransport {
    /// Creates the full directed-edge mesh between `n` nodes.
    pub fn new(n: usize) -> Self {
        let mut senders: Vec<Vec<Sender<Bytes>>> = (0..n).map(|_| Vec::with_capacity(n)).collect();
        let mut inbound: Vec<Vec<Receiver<Bytes>>> =
            (0..n).map(|_| Vec::with_capacity(n)).collect();
        // From-major pushes leave each `inbound[to]` ordered by `from`.
        for outgoing in senders.iter_mut() {
            for incoming in inbound.iter_mut() {
                let (tx, rx) = crossbeam::channel::unbounded();
                outgoing.push(tx);
                incoming.push(rx);
            }
        }
        Self {
            core: MailboxCore::new(n),
            start: Instant::now(),
            senders,
            inbound,
            tracer: None,
            flight: Mutex::new((0.0, 0)),
        }
    }

    /// Decodes a wire frame into an envelope stamped with the pull-side
    /// arrival time, accumulating the measured flight latency.
    ///
    /// Malformed frames are a bug in *this* process (both channel ends live
    /// here), so decode failure panics instead of pretending to be a
    /// recoverable network condition.
    fn admit(&self, expected_from: usize, node: usize, wire: Bytes) -> Envelope {
        let frame = framing::decode(&wire).expect("in-process frame must decode");
        assert_eq!(frame.to, node, "frame routed to the wrong node");
        assert_eq!(frame.from, expected_from, "frame on the wrong edge");
        // The monotone clock makes now >= sent across threads; max() guards
        // the stamp anyway so Envelope invariants hold unconditionally.
        let arrives = self.now().max(frame.sent);
        {
            let mut flight = self.flight.lock();
            flight.0 += arrives.since(frame.sent).as_secs_f64();
            flight.1 += 1;
        }
        Envelope::landed(
            frame.from,
            frame.payload,
            frame.sent,
            arrives,
            frame.sent_round,
        )
    }

    /// Pulls everything currently on the `from → to` wire into `mailbox`,
    /// in FIFO order.
    fn pull_edge(&self, from: usize, to: usize, mailbox: &mut Vec<Envelope>) {
        while let Ok(wire) = self.inbound[to][from].try_recv() {
            mailbox.push(self.admit(from, to, wire));
        }
    }

    /// Pulls everything currently on `node`'s inbound wires into its
    /// (already locked) mailbox, in sender order then per-edge FIFO order.
    fn pull_locked(&self, node: usize, mailbox: &mut Vec<Envelope>) {
        for from in 0..self.inbound[node].len() {
            self.pull_edge(from, node, mailbox);
        }
    }
}

impl Transport for ThreadChannelTransport {
    fn len(&self) -> usize {
        self.core.len()
    }

    fn set_tracer(&mut self, tracer: std::sync::Arc<jwins_trace::Tracer>) {
        self.tracer = Some(tracer);
    }

    fn send(&self, send: PendingSend) {
        self.core.charge(&send);
        let PendingSend {
            from,
            to,
            payload,
            sent,
            arrives,
            sent_round,
            ..
        } = send;
        if let Some(tracer) = &self.tracer {
            // The true arrival is unknowable at send time on a real wire;
            // the stamp mirrors the send (arrives_ns == t_ns), and the
            // measured latency shows up in `measured_flight` instead.
            tracer.emit(jwins_trace::TraceEvent::MsgSend {
                t_ns: sent.0,
                from: from as u32,
                to: to as u32,
                round: sent_round as u32,
                bytes: payload.len() as u64,
                arrives_ns: arrives.0,
            });
        }
        self.core.credit(to, payload.len());
        let wire = framing::encode(FrameKind::Gossip, from, to, sent_round, sent, &payload);
        self.senders[from][to]
            .send(wire)
            .expect("receiving end owned by this transport cannot hang up");
    }

    fn drain(&self, node: usize, deadline: SimTime, ttl: Option<SimTime>) -> Drained {
        let mut mailbox = self.core.mailbox(node).lock();
        self.pull_locked(node, &mut mailbox);
        // A MAX deadline means "everything that has arrived by now": TTL
        // ages are measured at the wall clock.
        MailboxCore::drain(&mut mailbox, deadline, self.now(), ttl)
    }

    fn record_expired(&self, node: usize, count: u64) {
        self.core.record_expired(node, count);
    }

    fn purge(&self, scope: PurgeScope) -> PurgeReport {
        match scope {
            PurgeScope::Inbox { node } => {
                let mut mailbox = self.core.mailbox(node).lock();
                self.pull_locked(node, &mut mailbox);
                self.core.kill(node, &mut mailbox, |_| true)
            }
            PurgeScope::ArrivedBy { node, deadline } => {
                let mut mailbox = self.core.mailbox(node).lock();
                self.pull_locked(node, &mut mailbox);
                self.core
                    .kill(node, &mut mailbox, |env| env.arrives <= deadline)
            }
            PurgeScope::InFlightFrom { from, cutoff: _ } => {
                // On a real wire "in flight" is "still in the channel";
                // the wall clock has no in-flight messages from the past,
                // so the cutoff is implicit: everything unpulled dies.
                self.core.check(from);
                (0..self.len()).fold(PurgeReport::default(), |report, to| {
                    let mut wire = Vec::new();
                    self.pull_edge(from, to, &mut wire);
                    report.plus(self.core.kill(to, &mut wire, |_| true))
                })
            }
            PurgeScope::Link {
                from,
                to,
                sent_round,
            } => {
                self.core.check(from);
                self.core.check(to);
                let mut mailbox = self.core.mailbox(to).lock();
                // Pull the edge's channel so in-flight messages are subject
                // to the kill too, then filter the mailbox.
                self.pull_edge(from, to, &mut mailbox);
                self.core.kill(to, &mut mailbox, |env| {
                    env.from as usize == from
                        && sent_round.is_none_or(|r| env.sent_round as usize == r)
                })
            }
        }
    }

    fn pending(&self, node: usize) -> usize {
        let queued = self.core.mailbox(node).lock().len();
        queued + self.inbound[node].iter().map(|rx| rx.len()).sum::<usize>()
    }

    fn stats(&self, node: usize) -> TrafficStats {
        self.core.stats(node)
    }

    fn total_stats(&self) -> TrafficStats {
        self.core.total_stats()
    }

    fn now(&self) -> SimTime {
        SimTime(u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX))
    }

    fn measured_flight(&self) -> Option<MeasuredFlight> {
        let (latency_sum_s, messages) = *self.flight.lock();
        if messages == 0 {
            return None;
        }
        Some(MeasuredFlight {
            mean_latency_s: latency_sum_s / messages as f64,
            messages,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meter::ByteBreakdown;

    fn bulk(net: &ThreadChannelTransport, from: usize, to: usize, body: Vec<u8>) {
        let len = body.len();
        let mut send = PendingSend::bulk(
            from,
            to,
            Bytes::from(body),
            ByteBreakdown {
                payload: len,
                metadata: 0,
            },
        );
        // Stamp with the transport clock, as the channel driver does.
        send.sent = net.now();
        send.arrives = send.sent;
        net.send(send);
    }

    #[test]
    fn delivers_across_real_threads() {
        let net = std::sync::Arc::new(ThreadChannelTransport::new(3));
        let handles: Vec<_> = [0usize, 1]
            .into_iter()
            .map(|from| {
                let net = std::sync::Arc::clone(&net);
                std::thread::spawn(move || {
                    for k in 0..50u8 {
                        bulk(&net, from, 2, vec![k; 4]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("sender threads");
        }
        let drained = net.drain(2, SimTime::MAX, None);
        assert_eq!(drained.envelopes.len(), 100);
        assert_eq!(drained.expired, 0);
        assert_eq!(net.stats(2).bytes_received, 400);
        assert_eq!(net.total_stats().messages_sent, 100);
        let flight = net.measured_flight().expect("messages moved");
        assert_eq!(flight.messages, 100);
        assert!(flight.mean_latency_s >= 0.0);
    }

    #[test]
    fn per_edge_fifo_order_survives_the_wire() {
        let net = ThreadChannelTransport::new(2);
        for k in 0..20u8 {
            bulk(&net, 0, 1, vec![k]);
        }
        let drained = net.drain(1, SimTime::MAX, None).envelopes;
        let bodies: Vec<u8> = drained.iter().map(|e| e.payload[0]).collect();
        assert_eq!(bodies, (0..20).collect::<Vec<u8>>());
    }

    #[test]
    fn wall_clock_maps_onto_the_virtual_axis() {
        let net = ThreadChannelTransport::new(1);
        let a = net.now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let b = net.now();
        assert!(b > a, "clock advances");
        assert!(b.as_secs_f64() < 60.0, "axis starts at construction");
    }

    #[test]
    fn ttl_measures_age_at_the_wall_clock() {
        let net = ThreadChannelTransport::new(2);
        bulk(&net, 0, 1, vec![1u8]);
        std::thread::sleep(std::time::Duration::from_millis(5));
        // A TTL far larger than the sleep keeps the message.
        let kept = net.drain(1, SimTime::MAX, Some(SimTime::from_secs_f64(30.0)));
        assert_eq!(kept.envelopes.len(), 1);
        assert_eq!(kept.expired, 0);
        // A nanosecond TTL expires anything that crossed a real wire.
        bulk(&net, 0, 1, vec![2u8]);
        std::thread::sleep(std::time::Duration::from_millis(5));
        let expired = net.drain(1, SimTime::MAX, Some(SimTime(1)));
        assert!(expired.envelopes.is_empty());
        assert_eq!(expired.expired, 1);
        net.record_expired(1, expired.expired);
        assert_eq!(net.stats(1).messages_expired, 1);
    }

    #[test]
    fn purge_inbox_reaches_into_the_channels() {
        let net = ThreadChannelTransport::new(2);
        bulk(&net, 0, 1, vec![0u8; 4]);
        bulk(&net, 0, 1, vec![0u8; 6]);
        assert_eq!(net.pending(1), 2);
        let report = net.purge(PurgeScope::Inbox { node: 1 });
        assert_eq!(
            report,
            PurgeReport {
                messages: 2,
                bytes: 10
            }
        );
        assert_eq!(net.pending(1), 0);
        assert_eq!(net.stats(1).bytes_received, 0, "receive credit reversed");
    }

    #[test]
    fn purge_link_filters_by_round_across_wire_and_mailbox() {
        let net = ThreadChannelTransport::new(3);
        let send_round = |round: usize| {
            let mut s = PendingSend::bulk(
                0,
                2,
                Bytes::from(vec![round as u8; 2]),
                ByteBreakdown {
                    payload: 2,
                    metadata: 0,
                },
            );
            s.sent = net.now();
            s.arrives = s.sent;
            s.sent_round = round;
            net.send(s);
        };
        send_round(3);
        send_round(4);
        // Pull round 3+4 into the mailbox, then wire up one more round-3.
        assert_eq!(net.pending(2), 2);
        let _ = net.drain(2, SimTime::ZERO, None); // pulls, delivers nothing
        send_round(3);
        bulk(&net, 1, 2, vec![9u8]); // other edge survives
        let report = net.purge(PurgeScope::Link {
            from: 0,
            to: 2,
            sent_round: Some(3),
        });
        assert_eq!(report.messages, 2);
        assert_eq!(report.bytes, 4);
        let survivors = net.drain(2, SimTime::MAX, None).envelopes;
        let tags: Vec<(u32, u32)> = survivors.iter().map(|e| (e.from, e.sent_round)).collect();
        assert!(tags.contains(&(0, 4)));
        assert!(tags.contains(&(1, 0)));
        assert_eq!(tags.len(), 2);
    }

    #[test]
    fn purge_in_flight_spares_the_mailbox() {
        let net = ThreadChannelTransport::new(2);
        bulk(&net, 0, 1, vec![1u8]);
        // Arrived: pulled into the mailbox (ZERO deadline delivers nothing
        // but the pull happened).
        let _ = net.drain(1, SimTime::ZERO, None);
        bulk(&net, 0, 1, vec![2u8, 3]);
        let report = net.purge(PurgeScope::InFlightFrom {
            from: 0,
            cutoff: SimTime::ZERO,
        });
        assert_eq!(report.messages, 1);
        assert_eq!(report.bytes, 2);
        let survivors = net.drain(1, SimTime::MAX, None).envelopes;
        assert_eq!(survivors.len(), 1);
        assert_eq!(survivors[0].payload[0], 1);
    }

    #[test]
    #[should_panic(expected = "endpoint out of range")]
    fn invalid_endpoint_panics() {
        bulk(&ThreadChannelTransport::new(1), 0, 1, vec![]);
    }
}
