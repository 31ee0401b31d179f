//! The deterministic in-memory backend: [`SimNetwork`].
//!
//! A [`SimNetwork`] connects `n` nodes on the *virtual* time axis. Senders
//! enqueue [`Envelope`]s into the receiver's mailbox; receivers drain their
//! mailbox at their local virtual clock. A message is one shared
//! [`Message`](crate::Message) record around a reference-counted [`bytes::Bytes`] payload,
//! so broadcasting it to `d` neighbours stores its body and its stamps once
//! while the meter still counts it `d` times — exactly like a TCP fan-out.
//! A node that will never drain again is closed ([`Transport::close`]): its
//! mailbox keeps a 24-byte stub per message instead of a handle to the
//! record, so a broadcast's body is freed when its last *open* receiver
//! drains it, while purges and the meter treat the stubs as the messages
//! they stand for.
//! Every observable — delivery sets, drain order, loss pattern, counters —
//! is a pure function of the sends it was given.

use crate::meter::TrafficStats;
use crate::transport::{
    Drained, Envelope, MailboxCore, PendingSend, PurgeReport, PurgeScope, Transport,
};
use jwins_sim::{splitmix64, SimTime};
use parking_lot::Mutex;
use std::collections::HashMap;

/// Independent per-message loss on every directed link, deterministic in
/// `(seed, from, to, per-link sequence number)`.
///
/// Dropped messages are still metered as sent (the sender paid for the
/// bytes) but never reach the receiver's mailbox; the drop is counted in
/// [`TrafficStats::messages_dropped`]. Node-level churn is a different
/// failure mode — see the fault plan (`jwins_fault::FaultPlan`).
///
/// # Example
///
/// ```
/// use jwins_net::{ByteBreakdown, LossModel, PendingSend, SimNetwork, Transport};
/// use jwins_sim::SimTime;
/// use bytes::Bytes;
///
/// let net = SimNetwork::lossy(2, LossModel::new(0.5, 7));
/// for _ in 0..100 {
///     net.send(PendingSend::bulk(
///         0,
///         1,
///         Bytes::from(vec![0u8]),
///         ByteBreakdown { payload: 1, metadata: 0 },
///     ));
/// }
/// let delivered = net.drain(1, SimTime::MAX, None).envelopes.len() as u64;
/// assert_eq!(delivered + net.stats(0).messages_dropped, 100);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossModel {
    probability: f64,
    seed: u64,
}

impl LossModel {
    /// Creates a loss model dropping each message with `probability`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= probability < 1`.
    pub fn new(probability: f64, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&probability),
            "loss probability must be in [0, 1)"
        );
        Self { probability, seed }
    }

    /// The configured drop probability.
    pub fn probability(&self) -> f64 {
        self.probability
    }

    fn drops(&self, from: usize, to: usize, sequence: u64) -> bool {
        // SplitMix64 over (seed, from, to, sequence); its own increment is
        // the `from + 1`-th golden-ratio step.
        let z = self
            .seed
            .wrapping_add((from as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add((to as u64 + 1).wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add((sequence + 1).wrapping_mul(0x94D0_49BB_1331_11EB));
        let u = splitmix64(z) as f64 / u64::MAX as f64;
        u < self.probability
    }
}

/// An in-process virtual-time network between `n` nodes — the [`Transport`]
/// the engine runs on.
#[derive(Debug)]
pub struct SimNetwork {
    core: MailboxCore,
    loss: Option<LossModel>,
    /// Per-directed-link sequence numbers driving the loss hash.
    sequences: Mutex<HashMap<(usize, usize), u64>>,
    /// Telemetry for the transport's sequential decision points (send and
    /// loss-model drop). Purges and expiries are reported by the engine,
    /// which knows the virtual time and event context — never from the
    /// parallel execute phase (see the `jwins_trace` determinism contract).
    tracer: Option<std::sync::Arc<jwins_trace::Tracer>>,
}

impl SimNetwork {
    /// Creates a reliable network with `n` empty mailboxes.
    pub fn new(n: usize) -> Self {
        Self {
            core: MailboxCore::new(n),
            loss: None,
            sequences: Mutex::new(HashMap::new()),
            tracer: None,
        }
    }

    /// Creates a lossy network: each message independently dropped per
    /// [`LossModel`]. Determinism holds per directed link regardless of the
    /// interleaving of sends on other links.
    pub fn lossy(n: usize, loss: LossModel) -> Self {
        Self {
            loss: Some(loss),
            ..Self::new(n)
        }
    }

    /// The loss model in effect, if any.
    pub fn loss_model(&self) -> Option<LossModel> {
        self.loss
    }

    /// Whether the loss model drops the next message on `from → to`.
    fn drops(&self, from: usize, to: usize) -> bool {
        self.loss.is_some_and(|loss| {
            let mut sequences = self.sequences.lock();
            let counter = sequences.entry((from, to)).or_insert(0);
            let sequence = *counter;
            *counter += 1;
            loss.drops(from, to, sequence)
        })
    }
}

impl Transport for SimNetwork {
    fn len(&self) -> usize {
        self.core.len()
    }

    fn set_tracer(&mut self, tracer: std::sync::Arc<jwins_trace::Tracer>) {
        self.tracer = Some(tracer);
    }

    fn send(&self, send: PendingSend) {
        self.core.charge(&send);
        let PendingSend {
            message,
            to,
            arrives,
            ..
        } = send;
        let envelope = Envelope::new(message, arrives);
        let (from, round) = (envelope.from(), envelope.sent_round());
        let (t_ns, bytes) = (envelope.sent().0, envelope.payload().len() as u64);
        if self.drops(from as usize, to) {
            self.core.record_drop(from as usize);
            if let Some(tracer) = &self.tracer {
                tracer.emit(jwins_trace::TraceEvent::MsgDrop {
                    t_ns,
                    from,
                    to: to as u32,
                    round,
                    bytes,
                });
            }
            return;
        }
        if let Some(tracer) = &self.tracer {
            tracer.emit(jwins_trace::TraceEvent::MsgSend {
                t_ns,
                from,
                to: to as u32,
                round,
                bytes,
                arrives_ns: arrives.0,
            });
        }
        self.core.credit(to, bytes as usize);
        self.core.mailbox(to).lock().push(envelope);
    }

    fn drain(&self, node: usize, deadline: SimTime, ttl: Option<SimTime>) -> Drained {
        let mut inbox = self.core.mailbox(node).lock();
        MailboxCore::drain(inbox.envelopes(), deadline, ttl)
    }

    fn close(&self, node: usize) {
        self.core.mailbox(node).lock().close();
    }

    fn record_expired(&self, node: usize, count: u64) {
        self.core.record_expired(node, count);
    }

    fn purge(&self, scope: PurgeScope) -> PurgeReport {
        match scope {
            PurgeScope::Inbox { node } | PurgeScope::ArrivedBy { node, .. } => {
                self.core.kill(node, scope)
            }
            PurgeScope::InFlightFrom { from, .. } => {
                self.core.check(from);
                (0..self.len()).fold(PurgeReport::default(), |report, to| {
                    report.plus(self.core.kill(to, scope))
                })
            }
            PurgeScope::Link { from, to, .. } => {
                self.core.check(from);
                self.core.kill(to, scope)
            }
        }
    }

    fn pending(&self, node: usize) -> usize {
        self.core.mailbox(node).lock().len()
    }

    fn stats(&self, node: usize) -> TrafficStats {
        self.core.stats(node)
    }

    fn total_stats(&self) -> TrafficStats {
        self.core.total_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meter::ByteBreakdown;
    use crate::Message;
    use bytes::Bytes;

    fn breakdown(payload: usize, metadata: usize) -> ByteBreakdown {
        ByteBreakdown { payload, metadata }
    }

    /// The barrier-mode send: zero stamps, round 0.
    fn bulk(net: &SimNetwork, from: usize, to: usize, payload: Bytes, b: ByteBreakdown) {
        net.send(PendingSend::bulk(from, to, payload, b));
    }

    /// A fully stamped send.
    #[allow(clippy::too_many_arguments)]
    fn timed(
        net: &SimNetwork,
        from: usize,
        to: usize,
        payload: Bytes,
        b: ByteBreakdown,
        sent: SimTime,
        arrives: SimTime,
        sent_round: usize,
    ) {
        net.send(PendingSend {
            message: Message::new(from, sent_round, sent, payload),
            to,
            breakdown: b,
            arrives,
        });
    }

    /// The barrier-mode drain: everything ever sent, in delivery order.
    fn drain_all(net: &SimNetwork, node: usize) -> Vec<Envelope> {
        net.drain(node, SimTime::MAX, None).envelopes
    }

    #[test]
    fn send_and_drain() {
        let net = SimNetwork::new(3);
        assert_eq!(net.len(), 3);
        assert!(!net.is_empty());
        bulk(&net, 0, 1, Bytes::from(vec![1u8, 2, 3]), breakdown(2, 1));
        bulk(&net, 2, 1, Bytes::from(vec![4u8]), breakdown(1, 0));
        let inbox = drain_all(&net, 1);
        assert_eq!(inbox.len(), 2);
        assert_eq!(inbox[0].from(), 0);
        assert_eq!(&inbox[0].payload()[..], &[1, 2, 3]);
        assert_eq!(inbox[1].from(), 2);
        // Drained mailboxes are empty.
        assert!(drain_all(&net, 1).is_empty());
    }

    #[test]
    fn metering_matches_messages() {
        let net = SimNetwork::new(2);
        bulk(&net, 0, 1, Bytes::from(vec![0u8; 10]), breakdown(8, 2));
        bulk(&net, 0, 1, Bytes::from(vec![0u8; 6]), breakdown(6, 0));
        let s0 = net.stats(0);
        assert_eq!(s0.bytes_sent, 16);
        assert_eq!(s0.payload_sent, 14);
        assert_eq!(s0.metadata_sent, 2);
        assert_eq!(s0.messages_sent, 2);
        assert_eq!(net.stats(1).bytes_received, 16);
        assert_eq!(net.total_stats().bytes_sent, 16);
    }

    #[test]
    fn fan_out_meters_per_receiver() {
        let net = SimNetwork::new(4);
        let payload = Bytes::from(vec![0u8; 5]);
        for to in [1usize, 2, 3] {
            bulk(&net, 0, to, payload.clone(), breakdown(5, 0));
        }
        assert_eq!(net.stats(0).bytes_sent, 15, "fan-out counts per link");
        assert_eq!(net.stats(0).messages_sent, 3);
        for node in 1..4 {
            assert_eq!(drain_all(&net, node).len(), 1);
        }
    }

    #[test]
    fn broadcast_aliases_one_buffer_but_meters_per_edge_logical_bytes() {
        // The zero-copy audit: a broadcast hands every neighbour a clone of
        // one reference-counted payload. The meter must still charge each
        // directed edge the full logical byte count — the wire carried the
        // message d times — while the d delivered envelopes all alias the
        // sender's single allocation. Exact counts are pinned so a future
        // deep-copy (or a metering short-circuit that counts the buffer
        // once) fails loudly.
        let net = SimNetwork::new(5);
        let payload = Bytes::from(vec![0xABu8; 48]);
        let base = payload.as_ptr();
        let neighbors = [1usize, 2, 3, 4];
        for &to in &neighbors {
            bulk(&net, 0, to, payload.clone(), breakdown(40, 8));
        }
        let s = net.stats(0);
        assert_eq!(s.bytes_sent, 4 * 48, "sender pays per edge, not per buffer");
        assert_eq!(s.payload_sent, 4 * 40);
        assert_eq!(s.metadata_sent, 4 * 8);
        assert_eq!(s.messages_sent, 4);
        for &node in &neighbors {
            assert_eq!(net.stats(node).bytes_received, 48);
            let inbox = drain_all(&net, node);
            assert_eq!(inbox.len(), 1);
            assert_eq!(
                inbox[0].payload().as_ptr(),
                base,
                "delivered payload must alias the broadcast buffer"
            );
            assert_eq!(&inbox[0].payload()[..], &[0xABu8; 48][..]);
        }
        assert_eq!(net.total_stats().bytes_sent, 192);
        assert_eq!(net.total_stats().bytes_received, 192);
    }

    #[test]
    fn concurrent_sends_are_safe() {
        let net = std::sync::Arc::new(SimNetwork::new(2));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let net = net.clone();
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        bulk(&net, 0, 1, Bytes::from(vec![0u8; 3]), breakdown(3, 0));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("no panics");
        }
        assert_eq!(net.stats(0).messages_sent, 800);
        assert_eq!(drain_all(&net, 1).len(), 800);
    }

    #[test]
    #[should_panic(expected = "endpoint out of range")]
    fn invalid_endpoint_panics() {
        bulk(&SimNetwork::new(1), 0, 1, Bytes::new(), breakdown(0, 0));
    }

    #[test]
    fn lossy_network_drops_at_configured_rate() {
        let net = SimNetwork::lossy(2, LossModel::new(0.25, 7));
        for _ in 0..2000 {
            bulk(&net, 0, 1, Bytes::from(vec![1u8]), breakdown(1, 0));
        }
        let delivered = drain_all(&net, 1).len();
        let dropped = net.stats(0).messages_dropped;
        assert_eq!(delivered as u64 + dropped, 2000);
        let rate = dropped as f64 / 2000.0;
        assert!((rate - 0.25).abs() < 0.03, "drop rate {rate}");
        // Sender still pays for every byte; receiver sees only delivered.
        assert_eq!(net.stats(0).bytes_sent, 2000);
        assert_eq!(net.stats(1).bytes_received, delivered as u64);
    }

    #[test]
    fn loss_pattern_is_deterministic_per_link() {
        let run = || {
            let net = SimNetwork::lossy(3, LossModel::new(0.5, 3));
            for _ in 0..32 {
                bulk(&net, 0, 1, Bytes::from(vec![0u8]), breakdown(1, 0));
            }
            drain_all(&net, 1).len()
        };
        assert_eq!(run(), run());
        // Interleaving traffic on another link must not disturb link (0,1).
        let net = SimNetwork::lossy(3, LossModel::new(0.5, 3));
        for _ in 0..32 {
            bulk(&net, 2, 1, Bytes::from(vec![9u8]), breakdown(1, 0));
            bulk(&net, 0, 1, Bytes::from(vec![0u8]), breakdown(1, 0));
        }
        let from_zero = drain_all(&net, 1).iter().filter(|e| e.from() == 0).count();
        assert_eq!(from_zero, run());
    }

    /// The loss hash written out inline, as it was before it called the
    /// shared `splitmix64`.
    fn inline_drops(loss: &LossModel, from: usize, to: usize, sequence: u64) -> bool {
        let mut z = loss
            .seed
            .wrapping_add((from as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add((to as u64 + 1).wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add((sequence + 1).wrapping_mul(0x94D0_49BB_1331_11EB));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let u = (z ^ (z >> 31)) as f64 / u64::MAX as f64;
        u < loss.probability
    }

    #[test]
    fn loss_hash_equals_the_inline_splitmix() {
        let mut drops = 0;
        for (probability, seed) in [(0.5, 3), (0.1, 0), (0.9, u64::MAX), (0.3, 1 << 63)] {
            let loss = LossModel::new(probability, seed);
            for from in [0, 1, 7, 16_383, usize::MAX - 1] {
                for to in [0, 2, 9, 16_383] {
                    for sequence in [0, 1, 2, 1_000, u64::MAX - 1] {
                        let dropped = loss.drops(from, to, sequence);
                        assert_eq!(dropped, inline_drops(&loss, from, to, sequence));
                        drops += usize::from(dropped);
                    }
                }
            }
        }
        // Both outcomes occur on the grid, so equality is not vacuous.
        assert!(drops > 0 && drops < 400, "{drops} of 400 dropped");
    }

    #[test]
    fn zero_loss_delivers_everything() {
        let net = SimNetwork::lossy(2, LossModel::new(0.0, 1));
        for _ in 0..50 {
            bulk(&net, 0, 1, Bytes::from(vec![0u8]), breakdown(1, 0));
        }
        assert_eq!(drain_all(&net, 1).len(), 50);
        assert_eq!(net.stats(0).messages_dropped, 0);
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn full_loss_rejected() {
        let _ = LossModel::new(1.0, 0);
    }

    #[test]
    fn drain_respects_arrival_times() {
        let net = SimNetwork::new(2);
        let send_at = |sent: u64, arrives: u64, round: usize| {
            timed(
                &net,
                0,
                1,
                Bytes::from(vec![round as u8]),
                breakdown(1, 0),
                SimTime(sent),
                SimTime(arrives),
                round,
            );
        };
        send_at(0, 50, 0); // slow link: pushed first, arrives last
        send_at(10, 20, 1);
        send_at(10, 10, 2);
        // Nothing has arrived before t=10.
        assert!(net.drain(1, SimTime(9), None).envelopes.is_empty());
        assert_eq!(net.pending(1), 3);
        // By t=30 two messages are in, ordered by arrival, not by push.
        let first = net.drain(1, SimTime(30), None).envelopes;
        assert_eq!(
            first.iter().map(|e| e.sent_round()).collect::<Vec<_>>(),
            vec![2, 1]
        );
        // The slow message is still in flight, then lands.
        assert_eq!(net.pending(1), 1);
        let late = net.drain(1, SimTime(50), None).envelopes;
        assert_eq!(late.len(), 1);
        assert_eq!(late[0].sent_round(), 0);
        assert_eq!(late[0].sent(), SimTime(0));
        assert_eq!(late[0].arrives(), SimTime(50));
        assert_eq!(net.pending(1), 0);
    }

    #[test]
    fn ttl_expires_old_messages_at_drain() {
        let net = SimNetwork::new(2);
        let send_at = |sent: f64, arrives: f64| {
            timed(
                &net,
                0,
                1,
                Bytes::from(vec![1u8]),
                breakdown(1, 0),
                SimTime::from_secs_f64(sent),
                SimTime::from_secs_f64(arrives),
                0,
            );
        };
        send_at(0.0, 1.0); // age 10 s at drain: expired
        send_at(8.0, 9.0); // age 2 s at drain: fresh
        send_at(0.0, 20.0); // still in flight: untouched
        let ttl = Some(SimTime::from_secs_f64(5.0));
        let drained = net.drain(1, SimTime::from_secs_f64(10.0), ttl);
        assert_eq!(drained.envelopes.len(), 1);
        assert_eq!(drained.envelopes[0].sent(), SimTime::from_secs_f64(8.0));
        assert_eq!(drained.expired, 1);
        assert_eq!(
            net.stats(1).messages_expired,
            0,
            "accounting deferred to the caller's commit phase"
        );
        net.record_expired(1, drained.expired);
        assert_eq!(net.stats(1).messages_expired, 1);
        net.record_expired(1, 0); // no-op
        assert_eq!(net.stats(1).messages_expired, 1);
        assert_eq!(net.stats(1).messages_dropped, 0, "distinct from drops");
        assert_eq!(net.pending(1), 1, "in-flight message still queued");
        // The expired bytes did arrive at the host.
        assert_eq!(net.stats(1).bytes_received, 3);
        // No TTL delivers everything arrived.
        let late = net.drain(1, SimTime::from_secs_f64(30.0), None);
        assert_eq!(late.envelopes.len(), 1);
        assert_eq!(late.expired, 0);
    }

    #[test]
    fn send_batch_replays_sends_in_order() {
        let direct = SimNetwork::new(2);
        let batched = SimNetwork::new(2);
        let sends: Vec<PendingSend> = (0..4)
            .map(|k| PendingSend {
                message: Message::new(0, k, SimTime(k as u64), Bytes::from(vec![k as u8; k + 1])),
                to: 1,
                breakdown: breakdown(k + 1, 0),
                arrives: SimTime(10), // equal arrivals: push order must hold
            })
            .collect();
        for s in &sends {
            direct.send(s.clone());
        }
        batched.send_batch(sends);
        assert_eq!(direct.total_stats(), batched.total_stats());
        let a = direct.drain(1, SimTime(10), None).envelopes;
        let b = batched.drain(1, SimTime(10), None).envelopes;
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.sent_round(), y.sent_round());
            assert_eq!(x.payload(), y.payload());
        }
    }

    #[test]
    fn send_batch_drives_the_loss_model_like_direct_sends() {
        // Per-link loss sequences advance at commit time, so a buffered
        // batch committed in pop order reproduces the direct drop pattern.
        let direct = SimNetwork::lossy(2, LossModel::new(0.5, 9));
        let batched = SimNetwork::lossy(2, LossModel::new(0.5, 9));
        let mk = |k: usize| PendingSend {
            message: Message::new(0, k, SimTime::ZERO, Bytes::from(vec![k as u8])),
            to: 1,
            breakdown: breakdown(1, 0),
            arrives: SimTime::ZERO,
        };
        for k in 0..64 {
            direct.send(mk(k));
        }
        batched.send_batch((0..64).map(mk).collect());
        let a: Vec<u32> = drain_all(&direct, 1)
            .iter()
            .map(|e| e.sent_round())
            .collect();
        let b: Vec<u32> = drain_all(&batched, 1)
            .iter()
            .map(|e| e.sent_round())
            .collect();
        assert_eq!(a, b, "identical survivors under the loss model");
        assert!(direct.stats(0).messages_dropped > 0, "losses exercised");
    }

    #[test]
    fn purge_inbox_destroys_everything_and_reverses_receives() {
        let net = SimNetwork::new(2);
        bulk(&net, 0, 1, Bytes::from(vec![0u8; 4]), breakdown(4, 0));
        timed(
            &net,
            0,
            1,
            Bytes::from(vec![0u8; 6]),
            breakdown(6, 0),
            SimTime(5),
            SimTime(50),
            1,
        );
        assert_eq!(net.stats(1).bytes_received, 10);
        assert_eq!(
            net.purge(PurgeScope::Inbox { node: 1 }),
            PurgeReport {
                messages: 2,
                bytes: 10
            }
        );
        assert_eq!(net.pending(1), 0);
        let s = net.stats(1);
        assert_eq!(s.bytes_received, 0);
        assert_eq!(s.messages_dropped, 2);
        // The sender still paid for every byte.
        assert_eq!(net.stats(0).bytes_sent, 10);
    }

    #[test]
    fn purge_arrived_spares_in_flight_messages() {
        let net = SimNetwork::new(2);
        let send_arriving = |arrives: u64| {
            timed(
                &net,
                0,
                1,
                Bytes::from(vec![0u8]),
                breakdown(1, 0),
                SimTime(0),
                SimTime(arrives),
                0,
            );
        };
        send_arriving(10);
        send_arriving(20);
        send_arriving(30);
        let report = net.purge(PurgeScope::ArrivedBy {
            node: 1,
            deadline: SimTime(20),
        });
        assert_eq!(report.messages, 2);
        assert_eq!(report.bytes, 2);
        assert_eq!(net.pending(1), 1);
        assert_eq!(net.stats(1).messages_dropped, 2);
        let survivor = net.drain(1, SimTime(30), None).envelopes;
        assert_eq!(survivor.len(), 1);
        assert_eq!(survivor[0].arrives(), SimTime(30));
    }

    #[test]
    fn purge_in_flight_from_kills_only_that_senders_undelivered() {
        let net = SimNetwork::new(3);
        let send = |from: usize, arrives: u64| {
            timed(
                &net,
                from,
                2,
                Bytes::from(vec![from as u8]),
                breakdown(1, 0),
                SimTime(0),
                SimTime(arrives),
                0,
            );
        };
        send(0, 5); // already delivered at cutoff: survives
        send(0, 15); // in flight from the crashing sender: killed
        send(1, 15); // in flight from a healthy sender: survives
        let report = net.purge(PurgeScope::InFlightFrom {
            from: 0,
            cutoff: SimTime(10),
        });
        assert_eq!(report.messages, 1);
        assert_eq!(net.pending(2), 2);
        assert_eq!(net.stats(2).messages_dropped, 1);
        let inbox = net.drain(2, SimTime(20), None).envelopes;
        let froms: Vec<u32> = inbox.iter().map(|e| e.from()).collect();
        assert_eq!(froms, vec![0, 1]);
    }

    #[test]
    fn purge_link_kills_only_that_directed_link() {
        let net = SimNetwork::new(3);
        bulk(&net, 0, 2, Bytes::from(vec![0u8; 4]), breakdown(4, 0));
        bulk(&net, 1, 2, Bytes::from(vec![0u8; 6]), breakdown(6, 0));
        bulk(&net, 0, 1, Bytes::from(vec![0u8; 2]), breakdown(2, 0));
        assert_eq!(
            net.purge(PurgeScope::Link {
                from: 0,
                to: 2,
                sent_round: None
            }),
            PurgeReport {
                messages: 1,
                bytes: 4
            }
        );
        assert_eq!(net.pending(2), 1, "other sender's message survives");
        assert_eq!(net.pending(1), 1, "other link untouched");
        let s = net.stats(2);
        assert_eq!(s.messages_dropped, 1);
        assert_eq!(s.bytes_received, 6, "receive accounting reversed");
        // The sender still paid for the bytes it pushed.
        assert_eq!(net.stats(0).bytes_sent, 6);
        // An empty link is a no-op.
        assert_eq!(
            net.purge(PurgeScope::Link {
                from: 0,
                to: 2,
                sent_round: None
            }),
            PurgeReport::default()
        );
    }

    #[test]
    fn purge_link_can_filter_by_sent_round() {
        let net = SimNetwork::new(2);
        for round in [3usize, 4, 3] {
            timed(
                &net,
                0,
                1,
                Bytes::from(vec![round as u8; 2]),
                breakdown(2, 0),
                SimTime(0),
                SimTime(10),
                round,
            );
        }
        assert_eq!(
            net.purge(PurgeScope::Link {
                from: 0,
                to: 1,
                sent_round: Some(3)
            }),
            PurgeReport {
                messages: 2,
                bytes: 4
            }
        );
        let survivors = net.drain(1, SimTime(10), None).envelopes;
        assert_eq!(survivors.len(), 1);
        assert_eq!(survivors[0].sent_round(), 4, "other rounds' messages live");
    }

    #[test]
    fn bulk_send_is_immediately_drainable() {
        let net = SimNetwork::new(2);
        bulk(&net, 0, 1, Bytes::from(vec![7u8]), breakdown(1, 0));
        let inbox = net.drain(1, SimTime::ZERO, None).envelopes;
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox[0].arrives(), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "arrive before")]
    fn arrival_before_send_rejected() {
        let net = SimNetwork::new(2);
        timed(
            &net,
            0,
            1,
            Bytes::new(),
            breakdown(0, 0),
            SimTime(10),
            SimTime(5),
            0,
        );
    }
}
