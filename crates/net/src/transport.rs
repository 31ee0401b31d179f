//! The engine↔network contract: [`Transport`].
//!
//! The training engine talks to exactly one object — a [`Transport`] — and
//! never to a concrete network type. The trait captures the engine's actual
//! needs as a small, coherent surface:
//!
//! - **committed sends**: every transmission is a fully priced
//!   [`PendingSend`] (endpoints, bytes, virtual departure/arrival stamps),
//!   handed over one at a time ([`Transport::send`]) or as an ordered batch
//!   ([`Transport::send_batch`]);
//! - **one drain** ([`Transport::drain`]): deadline-aware (messages whose
//!   `arrives` stamp is past the deadline stay queued) and TTL-aware
//!   (arrived-but-stale messages are discarded and *counted*, with the
//!   stats commit deferred to the caller via [`Transport::record_expired`]
//!   so a parallel execute phase stays deterministic);
//! - **one purge** ([`Transport::purge`]): a [`PurgeScope`] selects which
//!   messages die (a crashed node's inbox, deliveries that landed on a dead
//!   host, a dead sender's half-open transfers, a repaired-away link);
//! - **stats/tracer hooks**: per-node [`TrafficStats`] snapshots and an
//!   attachable [`jwins_trace::Tracer`] that observes sends and drops
//!   without ever affecting them.
//!
//! Two backends implement it: the deterministic in-memory
//! [`crate::SimNetwork`] (virtual time, the determinism oracle) and the
//! real-concurrency [`crate::ThreadChannelTransport`] (one OS thread per
//! node, a crossbeam channel per directed edge, wall-clock stamps mapped
//! onto [`SimTime`]). Both keep their mailboxes and [`TrafficStats`] in one
//! crate-private core, `MailboxCore`, which owns the contract's accounting:
//! the send preconditions, the sender's charge and the receiver's credit,
//! the drain, and the purge kill that reverses that credit. A backend adds
//! only how a message reaches the mailbox (the sim's loss model, the
//! channel backend's wires) and which messages a purge scope selects.

use crate::meter::{ByteBreakdown, TrafficStats};
use bytes::Bytes;
use jwins_sim::SimTime;
use parking_lot::Mutex;

/// A delivered message.
///
/// Envelopes carry virtual-time stamps so the event-driven runtime can model
/// in-flight messages: `sent` is when the sender handed the message to the
/// network, `arrives` is when the last byte lands in the receiver's mailbox
/// (`latency + bytes / bandwidth` on the sending link). The barrier-driven
/// engine leaves both at [`SimTime::ZERO`], making every message immediately
/// drainable — exactly the bulk-synchronous semantics.
///
/// Every message in flight is one envelope in a mailbox, so its size is
/// paid per message: 40 bytes (the payload handle 16, two stamps 8 each,
/// sender and round 4 each) beside the payload itself. The sender and the
/// round are `u32`, as in the trace; the transports narrow
/// [`PendingSend`]'s `usize` fields once, where a send lands in a mailbox,
/// and readers widen them back.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Sending node.
    pub from: u32,
    /// Serialized message body.
    pub payload: Bytes,
    /// Virtual send time.
    pub sent: SimTime,
    /// Virtual arrival time; until then the message is invisible to
    /// [`Transport::drain`].
    pub arrives: SimTime,
    /// The sender's local round when it sent this message (staleness
    /// accounting in asynchronous gossip; 0 in barrier mode).
    pub sent_round: u32,
}

impl Envelope {
    /// The envelope a send lands as, its sender and round narrowed to
    /// `u32`.
    ///
    /// # Panics
    ///
    /// Panics if `from` or `sent_round` exceeds `u32::MAX` (a run is
    /// checked against both limits when it is built).
    pub(crate) fn landed(
        from: usize,
        payload: Bytes,
        sent: SimTime,
        arrives: SimTime,
        sent_round: usize,
    ) -> Self {
        let narrow = |value: usize| u32::try_from(value).expect("envelope stamps are u32");
        Self {
            from: narrow(from),
            payload,
            sent,
            arrives,
            sent_round: narrow(sent_round),
        }
    }

    /// The message's age at `now`: virtual time since the sender handed it
    /// to the network (saturating at zero for barrier-mode stamps).
    pub fn age_at(&self, now: SimTime) -> SimTime {
        now.since(self.sent)
    }

    /// The message's age in rounds when mixed at `round` (saturating: a
    /// message from a *future* local round has age zero).
    pub fn age_rounds(&self, round: usize) -> usize {
        round.saturating_sub(self.sent_round as usize)
    }
}

/// A fully priced send whose network side effects have not happened yet.
///
/// The event-driven engine's parallel execute phase computes everything
/// about a transmission (recipient, bytes, virtual departure and arrival)
/// without touching shared state, then hands the batch to
/// [`Transport::send_batch`] in the event queue's deterministic order — so
/// mailbox append order, loss-model link sequences and traffic counters
/// replay exactly as if the events had run one at a time.
#[derive(Debug, Clone)]
pub struct PendingSend {
    /// Sending node.
    pub from: usize,
    /// Receiving node.
    pub to: usize,
    /// Serialized message body.
    pub payload: Bytes,
    /// Payload/metadata byte accounting.
    pub breakdown: ByteBreakdown,
    /// Virtual send time.
    pub sent: SimTime,
    /// Virtual arrival time of the last byte.
    pub arrives: SimTime,
    /// The sender's local round (staleness accounting).
    pub sent_round: usize,
}

impl PendingSend {
    /// An unstamped send: both stamps at [`SimTime::ZERO`] and round 0, i.e.
    /// immediately drainable (the barrier scheduler overwrites the stamps
    /// with its round and the round's start).
    pub fn bulk(from: usize, to: usize, payload: Bytes, breakdown: ByteBreakdown) -> Self {
        Self {
            from,
            to,
            payload,
            breakdown,
            sent: SimTime::ZERO,
            arrives: SimTime::ZERO,
            sent_round: 0,
        }
    }
}

/// The result of one [`Transport::drain`]: the messages that arrived in
/// time, plus how many arrived messages the TTL discarded.
///
/// The expiry count is *returned*, not yet recorded in the receiver's
/// [`TrafficStats`], so a parallel execute phase can drain disjoint
/// mailboxes concurrently and commit the counter updates later in
/// deterministic order (via [`Transport::record_expired`]) — or not at all,
/// when the run stops before the event's turn to commit.
#[derive(Debug, Default)]
pub struct Drained {
    /// Arrived, unexpired messages ordered by arrival time (ties keep the
    /// transport's delivery order).
    pub envelopes: Vec<Envelope>,
    /// Arrived messages the TTL discarded (accounting deferred).
    pub expired: u64,
}

/// Which messages a [`Transport::purge`] destroys.
///
/// Every scope reverses the victims' receive accounting via
/// [`TrafficStats::record_kill`]; the sender keeps paying for the bytes it
/// pushed (they were on the wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PurgeScope {
    /// Everything queued for `node` — arrived or in flight — as when the
    /// node crashes and all its connections die.
    Inbox {
        /// The crashed receiver.
        node: usize,
    },
    /// Messages for `node` whose delivery completed by `deadline` — they
    /// landed on a dead host (issued when the node recovers, with the
    /// recovery time). Messages still in flight at `deadline` survive: the
    /// tail of the transfer lands on the recovered host.
    ArrivedBy {
        /// The recovering receiver.
        node: usize,
        /// The recovery time.
        deadline: SimTime,
    },
    /// `from`'s messages still in flight at `cutoff` (delivery not yet
    /// complete) — a crashed sender's half-open transfers. Messages whose
    /// last byte already landed are past saving by the sender's death and
    /// survive.
    InFlightFrom {
        /// The crashed sender.
        from: usize,
        /// The crash time.
        cutoff: SimTime,
    },
    /// Messages queued from `from` to `to` — arrived or in flight — as when
    /// a topology-repair step tears the connection down (the edge was
    /// removed, so its deliveries will never be mixed). With
    /// `sent_round = Some(r)` only messages the sender stamped with round
    /// `r` die (repair re-wires per round; other rounds may still carry the
    /// edge); `None` clears the whole directed link.
    Link {
        /// The edge's sending endpoint.
        from: usize,
        /// The edge's receiving endpoint.
        to: usize,
        /// Restrict the kill to one sender round (`None` = whole link).
        sent_round: Option<usize>,
    },
}

/// What a [`Transport::purge`] destroyed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PurgeReport {
    /// Messages destroyed.
    pub messages: u64,
    /// Wire bytes destroyed with them.
    pub bytes: u64,
}

impl PurgeReport {
    /// The two reports' totals.
    pub(crate) fn plus(self, other: Self) -> Self {
        Self {
            messages: self.messages + other.messages,
            bytes: self.bytes + other.bytes,
        }
    }
}

/// Wall-clock delivery latency observed by a real backend, aggregated over
/// every message it moved — the measured profile the cross-check harness
/// replays through the sim oracle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredFlight {
    /// Mean send→deliver latency in seconds.
    pub mean_latency_s: f64,
    /// Messages the mean was taken over.
    pub messages: u64,
}

/// A network between `n` nodes, as the training engine sees one.
///
/// # Contract
///
/// - **Delivery**: a [`PendingSend`] accepted by [`Transport::send`] is
///   either delivered to `to`'s mailbox or dropped by an explicit mechanism
///   (loss model, purge) that shows up in [`TrafficStats`]. Per directed
///   edge, delivery preserves send order for equal `arrives` stamps.
/// - **Metering**: the sender is charged at send time
///   ([`TrafficStats::record_send`]); the receiver is credited when the
///   message is bound for its mailbox ([`TrafficStats::record_receive`]),
///   and purges reverse that credit ([`TrafficStats::record_kill`]).
/// - **Drain**: one call serves every engine mode. The barrier engine
///   passes `deadline = SimTime::MAX, ttl = None` ("everything ever
///   sent"); the event-driven engine passes the node's local virtual clock
///   and the staleness TTL. A `SimTime::MAX` deadline measures TTL ages at
///   the transport's [`Transport::now`] instead (the only meaningful "now"
///   when no deadline was given).
/// - **Tracing** is strictly observational: a transport with a tracer
///   attached behaves bit-identically to one without.
pub trait Transport: Send + Sync + std::fmt::Debug {
    /// Number of nodes.
    fn len(&self) -> usize;

    /// Whether the network has no nodes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Attaches a tracer: every send (and drop) from now on emits a
    /// [`jwins_trace::TraceEvent`]. Called once at build time, before the
    /// transport is shared.
    fn set_tracer(&mut self, tracer: std::sync::Arc<jwins_trace::Tracer>);

    /// Executes one committed send.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range, `arrives < sent`, or the
    /// sender or round exceeds an [`Envelope`]'s `u32` stamp.
    fn send(&self, send: PendingSend);

    /// Executes a batch of committed sends in order — equivalent to calling
    /// [`Transport::send`] once per element, in sequence. The caller (the
    /// engine's commit phase) is responsible for ordering the batch
    /// deterministically; implementations add no reordering of their own.
    ///
    /// # Panics
    ///
    /// Panics under the [`Transport::send`] contract.
    fn send_batch(&self, sends: Vec<PendingSend>) {
        for s in sends {
            self.send(s);
        }
    }

    /// Drains `node`'s messages that have *arrived* by `deadline`
    /// (`arrives <= deadline`), ordered by arrival time (ties keep delivery
    /// order). Later-arriving messages stay queued for a future drain.
    /// With a TTL, arrived messages older than `ttl` at the deadline are
    /// discarded and counted in [`Drained::expired`] — returned, not yet
    /// recorded (see [`Transport::record_expired`]).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    fn drain(&self, node: usize, deadline: SimTime, ttl: Option<SimTime>) -> Drained;

    /// Records `count` expiries in `node`'s stats — the commit-phase
    /// counterpart of [`Drained::expired`], also used for over-cap
    /// staleness drops decided by the mix loop (round-based caps the
    /// transport cannot see). A zero count is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    fn record_expired(&self, node: usize, count: u64);

    /// Destroys the messages selected by `scope` and reverses their receive
    /// accounting. See [`PurgeScope`] for the exact semantics of each
    /// variant.
    ///
    /// # Panics
    ///
    /// Panics if a scope endpoint is out of range.
    fn purge(&self, scope: PurgeScope) -> PurgeReport;

    /// Number of messages still queued (arrived or in flight) for `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    fn pending(&self, node: usize) -> usize;

    /// Snapshot of a node's traffic counters.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    fn stats(&self, node: usize) -> TrafficStats;

    /// Cluster-wide traffic totals.
    fn total_stats(&self) -> TrafficStats;

    /// The transport's own clock, mapped onto the virtual axis. The sim
    /// backend has no clock of its own (the engine drives virtual time) and
    /// always answers [`SimTime::ZERO`]; a real backend answers wall-clock
    /// time since construction.
    fn now(&self) -> SimTime;

    /// The delivery-latency profile a real backend measured, if any — the
    /// sim oracle's replay input. The sim backend answers `None` (its
    /// latencies are *declared*, not measured).
    fn measured_flight(&self) -> Option<MeasuredFlight> {
        None
    }
}

/// The accounting both backends share: per node, the mailbox of delivered
/// envelopes and the [`TrafficStats`]. A backend adds only what differs —
/// how a message travels to the mailbox — so the [`Transport`] contract's
/// metering (sender charged at send, receiver credited when the message is
/// bound for its mailbox, credit reversed by a purge), its drain semantics
/// and its purge reports are written once.
///
/// Lock order: a node's mailbox may be held while its stats are locked,
/// never the other way round.
#[derive(Debug)]
pub(crate) struct MailboxCore {
    mailboxes: Vec<Mutex<Vec<Envelope>>>,
    stats: Vec<Mutex<TrafficStats>>,
}

impl MailboxCore {
    pub(crate) fn new(n: usize) -> Self {
        Self {
            mailboxes: (0..n).map(|_| Mutex::new(Vec::new())).collect(),
            stats: (0..n)
                .map(|_| Mutex::new(TrafficStats::default()))
                .collect(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.mailboxes.len()
    }

    /// Checks the [`Transport::send`] preconditions and charges the sender.
    pub(crate) fn charge(&self, send: &PendingSend) {
        self.check(send.from);
        self.check(send.to);
        assert!(
            send.arrives >= send.sent,
            "message cannot arrive before it was sent"
        );
        debug_assert_eq!(
            send.breakdown.total(),
            send.payload.len(),
            "breakdown must account for every byte"
        );
        self.stats[send.from].lock().record_send(send.breakdown);
    }

    /// Panics unless `node` is an endpoint of this network.
    pub(crate) fn check(&self, node: usize) {
        assert!(node < self.len(), "endpoint out of range");
    }

    /// Credits `to` with a message of `bytes` bound for its mailbox.
    pub(crate) fn credit(&self, to: usize, bytes: usize) {
        self.stats[to].lock().record_receive(bytes);
    }

    /// Counts a message the network lost on `from`'s behalf.
    pub(crate) fn record_drop(&self, from: usize) {
        self.stats[from].lock().record_drop();
    }

    pub(crate) fn mailbox(&self, node: usize) -> &Mutex<Vec<Envelope>> {
        &self.mailboxes[node]
    }

    /// Partitions `mailbox` at `deadline`, applies the TTL, and stable-sorts
    /// the survivors by arrival. A [`SimTime::MAX`] deadline measures TTL
    /// ages at the backend's `now`.
    pub(crate) fn drain(
        mailbox: &mut Vec<Envelope>,
        deadline: SimTime,
        now: SimTime,
        ttl: Option<SimTime>,
    ) -> Drained {
        let age_ref = if deadline == SimTime::MAX {
            now
        } else {
            deadline
        };
        let mut expired = 0u64;
        let mut arrived = Vec::new();
        // Grows with what has not arrived: a drained mailbox keeps no
        // capacity for the backlog it just handed over.
        let mut pending = Vec::new();
        for env in mailbox.drain(..) {
            if env.arrives <= deadline {
                if ttl.is_some_and(|t| env.age_at(age_ref) > t) {
                    expired += 1;
                } else {
                    arrived.push(env);
                }
            } else {
                pending.push(env);
            }
        }
        *mailbox = pending;
        arrived.sort_by_key(|e| e.arrives); // stable: equal arrivals keep push order
        Drained {
            envelopes: arrived,
            expired,
        }
    }

    /// Removes every envelope of `mailbox` (held for `node`) that `dies`
    /// selects and reverses its receive credit in `node`'s stats.
    pub(crate) fn kill(
        &self,
        node: usize,
        mailbox: &mut Vec<Envelope>,
        mut dies: impl FnMut(&Envelope) -> bool,
    ) -> PurgeReport {
        let mut report = PurgeReport::default();
        let mut stats = self.stats[node].lock();
        mailbox.retain(|env| {
            if !dies(env) {
                return true;
            }
            stats.record_kill(env.payload.len());
            report.messages += 1;
            report.bytes += env.payload.len() as u64;
            false
        });
        report
    }

    pub(crate) fn record_expired(&self, node: usize, count: u64) {
        if count > 0 {
            self.stats[node].lock().record_expired(count);
        }
    }

    pub(crate) fn stats(&self, node: usize) -> TrafficStats {
        *self.stats[node].lock()
    }

    pub(crate) fn total_stats(&self) -> TrafficStats {
        let mut total = TrafficStats::default();
        for s in &self.stats {
            total.merge(&s.lock());
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_age_helpers() {
        let env = Envelope {
            from: 0,
            payload: Bytes::new(),
            sent: SimTime::from_secs_f64(2.0),
            arrives: SimTime::from_secs_f64(3.0),
            sent_round: 4,
        };
        assert_eq!(env.age_at(SimTime::from_secs_f64(5.0)).as_secs_f64(), 3.0);
        assert_eq!(env.age_at(SimTime::from_secs_f64(1.0)), SimTime::ZERO);
        assert_eq!(env.age_rounds(7), 3);
        assert_eq!(env.age_rounds(2), 0, "future rounds saturate to fresh");
    }

    /// A mailbox of 16 envelopes, the first `in_flight` of which arrive
    /// after second 1 and the rest before it, drained at second 1.
    fn capacity_after_drain(in_flight: usize) -> usize {
        let mut mailbox: Vec<Envelope> = (0..16)
            .map(|k| Envelope {
                from: k as u32,
                payload: Bytes::new(),
                sent: SimTime::ZERO,
                arrives: SimTime::from_secs_f64(if k < in_flight { 2.0 } else { 0.5 }),
                sent_round: 0,
            })
            .collect();
        let now = SimTime::from_secs_f64(1.0);
        let drained = MailboxCore::drain(&mut mailbox, now, now, None);
        assert_eq!(drained.envelopes.len(), 16 - in_flight);
        assert_eq!(mailbox.len(), in_flight);
        mailbox.capacity()
    }

    #[test]
    fn a_drained_mailbox_keeps_no_capacity_for_its_previous_backlog() {
        assert_eq!(capacity_after_drain(0), 0);
    }

    #[test]
    fn a_mailbox_is_sized_by_what_is_still_in_flight() {
        assert!(capacity_after_drain(2) <= 4);
    }

    #[test]
    fn an_envelope_is_40_bytes() {
        // Paid once per message in flight: a new field shows here first.
        assert_eq!(std::mem::size_of::<Envelope>(), 40);
    }

    #[test]
    #[should_panic(expected = "envelope stamps are u32")]
    fn a_round_past_u32_does_not_land_truncated() {
        let _ = Envelope::landed(
            0,
            Bytes::new(),
            SimTime::ZERO,
            SimTime::ZERO,
            u32::MAX as usize + 1,
        );
    }

    #[test]
    fn bulk_sends_are_zero_stamped() {
        let s = PendingSend::bulk(
            1,
            2,
            Bytes::from(vec![9u8]),
            ByteBreakdown {
                payload: 1,
                metadata: 0,
            },
        );
        assert_eq!((s.from, s.to, s.sent_round), (1, 2, 0));
        assert_eq!(s.sent, SimTime::ZERO);
        assert_eq!(s.arrives, SimTime::ZERO);
    }
}
