//! The engine↔network contract: [`Transport`].
//!
//! The training engine reaches its network only through this trait, which
//! captures the engine's actual needs as a small, coherent surface:
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
//! - **one close** ([`Transport::close`]): a node that will never drain
//!   again — it has passed its last round — keeps of each message sent to it
//!   only what a purge selects on and reverses, so its mailbox holds no
//!   handle to a shared [`Message`]. Sends to it are charged, lost, traced
//!   and credited as before, and purges kill them as before;
//! - **stats/tracer hooks**: per-node [`TrafficStats`] snapshots and an
//!   attachable [`jwins_trace::Tracer`] that observes sends and drops
//!   without ever affecting them.
//!
//! [`crate::SimNetwork`] implements it on the virtual clock. Its mailboxes
//! and [`TrafficStats`] live in a crate-private core, `MailboxCore`, which
//! owns the contract's accounting: the send preconditions, the sender's
//! charge and the receiver's credit, the drain, and the purge kill that
//! reverses that credit, and the closing of a mailbox. The network adds
//! only the loss model and which mailboxes a purge scope visits.

use crate::meter::{ByteBreakdown, TrafficStats};
use bytes::Bytes;
use jwins_sim::SimTime;
use parking_lot::Mutex;
use std::sync::Arc;

/// One message as its sender handed it to the network: the sender, its
/// round, the send stamp and the payload. A broadcast builds one record and
/// every receiver's [`Envelope`] holds it, so those fields are stored once
/// per message sent, not once per message in flight; the record is freed
/// when the last receiver drains it or a purge kills it.
///
/// The sender and the round are `u32`, as in the trace: [`Message::new`]
/// narrows them once, where the message is built, and readers widen them
/// back.
#[derive(Debug)]
pub struct Message {
    from: u32,
    sent_round: u32,
    sent: SimTime,
    payload: Bytes,
}

impl Message {
    /// The shared record of a message `from` sends in its round
    /// `sent_round` at virtual time `sent`.
    ///
    /// # Panics
    ///
    /// Panics if `from` or `sent_round` exceeds `u32::MAX` (a run is
    /// checked against both limits when it is built).
    pub fn new(from: usize, sent_round: usize, sent: SimTime, payload: Bytes) -> Arc<Self> {
        let narrow = |value: usize| u32::try_from(value).expect("envelope stamps are u32");
        Arc::new(Self {
            from: narrow(from),
            sent_round: narrow(sent_round),
            sent,
            payload,
        })
    }

    /// Serialized message body.
    pub fn payload(&self) -> &Bytes {
        &self.payload
    }
}

/// A delivered message.
///
/// Envelopes carry virtual-time stamps so the event-driven runtime can model
/// in-flight messages: `sent` is when the sender handed the message to the
/// network, `arrives` is when the last byte lands in the receiver's mailbox
/// (`latency + bytes / bandwidth` on the sending link). The barrier-driven
/// engine stamps both with the round's start, making every message
/// immediately drainable — exactly the bulk-synchronous semantics.
///
/// Every message in flight is one envelope in a mailbox, so its size is
/// paid per receiver: 16 bytes, the handle of the sender's shared
/// [`Message`] and the arrival stamp, which depends on the link.
#[derive(Debug, Clone)]
pub struct Envelope {
    message: Arc<Message>,
    arrives: SimTime,
}

impl Envelope {
    pub(crate) fn new(message: Arc<Message>, arrives: SimTime) -> Self {
        Self { message, arrives }
    }

    /// Sending node.
    pub fn from(&self) -> u32 {
        self.message.from
    }

    /// Serialized message body.
    pub fn payload(&self) -> &Bytes {
        self.message.payload()
    }

    /// Virtual send time.
    pub fn sent(&self) -> SimTime {
        self.message.sent
    }

    /// Virtual arrival time; until then the message is invisible to
    /// [`Transport::drain`].
    pub fn arrives(&self) -> SimTime {
        self.arrives
    }

    /// The sender's local round when it sent this message (staleness
    /// accounting in asynchronous gossip).
    pub fn sent_round(&self) -> u32 {
        self.message.sent_round
    }

    /// The message's age at `now`: virtual time since the sender handed it
    /// to the network (saturating at zero for barrier-mode stamps).
    pub fn age_at(&self, now: SimTime) -> SimTime {
        now.since(self.sent())
    }

    /// The message's age in rounds when mixed at `round` (saturating: a
    /// message from a *future* local round has age zero).
    pub fn age_rounds(&self, round: usize) -> usize {
        round.saturating_sub(self.sent_round() as usize)
    }
}

/// What a closed mailbox keeps of a message sent to it: what the
/// [`PurgeScope`]s select on (sender, sender's round, arrival) and what
/// [`TrafficStats::record_kill`] reverses (wire bytes) — 24 bytes and no
/// handle to the shared [`Message`], whose payload nobody will read here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Unread {
    from: u32,
    sent_round: u32,
    arrives: SimTime,
    bytes: u64,
}

impl Unread {
    fn of(env: &Envelope) -> Self {
        Self {
            from: env.from(),
            sent_round: env.sent_round(),
            arrives: env.arrives,
            bytes: env.payload().len() as u64,
        }
    }
}

/// A node's mailbox: the envelopes it will drain, or, once
/// [`Transport::close`] has said it never drains again, what a purge still
/// needs of each message sent to it.
#[derive(Debug)]
pub(crate) enum Inbox {
    Open(Vec<Envelope>),
    Closed(Vec<Unread>),
}

impl Inbox {
    /// Queues a message bound for this mailbox; a closed one keeps its stub
    /// and lets go of the record.
    pub(crate) fn push(&mut self, envelope: Envelope) {
        match self {
            Self::Open(envelopes) => envelopes.push(envelope),
            Self::Closed(stubs) => stubs.push(Unread::of(&envelope)),
        }
    }

    /// Messages queued, arrived or in flight.
    pub(crate) fn len(&self) -> usize {
        match self {
            Self::Open(envelopes) => envelopes.len(),
            Self::Closed(stubs) => stubs.len(),
        }
    }

    /// Turns the queued envelopes into stubs; a closed mailbox stays as it
    /// is.
    pub(crate) fn close(&mut self) {
        if let Self::Open(envelopes) = self {
            *self = Self::Closed(envelopes.iter().map(Unread::of).collect());
        }
    }

    /// The envelopes of an open mailbox.
    ///
    /// # Panics
    ///
    /// Panics if the mailbox is closed.
    pub(crate) fn envelopes(&mut self) -> &mut Vec<Envelope> {
        match self {
            Self::Open(envelopes) => envelopes,
            Self::Closed(_) => panic!("a closed mailbox is never drained"),
        }
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
    /// What is sent, shared by every receiver of the same message.
    pub message: Arc<Message>,
    /// Receiving node.
    pub to: usize,
    /// Payload/metadata byte accounting.
    pub breakdown: ByteBreakdown,
    /// Virtual arrival time of the last byte.
    pub arrives: SimTime,
}

impl PendingSend {
    /// An unstamped send: both stamps at [`SimTime::ZERO`] and round 0, i.e.
    /// immediately drainable.
    pub fn bulk(from: usize, to: usize, payload: Bytes, breakdown: ByteBreakdown) -> Self {
        Self {
            message: Message::new(from, 0, SimTime::ZERO, payload),
            to,
            breakdown,
            arrives: SimTime::ZERO,
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

impl PurgeScope {
    /// Whether the message `key` describes dies, for a mailbox the scope
    /// visits (its `node`, its `to`, or every node for
    /// [`PurgeScope::InFlightFrom`]). Both kinds of mailbox are judged
    /// here, on what a closed one keeps.
    pub(crate) fn dies(self, key: &Unread) -> bool {
        match self {
            Self::Inbox { .. } => true,
            Self::ArrivedBy { deadline, .. } => key.arrives <= deadline,
            Self::InFlightFrom { from, cutoff } => {
                key.from as usize == from && key.arrives > cutoff
            }
            Self::Link {
                from, sent_round, ..
            } => {
                key.from as usize == from && sent_round.is_none_or(|r| key.sent_round as usize == r)
            }
        }
    }
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
///   and the staleness TTL. TTL ages are measured at the deadline.
/// - **Closing** ([`Transport::close`]) is invisible to the accounting: a
///   closed node is charged, credited, purged and reported exactly as an
///   open one that never drains. Only its [`Transport::drain`] is gone.
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
    /// Panics if an endpoint is out of range or `arrives < sent`.
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
    /// Panics if `node` is out of range or closed.
    fn drain(&self, node: usize, deadline: SimTime, ttl: Option<SimTime>) -> Drained;

    /// Declares that `node` will never drain again (it has passed its last
    /// round): its queued messages, and every message sent to it from now
    /// on, are kept only as far as [`Transport::purge`] and the
    /// [`TrafficStats`] need them, so their payloads are freed once their
    /// other receivers let go. Sends to it, purges, [`Transport::pending`]
    /// and the stats are unchanged. Closing a closed node is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range. A later [`Transport::drain`] of
    /// `node` panics.
    fn close(&self, node: usize);

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

    /// Number of messages still queued (arrived or in flight) for `node`;
    /// a closed node counts the messages it keeps only for purges.
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
}

/// The network's accounting: per node, the mailbox of delivered envelopes
/// (an [`Inbox`], open or closed) and the [`TrafficStats`]. The
/// [`Transport`] contract's metering (sender charged at send, receiver
/// credited when the message is bound for its mailbox, credit reversed by a
/// purge), its drain semantics and its purge reports are written here once.
///
/// Lock order: a node's mailbox may be held while its stats are locked,
/// never the other way round.
#[derive(Debug)]
pub(crate) struct MailboxCore {
    mailboxes: Vec<Mutex<Inbox>>,
    stats: Vec<Mutex<TrafficStats>>,
}

impl MailboxCore {
    pub(crate) fn new(n: usize) -> Self {
        Self {
            mailboxes: (0..n)
                .map(|_| Mutex::new(Inbox::Open(Vec::new())))
                .collect(),
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
        let from = send.message.from as usize;
        self.check(from);
        self.check(send.to);
        assert!(
            send.arrives >= send.message.sent,
            "message cannot arrive before it was sent"
        );
        debug_assert_eq!(
            send.breakdown.total(),
            send.message.payload.len(),
            "breakdown must account for every byte"
        );
        self.stats[from].lock().record_send(send.breakdown);
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

    pub(crate) fn mailbox(&self, node: usize) -> &Mutex<Inbox> {
        &self.mailboxes[node]
    }

    /// Partitions `mailbox` at `deadline`, applies the TTL (ages measured
    /// at the deadline), and stable-sorts the survivors by arrival. One
    /// pass counts both sides, so each vector is allocated once at its
    /// exact length: a drained mailbox keeps no capacity for the backlog it
    /// just handed over.
    pub(crate) fn drain(
        mailbox: &mut Vec<Envelope>,
        deadline: SimTime,
        ttl: Option<SimTime>,
    ) -> Drained {
        let fate = |env: &Envelope| {
            if env.arrives > deadline {
                Fate::Pending
            } else if ttl.is_some_and(|t| env.age_at(deadline) > t) {
                Fate::Expired
            } else {
                Fate::Arrived
            }
        };
        let (mut arrived, mut pending, mut expired) = (0, 0, 0u64);
        for env in mailbox.iter() {
            match fate(env) {
                Fate::Arrived => arrived += 1,
                Fate::Pending => pending += 1,
                Fate::Expired => expired += 1,
            }
        }
        let mut arrived = Vec::with_capacity(arrived);
        let mut pending = Vec::with_capacity(pending);
        for env in mailbox.drain(..) {
            match fate(&env) {
                Fate::Arrived => arrived.push(env),
                Fate::Pending => pending.push(env),
                Fate::Expired => {}
            }
        }
        *mailbox = pending;
        arrived.sort_by_key(|e| e.arrives); // stable: equal arrivals keep push order
        Drained {
            envelopes: arrived,
            expired,
        }
    }

    /// Removes every message of `node`'s mailbox that `scope` kills and
    /// reverses its receive credit in `node`'s stats.
    pub(crate) fn kill(&self, node: usize, scope: PurgeScope) -> PurgeReport {
        self.check(node);
        let mut report = PurgeReport::default();
        let mut inbox = self.mailboxes[node].lock();
        let mut stats = self.stats[node].lock();
        let mut dies = |key: Unread| {
            if !scope.dies(&key) {
                return false;
            }
            stats.record_kill(key.bytes as usize);
            report.messages += 1;
            report.bytes += key.bytes;
            true
        };
        match &mut *inbox {
            Inbox::Open(envelopes) => envelopes.retain(|env| !dies(Unread::of(env))),
            Inbox::Closed(stubs) => stubs.retain(|&stub| !dies(stub)),
        }
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

/// Where a drain puts one envelope.
enum Fate {
    Arrived,
    Pending,
    Expired,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An envelope of a message sent in `sent_round` at `sent` that lands
    /// at `arrives`.
    fn envelope(from: usize, sent: SimTime, arrives: SimTime, sent_round: usize) -> Envelope {
        Envelope::new(Message::new(from, sent_round, sent, Bytes::new()), arrives)
    }

    #[test]
    fn envelope_age_helpers() {
        let env = envelope(
            0,
            SimTime::from_secs_f64(2.0),
            SimTime::from_secs_f64(3.0),
            4,
        );
        assert_eq!(env.age_at(SimTime::from_secs_f64(5.0)).as_secs_f64(), 3.0);
        assert_eq!(env.age_at(SimTime::from_secs_f64(1.0)), SimTime::ZERO);
        assert_eq!(env.age_rounds(7), 3);
        assert_eq!(env.age_rounds(2), 0, "future rounds saturate to fresh");
    }

    /// A mailbox of 16 envelopes, the first `in_flight` of which arrive
    /// after second 1 and the rest before it, drained at second 1.
    fn capacity_after_drain(in_flight: usize) -> usize {
        let mut mailbox: Vec<Envelope> = (0..16)
            .map(|k| {
                let arrives = SimTime::from_secs_f64(if k < in_flight { 2.0 } else { 0.5 });
                envelope(k, SimTime::ZERO, arrives, 0)
            })
            .collect();
        let now = SimTime::from_secs_f64(1.0);
        let drained = MailboxCore::drain(&mut mailbox, now, None);
        assert_eq!(drained.envelopes.len(), 16 - in_flight);
        assert_eq!(drained.envelopes.capacity(), 16 - in_flight);
        assert_eq!(mailbox.len(), in_flight);
        mailbox.capacity()
    }

    #[test]
    fn a_drained_mailbox_keeps_no_capacity_for_its_previous_backlog() {
        assert_eq!(capacity_after_drain(0), 0);
    }

    #[test]
    fn a_mailbox_is_sized_by_what_is_still_in_flight() {
        for in_flight in [1, 2, 5, 16] {
            assert_eq!(capacity_after_drain(in_flight), in_flight);
        }
    }

    #[test]
    fn an_envelope_is_16_bytes() {
        // Paid once per receiver of a message in flight: the record handle
        // and the arrival stamp. A new field shows here first.
        assert_eq!(std::mem::size_of::<Envelope>(), 16);
    }

    #[test]
    fn an_unread_stub_is_24_bytes() {
        // Paid once per message sent to a node that has passed its last
        // round: sender, round, arrival and wire bytes, no record handle.
        assert_eq!(std::mem::size_of::<Unread>(), 24);
    }

    /// Sends one record from node 0 to nodes `1..=4` in one batch and
    /// returns a weak handle to it: the caller keeps no strong one.
    fn broadcast(net: &crate::SimNetwork) -> std::sync::Weak<Message> {
        let message = Message::new(0, 3, SimTime(1), Bytes::from(vec![7u8; 8]));
        let breakdown = ByteBreakdown {
            payload: 8,
            metadata: 0,
        };
        net.send_batch(
            (1..=4)
                .map(|to| PendingSend {
                    message: Arc::clone(&message),
                    to,
                    breakdown,
                    arrives: SimTime(2),
                })
                .collect(),
        );
        Arc::downgrade(&message)
    }

    #[test]
    fn a_broadcast_shares_one_record_until_its_last_receiver_lets_go() {
        let net = crate::SimNetwork::new(5);
        let drained = broadcast(&net);
        assert_eq!(drained.strong_count(), 4, "one handle per receiver");
        let inboxes: Vec<Vec<Envelope>> = (1..=4)
            .map(|node| net.drain(node, SimTime::MAX, None).envelopes)
            .collect();
        for inbox in &inboxes {
            assert_eq!(inbox.len(), 1);
            assert!(std::ptr::eq(
                Arc::as_ptr(&inbox[0].message),
                drained.as_ptr()
            ));
            assert_eq!((inbox[0].from(), inbox[0].sent_round()), (0, 3));
        }
        drop(inboxes);
        assert!(drained.upgrade().is_none(), "freed by the last drain");

        let purged = broadcast(&net);
        for node in 1..=3 {
            drop(net.drain(node, SimTime::MAX, None));
        }
        assert_eq!(purged.strong_count(), 1, "node 4 still holds it");
        let report = net.purge(PurgeScope::Inbox { node: 4 });
        assert_eq!(report.messages, 1);
        assert!(purged.upgrade().is_none(), "freed by the purge");
    }

    #[test]
    fn a_broadcast_to_closed_receivers_is_freed_by_its_one_open_receiver() {
        let net = crate::SimNetwork::new(5);
        for node in 2..=4 {
            net.close(node);
        }
        let record = broadcast(&net);
        assert_eq!(record.strong_count(), 1, "only node 1 holds it");
        for node in 1..=4 {
            assert_eq!(net.pending(node), 1);
            assert_eq!(net.stats(node).bytes_received, 8);
        }
        let inbox = net.drain(1, SimTime::MAX, None).envelopes;
        assert_eq!((inbox[0].from(), inbox[0].sent_round()), (0, 3));
        drop(inbox);
        assert!(record.upgrade().is_none(), "freed by the open receiver");
        let report = net.purge(PurgeScope::Link {
            from: 0,
            to: 3,
            sent_round: Some(3),
        });
        assert_eq!((report.messages, report.bytes), (1, 8), "the stub dies");
        assert_eq!(net.stats(3).bytes_received, 0);
    }

    #[test]
    fn a_closed_node_keeps_no_handle_to_a_record() {
        let net = crate::SimNetwork::new(5);
        let queued = broadcast(&net);
        for node in 1..=4 {
            net.close(node);
        }
        assert!(queued.upgrade().is_none(), "closing let go of the queue");
        let later = broadcast(&net);
        assert!(later.upgrade().is_none(), "a send to a closed node too");
        for node in 1..=4 {
            assert_eq!(net.pending(node), 2);
        }
    }

    #[test]
    fn closing_twice_is_a_no_op() {
        let net = crate::SimNetwork::new(5);
        drop(broadcast(&net));
        net.close(2);
        let once = (net.pending(2), net.stats(2));
        net.close(2);
        assert_eq!((net.pending(2), net.stats(2)), once);
        let report = net.purge(PurgeScope::ArrivedBy {
            node: 2,
            deadline: SimTime(2),
        });
        assert_eq!((report.messages, report.bytes), (1, 8), "one stub, kept");
    }

    #[test]
    #[should_panic(expected = "a closed mailbox is never drained")]
    fn draining_a_closed_node_panics() {
        let net = crate::SimNetwork::new(2);
        net.close(1);
        let _ = net.drain(1, SimTime::MAX, None);
    }

    #[test]
    #[should_panic(expected = "envelope stamps are u32")]
    fn a_round_past_u32_does_not_land_truncated() {
        let _ = Message::new(0, u32::MAX as usize + 1, SimTime::ZERO, Bytes::new());
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
        let env = Envelope::new(Arc::clone(&s.message), s.arrives);
        assert_eq!((env.from(), s.to, env.sent_round()), (1, 2, 0));
        assert_eq!(env.sent(), SimTime::ZERO);
        assert_eq!(env.arrives(), SimTime::ZERO);
    }
}
