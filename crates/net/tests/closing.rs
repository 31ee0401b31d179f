//! Closing a mailbox is invisible to the network's accounting.
//!
//! Two [`SimNetwork`]s replay one random script of sends (some through a
//! [`LossModel`]), drains, expiry records and purges of all four scopes;
//! one of them also closes random nodes, the other never does. Every purge
//! report, every node's stats, the totals and every pending count must agree
//! after each step, and so must what the open nodes drain. A list of the
//! messages queued per node, with the purge scopes written out again, is the
//! oracle both are held to: a fault that both networks share — a stub that
//! misreports its bytes to both — is caught there.

use bytes::Bytes;
use jwins_net::{
    ByteBreakdown, Envelope, LossModel, Message, PendingSend, PurgeReport, PurgeScope, SimNetwork,
    Transport,
};
use jwins_sim::SimTime;
use proptest::prelude::*;

const NODES: usize = 5;

/// One step of a script, from a kind and six random operands.
#[derive(Debug, Clone, Copy)]
enum Step {
    Send {
        from: usize,
        to: usize,
        round: usize,
        sent: u64,
        flight: u64,
        len: usize,
    },
    Close(usize),
    Drain {
        node: usize,
        deadline: u64,
        ttl: Option<u64>,
    },
    Expire(usize, u64),
    Purge(PurgeScope),
}

type Operands = (u8, (usize, usize, usize), (u64, u64, usize));

fn step(&(kind, (a, b, round), (t, u, len)): &Operands) -> Step {
    let (a, b) = (a % NODES, b % NODES);
    match kind {
        0..=4 => Step::Send {
            from: a,
            to: b,
            round,
            sent: t,
            flight: u,
            len,
        },
        5 => Step::Close(a),
        6 | 7 => Step::Drain {
            node: a,
            deadline: t + u,
            ttl: (round % 2 == 0).then_some(u / 2),
        },
        8 => Step::Expire(a, u % 3),
        9 => Step::Purge(PurgeScope::Inbox { node: a }),
        10 => Step::Purge(PurgeScope::ArrivedBy {
            node: a,
            deadline: SimTime(t + u),
        }),
        11 => Step::Purge(PurgeScope::InFlightFrom {
            from: a,
            cutoff: SimTime(t + u),
        }),
        _ => Step::Purge(PurgeScope::Link {
            from: a,
            to: b,
            sent_round: (len % 2 == 0).then_some(round),
        }),
    }
}

/// What a drained envelope carries: sender, round, both stamps, body.
type Seen = (u32, u32, SimTime, SimTime, Vec<u8>);

fn seen(envelopes: &[Envelope]) -> Vec<Seen> {
    envelopes
        .iter()
        .map(|e| {
            let body = e.payload().to_vec();
            (e.from(), e.sent_round(), e.sent(), e.arrives(), body)
        })
        .collect()
}

/// The oracle: every node's queued messages, in delivery order.
struct Queues(Vec<Vec<Seen>>);

impl Queues {
    fn kill(&mut self, scope: PurgeScope) -> PurgeReport {
        let mut report = PurgeReport::default();
        for (node, queue) in self.0.iter_mut().enumerate() {
            queue.retain(|(from, round, _, arrives, body)| {
                let (from, round) = (*from as usize, *round as usize);
                let dies = match scope {
                    PurgeScope::Inbox { node: n } => n == node,
                    PurgeScope::ArrivedBy { node: n, deadline } => {
                        n == node && *arrives <= deadline
                    }
                    PurgeScope::InFlightFrom { from: f, cutoff } => f == from && *arrives > cutoff,
                    PurgeScope::Link {
                        from: f,
                        to,
                        sent_round,
                    } => to == node && f == from && sent_round.is_none_or(|r| r == round),
                };
                if dies {
                    report.messages += 1;
                    report.bytes += body.len() as u64;
                }
                !dies
            });
        }
        report
    }

    fn drain(&mut self, node: usize, deadline: SimTime, ttl: Option<SimTime>) -> (Vec<Seen>, u64) {
        let (arrived, pending) = std::mem::take(&mut self.0[node])
            .into_iter()
            .partition(|m| m.3 <= deadline);
        self.0[node] = pending;
        let (mut fresh, stale): (Vec<Seen>, Vec<Seen>) = arrived
            .into_iter()
            .partition(|m| ttl.is_none_or(|ttl| deadline.since(m.2) <= ttl));
        fresh.sort_by_key(|m| m.3);
        (fresh, stale.len() as u64)
    }
}

fn assert_same_accounting(closing: &SimNetwork, open: &SimNetwork) {
    for node in 0..NODES {
        assert_eq!(closing.stats(node), open.stats(node), "node {node}");
        assert_eq!(closing.pending(node), open.pending(node), "node {node}");
    }
    assert_eq!(closing.total_stats(), open.total_stats());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn closing_a_mailbox_changes_no_count_and_no_delivery(
        lossy in any::<bool>(),
        script in collection::vec(
            (0u8..14, (0usize..NODES, 0usize..NODES, 0usize..4), (0u64..40, 0u64..30, 0usize..12)),
            0..80,
        ),
    ) {
        let network = || {
            if lossy {
                SimNetwork::lossy(NODES, LossModel::new(0.3, 11))
            } else {
                SimNetwork::new(NODES)
            }
        };
        let (closing, open) = (network(), network());
        let mut closed = [false; NODES];
        let mut queues = Queues(vec![Vec::new(); NODES]);
        for operands in &script {
            match step(operands) {
                Step::Send { from, to, round, sent, flight, len } => {
                    let metadata = len / 3;
                    let body = vec![len as u8; len];
                    let send = PendingSend {
                        message: Message::new(from, round, SimTime(sent), Bytes::from(body.clone())),
                        to,
                        breakdown: ByteBreakdown { payload: len - metadata, metadata },
                        arrives: SimTime(sent + flight),
                    };
                    let dropped = open.stats(from).messages_dropped;
                    closing.send(send.clone());
                    open.send(send);
                    if open.stats(from).messages_dropped == dropped {
                        let stamps = (SimTime(sent), SimTime(sent + flight));
                        queues.0[to].push((from as u32, round as u32, stamps.0, stamps.1, body));
                    }
                }
                Step::Close(node) => {
                    closing.close(node);
                    closed[node] = true;
                }
                Step::Drain { node, deadline, ttl } => {
                    if closed[node] {
                        continue;
                    }
                    let ttl = ttl.map(SimTime);
                    let a = closing.drain(node, SimTime(deadline), ttl);
                    let b = open.drain(node, SimTime(deadline), ttl);
                    prop_assert_eq!(a.expired, b.expired);
                    prop_assert_eq!(seen(&a.envelopes), seen(&b.envelopes));
                    let (envelopes, expired) = queues.drain(node, SimTime(deadline), ttl);
                    prop_assert_eq!((seen(&b.envelopes), b.expired), (envelopes, expired));
                }
                Step::Expire(node, count) => {
                    closing.record_expired(node, count);
                    open.record_expired(node, count);
                }
                Step::Purge(scope) => {
                    let report = open.purge(scope);
                    prop_assert_eq!(closing.purge(scope), report, "{:?}", scope);
                    prop_assert_eq!(queues.kill(scope), report, "{:?}", scope);
                }
            }
            assert_same_accounting(&closing, &open);
            for (node, queue) in queues.0.iter().enumerate() {
                prop_assert_eq!(open.pending(node), queue.len());
            }
        }
    }
}
