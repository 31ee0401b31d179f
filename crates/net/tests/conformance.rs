//! Transport conformance suite.
//!
//! Pins the [`Transport`] contract the engine relies on, on a four-node
//! [`SimNetwork`] driven through the trait alone: delivery with per-edge
//! FIFO order, deadline/TTL drain semantics, purge-scope kill rules with
//! receive-credit reversal, byte accounting, and strictly observational
//! tracing. A network that passes this suite is safe to put under either
//! scheduler.

use bytes::Bytes;
use jwins_net::{ByteBreakdown, Message, PendingSend, PurgeScope, SimNetwork, Transport};
use jwins_sim::SimTime;
use jwins_trace::{MemorySink, TraceConfig, TraceEvent, Tracer};
use std::sync::Arc;

/// A fresh network of four nodes, seen only through the trait.
fn network() -> Box<dyn Transport> {
    Box::new(SimNetwork::new(4))
}

/// A send stamped at [`SimTime::ZERO`] (barrier semantics): drainable at
/// once.
fn stamped(
    from: usize,
    to: usize,
    body: Vec<u8>,
    metadata: usize,
    sent_round: usize,
) -> PendingSend {
    PendingSend {
        to,
        breakdown: ByteBreakdown {
            payload: body.len() - metadata,
            metadata,
        },
        message: Message::new(from, sent_round, SimTime::ZERO, Bytes::from(body)),
        arrives: SimTime::ZERO,
    }
}

#[test]
fn delivery_credits_both_endpoints() {
    let net = network();
    net.send(stamped(0, 1, vec![1, 2, 3], 1, 0));
    net.send(stamped(0, 1, vec![4, 5], 0, 0));
    net.send(stamped(2, 1, vec![6], 0, 0));
    assert_eq!(net.pending(1), 3, "queued before drain");

    let drained = net.drain(1, SimTime::MAX, None);
    assert_eq!(drained.expired, 0);
    assert_eq!(drained.envelopes.len(), 3);
    assert_eq!(net.pending(1), 0, "drain empties the queue");

    let sender = net.stats(0);
    assert_eq!(sender.bytes_sent, 5, "sender charged at send");
    assert_eq!(sender.payload_sent, 4, "payload component");
    assert_eq!(sender.metadata_sent, 1, "metadata component");
    assert_eq!(sender.messages_sent, 2);
    let receiver = net.stats(1);
    assert_eq!(receiver.bytes_received, 6, "receiver credited");
    let total = net.total_stats();
    assert_eq!(total.bytes_sent, 6);
    assert_eq!(total.messages_sent, 3);
}

#[test]
fn per_edge_delivery_is_fifo() {
    let net = network();
    for k in 0..32u8 {
        net.send(stamped(0, 1, vec![k], 0, 0));
    }
    let bodies: Vec<u8> = net
        .drain(1, SimTime::MAX, None)
        .envelopes
        .iter()
        .map(|e| e.payload()[0])
        .collect();
    assert_eq!(bodies, (0..32).collect::<Vec<u8>>());
}

#[test]
fn send_batch_matches_sequential_sends() {
    let net = network();
    let batch: Vec<PendingSend> = (0..5u8).map(|k| stamped(0, 1, vec![k, k], 0, 0)).collect();
    net.send_batch(batch);
    let drained = net.drain(1, SimTime::MAX, None).envelopes;
    let bodies: Vec<u8> = drained.iter().map(|e| e.payload()[0]).collect();
    assert_eq!(bodies, vec![0, 1, 2, 3, 4], "batch keeps order");
    assert_eq!(net.stats(0).messages_sent, 5);
}

#[test]
fn future_arrivals_stay_queued_until_their_deadline() {
    let net = network();
    let mut send = stamped(0, 1, vec![7], 0, 0);
    send.arrives = send.arrives.plus(SimTime::from_secs_f64(1.0));
    let early_deadline = SimTime(send.arrives.0 - 1);
    net.send(send);
    let early = net.drain(1, early_deadline, None);
    assert!(early.envelopes.is_empty(), "not arrived yet");
    assert_eq!(net.pending(1), 1, "still queued");
    let late = net.drain(1, SimTime::MAX, None);
    assert_eq!(late.envelopes.len(), 1, "delivered at MAX");
}

#[test]
fn ttl_expiry_is_counted_but_not_yet_recorded() {
    let net = network();
    net.send(stamped(0, 1, vec![1], 0, 0));
    // Drain far in the future with a 1-second TTL: the message is 10
    // virtual seconds old at the deadline.
    let deadline = SimTime::from_secs_f64(10.0);
    let drained = net.drain(1, deadline, Some(SimTime::from_secs_f64(1.0)));
    assert!(drained.envelopes.is_empty(), "too stale to mix");
    assert_eq!(drained.expired, 1, "expiry returned");
    assert_eq!(
        net.stats(1).messages_expired,
        0,
        "accounting deferred to the caller"
    );
    net.record_expired(1, drained.expired);
    assert_eq!(net.stats(1).messages_expired, 1, "committed");
}

#[test]
fn a_million_expiries_commit_as_one_addition() {
    // The commit holds the node's stats lock: it must cost one addition,
    // not one lock-held loop iteration per expired message.
    let net = network();
    net.record_expired(2, 1_000_000);
    net.record_expired(2, 0);
    net.record_expired(2, 5);
    assert_eq!(net.stats(2).messages_expired, 1_000_005);
    assert_eq!(net.total_stats().messages_expired, 1_000_005);
    assert_eq!(net.stats(1).messages_expired, 0, "other nodes");
}

#[test]
fn purge_inbox_kills_queued_messages_and_reverses_receive_credit() {
    let net = network();
    net.send(stamped(0, 1, vec![0; 4], 0, 0));
    net.send(stamped(2, 1, vec![0; 6], 0, 0));
    let report = net.purge(PurgeScope::Inbox { node: 1 });
    assert_eq!(report.messages, 2);
    assert_eq!(report.bytes, 10);
    assert_eq!(net.pending(1), 0);
    assert!(
        net.drain(1, SimTime::MAX, None).envelopes.is_empty(),
        "nothing left to drain"
    );
    assert_eq!(net.stats(1).bytes_received, 0, "receive credit reversed");
    assert_eq!(
        net.stats(0).bytes_sent,
        4,
        "sender keeps paying for wire bytes"
    );
}

#[test]
fn purge_link_respects_the_round_filter() {
    let net = network();
    net.send(stamped(0, 1, vec![3; 2], 0, 3));
    net.send(stamped(0, 1, vec![4; 2], 0, 4));
    net.send(stamped(2, 1, vec![9], 0, 3)); // other edge survives
    let report = net.purge(PurgeScope::Link {
        from: 0,
        to: 1,
        sent_round: Some(3),
    });
    assert_eq!(report.messages, 1, "only round 3 on the edge");
    assert_eq!(report.bytes, 2);
    let survivors = net.drain(1, SimTime::MAX, None).envelopes;
    let tags: Vec<(u32, u32)> = survivors
        .iter()
        .map(|e| (e.from(), e.sent_round()))
        .collect();
    assert!(tags.contains(&(0, 4)), "other round survives");
    assert!(tags.contains(&(2, 3)), "other edge survives");
    assert_eq!(tags.len(), 2);
}

#[test]
fn tracing_is_observational_and_sees_every_send() {
    let mut net = network();
    let probe = MemorySink::new();
    let mut tracer = Tracer::from_config(&TraceConfig::default()).expect("default tracer");
    tracer.push_sink(Box::new(probe.clone()));
    net.set_tracer(Arc::new(tracer));

    net.send(stamped(0, 1, vec![1, 2], 0, 5));
    net.send(stamped(2, 1, vec![3], 0, 5));
    let sends: Vec<(u32, u32, u64)> = probe
        .events()
        .into_iter()
        .filter_map(|e| match e {
            TraceEvent::MsgSend {
                from, to, bytes, ..
            } => Some((from, to, bytes)),
            _ => None,
        })
        .collect();
    assert_eq!(sends, vec![(0, 1, 2), (2, 1, 1)]);
    // Observational: delivery and accounting are unchanged.
    assert_eq!(net.drain(1, SimTime::MAX, None).envelopes.len(), 2);
    assert_eq!(net.total_stats().bytes_sent, 3);
}
