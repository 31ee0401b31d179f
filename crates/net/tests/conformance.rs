//! Transport conformance suite.
//!
//! Every test here runs the *same* assertions against both [`Transport`]
//! backends — the deterministic [`SimNetwork`] and the real-concurrency
//! [`ThreadChannelTransport`] — pinning the contract the engine relies on:
//! delivery with per-edge FIFO order, deadline/TTL drain semantics,
//! purge-scope kill rules with receive-credit reversal, byte accounting,
//! and strictly observational tracing. A backend that passes this suite is
//! safe to put under any engine substrate.

use bytes::Bytes;
use jwins_net::{
    ByteBreakdown, PendingSend, PurgeScope, SimNetwork, ThreadChannelTransport, Transport,
};
use jwins_sim::SimTime;
use jwins_trace::{MemorySink, TraceConfig, TraceEvent, Tracer};
use std::sync::Arc;

/// Runs `check` once per backend, labelling failures with the backend name.
fn each_backend(check: impl Fn(&str, Box<dyn Transport>)) {
    check("sim", Box::new(SimNetwork::new(4)));
    check("channel", Box::new(ThreadChannelTransport::new(4)));
}

/// A send stamped with the transport's own clock — `SimTime::ZERO` (barrier
/// semantics) on the sim backend, the wall clock on the channel backend —
/// i.e. what each backend's driving engine would hand it.
fn stamped(
    net: &dyn Transport,
    from: usize,
    to: usize,
    body: Vec<u8>,
    metadata: usize,
    sent_round: usize,
) -> PendingSend {
    let now = net.now();
    PendingSend {
        from,
        to,
        breakdown: ByteBreakdown {
            payload: body.len() - metadata,
            metadata,
        },
        payload: Bytes::from(body),
        sent: now,
        arrives: now,
        sent_round,
    }
}

#[test]
fn delivery_credits_both_endpoints() {
    each_backend(|name, net| {
        net.send(stamped(&*net, 0, 1, vec![1, 2, 3], 1, 0));
        net.send(stamped(&*net, 0, 1, vec![4, 5], 0, 0));
        net.send(stamped(&*net, 2, 1, vec![6], 0, 0));
        assert_eq!(net.pending(1), 3, "{name}: queued before drain");

        let drained = net.drain(1, SimTime::MAX, None);
        assert_eq!(drained.expired, 0, "{name}");
        assert_eq!(drained.envelopes.len(), 3, "{name}");
        assert_eq!(net.pending(1), 0, "{name}: drain empties the queue");

        let sender = net.stats(0);
        assert_eq!(sender.bytes_sent, 5, "{name}: sender charged at send");
        assert_eq!(sender.payload_sent, 4, "{name}: payload component");
        assert_eq!(sender.metadata_sent, 1, "{name}: metadata component");
        assert_eq!(sender.messages_sent, 2, "{name}");
        let receiver = net.stats(1);
        assert_eq!(receiver.bytes_received, 6, "{name}: receiver credited");
        let total = net.total_stats();
        assert_eq!(total.bytes_sent, 6, "{name}");
        assert_eq!(total.messages_sent, 3, "{name}");
    });
}

#[test]
fn per_edge_delivery_is_fifo() {
    each_backend(|name, net| {
        for k in 0..32u8 {
            net.send(stamped(&*net, 0, 1, vec![k], 0, 0));
        }
        let bodies: Vec<u8> = net
            .drain(1, SimTime::MAX, None)
            .envelopes
            .iter()
            .map(|e| e.payload[0])
            .collect();
        assert_eq!(bodies, (0..32).collect::<Vec<u8>>(), "{name}");
    });
}

#[test]
fn send_batch_matches_sequential_sends() {
    each_backend(|name, net| {
        let batch: Vec<PendingSend> = (0..5u8)
            .map(|k| stamped(&*net, 0, 1, vec![k, k], 0, 0))
            .collect();
        net.send_batch(batch);
        let drained = net.drain(1, SimTime::MAX, None).envelopes;
        let bodies: Vec<u8> = drained.iter().map(|e| e.payload[0]).collect();
        assert_eq!(bodies, vec![0, 1, 2, 3, 4], "{name}: batch keeps order");
        assert_eq!(net.stats(0).messages_sent, 5, "{name}");
    });
}

#[test]
fn future_arrivals_stay_queued_until_their_deadline() {
    each_backend(|name, net| {
        let mut send = stamped(&*net, 0, 1, vec![7], 0, 0);
        // The sim backend honors the declared arrival stamp; a real wire
        // stamps arrival when the receiver pulls the frame, so any wall
        // arrival is in the future of a ZERO deadline.
        let early_deadline = if name == "sim" {
            send.arrives = send.sent.plus(SimTime::from_secs_f64(1.0));
            SimTime(send.arrives.0 - 1)
        } else {
            SimTime::ZERO
        };
        net.send(send);
        let early = net.drain(1, early_deadline, None);
        assert!(early.envelopes.is_empty(), "{name}: not arrived yet");
        assert_eq!(net.pending(1), 1, "{name}: still queued");
        let late = net.drain(1, SimTime::MAX, None);
        assert_eq!(late.envelopes.len(), 1, "{name}: delivered at MAX");
    });
}

#[test]
fn ttl_expiry_is_counted_but_not_yet_recorded() {
    each_backend(|name, net| {
        net.send(stamped(&*net, 0, 1, vec![1], 0, 0));
        // Drain far in the future with a 1-second TTL: the message is ~10
        // virtual seconds old at the deadline on both backends.
        let deadline = net.now().plus(SimTime::from_secs_f64(10.0));
        let drained = net.drain(1, deadline, Some(SimTime::from_secs_f64(1.0)));
        assert!(drained.envelopes.is_empty(), "{name}: too stale to mix");
        assert_eq!(drained.expired, 1, "{name}: expiry returned");
        assert_eq!(
            net.stats(1).messages_expired,
            0,
            "{name}: accounting deferred to the caller"
        );
        net.record_expired(1, drained.expired);
        assert_eq!(net.stats(1).messages_expired, 1, "{name}: committed");
    });
}

#[test]
fn a_million_expiries_commit_as_one_addition() {
    // The commit holds the node's stats lock: it must cost one addition,
    // not one lock-held loop iteration per expired message.
    each_backend(|name, net| {
        net.record_expired(2, 1_000_000);
        net.record_expired(2, 0);
        net.record_expired(2, 5);
        assert_eq!(net.stats(2).messages_expired, 1_000_005, "{name}");
        assert_eq!(net.total_stats().messages_expired, 1_000_005, "{name}");
        assert_eq!(net.stats(1).messages_expired, 0, "{name}: other nodes");
    });
}

#[test]
fn purge_inbox_kills_queued_messages_and_reverses_receive_credit() {
    each_backend(|name, net| {
        net.send(stamped(&*net, 0, 1, vec![0; 4], 0, 0));
        net.send(stamped(&*net, 2, 1, vec![0; 6], 0, 0));
        let report = net.purge(PurgeScope::Inbox { node: 1 });
        assert_eq!(report.messages, 2, "{name}");
        assert_eq!(report.bytes, 10, "{name}");
        assert_eq!(net.pending(1), 0, "{name}");
        assert!(
            net.drain(1, SimTime::MAX, None).envelopes.is_empty(),
            "{name}: nothing left to drain"
        );
        assert_eq!(
            net.stats(1).bytes_received,
            0,
            "{name}: receive credit reversed"
        );
        assert_eq!(
            net.stats(0).bytes_sent,
            4,
            "{name}: sender keeps paying for wire bytes"
        );
    });
}

#[test]
fn purge_link_respects_the_round_filter() {
    each_backend(|name, net| {
        net.send(stamped(&*net, 0, 1, vec![3; 2], 0, 3));
        net.send(stamped(&*net, 0, 1, vec![4; 2], 0, 4));
        net.send(stamped(&*net, 2, 1, vec![9], 0, 3)); // other edge survives
        let report = net.purge(PurgeScope::Link {
            from: 0,
            to: 1,
            sent_round: Some(3),
        });
        assert_eq!(report.messages, 1, "{name}: only round 3 on the edge");
        assert_eq!(report.bytes, 2, "{name}");
        let survivors = net.drain(1, SimTime::MAX, None).envelopes;
        let tags: Vec<(u32, u32)> = survivors.iter().map(|e| (e.from, e.sent_round)).collect();
        assert!(tags.contains(&(0, 4)), "{name}: other round survives");
        assert!(tags.contains(&(2, 3)), "{name}: other edge survives");
        assert_eq!(tags.len(), 2, "{name}");
    });
}

#[test]
fn tracing_is_observational_and_sees_every_send() {
    each_backend(|name, mut net| {
        let probe = MemorySink::new();
        let mut tracer = Tracer::from_config(&TraceConfig::default()).expect("default tracer");
        tracer.push_sink(Box::new(probe.clone()));
        net.set_tracer(Arc::new(tracer));

        net.send(stamped(&*net, 0, 1, vec![1, 2], 0, 5));
        net.send(stamped(&*net, 2, 1, vec![3], 0, 5));
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
        assert_eq!(sends, vec![(0, 1, 2), (2, 1, 1)], "{name}");
        // Observational: delivery and accounting are unchanged.
        assert_eq!(
            net.drain(1, SimTime::MAX, None).envelopes.len(),
            2,
            "{name}"
        );
        assert_eq!(net.total_stats().bytes_sent, 3, "{name}");
    });
}
