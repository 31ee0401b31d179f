//! Per-node traffic accounting.

/// The byte composition of one message: model payload vs. sparsification
/// metadata (index lists, seeds, headers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ByteBreakdown {
    /// Bytes carrying parameter/coefficient values.
    pub payload: usize,
    /// Bytes carrying indices, seeds and framing.
    pub metadata: usize,
}

impl ByteBreakdown {
    /// Total bytes.
    pub fn total(&self) -> usize {
        self.payload + self.metadata
    }
}

/// Cumulative counters for one node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// Total bytes sent.
    pub bytes_sent: u64,
    /// Total bytes received.
    pub bytes_received: u64,
    /// Payload component of `bytes_sent`.
    pub payload_sent: u64,
    /// Metadata component of `bytes_sent`.
    pub metadata_sent: u64,
    /// Number of messages sent.
    pub messages_sent: u64,
    /// Messages lost in the network: lossy-link drops plus deliveries
    /// destroyed by node crashes (the connection died mid-transfer or the
    /// receiving host was down).
    pub messages_dropped: u64,
    /// Messages discarded by the staleness policy: TTL expiry at mailbox
    /// drain or an over-cap drop at mix time. Kept separate from
    /// [`Self::messages_dropped`] so staleness losses are distinguishable
    /// from link/host losses.
    pub messages_expired: u64,
}

impl TrafficStats {
    /// Records an outgoing message.
    pub fn record_send(&mut self, breakdown: ByteBreakdown) {
        self.bytes_sent += breakdown.total() as u64;
        self.payload_sent += breakdown.payload as u64;
        self.metadata_sent += breakdown.metadata as u64;
        self.messages_sent += 1;
    }

    /// Records an incoming message.
    pub fn record_receive(&mut self, bytes: usize) {
        self.bytes_received += bytes as u64;
    }

    /// Records a message lost in flight (already counted as sent).
    pub fn record_drop(&mut self) {
        self.messages_dropped += 1;
    }

    /// Records a message destroyed *after* delivery metering (a crash killed
    /// the connection or the receiving host): reverses the receive
    /// accounting and counts the loss as a drop.
    ///
    /// # Panics
    ///
    /// Panics (debug) if more bytes are reversed than were ever received.
    /// Release builds saturate instead: a double-reversal must surface as a
    /// zeroed counter in a bench run, never as a wrapped ~2^64 one.
    pub fn record_kill(&mut self, bytes: usize) {
        debug_assert!(self.bytes_received >= bytes as u64);
        self.bytes_received = self.bytes_received.saturating_sub(bytes as u64);
        self.messages_dropped += 1;
    }

    /// Records `count` messages discarded by the staleness policy (TTL lapse
    /// or over-cap drop). The bytes did arrive, so receive accounting stands.
    pub fn record_expired(&mut self, count: u64) {
        self.messages_expired += count;
    }

    /// Merges counters from another node (for cluster-wide totals).
    pub fn merge(&mut self, other: &TrafficStats) {
        self.bytes_sent += other.bytes_sent;
        self.bytes_received += other.bytes_received;
        self.payload_sent += other.payload_sent;
        self.metadata_sent += other.metadata_sent;
        self.messages_sent += other.messages_sent;
        self.messages_dropped += other.messages_dropped;
        self.messages_expired += other.messages_expired;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_totals() {
        let b = ByteBreakdown {
            payload: 100,
            metadata: 28,
        };
        assert_eq!(b.total(), 128);
    }

    #[test]
    fn expiry_and_kill_accounting() {
        let mut s = TrafficStats::default();
        s.record_receive(10);
        s.record_receive(6);
        s.record_expired(1);
        assert_eq!(s.messages_expired, 1);
        assert_eq!(s.messages_dropped, 0, "expiry is not a network drop");
        assert_eq!(s.bytes_received, 16, "expired bytes did arrive");
        s.record_kill(6);
        assert_eq!(s.messages_dropped, 1);
        assert_eq!(s.bytes_received, 10, "killed bytes never arrived");
        let mut merged = TrafficStats::default();
        merged.merge(&s);
        merged.merge(&s);
        assert_eq!(merged.messages_expired, 2);
        assert_eq!(merged.messages_dropped, 2);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn kill_reversal_saturates_in_release() {
        // A double-reversal (two purges racing over the same accounting in
        // a buggy caller) must zero the counter, not wrap it to ~2^64 and
        // poison every bytes-per-accuracy figure downstream.
        let mut s = TrafficStats::default();
        s.record_receive(4);
        s.record_kill(10);
        assert_eq!(s.bytes_received, 0);
        assert_eq!(s.messages_dropped, 1);
    }

    #[test]
    fn stats_accumulate_and_merge() {
        let mut a = TrafficStats::default();
        a.record_send(ByteBreakdown {
            payload: 10,
            metadata: 2,
        });
        a.record_send(ByteBreakdown {
            payload: 5,
            metadata: 1,
        });
        a.record_receive(7);
        assert_eq!(a.bytes_sent, 18);
        assert_eq!(a.payload_sent, 15);
        assert_eq!(a.metadata_sent, 3);
        assert_eq!(a.messages_sent, 2);
        assert_eq!(a.bytes_received, 7);
        let mut b = TrafficStats::default();
        b.merge(&a);
        b.merge(&a);
        assert_eq!(b.bytes_sent, 36);
        assert_eq!(b.messages_sent, 4);
    }
}
