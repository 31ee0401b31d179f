//! The communicate–aggregate interface.
//!
//! JWINS "concerns only the communication stage in DL, and it is independent
//! of the specific aggregation algorithm" (paper §II-A). The engine reflects
//! that separation: after τ local SGD steps it asks the node's
//! [`ShareStrategy`] to produce one broadcast message, delivers messages
//! along the topology, and asks the strategy to fold the received messages
//! into the next round's parameters. Everything an algorithm needs to
//! remember between rounds (accumulated scores, CHOCO's replicas, RNG
//! streams) lives inside its strategy instance — one per node.

use crate::{JwinsError, Result};
use bytes::Bytes;
use jwins_codec::sparse::SparseVecCodec;
use jwins_codec::CodecError;
use jwins_net::ByteBreakdown;
use std::sync::OnceLock;

/// A serialized broadcast message plus its byte composition.
#[derive(Debug, Clone)]
pub struct OutMessage {
    /// The wire image sent to every neighbour.
    pub bytes: Bytes,
    /// Payload vs metadata accounting (must cover every byte).
    pub breakdown: ByteBreakdown,
}

impl OutMessage {
    /// Wraps a buffer with its breakdown. The bytes are copied at their
    /// exact size, so a buffer encoded with room to spare leaves none of
    /// it in the message.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the breakdown does not cover the buffer exactly.
    pub fn new(bytes: Vec<u8>, breakdown: ByteBreakdown) -> Self {
        debug_assert_eq!(
            breakdown.total(),
            bytes.len(),
            "breakdown must cover buffer"
        );
        Self {
            bytes: Bytes::copy_from_slice(&bytes),
            breakdown,
        }
    }
}

/// What a node sends in one round: either one broadcast for all neighbours
/// (JWINS and the paper's baselines) or one message per neighbour
/// (random-model-walk's single random target).
#[derive(Debug, Clone)]
pub enum Outbound {
    /// The same message goes to every neighbour.
    Broadcast(OutMessage),
    /// `messages[k]` goes to `neighbors[k]`; `None` sends nothing on that
    /// edge. Must be as long as the neighbour list it was built from.
    PerEdge(Vec<Option<OutMessage>>),
}

/// A message received from a neighbour, annotated with the mixing weight of
/// the edge it arrived on.
#[derive(Debug, Clone, Copy)]
pub struct ReceivedMessage<'a> {
    /// Sender node id.
    pub from: usize,
    /// The sender's local round when the message was built (the engine
    /// forwards the envelope's round stamp). Under bulk-synchronous
    /// execution this always equals the aggregation round; under
    /// event-driven asynchronous gossip it may lag behind it (a stale
    /// message) or run ahead of it (a fast neighbour's early message).
    /// Random sampling decodes each message at the subset of its own round.
    pub round: usize,
    /// Metropolis–Hastings weight `w_ij` of the edge for this round, with
    /// any staleness down-weighting already applied — the averaging
    /// strategies mix with this.
    pub weight: f64,
    /// Serialized message body.
    pub bytes: &'a [u8],
    /// Where the receivers of one broadcast share its decode (see
    /// [`DecodeSlot`]); `None` makes a receiver decode `bytes` itself.
    /// Every message that carries the same slot carries the same bytes.
    pub decoded: Option<&'a DecodeSlot>,
}

/// A neighbour's message, decoded: the values it carries and the
/// coordinates they belong to. Each averaging strategy decodes a message
/// into one (in the worker's scratch, or from a [`DecodeSlot`]) and folds
/// it into its mix (see `crate::average`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Contribution {
    /// The coordinate of each value, in wire order; `None` when they are
    /// `0..values.len()` — a full-budget share, which carries no index list
    /// on the wire and keeps none here.
    pub indices: Option<Vec<u32>>,
    /// The values, in wire order (one per index when there is a list).
    pub values: Vec<f32>,
}

impl Contribution {
    /// The contribution, borrowed.
    pub fn view(&self) -> ContributionView<'_> {
        ContributionView {
            indices: self.indices.as_deref(),
            values: &self.values,
        }
    }
}

/// A [`Contribution`] borrowed from wherever it was decoded — a worker's
/// pool, a [`DecodeSlot`], a round's shared index subset — which is what
/// `crate::average::partial_average_into` folds.
#[derive(Debug, Clone, Copy)]
pub struct ContributionView<'a> {
    /// As [`Contribution::indices`].
    pub indices: Option<&'a [u32]>,
    /// As [`Contribution::values`].
    pub values: &'a [f32],
}

impl<'a> From<&'a Contribution> for ContributionView<'a> {
    fn from(contribution: &'a Contribution) -> Self {
        contribution.view()
    }
}

/// One sparse broadcast's decode, made by whichever of its receivers gets
/// to it first and read by all of them — the barrier scheduler gives every
/// broadcast one for the length of a round's mix (each of `n` senders was
/// otherwise decoded by every one of its neighbours). JWINS fills it; a
/// strategy that decodes its messages on its own leaves it empty, which
/// costs nothing.
///
/// The slot remembers the [`SparseVecCodec`] that filled it: a receiver
/// configured with another codec finds `None` and decodes on its own, so
/// which receiver came first never shows. A decode error is kept like a
/// result and every receiver reports it.
#[derive(Default)]
pub struct DecodeSlot(OnceLock<(SparseVecCodec, Decoded)>);

/// What a slot holds: a contribution, or why the bytes did not decode.
type Decoded = std::result::Result<Contribution, CodecError>;

impl DecodeSlot {
    /// An empty slot.
    pub fn new() -> Self {
        Self::default()
    }

    /// The decode of this slot's message under `codec`, running `decode`
    /// first if no receiver has; `None` when another codec filled the slot.
    pub fn decode_with(
        &self,
        codec: SparseVecCodec,
        decode: impl FnOnce() -> Decoded,
    ) -> Option<&Decoded> {
        let (filled_by, result) = self.0.get_or_init(|| (codec, decode()));
        (*filled_by == codec).then_some(result)
    }
}

impl std::fmt::Debug for DecodeSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = match self.0.get() {
            None => "empty",
            Some((_, Ok(_))) => "decoded",
            Some((_, Err(_))) => "failed",
        };
        f.debug_tuple("DecodeSlot").field(&state).finish()
    }
}

/// Closes the round `make_message` opened (`pending`) for the `aggregate`
/// of `round`, or says why it cannot.
pub(crate) fn close_round(pending: &mut Option<usize>, round: usize) -> Result<()> {
    match pending.take() {
        None => Err(JwinsError::Protocol("aggregate before make_message")),
        Some(opened) if opened != round => Err(JwinsError::Protocol("round number mismatch")),
        Some(_) => Ok(()),
    }
}

/// Pair-vs-fresh-fallback counters of an edge-stateful strategy (see
/// [`ShareStrategy::pairing_stats`]). No strategy in this crate reports
/// any, and the engine no longer drains them: the type stays only because
/// the repo benchmark's timing decorator names it, and ROADMAP item 4A(k)
/// deletes it with that decorator's next change.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairingStats {
    /// Successfully paired exchanges (warm start preserved).
    pub paired: u64,
    /// Fallbacks to a fresh edge state.
    pub fresh_resets: u64,
    /// Pre-advance leftovers ignored without a reset.
    pub ignored: u64,
}

/// Per-node communication algorithm: produces one broadcast per round and
/// folds in the neighbours' broadcasts.
///
/// Protocol per round `t`: `make_message(t, params)` exactly once, then
/// one mix exactly once — `aggregate(t, params, …)`, or
/// `aggregate_robust`, or the engine's `aggregate_into`, which writes the
/// same result over `params`. `init` is called once before round 0 with
/// the (cluster-identical) initial parameters, and again whenever the
/// node restarts: a `Resync` rejoin, or a crash between its `make_*` and
/// its mix, which must leave no round open.
pub trait ShareStrategy: Send {
    /// Stable name for logs and experiment output.
    fn name(&self) -> &'static str;

    /// Observes the initial parameter vector (dimension, starting point).
    fn init(&mut self, params: &[f32]) {
        let _ = params;
    }

    /// Builds this round's broadcast from the post-local-training parameters.
    ///
    /// # Errors
    ///
    /// Implementations fail on internal protocol violations.
    fn make_message(&mut self, round: usize, params: &[f32]) -> Result<OutMessage>;

    /// Builds this round's outbound traffic given the neighbour list the
    /// engine will deliver to. The default delegates to [`make_message`] and
    /// broadcasts; an edge-based strategy (random model walk) overrides
    /// this instead.
    ///
    /// `neighbors` is sorted and contains only neighbours that will actually
    /// receive (inactive nodes are already filtered out under churn).
    ///
    /// # Errors
    ///
    /// Implementations fail on internal protocol violations.
    ///
    /// [`make_message`]: Self::make_message
    fn make_outbound(
        &mut self,
        round: usize,
        params: &[f32],
        neighbors: &[usize],
    ) -> Result<Outbound> {
        let _ = neighbors;
        Ok(Outbound::Broadcast(self.make_message(round, params)?))
    }

    /// Combines own parameters with the received messages, returning the
    /// parameters that start the next round.
    ///
    /// `self_weight` is `w_ii` for this round's topology.
    ///
    /// # Errors
    ///
    /// Fails on undecodable messages or protocol violations.
    fn aggregate(
        &mut self,
        round: usize,
        params: &[f32],
        self_weight: f64,
        received: &[ReceivedMessage<'_>],
    ) -> Result<Vec<f32>>;

    /// The engine's mix: [`aggregate`] (or, under a robust `rule`,
    /// [`aggregate_robust`]) written over `params` in place — what the
    /// engine calls on a node's arena window, so a strategy that overrides
    /// it needs no fresh vector per mix.
    ///
    /// The default calls the allocating method and copies its result.
    /// Full sharing and random sampling keep it, and full sharing must: its
    /// tile fold can fail after it has written a tile (a bad block, or a
    /// trailing byte its last check meets), so folding into `params` would
    /// break the contract below. JWINS overrides it.
    ///
    /// # Contract
    ///
    /// On `Ok`, `params` is bit for bit the vector [`aggregate`] (or
    /// [`aggregate_robust`]) returns for the same call, and the strategy's
    /// state is what that call leaves. On `Err`, `params` is bit-unchanged
    /// and the error is the one that call returns.
    ///
    /// # Errors
    ///
    /// As [`aggregate`] and [`aggregate_robust`].
    ///
    /// [`aggregate`]: Self::aggregate
    /// [`aggregate_robust`]: Self::aggregate_robust
    fn aggregate_into(
        &mut self,
        round: usize,
        params: &mut [f32],
        self_weight: f64,
        received: &[ReceivedMessage<'_>],
        rule: &jwins_adversary::Robust,
    ) -> Result<()> {
        let mixed = if rule.is_none() {
            self.aggregate(round, params, self_weight, received)?
        } else {
            self.aggregate_robust(round, params, self_weight, received, rule)?
        };
        params.copy_from_slice(&mixed);
        Ok(())
    }

    /// The sharing fraction used in the most recent `make_message`, in
    /// `[0, 1]` (1.0 for full sharing). Drives the Figure-3 plot.
    fn last_alpha(&self) -> f64 {
        1.0
    }

    /// Drops any per-edge state held for `peer`. Inert: the engine no
    /// longer calls it and no strategy in this crate overrides it. It stays
    /// only because the repo benchmark's timing decorator forwards it, and
    /// ROADMAP item 4A(k) deletes it with that decorator's next change.
    fn forget_edge(&mut self, peer: usize) {
        let _ = peer;
    }

    /// Bytes of per-node algorithm state held between rounds (beyond the
    /// model itself). Backs the paper's memory-efficiency claim (§V):
    /// JWINS keeps its accumulation vector, one round buffer and a bit per
    /// coefficient, while CHOCO-style error feedback keeps model replicas.
    fn state_bytes(&self) -> usize {
        0
    }

    /// Takes (and resets) pair-vs-fresh-fallback counters. Inert: the
    /// engine no longer calls it and no strategy in this crate overrides
    /// it. It stays only because the repo benchmark's timing decorator
    /// forwards it, and ROADMAP item 4A(k) deletes it with that decorator's
    /// next change.
    fn pairing_stats(&mut self) -> Option<PairingStats> {
        None
    }

    /// Whether this strategy can aggregate through a robust rule
    /// ([`aggregate_robust`]). True for strategies whose aggregation is a
    /// partial average over decoded neighbor values (full sharing, JWINS,
    /// random sampling — whose one mix takes the rule as an argument); false for algorithms whose update is
    /// not an average the mixing layer can re-order (CHOCO's error-feedback
    /// replicas, random model walk) — `TrainConfig::validate` rejects those
    /// combinations up front.
    ///
    /// [`aggregate_robust`]: Self::aggregate_robust
    fn supports_robust(&self) -> bool {
        false
    }

    /// [`aggregate`] with a robust rule applied to the decoded neighbor
    /// contributions before averaging (see `jwins_adversary::Robust`). The
    /// three averaging strategies implement both as one mix: the same decode
    /// per message into the same fold (`crate::average`), which is the
    /// plain averager under `Robust::None` and the rule otherwise, so the
    /// two differ in nothing but the average — bookkeeping included. What
    /// the rule removed is kept for [`robust_stats`] to drain.
    ///
    /// # Errors
    ///
    /// Fails on undecodable messages, protocol violations, or when the
    /// strategy does not support robust aggregation.
    ///
    /// [`aggregate`]: Self::aggregate
    /// [`robust_stats`]: Self::robust_stats
    fn aggregate_robust(
        &mut self,
        round: usize,
        params: &[f32],
        self_weight: f64,
        received: &[ReceivedMessage<'_>],
        rule: &jwins_adversary::Robust,
    ) -> Result<Vec<f32>> {
        let _ = (round, params, self_weight, received, rule);
        Err(JwinsError::InvalidConfig(format!(
            "strategy '{}' does not support robust aggregation",
            self.name()
        )))
    }

    /// Takes (and resets) what the robust rule removed since the last call,
    /// for run telemetry (`TraceEvent::RobustClip`). The counters are
    /// write-only for the algorithm: the engine may or may not drain them,
    /// and neither choice may change a result.
    fn robust_stats(&mut self) -> Option<jwins_adversary::RobustStats> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_message_wraps_bytes() {
        let m = OutMessage::new(
            vec![1, 2, 3],
            ByteBreakdown {
                payload: 2,
                metadata: 1,
            },
        );
        assert_eq!(&m.bytes[..], &[1, 2, 3]);
        assert_eq!(m.breakdown.total(), 3);
    }

    #[test]
    fn a_slot_decodes_once_and_keeps_its_error_for_every_receiver() {
        let slot = DecodeSlot::new();
        let runs = std::sync::atomic::AtomicUsize::new(0);
        let decode = || {
            runs.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Err(CodecError::Corrupt("not a frame"))
        };
        let codec = SparseVecCodec::default();
        let seen: Vec<_> = std::thread::scope(|scope| {
            let receivers: Vec<_> = (0..2)
                .map(|_| scope.spawn(|| slot.decode_with(codec, decode).cloned()))
                .collect();
            receivers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        let failed = Some(Err(CodecError::Corrupt("not a frame")));
        assert_eq!(seen, vec![failed.clone(), failed]);
        assert_eq!(runs.into_inner(), 1);
        assert_eq!(format!("{slot:?}"), "DecodeSlot(\"failed\")");
        // A receiver with another codec is told to decode the bytes itself.
        use jwins_codec::sparse::{IndexCodec, ValueCodec};
        let other = SparseVecCodec::new(IndexCodec::RawU32, ValueCodec::Block);
        assert!(slot.decode_with(other, || unreachable!()).is_none());
    }

    // The check is a debug_assert, so there is nothing to panic in release
    // builds — where the determinism CI job runs this suite.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "breakdown must cover buffer")]
    fn mismatched_breakdown_panics_in_debug() {
        let _ = OutMessage::new(
            vec![1, 2, 3],
            ByteBreakdown {
                payload: 1,
                metadata: 1,
            },
        );
    }
}
