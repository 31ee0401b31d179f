//! PowerGossip (Vogels et al., NeurIPS 2020) — per-edge low-rank
//! compression (extension).
//!
//! The paper names PowerGossip as "another strong communication-efficient
//! algorithm for DL, but it performs as good as tuned CHOCO in their
//! experiments. Hence, we only compare against CHOCO here" (§IV-B-c). This
//! module implements it anyway, so the benchmark suite can check that claim
//! instead of citing it: PowerGossip needs no step-size hyperparameter
//! (CHOCO's γ), which is exactly the property JWINS advertises for itself.
//!
//! For every edge `{i, j}` the algorithm approximates the *pairwise model
//! difference* `D = X_low − X_high` (endpoints ordered canonically) by
//! low-rank power iteration without either side ever materializing `D`:
//! multiplying `D` by a vector only needs `X_i v` and `X_j v`, one locally
//! computed vector from each endpoint. Both endpoints then apply the
//! antisymmetric gossip update
//!
//! ```text
//! x_low  ← x_low  − w_ij · P̂ ΔQᵀ
//! x_high ← x_high + w_ij · P̂ ΔQᵀ
//! ```
//!
//! which preserves the cluster-wide parameter mean exactly, like any doubly
//! stochastic gossip step.
//!
//! **Matricization matters.** The original PowerGossip factorizes *each
//! layer's* natural weight matrix (conv banks as `[out, in·k·k]`, linear as
//! `[out, in]`, biases as columns a rank-1 factor captures exactly), because
//! SGD updates of those matrices are near-low-rank — a property a global
//! near-square reshape of the flat vector destroys. [`MatrixLayout`] exposes
//! both: [`MatrixLayout::Segments`] (the faithful per-layer design, fed from
//! `param_segments()` in `jwins-nn`) and [`MatrixLayout::GlobalSquare`]
//! (the strawman, kept for the ablation).
//!
//! **Round-versioned handshakes (asynchronous transport).** The warm start
//! is only meaningful while both endpoints hold bitwise-identical edge
//! state, which lockstep rounds guarantee but asynchronous gossip, message
//! expiry, churn and topology repair do not. Every edge therefore carries a
//! *handshake chain*: a running hash commitment to the sequence of rounds
//! the edge has successfully paired, starting from the deterministic fresh
//! planes both endpoints re-derive from the shared seed. Outbound messages
//! are stamped with the chain they were computed from; equal stamps imply
//! bitwise-identical edge state on both sides (a plain round or version
//! counter would not — two endpoints can reach the same *count* through
//! different pairing sequences under asymmetric loss). Each node keeps a
//! bounded round-keyed history ([`HISTORY_WINDOW`]) of its own outbound
//! halves plus a stash of early-arrived peer halves, so a half-handshake
//! that is merely *late* (or early, from a fast neighbour) still pairs with
//! the matching round's state. Anything that cannot pair — a chain
//! mismatch, a half that expired out of the window, a half for a
//! crash-skipped round — falls back to the fresh planes instead of
//! corrupting the warm start; the peer's own mismatch detection resets its
//! side within a round or two, after which the edge re-pairs from fresh.
//! One lost half-handshake thus costs a couple of warm-started rounds,
//! never factor-state correctness. Paired updates apply with the
//! *undecayed* edge weight ([`ReceivedMessage::edge_weight`]) so both
//! endpoints scale the antisymmetric update identically even when a
//! staleness policy down-weights one direction; under static topologies
//! this keeps the exact pairwise cancellation (and with it the parameter
//! mean), while dynamic or mid-round-repaired graphs can still price the
//! same edge differently at the two endpoints — a bounded perturbation of
//! the mean, of the same class as a lost broadcast message.
//!
//! Adaptation to the bulk-synchronous engine: the power iteration is
//! *pipelined* across rounds. A round-`t` message carries `P = M Q` for the
//! query matrix `Q` warm-started in round `t−1`, together with `Q' = Mᵀ P̂`
//! for the left factor `P̂` orthonormalized in round `t−1`, so from the
//! second round onward every round applies one low-rank update per edge.

use crate::strategy::{OutMessage, Outbound, PairingStats, ReceivedMessage, ShareStrategy};
use crate::{JwinsError, Result};
use jwins_net::ByteBreakdown;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{HashMap, VecDeque};

/// How many rounds of per-edge handshake history are retained: own outbound
/// halves older than this can no longer pair and expire (falling back to
/// fresh planes), and peer halves from further ahead than this are treated
/// as divergence rather than stashed. Bounds both the warm-start tolerance
/// for late replies and the per-edge memory.
pub const HISTORY_WINDOW: usize = 4;

/// Diagnostic pairing counter of a fresh (never-paired-since-reset) edge
/// state — see [`PowerGossip::edge_version`].
pub const FRESH_VERSION: u64 = 0;

/// Handshake-chain stamp of a fresh edge state. Both endpoints derive
/// identical fresh planes from the shared seed, so two fresh states always
/// pair.
const FRESH_CHAIN: u64 = 0;

/// How the flat parameter vector is viewed as matrices for factorization.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MatrixLayout {
    /// One zero-padded near-square matrix over the whole vector. Cheap to
    /// set up but discards the per-layer low-rank structure; kept as the
    /// ablation arm.
    GlobalSquare,
    /// One matrix per parameter block, `(rows, cols)` in flat order with
    /// products summing to the model dimension — the original PowerGossip
    /// design. Column blocks (`cols == 1`, e.g. biases) are represented
    /// exactly by rank 1.
    Segments(Vec<(usize, usize)>),
}

/// PowerGossip configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PowerGossipConfig {
    /// Target rank per matrix (clamped per segment to `min(rows, cols)`;
    /// the PowerGossip paper defaults to 1 or 2).
    pub rank: usize,
    /// Matricization of the flat parameter vector.
    pub layout: MatrixLayout,
}

impl PowerGossipConfig {
    /// Per-layer factorization at `rank` — the faithful configuration.
    /// `segments` come from the model (e.g. `ImageClassifier::param_segments`).
    pub fn per_layer(rank: usize, segments: Vec<(usize, usize)>) -> Self {
        Self {
            rank,
            layout: MatrixLayout::Segments(segments),
        }
    }

    /// Single global near-square matrix at `rank` (the ablation arm).
    pub fn global(rank: usize) -> Self {
        Self {
            rank,
            layout: MatrixLayout::GlobalSquare,
        }
    }
}

impl Default for PowerGossipConfig {
    fn default() -> Self {
        Self::global(1)
    }
}

/// One matrix view over the flat vector.
#[derive(Debug, Clone, Copy)]
struct Seg {
    offset: usize,
    rows: usize,
    cols: usize,
    /// Effective rank: `min(config.rank, rows, cols)`.
    rank: usize,
    /// Real parameters in this segment (`< rows*cols` only for the padded
    /// global layout).
    len: usize,
}

impl Seg {
    fn p_len(&self) -> usize {
        self.rows * self.rank
    }

    fn q_len(&self) -> usize {
        self.cols * self.rank
    }

    /// Copies this segment out of the flat vector, zero-padding the tail.
    fn extract(&self, flat: &[f32]) -> Vec<f32> {
        let mut m = vec![0.0f32; self.rows * self.cols];
        m[..self.len].copy_from_slice(&flat[self.offset..self.offset + self.len]);
        m
    }

    /// Writes the (possibly padded) matrix back into the flat vector.
    fn write_back(&self, flat: &mut [f32], m: &[f32]) {
        flat[self.offset..self.offset + self.len].copy_from_slice(&m[..self.len]);
    }
}

/// Per-edge power-iteration state, kept bitwise-identical on both endpoints
/// whenever their handshake chains match.
#[derive(Debug, Clone)]
struct EdgeState {
    /// Query planes `Q_s` per segment (`cols_s × rank_s`, plane-major).
    q: Vec<Vec<f32>>,
    /// Orthonormal left factors `P̂_s` from the previous round (possibly
    /// all-zero planes where the difference vanished).
    p_hat: Option<Vec<Vec<f32>>>,
    /// Diagnostic pairing counter: [`FRESH_VERSION`] for the deterministic
    /// fresh planes, incremented on every successfully paired exchange.
    version: u64,
    /// Handshake-chain commitment: [`FRESH_CHAIN`] for the fresh planes,
    /// advanced by a pure hash of `(chain, paired round)` on every
    /// successful pairing. Equal chains imply bitwise-identical `q`/`p_hat`
    /// on both endpoints — both advanced through the same sequence of
    /// paired exchanges from the same seed-derived fresh planes — so the
    /// chain, stamped on every outbound half, is the protocol's equality
    /// witness. A plain counter would not be: two endpoints can reach the
    /// same *count* through different pairing sequences under asymmetric
    /// loss, which the hash of the round sequence distinguishes.
    chain: u64,
    /// Bounded history of own outbound half-handshakes, oldest first, so a
    /// late peer reply within [`HISTORY_WINDOW`] rounds still pairs.
    slots: VecDeque<EdgeSlot>,
    /// Early-arrived peer halves for rounds this node has not reached yet
    /// (a fast neighbour runs ahead under asynchronous gossip).
    stash: Vec<StashedHalf>,
}

/// One round's own contribution to an edge, kept until it pairs or expires.
#[derive(Debug, Clone)]
struct EdgeSlot {
    round: usize,
    /// Edge-state chain this half was computed from (also the stamp on the
    /// wire message carrying it).
    chain: u64,
    /// `P_s = M_s Q_s` per segment.
    p_own: Vec<Vec<f32>>,
    /// `Q'_s = M_sᵀ P̂_s` per segment, when `P̂` existed.
    q_own: Option<Vec<Vec<f32>>>,
}

/// A decoded peer half that arrived before this node reached its round.
#[derive(Debug, Clone)]
struct StashedHalf {
    round: usize,
    chain: u64,
    p_peer: Vec<Vec<f32>>,
    q_peer: Option<Vec<Vec<f32>>>,
    /// Undecayed edge weight the engine attached at delivery time.
    weight: f64,
}

/// Advances the handshake-chain commitment by one paired exchange at
/// `round` — a pure splitmix64-style hash both endpoints compute
/// identically.
fn chain_advance(chain: u64, round: usize) -> u64 {
    let mut z = chain
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((round as u64 + 1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The PowerGossip sharing strategy (one instance per node).
///
/// Unlike the broadcast strategies, PowerGossip sends a *different* message
/// to every neighbour, so it implements [`ShareStrategy::make_outbound`] and
/// rejects plain [`ShareStrategy::make_message`].
///
/// # Example
///
/// ```
/// use jwins::strategies::{PowerGossip, PowerGossipConfig};
/// use jwins::strategy::{Outbound, ShareStrategy};
///
/// # fn main() -> jwins::Result<()> {
/// // Per-layer matricization: a [16, 25] weight block plus its bias column.
/// let config = PowerGossipConfig::per_layer(2, vec![(16, 25), (16, 1)]);
/// let mut node = PowerGossip::new(config, 0, 42); // node 0, cluster seed 42
/// let params = vec![0.1_f32; 16 * 25 + 16];
/// node.init(&params);
/// let Outbound::PerEdge(messages) = node.make_outbound(0, &params, &[1, 2])? else {
///     unreachable!("power gossip is edge-based");
/// };
/// assert_eq!(messages.len(), 2, "one message per neighbour");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct PowerGossip {
    config: PowerGossipConfig,
    /// This node's id — needed to orient every edge canonically.
    node_id: usize,
    /// Seed all nodes share, so fresh edges start from identical `Q`.
    shared_seed: u64,
    segs: Vec<Seg>,
    edges: HashMap<usize, EdgeState>,
    /// Round of the `make_outbound` awaiting its `aggregate` (protocol
    /// guard; the per-edge halves live in each edge's slot history).
    pending_round: Option<usize>,
    dim: usize,
    /// Pair-vs-fresh-fallback telemetry since the last
    /// [`ShareStrategy::pairing_stats`] drain. Write-only for the algorithm:
    /// incremented at the three handshake outcomes, read by nothing here.
    stats: PairingStats,
}

impl PowerGossip {
    /// Creates a node-local instance. `node_id` must be the node's engine
    /// index and `shared_seed` must be identical across the cluster (it
    /// seeds the per-edge warm-start queries both endpoints must agree on).
    ///
    /// # Panics
    ///
    /// Panics if `rank == 0` or a segment has a zero dimension.
    pub fn new(config: PowerGossipConfig, node_id: usize, shared_seed: u64) -> Self {
        assert!(config.rank >= 1, "rank must be at least 1");
        if let MatrixLayout::Segments(segments) = &config.layout {
            assert!(!segments.is_empty(), "segment layout must be non-empty");
            for &(r, c) in segments {
                assert!(r > 0 && c > 0, "segment dimensions must be positive");
            }
        }
        Self {
            config,
            node_id,
            shared_seed,
            segs: Vec::new(),
            edges: HashMap::new(),
            pending_round: None,
            dim: 0,
            stats: PairingStats::default(),
        }
    }

    /// Diagnostic/test hook: the handshake version of the edge state held
    /// for `peer` (`Some(`[`FRESH_VERSION`]`)` = the deterministic fresh
    /// planes; `None` = no state retained).
    pub fn edge_version(&self, peer: usize) -> Option<u64> {
        self.edges.get(&peer).map(|e| e.version)
    }

    /// Diagnostic/test hook: how many peers currently have retained
    /// per-edge state (warm-start planes, slot history, stash).
    pub fn tracked_edges(&self) -> usize {
        self.edges.len()
    }

    /// The configuration in use.
    pub fn config(&self) -> &PowerGossipConfig {
        &self.config
    }

    /// Returns `(low, high)` for the edge to `peer`.
    fn orient(&self, peer: usize) -> (usize, usize) {
        if self.node_id < peer {
            (self.node_id, peer)
        } else {
            (peer, self.node_id)
        }
    }

    /// Deterministic initial query planes for an edge: both endpoints
    /// derive the same `Q` from `(shared_seed, low, high)`.
    fn fresh_edge(&self, peer: usize) -> EdgeState {
        let (low, high) = self.orient(peer);
        let mut z = self
            .shared_seed
            .wrapping_add((low as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add((high as u64 + 1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let mut rng = ChaCha8Rng::seed_from_u64(z ^ (z >> 31));
        let q = self
            .segs
            .iter()
            .map(|seg| {
                let mut planes = vec![0.0f32; seg.q_len()];
                for v in &mut planes {
                    *v = rng.gen_range(-1.0f32..1.0);
                }
                orthonormalize_planes(&mut planes, seg.cols, seg.rank);
                planes
            })
            .collect();
        EdgeState {
            q,
            p_hat: None,
            version: FRESH_VERSION,
            chain: FRESH_CHAIN,
            slots: VecDeque::new(),
            stash: Vec::new(),
        }
    }

    /// Falls back to the deterministic fresh planes for the edge to `peer`,
    /// discarding warm state, slot history and stash. Both endpoints
    /// re-derive identical fresh state, so a reset edge re-pairs as soon as
    /// the peer's side has reset too.
    fn reset_edge(&mut self, peer: usize) {
        self.stats.fresh_resets += 1;
        let fresh = self.fresh_edge(peer);
        self.edges.insert(peer, fresh);
    }

    /// Routes one decoded peer half for the edge to `peer`: pairs it with
    /// the matching history slot, stashes it for a future round, ignores a
    /// harmless leftover, or falls back to fresh planes on divergence.
    /// `now` is this node's aggregation round, `sent` the peer's stamp.
    #[allow(clippy::too_many_arguments)]
    fn handle_half(
        &mut self,
        peer: usize,
        now: usize,
        sent: usize,
        chain: u64,
        p_peer: Vec<Vec<f32>>,
        q_peer: Option<Vec<Vec<f32>>>,
        weight: f64,
        mats: &mut [Vec<f32>],
    ) {
        if sent > now {
            // The peer runs ahead; park its half until this node reaches
            // that round. Too far ahead (or an overfull stash) means the
            // edge has effectively desynchronized — fall back to fresh.
            let state = self.edges.get_mut(&peer).expect("caller verified edge");
            if sent <= now + HISTORY_WINDOW && state.stash.len() < HISTORY_WINDOW {
                state.stash.push(StashedHalf {
                    round: sent,
                    chain,
                    p_peer,
                    q_peer,
                    weight,
                });
            } else {
                self.reset_edge(peer);
            }
            return;
        }
        let state = &self.edges[&peer];
        match state
            .slots
            .iter()
            .find(|s| s.round == sent)
            .map(|s| s.chain)
        {
            Some(own) if own == chain && state.chain == own => {
                // Both halves of round `sent` derive from the state this
                // edge still holds: a proper pairing.
                self.pair(peer, sent, &p_peer, q_peer.as_deref(), weight, mats);
            }
            Some(own) if own == chain => {
                // Pre-advance leftover: both halves of round `sent` derive
                // from a common state, but a later-arriving older exchange
                // already advanced this edge's chain past it. The exchange
                // is spent — drop its slot (and any older ones, equally
                // pre-advance) so it cannot trigger a false expiry, and
                // move on without resetting: if the peer advanced the same
                // way, the chains still agree; if it advanced differently,
                // the differing stamps reveal it within a round.
                self.stats.ignored += 1;
                let state = self.edges.get_mut(&peer).expect("looked up above");
                while state.slots.front().is_some_and(|s| s.round <= sent) {
                    state.slots.pop_front();
                }
            }
            _ => {
                // Divergence: the peer is on a different handshake chain
                // (one side paired an exchange the other missed, or one
                // side reset). Fall back to the fresh planes; the peer's
                // own detection resets its side when it sees our next
                // stamp.
                self.reset_edge(peer);
            }
        }
    }

    /// Applies one successfully paired exchange on the edge to `peer`: the
    /// antisymmetric low-rank update on `mats`, the warm-started query for
    /// the next exchange, and the chain advance. The caller has verified
    /// that a slot for round `r` exists at the state's current chain.
    fn pair(
        &mut self,
        peer: usize,
        r: usize,
        p_peer: &[Vec<f32>],
        q_peer: Option<&[Vec<f32>]>,
        weight: f64,
        mats: &mut [Vec<f32>],
    ) {
        self.stats.paired += 1;
        let i_am_low = self.orient(peer).0 == self.node_id;
        let segs = &self.segs;
        let state = self.edges.get_mut(&peer).expect("caller verified edge");
        // Consume the paired half and everything older: replies to older
        // halves, if any still arrive, are pre-advance leftovers and are
        // ignored by their stamp.
        let mut paired = None;
        while let Some(front) = state.slots.front() {
            if front.round > r {
                break;
            }
            let slot = state.slots.pop_front().expect("front exists");
            if slot.round == r {
                paired = Some(slot);
            }
        }
        let slot = paired.expect("caller verified slot");
        // Canonical Δ = own_low − own_high, identical on both endpoints.
        let orient = |own: &[f32], theirs: &[f32]| -> Vec<f32> {
            own.iter()
                .zip(theirs)
                .map(|(a, b)| if i_am_low { a - b } else { b - a })
                .collect()
        };
        // Pipelined update: last exchange's P̂ with this exchange's ΔQ'.
        if let (Some(q_own), Some(q_peer), Some(p_hat)) =
            (&slot.q_own, q_peer, state.p_hat.as_ref())
        {
            let sign = if i_am_low { -1.0f64 } else { 1.0 };
            let theta = sign * weight;
            let mut q_next = Vec::with_capacity(segs.len());
            for (((seg, m), (qo, qp)), ph) in segs
                .iter()
                .zip(mats.iter_mut())
                .zip(q_own.iter().zip(q_peer))
                .zip(p_hat)
            {
                let delta_q = orient(qo, qp);
                // x ← x ∓ w · P̂ ΔQᵀ (minus on the low endpoint).
                for k in 0..seg.rank {
                    let p_plane = &ph[k * seg.rows..(k + 1) * seg.rows];
                    let q_plane = &delta_q[k * seg.cols..(k + 1) * seg.cols];
                    for (row_idx, &pv) in p_plane.iter().enumerate() {
                        if pv == 0.0 {
                            continue;
                        }
                        let coeff = theta * f64::from(pv);
                        let row = &mut m[row_idx * seg.cols..(row_idx + 1) * seg.cols];
                        for (cell, &qv) in row.iter_mut().zip(q_plane) {
                            *cell = (f64::from(*cell) + coeff * f64::from(qv)) as f32;
                        }
                    }
                }
                // Warm-start the next query (power iteration).
                let mut next = delta_q;
                orthonormalize_planes(&mut next, seg.cols, seg.rank);
                q_next.push(next);
            }
            // Keep the old query where the difference vanished, so the
            // iteration can restart from a non-degenerate direction.
            for (cur, next) in state.q.iter_mut().zip(q_next) {
                if next.iter().any(|v| *v != 0.0) {
                    *cur = next;
                }
            }
        }
        // New left factors for the next Q' exchange.
        let p_hat_next: Vec<Vec<f32>> = segs
            .iter()
            .zip(slot.p_own.iter().zip(p_peer))
            .map(|(seg, (po, pp))| {
                let mut dp = orient(po, pp);
                orthonormalize_planes(&mut dp, seg.rows, seg.rank);
                dp
            })
            .collect();
        state.p_hat = Some(p_hat_next);
        state.version += 1;
        state.chain = chain_advance(state.chain, r);
    }

    fn message_p_len(&self) -> usize {
        self.segs.iter().map(Seg::p_len).sum()
    }

    fn message_q_len(&self) -> usize {
        self.segs.iter().map(Seg::q_len).sum()
    }

    fn encode(&self, chain: u64, p_own: &[Vec<f32>], q_own: Option<&[Vec<f32>]>) -> OutMessage {
        // Wire: 1 header byte (bit0 = has Q' part), the 8-byte LE handshake
        // chain stamp, then raw LE f32 planes — all segments' P blocks
        // then all segments' Q' blocks.
        let has_q = q_own.is_some();
        let floats = self.message_p_len() + if has_q { self.message_q_len() } else { 0 };
        let mut bytes = Vec::with_capacity(9 + 4 * floats);
        bytes.push(u8::from(has_q));
        bytes.extend_from_slice(&chain.to_le_bytes());
        for block in p_own {
            for &v in block {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
        }
        if let Some(q) = q_own {
            for block in q {
                for &v in block {
                    bytes.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
        let payload = bytes.len() - 9;
        OutMessage::new(
            bytes,
            ByteBreakdown {
                payload,
                metadata: 9,
            },
        )
    }

    #[allow(clippy::type_complexity)]
    fn decode(&self, bytes: &[u8]) -> Result<(u64, Vec<Vec<f32>>, Option<Vec<Vec<f32>>>)> {
        let Some((&header, rest)) = bytes.split_first() else {
            return Err(JwinsError::Protocol("empty power-gossip message"));
        };
        if header > 1 {
            return Err(JwinsError::Protocol("invalid power-gossip header"));
        }
        if rest.len() < 8 {
            return Err(JwinsError::Protocol("power-gossip message length mismatch"));
        }
        let (stamp, body) = rest.split_at(8);
        let chain = u64::from_le_bytes(stamp.try_into().expect("8-byte stamp"));
        let has_q = header == 1;
        let expected = 4 * (self.message_p_len() + if has_q { self.message_q_len() } else { 0 });
        if body.len() != expected {
            return Err(JwinsError::Protocol("power-gossip message length mismatch"));
        }
        let mut cursor = body;
        let mut read_block = |n: usize| -> Vec<f32> {
            let (head, rest) = cursor.split_at(4 * n);
            cursor = rest;
            head.chunks_exact(4)
                .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                .collect()
        };
        let p: Vec<Vec<f32>> = self.segs.iter().map(|s| read_block(s.p_len())).collect();
        let q = has_q.then(|| self.segs.iter().map(|s| read_block(s.q_len())).collect());
        Ok((chain, p, q))
    }
}

/// Computes `P = M Q` for plane-major `Q` (`rank` planes of `cols` each),
/// producing plane-major `P` (`rank` planes of `rows` each).
fn mat_mul_planes(m: &[f32], rows: usize, cols: usize, q: &[f32], rank: usize) -> Vec<f32> {
    debug_assert_eq!(q.len(), cols * rank);
    let mut out = vec![0.0f32; rows * rank];
    for k in 0..rank {
        let q_plane = &q[k * cols..(k + 1) * cols];
        let out_plane = &mut out[k * rows..(k + 1) * rows];
        for (r, o) in out_plane.iter_mut().enumerate() {
            let row = &m[r * cols..(r + 1) * cols];
            let mut acc = 0.0f64;
            for (a, b) in row.iter().zip(q_plane) {
                acc += f64::from(*a) * f64::from(*b);
            }
            *o = acc as f32;
        }
    }
    out
}

/// Computes `Q = Mᵀ P` for plane-major `P`, producing plane-major `Q`.
fn mat_t_mul_planes(m: &[f32], rows: usize, cols: usize, p: &[f32], rank: usize) -> Vec<f32> {
    debug_assert_eq!(p.len(), rows * rank);
    let mut out = vec![0.0f32; cols * rank];
    for k in 0..rank {
        let p_plane = &p[k * rows..(k + 1) * rows];
        let out_plane = &mut out[k * cols..(k + 1) * cols];
        for (r, &pv) in p_plane.iter().enumerate() {
            if pv == 0.0 {
                continue;
            }
            let row = &m[r * cols..(r + 1) * cols];
            for (o, &mv) in out_plane.iter_mut().zip(row) {
                *o += (f64::from(mv) * f64::from(pv)) as f32;
            }
        }
    }
    out
}

/// In-place modified Gram–Schmidt over `rank` planes of length `n`.
/// Near-zero planes are zeroed (their updates contribute nothing).
fn orthonormalize_planes(planes: &mut [f32], n: usize, rank: usize) {
    debug_assert_eq!(planes.len(), n * rank);
    for k in 0..rank {
        for prev in 0..k {
            let dot: f64 = (0..n)
                .map(|i| f64::from(planes[k * n + i]) * f64::from(planes[prev * n + i]))
                .sum();
            for i in 0..n {
                planes[k * n + i] -= (dot * f64::from(planes[prev * n + i])) as f32;
            }
        }
        let norm: f64 = (0..n)
            .map(|i| f64::from(planes[k * n + i]).powi(2))
            .sum::<f64>()
            .sqrt();
        if norm < 1e-12 {
            planes[k * n..(k + 1) * n].fill(0.0);
        } else {
            for i in 0..n {
                planes[k * n + i] = (f64::from(planes[k * n + i]) / norm) as f32;
            }
        }
    }
}

impl ShareStrategy for PowerGossip {
    /// Drops all state for the edge to `peer`: warm-start planes, slot
    /// history and stash. Called by the engine when the edge is permanently
    /// gone (permanent crash, topology repair); if the edge ever returns it
    /// restarts from the deterministic fresh planes instead of a stale
    /// subspace.
    fn forget_edge(&mut self, peer: usize) {
        self.edges.remove(&peer);
    }

    fn name(&self) -> &'static str {
        match self.config.layout {
            MatrixLayout::GlobalSquare => "power-gossip-global",
            MatrixLayout::Segments(_) => "power-gossip",
        }
    }

    fn init(&mut self, params: &[f32]) {
        self.dim = params.len();
        self.segs = match &self.config.layout {
            MatrixLayout::GlobalSquare => {
                let rows = ((self.dim as f64).sqrt().ceil() as usize).max(1);
                let cols = self.dim.div_ceil(rows).max(1);
                vec![Seg {
                    offset: 0,
                    rows,
                    cols,
                    rank: self.config.rank.min(rows).min(cols),
                    len: self.dim,
                }]
            }
            MatrixLayout::Segments(segments) => {
                let mut offset = 0usize;
                let segs: Vec<Seg> = segments
                    .iter()
                    .map(|&(rows, cols)| {
                        let seg = Seg {
                            offset,
                            rows,
                            cols,
                            rank: self.config.rank.min(rows).min(cols),
                            len: rows * cols,
                        };
                        offset += rows * cols;
                        seg
                    })
                    .collect();
                assert_eq!(
                    offset, self.dim,
                    "segment layout covers {offset} parameters but the model has {}",
                    self.dim
                );
                segs
            }
        };
        self.edges.clear();
        self.pending_round = None;
    }

    fn make_message(&mut self, _round: usize, _params: &[f32]) -> Result<OutMessage> {
        Err(JwinsError::Protocol(
            "power gossip is edge-based; the engine must call make_outbound",
        ))
    }

    fn make_outbound(
        &mut self,
        round: usize,
        params: &[f32],
        neighbors: &[usize],
    ) -> Result<Outbound> {
        if self.dim == 0 {
            return Err(JwinsError::Protocol("init was not called"));
        }
        match self.pending_round {
            Some(r) if r == round => {
                return Err(JwinsError::Protocol(
                    "make_outbound called twice in a round",
                ));
            }
            Some(_) => {
                // The previous round was abandoned mid-flight: a crash
                // between training and mixing skips that round's aggregate
                // entirely, and a warm rejoin keeps the strategy state.
                // Its outstanding halves stay in the slot history, where
                // they expire or mismatch like any other lost handshake.
                self.pending_round = None;
            }
            None => {}
        }
        let mats: Vec<Vec<f32>> = self.segs.iter().map(|s| s.extract(params)).collect();
        let mut messages = Vec::with_capacity(neighbors.len());
        for &peer in neighbors {
            if !self.edges.contains_key(&peer) {
                let fresh = self.fresh_edge(peer);
                self.edges.insert(peer, fresh);
            }
            // Expired half-handshake: the oldest outstanding half fell out
            // of the history window without ever pairing — its reply was
            // lost, expired, or the peer diverged. Fall back to the fresh
            // planes (the peer's mismatch detection resets its side on the
            // next stamp it sees from us).
            if self.edges[&peer]
                .slots
                .front()
                .is_some_and(|s| s.round + HISTORY_WINDOW <= round)
            {
                self.reset_edge(peer);
            }
            let state = &self.edges[&peer];
            let chain = state.chain;
            let p_own: Vec<Vec<f32>> = self
                .segs
                .iter()
                .zip(&mats)
                .zip(&state.q)
                .map(|((seg, m), q)| mat_mul_planes(m, seg.rows, seg.cols, q, seg.rank))
                .collect();
            let q_own = state.p_hat.as_ref().map(|p_hat| {
                self.segs
                    .iter()
                    .zip(&mats)
                    .zip(p_hat)
                    .map(|((seg, m), ph)| mat_t_mul_planes(m, seg.rows, seg.cols, ph, seg.rank))
                    .collect::<Vec<_>>()
            });
            messages.push(Some(self.encode(chain, &p_own, q_own.as_deref())));
            let state = self.edges.get_mut(&peer).expect("inserted above");
            state.slots.push_back(EdgeSlot {
                round,
                chain,
                p_own,
                q_own,
            });
        }
        self.pending_round = Some(round);
        Ok(Outbound::PerEdge(messages))
    }

    fn aggregate(
        &mut self,
        round: usize,
        params: &[f32],
        _self_weight: f64,
        received: &[ReceivedMessage<'_>],
    ) -> Result<Vec<f32>> {
        let pending = self
            .pending_round
            .take()
            .ok_or(JwinsError::Protocol("aggregate before make_outbound"))?;
        if pending != round {
            return Err(JwinsError::Protocol("round number mismatch"));
        }
        let mut flat = params.to_vec();
        let mut mats: Vec<Vec<f32>> = self.segs.iter().map(|s| s.extract(params)).collect();
        // Stashed peer halves that have come due (they arrived while this
        // node was on an earlier round), in peer order for determinism and
        // ahead of the freshly drained messages, mirroring their earlier
        // arrival. A half for a round this node skipped entirely (crash-
        // abandoned) can never complete its handshake and resets the edge.
        let mut due: Vec<usize> = self
            .edges
            .iter()
            .filter(|(_, s)| s.stash.iter().any(|h| h.round <= round))
            .map(|(&p, _)| p)
            .collect();
        due.sort_unstable();
        for peer in due {
            let state = self.edges.get_mut(&peer).expect("listed above");
            let stash = std::mem::take(&mut state.stash);
            let (mut ready, keep): (Vec<_>, Vec<_>) =
                stash.into_iter().partition(|h| h.round <= round);
            state.stash = keep;
            ready.sort_by_key(|h| h.round);
            for h in ready {
                if h.round < round {
                    self.reset_edge(peer);
                } else {
                    self.handle_half(
                        peer, round, h.round, h.chain, h.p_peer, h.q_peer, h.weight, &mut mats,
                    );
                }
            }
        }
        for msg in received {
            let (chain, p_peer, q_peer) = self.decode(msg.bytes)?;
            if !self.edges.contains_key(&msg.from) {
                // A neighbour this node never addressed (e.g. a freshly
                // repair-added edge whose first outbound half is still ours
                // to send): no own half exists to pair with. The edge
                // starts fresh at our next outbound.
                continue;
            }
            // Pair with the *undecayed* edge weight: the antisymmetric
            // update must apply with the same magnitude on both endpoints,
            // and a one-sided staleness decay factor would break the
            // cancellation and bias the parameter mean.
            self.handle_half(
                msg.from,
                round,
                msg.round,
                chain,
                p_peer,
                q_peer,
                msg.edge_weight,
                &mut mats,
            );
        }
        for (seg, m) in self.segs.iter().zip(&mats) {
            seg.write_back(&mut flat, m);
        }
        Ok(flat)
    }

    fn last_alpha(&self) -> f64 {
        // Per-edge fraction of the model actually moved per round.
        (self.message_p_len() + self.message_q_len()) as f64 / self.dim.max(1) as f64
    }

    fn state_bytes(&self) -> usize {
        let planes = |blocks: &[Vec<f32>]| blocks.iter().map(Vec::len).sum::<usize>();
        self.edges
            .values()
            .map(|e| {
                let mut floats = planes(&e.q) + e.p_hat.as_deref().map_or(0, planes);
                for slot in &e.slots {
                    floats += planes(&slot.p_own) + slot.q_own.as_deref().map_or(0, planes);
                }
                for half in &e.stash {
                    floats += planes(&half.p_peer) + half.q_peer.as_deref().map_or(0, planes);
                }
                // Version + chain bookkeeping per edge.
                floats * std::mem::size_of::<f32>() + 2 * std::mem::size_of::<u64>()
            })
            .sum()
    }

    fn pairing_stats(&mut self) -> Option<PairingStats> {
        let stats = std::mem::take(&mut self.stats);
        stats.any().then_some(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair_with(
        config: PowerGossipConfig,
        dim: usize,
    ) -> (PowerGossip, PowerGossip, Vec<f32>, Vec<f32>) {
        let mut a = PowerGossip::new(config.clone(), 0, 99);
        let mut b = PowerGossip::new(config, 1, 99);
        let xa: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.13).sin()).collect();
        let xb: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.13).cos()).collect();
        a.init(&xa);
        b.init(&xb);
        (a, b, xa, xb)
    }

    fn pair(dim: usize, rank: usize) -> (PowerGossip, PowerGossip, Vec<f32>, Vec<f32>) {
        pair_with(PowerGossipConfig::global(rank), dim)
    }

    /// One full exchange between a and b with weight w; returns new params.
    fn exchange(
        a: &mut PowerGossip,
        b: &mut PowerGossip,
        round: usize,
        xa: &[f32],
        xb: &[f32],
        w: f64,
    ) -> (Vec<f32>, Vec<f32>) {
        let out_a = a.make_outbound(round, xa, &[1]).unwrap();
        let out_b = b.make_outbound(round, xb, &[0]).unwrap();
        let msg_a = match out_a {
            Outbound::PerEdge(mut v) => v.remove(0).unwrap(),
            Outbound::Broadcast(_) => panic!("power gossip must be per-edge"),
        };
        let msg_b = match out_b {
            Outbound::PerEdge(mut v) => v.remove(0).unwrap(),
            Outbound::Broadcast(_) => panic!("power gossip must be per-edge"),
        };
        let xa2 = a
            .aggregate(
                round,
                xa,
                1.0 - w,
                &[ReceivedMessage {
                    from: 1,
                    round,
                    weight: w,
                    edge_weight: w,
                    bytes: &msg_b.bytes,
                    decoded: None,
                }],
            )
            .unwrap();
        let xb2 = b
            .aggregate(
                round,
                xb,
                1.0 - w,
                &[ReceivedMessage {
                    from: 0,
                    round,
                    weight: w,
                    edge_weight: w,
                    bytes: &msg_a.bytes,
                    decoded: None,
                }],
            )
            .unwrap();
        (xa2, xb2)
    }

    fn max_gap(xa: &[f32], xb: &[f32]) -> f32 {
        xa.iter()
            .zip(xb)
            .map(|(p, q)| (p - q).abs())
            .fold(0.0, f32::max)
    }

    #[test]
    fn pure_gossip_contracts_to_consensus() {
        let (mut a, mut b, mut xa, mut xb) = pair(100, 1);
        let initial = max_gap(&xa, &xb);
        for round in 0..120 {
            let (na, nb) = exchange(&mut a, &mut b, round, &xa, &xb, 0.5);
            xa = na;
            xb = nb;
        }
        let gap = max_gap(&xa, &xb);
        assert!(gap < initial * 0.05, "no contraction: {gap} vs {initial}");
    }

    #[test]
    fn rank_two_contracts_faster() {
        let run = |rank: usize| {
            let (mut a, mut b, mut xa, mut xb) = pair(144, rank);
            for round in 0..40 {
                let (na, nb) = exchange(&mut a, &mut b, round, &xa, &xb, 0.5);
                xa = na;
                xb = nb;
            }
            xa.iter()
                .zip(&xb)
                .map(|(p, q)| f64::from(p - q).powi(2))
                .sum::<f64>()
                .sqrt()
        };
        let g1 = run(1);
        let g2 = run(2);
        assert!(g2 < g1, "rank-2 gap {g2} not below rank-1 gap {g1}");
    }

    #[test]
    fn per_layer_layout_contracts_faster_than_global() {
        // A "model" of two 12×12 blocks whose difference is exactly rank-1
        // per block: the per-layer factorization removes it in a handful of
        // rounds, while the global reshape mixes the blocks and cannot.
        let segments = vec![(12, 12), (12, 12)];
        let dim = 288;
        let base: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.05).sin()).collect();
        let mut delta = vec![0.0f32; dim];
        for blk in 0..2 {
            for r in 0..12 {
                for c in 0..12 {
                    // Outer product u vᵀ per block.
                    delta[blk * 144 + r * 12 + c] =
                        ((r + 1) as f32 * 0.1) * ((c as f32 * 0.4 + blk as f32).cos());
                }
            }
        }
        let xb_init: Vec<f32> = base.iter().zip(&delta).map(|(a, d)| a + d).collect();
        let run = |config: PowerGossipConfig| {
            let mut a = PowerGossip::new(config.clone(), 0, 7);
            let mut b = PowerGossip::new(config, 1, 7);
            let mut xa = base.clone();
            let mut xb = xb_init.clone();
            a.init(&xa);
            b.init(&xb);
            for round in 0..8 {
                let (na, nb) = exchange(&mut a, &mut b, round, &xa, &xb, 0.5);
                xa = na;
                xb = nb;
            }
            max_gap(&xa, &xb)
        };
        let per_layer = run(PowerGossipConfig::per_layer(1, segments));
        let global = run(PowerGossipConfig::global(1));
        assert!(
            per_layer < global * 0.2,
            "per-layer {per_layer} not much better than global {global}"
        );
    }

    #[test]
    fn column_segments_are_exact_at_rank_one() {
        // Bias-like [len, 1] blocks: rank-1 represents the difference
        // exactly, so two nodes agree after the first pipelined update.
        let config = PowerGossipConfig::per_layer(1, vec![(10, 1), (6, 1)]);
        let (mut a, mut b, mut xa, mut xb) = pair_with(config, 16);
        for round in 0..4 {
            let (na, nb) = exchange(&mut a, &mut b, round, &xa, &xb, 0.5);
            xa = na;
            xb = nb;
        }
        assert!(max_gap(&xa, &xb) < 1e-5, "gap {}", max_gap(&xa, &xb));
    }

    #[test]
    fn updates_preserve_parameter_mean() {
        let (mut a, mut b, mut xa, mut xb) = pair(60, 1);
        let mean0: Vec<f64> = xa
            .iter()
            .zip(&xb)
            .map(|(p, q)| (f64::from(*p) + f64::from(*q)) / 2.0)
            .collect();
        for round in 0..30 {
            let (na, nb) = exchange(&mut a, &mut b, round, &xa, &xb, 0.5);
            xa = na;
            xb = nb;
        }
        for ((p, q), m0) in xa.iter().zip(&xb).zip(&mean0) {
            let m = (f64::from(*p) + f64::from(*q)) / 2.0;
            assert!((m - m0).abs() < 1e-3, "mean drifted: {m} vs {m0}");
        }
    }

    #[test]
    fn message_bytes_scale_with_rank_and_dims() {
        let (mut a, _, xa, _) = pair(400, 1); // 20x20 matrix
        let out = a.make_outbound(0, &xa, &[1]).unwrap();
        let Outbound::PerEdge(msgs) = out else {
            panic!()
        };
        let msg = msgs[0].as_ref().unwrap();
        // Round 0 has no Q' part: 1 header + 8 version + 20 rows × 4 bytes.
        assert_eq!(msg.bytes.len(), 9 + 20 * 4);
        let xa2 = a.aggregate(0, &xa, 0.5, &[]).unwrap();
        assert_eq!(xa2, xa, "no neighbours, no change");
    }

    #[test]
    fn endpoints_stay_in_sync_through_missing_rounds() {
        // Round 1 is skipped on both sides (churn): edge state must remain
        // consistent and later rounds must still contract.
        let (mut a, mut b, mut xa, mut xb) = pair(81, 1);
        let (na, nb) = exchange(&mut a, &mut b, 0, &xa, &xb, 0.5);
        xa = na;
        xb = nb;
        // Round 1: both endpoints are "inactive" — no calls at all.
        for round in 2..80 {
            let (na, nb) = exchange(&mut a, &mut b, round, &xa, &xb, 0.5);
            xa = na;
            xb = nb;
        }
        assert!(max_gap(&xa, &xb) < 0.05, "gap {}", max_gap(&xa, &xb));
    }

    #[test]
    fn identical_models_produce_no_update() {
        let config = PowerGossipConfig::default();
        let mut a = PowerGossip::new(config.clone(), 0, 5);
        let mut b = PowerGossip::new(config, 1, 5);
        let x: Vec<f32> = (0..49).map(|i| i as f32 * 0.01).collect();
        a.init(&x);
        b.init(&x);
        let mut xa = x.clone();
        let mut xb = x.clone();
        for round in 0..5 {
            let (na, nb) = exchange(&mut a, &mut b, round, &xa, &xb, 0.5);
            xa = na;
            xb = nb;
        }
        for (v, orig) in xa.iter().zip(&x) {
            assert!((v - orig).abs() < 1e-6, "{v} vs {orig}");
        }
        assert_eq!(xa, xb);
    }

    #[test]
    fn protocol_violations_are_errors() {
        let (mut a, _, xa, _) = pair(36, 1);
        assert!(a.aggregate(0, &xa, 1.0, &[]).is_err(), "aggregate first");
        assert!(a.make_message(0, &xa).is_err(), "broadcast path rejected");
        let _ = a.make_outbound(0, &xa, &[1]).unwrap();
        assert!(
            a.make_outbound(0, &xa, &[1]).is_err(),
            "double make_outbound"
        );
        let mut fresh = PowerGossip::new(PowerGossipConfig::default(), 0, 1);
        assert!(fresh.make_outbound(0, &xa, &[1]).is_err(), "missing init");
    }

    #[test]
    fn abandoned_round_does_not_poison_the_next_make_outbound() {
        // A crash between training and mixing skips the round's aggregate
        // entirely, and a warm rejoin keeps the strategy state: the next
        // round must open cleanly, with the stale half treated as an
        // abandoned handshake — while a true double call stays an error.
        let (mut a, _, xa, _) = pair(36, 1);
        let _ = a.make_outbound(0, &xa, &[1]).unwrap();
        // No aggregate(0): the round was crash-abandoned.
        let _ = a
            .make_outbound(1, &xa, &[1])
            .expect("abandoned round must not block the next one");
        assert!(
            a.make_outbound(1, &xa, &[1]).is_err(),
            "a genuine double make_outbound is still a protocol violation"
        );
        let xa2 = a.aggregate(1, &xa, 1.0, &[]).unwrap();
        assert_eq!(xa2, xa);
    }

    #[test]
    #[should_panic(expected = "segment layout covers")]
    fn mismatched_segment_layout_panics_at_init() {
        let mut s = PowerGossip::new(PowerGossipConfig::per_layer(1, vec![(4, 4)]), 0, 1);
        s.init(&[0.0; 20]);
    }

    #[test]
    fn corrupt_messages_rejected() {
        let (mut a, mut b, xa, xb) = pair(36, 1);
        let _ = a.make_outbound(0, &xa, &[1]).unwrap();
        let bad_header = [7u8, 0, 0, 0];
        assert!(a
            .aggregate(
                0,
                &xa,
                1.0,
                &[ReceivedMessage {
                    from: 1,
                    round: 0,
                    weight: 0.5,
                    edge_weight: 0.5,
                    bytes: &bad_header,
                    decoded: None
                }]
            )
            .is_err());
        let _ = a.make_outbound(1, &xa, &[1]).unwrap();
        let truncated = [0u8, 1, 2];
        assert!(a
            .aggregate(
                1,
                &xa,
                1.0,
                &[ReceivedMessage {
                    from: 1,
                    round: 1,
                    weight: 0.5,
                    edge_weight: 0.5,
                    bytes: &truncated,
                    decoded: None
                }]
            )
            .is_err());
        // A *well-formed* message from a peer we never addressed is not an
        // error under asynchronous delivery (repair can add edges whose
        // first inbound half precedes our first outbound); it is ignored
        // and pairs once both sides have sent.
        let Outbound::PerEdge(msgs) = b.make_outbound(0, &xb, &[0]).unwrap() else {
            panic!("per-edge");
        };
        let from_b = msgs.into_iter().next().unwrap().unwrap();
        let mut c = PowerGossip::new(PowerGossipConfig::global(1), 0, 99);
        c.init(&xa);
        let _ = c.make_outbound(0, &xa, &[2]).unwrap();
        let xc = c
            .aggregate(
                0,
                &xa,
                1.0,
                &[ReceivedMessage {
                    from: 1,
                    round: 0,
                    weight: 0.5,
                    edge_weight: 0.5,
                    bytes: &from_b.bytes,
                    decoded: None,
                }],
            )
            .expect("unaddressed peer's message is ignored, not an error");
        assert_eq!(xc, xa, "ignored half must not move parameters");
        assert_eq!(c.edge_version(1), None, "no state allocated for it");
    }

    #[test]
    fn non_square_dimension_handled() {
        // 50 params → 8×7 global matrix with 6 padded cells.
        let (mut a, mut b, mut xa, mut xb) = pair(50, 1);
        for round in 0..100 {
            let (na, nb) = exchange(&mut a, &mut b, round, &xa, &xb, 0.5);
            xa = na;
            xb = nb;
        }
        assert!(max_gap(&xa, &xb) < 0.05, "gap {}", max_gap(&xa, &xb));
    }

    #[test]
    fn orthonormalize_produces_orthonormal_planes() {
        let n = 10;
        let mut planes: Vec<f32> = (0..2 * n).map(|i| (i as f32 * 0.7).sin() + 0.3).collect();
        orthonormalize_planes(&mut planes, n, 2);
        let dot = |a: &[f32], b: &[f32]| -> f64 {
            a.iter()
                .zip(b)
                .map(|(x, y)| f64::from(*x) * f64::from(*y))
                .sum()
        };
        let (p0, p1) = planes.split_at(n);
        assert!((dot(p0, p0) - 1.0).abs() < 1e-5);
        assert!((dot(p1, p1) - 1.0).abs() < 1e-5);
        assert!(dot(p0, p1).abs() < 1e-5);
    }

    #[test]
    fn state_bytes_counts_edge_state() {
        let (mut a, mut b, xa, xb) = pair(100, 1);
        assert_eq!(a.state_bytes(), 0);
        let _ = a.make_outbound(0, &xa, &[1, 2, 3]).unwrap();
        // Three edges × (10-col query planes + the outstanding 10-row P
        // half in the slot history) × 4 bytes, plus 16 bytes of version
        // bookkeeping per edge — the pending halves count too, they are
        // held state exactly like the planes.
        assert_eq!(a.state_bytes(), 3 * ((10 + 10) * 4 + 16));
        // Close a's round 0 with no replies: slots stay outstanding and
        // keep counting (the undercount the old accounting had), then a
        // paired exchange at round 1 adds P̂ planes to the total.
        let xa = a.aggregate(0, &xa, 1.0, &[]).unwrap();
        assert_eq!(a.state_bytes(), 3 * ((10 + 10) * 4 + 16));
        let _ = b.make_outbound(0, &xb, &[0]).unwrap();
        let _ = b.aggregate(0, &xb, 1.0, &[]).unwrap();
        let (_, _) = exchange(&mut a, &mut b, 1, &xa, &xb, 0.5);
        // Edge 1 paired (q 10 + p_hat 10, slots consumed); edges 2 and 3
        // still hold q 10 + their unpaired round-0 slot of 10 floats.
        assert_eq!(a.state_bytes(), 3 * ((10 + 10) * 4 + 16));
        assert_eq!(a.edge_version(1), Some(1), "edge 1 advanced");
        assert_eq!(a.edge_version(2), Some(0), "edge 2 still fresh");
    }

    /// One round's messages on both sides, for manual delivery control.
    fn halves(
        a: &mut PowerGossip,
        b: &mut PowerGossip,
        round: usize,
        xa: &[f32],
        xb: &[f32],
    ) -> (OutMessage, OutMessage) {
        let Outbound::PerEdge(mut va) = a.make_outbound(round, xa, &[1]).unwrap() else {
            panic!("per-edge")
        };
        let Outbound::PerEdge(mut vb) = b.make_outbound(round, xb, &[0]).unwrap() else {
            panic!("per-edge")
        };
        (va.remove(0).unwrap(), vb.remove(0).unwrap())
    }

    fn deliver(
        node: &mut PowerGossip,
        round: usize,
        params: &[f32],
        from: usize,
        sent_round: usize,
        msg: Option<&OutMessage>,
    ) -> Vec<f32> {
        let received: Vec<ReceivedMessage<'_>> = msg
            .iter()
            .map(|m| ReceivedMessage {
                from,
                round: sent_round,
                weight: 0.5,
                edge_weight: 0.5,
                bytes: &m.bytes,
                decoded: None,
            })
            .collect();
        node.aggregate(round, params, 0.5, &received).unwrap()
    }

    #[test]
    fn late_reply_within_window_still_pairs() {
        // b's round-0 half reaches a only during a's round 1 (and vice
        // versa): both sides pair against their retained round-0 slots and
        // the chain advances without a reset.
        let (mut a, mut b, mut xa, mut xb) = pair(49, 1);
        let (m_a0, m_b0) = halves(&mut a, &mut b, 0, &xa, &xb);
        // Round 0 aggregates see nothing.
        xa = deliver(&mut a, 0, &xa, 1, 0, None);
        xb = deliver(&mut b, 0, &xb, 0, 0, None);
        // Round 1: the round-0 halves arrive late, stamped round 0.
        let (m_a1, m_b1) = halves(&mut a, &mut b, 1, &xa, &xb);
        xa = deliver(&mut a, 1, &xa, 1, 0, Some(&m_b0));
        xb = deliver(&mut b, 1, &xb, 0, 0, Some(&m_a0));
        assert_eq!(a.edge_version(1), Some(1), "late half paired");
        assert_eq!(b.edge_version(0), Some(1), "late half paired");
        // The round-1 halves (stamped with the pre-advance chain) are
        // pre-advance leftovers: ignored, no reset.
        let (_m_a2, _m_b2) = halves(&mut a, &mut b, 2, &xa, &xb);
        xa = deliver(&mut a, 2, &xa, 1, 1, Some(&m_b1));
        xb = deliver(&mut b, 2, &xb, 0, 1, Some(&m_a1));
        assert_eq!(a.edge_version(1), Some(1), "leftover ignored, not reset");
        assert_eq!(b.edge_version(0), Some(1), "leftover ignored, not reset");
        assert!(xa.iter().chain(&xb).all(|v| v.is_finite()));
    }

    #[test]
    fn expired_half_handshake_falls_back_to_fresh_and_repairs() {
        let (mut a, mut b, mut xa, mut xb) = pair(49, 1);
        // A few clean rounds build a warm chain.
        for round in 0..3 {
            let (na, nb) = exchange(&mut a, &mut b, round, &xa, &xb, 0.5);
            xa = na;
            xb = nb;
        }
        assert_eq!(a.edge_version(1), Some(3));
        // Both directions black out past the window: every outstanding
        // half expires and both sides converge back to the fresh planes.
        for round in 3..3 + HISTORY_WINDOW + 1 {
            let _ = halves(&mut a, &mut b, round, &xa, &xb);
            xa = deliver(&mut a, round, &xa, 1, round, None);
            xb = deliver(&mut b, round, &xb, 0, round, None);
        }
        let r = 3 + HISTORY_WINDOW + 1;
        let _ = halves(&mut a, &mut b, r, &xa, &xb);
        assert_eq!(a.edge_version(1), Some(FRESH_VERSION), "fell back to fresh");
        assert_eq!(b.edge_version(0), Some(FRESH_VERSION), "fell back to fresh");
        xa = deliver(&mut a, r, &xa, 1, r, None);
        xb = deliver(&mut b, r, &xb, 0, r, None);
        // Connectivity returns: fresh states pair again immediately.
        let (na, nb) = exchange(&mut a, &mut b, r + 1, &xa, &xb, 0.5);
        assert_eq!(a.edge_version(1), Some(1), "re-paired from fresh");
        assert_eq!(b.edge_version(0), Some(1), "re-paired from fresh");
        assert!(na.iter().chain(&nb).all(|v| v.is_finite()));
    }

    #[test]
    fn one_sided_loss_diverges_then_both_reset() {
        let (mut a, mut b, mut xa, mut xb) = pair(49, 1);
        let (na, nb) = exchange(&mut a, &mut b, 0, &xa, &xb, 0.5);
        xa = na;
        xb = nb;
        // Round 1: a receives b's half (pairs, v2) but b receives nothing.
        let (_m_a1, m_b1) = halves(&mut a, &mut b, 1, &xa, &xb);
        xa = deliver(&mut a, 1, &xa, 1, 1, Some(&m_b1));
        xb = deliver(&mut b, 1, &xb, 0, 1, None);
        assert_eq!(a.edge_version(1), Some(2));
        assert_eq!(b.edge_version(0), Some(1), "b missed the exchange");
        // Round 2: the mismatched stamps reveal the divergence — each side
        // resets to fresh instead of corrupting its warm start.
        let (m_a2, m_b2) = halves(&mut a, &mut b, 2, &xa, &xb);
        xa = deliver(&mut a, 2, &xa, 1, 2, Some(&m_b2));
        xb = deliver(&mut b, 2, &xb, 0, 2, Some(&m_a2));
        assert_eq!(a.edge_version(1), Some(FRESH_VERSION), "a reset");
        assert_eq!(b.edge_version(0), Some(FRESH_VERSION), "b reset");
        // Round 3: fresh pairs fresh; the edge warms up again.
        let (na, nb) = exchange(&mut a, &mut b, 3, &xa, &xb, 0.5);
        assert_eq!(a.edge_version(1), Some(1));
        assert_eq!(b.edge_version(0), Some(1));
        assert!(na.iter().chain(&nb).all(|v| v.is_finite()));
    }

    #[test]
    fn early_half_from_fast_peer_is_stashed_and_pairs_on_arrival_round() {
        // b runs one round ahead of a. Its round-1 half arrives while a is
        // still aggregating round 0: a stashes it and pairs it at round 1.
        let (mut a, mut b, mut xa, mut xb) = pair(49, 1);
        let (m_a0, m_b0) = halves(&mut a, &mut b, 0, &xa, &xb);
        xb = deliver(&mut b, 0, &xb, 0, 0, Some(&m_a0));
        let Outbound::PerEdge(mut vb) = b.make_outbound(1, &xb, &[0]).unwrap() else {
            panic!("per-edge")
        };
        let m_b1 = vb.remove(0).unwrap();
        // a's round 0 drain holds b's round-0 half *and* b's early round-1
        // half (fast peer): the former pairs, the latter is stashed.
        let recv: Vec<ReceivedMessage<'_>> = vec![
            ReceivedMessage {
                from: 1,
                round: 0,
                weight: 0.5,
                edge_weight: 0.5,
                bytes: &m_b0.bytes,
                decoded: None,
            },
            ReceivedMessage {
                from: 1,
                round: 1,
                weight: 0.5,
                edge_weight: 0.5,
                bytes: &m_b1.bytes,
                decoded: None,
            },
        ];
        xa = a.aggregate(0, &xa, 0.5, &recv).unwrap();
        assert_eq!(a.edge_version(1), Some(1), "round-0 halves paired");
        // a reaches round 1: the stashed half pairs without a new delivery.
        let Outbound::PerEdge(mut va) = a.make_outbound(1, &xa, &[1]).unwrap() else {
            panic!("per-edge")
        };
        let m_a1 = va.remove(0).unwrap();
        xa = a.aggregate(1, &xa, 0.5, &[]).unwrap();
        assert_eq!(
            a.edge_version(1),
            Some(2),
            "stashed half paired at its round"
        );
        // b receives a's round-1 half late and catches up.
        xb = deliver(&mut b, 1, &xb, 0, 1, Some(&m_a1));
        assert_eq!(b.edge_version(0), Some(2));
        assert!(xa.iter().chain(&xb).all(|v| v.is_finite()));
    }

    #[test]
    fn forget_edge_drops_state_and_restarts_fresh() {
        let (mut a, mut b, mut xa, mut xb) = pair(49, 1);
        for round in 0..2 {
            let (na, nb) = exchange(&mut a, &mut b, round, &xa, &xb, 0.5);
            xa = na;
            xb = nb;
        }
        assert_eq!(a.tracked_edges(), 1);
        assert!(a.state_bytes() > 0);
        a.forget_edge(1);
        assert_eq!(a.tracked_edges(), 0);
        assert_eq!(a.state_bytes(), 0, "no state survives a forgotten edge");
        assert_eq!(a.edge_version(1), None);
        // The edge returns: a restarts fresh, b detects the stamp mismatch
        // and resets, and the edge re-pairs clean afterwards.
        let (m_a2, m_b2) = halves(&mut a, &mut b, 2, &xa, &xb);
        xa = deliver(&mut a, 2, &xa, 1, 2, Some(&m_b2));
        xb = deliver(&mut b, 2, &xb, 0, 2, Some(&m_a2));
        assert_eq!(a.edge_version(1), Some(FRESH_VERSION));
        assert_eq!(b.edge_version(0), Some(FRESH_VERSION));
        let (na, nb) = exchange(&mut a, &mut b, 3, &xa, &xb, 0.5);
        assert_eq!(a.edge_version(1), Some(1));
        assert_eq!(b.edge_version(0), Some(1));
        assert!(na.iter().chain(&nb).all(|v| v.is_finite()));
    }
}
