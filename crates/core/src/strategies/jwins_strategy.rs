//! JWINS: the paper's algorithm (§III, Algorithm 1).
//!
//! Per round `t` on node `i` (the engine does the τ local SGD steps first):
//!
//! 1. `V_i += DWT(x_i^{t,τ} − x_i^{t,0})` — accumulate the local model change
//!    in the wavelet domain (eq. 3);
//! 2. draw α from the randomized cut-off; budget `K = ⌈α·D⌉`;
//! 3. `I_i = TopK(|V_i|, K)`;
//! 4. broadcast `DWT(x_i^{t,τ})[I_i]` plus Elias-gamma-compressed `I_i`;
//! 5. average received coefficients with its own, weight-renormalized per
//!    coefficient, and invert: `x_i^{t+1,0} = DWT⁻¹(x̄)`;
//! 6. `V_i[I_i] = 0`, then `V_i += DWT(x_i^{t+1,0} − x_i^{t,τ})` — the sent
//!    scores reset and the averaging-induced change is accounted for, so
//!    across the round `V` absorbs exactly `DWT(x^{t+1,0} − x^{t,0})` minus
//!    what was shared (eq. 4).
//!
//! The three ablation switches of Figure 8 are part of the configuration:
//! disabling the wavelet turns the transform into the identity (making the
//! strategy plain TopK-with-accumulation), disabling accumulation ranks on
//! the current change only, and disabling the randomized cut-off shares the
//! distribution mean every round.

use crate::average::partial_mix_into;
use crate::cutoff::{AlphaDistribution, CutoffSampler};
use crate::scaling::ScoreScaling;
use crate::scratch::{decode_pool, with_scratch, PooledDecode, ShareScratch};
use crate::sparsify::{budget, gather_into, top_k_into};
use crate::strategy::{close_round, Contribution, OutMessage, ReceivedMessage, ShareStrategy};
use crate::{JwinsError, Result};
use jwins_adversary::{Robust, RobustStats};
use jwins_codec::sparse::{IndexCodec, SparseVecCodec, ValueCodec};
use jwins_codec::CodecError;
use jwins_net::ByteBreakdown;
use jwins_wavelet::{CoeffLayout, Dwt, Wavelet};

const INDEX_OUT_OF_RANGE: JwinsError =
    JwinsError::Protocol("received coefficient index out of range");

/// Configuration of the JWINS strategy, including the Figure-8 ablation
/// switches.
#[derive(Debug, Clone)]
pub struct JwinsConfig {
    /// Wavelet and decomposition depth; `None` disables the transform (the
    /// "without wavelet" ablation — effectively TopK in parameter space).
    pub wavelet: Option<(Wavelet, usize)>,
    /// Accumulate importance across rounds (error feedback). Disabling ranks
    /// on the current round's change only.
    pub accumulation: bool,
    /// Draw α randomly per round; disabling uses E\[α\] every round.
    pub randomized_cutoff: bool,
    /// The cut-off distribution.
    pub alpha: AlphaDistribution,
    /// Index metadata codec (Elias gamma in the paper; raw/varint for the
    /// Figure-9 comparison).
    pub index_codec: IndexCodec,
    /// Value compression (the block-exponent coder stands in for Fpzip).
    pub value_codec: ValueCodec,
    /// Optional per-layer importance scaling applied to the model change
    /// before it enters the scores (the §VI "adaptive importance score"
    /// future-work direction; `None` keeps the paper's unscaled ranking).
    pub score_scaling: Option<ScoreScaling>,
}

impl JwinsConfig {
    /// The paper's configuration: 4-level Symlet-2, accumulation, randomized
    /// cut-off over the default α list, Elias gamma metadata.
    pub fn paper_default() -> Self {
        Self {
            wavelet: Some((Wavelet::sym2(), 4)),
            accumulation: true,
            randomized_cutoff: true,
            alpha: AlphaDistribution::paper_default(),
            index_codec: IndexCodec::EliasGammaDelta,
            value_codec: ValueCodec::Block,
            score_scaling: None,
        }
    }

    /// Paper default plus a per-layer importance scaling (the §VI
    /// "adaptive importance score" extension).
    pub fn with_score_scaling(scaling: ScoreScaling) -> Self {
        Self {
            score_scaling: Some(scaling),
            ..Self::paper_default()
        }
    }

    /// Paper default with a custom α distribution (used by the low-budget
    /// Figure-6 runs).
    pub fn with_alpha(alpha: AlphaDistribution) -> Self {
        Self {
            alpha,
            ..Self::paper_default()
        }
    }

    /// Plain TopK baseline: no wavelet, fixed fraction, with accumulation.
    pub fn topk(fraction: f64) -> Self {
        Self {
            wavelet: None,
            accumulation: true,
            randomized_cutoff: false,
            alpha: AlphaDistribution::Fixed(fraction),
            ..Self::paper_default()
        }
    }

    /// The "without wavelet" ablation of Figure 8.
    pub fn without_wavelet() -> Self {
        Self {
            wavelet: None,
            ..Self::paper_default()
        }
    }

    /// The "without accumulation" ablation of Figure 8.
    pub fn without_accumulation() -> Self {
        Self {
            accumulation: false,
            ..Self::paper_default()
        }
    }

    /// The "without randomized cut-off" ablation of Figure 8.
    pub fn without_random_cutoff() -> Self {
        Self {
            randomized_cutoff: false,
            ..Self::paper_default()
        }
    }
}

/// The coefficient-domain representation: either a real DWT or the identity
/// (ablation). Both directions overwrite a caller-owned `out`; the DWT runs
/// in the caller's `work` buffer.
#[derive(Debug)]
enum Transform {
    /// The layout is planned for the model dimension seen in `init`.
    Wavelet(Dwt, CoeffLayout),
    Identity,
}

impl Transform {
    fn forward_into(&self, params: &[f32], work: &mut Vec<f64>, out: &mut Vec<f32>) {
        match self {
            Transform::Wavelet(dwt, layout) => dwt.forward_into(params, layout, work, out),
            Transform::Identity => {
                out.clear();
                out.extend_from_slice(params);
            }
        }
    }

    fn inverse_into(&self, coeffs: &[f32], work: &mut Vec<f64>, out: &mut Vec<f32>) -> Result<()> {
        match self {
            Transform::Wavelet(dwt, layout) => dwt.inverse_into(coeffs, layout, work, out)?,
            Transform::Identity => {
                out.clear();
                out.extend_from_slice(coeffs);
            }
        }
        Ok(())
    }

    /// Re-plans the layout for a model of `dim` parameters and returns the
    /// number of coefficients it transforms to.
    fn plan(&mut self, dim: usize) -> usize {
        match self {
            Transform::Wavelet(dwt, layout) => {
                *layout = dwt.layout_for(dim);
                layout.coeff_len()
            }
            Transform::Identity => dim,
        }
    }
}

/// Eq. (4)'s score update in one pass: `scores[i] = 0` where `sent` has
/// bit `i` set, then `scores += change`. A sent score's bits are masked to
/// +0.0 before the add, which is the `0.0 + c` the two passes computed, so
/// no bit changes (−0.0 included).
///
/// The mask comes from a 32-bit half of a bitmap word per 32 scores: a
/// 32-bit lane test is one the baseline target vectorises, and a 64-bit
/// one or a per-score branch is not.
fn reset_sent_and_add(scores: &mut [f32], sent: &[u64], change: &[f32]) {
    let absorb = |scores: &mut [f32], change: &[f32], half: u32| {
        for (j, (s, &c)) in scores.iter_mut().zip(change).enumerate() {
            let keep = 0u32.wrapping_sub(u32::from(half & (1 << j) == 0));
            *s = f32::from_bits(s.to_bits() & keep) + c;
        }
    };
    let mut halves = sent
        .iter()
        .flat_map(|&word| [word as u32, (word >> 32) as u32]);
    let (scores, scores_tail) = scores.as_chunks_mut::<32>();
    let (change, change_tail) = change.as_chunks::<32>();
    for ((scores, change), half) in scores.iter_mut().zip(change).zip(&mut halves) {
        absorb(scores, change, half);
    }
    absorb(scores_tail, change_tail, halves.next().unwrap_or(0));
}

/// The JWINS sharing strategy (one instance per node).
///
/// Everything here is state that must survive between calls. The buffers a
/// call only needs while it runs come from the worker's scratch
/// (`crate::scratch`), so a node costs two coefficient-sized vectors plus a
/// bit per coefficient for its last selection, not a workspace of its own.
#[derive(Debug)]
pub struct Jwins {
    config: JwinsConfig,
    transform: Transform,
    codec: SparseVecCodec,
    cutoff: CutoffSampler,
    /// Accumulated importance scores `V_i` (coefficient domain).
    scores: Vec<f32>,
    /// One buffer with two lives, which `pending_round` keeps apart:
    /// - from `init` or `aggregate` to the next `make_message`, `x_i^{t,0}`,
    ///   the parameters at the start of the round, last read at the top of
    ///   `make_message`;
    /// - from there to `aggregate`, `DWT(x_i^{t,τ})`, the node's own
    ///   coefficients, written after that read and last read by the fold,
    ///   before `aggregate` writes `x_i^{t+1,0}` here.
    ///
    /// A failed `make_message` or `aggregate` clears it: the round start is
    /// gone, and `make_message` refuses to run until `init` is called again.
    round_buffer: Vec<f32>,
    /// The round `make_message` built for and `aggregate` has yet to close;
    /// `round_buffer`'s coefficients and `sent` belong to it.
    pending_round: Option<usize>,
    /// One bit per coefficient, set for those shared this round (to reset
    /// in `V`): ⌈n/64⌉ words whatever the budget. TopK selects into it,
    /// and the share's values and index block are read from it.
    sent: Vec<u64>,
    dim: usize,
    last_alpha: f64,
    robust_stats: RobustStats,
}

impl Jwins {
    /// Creates a node-local instance. `seed` drives only this node's cut-off
    /// draws (nodes must use distinct seeds — the paper's cut-off is
    /// independent per node).
    ///
    /// # Panics
    ///
    /// Panics if the α distribution is invalid.
    pub fn new(config: JwinsConfig, seed: u64) -> Self {
        config
            .alpha
            .validate()
            .expect("alpha distribution must be valid");
        let transform = match &config.wavelet {
            Some((wavelet, levels)) => {
                let dwt = Dwt::new(wavelet.clone(), *levels).expect("levels >= 1 by construction");
                let layout = dwt.layout_for(0);
                Transform::Wavelet(dwt, layout)
            }
            None => Transform::Identity,
        };
        let codec = SparseVecCodec::new(config.index_codec, config.value_codec);
        let cutoff = CutoffSampler::new(config.alpha.clone(), seed, config.randomized_cutoff);
        Self {
            config,
            transform,
            codec,
            cutoff,
            scores: Vec::new(),
            round_buffer: Vec::new(),
            pending_round: None,
            sent: Vec::new(),
            dim: 0,
            last_alpha: 0.0,
            robust_stats: RobustStats::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &JwinsConfig {
        &self.config
    }

    /// Read-only view of the accumulated importance scores (for tests and
    /// diagnostics).
    pub fn scores(&self) -> &[f32] {
        &self.scores
    }

    /// Leaves `DWT(scale(delta))` in `scratch.coeffs`: the change both
    /// halves of a round add to the scores (eqs. 3 and 4), rebalanced per
    /// layer when the §VI adaptive-score extension is on. `delta` is the
    /// buffer whose old contents the change was computed in place of.
    fn change_coeffs(&self, scratch: &mut ShareScratch, delta: &mut [f32]) {
        if let Some(scaling) = &self.config.score_scaling {
            scaling.apply(delta);
        }
        (self.transform).forward_into(delta, &mut scratch.work, &mut scratch.coeffs);
    }

    /// Decodes `msg` — from the slot its receivers share when this codec
    /// filled it, else into the next contribution of `spare` — and checks
    /// that every index is one of this node's coefficients. Every index
    /// codec decodes strictly increasing indices or fails, so the last one
    /// vouches for the rest.
    fn decode<'a>(
        &self,
        msg: &ReceivedMessage<'a>,
        spare: &mut std::slice::IterMut<'a, PooledDecode>,
    ) -> Result<&'a Contribution> {
        let codec = self.codec;
        let shared = msg.decoded.and_then(|slot| {
            slot.decode_with(codec, || {
                let (indices, values) = codec.decode_compact(msg.bytes)?;
                Ok(Contribution { indices, values })
            })
        });
        let decoded = match shared {
            Some(shared) => shared.as_ref().map_err(CodecError::clone)?,
            None => {
                let entry = spare.next().expect("a pooled contribution per message");
                let (indices, values) = entry.buffers();
                if codec.decode_compact_into(msg.bytes, indices, values)? {
                    entry.imply_indices();
                }
                &entry.contribution
            }
        };
        let len = self.scores.len();
        let in_range = match &decoded.indices {
            Some(indices) => indices.last().is_none_or(|&i| (i as usize) < len),
            None => decoded.values.len() <= len,
        };
        in_range.then_some(decoded).ok_or(INDEX_OUT_OF_RANGE)
    }

    /// `aggregate_into` under `rule`, in the wavelet domain — a robust rule
    /// screens coefficients where the sharing happens. The whole inbox is
    /// decoded first, in order, so the first message that fails is the
    /// error and `params` is not yet written; then it is mixed a tile at a
    /// time.
    fn mix(
        &mut self,
        round: usize,
        params: &mut [f32],
        self_weight: f64,
        received: &[ReceivedMessage<'_>],
        rule: Robust,
    ) -> Result<()> {
        // Once a round is open the buffer holds coefficients, so whatever
        // fails from here on, the round start is gone.
        let opened = self.pending_round.is_some();
        let mixed = close_round(&mut self.pending_round, round).and_then(|()| {
            with_scratch(|scratch| {
                let mut spare = decode_pool(&mut scratch.decoded, received.len()).iter_mut();
                let parts = (received.iter())
                    .map(|msg| Ok((self.decode(msg, &mut spare)?.view(), msg.weight)))
                    .collect::<Result<Vec<_>>>()?;
                partial_mix_into(
                    &self.round_buffer,
                    self_weight,
                    &parts,
                    rule,
                    &mut scratch.tiles,
                    &mut scratch.coeffs,
                    &mut self.robust_stats,
                );
                self.commit_averaged(scratch, params)
            })
        });
        if mixed.is_err() && opened {
            self.round_buffer.clear();
        }
        mixed
    }

    fn add_to_scores(&mut self, coeffs: &[f32]) {
        for (s, d) in self.scores.iter_mut().zip(coeffs) {
            *s += d;
        }
    }

    /// Inverts the averaged coefficients (`scratch.coeffs`) into the round
    /// buffer — free since the fold read the own coefficients — and applies
    /// the eq-4 bookkeeping against `params`, still `x^{t,τ}`: the
    /// averaging change is made in place of it, its last read, and
    /// absorbed with the sent-score reset (scaled the same way as the
    /// training change, so score units match) in one pass. Then `params`
    /// takes the next round's start, which the buffer keeps.
    fn commit_averaged(&mut self, scratch: &mut ShareScratch, params: &mut [f32]) -> Result<()> {
        self.transform
            .inverse_into(&scratch.coeffs, &mut scratch.work, &mut self.round_buffer)?;
        for (change, &next) in params.iter_mut().zip(&self.round_buffer) {
            *change = next - *change;
        }
        self.change_coeffs(scratch, params);
        reset_sent_and_add(&mut self.scores, &self.sent, &scratch.coeffs);
        params.copy_from_slice(&self.round_buffer);
        Ok(())
    }
}

impl ShareStrategy for Jwins {
    fn name(&self) -> &'static str {
        match (&self.config.wavelet, self.config.accumulation) {
            (Some(_), true) => "jwins",
            (Some(_), false) => "jwins-no-accumulation",
            (None, true) => "jwins-no-wavelet",
            (None, false) => "topk-plain",
        }
    }

    fn init(&mut self, params: &[f32]) {
        self.dim = params.len();
        let coeffs = self.transform.plan(self.dim);
        self.scores = vec![0.0; coeffs];
        self.sent = vec![0; coeffs.div_ceil(64)];
        // Sized for the longer of its two lives.
        self.round_buffer = Vec::with_capacity(coeffs.max(self.dim));
        self.round_buffer.extend_from_slice(params);
        self.pending_round = None;
    }

    fn make_message(&mut self, round: usize, params: &[f32]) -> Result<OutMessage> {
        if self.dim == 0 {
            return Err(JwinsError::Protocol("init was not called"));
        }
        if self.pending_round.is_some() {
            return Err(JwinsError::Protocol("make_message called twice in a round"));
        }
        if self.round_buffer.is_empty() {
            return Err(JwinsError::Protocol(
                "a failed call lost the round start; call init",
            ));
        }
        if let Some(scaling) = &self.config.score_scaling {
            scaling.validate_dim(self.dim)?;
        }
        with_scratch(|scratch| {
            // Eq. (3): accumulate the local change in the coefficient
            // domain. It is made in place of the round start, its last read;
            // from here on the buffer holds no round start.
            let mut delta = std::mem::take(&mut self.round_buffer);
            for (start, &now) in delta.iter_mut().zip(params) {
                *start = now - *start;
            }
            self.change_coeffs(scratch, &mut delta);
            self.round_buffer = delta;
            if self.config.accumulation {
                self.add_to_scores(&scratch.coeffs);
            } else {
                self.scores.copy_from_slice(&scratch.coeffs);
            }
            // Randomized cut-off → budget → TopK selection.
            let alpha = self.cutoff.next_alpha();
            self.last_alpha = alpha;
            let k = budget(self.scores.len(), alpha);
            top_k_into(&self.scores, k, &mut scratch.keys, &mut self.sent);
            // Share DWT(x^{t,τ}) at the selected indices, from the buffer,
            // which holds the coefficients until the fold. The change's
            // coefficients were added to the scores: the values are
            // gathered over them.
            self.transform
                .forward_into(params, &mut scratch.work, &mut self.round_buffer);
            gather_into(&self.round_buffer, &self.sent, &mut scratch.coeffs);
            // The wire image is this call's own: copied out at its exact
            // size, it leaves nothing model-sized behind.
            let mut wire = Vec::new();
            let split = self
                .codec
                .encode_bitmap_into(&self.sent, &scratch.coeffs, &mut wire)
                .inspect_err(|_| self.round_buffer.clear())?;
            self.pending_round = Some(round);
            Ok(OutMessage::new(
                wire,
                ByteBreakdown {
                    payload: split.payload_bytes,
                    metadata: split.metadata_bytes,
                },
            ))
        })
    }

    fn aggregate(
        &mut self,
        round: usize,
        params: &[f32],
        self_weight: f64,
        received: &[ReceivedMessage<'_>],
    ) -> Result<Vec<f32>> {
        let mut next = params.to_vec();
        self.mix(round, &mut next, self_weight, received, Robust::None)?;
        Ok(next)
    }

    /// Mixes straight into `params`: nothing is written before the whole
    /// inbox has decoded, so on `Err` `params` is unchanged.
    fn aggregate_into(
        &mut self,
        round: usize,
        params: &mut [f32],
        self_weight: f64,
        received: &[ReceivedMessage<'_>],
        rule: &Robust,
    ) -> Result<()> {
        self.mix(round, params, self_weight, received, *rule)
    }

    fn last_alpha(&self) -> f64 {
        self.last_alpha
    }

    fn supports_robust(&self) -> bool {
        true
    }

    fn aggregate_robust(
        &mut self,
        round: usize,
        params: &[f32],
        self_weight: f64,
        received: &[ReceivedMessage<'_>],
        rule: &Robust,
    ) -> Result<Vec<f32>> {
        let mut next = params.to_vec();
        self.mix(round, &mut next, self_weight, received, *rule)?;
        Ok(next)
    }

    fn robust_stats(&mut self) -> Option<RobustStats> {
        self.robust_stats.take()
    }

    fn state_bytes(&self) -> usize {
        // V, the round buffer at the longer of its two lives, and the
        // bitmap of the last selection.
        let floats = self.scores.len() + self.scores.len().max(self.dim);
        floats * std::mem::size_of::<f32>() + self.sent.len() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::DecodeSlot;
    use jwins_codec::float::{BlockFloatCodec, FloatCodec};

    impl Jwins {
        /// The coefficients `make_message` shared, as a list.
        fn sent_indices(&self) -> Vec<u32> {
            (0..self.scores.len() as u32)
                .filter(|&i| self.sent[i as usize / 64] & 1 << (i % 64) != 0)
                .collect()
        }
    }

    fn make_pair(config: JwinsConfig, dim: usize) -> (Jwins, Jwins, Vec<f32>, Vec<f32>) {
        let mut a = Jwins::new(config.clone(), 1);
        let mut b = Jwins::new(config, 2);
        let xa: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.3).sin()).collect();
        let xb: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.3).cos()).collect();
        a.init(&xa);
        b.init(&xb);
        (a, b, xa, xb)
    }

    #[test]
    fn full_alpha_roundtrip_matches_dense_average() {
        // With α ≡ 1, JWINS degenerates to full-sharing (in coefficient
        // space), so the aggregate must equal the weighted parameter average.
        let config = JwinsConfig {
            alpha: AlphaDistribution::Fixed(1.0),
            ..JwinsConfig::paper_default()
        };
        let (mut a, mut b, xa, xb) = make_pair(config, 101);
        let _ = a.make_message(0, &xa).unwrap();
        let msg_b = b.make_message(0, &xb).unwrap();
        let out = a
            .aggregate(
                0,
                &xa,
                0.5,
                &[ReceivedMessage {
                    from: 1,
                    round: 0,
                    weight: 0.5,
                    bytes: &msg_b.bytes,
                    decoded: None,
                }],
            )
            .unwrap();
        for ((o, pa), pb) in out.iter().zip(&xa).zip(&xb) {
            let expect = 0.5 * pa + 0.5 * pb;
            assert!((o - expect).abs() < 1e-3, "{o} vs {expect}");
        }
    }

    #[test]
    fn no_neighbours_reconstructs_own_model() {
        let (mut a, _, xa, _) = make_pair(JwinsConfig::paper_default(), 77);
        let _ = a.make_message(0, &xa).unwrap();
        let out = a.aggregate(0, &xa, 1.0, &[]).unwrap();
        for (o, p) in out.iter().zip(&xa) {
            assert!((o - p).abs() < 1e-4, "{o} vs {p}");
        }
    }

    #[test]
    fn budget_respected_in_message_size() {
        let config = JwinsConfig {
            alpha: AlphaDistribution::Fixed(0.1),
            randomized_cutoff: false,
            ..JwinsConfig::paper_default()
        };
        let dim = 1000;
        let mut s = Jwins::new(config, 3);
        let x: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.01).sin()).collect();
        s.init(&x);
        // Perturb so scores are nonzero.
        let x2: Vec<f32> = x.iter().map(|v| v + 0.01).collect();
        let msg = s.make_message(0, &x2).unwrap();
        // ~10% of coefficients as f32 = 400 payload bytes raw; the block
        // codec adds at most 17 bits per 64 values.
        assert!(
            msg.breakdown.payload <= 405,
            "payload {} too large for 10% budget",
            msg.breakdown.payload
        );
        assert!((s.last_alpha() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn scores_reset_after_sending() {
        let config = JwinsConfig {
            alpha: AlphaDistribution::Fixed(0.2),
            randomized_cutoff: false,
            ..JwinsConfig::paper_default()
        };
        let (mut a, _, xa, _) = make_pair(config, 64);
        let x2: Vec<f32> = xa.iter().map(|v| v * 1.5 + 0.1).collect();
        let _ = a.make_message(0, &x2).unwrap();
        let sent = a.sent_indices();
        assert!(!sent.is_empty());
        let out = a.aggregate(0, &x2, 1.0, &[]).unwrap();
        // After a no-neighbour aggregate the model is (numerically) the same,
        // so the eq-4 correction is ~0 and sent scores stay ~0.
        for &i in &sent {
            assert!(
                a.scores()[i as usize].abs() < 1e-3,
                "score {i} = {}",
                a.scores()[i as usize]
            );
        }
        let _ = out;
    }

    #[test]
    fn accumulation_carries_unsent_importance() {
        let config = JwinsConfig {
            alpha: AlphaDistribution::Fixed(0.05),
            randomized_cutoff: false,
            ..JwinsConfig::paper_default()
        };
        let dim = 200;
        let mut s = Jwins::new(config, 9);
        let x0 = vec![0.0f32; dim];
        s.init(&x0);
        // Round 0: a change too widespread for the 5% budget.
        let x1: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.7).sin() * 0.1).collect();
        let _ = s.make_message(0, &x1).unwrap();
        let _ = s.aggregate(0, &x1, 1.0, &[]).unwrap();
        // Un-sent importance must persist.
        let live = s.scores().iter().filter(|v| v.abs() > 1e-6).count();
        assert!(live > dim / 2, "only {live} scores persisted");
    }

    #[test]
    fn ablation_identity_transform_shares_parameters() {
        let config = JwinsConfig {
            alpha: AlphaDistribution::Fixed(1.0),
            ..JwinsConfig::without_wavelet()
        };
        let (mut a, mut b, xa, xb) = make_pair(config, 50);
        let _ = a.make_message(0, &xa).unwrap();
        let msg = b.make_message(0, &xb).unwrap();
        let out = a
            .aggregate(
                0,
                &xa,
                0.5,
                &[ReceivedMessage {
                    from: 1,
                    round: 0,
                    weight: 0.5,
                    bytes: &msg.bytes,
                    decoded: None,
                }],
            )
            .unwrap();
        for ((o, pa), pb) in out.iter().zip(&xa).zip(&xb) {
            // Identity transform: exact parameter-space averaging.
            assert!((o - (0.5 * pa + 0.5 * pb)).abs() < 1e-6);
        }
    }

    #[test]
    fn protocol_violations_are_errors() {
        let (mut a, _, xa, _) = make_pair(JwinsConfig::paper_default(), 30);
        assert!(a.aggregate(0, &xa, 1.0, &[]).is_err(), "aggregate first");
        let _ = a.make_message(0, &xa).unwrap();
        assert!(a.make_message(0, &xa).is_err(), "double make_message");
        let mut fresh = Jwins::new(JwinsConfig::paper_default(), 1);
        assert!(fresh.make_message(0, &xa).is_err(), "missing init");
    }

    #[test]
    fn corrupt_neighbour_message_rejected() {
        let (mut a, _, xa, _) = make_pair(JwinsConfig::paper_default(), 30);
        let _ = a.make_message(0, &xa).unwrap();
        let garbage = [0xFFu8, 0xFF, 0x01];
        assert!(a
            .aggregate(
                0,
                &xa,
                1.0,
                &[ReceivedMessage {
                    from: 0,
                    round: 0,
                    weight: 0.5,
                    bytes: &garbage,
                    decoded: None
                }]
            )
            .is_err());
    }

    /// Raw index lists must increase like the delta-coded ones: a
    /// hand-built unsorted one is a codec error under every rule, before
    /// anything reads its indices.
    #[test]
    fn an_unsorted_raw_message_is_a_codec_error() {
        let config = JwinsConfig {
            index_codec: IndexCodec::RawU32,
            ..JwinsConfig::paper_default()
        };
        let mut bad = vec![3, 12];
        for i in [1u32, 4_000_000, 2] {
            bad.extend(i.to_le_bytes());
        }
        bad.extend(BlockFloatCodec.encode(&[0.5; 3]));
        let received = [ReceivedMessage {
            from: 1,
            round: 0,
            weight: 0.5,
            bytes: &bad,
            decoded: None,
        }];
        for rule in [Robust::None, Robust::Median] {
            let (mut a, _, xa, _) = make_pair(config.clone(), 30);
            let _ = a.make_message(0, &xa).unwrap();
            let out = a.aggregate_robust(0, &xa, 0.5, &received, &rule);
            assert!(matches!(out, Err(JwinsError::Codec(_))), "{out:?}");
        }
    }

    /// Every index codec's indices increase, so the range check reads the
    /// last.
    #[test]
    fn an_out_of_range_last_delta_coded_index_is_a_protocol_error() {
        for index_codec in [
            IndexCodec::EliasGammaDelta,
            IndexCodec::VarintDelta,
            IndexCodec::RawU32,
        ] {
            let config = JwinsConfig {
                index_codec,
                ..JwinsConfig::paper_default()
            };
            let (mut a, _, xa, _) = make_pair(config.clone(), 30);
            let _ = a.make_message(0, &xa).unwrap();
            // Between the calls the round buffer holds the coefficients.
            let past_the_end = a.round_buffer.len() as u32;
            let codec = SparseVecCodec::new(index_codec, config.value_codec);
            let bad = codec
                .encode(&[1, 2, past_the_end], &[0.5, 0.5, 0.5])
                .expect("increasing indices encode");
            let received = [ReceivedMessage {
                from: 1,
                round: 0,
                weight: 0.5,
                bytes: bad.as_bytes(),
                decoded: None,
            }];
            assert!(matches!(
                a.aggregate(0, &xa, 0.5, &received),
                Err(JwinsError::Protocol(_))
            ));
        }
    }

    /// A message is decoded whole before its indices are checked, with or
    /// without a slot: one that is both out of range and truncated fails
    /// as a codec error, the same one both ways and under every rule.
    #[test]
    fn a_truncated_out_of_range_message_is_a_codec_error_either_way() {
        let config = JwinsConfig {
            index_codec: IndexCodec::RawU32,
            ..JwinsConfig::paper_default()
        };
        let codec = SparseVecCodec::new(IndexCodec::RawU32, config.value_codec);
        let mut bad = codec
            .encode(&[1, 2, 4_000_000], &[0.5, 0.5, 0.5])
            .expect("increasing indices encode")
            .into_bytes();
        bad.pop();
        let mut errors = Vec::new();
        for slotted in [false, true] {
            for rule in [Robust::None, Robust::Median] {
                let slot = DecodeSlot::new();
                let received = [ReceivedMessage {
                    from: 1,
                    round: 0,
                    weight: 0.5,
                    bytes: &bad,
                    decoded: slotted.then_some(&slot),
                }];
                let (mut a, _, xa, _) = make_pair(config.clone(), 30);
                let _ = a.make_message(0, &xa).unwrap();
                let error = a
                    .aggregate_robust(0, &xa, 0.5, &received, &rule)
                    .unwrap_err();
                assert!(matches!(error, JwinsError::Codec(_)), "{error}");
                errors.push(error.to_string());
            }
        }
        errors.dedup();
        assert_eq!(errors.len(), 1, "{errors:?}");
    }

    #[test]
    fn score_scaling_biases_selection_toward_boosted_segment() {
        // Two equal "layers"; the second gets a 50× score boost. With an
        // identity transform (no wavelet mixing) and a tight budget, the
        // selected indices must concentrate in the boosted half.
        let dim = 200;
        let scaling = ScoreScaling::new(vec![(100, 1.0), (100, 50.0)]).unwrap();
        let config = JwinsConfig {
            wavelet: None,
            alpha: AlphaDistribution::Fixed(0.1),
            randomized_cutoff: false,
            score_scaling: Some(scaling),
            ..JwinsConfig::paper_default()
        };
        let mut s = Jwins::new(config, 5);
        let x0 = vec![0.0f32; dim];
        s.init(&x0);
        // A uniform change across the whole model.
        let x1 = vec![0.1f32; dim];
        let _ = s.make_message(0, &x1).unwrap();
        let sent = s.sent_indices();
        assert_eq!(sent.len(), 20);
        assert!(
            sent.iter().all(|&i| i >= 100),
            "boosted segment not preferred: {sent:?}"
        );
    }

    #[test]
    fn score_scaling_dim_mismatch_is_error() {
        let scaling = ScoreScaling::new(vec![(7, 2.0)]).unwrap();
        let config = JwinsConfig::with_score_scaling(scaling);
        let mut s = Jwins::new(config, 1);
        let x = vec![0.0f32; 10];
        s.init(&x);
        assert!(
            s.make_message(0, &x).is_err(),
            "7-param scaling on 10-param model"
        );
    }

    #[test]
    fn scaled_jwins_still_reconstructs_with_full_alpha() {
        let dim = 96;
        let scaling = ScoreScaling::inverse_size(&[32, 64]).unwrap();
        let config = JwinsConfig {
            alpha: AlphaDistribution::Fixed(1.0),
            score_scaling: Some(scaling),
            ..JwinsConfig::paper_default()
        };
        let (mut a, mut b, xa, xb) = make_pair(config, dim);
        let _ = a.make_message(0, &xa).unwrap();
        let msg = b.make_message(0, &xb).unwrap();
        let out = a
            .aggregate(
                0,
                &xa,
                0.5,
                &[ReceivedMessage {
                    from: 1,
                    round: 0,
                    weight: 0.5,
                    bytes: &msg.bytes,
                    decoded: None,
                }],
            )
            .unwrap();
        // Scaling affects only the ranking, never the shared values: with
        // α = 1 the result is still the exact average.
        for ((o, pa), pb) in out.iter().zip(&xa).zip(&xb) {
            assert!((o - (0.5 * pa + 0.5 * pb)).abs() < 1e-3);
        }
    }

    /// The bitmap forgets a full-budget round: after α = 1 and then α = 0.1,
    /// exactly the coefficients of the second selection were reset. The
    /// identity transform and a lone node make every reset exact (the
    /// average of one model is that model).
    #[test]
    fn scores_are_reset_exactly_where_the_last_selection_was() {
        let dim = 200usize;
        let fixed = |alpha| JwinsConfig {
            alpha: AlphaDistribution::Fixed(alpha),
            randomized_cutoff: false,
            ..JwinsConfig::without_wavelet()
        };
        let mut s = Jwins::new(fixed(1.0), 4);
        let x0: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.3).sin()).collect();
        s.init(&x0);
        assert_eq!(s.sent.len(), dim.div_ceil(64));
        let x1: Vec<f32> = x0.iter().map(|v| v + 0.25).collect();
        let _ = s.make_message(0, &x1).unwrap();
        assert_eq!(s.sent_indices().len(), dim);
        let x1 = s.aggregate(0, &x1, 1.0, &[]).unwrap();
        assert!(s.scores().iter().all(|&v| v == 0.0));
        s.cutoff = CutoffSampler::new(AlphaDistribution::Fixed(0.1), 4, false);
        let x2: Vec<f32> = (0..dim)
            .map(|i| x1[i] + 0.01 * (1 + i % 7) as f32)
            .collect();
        let _ = s.make_message(1, &x2).unwrap();
        let _ = s.aggregate(1, &x2, 1.0, &[]).unwrap();
        let sent = s.sent_indices();
        assert_eq!(sent.len(), budget(dim, 0.1));
        assert_eq!(s.sent.len(), dim.div_ceil(64));
        for (i, &score) in s.scores().iter().enumerate() {
            assert_eq!(score == 0.0, sent.contains(&(i as u32)), "coefficient {i}");
        }
    }

    /// `b`'s round-0 message under `config`, and a fresh receiver built
    /// the same way every call, so a private and a shared fold start equal.
    fn one_broadcast(
        config: &JwinsConfig,
        dim: usize,
    ) -> (OutMessage, impl Fn(u64) -> (Jwins, Vec<f32>)) {
        let (_, mut b, _, xb) = make_pair(config.clone(), dim);
        let msg = b.make_message(0, &xb).unwrap();
        let config = config.clone();
        let receiver = move |seed: u64| {
            let mut r = Jwins::new(config.clone(), seed);
            let x: Vec<f32> = (0..dim)
                .map(|i| (i as f32 * 0.1 + seed as f32).sin())
                .collect();
            r.init(&x);
            let x: Vec<f32> = x.iter().map(|v| v * 1.1).collect();
            let _ = r.make_message(0, &x).unwrap();
            (r, x)
        };
        (msg, receiver)
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn receivers_of_one_slot_fold_what_each_would_have_decoded() {
        for alpha in [1.0, 0.1] {
            let config = JwinsConfig {
                alpha: AlphaDistribution::Fixed(alpha),
                randomized_cutoff: false,
                ..JwinsConfig::paper_default()
            };
            let (msg, receiver) = one_broadcast(&config, 300);
            let slot = DecodeSlot::new();
            let from = |decoded| ReceivedMessage {
                from: 1,
                round: 0,
                weight: 0.3,
                bytes: &msg.bytes,
                decoded,
            };
            for seed in [7, 8] {
                for robust in [None, Some(Robust::Median)] {
                    let fold = |decoded| {
                        let (mut r, x) = receiver(seed);
                        match &robust {
                            None => r.aggregate(0, &x, 0.7, &[from(decoded)]),
                            Some(rule) => r.aggregate_robust(0, &x, 0.7, &[from(decoded)], rule),
                        }
                        .unwrap()
                    };
                    assert_eq!(
                        bits(&fold(Some(&slot))),
                        bits(&fold(None)),
                        "alpha {alpha}, receiver {seed}, {robust:?}"
                    );
                }
            }
            // A full-budget share is kept as its values alone.
            let Some(Ok(contribution)) = slot.decode_with(SparseVecCodec::default(), || {
                unreachable!("the first receiver filled the slot")
            }) else {
                panic!("the slot holds the default codec's decode");
            };
            assert_eq!(contribution.indices.is_none(), alpha == 1.0);
        }
    }

    #[test]
    fn every_receiver_of_a_corrupt_broadcast_reports_its_error() {
        let config = JwinsConfig::paper_default();
        let (_, receiver) = one_broadcast(&config, 30);
        let slot = DecodeSlot::new();
        let garbage = [0x03u8, 0x00, 0xFF];
        let errors: Vec<JwinsError> = [7, 8]
            .into_iter()
            .map(|seed| {
                let (mut r, x) = receiver(seed);
                let msg = ReceivedMessage {
                    from: 1,
                    round: 0,
                    weight: 0.5,
                    bytes: &garbage,
                    decoded: Some(&slot),
                };
                r.aggregate(0, &x, 0.5, &[msg]).unwrap_err()
            })
            .collect();
        let (mut r, x) = receiver(9);
        let private = ReceivedMessage {
            from: 1,
            round: 0,
            weight: 0.5,
            bytes: &garbage,
            decoded: None,
        };
        let alone = r.aggregate(0, &x, 0.5, &[private]).unwrap_err();
        for error in &errors {
            assert!(matches!(error, JwinsError::Codec(_)), "{error}");
            assert_eq!(error.to_string(), alone.to_string());
        }
    }

    /// A decode of implied indices sets its pool entry's index buffer
    /// aside, and the next listed decode into that entry writes into it:
    /// the list is not allocated again. Each mix is the one a fresh pool
    /// gives.
    #[test]
    fn an_implied_decode_keeps_the_entrys_index_buffer() {
        let config = |alpha| JwinsConfig {
            alpha: AlphaDistribution::Fixed(alpha),
            randomized_cutoff: false,
            ..JwinsConfig::paper_default()
        };
        let (listed, receiver) = one_broadcast(&config(0.1), 300);
        let (implied, _) = one_broadcast(&config(1.0), 300);
        let mix = |msg: &OutMessage| {
            let (mut r, x) = receiver(7);
            let from = ReceivedMessage {
                from: 1,
                round: 0,
                weight: 0.3,
                bytes: &msg.bytes,
                decoded: None,
            };
            bits(&r.aggregate(0, &x, 0.7, &[from]).unwrap())
        };
        let index_buffer = || {
            with_scratch(|s| {
                let list = s.decoded[0].index_buffer();
                (list.as_ptr(), list.capacity())
            })
        };
        let fresh = |msg: &OutMessage| {
            with_scratch(|s| *s = ShareScratch::default());
            mix(msg)
        };
        let (expected_listed, expected_implied) = (fresh(&listed), fresh(&implied));
        let _ = fresh(&listed);
        let buffer = index_buffer();
        assert!(buffer.1 > 0);
        assert_eq!(mix(&implied), expected_implied);
        assert_eq!(
            index_buffer(),
            buffer,
            "the implied decode dropped the list"
        );
        assert_eq!(mix(&listed), expected_listed);
        assert_eq!(index_buffer(), buffer, "the listed decode allocated again");
        with_scratch(|s| assert!(s.decoded[0].contribution.indices.is_some()));
    }

    /// The whole inbox is decoded before anything is mixed, and the first
    /// failure in inbox order is the error, whether the messages come
    /// through slots or through the worker's pool: a corrupt middle
    /// message wins over an out-of-range last one, and the round start is
    /// gone either way.
    #[test]
    fn a_corrupt_middle_message_is_the_error_through_slots_or_the_pool() {
        let config = JwinsConfig::paper_default();
        let (good, receiver) = one_broadcast(&config, 30);
        let garbage = [0x03u8, 0x00, 0xFF];
        let out_of_range = SparseVecCodec::default()
            .encode(&[1, 2, 4_000], &[0.5, 0.5, 0.5])
            .expect("increasing indices encode")
            .into_bytes();
        let inbox = [&good.bytes[..], &garbage, &out_of_range];
        let mut errors = Vec::new();
        for slotted in [false, true] {
            for rule in [Robust::None, Robust::Median] {
                let slots = [DecodeSlot::new(), DecodeSlot::new(), DecodeSlot::new()];
                let received: Vec<_> = (inbox.iter().zip(&slots).enumerate())
                    .map(|(from, (bytes, slot))| ReceivedMessage {
                        from: from + 1,
                        round: 0,
                        weight: 0.25,
                        bytes,
                        decoded: slotted.then_some(slot),
                    })
                    .collect();
                let (mut r, x) = receiver(7);
                let error = r
                    .aggregate_robust(0, &x, 0.25, &received, &rule)
                    .unwrap_err();
                assert!(matches!(error, JwinsError::Codec(_)), "{error}");
                assert!(r.make_message(1, &x).is_err(), "the round start survived");
                errors.push(error.to_string());
            }
        }
        errors.dedup();
        assert_eq!(errors.len(), 1, "{errors:?}");
    }

    /// A full-budget share is `SparseVecCodec::encode` of every
    /// coefficient, bytes and breakdown; its bitmap has exactly n bits set
    /// (none past n, with n not a multiple of 64); and after the mix no
    /// old score survives: the next round's scores are the transform of
    /// the averaging change alone.
    #[test]
    fn a_full_budget_share_is_the_encode_of_every_coefficient() {
        let config = JwinsConfig {
            alpha: AlphaDistribution::Fixed(1.0),
            randomized_cutoff: false,
            ..JwinsConfig::paper_default()
        };
        let (mut a, mut b, xa, xb) = make_pair(config, 1000);
        let n = a.scores.len();
        assert_ne!(n % 64, 0, "the case under test: a partial last word");
        let moved: Vec<f32> = xa.iter().map(|v| v * 1.1 - 0.05).collect();
        let msg = a.make_message(0, &moved).unwrap();

        let (wavelet, levels) = a.config.wavelet.clone().unwrap();
        let dwt = Dwt::new(wavelet, levels).unwrap();
        let all: Vec<u32> = (0..n as u32).collect();
        let expected = a.codec.encode(&all, &dwt.forward(&moved).data).unwrap();
        assert_eq!(&msg.bytes[..], expected.as_bytes());
        assert_eq!(msg.breakdown.metadata, expected.metadata_bytes);
        assert_eq!(msg.breakdown.payload, expected.payload_bytes);

        let ones: u32 = a.sent.iter().map(|w| w.count_ones()).sum();
        assert_eq!(ones as usize, n);
        assert_eq!(a.sent[n / 64] >> (n % 64), 0, "bits past n");

        let theirs = b.make_message(0, &xb).unwrap();
        let inbox = [ReceivedMessage {
            from: 1,
            round: 0,
            weight: 0.5,
            bytes: &theirs.bytes,
            decoded: None,
        }];
        let next = a.aggregate(0, &moved, 0.5, &inbox).unwrap();
        let change: Vec<f32> = next.iter().zip(&moved).map(|(x, m)| x - m).collect();
        assert_eq!(bits(a.scores()), bits(&dwt.forward(&change).data));
    }

    /// The one-pass eq-4 update is the two passes it replaced, bit for bit:
    /// every length around the 32-score halves and 64-bit words, any
    /// bitmap, and scores and changes with signed zeros, NaNs and
    /// infinities.
    #[test]
    fn one_pass_score_update_matches_reset_then_add() {
        let specials = [
            0.0,
            -0.0,
            f32::NAN,
            f32::INFINITY,
            -f32::INFINITY,
            1.5,
            -2.25,
        ];
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for len in (0usize..200).chain([1_000, 4_097]) {
            let mut value = || match next() % 4 {
                0 => specials[(next() % specials.len() as u64) as usize],
                _ => f32::from_bits(next() as u32),
            };
            let scores: Vec<f32> = (0..len).map(|_| value()).collect();
            let change: Vec<f32> = (0..len).map(|_| value()).collect();
            let sent: Vec<u64> = (0..len.div_ceil(64)).map(|_| next() & next()).collect();
            let mut expected = scores.clone();
            for (i, score) in expected.iter_mut().enumerate() {
                if sent[i / 64] & 1 << (i % 64) != 0 {
                    *score = 0.0;
                }
            }
            for (score, c) in expected.iter_mut().zip(&change) {
                *score += c;
            }
            let mut got = scores;
            reset_sent_and_add(&mut got, &sent, &change);
            assert_eq!(bits(&got), bits(&expected), "len {len}");
        }
    }

    /// An aggregate that fails once a round is open — on a bad message or
    /// the wrong round — has consumed the round start, so the node will
    /// not build another message from it; `init` starts it over.
    #[test]
    fn a_failed_aggregate_leaves_no_round_start() {
        let garbage = [0x03u8, 0x00, 0xFF];
        let msg = ReceivedMessage {
            from: 1,
            round: 0,
            weight: 0.5,
            bytes: &garbage,
            decoded: None,
        };
        for (round, received) in [(0, &[msg][..]), (1, &[])] {
            let (mut a, _, xa, _) = make_pair(JwinsConfig::paper_default(), 30);
            let _ = a.make_message(0, &xa).unwrap();
            assert!(a.aggregate(round, &xa, 0.5, received).is_err());
            assert!(matches!(
                a.make_message(1, &xa),
                Err(JwinsError::Protocol(_))
            ));
            a.init(&xa);
            let _ = a.make_message(1, &xa).unwrap();
            a.aggregate(1, &xa, 1.0, &[]).unwrap();
        }
    }

    #[test]
    fn randomized_cutoff_varies_alpha() {
        let (mut a, _, xa, _) = make_pair(JwinsConfig::paper_default(), 40);
        let mut alphas = std::collections::HashSet::new();
        let mut x = xa.clone();
        for round in 0..20 {
            x[round % 40] += 0.1;
            let _ = a.make_message(round, &x).unwrap();
            alphas.insert((a.last_alpha() * 100.0) as u64);
            x = a.aggregate(round, &x, 1.0, &[]).unwrap();
        }
        assert!(alphas.len() > 2, "cut-off never varied: {alphas:?}");
    }
}
