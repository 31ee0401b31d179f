//! Quantized full-sharing: the other compression family (extension).
//!
//! The paper's background (§II-B) splits ML compression into *quantization*
//! (fewer bits per parameter — QSGD) and *sparsification* (fewer parameters —
//! JWINS). Its evaluation only covers the sparsification side; this strategy
//! fills in the quantization column so the benchmark suite can ablate the
//! two families on equal footing: every round the full parameter vector is
//! shared, but stochastically quantized to `levels` magnitude levels
//! (QSGD, Alistarh et al. 2017), shrinking each coordinate from 32 bits to
//! roughly `log2(levels) + 2` bits.
//!
//! Stochastic rounding keeps the quantizer *unbiased*, so gossip averaging
//! still contracts toward the cluster mean — but with a noise floor set by
//! the quantization error, which is exactly the behaviour the
//! `ext_quantization` bench measures against JWINS at a matched byte budget.

use crate::average::dense_mix;
use crate::strategy::{close_round, OutMessage, ReceivedMessage, ShareStrategy};
use crate::{JwinsError, Result};
use jwins_adversary::{Robust, RobustStats};
use jwins_codec::quantize::Qsgd;
use jwins_net::ByteBreakdown;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Full-model sharing through a QSGD quantizer.
///
/// # Example
///
/// ```
/// use jwins::strategies::QuantizedSharing;
/// use jwins::strategy::ShareStrategy;
///
/// # fn main() -> jwins::Result<()> {
/// let mut node = QuantizedSharing::new(255, 7); // "8-bit" QSGD
/// let params = vec![0.5_f32; 1000];
/// node.init(&params);
/// let msg = node.make_message(0, &params)?;
/// // ~10-12 bits per coordinate instead of 32.
/// assert!(msg.bytes.len() < 1000 * 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct QuantizedSharing {
    quantizer: Qsgd,
    rng: ChaCha8Rng,
    pending_round: Option<usize>,
    dim: usize,
    robust_stats: RobustStats,
}

impl QuantizedSharing {
    /// Creates a node-local instance quantizing to `levels` levels (255 ≈
    /// "8-bit QSGD"). `seed` drives this node's stochastic rounding and
    /// should differ across nodes.
    ///
    /// # Panics
    ///
    /// Panics if `levels == 0`.
    pub fn new(levels: u32, seed: u64) -> Self {
        Self {
            quantizer: Qsgd::new(levels),
            rng: ChaCha8Rng::seed_from_u64(seed),
            pending_round: None,
            dim: 0,
            robust_stats: RobustStats::default(),
        }
    }

    /// Number of quantization levels.
    pub fn levels(&self) -> u32 {
        self.quantizer.levels()
    }

    /// `aggregate` under `rule`: closes the round `make_message` opened,
    /// then, under no rule, folds every message a tile at a time as it
    /// dequantizes.
    fn mix(
        &mut self,
        round: usize,
        params: &[f32],
        self_weight: f64,
        received: &[ReceivedMessage<'_>],
        rule: Robust,
    ) -> Result<Vec<f32>> {
        close_round(&mut self.pending_round, round)?;
        let quantizer = self.quantizer;
        let open = |bytes| Ok(quantizer.decoder(bytes)?);
        dense_mix(
            params,
            self_weight,
            received,
            rule,
            open,
            &mut self.robust_stats,
        )
    }
}

impl ShareStrategy for QuantizedSharing {
    fn name(&self) -> &'static str {
        "quantized-full"
    }

    fn init(&mut self, params: &[f32]) {
        self.dim = params.len();
        self.pending_round = None;
    }

    fn make_message(&mut self, round: usize, params: &[f32]) -> Result<OutMessage> {
        if self.dim == 0 {
            return Err(JwinsError::Protocol("init was not called"));
        }
        if self.pending_round.is_some() {
            return Err(JwinsError::Protocol("make_message called twice in a round"));
        }
        let rng = &mut self.rng;
        let bytes = self.quantizer.encode(params, || rng.gen_range(0.0f32..1.0));
        let breakdown = ByteBreakdown {
            payload: bytes.len(),
            metadata: 0,
        };
        self.pending_round = Some(round);
        Ok(OutMessage::new(bytes, breakdown))
    }

    fn aggregate(
        &mut self,
        round: usize,
        params: &[f32],
        self_weight: f64,
        received: &[ReceivedMessage<'_>],
    ) -> Result<Vec<f32>> {
        self.mix(round, params, self_weight, received, Robust::None)
    }

    fn last_alpha(&self) -> f64 {
        1.0
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
        self.mix(round, params, self_weight, received, *rule)
    }

    fn robust_stats(&mut self) -> Option<RobustStats> {
        self.robust_stats.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vec_pair(dim: usize) -> (Vec<f32>, Vec<f32>) {
        let xa: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.21).sin()).collect();
        let xb: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.21).cos()).collect();
        (xa, xb)
    }

    #[test]
    fn aggregate_approximates_weighted_average() {
        let (xa, xb) = vec_pair(200);
        let mut a = QuantizedSharing::new(4095, 1);
        let mut b = QuantizedSharing::new(4095, 2);
        a.init(&xa);
        b.init(&xb);
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
        // Quantization error ≤ ‖x‖/levels per coordinate; halved by the 0.5
        // weight. Generous bound:
        let norm: f32 = xb.iter().map(|v| v * v).sum::<f32>().sqrt();
        let tol = norm / 4095.0;
        for ((o, pa), pb) in out.iter().zip(&xa).zip(&xb) {
            let expect = 0.5 * pa + 0.5 * pb;
            assert!((o - expect).abs() <= tol, "{o} vs {expect} (tol {tol})");
        }
    }

    #[test]
    fn quantized_message_is_much_smaller_than_raw() {
        let (xa, _) = vec_pair(4000);
        let mut s = QuantizedSharing::new(255, 3);
        s.init(&xa);
        let msg = s.make_message(0, &xa).unwrap();
        // 8-bit QSGD ⇒ ~10-12 bits/coord with gamma-coded levels, vs 32 raw.
        assert!(
            msg.bytes.len() < 4000 * 2,
            "{} bytes for 4000 params",
            msg.bytes.len()
        );
        assert_eq!(msg.breakdown.metadata, 0, "no index metadata needed");
    }

    #[test]
    fn gossip_converges_to_noise_floor() {
        let (mut xa, mut xb) = vec_pair(100);
        let mut a = QuantizedSharing::new(1023, 4);
        let mut b = QuantizedSharing::new(1023, 5);
        a.init(&xa);
        b.init(&xb);
        for round in 0..40 {
            let ma = a.make_message(round, &xa).unwrap();
            let mb = b.make_message(round, &xb).unwrap();
            let na = a
                .aggregate(
                    round,
                    &xa,
                    0.5,
                    &[ReceivedMessage {
                        from: 1,
                        round,
                        weight: 0.5,
                        bytes: &mb.bytes,
                        decoded: None,
                    }],
                )
                .unwrap();
            let nb = b
                .aggregate(
                    round,
                    &xb,
                    0.5,
                    &[ReceivedMessage {
                        from: 0,
                        round,
                        weight: 0.5,
                        bytes: &ma.bytes,
                        decoded: None,
                    }],
                )
                .unwrap();
            xa = na;
            xb = nb;
        }
        let gap: f32 = xa
            .iter()
            .zip(&xb)
            .map(|(p, q)| (p - q).abs())
            .fold(0.0, f32::max);
        assert!(gap < 0.05, "gap {gap} above quantization noise floor");
    }

    #[test]
    fn protocol_violations_are_errors() {
        let (xa, _) = vec_pair(10);
        let mut s = QuantizedSharing::new(255, 1);
        assert!(s.make_message(0, &xa).is_err(), "missing init");
        s.init(&xa);
        assert!(s.aggregate(0, &xa, 0.5, &[]).is_err(), "aggregate first");
        let _ = s.make_message(0, &xa).unwrap();
        assert!(s.make_message(0, &xa).is_err(), "double make_message");
    }

    #[test]
    fn corrupt_message_rejected() {
        let (xa, _) = vec_pair(10);
        let mut s = QuantizedSharing::new(255, 1);
        s.init(&xa);
        let _ = s.make_message(0, &xa).unwrap();
        let garbage = [0x7Fu8, 0xFF, 0xFF, 0xFF]; // huge norm, then EOF
        assert!(s
            .aggregate(
                0,
                &xa,
                0.5,
                &[ReceivedMessage {
                    from: 1,
                    round: 0,
                    weight: 0.5,
                    bytes: &garbage,
                    decoded: None
                }]
            )
            .is_err());
    }

    #[test]
    fn distinct_seeds_give_distinct_rounding() {
        let (xa, _) = vec_pair(500);
        let mut a = QuantizedSharing::new(7, 1);
        let mut b = QuantizedSharing::new(7, 2);
        a.init(&xa);
        b.init(&xa);
        let ma = a.make_message(0, &xa).unwrap();
        let mb = b.make_message(0, &xa).unwrap();
        assert_ne!(&ma.bytes[..], &mb.bytes[..], "stochastic rounding differs");
    }
}
