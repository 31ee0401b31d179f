//! CHOCO-SGD (Koloskova et al., ICML 2019), memory-efficient variant.
//!
//! The state-of-the-art compressed-gossip comparator of the paper (§IV-D).
//! Each node keeps a public estimate `x̂_i` of its own model and the weighted
//! neighbour aggregate `s_i = Σ_{j∈N(i)} w_ij x̂_j`; only the *compressed
//! difference* `q_i = C(x_i − x̂_i)` crosses the network:
//!
//! ```text
//! x_i^{t+1/2} = x_i^t − η ∇F_i            (engine: local steps)
//! q_i = TopK(x_i^{t+1/2} − x̂_i)           (make_message)
//! x̂_i ← x̂_i + q_i                         (make_message)
//! s_i ← s_i + Σ_j w_ij q_j                 (aggregate)
//! x_i^{t+1} = x_i^{t+1/2} + γ (s_i − (1 − w_ii) x̂_i)
//! ```
//!
//! The consensus step size γ is CHOCO's extra hyperparameter; the paper
//! tunes γ = 0.6 (20% budget) and γ = 0.1 (10% budget) and observes high
//! sensitivity. Because `s_i` silently assumes a *fixed* neighbourhood and
//! fixed weights, CHOCO degrades to "practically no learning" on dynamic
//! topologies (Figure 7) — this implementation reproduces that behaviour
//! naturally rather than guarding against it.

use crate::sparsify::{budget, gather, top_k_indices};
use crate::strategy::{OutMessage, ReceivedMessage, ShareStrategy};
use crate::{JwinsError, Result};
use jwins_codec::sparse::{IndexCodec, SparseVecCodec, ValueCodec};
use jwins_net::ByteBreakdown;

/// CHOCO-SGD configuration.
#[derive(Debug, Clone)]
pub struct ChocoConfig {
    /// Fraction of parameters in each compressed difference (TopK budget).
    pub fraction: f64,
    /// Consensus step size γ.
    pub gamma: f64,
    /// Metadata codec for the TopK index list.
    pub index_codec: IndexCodec,
    /// Value codec.
    pub value_codec: ValueCodec,
}

impl ChocoConfig {
    /// The paper's 20%-budget configuration (γ = 0.6).
    pub fn budget_20() -> Self {
        Self {
            fraction: 0.20,
            gamma: 0.6,
            index_codec: IndexCodec::EliasGammaDelta,
            value_codec: ValueCodec::Block,
        }
    }

    /// The paper's 10%-budget configuration (γ = 0.1).
    pub fn budget_10() -> Self {
        Self {
            fraction: 0.10,
            gamma: 0.1,
            index_codec: IndexCodec::EliasGammaDelta,
            value_codec: ValueCodec::Block,
        }
    }
}

/// Memory-efficient CHOCO-SGD with TopK compression.
#[derive(Debug)]
pub struct ChocoSgd {
    config: ChocoConfig,
    codec: SparseVecCodec,
    /// `x̂_i`: the public copy every neighbour tracks of this node.
    x_hat: Vec<f32>,
    /// `s_i = Σ_{j∈N(i)} w_ij x̂_j` under the static-topology assumption.
    s: Vec<f32>,
    pending_round: Option<usize>,
    dim: usize,
}

impl ChocoSgd {
    /// Creates a node-local instance.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < fraction <= 1` and `0 < gamma <= 1`.
    pub fn new(config: ChocoConfig) -> Self {
        assert!(
            config.fraction > 0.0 && config.fraction <= 1.0,
            "fraction must be in (0, 1]"
        );
        assert!(
            config.gamma > 0.0 && config.gamma <= 1.0,
            "gamma must be in (0, 1]"
        );
        let codec = SparseVecCodec::new(config.index_codec, config.value_codec);
        Self {
            config,
            codec,
            x_hat: Vec::new(),
            s: Vec::new(),
            pending_round: None,
            dim: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ChocoConfig {
        &self.config
    }
}

impl ShareStrategy for ChocoSgd {
    fn name(&self) -> &'static str {
        "choco-sgd"
    }

    fn init(&mut self, params: &[f32]) {
        self.dim = params.len();
        // Standard CHOCO initialization: x̂ = 0, hence s = 0.
        self.x_hat = vec![0.0; self.dim];
        self.s = vec![0.0; self.dim];
        self.pending_round = None;
    }

    fn make_message(&mut self, round: usize, params: &[f32]) -> Result<OutMessage> {
        if self.dim == 0 {
            return Err(JwinsError::Protocol("init was not called"));
        }
        if self.pending_round.is_some() {
            return Err(JwinsError::Protocol("make_message called twice in a round"));
        }
        // q_i = TopK(x − x̂).
        let diff: Vec<f32> = params.iter().zip(&self.x_hat).map(|(x, h)| x - h).collect();
        let k = budget(self.dim, self.config.fraction);
        let indices = top_k_indices(&diff, k);
        let values = gather(&diff, &indices);
        // Apply own q to x̂ (neighbours do the same with the received copy).
        for (&i, &v) in indices.iter().zip(&values) {
            self.x_hat[i as usize] += v;
        }
        let encoded = self.codec.encode(&indices, &values)?;
        let breakdown = ByteBreakdown {
            payload: encoded.payload_bytes,
            metadata: encoded.metadata_bytes,
        };
        self.pending_round = Some(round);
        Ok(OutMessage::new(encoded.into_bytes(), breakdown))
    }

    fn aggregate(
        &mut self,
        round: usize,
        params: &[f32],
        self_weight: f64,
        received: &[ReceivedMessage<'_>],
    ) -> Result<Vec<f32>> {
        match self.pending_round.take() {
            Some(r) if r == round => {}
            Some(_) => return Err(JwinsError::Protocol("round number mismatch")),
            None => return Err(JwinsError::Protocol("aggregate before make_message")),
        }
        // s_i += Σ_j w_ij q_j. A message is decoded and checked whole
        // before it adds anything; its indices increase, so the last one
        // vouches for the rest.
        for msg in received {
            let (indices, values) = self.codec.decode(msg.bytes)?;
            if indices.last().is_some_and(|&i| i as usize >= self.s.len()) {
                return Err(JwinsError::Protocol("received index out of range"));
            }
            for (&i, &v) in indices.iter().zip(&values) {
                self.s[i as usize] += (msg.weight * f64::from(v)) as f32;
            }
        }
        // x ← x + γ (s − (1 − w_ii) x̂): the gossip step on the public copies.
        let gamma = self.config.gamma;
        let off_diag = 1.0 - self_weight;
        let next: Vec<f32> = params
            .iter()
            .zip(&self.s)
            .zip(&self.x_hat)
            .map(|((x, s), h)| {
                (f64::from(*x) + gamma * (f64::from(*s) - off_diag * f64::from(*h))) as f32
            })
            .collect();
        Ok(next)
    }

    fn last_alpha(&self) -> f64 {
        self.config.fraction
    }

    fn state_bytes(&self) -> usize {
        // The public replica x̂ and the neighbour aggregate s.
        (self.x_hat.len() + self.s.len()) * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jwins_codec::float::{BlockFloatCodec, FloatCodec};

    /// Drives a fully connected pair through rounds of pure gossip (no
    /// gradients) and checks consensus — CHOCO's defining property.
    #[test]
    fn pure_gossip_converges_to_consensus() {
        let dim = 40;
        let config = ChocoConfig {
            fraction: 0.5,
            gamma: 0.8,
            ..ChocoConfig::budget_20()
        };
        let mut a = ChocoSgd::new(config.clone());
        let mut b = ChocoSgd::new(config);
        let mut xa: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.37).sin()).collect();
        let mut xb: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.37).cos()).collect();
        a.init(&xa);
        b.init(&xb);
        // Two-node complete graph: w_ab = 1/2 (Metropolis), w_aa = 1/2.
        for round in 0..200 {
            let ma = a.make_message(round, &xa).unwrap();
            let mb = b.make_message(round, &xb).unwrap();
            xa = a
                .aggregate(
                    round,
                    &xa,
                    0.5,
                    &[ReceivedMessage {
                        from: 1,
                        round,
                        weight: 0.5,
                        edge_weight: 0.5,
                        bytes: &mb.bytes,
                        decoded: None,
                    }],
                )
                .unwrap();
            xb = b
                .aggregate(
                    round,
                    &xb,
                    0.5,
                    &[ReceivedMessage {
                        from: 0,
                        round,
                        weight: 0.5,
                        edge_weight: 0.5,
                        bytes: &ma.bytes,
                        decoded: None,
                    }],
                )
                .unwrap();
        }
        let gap: f32 = xa
            .iter()
            .zip(&xb)
            .map(|(p, q)| (p - q).abs())
            .fold(0.0, f32::max);
        assert!(gap < 0.01, "consensus gap {gap}");
        // And the consensus preserves the initial mean (doubly stochastic W).
        let mean0 = |i: usize| 0.5 * ((i as f32 * 0.37).sin() + (i as f32 * 0.37).cos());
        for (i, v) in xa.iter().enumerate() {
            assert!(
                (v - mean0(i)).abs() < 0.05,
                "coord {i}: {v} vs {}",
                mean0(i)
            );
        }
    }

    #[test]
    fn message_respects_budget() {
        let mut c = ChocoSgd::new(ChocoConfig::budget_10());
        let params: Vec<f32> = (0..1000).map(|i| (i as f32 * 0.1).sin()).collect();
        c.init(&params);
        let msg = c.make_message(0, &params).unwrap();
        // 10% of 1000 = 100 coefficients at 4 bytes each, plus at most 17
        // bits for each of the two blocks.
        assert!(
            msg.breakdown.payload <= 405,
            "payload {}",
            msg.breakdown.payload
        );
    }

    #[test]
    fn x_hat_tracks_applied_differences() {
        let mut c = ChocoSgd::new(ChocoConfig {
            fraction: 1.0,
            gamma: 1.0,
            ..ChocoConfig::budget_20()
        });
        let params = vec![2.0f32, -4.0, 6.0];
        c.init(&params);
        let _ = c.make_message(0, &params).unwrap();
        // With fraction 1, x̂ jumps straight to x.
        assert_eq!(c.x_hat, params);
    }

    #[test]
    fn protocol_violations_are_errors() {
        let mut c = ChocoSgd::new(ChocoConfig::budget_20());
        let params = vec![1.0f32; 8];
        assert!(c.make_message(0, &params).is_err(), "missing init");
        c.init(&params);
        assert!(
            c.aggregate(0, &params, 0.5, &[]).is_err(),
            "aggregate first"
        );
        let _ = c.make_message(0, &params).unwrap();
        assert!(c.make_message(0, &params).is_err(), "double make_message");
    }

    /// One message from the neighbour, as `aggregate` receives it.
    fn from_neighbour(bytes: &[u8]) -> [ReceivedMessage<'_>; 1] {
        [ReceivedMessage {
            from: 1,
            round: 0,
            weight: 0.5,
            edge_weight: 0.5,
            bytes,
            decoded: None,
        }]
    }

    /// Raw index lists must increase like the delta-coded ones: the codec
    /// rejects a hand-built unsorted one before anything reads its indices.
    #[test]
    fn an_unsorted_raw_message_is_a_codec_error() {
        let mut c = ChocoSgd::new(ChocoConfig {
            index_codec: IndexCodec::RawU32,
            ..ChocoConfig::budget_20()
        });
        let params = vec![1.0f32; 8];
        c.init(&params);
        let _ = c.make_message(0, &params).unwrap();
        let mut bad = vec![3, 12];
        for i in [1u32, 8, 2] {
            bad.extend(i.to_le_bytes());
        }
        bad.extend(BlockFloatCodec.encode(&[0.5; 3]));
        let out = c.aggregate(0, &params, 0.5, &from_neighbour(&bad));
        assert!(matches!(out, Err(JwinsError::Codec(_))), "{out:?}");
    }

    /// A message whose last index is out of range adds none of its
    /// in-range pairs to `s`.
    #[test]
    fn an_out_of_range_last_index_leaves_s_untouched() {
        for index_codec in [IndexCodec::RawU32, IndexCodec::EliasGammaDelta] {
            let mut c = ChocoSgd::new(ChocoConfig {
                index_codec,
                ..ChocoConfig::budget_20()
            });
            let params: Vec<f32> = (0..8).map(|i| i as f32).collect();
            c.init(&params);
            let _ = c.make_message(0, &params).unwrap();
            let before = c.s.clone();
            let bad = SparseVecCodec::new(index_codec, ValueCodec::Block)
                .encode(&[1, 2, 8], &[0.5, 0.5, 0.5])
                .unwrap();
            let out = c.aggregate(0, &params, 0.5, &from_neighbour(bad.as_bytes()));
            assert!(matches!(out, Err(JwinsError::Protocol(_))), "{out:?}");
            assert_eq!(c.s, before, "{index_codec:?}");
        }
    }

    #[test]
    #[should_panic(expected = "gamma must be in (0, 1]")]
    fn invalid_gamma_rejected() {
        let _ = ChocoSgd::new(ChocoConfig {
            gamma: 0.0,
            ..ChocoConfig::budget_20()
        });
    }
}
