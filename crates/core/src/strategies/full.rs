//! Full-sharing D-PSGD: the accuracy upper baseline.
//!
//! Every round each node broadcasts its whole parameter vector (float-codec
//! compressed, like all algorithms in the evaluation — the paper applies
//! Fpzip "uniformly for all the model parameters and for all experiments and
//! baselines") and aggregates with Metropolis–Hastings weights.

use crate::scratch::with_scratch;
use crate::strategy::{OutMessage, ReceivedMessage, ShareStrategy};
use crate::{JwinsError, Result};
use jwins_adversary::{Robust, RobustAccumulator, RobustStats};
use jwins_codec::float::{BlockFloatCodec, BlockFloatDecoder, FloatCodec};
use jwins_codec::varint;
use jwins_net::ByteBreakdown;

/// Checks a message's header against the local dimension and returns a
/// decoder positioned on its `dim` values; the caller pulls them and then
/// calls `finish`, which rejects a message that goes on after them.
fn open_message(bytes: &[u8], dim: usize) -> Result<BlockFloatDecoder<'_>> {
    let (count, used) = varint::read_u64(bytes)?;
    if count != dim as u64 {
        return Err(JwinsError::Protocol("full-sharing dimension mismatch"));
    }
    Ok(BlockFloatCodec::decoder(&bytes[used..]))
}

/// Full-model broadcast with weighted averaging.
#[derive(Debug, Default)]
pub struct FullSharing {
    dim: usize,
    robust_stats: RobustStats,
}

impl FullSharing {
    /// Creates the strategy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ShareStrategy for FullSharing {
    fn name(&self) -> &'static str {
        "full-sharing"
    }

    fn init(&mut self, params: &[f32]) {
        self.dim = params.len();
    }

    fn make_message(&mut self, _round: usize, params: &[f32]) -> Result<OutMessage> {
        if self.dim == 0 {
            return Err(JwinsError::Protocol("init was not called"));
        }
        with_scratch(|scratch| {
            let wire = &mut scratch.wire;
            wire.clear();
            varint::write_u64(wire, params.len() as u64);
            let header = wire.len();
            BlockFloatCodec.encode_into(params, wire);
            let breakdown = ByteBreakdown {
                payload: wire.len() - header,
                metadata: header,
            };
            Ok(OutMessage::copy_from(wire, breakdown))
        })
    }

    fn aggregate(
        &mut self,
        _round: usize,
        params: &[f32],
        self_weight: f64,
        received: &[ReceivedMessage<'_>],
    ) -> Result<Vec<f32>> {
        with_scratch(|scratch| {
            let avg = &mut scratch.averager;
            avg.reset(params, self_weight);
            for msg in received {
                // Decoded straight into the average, one value at a time.
                let mut values = open_message(msg.bytes, params.len())?;
                avg.add_dense_with(msg.weight, || values.next_value())?;
                values.finish()?;
            }
            let mut next = Vec::new();
            avg.finish_into(&mut next);
            Ok(next)
        })
    }

    fn last_alpha(&self) -> f64 {
        1.0
    }

    fn supports_robust(&self) -> bool {
        true
    }

    fn aggregate_robust(
        &mut self,
        _round: usize,
        params: &[f32],
        self_weight: f64,
        received: &[ReceivedMessage<'_>],
        rule: &Robust,
    ) -> Result<Vec<f32>> {
        let mut acc = RobustAccumulator::new(params, self_weight, *rule);
        for msg in received {
            let mut values = open_message(msg.bytes, params.len())?;
            let sink = acc.begin_dense(msg.weight);
            sink.reserve(params.len());
            for _ in 0..params.len() {
                sink.push(values.next_value()?);
            }
            values.finish()?;
        }
        let (out, stats) = acc.finish();
        self.robust_stats.absorb(stats);
        Ok(out)
    }

    fn robust_stats(&mut self) -> Option<RobustStats> {
        let stats = std::mem::take(&mut self.robust_stats);
        (!stats.is_zero()).then_some(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_message(params: &[f32]) -> OutMessage {
        let mut s = FullSharing::new();
        s.init(params);
        s.make_message(0, params).expect("encodes")
    }

    #[test]
    fn message_roundtrips_through_aggregate() {
        let a = vec![1.0f32, 2.0, 3.0];
        let b = vec![3.0f32, 4.0, 5.0];
        let msg_b = roundtrip_message(&b);
        let mut s = FullSharing::new();
        s.init(&a);
        let out = s
            .aggregate(
                0,
                &a,
                0.5,
                &[ReceivedMessage {
                    from: 1,
                    round: 0,
                    weight: 0.5,
                    edge_weight: 0.5,
                    bytes: &msg_b.bytes,
                    decoded: None,
                }],
            )
            .unwrap();
        for (o, expect) in out.iter().zip([2.0f32, 3.0, 4.0]) {
            assert!((o - expect).abs() < 1e-6);
        }
    }

    #[test]
    fn no_neighbours_is_identity() {
        let a = vec![1.5f32, -2.5];
        let mut s = FullSharing::new();
        s.init(&a);
        let out = s.aggregate(0, &a, 1.0, &[]).unwrap();
        assert_eq!(out, a);
    }

    #[test]
    fn uninitialized_strategy_errors() {
        let mut s = FullSharing::new();
        assert!(s.make_message(0, &[1.0]).is_err());
    }

    #[test]
    fn corrupt_message_rejected() {
        let a = vec![1.0f32; 4];
        let mut s = FullSharing::new();
        s.init(&a);
        let bad = [7u8, 1, 2];
        assert!(s
            .aggregate(
                0,
                &a,
                0.5,
                &[ReceivedMessage {
                    from: 0,
                    round: 0,
                    weight: 0.5,
                    edge_weight: 0.5,
                    bytes: &bad,
                    decoded: None
                }]
            )
            .is_err());
    }

    #[test]
    fn metadata_is_negligible() {
        let params = vec![0.25f32; 1000];
        let msg = roundtrip_message(&params);
        assert!(msg.breakdown.metadata <= 4);
        assert!(msg.breakdown.payload > 100);
    }

    fn received(from: usize, weight: f64, msg: &OutMessage) -> ReceivedMessage<'_> {
        ReceivedMessage {
            from,
            round: 0,
            weight,
            edge_weight: weight,
            bytes: &msg.bytes,
            decoded: None,
        }
    }

    #[test]
    fn robust_median_screens_an_outlier() {
        let dim = 8;
        let mine = vec![0.0f32; dim];
        let honest_msg = roundtrip_message(&vec![1.0f32; dim]);
        let evil_msg = roundtrip_message(&vec![100.0f32; dim]);
        let mut s = FullSharing::new();
        s.init(&mine);
        let out = s
            .aggregate_robust(
                0,
                &mine,
                0.5,
                &[received(1, 0.25, &honest_msg), received(2, 0.25, &evil_msg)],
                &Robust::Median,
            )
            .unwrap();
        // Weighted median of {0.0 (w=.5), 1.0 (w=.25), 100.0 (w=.25)} is 0.0
        // at every coordinate: the outlier cannot drag the result.
        for v in out {
            assert_eq!(v, 0.0);
        }
    }

    #[test]
    fn robust_norm_clip_stats_drain_once() {
        let dim = 4;
        let own = vec![0.0f32; dim];
        let far_msg = roundtrip_message(&vec![50.0f32; dim]);
        let mut s = FullSharing::new();
        s.init(&own);
        let _ = s
            .aggregate_robust(
                0,
                &own,
                0.5,
                &[received(1, 0.5, &far_msg)],
                &Robust::NormClip { tau: 1.0 },
            )
            .unwrap();
        let stats = s.robust_stats().expect("clip happened");
        assert_eq!(stats.clipped, 1);
        assert!(stats.mass > 0.0);
        assert!(s.robust_stats().is_none(), "drain resets");
    }
}
