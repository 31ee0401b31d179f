//! Full-sharing D-PSGD: the accuracy upper baseline.
//!
//! Every round each node broadcasts its whole parameter vector (float-codec
//! compressed, like all algorithms in the evaluation — the paper applies
//! Fpzip "uniformly for all the model parameters and for all experiments and
//! baselines") and aggregates with Metropolis–Hastings weights.

use crate::average::{fold_tiles, RobustAccumulator, TilePart, TILE};
use crate::scratch::{decode_pool, with_scratch};
use crate::strategy::{OutMessage, ReceivedMessage, ShareStrategy};
use crate::{JwinsError, Result};
use jwins_adversary::{Robust, RobustStats};
use jwins_codec::float::{BlockFloatCodec, BlockFloatDecoder, FloatCodec};
use jwins_codec::varint;
use jwins_net::ByteBreakdown;

/// Checks a message's header against the local dimension and returns a
/// decoder on its `dim` values; its `finish` rejects a message that goes on
/// after them.
fn open(bytes: &[u8], dim: usize) -> Result<BlockFloatDecoder<'_>> {
    let (count, used) = varint::read_u64(bytes)?;
    if count != dim as u64 {
        return Err(JwinsError::Protocol("full-sharing dimension mismatch"));
    }
    Ok(BlockFloatCodec::decoder(&bytes[used..]))
}

/// A message on the wire is a dense part of the tile loop: it decodes its
/// next tile of values as it is added.
impl TilePart for BlockFloatDecoder<'_> {
    const DENSE: bool = true;

    fn add_tile(
        &mut self,
        _base: usize,
        weight: f64,
        num: &mut [f64],
        _den: &mut [f64],
        spare: &mut [f32],
    ) -> Result<()> {
        self.next_values(spare)?;
        for (num, &v) in num.iter_mut().zip(&*spare) {
            *num += f64::from(v) * weight;
        }
        Ok(())
    }
}

/// Reads a message of `dim` values, a run of `buf.len()` at a time into
/// `buf`, and checks its end.
fn read_whole(bytes: &[u8], dim: usize, buf: &mut [f32]) -> Result<()> {
    let mut values = open(bytes, dim)?;
    let mut left = dim;
    while left > 0 {
        let n = left.min(buf.len());
        assert!(n > 0, "a message read needs a buffer");
        values.next_values(&mut buf[..n])?;
        left -= n;
    }
    Ok(values.finish()?)
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

    /// `aggregate` under `rule`, in the worker's scratch.
    ///
    /// Under `Robust::None` every message's header is checked first and the
    /// tile loop then reads each one's next tile of values as it adds it:
    /// no message is ever decoded whole. Under any other rule each message
    /// is decoded whole into the worker's first pooled contribution and
    /// handed to the rule's [`RobustAccumulator`]. Either way a message
    /// that does not decode is the error a message-by-message decode meets
    /// first: the plain mix that fails anywhere decodes the messages again
    /// in inbox order, a tile at a time, to find it.
    fn mix(
        &mut self,
        params: &[f32],
        self_weight: f64,
        received: &[ReceivedMessage<'_>],
        rule: Robust,
    ) -> Result<Vec<f32>> {
        let dim = params.len();
        with_scratch(|scratch| {
            if !rule.is_none() {
                let entry = &mut decode_pool(&mut scratch.decoded, 1)[0];
                entry.imply_indices();
                let decoded = &mut entry.contribution;
                decoded.values.resize(dim, 0.0);
                let mut acc = RobustAccumulator::new(params, self_weight, rule);
                for msg in received {
                    read_whole(msg.bytes, dim, &mut decoded.values)?;
                    acc.add(&*decoded, msg.weight);
                }
                let (average, stats) = acc.finish();
                self.robust_stats.absorb(stats);
                return Ok(average);
            }
            let tiles = &mut scratch.tiles;
            let mixed = (|| {
                let mut cursors = (received.iter())
                    .map(|msg| Ok((open(msg.bytes, dim)?, msg.weight)))
                    .collect::<Result<Vec<_>>>()?;
                let mut next = Vec::new();
                fold_tiles(params, self_weight, &mut cursors, tiles, &mut next)?;
                for (values, _) in cursors {
                    values.finish()?;
                }
                Ok(next)
            })();
            mixed.or_else(|error| {
                // The fold meets a late message's bad header before an
                // early message's bad block: decode again in order for the
                // first.
                let (_, _, spare) = tiles.fit(dim.min(TILE));
                for msg in received {
                    read_whole(msg.bytes, dim, spare)?;
                }
                Err(error)
            })
        })
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
        // The wire image is this call's own: copied out at its exact size,
        // it leaves nothing model-sized behind. Sized for the worst case
        // at once, it is one allocation: grown from the header it was
        // reallocated, and on `event_scale`'s 16 384 nodes the extra chunk
        // sizes cost ≈ 0.2 MiB of peak RSS.
        let count = params.len() as u64;
        let worst = varint::encoded_len(count) + BlockFloatCodec::max_encoded_len(params.len());
        let mut wire = Vec::with_capacity(worst);
        varint::write_u64(&mut wire, count);
        let header = wire.len();
        BlockFloatCodec.encode_into(params, &mut wire);
        let breakdown = ByteBreakdown {
            payload: wire.len() - header,
            metadata: header,
        };
        Ok(OutMessage::new(wire, breakdown))
    }

    fn aggregate(
        &mut self,
        _round: usize,
        params: &[f32],
        self_weight: f64,
        received: &[ReceivedMessage<'_>],
    ) -> Result<Vec<f32>> {
        self.mix(params, self_weight, received, Robust::None)
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
        self.mix(params, self_weight, received, *rule)
    }

    fn robust_stats(&mut self) -> Option<RobustStats> {
        self.robust_stats.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::average::{PartialAverager, RobustAccumulator, TILE};
    use crate::strategy::Contribution;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

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

    /// The fold this strategy used before it decoded by block: one
    /// `next_value` per coordinate into per-coordinate denominators (or,
    /// under a rule, the rule's accumulator). The oracle for
    /// [`FullSharing::aggregate`] and `aggregate_robust`, errors included.
    fn per_value_fold(
        params: &[f32],
        self_weight: f64,
        received: &[ReceivedMessage<'_>],
        rule: Robust,
    ) -> Result<Vec<f32>> {
        let mut plain = PartialAverager::new(params, self_weight);
        let mut robust =
            (!rule.is_none()).then(|| RobustAccumulator::new(params, self_weight, rule));
        for msg in received {
            let mut values = open(msg.bytes, params.len())?;
            let decoded = (0..params.len())
                .map(|_| values.next_value())
                .collect::<std::result::Result<Vec<f32>, _>>()?;
            values.finish()?;
            let decoded = Contribution {
                indices: None,
                values: decoded,
            };
            match &mut robust {
                Some(acc) => acc.add(&decoded, msg.weight),
                None => plain.add_contribution(&decoded, msg.weight),
            }
        }
        Ok(robust.map_or_else(|| plain.finish(), |acc| acc.finish().0))
    }

    /// Results by bit pattern, errors by message.
    fn outcome(result: Result<Vec<f32>>) -> std::result::Result<Vec<u32>, String> {
        result
            .map(|v| v.into_iter().map(f32::to_bits).collect())
            .map_err(|e| e.to_string())
    }

    /// How one neighbour's message is damaged before it arrives.
    #[derive(Debug, Clone, Copy)]
    enum Damage {
        None,
        /// Encoded from a vector one longer or shorter.
        WrongDimension(bool),
        /// Cut to this fraction of its length.
        Truncated(f64),
        /// One byte XORed with a non-zero mask.
        Flipped(f64, u8),
        /// One byte appended.
        Appended(u8),
    }

    fn damage() -> impl Strategy<Value = Damage> {
        prop_oneof![
            Just(Damage::None),
            any::<bool>().prop_map(Damage::WrongDimension),
            (0.0f64..1.0).prop_map(Damage::Truncated),
            (0.0f64..1.0, 1u8..=255).prop_map(|(at, mask)| Damage::Flipped(at, mask)),
            any::<u8>().prop_map(Damage::Appended),
        ]
    }

    fn damaged_message(values: &[f32], damage: Damage) -> Vec<u8> {
        let encode = |v: &[f32]| roundtrip_message(v).bytes.to_vec();
        let mut bytes = match damage {
            Damage::WrongDimension(true) => encode(&[values, &[1.0]].concat()),
            Damage::WrongDimension(false) => encode(&values[..values.len() - 1]),
            _ => encode(values),
        };
        match damage {
            Damage::Truncated(at) => bytes.truncate((bytes.len() as f64 * at) as usize),
            Damage::Flipped(at, mask) => {
                let i = ((bytes.len() as f64 * at) as usize).min(bytes.len() - 1);
                bytes[i] ^= mask;
            }
            Damage::Appended(byte) => bytes.push(byte),
            Damage::None | Damage::WrongDimension(_) => {}
        }
        bytes
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The tiled fold gives what the per-value fold gave: the same
        /// bits, or the same error, whatever a neighbour's message is —
        /// across block and tile boundaries, with a partial last block and
        /// tile, and damage in any tile.
        #[test]
        fn aggregate_matches_the_per_value_fold(
            len in prop_oneof![2usize..300, TILE - 2..TILE + 3, 2..3 * TILE + 300],
            damages in proptest::collection::vec(damage(), 0..4),
            weights in proptest::collection::vec(0.01f64..1.0, 4..5),
            median in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let own: Vec<f32> = (0..len).map(|_| any::<f32>().sample_value(&mut rng)).collect();
            let messages: Vec<Vec<u8>> = damages
                .iter()
                .enumerate()
                .map(|(j, &d)| {
                    let theirs: Vec<f32> = own.iter().map(|v| v * (j as f32 + 0.5) - 1.0).collect();
                    damaged_message(&theirs, d)
                })
                .collect();
            let received: Vec<ReceivedMessage<'_>> = messages
                .iter()
                .zip(&weights)
                .enumerate()
                .map(|(j, (bytes, &weight))| ReceivedMessage {
                    from: j + 1,
                    round: 0,
                    weight,
                    bytes,
                    decoded: None,
                })
                .collect();
            let self_weight = 1.0 - weights[..received.len()].iter().sum::<f64>() / 4.0;
            let mut s = FullSharing::new();
            s.init(&own);
            prop_assert_eq!(
                outcome(s.aggregate(0, &own, self_weight, &received)),
                outcome(per_value_fold(&own, self_weight, &received, Robust::None))
            );
            let rule = if median { Robust::Median } else { Robust::None };
            prop_assert_eq!(
                outcome(s.aggregate_robust(0, &own, self_weight, &received, &rule)),
                outcome(per_value_fold(&own, self_weight, &received, rule))
            );
        }
    }
}
