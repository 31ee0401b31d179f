//! Random-sampling sparsification (the paper's sparse baseline, §II-B2a).
//!
//! Each round a random subset of parameters of a fixed size is shared. All
//! nodes derive the subset from a **common pseudo-random generator**, so the
//! metadata reduces to a constant-size token (the round number doubles as
//! the seed) instead of an index list — the trick the paper highlights for
//! this baseline. Aggregation renormalizes weights over the shared subset.
//!
//! Note the subtlety this reproduces: with a *common* seed, all nodes share
//! the same coordinates in a given round, so the subset mixes well but the
//! remaining coordinates receive no updates that round — which is why random
//! sampling converges slower than JWINS at equal budget (Figures 4–5).

use crate::average::partial_mix_into;
use crate::scratch::{decode_pool, with_scratch};
use crate::sparsify::budget;
use crate::strategy::{ContributionView, OutMessage, ReceivedMessage, ShareStrategy};
use crate::{JwinsError, Result};
use jwins_adversary::{Robust, RobustStats};
use jwins_codec::float::{BlockFloatCodec, FloatCodec};
use jwins_codec::varint;
use jwins_net::ByteBreakdown;
use rand::seq::index::sample;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Seed-shared random subset sparsification.
#[derive(Debug)]
pub struct RandomSampling {
    /// Fraction of parameters shared every round (0.37 matches JWINS's
    /// measured budget in the paper's Table I runs).
    fraction: f64,
    /// Seed shared by the whole cluster.
    shared_seed: u64,
    dim: usize,
    robust_stats: RobustStats,
}

impl RandomSampling {
    /// Creates the strategy; `fraction` is the per-round sharing budget and
    /// `shared_seed` must be identical on every node.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < fraction <= 1`.
    pub fn new(fraction: f64, shared_seed: u64) -> Self {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "fraction must be in (0, 1]"
        );
        Self {
            fraction,
            shared_seed,
            dim: 0,
            robust_stats: RobustStats::default(),
        }
    }

    /// The common per-round index subset, ascending.
    fn round_indices(&self, round: usize) -> Vec<u32> {
        let k = budget(self.dim, self.fraction);
        let mut rng = ChaCha8Rng::seed_from_u64(
            self.shared_seed ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let mut idx: Vec<u32> = sample(&mut rng, self.dim, k)
            .into_iter()
            .map(|i| i as u32)
            .collect();
        idx.sort_unstable();
        idx
    }

    /// `aggregate` under `rule`: a message's indices are the subset of the
    /// round it was built in ([`ReceivedMessage::round`] — under event-driven
    /// gossip a neighbour's share may come from another round than the
    /// receiver's), so each decode fills in only the values. Each distinct
    /// round's subset is drawn once. The whole inbox is decoded first, in
    /// order, then mixed.
    fn mix(
        &mut self,
        params: &[f32],
        self_weight: f64,
        received: &[ReceivedMessage<'_>],
        rule: Robust,
    ) -> Result<Vec<f32>> {
        let mut subsets: Vec<(usize, Vec<u32>)> = Vec::new();
        let which: Vec<usize> = (received.iter())
            .map(|msg| {
                subsets
                    .iter()
                    .position(|&(round, _)| round == msg.round)
                    .unwrap_or_else(|| {
                        subsets.push((msg.round, self.round_indices(msg.round)));
                        subsets.len() - 1
                    })
            })
            .collect();
        with_scratch(|scratch| {
            let pool = decode_pool(&mut scratch.decoded, received.len());
            for ((msg, decoded), &k) in received.iter().zip(pool.iter_mut()).zip(&which) {
                decode(
                    msg.round,
                    msg.bytes,
                    subsets[k].1.len(),
                    &mut decoded.contribution.values,
                )?;
            }
            let parts: Vec<_> = (pool.iter().zip(received).zip(&which))
                .map(|((decoded, msg), &k)| {
                    let indices = Some(&subsets[k].1[..]);
                    let values = &decoded.contribution.values[..];
                    (ContributionView { indices, values }, msg.weight)
                })
                .collect();
            let mut next = Vec::new();
            partial_mix_into(
                params,
                self_weight,
                &parts,
                rule,
                &mut scratch.tiles,
                &mut next,
                &mut self.robust_stats,
            );
            Ok(next)
        })
    }
}

/// Decodes a neighbour's share of `round` (the message's own round stamp)
/// over `values`, checking its header against that round and the size of
/// its subset.
fn decode(round: usize, bytes: &[u8], subset: usize, values: &mut Vec<f32>) -> Result<()> {
    let (msg_round, used1) = varint::read_u64(bytes)?;
    if msg_round != round as u64 {
        return Err(JwinsError::Protocol("random-sampling round mismatch"));
    }
    let (count, used2) = varint::read_u64(&bytes[used1..])?;
    if count as usize != subset {
        return Err(JwinsError::Protocol("random-sampling subset size mismatch"));
    }
    Ok(BlockFloatCodec.decode_into(&bytes[used1 + used2..], subset, values)?)
}

impl ShareStrategy for RandomSampling {
    fn name(&self) -> &'static str {
        "random-sampling"
    }

    fn init(&mut self, params: &[f32]) {
        self.dim = params.len();
    }

    fn make_message(&mut self, round: usize, params: &[f32]) -> Result<OutMessage> {
        if self.dim == 0 {
            return Err(JwinsError::Protocol("init was not called"));
        }
        let indices = self.round_indices(round);
        let values: Vec<f32> = indices.iter().map(|&i| params[i as usize]).collect();
        let payload = BlockFloatCodec.encode(&values);
        // Metadata: just the round token — receivers regenerate the indices
        // from the common seed.
        let mut bytes = Vec::with_capacity(payload.len() + 12);
        varint::write_u64(&mut bytes, round as u64);
        varint::write_u64(&mut bytes, values.len() as u64);
        let header = bytes.len();
        bytes.extend_from_slice(&payload);
        Ok(OutMessage::new(
            bytes,
            ByteBreakdown {
                payload: payload.len(),
                metadata: header,
            },
        ))
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
        self.fraction
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

    #[test]
    fn subsets_are_common_across_nodes_and_vary_per_round() {
        let mut a = RandomSampling::new(0.3, 42);
        let mut b = RandomSampling::new(0.3, 42);
        a.init(&vec![0.0; 100]);
        b.init(&vec![0.0; 100]);
        assert_eq!(a.round_indices(0), b.round_indices(0));
        assert_ne!(a.round_indices(0), a.round_indices(1));
        assert_eq!(a.round_indices(5).len(), 30);
        let _ = (
            a.make_message(0, &vec![0.0; 100]),
            b.make_message(0, &vec![0.0; 100]),
        );
    }

    #[test]
    fn aggregate_only_touches_subset() {
        let dim = 50;
        let mut sender = RandomSampling::new(0.2, 7);
        let mut receiver = RandomSampling::new(0.2, 7);
        let theirs = vec![10.0f32; dim];
        let mine = vec![0.0f32; dim];
        sender.init(&theirs);
        receiver.init(&mine);
        let msg = sender.make_message(3, &theirs).unwrap();
        let out = receiver
            .aggregate(
                3,
                &mine,
                0.5,
                &[ReceivedMessage {
                    from: 1,
                    round: 3,
                    weight: 0.5,
                    bytes: &msg.bytes,
                    decoded: None,
                }],
            )
            .unwrap();
        let subset: std::collections::HashSet<u32> =
            receiver.round_indices(3).into_iter().collect();
        for (k, &v) in out.iter().enumerate() {
            if subset.contains(&(k as u32)) {
                assert!((v - 5.0).abs() < 1e-6, "subset coord {k}: {v}");
            } else {
                assert_eq!(v, 0.0, "untouched coord {k} changed");
            }
        }
    }

    #[test]
    fn a_message_from_another_round_mixes_at_its_own_rounds_subset() {
        use crate::average::PartialAverager;
        let dim = 64;
        let mut sender = RandomSampling::new(0.25, 9);
        let mut receiver = RandomSampling::new(0.25, 9);
        let theirs: Vec<f32> = (0..dim).map(|i| i as f32 * 0.5 - 3.0).collect();
        let mine: Vec<f32> = (0..dim).map(|i| 1.0 - i as f32 * 0.25).collect();
        sender.init(&theirs);
        receiver.init(&mine);
        // A straggler's round-2 share reaches a receiver mixing round 5.
        let stale = sender.make_message(2, &theirs).unwrap();
        let received = [ReceivedMessage {
            from: 1,
            round: 2,
            weight: 0.4,
            bytes: &stale.bytes,
            decoded: None,
        }];
        let out = receiver.aggregate(5, &mine, 0.6, &received).unwrap();
        let subset = receiver.round_indices(2);
        assert_ne!(subset, receiver.round_indices(5));
        let values: Vec<f32> = subset.iter().map(|&i| theirs[i as usize]).collect();
        let mut oracle = PartialAverager::new(&mine, 0.6);
        oracle.add_sparse(&subset, &values, 0.4);
        let expect = oracle.finish();
        assert_eq!(
            out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            expect.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn metadata_is_constant_size() {
        let mut s = RandomSampling::new(0.5, 1);
        let params = vec![1.0f32; 4000];
        s.init(&params);
        let msg = s.make_message(1000, &params).unwrap();
        assert!(msg.breakdown.metadata <= 4, "seed-only metadata expected");
    }

    #[test]
    fn round_mismatch_detected() {
        let mut s = RandomSampling::new(0.5, 1);
        let params = vec![1.0f32; 10];
        s.init(&params);
        let msg = s.make_message(1, &params).unwrap();
        assert!(s
            .aggregate(
                2,
                &params,
                0.5,
                &[ReceivedMessage {
                    from: 0,
                    round: 2,
                    weight: 0.5,
                    bytes: &msg.bytes,
                    decoded: None
                }]
            )
            .is_err());
    }

    #[test]
    #[should_panic(expected = "fraction must be in (0, 1]")]
    fn zero_fraction_rejected() {
        let _ = RandomSampling::new(0.0, 1);
    }
}
