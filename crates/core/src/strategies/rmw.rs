//! Random model walk (RMW) — single-neighbour full-model gossip.
//!
//! The paper's background names RMW as the other canonical DL communication
//! pattern next to D-PSGD: models are "shared with all (e.g., D-PSGD) or a
//! subset of neighbors (e.g., random model walk (RMW))", aggregated "by
//! performing a plain (RMW) or weighted averaging (D-PSGD)" (§II-A). This
//! strategy implements it: every round the node sends its *full* model to
//! **one** uniformly chosen neighbour and plainly averages whatever models
//! arrive with its own.
//!
//! RMW spends the full-sharing payload on a single edge, so its per-round
//! traffic is `1/d` of D-PSGD full-sharing — a useful third point between
//! full-sharing and sparsification when comparing byte budgets. Mixing is
//! slower and, because plain averaging is not doubly stochastic, the
//! cluster mean wanders (unlike the Metropolis–Hastings strategies).

use crate::strategy::{OutMessage, Outbound, ReceivedMessage, ShareStrategy};
use crate::{JwinsError, Result};
use jwins_codec::float::{BlockFloatCodec, FloatCodec};
use jwins_net::ByteBreakdown;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The random-model-walk sharing strategy (one instance per node).
///
/// # Example
///
/// ```
/// use jwins::strategies::RandomModelWalk;
/// use jwins::strategy::{Outbound, ShareStrategy};
///
/// # fn main() -> jwins::Result<()> {
/// let mut node = RandomModelWalk::new(7);
/// let params = vec![0.25_f32; 64];
/// node.init(&params);
/// let Outbound::PerEdge(messages) = node.make_outbound(0, &params, &[3, 5, 8])? else {
///     unreachable!("RMW is edge-based");
/// };
/// // The full model goes to exactly one of the three neighbours.
/// assert_eq!(messages.iter().flatten().count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct RandomModelWalk {
    rng: ChaCha8Rng,
    codec: BlockFloatCodec,
    pending_round: Option<usize>,
    dim: usize,
}

impl RandomModelWalk {
    /// Creates a node-local instance; `seed` drives this node's neighbour
    /// choice and should differ across nodes.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: ChaCha8Rng::seed_from_u64(seed),
            codec: BlockFloatCodec,
            pending_round: None,
            dim: 0,
        }
    }
}

impl ShareStrategy for RandomModelWalk {
    fn name(&self) -> &'static str {
        "random-model-walk"
    }

    fn init(&mut self, params: &[f32]) {
        self.dim = params.len();
        self.pending_round = None;
    }

    fn make_message(&mut self, _round: usize, _params: &[f32]) -> Result<OutMessage> {
        Err(JwinsError::Protocol(
            "random model walk is edge-based; the engine must call make_outbound",
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
        if self.pending_round.is_some() {
            return Err(JwinsError::Protocol(
                "make_outbound called twice in a round",
            ));
        }
        self.pending_round = Some(round);
        let mut messages: Vec<Option<OutMessage>> = vec![None; neighbors.len()];
        if !neighbors.is_empty() {
            let target = self.rng.gen_range(0..neighbors.len());
            let bytes = self.codec.encode(params);
            let breakdown = ByteBreakdown {
                payload: bytes.len(),
                metadata: 0,
            };
            messages[target] = Some(OutMessage::new(bytes, breakdown));
        }
        Ok(Outbound::PerEdge(messages))
    }

    fn aggregate(
        &mut self,
        round: usize,
        params: &[f32],
        _self_weight: f64,
        received: &[ReceivedMessage<'_>],
    ) -> Result<Vec<f32>> {
        match self.pending_round.take() {
            Some(r) if r == round => {}
            Some(_) => return Err(JwinsError::Protocol("round number mismatch")),
            None => return Err(JwinsError::Protocol("aggregate before make_outbound")),
        }
        if received.is_empty() {
            return Ok(params.to_vec());
        }
        // Plain (unweighted) averaging over own model and every walker that
        // arrived — the RMW aggregation of §II-A.
        let mut sum: Vec<f64> = params.iter().map(|&v| f64::from(v)).collect();
        for msg in received {
            let values = self.codec.decode(msg.bytes, self.dim)?;
            if values.len() != self.dim {
                return Err(JwinsError::Protocol("model dimension mismatch"));
            }
            for (s, v) in sum.iter_mut().zip(values) {
                *s += f64::from(v);
            }
        }
        let scale = 1.0 / (received.len() + 1) as f64;
        Ok(sum.into_iter().map(|s| (s * scale) as f32).collect())
    }

    fn last_alpha(&self) -> f64 {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sends_to_exactly_one_neighbor() {
        let mut s = RandomModelWalk::new(3);
        let x = vec![1.0f32; 32];
        s.init(&x);
        for round in 0..10 {
            let out = s.make_outbound(round, &x, &[1, 2, 3, 4]).unwrap();
            let Outbound::PerEdge(msgs) = out else {
                panic!("RMW must be per-edge")
            };
            assert_eq!(msgs.len(), 4);
            assert_eq!(msgs.iter().filter(|m| m.is_some()).count(), 1);
            let _ = s.aggregate(round, &x, 1.0, &[]).unwrap();
        }
    }

    #[test]
    fn choice_covers_all_neighbors_over_time() {
        let mut s = RandomModelWalk::new(7);
        let x = vec![0.5f32; 8];
        s.init(&x);
        let mut hit = [false; 3];
        for round in 0..60 {
            let Outbound::PerEdge(msgs) = s.make_outbound(round, &x, &[5, 6, 7]).unwrap() else {
                panic!()
            };
            let pos = msgs.iter().position(Option::is_some).unwrap();
            hit[pos] = true;
            let _ = s.aggregate(round, &x, 1.0, &[]).unwrap();
        }
        assert!(
            hit.iter().all(|&h| h),
            "some neighbour never chosen: {hit:?}"
        );
    }

    #[test]
    fn plain_averaging_of_received_walkers() {
        let mut a = RandomModelWalk::new(1);
        let mut b = RandomModelWalk::new(2);
        let xa = vec![0.0f32, 2.0];
        let xb = vec![4.0f32, 0.0];
        a.init(&xa);
        b.init(&xb);
        let _ = a.make_outbound(0, &xa, &[1]).unwrap();
        let Outbound::PerEdge(mut msgs) = b.make_outbound(0, &xb, &[0]).unwrap() else {
            panic!()
        };
        let msg = msgs.remove(0).unwrap();
        let out = a
            .aggregate(
                0,
                &xa,
                0.5,
                &[ReceivedMessage {
                    from: 1,
                    round: 0,
                    weight: 0.5,
                    edge_weight: 0.5,
                    bytes: &msg.bytes,
                    decoded: None,
                }],
            )
            .unwrap();
        assert_eq!(out, vec![2.0, 1.0], "plain mean of own and received");
    }

    #[test]
    fn no_walker_means_no_change() {
        let mut s = RandomModelWalk::new(9);
        let x = vec![1.0f32, -1.0, 0.25];
        s.init(&x);
        let _ = s.make_outbound(0, &x, &[]).unwrap();
        assert_eq!(s.aggregate(0, &x, 1.0, &[]).unwrap(), x);
    }

    #[test]
    fn protocol_violations_are_errors() {
        let mut s = RandomModelWalk::new(1);
        let x = vec![1.0f32; 4];
        assert!(s.make_outbound(0, &x, &[1]).is_err(), "missing init");
        s.init(&x);
        assert!(s.make_message(0, &x).is_err(), "broadcast path rejected");
        assert!(s.aggregate(0, &x, 1.0, &[]).is_err(), "aggregate first");
        let _ = s.make_outbound(0, &x, &[1]).unwrap();
        assert!(
            s.make_outbound(0, &x, &[1]).is_err(),
            "double make_outbound"
        );
    }

    #[test]
    fn corrupt_walker_rejected() {
        let mut s = RandomModelWalk::new(1);
        let x = vec![1.0f32; 16];
        s.init(&x);
        let _ = s.make_outbound(0, &x, &[1]).unwrap();
        let garbage = [1u8, 2, 3];
        assert!(s
            .aggregate(
                0,
                &x,
                1.0,
                &[ReceivedMessage {
                    from: 1,
                    round: 0,
                    weight: 1.0,
                    edge_weight: 1.0,
                    bytes: &garbage,
                    decoded: None
                }]
            )
            .is_err());
    }
}
