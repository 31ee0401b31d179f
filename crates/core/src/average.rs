//! Renormalized partial averaging of sparse vectors.
//!
//! When neighbours send only subsets of coefficients, a coefficient `k` can
//! be averaged only over the parties that actually provided it. JWINS (like
//! decentralizepy's partial-sharing models) renormalizes the Metropolis–
//! Hastings weights over those parties:
//!
//! ```text
//! x̄[k] = (w_ii·own[k] + Σ_{j sent k} w_ij·z_j[k]) / (w_ii + Σ_{j sent k} w_ij)
//! ```
//!
//! With everyone sending everything this reduces to the standard D-PSGD
//! weighted average, so full-sharing is the exact special case (verified in
//! the tests). [`DenseAverager`] is that case on its own: every coordinate's
//! denominator is then the same sum, kept once.
//!
//! [`partial_average_into`] is the sparse case a tile at a time: it takes
//! every decoded contribution at once and folds them into a [`TILE`]-sized
//! numerator and denominator on the stack, so no `f64` array as long as the
//! model is kept anywhere. [`PartialAverager`], which streams contributions
//! into two such arrays, stays as its oracle.
//!
//! The robust rules ([`RobustAccumulator`]) sit beside them. JWINS and
//! random sampling decode a whole inbox, then mix it with the tiled average
//! or the rule (`partial_mix_into`); full and quantized sharing fold each
//! decode as it comes, into the worker's [`DenseAverager`] or the rule's
//! accumulator (`Fold`).

#![warn(clippy::too_many_lines)]

pub use crate::robust::RobustAccumulator;
use crate::strategy::{Contribution, ContributionView};
use jwins_adversary::{Robust, RobustStats};

/// Coordinates [`partial_average_into`] folds at a time: its numerators and
/// denominators take 32 KiB of stack, which stays in L1 while every
/// contribution's share of the tile is added.
pub const TILE: usize = 2048;

/// The renormalized partial average of `parts` — each a decoded
/// contribution and its mixing weight, in inbox order — over `own` with its
/// self-weight, written over `out` (any content, any length).
///
/// Every coordinate sees the chain [`PartialAverager`] builds, `((own·w_ii +
/// v₁·w₁) + v₂·w₂) + …` over `((w_ii + w₁) + w₂) + …` in the order of
/// `parts`, so the result has its bits. The coordinates go a [`TILE`] at a
/// time, with a cursor per listed part: a part's indices must ascend from
/// one tile to the next (decoded indices strictly increase).
///
/// # Panics
///
/// Panics if `self_weight` is not positive, as [`PartialAverager::new`]; if
/// a part's indices and values differ in length; and if an index is out of
/// range or lies in a tile before one already passed.
pub fn partial_average_into(
    own: &[f32],
    self_weight: f64,
    parts: &[(ContributionView<'_>, f64)],
    out: &mut Vec<f32>,
) {
    assert!(self_weight > 0.0, "self weight must be positive");
    for (part, _) in parts {
        match part.indices {
            Some(indices) => assert_eq!(
                indices.len(),
                part.values.len(),
                "index/value length mismatch"
            ),
            None => assert!(part.values.len() <= own.len(), "index out of range"),
        }
    }
    out.clear();
    out.reserve(own.len());
    let mut cursors = vec![0usize; parts.len()];
    let (mut num, mut den) = ([0.0f64; TILE], [0.0f64; TILE]);
    for (tile, own) in own.chunks(TILE).enumerate() {
        let (base, n) = (tile * TILE, own.len());
        let (num, den) = (&mut num[..n], &mut den[..n]);
        for ((num, den), &v) in num.iter_mut().zip(den.iter_mut()).zip(own) {
            *num = f64::from(v) * self_weight;
            *den = self_weight;
        }
        for ((part, weight), cursor) in parts.iter().zip(&mut cursors) {
            let weight = *weight;
            let Some(indices) = part.indices else {
                let values = part.values.get(base..).unwrap_or_default();
                for ((num, den), &v) in num.iter_mut().zip(den.iter_mut()).zip(values) {
                    *num += f64::from(v) * weight;
                    *den += weight;
                }
                continue;
            };
            // One unsigned compare ends the tile's run: an index past the
            // tile, or (wrapping) before it, which the check below reports.
            let mut taken = 0;
            for (&i, &v) in indices[*cursor..].iter().zip(&part.values[*cursor..]) {
                let k = (i as usize).wrapping_sub(base);
                if k >= n {
                    break;
                }
                num[k] += f64::from(v) * weight;
                den[k] += weight;
                taken += 1;
            }
            *cursor += taken;
        }
        out.extend(num.iter().zip(den.iter()).map(|(n, d)| (n / d) as f32));
    }
    for ((part, _), &cursor) in parts.iter().zip(&cursors) {
        if let Some(&i) = part.indices.and_then(|indices| indices.get(cursor)) {
            panic!("index {i} out of range or out of order");
        }
    }
}

/// Mixes decoded `parts` over `own` under `rule`: [`partial_average_into`]
/// under `Robust::None`, the rule's [`RobustAccumulator`] under any other,
/// whose removals are added to `removed`.
pub(crate) fn partial_mix_into(
    own: &[f32],
    self_weight: f64,
    parts: &[(ContributionView<'_>, f64)],
    rule: Robust,
    out: &mut Vec<f32>,
    removed: &mut RobustStats,
) {
    if rule.is_none() {
        partial_average_into(own, self_weight, parts, out);
        return;
    }
    let mut acc = RobustAccumulator::new(own, self_weight, rule);
    for &(part, weight) in parts {
        acc.add(part, weight);
    }
    let (average, stats) = acc.finish();
    *out = average;
    removed.absorb(stats);
}

/// Accumulates sparse contributions into a weighted average over `own`, one
/// at a time, in a numerator and a denominator array as long as `own`.
///
/// No strategy mixes with it any more — [`partial_average_into`] folds the
/// same chains a tile at a time — but it is the plain statement of what
/// they compute and the oracle the tiled average is tested against. One
/// averager can serve any number of averages: [`Self::reset`] starts the
/// next one in the buffers of the last.
#[derive(Debug, Default)]
pub struct PartialAverager {
    num: Vec<f64>,
    den: Vec<f64>,
}

impl PartialAverager {
    /// Starts an average seeded with the node's own dense vector and its
    /// self-weight.
    ///
    /// # Panics
    ///
    /// Panics if `self_weight` is not positive — a node always keeps a share
    /// of its own model under Metropolis–Hastings weights.
    pub fn new(own: &[f32], self_weight: f64) -> Self {
        let mut averager = Self::default();
        averager.reset(own, self_weight);
        averager
    }

    /// [`Self::new`] in place: forgets the current average and starts one
    /// over `own`, reusing the allocations.
    ///
    /// # Panics
    ///
    /// As [`Self::new`].
    pub fn reset(&mut self, own: &[f32], self_weight: f64) {
        assert!(self_weight > 0.0, "self weight must be positive");
        self.num.clear();
        self.num
            .extend(own.iter().map(|&v| f64::from(v) * self_weight));
        self.den.clear();
        self.den.resize(own.len(), self_weight);
    }

    /// Dimension of the average.
    pub fn len(&self) -> usize {
        self.num.len()
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.num.is_empty()
    }

    /// Adds one coordinate of a neighbour's contribution. Returns `false`,
    /// adding nothing, when `index` is out of range.
    #[inline]
    #[must_use = "an out-of-range index is a protocol violation to report"]
    pub fn add_one(&mut self, index: u32, value: f32, weight: f64) -> bool {
        let i = index as usize;
        let (Some(num), Some(den)) = (self.num.get_mut(i), self.den.get_mut(i)) else {
            return false;
        };
        *num += f64::from(value) * weight;
        *den += weight;
        true
    }

    /// Adds a neighbour's sparse contribution with mixing weight `weight`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range or slices mismatch in length.
    pub fn add_sparse(&mut self, indices: &[u32], values: &[f32], weight: f64) {
        assert_eq!(indices.len(), values.len(), "index/value length mismatch");
        for (&i, &v) in indices.iter().zip(values) {
            assert!(self.add_one(i, v, weight), "index {i} out of range");
        }
    }

    /// Adds a neighbour's dense contribution (full sharing).
    ///
    /// # Panics
    ///
    /// Panics if lengths mismatch.
    pub fn add_dense(&mut self, values: &[f32], weight: f64) {
        assert_eq!(values.len(), self.num.len(), "length mismatch");
        self.add_prefix(values, weight);
    }

    /// Adds `values` at indices `0..values.len()`: each coordinate's
    /// [`Self::add_one`] in a straight loop.
    fn add_prefix(&mut self, values: &[f32], weight: f64) {
        assert!(values.len() <= self.num.len(), "index out of range");
        for ((num, den), &v) in self.num.iter_mut().zip(&mut self.den).zip(values) {
            *num += f64::from(v) * weight;
            *den += weight;
        }
    }

    /// Adds a decoded neighbour contribution with mixing weight `weight`,
    /// coordinate by coordinate in wire order.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range — the strategy's decode checks
    /// them.
    pub fn add_contribution(&mut self, contribution: &Contribution, weight: f64) {
        match &contribution.indices {
            Some(indices) => self.add_sparse(indices, &contribution.values, weight),
            None => self.add_prefix(&contribution.values, weight),
        }
    }

    /// Finishes the average.
    pub fn finish(self) -> Vec<f32> {
        let mut out = Vec::new();
        self.finish_into(&mut out);
        out
    }

    /// Writes the average over `out` (any content, any length), leaving the
    /// averager ready for [`Self::reset`].
    pub fn finish_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.extend(self.num.iter().zip(&self.den).map(|(n, d)| (n / d) as f32));
    }
}

/// A weighted average whose contributions all cover every coordinate — full
/// sharing. Each coordinate's denominator is then the same chain
/// `((w_ii + w_1) + w_2) + …`, so one `f64` stands in for
/// [`PartialAverager`]'s per-coordinate array and the result has the same
/// bits as [`PartialAverager::add_dense`] on every contribution.
#[derive(Debug, Default)]
pub struct DenseAverager {
    num: Vec<f64>,
    den: f64,
}

impl DenseAverager {
    /// Starts an average over `own` with its self-weight, reusing the
    /// allocation of the last one.
    ///
    /// # Panics
    ///
    /// Panics if `self_weight` is not positive, as [`PartialAverager::new`].
    pub fn reset(&mut self, own: &[f32], self_weight: f64) {
        assert!(self_weight > 0.0, "self weight must be positive");
        self.num.clear();
        self.num
            .extend(own.iter().map(|&v| f64::from(v) * self_weight));
        self.den = self_weight;
    }

    /// Adds a neighbour's dense contribution with mixing weight `weight`.
    ///
    /// # Panics
    ///
    /// Panics if lengths mismatch.
    pub fn add(&mut self, values: &[f32], weight: f64) {
        assert_eq!(values.len(), self.num.len(), "length mismatch");
        for (num, &v) in self.num.iter_mut().zip(values) {
            *num += f64::from(v) * weight;
        }
        self.den += weight;
    }

    /// Writes the average over `out` (any content, any length), leaving the
    /// averager ready for [`Self::reset`].
    pub fn finish_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.extend(self.num.iter().map(|n| (n / self.den) as f32));
    }
}

/// Where full and quantized sharing fold each decoded contribution as it
/// comes: a worker's [`DenseAverager`] under `Robust::None`, the rule's
/// [`RobustAccumulator`] under any other.
pub(crate) enum Fold<'a> {
    /// One denominator: every contribution covers every coordinate.
    Dense(&'a mut DenseAverager),
    /// Every contribution kept for the rule.
    Robust(RobustAccumulator),
}

impl Fold<'_> {
    /// Starts a mix over `own` with its self-weight: in this dense
    /// averager under `Robust::None`, through the rule's accumulator
    /// otherwise.
    pub(crate) fn begin(self, own: &[f32], self_weight: f64, rule: Robust) -> Self {
        match self {
            Fold::Dense(avg) if rule.is_none() => {
                avg.reset(own, self_weight);
                Fold::Dense(avg)
            }
            _ => Fold::Robust(RobustAccumulator::new(own, self_weight, rule)),
        }
    }

    /// Folds in a decoded contribution with mixing weight `weight`; the
    /// decode has checked that it covers every coordinate.
    pub(crate) fn add(&mut self, contribution: &Contribution, weight: f64) {
        match self {
            Fold::Dense(avg) => avg.add(&contribution.values, weight),
            Fold::Robust(acc) => acc.add(contribution, weight),
        }
    }

    /// Writes the average over `out` and adds what the rule removed to
    /// `removed`.
    pub(crate) fn finish_into(self, out: &mut Vec<f32>, removed: &mut RobustStats) {
        match self {
            Fold::Dense(avg) => avg.finish_into(out),
            Fold::Robust(acc) => {
                let (average, stats) = acc.finish();
                *out = average;
                removed.absorb(stats);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn reduces_to_weighted_average_when_dense() {
        let own = [1.0f32, 2.0];
        let mut avg = PartialAverager::new(&own, 0.5);
        avg.add_dense(&[3.0, 4.0], 0.25);
        avg.add_dense(&[5.0, 8.0], 0.25);
        let out = avg.finish();
        assert!((out[0] - (0.5 + 0.75 + 1.25)).abs() < 1e-6);
        assert!((out[1] - (1.0 + 1.0 + 2.0)).abs() < 1e-6);
    }

    #[test]
    fn untouched_coordinates_keep_own_value() {
        let own = [1.0f32, 2.0, 3.0];
        let mut avg = PartialAverager::new(&own, 0.2);
        avg.add_sparse(&[1], &[10.0], 0.8);
        let out = avg.finish();
        assert_eq!(out[0], 1.0);
        assert!((out[1] - (0.2 * 2.0 + 0.8 * 10.0)).abs() < 1e-6);
        assert_eq!(out[2], 3.0);
    }

    #[test]
    fn renormalization_weights_only_present_parties() {
        // Two neighbours, one sends coordinate 0, both send coordinate 1.
        let own = [0.0f32, 0.0];
        let mut avg = PartialAverager::new(&own, 0.5);
        avg.add_sparse(&[0, 1], &[4.0, 4.0], 0.25);
        avg.add_sparse(&[1], &[8.0], 0.25);
        let out = avg.finish();
        // coord 0: (0·.5 + 4·.25) / (0.75) = 4/3
        assert!((out[0] - 4.0 / 3.0).abs() < 1e-6, "{}", out[0]);
        // coord 1: (0·.5 + 4·.25 + 8·.25) / 1.0 = 3
        assert!((out[1] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn out_of_range_index_is_reported_and_adds_nothing() {
        let mut avg = PartialAverager::new(&[1.0, 2.0], 0.5);
        assert!(!avg.add_one(2, 9.0, 0.5));
        assert!(!avg.add_one(u32::MAX, 9.0, 0.5));
        assert!(avg.add_one(1, 4.0, 0.5));
        assert_eq!(avg.finish(), vec![1.0, 3.0]);
    }

    #[test]
    fn reset_reuses_the_averager_without_leaking_the_last_average() {
        let mut avg = PartialAverager::new(&[1.0, 2.0, 3.0], 0.5);
        avg.add_dense(&[3.0, 3.0, 3.0], 0.5);
        let mut out = vec![9.0; 7];
        avg.finish_into(&mut out);
        assert_eq!(out, vec![2.0, 2.5, 3.0]);
        avg.reset(&[10.0], 0.25);
        assert_eq!(avg.len(), 1);
        avg.add_sparse(&[0], &[20.0], 0.75);
        avg.finish_into(&mut out);
        assert_eq!(out, vec![17.5]);
    }

    /// Under `Robust::None` a dense fold and a partial mix are the plain
    /// averager, bit for bit; under a rule both are that rule's
    /// accumulator.
    #[test]
    fn a_fold_is_its_averager_or_its_rule() {
        let own: Vec<f32> = (0..150).map(|i| (i as f32 - 70.0) * 0.3).collect();
        let dense = Contribution {
            indices: None,
            values: own.iter().map(|v| 4.0 - v * 1.7).collect(),
        };
        let sparse = Contribution {
            indices: Some(vec![3, 7, 149]),
            values: vec![1.5, -2.0, 9.0],
        };
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut oracle = PartialAverager::new(&own, 0.4);
        oracle.add_dense(&dense.values, 0.6);
        let expected = oracle.finish();
        let mut dense_avg = DenseAverager::default();
        let mut fold = Fold::Dense(&mut dense_avg).begin(&own, 0.4, Robust::None);
        fold.add(&dense, 0.6);
        let (mut out, mut removed) = (vec![7.0; 3], RobustStats::default());
        fold.finish_into(&mut out, &mut removed);
        assert_eq!(bits(&out), bits(&expected));
        let parts = [(dense.view(), 0.6)];
        partial_mix_into(&own, 0.4, &parts, Robust::None, &mut out, &mut removed);
        assert_eq!(bits(&out), bits(&expected));
        assert!(removed.is_zero());

        let rule = Robust::NormClip { tau: 0.5 };
        let mut acc = RobustAccumulator::new(&own, 0.4, rule);
        acc.add(&dense, 0.6);
        acc.add(&sparse, 0.1);
        let (expected, stats) = acc.finish();
        let mut fold = Fold::Dense(&mut dense_avg).begin(&own, 0.4, rule);
        fold.add(&dense, 0.6);
        fold.add(&sparse, 0.1);
        let (mut out, mut removed) = (Vec::new(), RobustStats::default());
        fold.finish_into(&mut out, &mut removed);
        assert_eq!(bits(&out), bits(&expected));
        assert_eq!(removed, stats);
        assert_eq!(removed.clipped, 2);
        let parts = [(dense.view(), 0.6), (sparse.view(), 0.1)];
        let mut again = RobustStats::default();
        partial_mix_into(&own, 0.4, &parts, rule, &mut out, &mut again);
        assert_eq!(bits(&out), bits(&expected));
        assert_eq!(again, stats);
    }

    /// The tiled average reports what the streaming averager rejects: an
    /// index past the end, a prefix longer than the model, a list that
    /// steps back a tile.
    #[test]
    fn the_tiled_average_rejects_what_does_not_fit() {
        let own = vec![1.0f32; 2 * TILE + 5];
        let run = |indices: Option<&[u32]>, values: &[f32]| {
            let parts = [(ContributionView { indices, values }, 0.5)];
            std::panic::catch_unwind(|| partial_average_into(&own, 0.5, &parts, &mut Vec::new()))
                .is_err()
        };
        let end = own.len() as u32;
        assert!(run(Some(&[3, end]), &[1.0, 1.0]));
        assert!(run(Some(&[u32::MAX]), &[1.0]));
        assert!(run(None, &vec![1.0; own.len() + 1]));
        assert!(run(Some(&[TILE as u32 + 1, 4]), &[1.0, 1.0]));
        assert!(run(Some(&[1, 2]), &[1.0]));
        assert!(!run(Some(&[end - 1]), &[1.0]));
        assert!(!run(None, &own));
        // Within a tile the order is free: each coordinate still sees its
        // parts in inbox order.
        assert!(!run(Some(&[9, 4]), &[1.0, 1.0]));
    }

    #[test]
    #[should_panic(expected = "self weight must be positive")]
    fn zero_self_weight_rejected() {
        let _ = PartialAverager::new(&[1.0], 0.0);
    }

    /// An `f32` drawn so that each class the fold must carry bit for bit
    /// turns up: signed zeros, NaN, infinities, subnormals and ordinary
    /// numbers.
    fn any_class(rng: &mut ChaCha8Rng) -> f32 {
        const SPECIAL: [f32; 8] = [
            0.0,
            -0.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            1.0e-40,
            -3.0e-45,
            f32::MIN_POSITIVE,
        ];
        if rng.gen_bool(0.2) {
            SPECIAL[rng.gen_range(0..SPECIAL.len())]
        } else {
            rng.gen_range(-8.0f32..8.0)
        }
    }

    /// One neighbour's contribution over `len` coordinates of the given
    /// kind: 0 listed (random density, tile edges often in), 1 an implied
    /// prefix shorter than a tile, 2 one longer than a tile where the model
    /// allows, 3 empty (listed or implied).
    fn contribution_of_kind(kind: u8, len: usize, rng: &mut ChaCha8Rng) -> Contribution {
        let prefix = |m: usize, rng: &mut ChaCha8Rng| Contribution {
            indices: None,
            values: (0..m).map(|_| any_class(rng)).collect(),
        };
        match kind {
            0 => {
                let density = rng.gen_range(0.0..1.0);
                let edge = TILE as u32 - 1..=TILE as u32 + 1;
                let indices: Vec<u32> = (0..len as u32)
                    .filter(|i| rng.gen_bool(density) || (edge.contains(i) && rng.gen_bool(0.7)))
                    .collect();
                let values = indices.iter().map(|_| any_class(rng)).collect();
                Contribution {
                    indices: Some(indices),
                    values,
                }
            }
            1 => {
                let m = rng.gen_range(0..=len.min(TILE - 1));
                prefix(m, rng)
            }
            2 => {
                let m = if len > TILE {
                    rng.gen_range(TILE + 1..=len)
                } else {
                    len
                };
                prefix(m, rng)
            }
            _ if rng.gen_bool(0.5) => prefix(0, rng),
            _ => Contribution {
                indices: Some(Vec::new()),
                values: Vec::new(),
            },
        }
    }

    proptest! {
        /// The tiled average is the streaming averager, bit for bit:
        /// `add_contribution` in inbox order, then `finish_into`, over
        /// models from empty to three tiles and a remainder, listed,
        /// implied-prefix and empty parts, values of every class and
        /// Metropolis–Hastings or arbitrary weights.
        #[test]
        fn tiled_average_equals_the_streaming_averager(
            len in prop_oneof![0usize..40, TILE - 2..TILE + 3, 0..3 * TILE + 300],
            kinds in proptest::collection::vec(0u8..4, 0..7),
            metropolis_hastings in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let own: Vec<f32> = (0..len).map(|_| any_class(&mut rng)).collect();
            let contributions: Vec<Contribution> = kinds
                .iter()
                .map(|&kind| contribution_of_kind(kind, len, &mut rng))
                .collect();
            let own_degree = kinds.len();
            let weights: Vec<f64> = (0..own_degree)
                .map(|_| {
                    if metropolis_hastings {
                        1.0 / (1 + own_degree.max(rng.gen_range(1..8))) as f64
                    } else {
                        rng.gen_range(1e-6..4.0)
                    }
                })
                .collect();
            let self_weight = if metropolis_hastings {
                1.0 - weights.iter().sum::<f64>()
            } else {
                rng.gen_range(1e-6..4.0)
            };
            let mut oracle = PartialAverager::new(&own, self_weight);
            for (c, &w) in contributions.iter().zip(&weights) {
                oracle.add_contribution(c, w);
            }
            let (mut expected, mut got) = (vec![1.0; 3], vec![2.0; 5]);
            oracle.finish_into(&mut expected);
            let parts: Vec<_> = contributions.iter().map(Contribution::view).zip(weights).collect();
            partial_average_into(&own, self_weight, &parts, &mut got);
            prop_assert_eq!(expected.len(), got.len());
            for (k, (e, g)) in expected.iter().zip(&got).enumerate() {
                prop_assert_eq!(e.to_bits(), g.to_bits(), "coordinate {}", k);
            }
        }

        /// One denominator is the per-coordinate ones, bit for bit: the
        /// scalar fold equals `add_dense` + `finish_into` under
        /// Metropolis–Hastings weights (a node of degree `deg` keeps
        /// `1 − Σ w_ij`) and under arbitrary positive ones.
        #[test]
        fn dense_averager_equals_per_coordinate_denominators(
            own in proptest::collection::vec(any::<f32>(), 0..300),
            degrees in proptest::collection::vec(1usize..8, 0..6),
            random_weights in proptest::collection::vec(1e-6f64..4.0, 7..8),
            metropolis_hastings in any::<bool>(),
            seed in any::<u32>(),
        ) {
            let own_degree = degrees.len();
            let weights: Vec<f64> = if metropolis_hastings {
                degrees
                    .iter()
                    .map(|&d| 1.0 / (1 + own_degree.max(d)) as f64)
                    .collect()
            } else {
                random_weights[..degrees.len()].to_vec()
            };
            let self_weight = if metropolis_hastings {
                1.0 - weights.iter().sum::<f64>()
            } else {
                random_weights[6]
            };
            let contributions: Vec<Vec<f32>> = (0..degrees.len() as u32)
                .map(|j| {
                    own.iter()
                        .enumerate()
                        .map(|(i, v)| {
                            let mix = (i as u32 ^ seed).wrapping_mul(j + 3);
                            f32::from_bits(v.to_bits() ^ (mix & 0x807F_FFFF))
                        })
                        .collect()
                })
                .collect();
            let mut oracle = PartialAverager::new(&own, self_weight);
            let mut dense = DenseAverager::default();
            dense.reset(&own, self_weight);
            for (values, &w) in contributions.iter().zip(&weights) {
                oracle.add_dense(values, w);
                dense.add(values, w);
            }
            let (mut expected, mut got) = (vec![1.0; 3], vec![2.0; 5]);
            oracle.finish_into(&mut expected);
            dense.finish_into(&mut got);
            prop_assert_eq!(expected.len(), got.len());
            for (e, g) in expected.iter().zip(&got) {
                prop_assert_eq!(e.to_bits(), g.to_bits());
            }
        }

        /// Consensus safety: the average always lies inside the convex hull
        /// of the contributed values, coordinate-wise.
        #[test]
        fn average_stays_in_hull(
            pairs in proptest::collection::vec((-10.0f32..10.0, -10.0f32..10.0), 1..20),
        ) {
            let (own, theirs): (Vec<f32>, Vec<f32>) = pairs.into_iter().unzip();
            let mut avg = PartialAverager::new(&own, 0.5);
            avg.add_dense(&theirs, 0.5);
            let out = avg.finish();
            for ((o, t), r) in own.iter().zip(&theirs).zip(&out) {
                let lo = o.min(*t) - 1e-4;
                let hi = o.max(*t) + 1e-4;
                prop_assert!(*r >= lo && *r <= hi);
            }
        }
    }
}
