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
//! the tests).

use crate::strategy::Contribution;

/// Accumulates sparse contributions into a weighted average over `own`.
///
/// One averager can serve any number of averages: [`Self::reset`] starts the
/// next one in the buffers of the last, which is how the strategies use the
/// averager of their worker's scratch (`crate::scratch`).
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

    /// Adds one coordinate of a neighbour's contribution — the step a
    /// streaming decoder feeds. Returns `false`, adding nothing, when
    /// `index` is out of range: indices arrive off the wire, and this is
    /// where each one is checked.
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
        for ((num, den), &v) in self.num.iter_mut().zip(&mut self.den).zip(values) {
            *num += f64::from(v) * weight;
            *den += weight;
        }
    }

    /// [`Self::add_dense`] from a source that yields the contribution one
    /// coordinate at a time (a streaming float decoder), so the decoded
    /// vector is never materialised. `next` is called once per coordinate,
    /// in order.
    ///
    /// # Errors
    ///
    /// Stops at the first error `next` returns; coordinates before it have
    /// been added.
    pub fn add_dense_with<E>(
        &mut self,
        weight: f64,
        mut next: impl FnMut() -> Result<f32, E>,
    ) -> Result<(), E> {
        for (num, den) in self.num.iter_mut().zip(&mut self.den) {
            *num += f64::from(next()?) * weight;
            *den += weight;
        }
        Ok(())
    }

    /// Adds a decoded neighbour contribution with mixing weight `weight`:
    /// the same [`Self::add_one`] steps a streaming decode of its message
    /// takes, in the same order. Returns `false` when an index is out of
    /// range; the average is then not to be used.
    #[must_use = "an out-of-range index is a protocol violation to report"]
    pub fn add_contribution(&mut self, contribution: &Contribution, weight: f64) -> bool {
        let values = &contribution.values;
        match &contribution.indices {
            Some(indices) => indices
                .iter()
                .zip(values)
                .all(|(&index, &value)| self.add_one(index, value, weight)),
            // Indices `0..len`: each coordinate's `add_one` in a straight loop.
            None if values.len() <= self.num.len() => {
                for ((num, den), &v) in self.num.iter_mut().zip(&mut self.den).zip(values) {
                    *num += f64::from(v) * weight;
                    *den += weight;
                }
                true
            }
            None => false,
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    #[test]
    fn streamed_dense_contribution_equals_the_slice_form() {
        let own = [1.0f32, -2.0, 0.5];
        let theirs = [4.0f32, 0.25, -8.0];
        let mut by_slice = PartialAverager::new(&own, 0.4);
        by_slice.add_dense(&theirs, 0.6);
        let mut streamed = PartialAverager::new(&own, 0.4);
        let mut source = theirs.iter();
        streamed
            .add_dense_with(0.6, || source.next().copied().ok_or("ran dry"))
            .unwrap();
        assert_eq!(by_slice.finish(), streamed.finish());

        // A source that fails stops the fold and reports its error.
        let mut short = PartialAverager::new(&own, 0.4);
        let mut source = theirs[..2].iter();
        assert_eq!(
            short.add_dense_with(0.6, || source.next().copied().ok_or("ran dry")),
            Err("ran dry")
        );
    }

    #[test]
    #[should_panic(expected = "self weight must be positive")]
    fn zero_self_weight_rejected() {
        let _ = PartialAverager::new(&[1.0], 0.0);
    }

    proptest! {
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
