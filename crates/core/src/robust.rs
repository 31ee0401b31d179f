//! The robust aggregation rules, beside the plain average.
//!
//! A [`RobustAccumulator`] is where a mix goes when its rule is not
//! `Robust::None` (see `crate::average`): it keeps every decoded
//! neighbour contribution, and [`RobustAccumulator::finish`] applies the
//! configured [`Robust`] rule before averaging. `Robust::None` and
//! `Robust::NormClip` then average with the same [`partial_average_into`]
//! the plain sparse mixes use. The invariant shared with
//! `StalenessPolicy::downweight_row` is **row stochasticity**: any mass a
//! rule removes (trimmed entries, clipped norm excess) is renormalized over
//! the surviving entries — self included — so the effective mixing row
//! still sums to one and an all-honest, all-equal input is a fixed point.

#![warn(clippy::too_many_lines)]

use crate::average::partial_average_into;
use crate::strategy::{Contribution, ContributionView};
use jwins_adversary::{Robust, RobustStats};

/// A partial average with a robust rule applied at [`finish`].
///
/// All rule arithmetic is in `f64`, and every step is a deterministic fold
/// over contributions **in insertion order** (ties in coordinate sorts are
/// broken by that order), so results are bit-stable for bit-stable inputs.
///
/// [`finish`]: RobustAccumulator::finish
#[derive(Debug, Clone)]
pub struct RobustAccumulator {
    own: Vec<f32>,
    self_weight: f64,
    rule: Robust,
    contributions: Vec<(Contribution, f64)>,
}

impl RobustAccumulator {
    /// Starts an aggregation from the node's own parameter vector.
    ///
    /// # Panics
    ///
    /// Panics when `self_weight` is not strictly positive (a zero self
    /// weight would leave trimmed mass with nowhere to go) or the rule is
    /// invalid — both are rejected much earlier at config validation.
    pub fn new(own: &[f32], self_weight: f64, rule: Robust) -> Self {
        assert!(
            self_weight > 0.0,
            "robust aggregation requires positive self weight, got {self_weight}"
        );
        rule.validate()
            .expect("robust rule validated at config time");
        Self {
            own: own.to_vec(),
            self_weight,
            rule,
            contributions: Vec::new(),
        }
    }

    /// Adds a decoded neighbour contribution with mixing weight `weight`,
    /// copied. Its indices must be in range — the strategy's decode checks
    /// them.
    pub fn add<'a>(&mut self, contribution: impl Into<ContributionView<'a>>, weight: f64) {
        let ContributionView { indices, values } = contribution.into();
        let contribution = Contribution {
            indices: indices.map(<[u32]>::to_vec),
            values: values.to_vec(),
        };
        self.contributions.push((contribution, weight));
    }

    /// Applies the rule and returns the averaged vector plus what the rule
    /// removed.
    pub fn finish(mut self) -> (Vec<f32>, RobustStats) {
        match self.rule {
            Robust::TrimmedMean { trim } => self.finish_trimmed(trim),
            Robust::Median => (self.finish_median(), RobustStats::default()),
            Robust::NormClip { tau } => {
                let stats = self.clip_norms(tau);
                (self.average(), stats)
            }
            Robust::None => (self.average(), RobustStats::default()),
            rule => unimplemented!("no robust aggregation for {rule:?}"),
        }
    }

    /// Plain partial averaging: exactly the engine's default mixing.
    fn average(&self) -> Vec<f32> {
        let parts: Vec<_> = (self.contributions.iter())
            .map(|(c, weight)| (c.view(), *weight))
            .collect();
        let mut out = Vec::new();
        partial_average_into(&self.own, self.self_weight, &parts, &mut out);
        out
    }

    /// Rescales each contribution's deviation from `own` to L2 norm at
    /// most `tau`. Weights are untouched, so row sums are trivially
    /// preserved; the clipped-away deviation stays at the own value.
    fn clip_norms(&mut self, tau: f64) -> RobustStats {
        let own = |c: &Contribution, k: usize| f64::from(self.own[index(c, k)]);
        let mut stats = RobustStats::default();
        for (c, weight) in &mut self.contributions {
            let norm_sq: f64 = (c.values.iter().enumerate())
                .map(|(k, &v)| {
                    let d = f64::from(v) - own(c, k);
                    d * d
                })
                .sum();
            let norm = norm_sq.sqrt();
            if norm <= tau || norm == 0.0 {
                continue;
            }
            let scale = tau / norm;
            stats.clipped += 1;
            stats.mass += *weight * (1.0 - scale);
            for k in 0..c.values.len() {
                let own = own(c, k);
                c.values[k] = (own + (f64::from(c.values[k]) - own) * scale) as f32;
            }
        }
        stats
    }

    /// Coordinate-wise trimmed mean. Per coordinate the `floor(trim * m)`
    /// smallest and largest of the `m` neighbor values present there are
    /// dropped and their weight is renormalized over the survivors (self
    /// entry included), so the effective row still sums to
    /// `self_weight + Σ present weights`. Renormalizing — rather than
    /// handing the trimmed weight to the self entry — keeps the mixing
    /// rate independent of the trim depth: a deep trim on an honest
    /// cluster still averages the kept center instead of freezing every
    /// node near its own model.
    fn finish_trimmed(self, trim: f64) -> (Vec<f32>, RobustStats) {
        let dim = self.own.len();
        let per_coord = self.per_coordinate();
        let mut out = vec![0.0f32; dim];
        let mut stats = RobustStats::default();
        for (k, mut sorted) in per_coord.into_iter().enumerate() {
            // Entries are (value, weight) in insertion order; a stable sort
            // by value keeps that order as the deterministic tiebreak.
            sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
            let m = sorted.len();
            let cut = ((trim * m as f64).floor() as usize).min(m / 2);
            let mut num = f64::from(self.own[k]) * self.self_weight;
            let mut den = self.self_weight;
            for (pos, &(v, w)) in sorted.iter().enumerate() {
                if pos < cut || pos >= m - cut {
                    stats.clipped += 1;
                    stats.mass += w;
                } else {
                    num += v * w;
                    den += w;
                }
            }
            out[k] = (num / den) as f32;
        }
        // Mass is per-coordinate weight; report it averaged over the
        // dimension so it is comparable to a per-message weight.
        if dim > 0 {
            stats.mass /= dim as f64;
        }
        (out, stats)
    }

    /// Coordinate-wise weighted median over self + present neighbors:
    /// the smallest value whose cumulative weight reaches half the total.
    fn finish_median(self) -> Vec<f32> {
        let dim = self.own.len();
        let per_coord = self.per_coordinate();
        let mut out = vec![0.0f32; dim];
        for (k, entries) in per_coord.into_iter().enumerate() {
            let mut sorted: Vec<(f64, f64)> =
                std::iter::once((f64::from(self.own[k]), self.self_weight))
                    .chain(entries)
                    .collect();
            sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
            let total: f64 = sorted.iter().map(|&(_, w)| w).sum();
            let mut acc = 0.0f64;
            let mut pick = sorted[sorted.len() - 1].0;
            for &(v, w) in &sorted {
                acc += w;
                if acc >= total / 2.0 {
                    pick = v;
                    break;
                }
            }
            out[k] = pick as f32;
        }
        out
    }

    /// Neighbor `(value, weight)` entries per coordinate, in contribution
    /// insertion order.
    fn per_coordinate(&self) -> Vec<Vec<(f64, f64)>> {
        let mut per: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.own.len()];
        for (c, weight) in &self.contributions {
            for (k, &v) in c.values.iter().enumerate() {
                per[index(c, k)].push((f64::from(v), *weight));
            }
        }
        per
    }
}

/// The coordinate of a contribution's `k`-th value.
fn index(c: &Contribution, k: usize) -> usize {
    c.indices.as_ref().map_or(k, |indices| indices[k] as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(own: &[f32], rule: Robust) -> RobustAccumulator {
        RobustAccumulator::new(own, 1.0, rule)
    }

    fn dense(values: &[f32]) -> Contribution {
        Contribution {
            indices: None,
            values: values.to_vec(),
        }
    }

    fn sparse(indices: &[u32], values: &[f32]) -> Contribution {
        Contribution {
            indices: Some(indices.to_vec()),
            values: values.to_vec(),
        }
    }

    #[test]
    fn none_matches_plain_partial_average() {
        let mut a = acc(&[1.0, 2.0], Robust::None);
        a.add(&dense(&[3.0, 4.0]), 1.0);
        a.add(&sparse(&[1], &[8.0]), 2.0);
        let (out, stats) = a.finish();
        assert!(stats.is_zero());
        assert!((out[0] - 2.0).abs() < 1e-6);
        // Coord 1: (2 + 4 + 16) / (1 + 1 + 2) = 5.5.
        assert!((out[1] - 5.5).abs() < 1e-6);
    }

    #[test]
    fn trimmed_mean_drops_the_outlier_and_keeps_the_row_sum() {
        let mut a = acc(&[0.0], Robust::TrimmedMean { trim: 0.34 });
        a.add(&dense(&[0.1]), 1.0);
        a.add(&dense(&[100.0]), 1.0); // Byzantine outlier.
        a.add(&dense(&[-0.1]), 1.0);
        let (out, stats) = a.finish();
        // One trimmed per side (floor(0.34 * 3) = 1): 100.0 and -0.1 go,
        // the survivors renormalize. Result (0*1 + 0.1*1) / 2.
        assert!((out[0] - 0.05).abs() < 1e-6, "got {}", out[0]);
        assert_eq!(stats.clipped, 2);
        assert!((stats.mass - 2.0).abs() < 1e-12);
    }

    #[test]
    fn trimmed_mean_constant_input_is_a_fixed_point() {
        let mut a = acc(&[7.0, 7.0, 7.0], Robust::TrimmedMean { trim: 0.4 });
        for _ in 0..5 {
            a.add(&dense(&[7.0, 7.0, 7.0]), 0.5);
        }
        let (out, _) = a.finish();
        for v in out {
            assert!((v - 7.0).abs() < 1e-6, "row sum not preserved: {v}");
        }
    }

    #[test]
    fn median_resists_a_minority_of_extremes() {
        let mut a = acc(&[0.0], Robust::Median);
        a.add(&dense(&[0.2]), 1.0);
        a.add(&dense(&[-0.2]), 1.0);
        a.add(&dense(&[1.0e6]), 1.0);
        let (out, stats) = a.finish();
        assert!(out[0].abs() <= 0.2, "median dragged to {}", out[0]);
        assert!(stats.is_zero(), "median is a pure selection");
    }

    #[test]
    fn norm_clip_caps_the_deviation_and_counts_messages() {
        let own = [0.0f32, 0.0];
        let mut a = acc(&own, Robust::NormClip { tau: 1.0 });
        a.add(&dense(&[3.0, 4.0]), 1.0); // Deviation norm 5 -> scaled by 0.2.
        a.add(&dense(&[0.3, 0.4]), 1.0); // Within tau: untouched.
        let (out, stats) = a.finish();
        assert_eq!(stats.clipped, 1);
        assert!((stats.mass - 0.8).abs() < 1e-9);
        // Clipped contribution becomes (0.6, 0.8): out = (0.6+0.3)/3 etc.
        assert!((out[0] - 0.3).abs() < 1e-6);
        assert!((out[1] - 0.4).abs() < 1e-6);
    }

    #[test]
    fn sparse_coordinates_only_mix_where_present() {
        let mut a = acc(&[1.0, 1.0], Robust::TrimmedMean { trim: 0.4 });
        a.add(&sparse(&[0], &[3.0]), 1.0);
        let (out, _) = a.finish();
        // Coord 1 saw no neighbors: stays at own value exactly.
        assert!((out[0] - 2.0).abs() < 1e-6);
        assert!((out[1] - 1.0).abs() < 1e-6);
    }
}
