//! Robust aggregation rules applied at the mixing layer.
//!
//! A [`RobustAccumulator`] is a drop-in replacement for the engine's plain
//! partial averager: strategies feed it their own parameters plus every
//! decoded neighbor contribution, and [`RobustAccumulator::finish`] applies
//! the configured [`Robust`] rule before averaging. The invariant shared
//! with `StalenessPolicy::downweight_row` is **row stochasticity**: any
//! mass a rule removes (trimmed entries, clipped norm excess) is
//! renormalized over the surviving entries — self included — so the
//! effective mixing row still sums to one and an all-honest, all-equal
//! input is a fixed point.

use serde::{Deserialize, Serialize};

/// Which robust aggregation rule the mixing layer applies.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Robust {
    /// Plain weighted averaging (the pre-existing engine behavior).
    #[default]
    None,
    /// Coordinate-wise trimmed mean: per coordinate, drop the
    /// `floor(trim * received)` largest and smallest neighbor values; their
    /// weight is renormalized over the surviving entries (self included).
    TrimmedMean {
        /// Per-side trim fraction of received contributions, in `[0, 0.5)`.
        trim: f64,
    },
    /// Coordinate-wise weighted median over self + neighbor values. A pure
    /// selection rule: no partial mass is clipped, so its
    /// [`RobustStats`] stay zero.
    Median,
    /// Per-message norm clip: a contribution's deviation from the node's
    /// own parameters is rescaled to at most `tau`; the scaled-away mass
    /// implicitly stays with the own value.
    NormClip {
        /// Maximum allowed L2 deviation from the receiver's parameters.
        tau: f64,
    },
}

impl Robust {
    /// Whether this is the plain-averaging no-op.
    pub fn is_none(&self) -> bool {
        matches!(self, Robust::None)
    }

    /// Validates rule parameters.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            Robust::None | Robust::Median => Ok(()),
            Robust::TrimmedMean { trim } => {
                if (0.0..0.5).contains(&trim) {
                    Ok(())
                } else {
                    Err(format!("trim fraction {trim} outside [0, 0.5)"))
                }
            }
            Robust::NormClip { tau } => {
                if tau > 0.0 && tau.is_finite() {
                    Ok(())
                } else {
                    Err(format!("norm-clip tau {tau} must be positive and finite"))
                }
            }
        }
    }
}

/// What a robust rule removed during one aggregation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RobustStats {
    /// Trimmed mean: coordinate entries dropped. Norm clip: messages
    /// rescaled. Median: always zero (selection removes nothing).
    pub clipped: u64,
    /// Mixing weight removed from the row and renormalized over the
    /// survivors — trimmed weight averaged over coordinates, or
    /// `Σ weight·(1−scale)` for norm clip.
    pub mass: f64,
}

impl RobustStats {
    /// Merges another aggregation's stats into this one.
    pub fn absorb(&mut self, other: RobustStats) {
        self.clipped += other.clipped;
        self.mass += other.mass;
    }

    /// Whether nothing was removed.
    pub fn is_zero(&self) -> bool {
        self.clipped == 0 && self.mass == 0.0
    }
}

/// One neighbor contribution: values over either all coordinates (dense)
/// or an explicit index set (sparse).
#[derive(Debug, Clone)]
struct Contribution {
    indices: Option<Vec<u32>>,
    values: Vec<f32>,
    weight: f64,
}

/// A partial averager with a robust rule applied at [`finish`].
///
/// The API mirrors the engine's plain averager (`new` / `add_sparse` /
/// `add_dense` / `finish`) so strategies can substitute it without
/// restructuring their decode paths. All arithmetic is in `f64`, and every
/// step is a deterministic fold over contributions **in insertion order**
/// (ties in coordinate sorts are broken by that order), so results are
/// bit-stable for bit-stable inputs.
///
/// [`finish`]: RobustAccumulator::finish
#[derive(Debug, Clone)]
pub struct RobustAccumulator {
    own: Vec<f64>,
    self_weight: f64,
    rule: Robust,
    contributions: Vec<Contribution>,
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
            own: own.iter().map(|&v| f64::from(v)).collect(),
            self_weight,
            rule,
            contributions: Vec::new(),
        }
    }

    /// Dimension of the aggregation.
    pub fn len(&self) -> usize {
        self.own.len()
    }

    /// Whether the dimension is zero.
    pub fn is_empty(&self) -> bool {
        self.own.is_empty()
    }

    /// Opens a sparse contribution and hands out its (empty) index and
    /// value lists, so a streaming decoder pushes pairs straight into the
    /// accumulator's own storage. The caller pushes equally many of each
    /// and only indices below [`Self::len`] — it validates while decoding.
    pub fn begin_sparse(&mut self, weight: f64) -> (&mut Vec<u32>, &mut Vec<f32>) {
        self.contributions.push(Contribution {
            indices: Some(Vec::new()),
            values: Vec::new(),
            weight,
        });
        let opened = self.contributions.last_mut().expect("just pushed");
        (
            opened.indices.as_mut().expect("opened as sparse"),
            &mut opened.values,
        )
    }

    /// Opens a dense contribution and hands out its (empty) value list; the
    /// caller pushes exactly [`Self::len`] values.
    pub fn begin_dense(&mut self, weight: f64) -> &mut Vec<f32> {
        self.contributions.push(Contribution {
            indices: None,
            values: Vec::new(),
            weight,
        });
        &mut self.contributions.last_mut().expect("just pushed").values
    }

    /// Adds a sparse contribution over `indices` (must be in-range and
    /// match `values` in length — the caller validates while decoding).
    pub fn add_sparse(&mut self, indices: &[u32], values: &[f32], weight: f64) {
        debug_assert_eq!(indices.len(), values.len());
        debug_assert!(indices.iter().all(|&i| (i as usize) < self.own.len()));
        let (own_indices, own_values) = self.begin_sparse(weight);
        own_indices.extend_from_slice(indices);
        own_values.extend_from_slice(values);
    }

    /// Adds a dense contribution over every coordinate.
    pub fn add_dense(&mut self, values: &[f32], weight: f64) {
        debug_assert_eq!(values.len(), self.own.len());
        self.begin_dense(weight).extend_from_slice(values);
    }

    /// Applies the rule and returns the averaged vector plus what the rule
    /// removed.
    pub fn finish(mut self) -> (Vec<f32>, RobustStats) {
        match self.rule {
            Robust::None => (self.finish_plain(), RobustStats::default()),
            Robust::NormClip { tau } => {
                let stats = self.clip_norms(tau);
                (self.finish_plain(), stats)
            }
            Robust::TrimmedMean { trim } => self.finish_trimmed(trim),
            Robust::Median => (self.finish_median(), RobustStats::default()),
        }
    }

    /// Plain partial averaging: exactly the engine's default mixing.
    fn finish_plain(&self) -> Vec<f32> {
        let dim = self.own.len();
        let mut num: Vec<f64> = self.own.iter().map(|&v| v * self.self_weight).collect();
        let mut den = vec![self.self_weight; dim];
        for c in &self.contributions {
            match &c.indices {
                Some(indices) => {
                    for (&i, &v) in indices.iter().zip(&c.values) {
                        num[i as usize] += f64::from(v) * c.weight;
                        den[i as usize] += c.weight;
                    }
                }
                None => {
                    for (k, &v) in c.values.iter().enumerate() {
                        num[k] += f64::from(v) * c.weight;
                        den[k] += c.weight;
                    }
                }
            }
        }
        num.iter()
            .zip(&den)
            .map(|(&n, &d)| (n / d) as f32)
            .collect()
    }

    /// Rescales each contribution's deviation from `own` to L2 norm at
    /// most `tau`. Weights are untouched, so row sums are trivially
    /// preserved; the clipped-away deviation stays at the own value.
    fn clip_norms(&mut self, tau: f64) -> RobustStats {
        let mut stats = RobustStats::default();
        for c in &mut self.contributions {
            let norm_sq: f64 = match &c.indices {
                Some(indices) => indices
                    .iter()
                    .zip(&c.values)
                    .map(|(&i, &v)| {
                        let d = f64::from(v) - self.own[i as usize];
                        d * d
                    })
                    .sum(),
                None => c
                    .values
                    .iter()
                    .enumerate()
                    .map(|(k, &v)| {
                        let d = f64::from(v) - self.own[k];
                        d * d
                    })
                    .sum(),
            };
            let norm = norm_sq.sqrt();
            if norm <= tau || norm == 0.0 {
                continue;
            }
            let scale = tau / norm;
            stats.clipped += 1;
            stats.mass += c.weight * (1.0 - scale);
            match &c.indices {
                Some(indices) => {
                    for (&i, v) in indices.iter().zip(c.values.iter_mut()) {
                        let own = self.own[i as usize];
                        *v = (own + (f64::from(*v) - own) * scale) as f32;
                    }
                }
                None => {
                    for (k, v) in c.values.iter_mut().enumerate() {
                        let own = self.own[k];
                        *v = (own + (f64::from(*v) - own) * scale) as f32;
                    }
                }
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
        for (k, entries) in per_coord.into_iter().enumerate() {
            // Entries are (value, weight) in insertion order; sort by value
            // with insertion order as the deterministic tiebreak.
            let mut sorted: Vec<(usize, f64, f64)> = entries
                .into_iter()
                .enumerate()
                .map(|(ord, (v, w))| (ord, v, w))
                .collect();
            sorted.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            let m = sorted.len();
            let cut = ((trim * m as f64).floor() as usize).min(m / 2);
            let mut num = self.own[k] * self.self_weight;
            let mut den = self.self_weight;
            for (pos, &(_, v, w)) in sorted.iter().enumerate() {
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
            let mut sorted: Vec<(usize, f64, f64)> =
                std::iter::once((self.own[k], self.self_weight))
                    .chain(entries)
                    .enumerate()
                    .map(|(ord, (v, w))| (ord, v, w))
                    .collect();
            sorted.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            let total: f64 = sorted.iter().map(|&(_, _, w)| w).sum();
            let mut acc = 0.0f64;
            let mut pick = sorted[sorted.len() - 1].1;
            for &(_, v, w) in &sorted {
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
        for c in &self.contributions {
            match &c.indices {
                Some(indices) => {
                    for (&i, &v) in indices.iter().zip(&c.values) {
                        per[i as usize].push((f64::from(v), c.weight));
                    }
                }
                None => {
                    for (k, &v) in c.values.iter().enumerate() {
                        per[k].push((f64::from(v), c.weight));
                    }
                }
            }
        }
        per
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(own: &[f32], rule: Robust) -> RobustAccumulator {
        RobustAccumulator::new(own, 1.0, rule)
    }

    #[test]
    fn none_matches_plain_partial_average() {
        let mut a = acc(&[1.0, 2.0], Robust::None);
        a.add_dense(&[3.0, 4.0], 1.0);
        a.add_sparse(&[1], &[8.0], 2.0);
        let (out, stats) = a.finish();
        assert!(stats.is_zero());
        assert!((out[0] - 2.0).abs() < 1e-6);
        // Coord 1: (2 + 4 + 16) / (1 + 1 + 2) = 5.5.
        assert!((out[1] - 5.5).abs() < 1e-6);
    }

    #[test]
    fn trimmed_mean_drops_the_outlier_and_keeps_the_row_sum() {
        let mut a = acc(&[0.0], Robust::TrimmedMean { trim: 0.34 });
        a.add_dense(&[0.1], 1.0);
        a.add_dense(&[100.0], 1.0); // Byzantine outlier.
        a.add_dense(&[-0.1], 1.0);
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
            a.add_dense(&[7.0, 7.0, 7.0], 0.5);
        }
        let (out, _) = a.finish();
        for v in out {
            assert!((v - 7.0).abs() < 1e-6, "row sum not preserved: {v}");
        }
    }

    #[test]
    fn median_resists_a_minority_of_extremes() {
        let mut a = acc(&[0.0], Robust::Median);
        a.add_dense(&[0.2], 1.0);
        a.add_dense(&[-0.2], 1.0);
        a.add_dense(&[1.0e6], 1.0);
        let (out, stats) = a.finish();
        assert!(out[0].abs() <= 0.2, "median dragged to {}", out[0]);
        assert!(stats.is_zero(), "median is a pure selection");
    }

    #[test]
    fn norm_clip_caps_the_deviation_and_counts_messages() {
        let own = [0.0f32, 0.0];
        let mut a = acc(&own, Robust::NormClip { tau: 1.0 });
        a.add_dense(&[3.0, 4.0], 1.0); // Deviation norm 5 -> scaled by 0.2.
        a.add_dense(&[0.3, 0.4], 1.0); // Within tau: untouched.
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
        a.add_sparse(&[0], &[3.0], 1.0);
        let (out, _) = a.finish();
        // Coord 1 saw no neighbors: stays at own value exactly.
        assert!((out[0] - 2.0).abs() < 1e-6);
        assert!((out[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn rule_validation() {
        assert!(Robust::TrimmedMean { trim: 0.5 }.validate().is_err());
        assert!(Robust::TrimmedMean { trim: -0.1 }.validate().is_err());
        assert!(Robust::NormClip { tau: 0.0 }.validate().is_err());
        assert!(Robust::None.validate().is_ok());
        assert!(Robust::None.is_none() && !Robust::Median.is_none());
    }
}
