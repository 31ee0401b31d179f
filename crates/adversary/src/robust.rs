//! Robust aggregation rules for the mixing layer: which rule ([`Robust`])
//! and what it removed ([`RobustStats`]). The rules run beside the plain
//! average, in `jwins::average`, which documents what each keeps invariant.

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

    /// Drains the stats: what was removed since the last call, or `None`
    /// when nothing was — a strategy's `ShareStrategy::robust_stats`.
    pub fn take(&mut self) -> Option<RobustStats> {
        let stats = std::mem::take(self);
        (!stats.is_zero()).then_some(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_validation() {
        assert!(Robust::TrimmedMean { trim: 0.5 }.validate().is_err());
        assert!(Robust::TrimmedMean { trim: -0.1 }.validate().is_err());
        assert!(Robust::NormClip { tau: 0.0 }.validate().is_err());
        assert!(Robust::None.validate().is_ok());
        assert!(Robust::None.is_none() && !Robust::Median.is_none());
    }

    #[test]
    fn take_drains_once_and_skips_empty_stats() {
        let mut stats = RobustStats::default();
        assert_eq!(stats.take(), None);
        stats.absorb(RobustStats {
            clipped: 2,
            mass: 0.5,
        });
        assert_eq!(stats.take().map(|s| s.clipped), Some(2));
        assert!(stats.is_zero());
        assert_eq!(stats.take(), None);
    }
}
