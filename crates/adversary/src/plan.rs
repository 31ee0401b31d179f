//! Attack schedules: serde-configurable Byzantine plans expanded
//! deterministically into virtual-time attack windows.
//!
//! An [`AttackPlan`] is *generative*, exactly like `jwins_fault::FaultPlan`:
//! it expands a seed into a concrete [`AttackTimeline`] — a validated,
//! per-node list of attack windows with composable [`AttackBehavior`]s — so
//! a Byzantine cluster is exactly as reproducible as its data split. The
//! training engine consults the timeline at *message-build time*: a marked
//! node trains honestly but perturbs a **copy** of its parameters before
//! encoding the outbound message, so the attack composes with faults,
//! staleness, churn and repair (a crashed node builds no messages, hence
//! injects nothing).

use jwins_sim::{splitmix64, SimTime};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// How a Byzantine node corrupts the parameter vector it advertises.
///
/// Every behavior is *wire-valid*: the perturbed vector still encodes and
/// decodes through whatever `ShareStrategy` codec is in use, so the attack
/// poisons the mixing average instead of crashing honest decoders (byte
/// garbage is already rejected as `Err` by every strategy — see the
/// `adversarial_inputs` proptests).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum AttackBehavior {
    /// Replace the parameters with seeded uniform noise in `[-std, std]`
    /// (a garbage payload that still parses).
    Garbage {
        /// Noise half-width (`> 0`, finite).
        std: f64,
    },
    /// Advertise the negated parameters — the classic sign-flip attack.
    SignFlip,
    /// Advertise the parameters scaled by `factor` (e.g. `10.0` for a
    /// large-norm attack, `-4.0` for an amplified flip).
    Scale {
        /// Multiplier applied to every coordinate (finite).
        factor: f64,
    },
    /// Collude: drift the advertised parameters toward a target vector
    /// shared by *all* attackers (derived from the plan seed alone), moving
    /// a `rate` fraction of the way each injection.
    Drift {
        /// Per-injection step toward the target, in `(0, 1]`.
        rate: f64,
        /// Half-width of the shared target's coordinates (`> 0`, finite).
        amplitude: f64,
    },
}

impl AttackBehavior {
    /// Validates the behavior parameters.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            AttackBehavior::Garbage { std } => {
                if std > 0.0 && std.is_finite() {
                    Ok(())
                } else {
                    Err(format!("garbage std {std} must be positive and finite"))
                }
            }
            AttackBehavior::SignFlip => Ok(()),
            AttackBehavior::Scale { factor } => {
                if factor.is_finite() {
                    Ok(())
                } else {
                    Err(format!("scale factor {factor} must be finite"))
                }
            }
            AttackBehavior::Drift { rate, amplitude } => {
                if !(rate > 0.0 && rate <= 1.0) {
                    return Err(format!("drift rate {rate} outside (0, 1]"));
                }
                if amplitude > 0.0 && amplitude.is_finite() {
                    Ok(())
                } else {
                    Err(format!(
                        "drift amplitude {amplitude} must be positive and finite"
                    ))
                }
            }
        }
    }
}

/// One planned attack window: `node` behaves Byzantine over
/// `[from_s, until_s)` in virtual time. An infinite `until_s` means the
/// node never reforms.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AttackWindow {
    /// The node that turns Byzantine.
    pub node: usize,
    /// Virtual start of the window, in seconds.
    pub from_s: f64,
    /// Virtual end of the window, in seconds (`f64::INFINITY` = forever).
    pub until_s: f64,
    /// What the node does while Byzantine.
    pub behavior: AttackBehavior,
}

impl AttackWindow {
    /// A window over `[from_s, until_s)`.
    pub fn new(node: usize, from_s: f64, until_s: f64, behavior: AttackBehavior) -> Self {
        Self {
            node,
            from_s,
            until_s,
            behavior,
        }
    }

    /// A permanent attacker from `t = 0`.
    pub fn forever(node: usize, behavior: AttackBehavior) -> Self {
        Self::new(node, 0.0, f64::INFINITY, behavior)
    }
}

/// A serde-configurable Byzantine schedule.
///
/// Plans are expanded by [`AttackTimeline::expand`] deterministically in
/// `(plan, n, seed)`; the same experiment always sees the same attackers.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
#[non_exhaustive]
pub enum AttackPlan {
    /// No attackers (the degenerate plan — a strict engine no-op).
    #[default]
    None,
    /// Explicit attacker script ("node 3 sign-flips from t=10 s").
    Scripted(Vec<AttackWindow>),
    /// A seed-chosen `fraction` of nodes all attack with the same behavior
    /// over `[from_s, until_s)` — the sweep knob of the `ext_byzantine`
    /// bench.
    RandomFraction {
        /// Fraction of nodes that attack, in `[0, 1]`.
        fraction: f64,
        /// Virtual start of the attack, in seconds.
        from_s: f64,
        /// Virtual end of the attack, in seconds (`f64::INFINITY` = forever).
        until_s: f64,
        /// What the attackers do.
        behavior: AttackBehavior,
    },
}

impl AttackPlan {
    /// Whether this plan injects nothing.
    pub fn is_noop(&self) -> bool {
        match self {
            AttackPlan::None => true,
            AttackPlan::Scripted(windows) => windows.is_empty(),
            AttackPlan::RandomFraction { fraction, .. } => *fraction == 0.0,
        }
    }

    /// Validates plan parameters (node indices are checked at expansion,
    /// when the cluster size is known).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        let window = |from_s: f64, until_s: f64| {
            // NaN bounds must fail validation: `!is_finite()` covers a NaN
            // start, and `until_s` gets an explicit NaN check because the
            // plain `<=` below would silently let one through.
            if !from_s.is_finite() || from_s < 0.0 {
                return Err(format!("attack start {from_s} must be finite and >= 0"));
            }
            if until_s.is_nan() || until_s <= from_s {
                return Err(format!(
                    "attack window [{from_s}, {until_s}) must have positive length"
                ));
            }
            Ok(())
        };
        match self {
            AttackPlan::None => Ok(()),
            AttackPlan::Scripted(windows) => {
                for w in windows {
                    window(w.from_s, w.until_s)?;
                    w.behavior.validate()?;
                }
                Ok(())
            }
            AttackPlan::RandomFraction {
                fraction,
                from_s,
                until_s,
                behavior,
            } => {
                if !(0.0..=1.0).contains(fraction) {
                    return Err(format!("attacker fraction {fraction} outside [0, 1]"));
                }
                window(*from_s, *until_s)?;
                behavior.validate()
            }
        }
    }
}

/// A concrete attack window in virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Interval {
    node: usize,
    start: SimTime,
    end: SimTime,
    behavior: AttackBehavior,
}

/// A validated, expanded attack schedule: per-node non-overlapping windows,
/// queryable by time, plus the seeded perturbation each behavior applies.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AttackTimeline {
    intervals: Vec<Interval>,
    seed: u64,
}

/// Uniform draw in `[0, 1)` with 53 bits of precision.
fn uniform01(rng: &mut ChaCha8Rng) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl AttackTimeline {
    /// Expands `plan` for an `n`-node cluster, deterministically in
    /// `(plan, n, seed)`.
    ///
    /// # Errors
    ///
    /// Rejects invalid plan parameters, out-of-range node indices and
    /// per-node overlapping windows.
    pub fn expand(plan: &AttackPlan, n: usize, seed: u64) -> Result<AttackTimeline, String> {
        plan.validate()?;
        let mut intervals: Vec<Interval> = Vec::new();
        let mut push = |node: usize, from_s: f64, until_s: f64, behavior: AttackBehavior| {
            intervals.push(Interval {
                node,
                start: SimTime::from_secs_f64(from_s),
                end: SimTime::from_secs_f64(until_s),
                behavior,
            });
        };
        match plan {
            AttackPlan::None => {}
            AttackPlan::Scripted(windows) => {
                for w in windows {
                    if w.node >= n {
                        return Err(format!("attack node {} outside cluster of {n}", w.node));
                    }
                    push(w.node, w.from_s, w.until_s, w.behavior);
                }
            }
            AttackPlan::RandomFraction {
                fraction,
                from_s,
                until_s,
                behavior,
            } => {
                let count = (fraction * n as f64).round() as usize;
                let mut order: Vec<usize> = (0..n).collect();
                let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xBAD_B02);
                use rand::seq::SliceRandom;
                order.shuffle(&mut rng);
                let mut attackers: Vec<usize> = order.into_iter().take(count).collect();
                attackers.sort_unstable();
                for node in attackers {
                    push(node, *from_s, *until_s, *behavior);
                }
            }
        }
        // Per-node windows must be disjoint: overlapping behaviors at one
        // instant would be ambiguous to apply.
        intervals.sort_by_key(|iv| (iv.node, iv.start, iv.end));
        for pair in intervals.windows(2) {
            if pair[0].node == pair[1].node && pair[1].start < pair[0].end {
                return Err(format!(
                    "node {} has overlapping attack windows",
                    pair[0].node
                ));
            }
        }
        for iv in &intervals {
            if iv.end <= iv.start {
                return Err(format!(
                    "node {} attack window rounds to zero length",
                    iv.node
                ));
            }
        }
        Ok(AttackTimeline { intervals, seed })
    }

    /// Whether the timeline contains no attack windows.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// Number of attack windows.
    pub fn window_count(&self) -> usize {
        self.intervals.len()
    }

    /// Distinct nodes that attack at any point, ascending.
    pub fn attackers(&self) -> Vec<usize> {
        let mut nodes: Vec<usize> = self.intervals.iter().map(|iv| iv.node).collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    /// The behavior `node` exhibits at time `t`, if Byzantine then
    /// (windows are half-open: active on `[start, end)`).
    pub fn behavior_at(&self, node: usize, t: SimTime) -> Option<AttackBehavior> {
        self.intervals
            .iter()
            .find(|iv| iv.node == node && iv.start <= t && t < iv.end)
            .map(|iv| iv.behavior)
    }

    /// Applies `behavior` to a parameter vector copy, deterministically in
    /// `(plan seed, node, round)` — the engine calls this on the copy it
    /// feeds to message construction, never on the node's real model.
    ///
    /// Stochastic behaviors re-derive their RNG from scratch per call, so
    /// the perturbation is a pure function of its arguments (thread counts
    /// and event interleavings cannot move it).
    pub fn apply(&self, behavior: AttackBehavior, node: usize, round: usize, params: &mut [f32]) {
        apply_behavior(behavior, self.seed, node, round, params);
    }
}

/// The pure perturbation behind [`AttackTimeline::apply`], exposed for
/// property tests.
pub fn apply_behavior(
    behavior: AttackBehavior,
    seed: u64,
    node: usize,
    round: usize,
    params: &mut [f32],
) {
    match behavior {
        AttackBehavior::Garbage { std } => {
            let mut rng = ChaCha8Rng::seed_from_u64(splitmix64(
                seed ^ ((node as u64) << 17) ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ));
            for p in params.iter_mut() {
                *p = ((uniform01(&mut rng) * 2.0 - 1.0) * std) as f32;
            }
        }
        AttackBehavior::SignFlip => {
            for p in params.iter_mut() {
                *p = -*p;
            }
        }
        AttackBehavior::Scale { factor } => {
            for p in params.iter_mut() {
                *p = (f64::from(*p) * factor) as f32;
            }
        }
        AttackBehavior::Drift { rate, amplitude } => {
            // The target is shared by every attacker: it depends on the plan
            // seed and the coordinate index only.
            for (k, p) in params.iter_mut().enumerate() {
                let u =
                    splitmix64(seed ^ 0x007A_46E7 ^ (k as u64)) as f64 / (u64::MAX as f64 + 1.0);
                let target = (u * 2.0 - 1.0) * amplitude;
                *p = (f64::from(*p) + rate * (target - f64::from(*p))) as f32;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_expands_empty() {
        let t = AttackTimeline::expand(&AttackPlan::None, 8, 1).unwrap();
        assert!(t.is_empty());
        assert!(t.behavior_at(0, SimTime(123)).is_none());
        assert!(AttackPlan::None.is_noop());
        assert!(AttackPlan::Scripted(Vec::new()).is_noop());
    }

    #[test]
    fn scripted_window_is_half_open() {
        let plan = AttackPlan::Scripted(vec![AttackWindow::new(
            2,
            1.0,
            2.0,
            AttackBehavior::SignFlip,
        )]);
        let t = AttackTimeline::expand(&plan, 4, 0).unwrap();
        assert_eq!(t.window_count(), 1);
        assert_eq!(t.attackers(), vec![2]);
        assert!(t.behavior_at(2, SimTime::from_secs_f64(1.0)).is_some());
        assert!(t.behavior_at(2, SimTime::from_secs_f64(1.9)).is_some());
        assert!(t.behavior_at(2, SimTime::from_secs_f64(2.0)).is_none());
        assert!(t.behavior_at(1, SimTime::from_secs_f64(1.5)).is_none());
    }

    #[test]
    fn scripted_overlaps_and_bad_nodes_rejected() {
        let overlapping = AttackPlan::Scripted(vec![
            AttackWindow::new(1, 0.0, 2.0, AttackBehavior::SignFlip),
            AttackWindow::new(1, 1.0, 3.0, AttackBehavior::SignFlip),
        ]);
        assert!(AttackTimeline::expand(&overlapping, 4, 0).is_err());
        // Touching windows (end == next start) are fine: half-open.
        let touching = AttackPlan::Scripted(vec![
            AttackWindow::new(1, 0.0, 1.0, AttackBehavior::SignFlip),
            AttackWindow::new(1, 1.0, 2.0, AttackBehavior::Scale { factor: 2.0 }),
        ]);
        assert!(AttackTimeline::expand(&touching, 4, 0).is_ok());
        let oob = AttackPlan::Scripted(vec![AttackWindow::forever(4, AttackBehavior::SignFlip)]);
        assert!(AttackTimeline::expand(&oob, 4, 0).is_err());
    }

    #[test]
    fn random_fraction_is_deterministic_in_the_seed() {
        let plan = AttackPlan::RandomFraction {
            fraction: 0.25,
            from_s: 0.0,
            until_s: f64::INFINITY,
            behavior: AttackBehavior::SignFlip,
        };
        let a = AttackTimeline::expand(&plan, 16, 7).unwrap();
        let b = AttackTimeline::expand(&plan, 16, 7).unwrap();
        let c = AttackTimeline::expand(&plan, 16, 8).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds pick different attackers");
        assert_eq!(a.window_count(), 4);
        assert!(a
            .attackers()
            .iter()
            .all(|&node| a.behavior_at(node, SimTime::ZERO).is_some()));
    }

    #[test]
    fn plan_validation_rejects_bad_numbers() {
        assert!(AttackBehavior::Garbage { std: 0.0 }.validate().is_err());
        assert!(AttackBehavior::Scale {
            factor: f64::INFINITY
        }
        .validate()
        .is_err());
        assert!(AttackBehavior::Drift {
            rate: 1.5,
            amplitude: 1.0
        }
        .validate()
        .is_err());
        assert!(
            AttackPlan::Scripted(vec![AttackWindow::new(
                0,
                2.0,
                2.0,
                AttackBehavior::SignFlip
            )])
            .validate()
            .is_err(),
            "zero-length window"
        );
        assert!(AttackPlan::RandomFraction {
            fraction: 1.5,
            from_s: 0.0,
            until_s: 1.0,
            behavior: AttackBehavior::SignFlip,
        }
        .validate()
        .is_err());
    }

    #[test]
    fn perturbations_are_pure_functions_of_their_arguments() {
        let base: Vec<f32> = (0..32).map(|i| (i as f32 * 0.3).sin()).collect();
        for behavior in [
            AttackBehavior::Garbage { std: 2.0 },
            AttackBehavior::SignFlip,
            AttackBehavior::Scale { factor: -3.0 },
            AttackBehavior::Drift {
                rate: 0.5,
                amplitude: 1.0,
            },
        ] {
            let mut a = base.clone();
            let mut b = base.clone();
            apply_behavior(behavior, 42, 3, 5, &mut a);
            apply_behavior(behavior, 42, 3, 5, &mut b);
            assert_eq!(a, b, "{behavior:?} must be deterministic");
            assert!(a.iter().all(|v| v.is_finite()), "{behavior:?} stays finite");
            assert_ne!(a, base, "{behavior:?} actually perturbs");
        }
    }

    #[test]
    fn drift_targets_are_shared_across_attackers() {
        // Two different attackers fully drifted (rate = 1) land on the same
        // target vector — that is what "colluding" means.
        let mut a = vec![1.0f32; 16];
        let mut b = vec![-5.0f32; 16];
        let drift = AttackBehavior::Drift {
            rate: 1.0,
            amplitude: 2.0,
        };
        apply_behavior(drift, 9, 1, 0, &mut a);
        apply_behavior(drift, 9, 6, 3, &mut b);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6, "colluders diverge: {x} vs {y}");
        }
    }
}
