//! Node participation models: churn, dropouts and scripted outages
//! (extension).
//!
//! The paper argues that because JWINS keeps no per-neighbour state, it is
//! "more memory-efficient, and flexible to nodes leaving and joining" than
//! replica-based schemes like CHOCO-SGD (§V). The original evaluation never
//! exercises that claim; this module makes it testable. A
//! [`ParticipationModel`] decides which nodes are active each round: inactive
//! nodes neither train nor communicate, and messages are never delivered to
//! them — exactly the observable behaviour of a process that went away and
//! later rejoined with its last local model.
//!
//! The `ext_churn` bench compares JWINS, full-sharing and CHOCO-SGD under
//! random dropout.

use std::fmt;

/// Decides, deterministically, which nodes participate in which rounds.
///
/// # Example
///
/// ```
/// use jwins::participation::{Outage, ParticipationModel, ScriptedOutages};
///
/// let schedule = ScriptedOutages::default().with_outage(Outage::new(2, 10, 20));
/// assert!(schedule.is_active(9, 2));
/// assert!(!schedule.is_active(10, 2));
/// assert_eq!(schedule.active_set(15, 4), vec![0, 1, 3]);
/// ```
pub trait ParticipationModel: Send + Sync {
    /// Whether `node` is active in `round`. Must be deterministic.
    fn is_active(&self, round: usize, node: usize) -> bool;

    /// Stable name for experiment output.
    fn name(&self) -> &'static str;

    /// The active subset of `0..nodes` for `round`.
    fn active_set(&self, round: usize, nodes: usize) -> Vec<usize> {
        (0..nodes).filter(|&v| self.is_active(round, v)).collect()
    }
}

/// Every node participates in every round (the paper's setting).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AlwaysOn;

impl ParticipationModel for AlwaysOn {
    fn is_active(&self, _round: usize, _node: usize) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "always-on"
    }
}

/// Each node independently drops out of each round with probability `p`
/// (deterministic in `(seed, round, node)`).
///
/// # Example
///
/// ```
/// use jwins::participation::{ParticipationModel, RandomDropout};
///
/// let churn = RandomDropout::new(0.3, 7);
/// let active: usize = (0..100).filter(|&r| churn.is_active(r, 5)).count();
/// assert!((55..85).contains(&active), "~70% of rounds active");
/// ```
///
/// Node 0 is kept always-on so the cluster never goes fully dark, which
/// keeps small-n experiments meaningful.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomDropout {
    dropout: f64,
    seed: u64,
}

impl RandomDropout {
    /// Creates the model with per-round dropout probability `dropout`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= dropout < 1`.
    pub fn new(dropout: f64, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&dropout),
            "dropout probability must be in [0, 1)"
        );
        Self { dropout, seed }
    }

    /// The configured dropout probability.
    pub fn dropout(&self) -> f64 {
        self.dropout
    }

    fn hash(&self, round: usize, node: usize) -> u64 {
        // SplitMix64 over (seed, round, node).
        let mut z = self
            .seed
            .wrapping_add((round as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add((node as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl ParticipationModel for RandomDropout {
    fn is_active(&self, round: usize, node: usize) -> bool {
        if node == 0 {
            return true;
        }
        let u = self.hash(round, node) as f64 / u64::MAX as f64;
        u >= self.dropout
    }

    fn name(&self) -> &'static str {
        "random-dropout"
    }
}

/// A planned absence of one node over a half-open round interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outage {
    /// The node that goes away.
    pub node: usize,
    /// First round of the outage (inclusive).
    pub from_round: usize,
    /// First round after the outage (exclusive).
    pub until_round: usize,
}

impl Outage {
    /// Builds an outage, validating the interval.
    ///
    /// # Panics
    ///
    /// Panics if `from_round >= until_round`.
    pub fn new(node: usize, from_round: usize, until_round: usize) -> Self {
        assert!(
            from_round < until_round,
            "outage interval must be non-empty"
        );
        Self {
            node,
            from_round,
            until_round,
        }
    }
}

impl fmt::Display for Outage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "node {} down for rounds [{}, {})",
            self.node, self.from_round, self.until_round
        )
    }
}

/// Scripted leave/re-join schedule: nodes are active except during their
/// listed [`Outage`]s. Models controlled experiments ("node 3 leaves at
/// round 50 and returns at round 80").
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScriptedOutages {
    outages: Vec<Outage>,
}

impl ScriptedOutages {
    /// Creates a schedule from explicit outages.
    pub fn new(outages: Vec<Outage>) -> Self {
        Self { outages }
    }

    /// Adds one outage (builder style).
    #[must_use]
    pub fn with_outage(mut self, outage: Outage) -> Self {
        self.outages.push(outage);
        self
    }

    /// The configured outages.
    pub fn outages(&self) -> &[Outage] {
        &self.outages
    }
}

impl ParticipationModel for ScriptedOutages {
    fn is_active(&self, round: usize, node: usize) -> bool {
        !self
            .outages
            .iter()
            .any(|o| o.node == node && (o.from_round..o.until_round).contains(&round))
    }

    fn name(&self) -> &'static str {
        "scripted-outages"
    }
}

/// Round-granular projection of a virtual-time fault timeline — the bridge
/// that lets one `jwins_fault` schedule drive *both* execution substrates.
///
/// The event-driven engine interprets a [`jwins_fault::FaultTimeline`]
/// natively (mid-round crashes, killed in-flight messages). The barrier
/// engine has no virtual clock mid-round, so this adapter declares a node
/// inactive for round `r` when the timeline has it down at any point of the
/// window `[r·round_s, (r+1)·round_s)` — the coarsest sound projection.
///
/// # Example
///
/// ```
/// use jwins::participation::{FaultParticipation, ParticipationModel};
/// use jwins_fault::{FaultOutage, FaultPlan, FaultTimeline};
///
/// let plan = FaultPlan::Scripted(vec![FaultOutage::new(1, 2.5, 1.0)]);
/// let timeline = FaultTimeline::expand(&plan, 4, 7).unwrap();
/// // 1-second rounds: node 1 is down somewhere in rounds 2 and 3.
/// let bridge = FaultParticipation::new(timeline, 1.0);
/// assert!(bridge.is_active(1, 1));
/// assert!(!bridge.is_active(2, 1));
/// assert!(!bridge.is_active(3, 1));
/// assert!(bridge.is_active(4, 1));
/// ```
#[derive(Debug, Clone)]
pub struct FaultParticipation {
    timeline: jwins_fault::FaultTimeline,
    round_s: f64,
}

impl FaultParticipation {
    /// Projects `timeline` onto rounds of `round_s` simulated seconds each.
    ///
    /// # Panics
    ///
    /// Panics unless `round_s` is positive and finite.
    pub fn new(timeline: jwins_fault::FaultTimeline, round_s: f64) -> Self {
        assert!(
            round_s.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater) && round_s.is_finite(),
            "round duration must be positive and finite"
        );
        Self { timeline, round_s }
    }

    /// The projected timeline.
    pub fn timeline(&self) -> &jwins_fault::FaultTimeline {
        &self.timeline
    }
}

impl ParticipationModel for FaultParticipation {
    fn is_active(&self, round: usize, node: usize) -> bool {
        let from = jwins_sim::SimTime::from_secs_f64(round as f64 * self.round_s);
        let until = jwins_sim::SimTime::from_secs_f64((round + 1) as f64 * self.round_s);
        !self.timeline.is_down_during(node, from, until)
    }

    fn name(&self) -> &'static str {
        "fault-timeline"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_on_is_always_on() {
        let m = AlwaysOn;
        assert!(m.is_active(0, 0));
        assert!(m.is_active(999, 42));
        assert_eq!(m.active_set(3, 4), vec![0, 1, 2, 3]);
    }

    #[test]
    fn dropout_rate_is_roughly_p() {
        let m = RandomDropout::new(0.3, 7);
        let mut active = 0usize;
        let mut total = 0usize;
        for round in 0..200 {
            for node in 1..50 {
                total += 1;
                active += usize::from(m.is_active(round, node));
            }
        }
        let rate = active as f64 / total as f64;
        assert!(
            (rate - 0.7).abs() < 0.02,
            "activity rate {rate} far from 0.7"
        );
    }

    #[test]
    fn dropout_is_deterministic_and_seed_sensitive() {
        let a = RandomDropout::new(0.5, 1);
        let b = RandomDropout::new(0.5, 1);
        let c = RandomDropout::new(0.5, 2);
        let pattern =
            |m: &RandomDropout| -> Vec<bool> { (0..64).map(|r| m.is_active(r, 5)).collect() };
        assert_eq!(pattern(&a), pattern(&b));
        assert_ne!(pattern(&a), pattern(&c));
    }

    #[test]
    fn dropout_keeps_node_zero() {
        let m = RandomDropout::new(0.99, 3);
        for round in 0..100 {
            assert!(m.is_active(round, 0));
        }
    }

    #[test]
    fn scripted_outages_cover_interval() {
        let m = ScriptedOutages::default()
            .with_outage(Outage::new(2, 5, 8))
            .with_outage(Outage::new(2, 12, 13))
            .with_outage(Outage::new(0, 6, 7));
        assert!(m.is_active(4, 2));
        assert!(!m.is_active(5, 2));
        assert!(!m.is_active(7, 2));
        assert!(m.is_active(8, 2), "until_round is exclusive");
        assert!(!m.is_active(12, 2));
        assert!(!m.is_active(6, 0));
        assert!(m.is_active(6, 1));
        // Round 6: node 0 down ([6,7)) and node 2 down ([5,8)).
        assert_eq!(m.active_set(6, 3), vec![1]);
        assert_eq!(m.active_set(9, 3), vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "outage interval must be non-empty")]
    fn empty_outage_rejected() {
        let _ = Outage::new(0, 5, 5);
    }

    #[test]
    #[should_panic(expected = "dropout probability")]
    fn dropout_of_one_rejected() {
        let _ = RandomDropout::new(1.0, 0);
    }

    #[test]
    fn fault_participation_projects_windows() {
        use jwins_fault::{FaultOutage, FaultPlan, FaultTimeline};
        // Down over [1.25, 1.75): entirely inside round 1's window.
        let plan = FaultPlan::Scripted(vec![FaultOutage::new(2, 1.25, 0.5)]);
        let timeline = FaultTimeline::expand(&plan, 4, 0).unwrap();
        let bridge = FaultParticipation::new(timeline, 1.0);
        assert!(bridge.is_active(0, 2));
        assert!(!bridge.is_active(1, 2));
        assert!(bridge.is_active(2, 2));
        // Other nodes are untouched.
        assert!(bridge.is_active(1, 0));
        assert_eq!(bridge.active_set(1, 4), vec![0, 1, 3]);
        assert_eq!(bridge.name(), "fault-timeline");
    }

    #[test]
    #[should_panic(expected = "round duration")]
    fn fault_participation_rejects_zero_round() {
        let timeline =
            jwins_fault::FaultTimeline::expand(&jwins_fault::FaultPlan::None, 1, 0).unwrap();
        let _ = FaultParticipation::new(timeline, 0.0);
    }

    #[test]
    fn outage_displays_interval() {
        let o = Outage::new(3, 1, 4);
        assert_eq!(o.to_string(), "node 3 down for rounds [1, 4)");
    }
}
