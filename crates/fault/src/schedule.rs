//! Fault schedules: serde-configurable crash/recovery plans expanded
//! deterministically into virtual-time lifecycle events.
//!
//! A [`FaultPlan`] is *generative*, like the heterogeneity profiles in
//! `jwins_sim`: it expands a seed into a concrete [`FaultTimeline`] — a
//! validated, per-node-alternating list of outage intervals — so a faulty
//! cluster is exactly as reproducible as its data split. The training
//! engine replays the timeline's [`TimedFault`]s through its event queue.

use jwins_sim::{splitmix64, LifecycleEvent, SimTime};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// What state a node rejoins with after an outage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[non_exhaustive]
pub enum RejoinMode {
    /// Warm restart: the node resumes from its last local model (a process
    /// restart on persistent storage).
    #[default]
    Warm,
    /// Re-synced restart: the node fetches the current model of the
    /// lowest-indexed live peer before resuming (a fresh join). Falls back
    /// to a warm restart when no peer is alive.
    Resync,
}

/// One planned outage: `node` is down over `[at_s, at_s + down_s)`. An
/// infinite `down_s` means the node never recovers (a permanent crash).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultOutage {
    /// The node that crashes.
    pub node: usize,
    /// Virtual time of the crash, in seconds.
    pub at_s: f64,
    /// Outage duration in seconds (the recovery fires at `at_s + down_s`;
    /// `f64::INFINITY` = never).
    pub down_s: f64,
    /// How the node rejoins.
    #[serde(default)]
    pub rejoin: RejoinMode,
}

impl FaultOutage {
    /// A warm-rejoin outage.
    pub fn new(node: usize, at_s: f64, down_s: f64) -> Self {
        Self {
            node,
            at_s,
            down_s,
            rejoin: RejoinMode::default(),
        }
    }
}

/// A serde-configurable fault schedule.
///
/// Plans are expanded by [`FaultTimeline::expand`] deterministically in
/// `(plan, n, seed)`; the same experiment always sees the same failures.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
#[non_exhaustive]
pub enum FaultPlan {
    /// No faults (the degenerate plan).
    #[default]
    None,
    /// Explicit outage script ("node 3 dies at t=40 s for 25 s").
    Scripted(Vec<FaultOutage>),
    /// Per-node alternating up/down intervals with exponentially distributed
    /// durations, generated until `horizon_s`. Node 0 is kept always-up so
    /// the cluster never goes fully dark.
    RandomChurn {
        /// Mean up-time between failures, in seconds (`> 0`).
        mean_up_s: f64,
        /// Mean outage duration, in seconds (`> 0`).
        mean_down_s: f64,
        /// Generate crashes only before this virtual time (`> 0`); a final
        /// outage may recover after it.
        horizon_s: f64,
        /// How nodes rejoin.
        #[serde(default)]
        rejoin: RejoinMode,
    },
    /// A correlated outage: a seed-chosen `fraction` of nodes all crash at
    /// `at_s` and recover together `down_s` later (rack/AZ failure).
    CorrelatedOutage {
        /// Fraction of nodes that crash, in `[0, 1]`.
        fraction: f64,
        /// Virtual time of the crash, in seconds.
        at_s: f64,
        /// Outage duration in seconds.
        down_s: f64,
        /// How nodes rejoin.
        #[serde(default)]
        rejoin: RejoinMode,
    },
}

impl FaultPlan {
    /// Whether this plan injects nothing.
    pub fn is_noop(&self) -> bool {
        match self {
            FaultPlan::None => true,
            FaultPlan::Scripted(outages) => outages.is_empty(),
            FaultPlan::RandomChurn { .. } => false,
            FaultPlan::CorrelatedOutage { fraction, .. } => *fraction == 0.0,
        }
    }

    /// Validates plan parameters (node indices are checked at expansion,
    /// when the cluster size is known).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        let positive = |v: f64, what: &str| {
            if v.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater) && v.is_finite() {
                Ok(())
            } else {
                Err(format!("{what} {v} must be positive and finite"))
            }
        };
        // Outage durations may be infinite (a permanent crash), but never
        // NaN, zero or negative.
        let positive_duration = |v: f64| {
            if v.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater) {
                Ok(())
            } else {
                Err(format!("outage duration {v} must be positive"))
            }
        };
        match self {
            FaultPlan::None => Ok(()),
            FaultPlan::Scripted(outages) => {
                for o in outages {
                    if !(o.at_s >= 0.0 && o.at_s.is_finite()) {
                        return Err(format!("outage time {} must be finite and >= 0", o.at_s));
                    }
                    positive_duration(o.down_s)?;
                }
                Ok(())
            }
            FaultPlan::RandomChurn {
                mean_up_s,
                mean_down_s,
                horizon_s,
                ..
            } => {
                positive(*mean_up_s, "mean up-time")?;
                positive(*mean_down_s, "mean down-time")?;
                positive(*horizon_s, "churn horizon")
            }
            FaultPlan::CorrelatedOutage {
                fraction,
                at_s,
                down_s,
                ..
            } => {
                if !(0.0..=1.0).contains(fraction) {
                    return Err(format!("outage fraction {fraction} outside [0, 1]"));
                }
                if !(*at_s >= 0.0 && at_s.is_finite()) {
                    return Err(format!("outage time {at_s} must be finite and >= 0"));
                }
                positive_duration(*down_s)
            }
        }
    }
}

/// One lifecycle event at a virtual time, as replayed by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedFault {
    /// When the event fires.
    pub at: SimTime,
    /// Crash or recover.
    pub event: LifecycleEvent,
    /// Rejoin mode (meaningful on `Recover` events only).
    pub rejoin: RejoinMode,
}

/// A concrete outage interval in virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Interval {
    node: usize,
    start: SimTime,
    end: SimTime,
    rejoin: RejoinMode,
}

/// A validated, expanded fault schedule: per-node non-overlapping outage
/// intervals, queryable by time and replayable as [`TimedFault`]s.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultTimeline {
    intervals: Vec<Interval>,
}

/// Uniform draw in `[0, 1)` with 53 bits of precision.
fn uniform01(rng: &mut ChaCha8Rng) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Exponential draw with the given mean (inverse-CDF of `1 - u`).
fn exponential(rng: &mut ChaCha8Rng, mean_s: f64) -> f64 {
    -mean_s * (1.0 - uniform01(rng)).ln()
}

impl FaultTimeline {
    /// Expands `plan` for an `n`-node cluster, deterministically in
    /// `(plan, n, seed)`.
    ///
    /// # Errors
    ///
    /// Rejects invalid plan parameters, out-of-range node indices and
    /// per-node overlapping (or touching) outage intervals — a node must be
    /// up for a non-zero time between two outages.
    pub fn expand(plan: &FaultPlan, n: usize, seed: u64) -> Result<FaultTimeline, String> {
        plan.validate()?;
        let mut intervals: Vec<Interval> = Vec::new();
        let mut push = |node: usize, at_s: f64, down_s: f64, rejoin: RejoinMode| {
            let start = SimTime::from_secs_f64(at_s);
            let end = SimTime::from_secs_f64(at_s + down_s);
            intervals.push(Interval {
                node,
                start,
                end,
                rejoin,
            });
        };
        match plan {
            FaultPlan::None => {}
            FaultPlan::Scripted(outages) => {
                for o in outages {
                    if o.node >= n {
                        return Err(format!("outage node {} outside cluster of {n}", o.node));
                    }
                    push(o.node, o.at_s, o.down_s, o.rejoin);
                }
            }
            FaultPlan::RandomChurn {
                mean_up_s,
                mean_down_s,
                horizon_s,
                rejoin,
            } => {
                // Node 0 stays up (see the plan's docs); each other node has
                // its own hash-derived stream, so the schedule is invariant
                // to cluster-size changes elsewhere.
                for node in 1..n {
                    let mut rng =
                        ChaCha8Rng::seed_from_u64(splitmix64(seed ^ ((node as u64) << 17)));
                    let mut t = exponential(&mut rng, *mean_up_s);
                    while t < *horizon_s {
                        let down = exponential(&mut rng, *mean_down_s);
                        push(node, t, down, *rejoin);
                        // Strictly-positive up-time keeps intervals disjoint.
                        t += down + exponential(&mut rng, *mean_up_s).max(1e-9);
                    }
                }
            }
            FaultPlan::CorrelatedOutage {
                fraction,
                at_s,
                down_s,
                rejoin,
            } => {
                let count = (fraction * n as f64).round() as usize;
                let mut order: Vec<usize> = (0..n).collect();
                let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xC0_44E1);
                use rand::seq::SliceRandom;
                order.shuffle(&mut rng);
                let mut victims: Vec<usize> = order.into_iter().take(count).collect();
                victims.sort_unstable();
                for node in victims {
                    push(node, *at_s, *down_s, *rejoin);
                }
            }
        }
        // Per-node alternation: intervals must be disjoint with strictly
        // positive up-time in between (an instantaneous crash+recover pair
        // would be ambiguous to replay).
        intervals.sort_by_key(|iv| (iv.node, iv.start, iv.end));
        for pair in intervals.windows(2) {
            if pair[0].node == pair[1].node && pair[1].start <= pair[0].end {
                return Err(format!(
                    "node {} has overlapping or touching outages",
                    pair[0].node
                ));
            }
        }
        for iv in &intervals {
            if iv.end <= iv.start {
                return Err(format!(
                    "node {} outage rounds to a zero-length interval",
                    iv.node
                ));
            }
        }
        Ok(FaultTimeline { intervals })
    }

    /// Whether the timeline contains no outages.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// Number of outages (crash/recover pairs).
    pub fn outage_count(&self) -> usize {
        self.intervals.len()
    }

    /// The crash and recovery events of every outage, sorted by time (ties
    /// by node id, crashes before recoveries). An outage whose end
    /// saturates the time axis (infinite `down_s`) emits no recovery — the
    /// node is gone for good.
    pub fn events(&self) -> Vec<TimedFault> {
        let mut events = Vec::with_capacity(self.intervals.len() * 2);
        for iv in &self.intervals {
            events.push(TimedFault {
                at: iv.start,
                event: LifecycleEvent::Crash { node: iv.node },
                rejoin: iv.rejoin,
            });
            if iv.end < SimTime(u64::MAX) {
                events.push(TimedFault {
                    at: iv.end,
                    event: LifecycleEvent::Recover { node: iv.node },
                    rejoin: iv.rejoin,
                });
            }
        }
        events.sort_by_key(|e| (e.at, e.event.node(), !e.event.is_crash()));
        events
    }

    /// The largest number of nodes simultaneously down at any instant —
    /// the worst-case hole a topology-repair policy has to wire around
    /// (outages are half-open, so a recovery at the exact instant of
    /// another crash does not overlap it).
    pub fn peak_concurrent_down(&self) -> usize {
        let mut deltas: Vec<(SimTime, bool)> = Vec::new();
        for iv in &self.intervals {
            deltas.push((iv.start, true));
            if iv.end < SimTime(u64::MAX) {
                deltas.push((iv.end, false));
            }
        }
        // Ends sort before starts at equal times (false < true).
        deltas.sort_by_key(|&(t, is_start)| (t, is_start));
        let mut down = 0usize;
        let mut peak = 0usize;
        for (_, is_start) in deltas {
            if is_start {
                down += 1;
                peak = peak.max(down);
            } else {
                down -= 1;
            }
        }
        peak
    }

    /// Whether `node` is down at time `t` (outages are half-open:
    /// down on `[start, end)`).
    pub fn is_down_at(&self, node: usize, t: SimTime) -> bool {
        self.intervals
            .iter()
            .any(|iv| iv.node == node && iv.start <= t && t < iv.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_expands_empty() {
        let t = FaultTimeline::expand(&FaultPlan::None, 8, 1).unwrap();
        assert!(t.is_empty());
        assert!(t.events().is_empty());
        assert!(!t.is_down_at(0, SimTime(123)));
    }

    #[test]
    fn scripted_outage_produces_crash_then_recover() {
        let plan = FaultPlan::Scripted(vec![FaultOutage::new(2, 1.0, 0.5)]);
        let t = FaultTimeline::expand(&plan, 4, 0).unwrap();
        let events = t.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].event, LifecycleEvent::Crash { node: 2 });
        assert_eq!(events[0].at, SimTime::from_secs_f64(1.0));
        assert_eq!(events[1].event, LifecycleEvent::Recover { node: 2 });
        assert_eq!(events[1].at, SimTime::from_secs_f64(1.5));
        assert!(t.is_down_at(2, SimTime::from_secs_f64(1.2)));
        assert!(!t.is_down_at(2, SimTime::from_secs_f64(1.5)), "half-open");
    }

    #[test]
    fn scripted_overlaps_rejected() {
        let plan = FaultPlan::Scripted(vec![
            FaultOutage::new(1, 0.0, 2.0),
            FaultOutage::new(1, 1.0, 1.0),
        ]);
        assert!(FaultTimeline::expand(&plan, 4, 0).is_err());
        // Touching intervals (recover == next crash) are also ambiguous.
        let plan = FaultPlan::Scripted(vec![
            FaultOutage::new(1, 0.0, 1.0),
            FaultOutage::new(1, 1.0, 1.0),
        ]);
        assert!(FaultTimeline::expand(&plan, 4, 0).is_err());
        // Different nodes may overlap freely.
        let plan = FaultPlan::Scripted(vec![
            FaultOutage::new(1, 0.0, 2.0),
            FaultOutage::new(2, 1.0, 2.0),
        ]);
        assert!(FaultTimeline::expand(&plan, 4, 0).is_ok());
    }

    #[test]
    fn scripted_node_out_of_range_rejected() {
        let plan = FaultPlan::Scripted(vec![FaultOutage::new(4, 0.0, 1.0)]);
        assert!(FaultTimeline::expand(&plan, 4, 0).is_err());
    }

    #[test]
    fn random_churn_is_deterministic_and_spares_node_zero() {
        let plan = FaultPlan::RandomChurn {
            mean_up_s: 5.0,
            mean_down_s: 2.0,
            horizon_s: 200.0,
            rejoin: RejoinMode::Warm,
        };
        let a = FaultTimeline::expand(&plan, 8, 7).unwrap();
        let b = FaultTimeline::expand(&plan, 8, 7).unwrap();
        let c = FaultTimeline::expand(&plan, 8, 8).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds draw different schedules");
        assert!(a.outage_count() > 0, "200 s at MTBF 5 s must crash");
        assert!(a.events().iter().all(|e| e.event.node() != 0));
    }

    #[test]
    fn correlated_outage_hits_the_requested_fraction() {
        let plan = FaultPlan::CorrelatedOutage {
            fraction: 0.25,
            at_s: 3.0,
            down_s: 4.0,
            rejoin: RejoinMode::Resync,
        };
        let t = FaultTimeline::expand(&plan, 16, 3).unwrap();
        assert_eq!(t.outage_count(), 4);
        let down_at = |time: f64| {
            (0..16)
                .filter(|&v| t.is_down_at(v, SimTime::from_secs_f64(time)))
                .count()
        };
        assert_eq!(down_at(2.9), 0);
        assert_eq!(down_at(3.0), 4);
        assert_eq!(down_at(7.0), 0);
        // Recoveries carry the plan's rejoin mode.
        assert!(t.events().iter().all(|e| e.rejoin == RejoinMode::Resync));
    }

    #[test]
    fn peak_concurrent_down_sweeps_overlaps() {
        assert_eq!(
            FaultTimeline::expand(&FaultPlan::None, 4, 0)
                .unwrap()
                .peak_concurrent_down(),
            0
        );
        let plan = FaultPlan::Scripted(vec![
            FaultOutage::new(1, 0.0, 4.0),
            FaultOutage::new(2, 2.0, 4.0),
            // Starts exactly when node 1 recovers: half-open, no overlap.
            FaultOutage::new(3, 4.0, 1.0),
            // Permanent crash overlaps everything after t = 5.
            FaultOutage::new(0, 5.0, f64::INFINITY),
        ]);
        let t = FaultTimeline::expand(&plan, 4, 0).unwrap();
        assert_eq!(t.peak_concurrent_down(), 2);
    }

    #[test]
    fn infinite_outage_never_recovers() {
        let plan = FaultPlan::Scripted(vec![FaultOutage::new(1, 2.0, f64::INFINITY)]);
        assert!(plan.validate().is_ok());
        let t = FaultTimeline::expand(&plan, 4, 0).unwrap();
        let events = t.events();
        assert_eq!(events.len(), 1, "no recovery event");
        assert!(events[0].event.is_crash());
        assert!(t.is_down_at(1, SimTime(u64::MAX - 1)));
        // A later outage for the same node can never happen.
        let plan = FaultPlan::Scripted(vec![
            FaultOutage::new(1, 2.0, f64::INFINITY),
            FaultOutage::new(1, 50.0, 1.0),
        ]);
        assert!(FaultTimeline::expand(&plan, 4, 0).is_err());
    }

    #[test]
    fn plan_validation_rejects_bad_numbers() {
        assert!(FaultPlan::Scripted(vec![FaultOutage::new(0, -1.0, 1.0)])
            .validate()
            .is_err());
        assert!(FaultPlan::Scripted(vec![FaultOutage::new(0, 0.0, 0.0)])
            .validate()
            .is_err());
        assert!(FaultPlan::RandomChurn {
            mean_up_s: 0.0,
            mean_down_s: 1.0,
            horizon_s: 10.0,
            rejoin: RejoinMode::Warm,
        }
        .validate()
        .is_err());
        assert!(FaultPlan::CorrelatedOutage {
            fraction: 1.5,
            at_s: 0.0,
            down_s: 1.0,
            rejoin: RejoinMode::Warm,
        }
        .validate()
        .is_err());
    }

    #[test]
    fn noop_detection() {
        assert!(FaultPlan::None.is_noop());
        assert!(FaultPlan::Scripted(Vec::new()).is_noop());
        assert!(!FaultPlan::Scripted(vec![FaultOutage::new(0, 0.0, 1.0)]).is_noop());
        assert!(FaultPlan::CorrelatedOutage {
            fraction: 0.0,
            at_s: 1.0,
            down_s: 1.0,
            rejoin: RejoinMode::Warm,
        }
        .is_noop());
    }
}
