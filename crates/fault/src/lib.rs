//! Deterministic fault injection and bounded-staleness control.
//!
//! The event-driven runtime (PR 1) made stragglers and asynchronous gossip
//! expressible, but it still idealizes two things the paper's JWINS/CHoCo
//! comparisons depend on at scale: nodes never die mid-round, and the mixer
//! happily averages arbitrarily old messages. This crate supplies both
//! missing failure models as *pure, seeded data* — the training engine in
//! `jwins::engine` interprets them, this crate knows nothing about learning:
//!
//! - [`FaultPlan`]/[`FaultTimeline`]: serde-configurable crash/recovery
//!   schedules (explicit scripts, exponential per-node churn, correlated
//!   outages) expanded deterministically from a seed into virtual-time
//!   [`jwins_sim::LifecycleEvent`]s. A crash mid-round kills the node's
//!   in-flight messages; a recovery rejoins [`RejoinMode::Warm`] (last local
//!   state) or [`RejoinMode::Resync`] (re-synced from a live peer).
//! - [`StalenessPolicy`]: per-message TTLs (expiry at mailbox drain) plus a
//!   staleness cap in rounds and/or virtual seconds that either drops
//!   over-cap messages or down-weights them with exponential decay
//!   ([`CapAction`]), with the removed weight mass absorbed into the
//!   self-weight so the effective mixing matrix stays row-stochastic
//!   ([`apply_factor`]/[`downweight_row`]).
//!
//! A degenerate [`FaultConfig`] (no faults, infinite TTL, no cap) is a
//! strict no-op: the engine reproduces its fault-free results bit-for-bit.
//!
//! # Example
//!
//! Expand a correlated outage into a timeline (a pure function of the seed)
//! and bound staleness with a two-round drop cap:
//!
//! ```
//! use jwins_fault::{FaultConfig, FaultPlan, FaultTimeline, RejoinMode, StalenessPolicy};
//!
//! let config = FaultConfig {
//!     // A quarter of the cluster dies at t = 5 s for 2 s, rejoins re-synced.
//!     plan: FaultPlan::CorrelatedOutage {
//!         fraction: 0.25,
//!         at_s: 5.0,
//!         down_s: 2.0,
//!         rejoin: RejoinMode::Resync,
//!     },
//!     // Messages more than two rounds old are excluded from mixing.
//!     staleness: StalenessPolicy::drop_after_rounds(2),
//! };
//! assert!(config.validate().is_ok());
//! assert!(!config.is_noop());
//!
//! let timeline = FaultTimeline::expand(&config.plan, 8, 42).unwrap();
//! assert_eq!(timeline.events().len(), 4, "2 victims x (crash + recovery)");
//! // Deterministic: the same seed always expands to the same schedule.
//! assert_eq!(timeline, FaultTimeline::expand(&config.plan, 8, 42).unwrap());
//!
//! assert_eq!(config.staleness.weight_factor(1, 0.0), 1.0, "within the cap");
//! assert_eq!(config.staleness.weight_factor(3, 0.0), 0.0, "over the cap");
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![warn(clippy::too_many_lines)]

pub mod schedule;
pub mod staleness;

pub use schedule::{FaultOutage, FaultPlan, FaultTimeline, RejoinMode, TimedFault};
pub use staleness::{apply_factor, downweight_row, CapAction, StalenessPolicy};

use serde::{Deserialize, Serialize};

/// The full fault/staleness surface carried by a training configuration.
///
/// [`Default`] is the degenerate configuration — no fault plan, unbounded
/// staleness — under which the event-driven engine behaves bit-for-bit as if
/// this subsystem did not exist.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Crash/recovery schedule (default: no faults).
    #[serde(default)]
    pub plan: FaultPlan,
    /// Message TTL and staleness cap (default: unbounded).
    #[serde(default)]
    pub staleness: StalenessPolicy,
}

impl FaultConfig {
    /// Whether this configuration changes nothing: no planned faults and an
    /// unbounded staleness policy.
    pub fn is_noop(&self) -> bool {
        self.plan.is_noop() && self.staleness.is_unbounded()
    }

    /// Validates both components.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        self.plan.validate()?;
        self.staleness.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_noop_and_valid() {
        let cfg = FaultConfig::default();
        assert!(cfg.is_noop());
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn explicit_degenerate_values_are_still_noop() {
        let cfg = FaultConfig {
            plan: FaultPlan::Scripted(Vec::new()),
            staleness: StalenessPolicy {
                ttl_s: Some(f64::INFINITY),
                ..StalenessPolicy::default()
            },
        };
        assert!(cfg.is_noop());
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn config_round_trips_through_serde() {
        let cfg = FaultConfig {
            plan: FaultPlan::CorrelatedOutage {
                fraction: 0.25,
                at_s: 3.0,
                down_s: 5.0,
                rejoin: RejoinMode::Resync,
            },
            staleness: StalenessPolicy::drop_after_rounds(2),
        };
        let text = serde::json::to_string(&cfg);
        let back: FaultConfig = serde::json::from_str(&text).unwrap();
        assert_eq!(back, cfg);
        assert!(!back.is_noop());
    }
}
