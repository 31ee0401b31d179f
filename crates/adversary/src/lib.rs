//! Seeded Byzantine attack plans and the robust aggregation rules the
//! engine mixes with.
//!
//! Two halves, one contract each:
//!
//! - [`AttackPlan`] → [`AttackTimeline`]: a serde-configurable schedule,
//!   expanded deterministically in `(plan, n, seed)`, marking nodes
//!   Byzantine over virtual-time windows with a composable
//!   [`AttackBehavior`] (garbage, sign-flip, scale, colluding drift). The
//!   engine injects the perturbation at *message-build time* on a copy of
//!   the sender's parameters, so attacks compose with faults, staleness,
//!   churn and repair — and a crashed node, which builds no messages,
//!   never injects.
//! - [`Robust`] → [`RobustStats`]: the mixing-layer defenses
//!   (trimmed-mean, coordinate-wise median, norm-clip) a run configures,
//!   and what one removed. The rules themselves run beside the plain
//!   average in `jwins::average`, on the contributions each averaging
//!   strategy decodes. Removed mass is renormalized over the surviving
//!   entries so the effective mixing row stays row-stochastic — the same
//!   contract `StalenessPolicy::downweight_row` keeps.
//!
//! ```
//! use jwins_adversary::{AttackBehavior, AttackPlan, AttackTimeline};
//! use jwins_sim::SimTime;
//!
//! let plan = AttackPlan::RandomFraction {
//!     fraction: 0.25,
//!     from_s: 0.0,
//!     until_s: f64::INFINITY,
//!     behavior: AttackBehavior::SignFlip,
//! };
//! let timeline = AttackTimeline::expand(&plan, 16, 42).unwrap();
//! assert_eq!(timeline.attackers().len(), 4);
//! let node = timeline.attackers()[0];
//! let mut advertised = vec![1.0f32, -2.0];
//! let behavior = timeline.behavior_at(node, SimTime::ZERO).unwrap();
//! timeline.apply(behavior, node, 0, &mut advertised);
//! assert_eq!(advertised, vec![-1.0, 2.0]);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![warn(clippy::too_many_lines)]

mod plan;
mod robust;

pub use plan::{apply_behavior, AttackBehavior, AttackPlan, AttackTimeline, AttackWindow};
pub use robust::{Robust, RobustStats};
