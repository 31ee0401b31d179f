//! The algorithms under evaluation.
//!
//! | Strategy | Paper role |
//! |---|---|
//! | [`FullSharing`] | D-PSGD upper baseline: whole model every round |
//! | [`RandomSampling`] | sparse baseline: seed-shared random subsets |
//! | [`Jwins`] | the contribution; ablation flags cover "without wavelet" (≈ TopK), "without accumulation", "without cut-off" |
//! | [`ChocoSgd`] | state-of-the-art compressed-gossip comparator |
//! | [`RandomModelWalk`] | single-neighbour full-model gossip of §II-A (extension) |
//!
//! The three averaging strategies — full sharing, random sampling and
//! JWINS — each decode a message in one place and mix in one body, which
//! `aggregate` and `aggregate_robust` both call (`crate::average`'s fold).

mod choco;
mod full;
mod jwins_strategy;
mod random_sampling;
mod rmw;

pub use choco::{ChocoConfig, ChocoSgd};
pub use full::FullSharing;
pub use jwins_strategy::{Jwins, JwinsConfig};
pub use random_sampling::RandomSampling;
pub use rmw::RandomModelWalk;
