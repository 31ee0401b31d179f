//! The algorithms under evaluation.
//!
//! | Strategy | Paper role |
//! |---|---|
//! | [`FullSharing`] | D-PSGD upper baseline: whole model every round |
//! | [`RandomSampling`] | sparse baseline: seed-shared random subsets |
//! | [`Jwins`] | the contribution; ablation flags cover "without wavelet" (≈ TopK), "without accumulation", "without cut-off" |
//! | [`ChocoSgd`] | state-of-the-art compressed-gossip comparator |
//! | [`PowerGossip`] | per-edge low-rank comparator the paper cites but does not run (extension) |
//! | [`QuantizedSharing`] | QSGD-quantized full sharing — the quantization family of §II-B (extension) |
//! | [`RandomModelWalk`] | single-neighbour full-model gossip of §II-A (extension) |
//!
//! The four averaging strategies — full sharing, random sampling, JWINS and
//! quantized — each decode a message in one place and mix in one body, which
//! `aggregate` and `aggregate_robust` both call (`crate::average`'s fold).

#![warn(clippy::too_many_lines)]

mod choco;
mod full;
mod jwins_strategy;
mod power_gossip;
mod quantized;
mod random_sampling;
mod rmw;

pub use choco::{ChocoConfig, ChocoSgd};
pub use full::FullSharing;
pub use jwins_strategy::{Jwins, JwinsConfig};
pub use power_gossip::{
    MatrixLayout, PowerGossip, PowerGossipConfig, FRESH_VERSION, HISTORY_WINDOW,
};
pub use quantized::QuantizedSharing;
pub use random_sampling::RandomSampling;
pub use rmw::RandomModelWalk;
