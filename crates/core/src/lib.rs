//! JWINS: communication-efficient decentralized learning through
//! wavelet-domain sparsification ("Get More for Less in Decentralized
//! Learning Systems", ICDCS 2023).
//!
//! Nodes train locally with SGD and exchange only a *subset* of their model
//! each round. JWINS picks that subset in the **wavelet-frequency domain**,
//! ranks coefficients by an **accumulated importance score** (error
//! feedback), draws the per-round sharing fraction from a **randomized
//! cut-off** distribution, and compresses the index metadata with **Elias
//! gamma** — recovering full-sharing accuracy at roughly a third of the
//! traffic.
//!
//! # Crate layout
//!
//! - [`strategy::ShareStrategy`]: the communicate–aggregate interface every
//!   algorithm implements.
//! - [`strategies`]: [`strategies::FullSharing`] (D-PSGD),
//!   [`strategies::RandomSampling`], [`strategies::Jwins`] (with ablation
//!   switches covering TopK), and [`strategies::ChocoSgd`]; plus the
//!   extension [`strategies::RandomModelWalk`].
//! - [`cutoff::AlphaDistribution`]: the randomized communication cut-off.
//! - [`sparsify`]: TopK selection over importance scores.
//! - [`average`]: renormalized partial averaging of sparse vectors.
//! - [`engine::Trainer`]: the decentralized training engine — one per-node
//!   round program (train → build → fan out → mix with Metropolis–Hastings
//!   weights → evaluate, over a byte-metered network) under two schedulers
//!   on one virtual clock: the paper's bulk-synchronous barrier, and a
//!   discrete-event asynchronous-gossip mode
//!   ([`config::ExecutionMode::EventDriven`], built on `jwins_sim`) where
//!   heterogeneous nodes mix whatever neighbour messages have arrived by
//!   their local virtual clock.
//! - [`config::TrainConfig`], [`metrics`]: experiment configuration —
//!   including [`config::TrainConfig::faults`], the one description of which
//!   nodes are absent when — and round-by-round records (mix staleness
//!   under async gossip, crashes and rejoins under churn).
//!
//! # Example: two sparsification strategies on a toy task
//!
//! ```
//! use jwins::config::TrainConfig;
//! use jwins::cutoff::AlphaDistribution;
//! use jwins::engine::Trainer;
//! use jwins::strategies::{Jwins, JwinsConfig};
//! use jwins_data::images::{cifar_like, ImageConfig};
//! use jwins_nn::models::mlp_classifier;
//! use jwins_topology::dynamic::StaticTopology;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let data = cifar_like(&ImageConfig::tiny(), 4, 2, 7);
//! let cfg = TrainConfig::quick_test();
//! let trainer = Trainer::builder(cfg)
//!     .topology(StaticTopology::random_regular(4, 2, 1)?)
//!     .test_set(data.test)
//!     .nodes(data.node_train, |node| {
//!         (
//!             mlp_classifier(2 * 8 * 8, &[16], 4, 7),
//!             Box::new(Jwins::new(JwinsConfig::paper_default(), 1000 + node as u64))
//!                 as Box<dyn jwins::strategy::ShareStrategy>,
//!         )
//!     })
//!     .build()?;
//! let result = trainer.run()?;
//! assert!(result.records.last().expect("at least one eval").test_accuracy > 0.0);
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]
#![warn(clippy::too_many_lines)]

pub(crate) mod arena;
pub mod average;
pub mod config;
pub mod cutoff;
pub mod engine;
pub mod metrics;
mod robust;
mod scratch;
pub mod sparsify;
pub mod strategies;
pub mod strategy;

/// Whether `JWINS_SMOKE=1` requests the CI-sized reduced configuration.
/// The `examples-smoke` and `bench-smoke` CI jobs set it so examples and
/// the smoke benches execute end to end in seconds; this is the single
/// definition of the smoke contract (`jwins_repro::smoke` and
/// `jwins_bench::smoke` delegate here).
pub fn smoke() -> bool {
    std::env::var("JWINS_SMOKE").is_ok_and(|v| v == "1")
}

use std::error::Error;
use std::fmt;

/// Errors surfaced by strategies and the engine.
#[derive(Debug)]
#[non_exhaustive]
pub enum JwinsError {
    /// A received message failed to decode.
    Codec(jwins_codec::CodecError),
    /// Wavelet transform failure (layout mismatch).
    Wavelet(jwins_wavelet::WaveletError),
    /// Topology construction failure.
    Topology(jwins_topology::TopologyError),
    /// The engine or a strategy was driven out of protocol order.
    Protocol(&'static str),
    /// Configuration rejected at build time.
    InvalidConfig(String),
}

impl fmt::Display for JwinsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JwinsError::Codec(e) => write!(f, "message codec error: {e}"),
            JwinsError::Wavelet(e) => write!(f, "wavelet error: {e}"),
            JwinsError::Topology(e) => write!(f, "topology error: {e}"),
            JwinsError::Protocol(what) => write!(f, "protocol violation: {what}"),
            JwinsError::InvalidConfig(what) => write!(f, "invalid configuration: {what}"),
        }
    }
}

impl Error for JwinsError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            JwinsError::Codec(e) => Some(e),
            JwinsError::Wavelet(e) => Some(e),
            JwinsError::Topology(e) => Some(e),
            _ => None,
        }
    }
}

impl From<jwins_codec::CodecError> for JwinsError {
    fn from(e: jwins_codec::CodecError) -> Self {
        JwinsError::Codec(e)
    }
}

impl From<jwins_wavelet::WaveletError> for JwinsError {
    fn from(e: jwins_wavelet::WaveletError) -> Self {
        JwinsError::Wavelet(e)
    }
}

impl From<jwins_topology::TopologyError> for JwinsError {
    fn from(e: jwins_topology::TopologyError) -> Self {
        JwinsError::Topology(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, JwinsError>;
