//! Synthetic non-IID datasets standing in for the paper's workloads.
//!
//! The JWINS evaluation uses CIFAR-10, MovieLens, and the LEAF benchmarks of
//! CelebA, FEMNIST and Shakespeare. None of those corpora are available in
//! this build environment, so this crate generates synthetic datasets that
//! preserve exactly what the experiments measure:
//!
//! 1. **task type** — multiclass CNN classification, binary classification,
//!    matrix-factorization regression, next-character prediction;
//! 2. **non-IID structure** — the paper's two partitioning regimes are kept:
//!    sort-by-label sharding (2 shards/node for CIFAR) and *client-grouped*
//!    data (LEAF datasets group samples by the human who produced them);
//! 3. **scale knobs** — node counts, samples per node and feature sizes are
//!    configurable so experiments run at laptop scale or paper scale.
//!
//! Sample types are plain tuples shared structurally with `jwins-nn` (no
//! crate dependency): `(Vec<f32>, usize)` for classification,
//! `(usize, usize, f32)` for ratings, `(Vec<usize>, Vec<usize>)` for
//! sequences.
//!
//! # Example
//!
//! ```
//! use jwins_data::images::{cifar_like, ImageConfig};
//!
//! let data = cifar_like(&ImageConfig::tiny(), 4, 2, 42);
//! assert_eq!(data.node_train.len(), 4);
//! // Sort-by-label sharding with 2 shards per node caps label diversity.
//! for node in &data.node_train {
//!     let mut labels: Vec<usize> = node.iter().map(|(_, y)| *y).collect();
//!     labels.sort_unstable();
//!     labels.dedup();
//!     assert!(labels.len() <= 2 * 2);
//! }
//! ```

#![deny(unsafe_code)]

pub mod batch;
pub mod images;
pub mod partition;
pub mod ratings;
pub mod text;

/// A classification sample: dense features plus a class index.
pub type ClassSample = (Vec<f32>, usize);

/// A rating sample: `(user, item, rating)`.
pub type RatingSample = (usize, usize, f32);

/// A sequence sample: `(input token ids, next-token targets)`.
pub type SeqSample = (Vec<usize>, Vec<usize>);

/// A dataset split across decentralized nodes plus a shared test set.
#[derive(Debug, Clone)]
pub struct Partitioned<S> {
    /// Training samples local to each node.
    pub node_train: Vec<Vec<S>>,
    /// Global held-out test set (the paper evaluates the average accuracy of
    /// all nodes on a common test set).
    pub test: Vec<S>,
}

impl<S> Partitioned<S> {
    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.node_train.len()
    }

    /// Total number of training samples across nodes.
    pub fn train_len(&self) -> usize {
        self.node_train.iter().map(Vec::len).sum()
    }
}
