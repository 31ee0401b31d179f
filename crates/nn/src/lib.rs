//! Minimal neural-network training stack with hand-written backprop.
//!
//! The paper trains its workloads with PyTorch; this crate is the Rust
//! substitute: exactly the layers the five evaluation models need, each with
//! an analytic backward pass that is verified against central finite
//! differences (see [`gradcheck`]). Everything a decentralized-learning
//! algorithm touches goes through the flat-parameter-vector [`Model`] trait —
//! JWINS explicitly "considers models as flat vectors of parameters"
//! (paper §IV-G), so `params`/`set_params`/`loss_and_grad` all speak
//! `&[f32]`.
//!
//! The layers run at the width of the vector unit — different summation
//! chains side by side, never one chain split — so every output is
//! bit-identical to the plain nested loops, which are kept as test oracles;
//! "The SGD path" in `docs/ARCHITECTURE.md` states the summation order.
//! Each loop nest also has an AVX2 + FMA twin of the same source, chosen
//! per call from the CPU; [`kernel_set`] names the set in use.
//!
//! # Contents
//!
//! - [`tensor::Tensor`]: shape-checked dense `f32` arrays.
//! - [`layers`]: linear, activations, flatten, pooling.
//! - [`conv::Conv2d`], [`norm::GroupNorm`]: the GN-LeNet building blocks.
//! - [`recurrent`]: embeddings and LSTMs for the Shakespeare-style task.
//! - [`sequential::Sequential`], [`models`]: the paper's five architectures.
//! - [`loss`]: softmax cross-entropy and mean-squared error.
//! - [`optim::Sgd`]: plain SGD (the paper uses SGD without momentum).
//! - [`gradcheck`]: finite-difference verification harness.
//!
//! # Example
//!
//! ```
//! use jwins_nn::models::mlp_classifier;
//! use jwins_nn::model::Model;
//!
//! let mut model = mlp_classifier(4, &[16], 3, 42);
//! let batch = vec![(vec![0.1, -0.2, 0.3, 0.5], 1usize)];
//! let (loss, grad) = model.loss_and_grad(&batch);
//! assert!(loss > 0.0);
//! assert_eq!(grad.len(), model.param_count());
//! ```

#![deny(unsafe_code)]

pub mod conv;
pub mod gradcheck;
pub mod init;
pub mod layers;
pub mod loss;
pub mod model;
pub mod models;
pub mod norm;
pub mod optim;
pub mod recurrent;
mod scratch;
pub mod sequential;
mod simd;
pub mod tensor;
#[cfg(test)]
mod testdata;

pub use model::{EvalMetrics, Model};
pub use simd::kernel_set;
pub use tensor::Tensor;
