//! Multilevel discrete wavelet transform (DWT) built from scratch.
//!
//! JWINS ("Get More for Less in Decentralized Learning Systems", ICDCS 2023,
//! §III-A) represents models and model *changes* in the wavelet-frequency
//! domain: a four-level decomposition with Symlet-2 wavelets. Because a
//! single coarse-level coefficient summarizes a whole neighbourhood of
//! parameters, a sparse wavelet vector with `K` nonzeros packs more
//! information than `K` raw parameters — which is why wavelet-domain TopK
//! loses less on sparsification (paper Figure 2).
//!
//! This crate provides what the paper obtained from PyWavelets:
//!
//! - [`family::Wavelet`]: orthogonal filter banks — Haar, Daubechies
//!   (`db1`–`db8`), Symlets (`sym2`–`sym8`, with `sym2 ≡ db2`), Coiflets.
//! - [`transform`]: one analysis/synthesis level with **periodization**
//!   boundary handling, which keeps the transform critically sampled and
//!   exactly orthogonal for even lengths.
//! - [`multilevel::Dwt`]: `wavedec`/`waverec`-style multilevel transforms over
//!   arbitrary-length vectors, with a [`multilevel::CoeffLayout`] describing
//!   the `[cA_J | cD_J | … | cD_1]` packing so sparsifiers can operate on a
//!   single flat coefficient vector. The levels run a [`TILE`] at a time,
//!   each handing its approximation on as it is made, so a transform's
//!   workspace is a window per level, not a band as long as the signal.
//!
//! Internally all arithmetic is `f64`; the public API speaks `f32` because
//! model parameters (and the bytes on the wire) are 32-bit.
//!
//! Analysis and synthesis run as AVX2 + FMA twins of their portable loops
//! where the CPU has both, chosen at run time with the same bits;
//! [`kernel_set`] names the set in use.
//!
//! # Example
//!
//! ```
//! use jwins_wavelet::{Wavelet, Dwt};
//!
//! # fn main() -> Result<(), jwins_wavelet::WaveletError> {
//! let dwt = Dwt::new(Wavelet::sym2(), 4)?;
//! let signal: Vec<f32> = (0..100).map(|i| (i as f32 * 0.1).sin()).collect();
//! let coeffs = dwt.forward(&signal);
//! let recovered = dwt.inverse(&coeffs)?;
//! for (a, b) in signal.iter().zip(&recovered) {
//!     assert!((a - b).abs() < 1e-4);
//! }
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]
#![warn(clippy::too_many_lines)]

pub mod family;
pub mod multilevel;
mod simd;
mod stream;
pub mod transform;

pub use family::Wavelet;
pub use multilevel::{CoeffLayout, Dwt, WaveletCoeffs};
pub use simd::kernel_set;
pub use stream::TILE;

use std::error::Error;
use std::fmt;

/// Errors produced by wavelet transforms.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WaveletError {
    /// Zero decomposition levels were requested.
    ZeroLevels,
    /// A coefficient vector does not match the layout it claims to follow.
    LayoutMismatch {
        /// Length the layout requires.
        expected: usize,
        /// Length supplied.
        actual: usize,
    },
    /// The named wavelet is not in the built-in table.
    UnknownWavelet(String),
}

impl fmt::Display for WaveletError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WaveletError::ZeroLevels => write!(f, "at least one decomposition level required"),
            WaveletError::LayoutMismatch { expected, actual } => {
                write!(
                    f,
                    "coefficient length {actual} does not match layout ({expected})"
                )
            }
            WaveletError::UnknownWavelet(name) => write!(f, "unknown wavelet: {name}"),
        }
    }
}

impl Error for WaveletError {}
