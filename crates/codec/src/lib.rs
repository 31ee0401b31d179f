//! Bit-level codecs used by JWINS to shrink sparse-model messages.
//!
//! The paper ("Get More for Less in Decentralized Learning Systems", ICDCS
//! 2023, §III-C) observes that without metadata compression the index list of
//! a sparsified model doubles the bytes on the wire. JWINS therefore encodes
//! the *difference array* of the sorted coefficient indices with [Elias
//! gamma](elias) codes — the same trick QSGD uses — and compresses the
//! coefficient values with a lossless floating-point codec (Fpzip in the
//! paper; the block-exponent coder [`float::BlockFloatCodec`] here).
//!
//! # Modules
//!
//! - [`bitio`]: MSB-first bit writer/reader over byte buffers.
//! - [`bitmap`]: index sets as a bit per index (a TopK selection).
//! - [`elias`]: Elias gamma and Elias delta universal integer codes.
//! - [`varint`]: LEB128 variable-length integers (baseline comparator).
//! - [`delta`]: strictly-increasing index arrays ⇄ gamma-coded difference arrays.
//! - [`float`]: lossless float codecs (raw little-endian and block-exponent).
//! - [`quantize`]: QSGD-style stochastic uniform quantization (extension).
//! - [`lz`]: greedy LZ77 dictionary coder (the general-purpose comparator
//!   the paper evaluated before settling on Elias gamma).
//! - [`sparse`]: end-to-end sparse vector encoding with byte accounting.
//!
//! # Example
//!
//! ```
//! use jwins_codec::sparse::{SparseVecCodec, IndexCodec, ValueCodec};
//!
//! # fn main() -> Result<(), jwins_codec::CodecError> {
//! let codec = SparseVecCodec::new(IndexCodec::EliasGammaDelta, ValueCodec::Block);
//! let indices = vec![3_u32, 17, 18, 400];
//! let values = vec![0.25_f32, -1.5, 3.0, 0.125];
//! let encoded = codec.encode(&indices, &values)?;
//! let (di, dv) = codec.decode(encoded.as_bytes())?;
//! assert_eq!(di, indices);
//! assert_eq!(dv, values);
//! assert!(encoded.metadata_bytes < indices.len() * 4);
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]
// This crate parses every byte a peer sends; keep each parser short.
#![warn(clippy::too_many_lines)]

pub mod bitio;
pub mod bitmap;
pub mod delta;
pub mod elias;
pub mod float;
pub mod lz;
pub mod quantize;
pub mod sparse;
pub mod varint;

use std::error::Error;
use std::fmt;

/// Errors produced by the codecs in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodecError {
    /// The input stream ended before a complete value was decoded.
    UnexpectedEof,
    /// A value outside the encodable domain was supplied (e.g. Elias gamma of 0).
    InvalidValue(&'static str),
    /// The decoded stream is structurally inconsistent (e.g. non-increasing indices).
    Corrupt(&'static str),
    /// Encoded and declared lengths disagree.
    LengthMismatch {
        /// Length the stream header declared.
        expected: usize,
        /// Length actually present.
        actual: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of encoded stream"),
            CodecError::InvalidValue(what) => write!(f, "value not encodable: {what}"),
            CodecError::Corrupt(what) => write!(f, "corrupt stream: {what}"),
            CodecError::LengthMismatch { expected, actual } => {
                write!(f, "length mismatch: expected {expected}, got {actual}")
            }
        }
    }
}

impl Error for CodecError {}

/// Convenience alias for codec results.
pub type Result<T> = std::result::Result<T, CodecError>;

/// The end-of-block check of the byte-aligned decoders: [`CodecError::Corrupt`]
/// `(what)` when bytes are left behind the last element. (Bit streams end in
/// padding and use `BitReader::expect_padding`.)
pub(crate) fn expect_empty(rest: &[u8], what: &'static str) -> Result<()> {
    if rest.is_empty() {
        Ok(())
    } else {
        Err(CodecError::Corrupt(what))
    }
}
