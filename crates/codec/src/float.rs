//! Lossless floating-point codecs for model parameters.
//!
//! The paper compresses every parameter payload with Fpzip, a lossless
//! floating-point coder. Fpzip is a GPL C library, so this crate substitutes
//! [`BlockFloatCodec`], a block frame-of-reference coder over the fields of
//! an `f32`. [`RawFloatCodec`] (little-endian `f32`s) is the uncompressed
//! baseline.
//!
//! # What there is to compress
//!
//! An `f32` is `[sign : 1][biased exponent : 8][mantissa : 23]`. In the
//! vectors this repository ships — trained weights in layer order, and the
//! wavelet coefficients a top-k selection keeps —
//!
//! - the **sign** of a value says nothing about its neighbour's: one bit of
//!   entropy in one bit;
//! - the **mantissa** is noise (its top 8 bits measure 7.89–7.97 bits
//!   of entropy), except where a whole run of values shares trailing zeros:
//!   zero biases, GroupNorm γ = 1, anything that went through a quantiser;
//! - the **exponent** is the one redundant field: neighbours have similar
//!   magnitudes, so it carries 2–3 bits of entropy in its 8.
//!
//! Order-0 entropy of sign and exponent plus 23 raw mantissa bits comes to
//! 26.3–26.8 bits per value on the messages of the four `BENCHMARK.json`
//! workloads; that is what a coder without a mantissa model can reach.
//!
//! A Gorilla-style XOR predictor, which this module used to hold, codes
//! `bits(v[i]) ^ bits(v[i − 1])` by its runs of leading and trailing zeros.
//! A sign that flips at random leaves that XOR no leading zeros and a noise
//! mantissa leaves it no trailing zeros, so on this data the coder settles
//! into "two control bits + the whole 32-bit window" for every value:
//! 34.0–34.4 bits per value on the same messages, 6 % *more* than raw.
//!
//! # The format
//!
//! Values are coded in blocks of [`BlockFloatCodec::BLOCK`] = 64 (the last
//! block holds the remainder; the count is framed by the caller). A block
//! is a 17-bit header and one fixed-width field per value, MSB first on
//! [`crate::bitio`]:
//!
//! ```text
//! header  [emax : 8][w : 4][tz : 5]
//! value   [emax − e : w][sign : 1][mantissa >> tz : 23 − tz]
//! ```
//!
//! `emax` is the largest biased exponent in the block, `w` the bits needed
//! for `emax − emin` (0 when all exponents agree, at most 8), `tz` the
//! trailing zero bits common to every mantissa of the block (23 when all
//! are zero). A field is 1–32 bits wide, so it is written by one
//! [`BitWriter::write_bits`] and read from one reader window. Every bit
//! pattern round-trips — NaN payloads, ±0, subnormals and infinities are
//! just exponents 0 and 255 — and the cost is bounded: at most
//! 32 + 17 ⁄ 64 ≈ 32.3 bits per value, 1 bit per value for an all-zero
//! block, `w + 1` for powers of two. Measured on every message the four
//! workloads encode at seed 42: 27.73 / 27.55 / 27.94 / 28.32 bits per
//! value (`mlp_jwins` / `mlp_full_async` / `lenet_sync` / `event_scale`).
//!
//! The decoder trusts nothing: `w > 8`, `tz > 23` and an offset above
//! `emax` are [`CodecError::Corrupt`], a short stream is
//! [`CodecError::UnexpectedEof`], and [`BlockFloatDecoder::finish`] rejects
//! anything after the last value but the zero padding of its final byte.
//! Headers a peer wrote wastefully (a wider `w`, a smaller `tz` than
//! needed) decode; re-encoding the result is never longer.
//!
//! # Layouts measured and rejected
//!
//! Every message the four `BENCHMARK.json` workloads encode at seed 42, in
//! bits per value (`mlp_jwins` / `lenet_sync` / `mlp_full_async` /
//! `event_scale`):
//!
//! | layout | bits per value | why not |
//! |---|---|---|
//! | this format (blocks of 64) | 27.73 / 27.94 / 27.55 / 28.32 | — |
//! | patched frame-of-reference, escapes inline | 27.22 / 27.44 / 26.88 / 28.02 | 12 % of `mlp_jwins`'s values escape; a prototype decoded 3.4× slower (327 → 1 099 µs dense) and encoded 4.8× slower (302 → 1 458 µs) |
//! | patched frame-of-reference, exception lists | 27.45 / 27.64 / 27.19 / 28.37 | gains less than inline escapes, and adds a second pass |
//! | Rice offsets, best parameter per block | 27.02 / 27.37 / 26.59 / 27.89 | 2.0–2.4× slower decode (below) |
//! | order-0 exponent entropy plus its table | 26.57 / 27.01 / 26.37 / 30.41 | the per-message table outweighs the gain on `event_scale`'s 25-value messages |
//! | block sizes 16 / 32 / 48 / 64 / 96 / 128 / 256 on `mlp_jwins` | 28.03 / 27.75 / 27.71 / 27.73 / 27.81 / 27.89 / 28.03 | 64 stays: 48 saves 0.02 bits |
//! | header inference (Δ`emax` plus a one-bit `tz`) | −0.53 / −0.49 / −0.62 / −0.56 % of the wire | the event workloads' arrivals move, and with them their fingerprints, for half a percent |
//!
//! No value layout measured pays for its decode cost; the index side did
//! (`crate::sparse`, the implied frame).
//!
//! - **Rice-coded exponent offsets** (best parameter per block) instead of
//!   the fixed `w` bits come to 27.04 / 26.61 / 27.39 / 27.93 bits per value
//!   in the same workload order, 0.4–0.9 below this format. But the width
//!   of a field then depends on the bits just read: the cursor becomes a
//!   serial `bsr → add → shl` chain per value, and the prototype decoded
//!   2.0–2.4× slower. Four decodes per node-round are a third of
//!   `mlp_jwins`'s strategy CPU, so those bits were not worth a quarter
//!   more `cpu_s`. A table-driven decode may change that.
//!
//! # Decoding a block at a fixed stride
//!
//! Within a block every field has the same width, so field `j` starts at
//! bit `start + j·width`: [`BlockFloatDecoder::next_values`] reads a block
//! that way into the caller's buffer (a stack array of
//! [`BlockFloatCodec::BLOCK`] values for a consumer that folds), with one
//! bounds test for the block's bytes and the "offset above `emax`" test
//! ORed across it. A block those tests reject — the last few bytes of a
//! stream, a corrupt offset — and a short tail go through
//! [`BlockFloatDecoder::next_value`], so the errors stay exactly its
//! errors; that decoder is also the test oracle.
//!
//! The per-value decoder was the cost, not the format: each value
//! advances a cursor the next one depends on, checks the bits remaining,
//! counts down the block and turns an `Option` into a `Result`, and the
//! consumer's fold sits inside that chain. On one 113 418-value message
//! (min of 150 calls) the fixed-stride decode took 378 µs against 650 µs
//! per value (× 0.58; medians 492–550 against 1 139–1 239 µs, bit-equal
//! values). `micro_substrates`' `codec/dense/decode_fold` group times full
//! sharing's mix of one message both ways; [`FloatCodec::decode`] fills
//! its vector the same way. A planar decoder measured earlier (unpack 64
//! fields into a buffer, then hand them out one call at a time) ran 1.8×
//! slower than the per-value one: its consumers still took one value per
//! call, so the buffer only added a store and a load per value. A naive
//! `avx2,fma` twin of the fixed-stride loop gained nothing (min 305 vs
//! 267 µs), so the loop has no kernel set.

use crate::bitio::{BitReader, BitWriter};
use crate::{CodecError, Result};

/// A lossless encoder/decoder for `f32` slices.
///
/// This trait is sealed in spirit: the two implementations in this crate
/// cover the evaluation, but downstream users may implement it to plug other
/// coders (e.g. a real Fpzip FFI) into [`crate::sparse::SparseVecCodec`].
pub trait FloatCodec: std::fmt::Debug + Send + Sync {
    /// Encodes `values` into a fresh byte buffer.
    fn encode(&self, values: &[f32]) -> Vec<u8>;

    /// Appends the encoding of `values` to `out`, so a framed message can be
    /// built in one buffer. The default goes through [`Self::encode`].
    fn encode_into(&self, values: &[f32], out: &mut Vec<u8>) {
        out.extend_from_slice(&self.encode(values));
    }

    /// Decodes `bytes` as the encoding of exactly `count` floats into `out`,
    /// replacing its contents and reusing its allocation.
    ///
    /// # Errors
    ///
    /// Implementations fail with [`CodecError::UnexpectedEof`] on truncated
    /// input and with [`CodecError::Corrupt`] when `bytes` goes on after the
    /// last value: a message is consumed whole or rejected. `out` is then
    /// unspecified.
    fn decode_into(&self, bytes: &[u8], count: usize, out: &mut Vec<f32>) -> Result<()>;

    /// [`Self::decode_into`] a fresh vector.
    ///
    /// # Errors
    ///
    /// As [`Self::decode_into`].
    fn decode(&self, bytes: &[u8], count: usize) -> Result<Vec<f32>> {
        let mut out = Vec::new();
        self.decode_into(bytes, count, &mut out)?;
        Ok(out)
    }

    /// Short stable name for logs and experiment output.
    fn name(&self) -> &'static str;
}

const TRAILING_BYTES: &str = "bytes after the last value";

/// Uncompressed little-endian `f32` serialization.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RawFloatCodec;

impl FloatCodec for RawFloatCodec {
    fn encode(&self, values: &[f32]) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(values, &mut out);
        out
    }

    fn encode_into(&self, values: &[f32], out: &mut Vec<u8>) {
        out.reserve(values.len() * 4);
        for v in values {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }

    fn decode_into(&self, bytes: &[u8], count: usize, out: &mut Vec<f32>) -> Result<()> {
        // Checked up front so a short buffer never allocates for `count`.
        let need = count
            .checked_mul(4)
            .filter(|&need| need <= bytes.len())
            .ok_or(CodecError::UnexpectedEof)?;
        crate::expect_empty(&bytes[need..], TRAILING_BYTES)?;
        out.clear();
        out.extend(
            bytes
                .chunks_exact(4)
                .map(|chunk| f32::from_le_bytes(chunk.try_into().expect("four bytes"))),
        );
        Ok(())
    }

    fn name(&self) -> &'static str {
        "raw-f32"
    }
}

/// Block frame-of-reference lossless float compression: per block of 64
/// values a shared exponent ceiling, offset width and mantissa shift, then
/// one fixed-width field per value. The module docs give the format and
/// what it was measured against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockFloatCodec;

/// Only until the next benchmark-touching PR: `benchmark/src/direct.rs`
/// imports the codec under the name of the XOR coder it replaced.
#[doc(hidden)]
pub use self::BlockFloatCodec as XorFloatCodec;

const MANTISSA_BITS: u32 = 23;
const MANTISSA_MASK: u32 = (1 << MANTISSA_BITS) - 1;
const EXPONENT_MASK: u32 = 0xFF << MANTISSA_BITS;
const HEADER_BITS: u32 = 8 + 4 + 5;

// Both directions work on the *wide field* of a value,
// `[emax − e : 8][sign : 1][mantissa : 23]`: the `f32` pattern with the sign
// moved below the exponent and the exponent counted down from the block's
// ceiling. The wire field is its bits `tz .. 24 + w`; the rest are zero.

/// The wide field of `bits` under `ceiling` = `emax << 23`.
#[inline]
fn to_wide(bits: u32, ceiling: u32) -> u32 {
    ((ceiling - (bits & EXPONENT_MASK)) << 1)
        | ((bits >> 8) & (1 << MANTISSA_BITS))
        | (bits & MANTISSA_MASK)
}

/// The pattern whose wide field under `ceiling` is `wide`; `None` when the
/// offset reaches below exponent 0.
#[inline]
fn from_wide(wide: u32, ceiling: u32) -> Option<u32> {
    let exponent = ceiling.checked_sub((wide >> 1) & EXPONENT_MASK)?;
    Some(((wide << 8) & (1 << 31)) | exponent | (wide & MANTISSA_MASK))
}

impl BlockFloatCodec {
    /// Values that share one header.
    pub const BLOCK: usize = 64;

    /// Decoder over `bytes`: one value per [`BlockFloatDecoder::next_value`]
    /// call, or a run of them per [`BlockFloatDecoder::next_values`] call.
    pub fn decoder(bytes: &[u8]) -> BlockFloatDecoder<'_> {
        BlockFloatDecoder {
            reader: BitReader::new(bytes),
            left: 0,
            block: BlockLayout::NONE,
        }
    }

    /// Most bytes the encoding of `count` values can take: every field at
    /// its full 32 bits. [`FloatCodec::encode_into`] reserves this much.
    pub fn max_encoded_len(count: usize) -> usize {
        (count * 32 + count.div_ceil(Self::BLOCK) * HEADER_BITS as usize).div_ceil(8)
    }
}

/// A block header, unpacked into what the per-value path needs.
#[derive(Debug, Clone, Copy)]
struct BlockLayout {
    /// `emax << 23`.
    ceiling: u32,
    /// Bits of a field.
    width: u32,
    /// How a byte-aligned reader window becomes a wide field: shifted down
    /// until the field sits at bit `tz`, then cleared below and above it.
    shift: u32,
    keep: u32,
}

impl BlockLayout {
    /// Before the first header; `width` is never used while `left` is 0.
    const NONE: Self = Self {
        ceiling: 0,
        width: 0,
        shift: 0,
        keep: 0,
    };

    /// By value in and out, so a decoder that calls this keeps its own
    /// fields in registers across a consumer's loop.
    #[inline]
    fn parse(header: u32) -> Result<Self> {
        let (emax, offset_bits, tz) = (header >> 9, (header >> 5) & 0xF, header & 0x1F);
        if offset_bits > 8 {
            return Err(CodecError::Corrupt("exponent offset wider than 8 bits"));
        }
        if tz > MANTISSA_BITS {
            return Err(CodecError::Corrupt("mantissa shift above 23 bits"));
        }
        let width = offset_bits + 1 + MANTISSA_BITS - tz;
        Ok(Self {
            ceiling: emax << MANTISSA_BITS,
            width,
            shift: u64::BITS - width - tz,
            keep: (u32::MAX << tz) & (u32::MAX >> (u32::BITS - width - tz)),
        })
    }
}

/// See [`BlockFloatCodec::decoder`].
#[derive(Debug, Clone)]
pub struct BlockFloatDecoder<'a> {
    reader: BitReader<'a>,
    /// Values left in the current block; at 0 a header comes next.
    left: u32,
    block: BlockLayout,
}

impl BlockFloatDecoder<'_> {
    /// Decodes the next value.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEof`] on a truncated stream,
    /// [`CodecError::Corrupt`] on an impossible header or exponent offset.
    #[inline]
    pub fn next_value(&mut self) -> Result<f32> {
        if self.left == 0 {
            self.block = BlockLayout::parse(self.reader.read_bits(HEADER_BITS)? as u32)?;
            self.left = BlockFloatCodec::BLOCK as u32;
        }
        // `width` is 1..=32: one window always holds the field, behind the
        // up to 7 bits the cursor has passed in its byte.
        let (window, passed) = self.reader.peek_bytes();
        self.reader.skip(self.block.width)?;
        self.left -= 1;
        let wide = (window >> (self.block.shift - passed)) as u32 & self.block.keep;
        from_wide(wide, self.block.ceiling)
            .map(f32::from_bits)
            .ok_or(CodecError::Corrupt(
                "exponent offset above the block maximum",
            ))
    }

    /// Decodes the next `out.len()` values into `out`: what as many
    /// [`Self::next_value`] calls return, and on a bad stream the error the
    /// first failing one returns (values before it are written, the rest of
    /// `out` is unspecified).
    ///
    /// The values of a block are read at a fixed stride — field `j` starts
    /// at bit `start + j·width` — with one bounds test for the run and one
    /// exponent test over all of it; a run those tests reject (the end of
    /// the stream, a corrupt offset) goes through [`Self::next_value`]
    /// instead. A consumer that folds a message block by block decodes
    /// [`BlockFloatCodec::BLOCK`] values at a time into a stack buffer.
    ///
    /// # Errors
    ///
    /// As [`Self::next_value`].
    pub fn next_values(&mut self, mut out: &mut [f32]) -> Result<()> {
        while !out.is_empty() {
            if self.left == 0 {
                self.block = BlockLayout::parse(self.reader.read_bits(HEADER_BITS)? as u32)?;
                self.left = BlockFloatCodec::BLOCK as u32;
            }
            let (run, rest) = out.split_at_mut(out.len().min(self.left as usize));
            if self.read_run(run) {
                // `read_run` saw every field inside the stream.
                self.reader.skip(run.len() as u32 * self.block.width)?;
                self.left -= run.len() as u32;
            } else {
                for value in run.iter_mut() {
                    *value = self.next_value()?;
                }
            }
            out = rest;
        }
        Ok(())
    }

    /// Reads the next `run.len()` values of the current block (1..=`left`)
    /// into `run` without moving the cursor. `false` — and `run`
    /// unspecified — when the last field's eight-byte window reaches past
    /// the stream or an offset lies above `emax`: the per-value path then
    /// decides, and reports, what those values are.
    #[inline]
    fn read_run(&self, run: &mut [f32]) -> bool {
        let BlockLayout {
            ceiling,
            width,
            shift,
            keep,
        } = self.block;
        let start = self.reader.bit_pos();
        // Every window lies in the bytes from the cursor's to the last
        // field's, plus seven: one slice test instead of one per value.
        let last = start + (run.len() - 1) * width as usize;
        let Some(bytes) = self.reader.data().get(start / 8..last / 8 + 8) else {
            return false;
        };
        let mut bit = start % 8;
        // The largest wide field holds the largest offset in its top byte.
        let mut highest = 0u32;
        for value in run.iter_mut() {
            let at = bit / 8;
            let window = u64::from_be_bytes(bytes[at..at + 8].try_into().expect("eight bytes"));
            let wide = (window >> (shift - (bit % 8) as u32)) as u32 & keep;
            highest = highest.max(wide);
            // `from_wide`, with the offset test left to the end of the run.
            *value = f32::from_bits(
                ((wide << 8) & (1 << 31))
                    | ceiling.wrapping_sub((wide >> 1) & EXPONENT_MASK)
                    | (wide & MANTISSA_MASK),
            );
            bit += width as usize;
        }
        (highest >> 1) & EXPONENT_MASK <= ceiling
    }

    /// Ends the decode after the last value: the stream may go on only with
    /// the zero bits that pad its final byte.
    ///
    /// # Errors
    ///
    /// [`CodecError::Corrupt`] on anything else — whole bytes left over, or
    /// a set padding bit.
    pub fn finish(self) -> Result<()> {
        self.reader.expect_padding(TRAILING_BYTES)
    }
}

impl FloatCodec for BlockFloatCodec {
    fn encode(&self, values: &[f32]) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(values, &mut out);
        out
    }

    fn encode_into(&self, values: &[f32], out: &mut Vec<u8>) {
        // Worst case, so the hot loop never reallocates; untouched capacity
        // costs address space only.
        out.reserve(Self::max_encoded_len(values.len()));
        let mut w = BitWriter::appending(std::mem::take(out));
        for block in values.chunks(Self::BLOCK) {
            // Exponents are compared in place, as `e << 23`.
            let (mut ceiling, mut floor, mut any_bits) = (0u32, EXPONENT_MASK, 0u32);
            for v in block {
                let bits = v.to_bits();
                ceiling = ceiling.max(bits & EXPONENT_MASK);
                floor = floor.min(bits & EXPONENT_MASK);
                any_bits |= bits;
            }
            let span = (ceiling - floor) >> MANTISSA_BITS;
            let offset_bits = u32::BITS - span.leading_zeros();
            let tz = (any_bits & MANTISSA_MASK)
                .trailing_zeros()
                .min(MANTISSA_BITS);
            let emax = ceiling >> MANTISSA_BITS;
            w.write_bits(
                u64::from((emax << 9) | (offset_bits << 5) | tz),
                HEADER_BITS,
            );
            let width = offset_bits + 1 + MANTISSA_BITS - tz;
            for v in block {
                w.write_bits(u64::from(to_wide(v.to_bits(), ceiling) >> tz), width);
            }
        }
        *out = w.into_bytes();
    }

    fn decode_into(&self, bytes: &[u8], count: usize, out: &mut Vec<f32>) -> Result<()> {
        let mut decoder = Self::decoder(bytes);
        // Grown a block at a time: `count` may be wire-influenced, so past
        // the capped reservation the vector grows only as blocks decode.
        out.clear();
        out.reserve(count.min(1 << 20));
        while out.len() < count {
            let start = out.len();
            out.resize(count.min(start + Self::BLOCK), 0.0);
            decoder.next_values(&mut out[start..])?;
        }
        decoder.finish()
    }

    fn name(&self) -> &'static str {
        "block-exponent"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(codec: &dyn FloatCodec, values: &[f32]) {
        let bytes = codec.encode(values);
        let decoded = codec.decode(&bytes, values.len()).unwrap();
        assert_eq!(decoded.len(), values.len());
        for (a, b) in values.iter().zip(&decoded) {
            assert_eq!(a.to_bits(), b.to_bits(), "{} lost bits", codec.name());
        }
    }

    #[test]
    fn raw_roundtrip() {
        roundtrip(
            &RawFloatCodec,
            &[0.0, -0.0, 1.5, f32::NAN, f32::INFINITY, f32::MIN_POSITIVE],
        );
    }

    // The `xor_*` test names below predate the block coder; they are kept
    // so the suite's history lines up across the format change.
    #[test]
    fn xor_roundtrip_specials() {
        roundtrip(
            &BlockFloatCodec,
            &[
                0.0,
                -0.0,
                1.5,
                1.5,
                1.5000001,
                f32::NAN,
                f32::from_bits(0xFFC0_0001), // negative NaN with a payload
                f32::NEG_INFINITY,
                f32::MAX,
                f32::MIN_POSITIVE,
                f32::from_bits(1), // smallest subnormal
                -1e-38,
            ],
        );
    }

    #[test]
    fn empty_and_single() {
        for codec in [&RawFloatCodec as &dyn FloatCodec, &BlockFloatCodec] {
            assert!(codec.encode(&[]).is_empty());
            roundtrip(codec, &[]);
            roundtrip(codec, &[42.0]);
        }
    }

    #[test]
    fn block_boundaries_roundtrip() {
        for len in [1usize, 63, 64, 65, 128, 129] {
            let values: Vec<f32> = (0..len).map(|i| (i as f32 - 40.0) * 0.37).collect();
            roundtrip(&BlockFloatCodec, &values);
        }
    }

    /// What the format guarantees where the XOR coder spent one bit per
    /// repeat: a run costs its distinct fields only. All exponents agree
    /// (`w` = 0) and the shared trailing zeros of the mantissa are dropped.
    #[test]
    fn xor_compresses_smooth_sequences() {
        let bits_per_value = |values: &[f32]| {
            let bytes = BlockFloatCodec.encode(values);
            roundtrip(&BlockFloatCodec, values);
            bytes.len() as f64 * 8.0 / values.len() as f64
        };
        // 3.25 = 1.101b × 2¹: sign + 3 mantissa bits, plus 17 ⁄ 64 of header.
        assert!(bits_per_value(&[3.25; 1000]) < 4.3);
        // Zeros and powers of two (biases, GroupNorm γ = 1): the sign bit.
        assert!(bits_per_value(&[0.0; 1000]) < 1.3);
        assert!(bits_per_value(&[1.0; 1000]) < 1.3);
        // A block that mixes zeros with normal values pays the exponent span
        // down to 0 (w = 8) on every field; 1.1b and 1.01b keep 2 mantissa
        // bits.
        let mut mixed = vec![0.0f32; 64];
        mixed[7] = 1.5;
        mixed[9] = -20.0;
        assert_eq!(
            BlockFloatCodec.encode(&mixed).len(),
            (17usize + 64 * (8 + 1 + 2)).div_ceil(8)
        );
    }

    #[test]
    fn raw_truncation_detected() {
        let bytes = RawFloatCodec.encode(&[1.0, 2.0]);
        assert_eq!(
            RawFloatCodec.decode(&bytes[..7], 2),
            Err(CodecError::UnexpectedEof)
        );
    }

    #[test]
    fn xor_truncation_detected() {
        let values = vec![1.0f32, 2.0, 3.0, 4.0];
        let bytes = BlockFloatCodec.encode(&values);
        for cut in 0..bytes.len() {
            assert_eq!(
                BlockFloatCodec.decode(&bytes[..cut], 4),
                Err(CodecError::UnexpectedEof),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn bytes_after_the_last_value_are_corrupt() {
        let values = [1.0f32, -2.5, 3.0];
        for codec in [&RawFloatCodec as &dyn FloatCodec, &BlockFloatCodec] {
            let mut bytes = codec.encode(&values);
            bytes.push(0);
            assert_eq!(
                codec.decode(&bytes, 3),
                Err(CodecError::Corrupt(TRAILING_BYTES)),
                "{}",
                codec.name()
            );
            assert_eq!(
                codec.decode(&[0], 0),
                Err(CodecError::Corrupt(TRAILING_BYTES)),
                "{}",
                codec.name()
            );
        }
        // 17 + 3 × (1 + 1 + 2) = 29 bits: three padding bits, all zero.
        let mut bytes = BlockFloatCodec.encode(&values);
        assert_eq!(bytes.len(), 4);
        *bytes.last_mut().unwrap() |= 1;
        assert_eq!(
            BlockFloatCodec.decode(&bytes, 3),
            Err(CodecError::Corrupt(TRAILING_BYTES))
        );
    }

    /// What decoding `count` values and finishing gives: their bit
    /// patterns, or the first error by its message.
    type Outcome = std::result::Result<Vec<u32>, String>;

    /// The per-value decoder alone: `count` [`BlockFloatDecoder::next_value`]
    /// calls, then `finish` — the oracle for every faster path.
    fn per_value(bytes: &[u8], count: usize) -> Outcome {
        let mut decoder = BlockFloatCodec::decoder(bytes);
        let values = (0..count)
            .map(|_| decoder.next_value().map(f32::to_bits))
            .collect::<Result<Vec<u32>>>()
            .map_err(|e| e.to_string())?;
        decoder.finish().map_err(|e| e.to_string())?;
        Ok(values)
    }

    /// The same decode through [`BlockFloatDecoder::next_values`], in runs
    /// of the lengths `runs` cycles through (0 stands for 1), so runs start
    /// and end anywhere in a block.
    fn by_runs(bytes: &[u8], count: usize, runs: &[usize]) -> Outcome {
        let mut decoder = BlockFloatCodec::decoder(bytes);
        let mut values = vec![0.0f32; count];
        let (mut at, mut lengths) = (0, runs.iter().cycle());
        while at < count {
            let n = lengths.next().map_or(count, |&n| n.max(1)).min(count - at);
            decoder
                .next_values(&mut values[at..at + n])
                .map_err(|e| e.to_string())?;
            at += n;
        }
        decoder.finish().map_err(|e| e.to_string())?;
        Ok(values.into_iter().map(f32::to_bits).collect())
    }

    /// Every fast path against the oracle: whole blocks (as full sharing
    /// folds), arbitrary runs, and [`FloatCodec::decode`].
    fn assert_paths_agree(bytes: &[u8], count: usize, runs: &[usize]) {
        let oracle = per_value(bytes, count);
        let codec = BlockFloatCodec
            .decode(bytes, count)
            .map(|v| v.into_iter().map(f32::to_bits).collect())
            .map_err(|e| e.to_string());
        assert_eq!(by_runs(bytes, count, &[BlockFloatCodec::BLOCK]), oracle);
        assert_eq!(by_runs(bytes, count, runs), oracle, "runs {runs:?}");
        assert_eq!(codec, oracle);
    }

    /// Patterns the format must carry whatever their neighbours: NaN
    /// payloads, ±0, subnormals, ±∞, the extremes.
    const SPECIALS: [u32; 14] = [
        0x0000_0000,
        0x8000_0000, // ±0
        0x0000_0001,
        0x807F_FFFF,
        0x0040_0000, // subnormals
        0x7F80_0000,
        0xFF80_0000, // ±∞
        0x7FC0_0000,
        0xFFC0_0001,
        0x7F80_0001,
        0x7FFF_FFFF, // NaNs
        0x7F7F_FFFF,
        0x0080_0000,
        0x3F80_0000, // MAX, MIN_POSITIVE, 1
    ];

    /// Two thirds arbitrary patterns, one third [`SPECIALS`].
    fn special_or_any() -> impl Strategy<Value = u32> {
        prop_oneof![
            any::<u32>(),
            any::<u32>(),
            (0..SPECIALS.len()).prop_map(|i| SPECIALS[i]),
        ]
    }

    /// A block as a peer may write it: any header — `w` and `tz` over their
    /// whole 4- and 5-bit ranges, so wasteful (`w` wider, `tz` smaller than
    /// needed) and impossible (`w > 8`, `tz > 23`) ones too — then
    /// arbitrary fields of the width the header declares, offsets above
    /// `emax` included.
    fn crafted_block() -> impl Strategy<Value = (u32, u32, u32, Vec<u64>)> {
        (
            any::<u8>(),
            prop_oneof![0u32..=8, 9u32..16],
            prop_oneof![0u32..=23, 24u32..32],
            proptest::collection::vec(any::<u64>(), 1..65),
        )
            .prop_map(|(emax, w, tz, fields)| (u32::from(emax), w, tz, fields))
    }

    fn write_crafted(blocks: &[(u32, u32, u32, Vec<u64>)], trailing: &[u8]) -> (Vec<u8>, usize) {
        let mut writer = BitWriter::new();
        let mut count = 0;
        for (emax, w, tz, fields) in blocks {
            writer.write_bits(u64::from((emax << 9) | (w << 5) | tz), HEADER_BITS);
            // Past `tz = 23` the decoder stops at the header; a width is
            // still needed to write something after it.
            let width = w + 1 + MANTISSA_BITS.saturating_sub(*tz);
            for &field in fields {
                writer.write_bits(field, width.min(32));
            }
            count += fields.len();
        }
        let mut bytes = writer.into_bytes();
        bytes.extend_from_slice(trailing);
        (bytes, count)
    }

    #[test]
    fn an_offset_above_emax_fails_in_a_run_as_per_value() {
        // emax = 1, w = 2, tz = 23: fields are [offset : 2][sign : 1]. The
        // fifth has offset 3 > 1; two full blocks follow, so the run is not
        // cut short by the end of the stream.
        let mut fields = vec![0b010u64; 64];
        fields[4] = 0b110;
        let blocks = [
            (1, 2, 23, fields),
            (1, 2, 23, vec![0; 64]),
            (1, 2, 23, vec![0; 64]),
        ];
        let (bytes, count) = write_crafted(&blocks, &[]);
        let expect =
            Err(CodecError::Corrupt("exponent offset above the block maximum").to_string());
        assert_eq!(per_value(&bytes, count), expect);
        assert_paths_agree(&bytes, count, &[64]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn block_runs_match_per_value_on_arbitrary_bytes(
            bytes in proptest::collection::vec(any::<u8>(), 0..1300),
            count in 0usize..=300,
            runs in proptest::collection::vec(0usize..140, 1..6),
        ) {
            assert_paths_agree(&bytes, count, &runs);
        }

        #[test]
        fn block_runs_match_per_value_at_every_truncation(
            patterns in proptest::collection::vec(special_or_any(), 0..301),
            exponent_mask in prop_oneof![Just(0xFFu32), Just(0x03), Just(0)],
            cleared in 0u32..=23,
            runs in proptest::collection::vec(0usize..140, 1..4),
        ) {
            let keep = !((exponent_mask ^ 0xFF) << MANTISSA_BITS) & !((1u32 << cleared) - 1);
            let values: Vec<f32> = patterns.iter().map(|&p| f32::from_bits(p & keep)).collect();
            let bytes = BlockFloatCodec.encode(&values);
            prop_assert_eq!(
                by_runs(&bytes, values.len(), &runs),
                Ok(values.iter().map(|v| v.to_bits()).collect::<Vec<_>>())
            );
            for cut in 0..bytes.len() {
                assert_paths_agree(&bytes[..cut], values.len(), &runs);
            }
        }

        #[test]
        fn block_runs_match_per_value_on_crafted_headers(
            blocks in proptest::collection::vec(crafted_block(), 0..6),
            trailing in proptest::collection::vec(any::<u8>(), 0..3),
            count_delta in -70i64..=70,
            runs in proptest::collection::vec(0usize..140, 1..4),
        ) {
            let (bytes, count) = write_crafted(&blocks, &trailing);
            // The count the blocks hold, and counts short of or past it.
            assert_paths_agree(&bytes, count, &runs);
            let other = (count as i64 + count_delta).max(0) as usize;
            assert_paths_agree(&bytes, other, &runs);
        }
    }

    proptest! {
        #[test]
        fn xor_roundtrip_any(
            patterns in proptest::collection::vec(any::<u32>(), 0..301),
            // Narrow the exponent and clear low mantissa bits in some cases,
            // so small `w` and non-zero `tz` are reached too.
            exponent_mask in prop_oneof![Just(0xFFu32), Just(0x07), Just(0)],
            cleared in 0u32..=23,
        ) {
            let keep = !((exponent_mask ^ 0xFF) << MANTISSA_BITS) & !((1u32 << cleared) - 1);
            let values: Vec<f32> = patterns.iter().map(|&p| f32::from_bits(p & keep)).collect();
            let bytes = BlockFloatCodec.encode(&values);
            let n = values.len();
            prop_assert!(bytes.len() * 8 <= 32 * n + 17 * n.div_ceil(64) + 7);
            let decoded = BlockFloatCodec.decode(&bytes, values.len()).unwrap();
            prop_assert_eq!(decoded.len(), values.len());
            for (a, b) in values.iter().zip(&decoded) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        #[test]
        fn raw_roundtrip_any(values in proptest::collection::vec(any::<f32>(), 0..200)) {
            let bytes = RawFloatCodec.encode(&values);
            let decoded = RawFloatCodec.decode(&bytes, values.len()).unwrap();
            for (a, b) in values.iter().zip(&decoded) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}
