//! Lossless floating-point codecs for model parameters.
//!
//! The paper compresses every parameter payload with Fpzip, a lossless
//! predictive floating-point coder. Fpzip is a GPL C library, so this crate
//! substitutes a Gorilla-style XOR predictive coder ([`XorFloatCodec`]): each
//! value is XORed with its predecessor and the resulting leading/trailing
//! zero structure is entropy-coded. Like Fpzip, it is lossless, predictive,
//! and achieves its gains from the smoothness of neighbouring values — model
//! parameters serialized in layer order exhibit exactly that locality.
//! [`RawFloatCodec`] (little-endian `f32`s) is the uncompressed baseline.

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

    /// Decodes exactly `count` floats from `bytes`.
    ///
    /// # Errors
    ///
    /// Implementations fail with [`CodecError::UnexpectedEof`] on truncated
    /// input.
    fn decode(&self, bytes: &[u8], count: usize) -> Result<Vec<f32>>;

    /// Short stable name for logs and experiment output.
    fn name(&self) -> &'static str;
}

/// Pulls `count` values out of `next` into a fresh vector.
fn collect_values(count: usize, mut next: impl FnMut() -> Result<f32>) -> Result<Vec<f32>> {
    // `count` may be wire-influenced; growth is bounded by the
    // stream length, so cap only the eager pre-allocation.
    let mut out = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        out.push(next()?);
    }
    Ok(out)
}

/// Uncompressed little-endian `f32` serialization.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RawFloatCodec;

impl RawFloatCodec {
    /// Streaming decoder over `bytes`: one value per
    /// [`RawFloatDecoder::next_value`] call.
    pub fn decoder(bytes: &[u8]) -> RawFloatDecoder<'_> {
        RawFloatDecoder { rest: bytes }
    }
}

/// See [`RawFloatCodec::decoder`].
#[derive(Debug, Clone)]
pub struct RawFloatDecoder<'a> {
    rest: &'a [u8],
}

impl RawFloatDecoder<'_> {
    /// Decodes the next value.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEof`] when fewer than four bytes remain.
    #[inline]
    pub fn next_value(&mut self) -> Result<f32> {
        let (head, rest) = self
            .rest
            .split_first_chunk::<4>()
            .ok_or(CodecError::UnexpectedEof)?;
        self.rest = rest;
        Ok(f32::from_le_bytes(*head))
    }
}

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

    fn decode(&self, bytes: &[u8], count: usize) -> Result<Vec<f32>> {
        // Checked up front so a short buffer never allocates for `count`.
        if count.checked_mul(4).is_none_or(|need| bytes.len() < need) {
            return Err(CodecError::UnexpectedEof);
        }
        let mut decoder = Self::decoder(bytes);
        collect_values(count, || decoder.next_value())
    }

    fn name(&self) -> &'static str {
        "raw-f32"
    }
}

/// Gorilla-style XOR predictive lossless float compression.
///
/// Per value `v[i]`, computes `x = bits(v[i]) ^ bits(v[i-1])` and writes:
///
/// - `0` if `x == 0` (repeated value);
/// - `10` + reuse of the previous leading-zero/length window if `x` fits it;
/// - `11` + 5-bit leading-zero count + 5-bit (length−1) + the significant bits.
///
/// The first value is stored verbatim (32 bits). Lossless for every bit
/// pattern including NaNs, infinities and signed zeros.
///
/// Control bits and payload of one value go out in a single
/// [`BitWriter::write_bits`] (at most 2 + 5 + 5 + 32 bits) and come back
/// from a single reader window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct XorFloatCodec;

impl XorFloatCodec {
    const MAX_LEADING: u32 = 31;
    /// Bits of a value that opens a new window: `11`, two 5-bit fields, 32
    /// significant bits.
    const MAX_BITS_PER_VALUE: usize = 2 + 5 + 5 + 32;

    /// Streaming decoder over `bytes`: one value per
    /// [`XorFloatDecoder::next_value`] call, so a consumer can fold values
    /// into an accumulator without materialising them.
    pub fn decoder(bytes: &[u8]) -> XorFloatDecoder<'_> {
        XorFloatDecoder {
            reader: BitReader::new(bytes),
            prev: None,
            win_lead: u32::MAX,
            win_len: 0,
        }
    }
}

/// See [`XorFloatCodec::decoder`].
#[derive(Debug, Clone)]
pub struct XorFloatDecoder<'a> {
    reader: BitReader<'a>,
    /// Bit pattern of the previous value; `None` before the verbatim first.
    prev: Option<u32>,
    /// Window carried over from the last `11` control block.
    win_lead: u32,
    win_len: u32,
}

impl XorFloatDecoder<'_> {
    /// Decodes the next value.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEof`] on a truncated stream,
    /// [`CodecError::Corrupt`] on an impossible window.
    #[inline]
    pub fn next_value(&mut self) -> Result<f32> {
        let Some(prev) = self.prev else {
            let first = self.reader.read_bits(32)? as u32;
            self.prev = Some(first);
            return Ok(f32::from_bits(first));
        };
        // One window holds the longest code (44 bits).
        let window = self.reader.peek();
        if window >> 63 == 0 {
            self.reader.skip(1)?;
            return Ok(f32::from_bits(prev));
        }
        let x = if (window >> 62) & 1 == 0 {
            self.reader.skip(2)?;
            if self.win_lead == u32::MAX {
                return Err(CodecError::Corrupt("window reuse before any window"));
            }
            self.reader.skip(self.win_len)?;
            let payload = (window << 2) >> (64 - self.win_len);
            (payload as u32) << (32 - self.win_lead - self.win_len)
        } else {
            self.reader.skip(12)?;
            let lead = (window >> 57) as u32 & 31;
            let len = ((window >> 52) as u32 & 31) + 1;
            if lead + len > 32 {
                return Err(CodecError::Corrupt("xor window exceeds 32 bits"));
            }
            self.win_lead = lead;
            self.win_len = len;
            self.reader.skip(len)?;
            let payload = (window << 12) >> (64 - len);
            (payload as u32) << (32 - lead - len)
        };
        let bits = prev ^ x;
        self.prev = Some(bits);
        Ok(f32::from_bits(bits))
    }
}

impl FloatCodec for XorFloatCodec {
    fn encode(&self, values: &[f32]) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(values, &mut out);
        out
    }

    fn encode_into(&self, values: &[f32], out: &mut Vec<u8>) {
        let Some((first, rest)) = values.split_first() else {
            return;
        };
        // Worst case, so the hot loop never reallocates; untouched capacity
        // costs address space only.
        out.reserve((32 + rest.len() * Self::MAX_BITS_PER_VALUE).div_ceil(8));
        let mut w = BitWriter::appending(std::mem::take(out));
        let mut prev = first.to_bits();
        w.write_bits(u64::from(prev), 32);
        // Window carried over from the last `11` control block.
        let mut win_lead: u32 = u32::MAX;
        let mut win_len: u32 = 0;
        for v in rest {
            let bits = v.to_bits();
            let x = bits ^ prev;
            prev = bits;
            if x == 0 {
                w.write_bits(0, 1);
                continue;
            }
            let lead = x.leading_zeros().min(Self::MAX_LEADING);
            let trail = x.trailing_zeros();
            let len = 32 - lead - trail;
            let fits_window =
                win_lead != u32::MAX && lead >= win_lead && lead + len <= win_lead + win_len;
            if fits_window {
                let shifted = x >> (32 - win_lead - win_len);
                w.write_bits((0b10 << win_len) | u64::from(shifted), 2 + win_len);
            } else {
                let header = (0b11 << 10) | (lead << 5) | (len - 1);
                w.write_bits((u64::from(header) << len) | u64::from(x >> trail), 12 + len);
                win_lead = lead;
                win_len = len;
            }
        }
        *out = w.into_bytes();
    }

    fn decode(&self, bytes: &[u8], count: usize) -> Result<Vec<f32>> {
        let mut decoder = Self::decoder(bytes);
        collect_values(count, || decoder.next_value())
    }

    fn name(&self) -> &'static str {
        "xor-predictive"
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

    #[test]
    fn xor_roundtrip_specials() {
        roundtrip(
            &XorFloatCodec,
            &[
                0.0,
                -0.0,
                1.5,
                1.5,
                1.5000001,
                f32::NAN,
                f32::NEG_INFINITY,
                f32::MAX,
                f32::MIN_POSITIVE,
                -1e-38,
            ],
        );
    }

    #[test]
    fn empty_and_single() {
        for codec in [&RawFloatCodec as &dyn FloatCodec, &XorFloatCodec] {
            roundtrip(codec, &[]);
            roundtrip(codec, &[42.0]);
        }
    }

    #[test]
    fn xor_compresses_smooth_sequences() {
        // Constant sequence: one bit per repeat after the first value.
        let values = vec![3.25f32; 1000];
        let bytes = XorFloatCodec.encode(&values);
        assert!(bytes.len() < 150, "constant run took {} bytes", bytes.len());
        // Raw is 4000 bytes.
        assert!(bytes.len() * 8 < RawFloatCodec.encode(&values).len());
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
        let bytes = XorFloatCodec.encode(&values);
        assert!(XorFloatCodec.decode(&bytes[..2], 4).is_err());
    }

    proptest! {
        #[test]
        fn xor_roundtrip_any(values in proptest::collection::vec(any::<f32>(), 0..200)) {
            let bytes = XorFloatCodec.encode(&values);
            let decoded = XorFloatCodec.decode(&bytes, values.len()).unwrap();
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
