//! QSGD-style stochastic uniform quantization (extension).
//!
//! The paper's background section (§II-B) discusses quantization as the other
//! major family of compression next to sparsification; QSGD (Alistarh et al.,
//! 2017) is the canonical scheme and the origin of JWINS's Elias-gamma
//! metadata trick. This module implements QSGD so the benchmark suite can
//! ablate sparsification against quantization on equal footing.
//!
//! `quantize(v, s)` maps each coordinate to one of `s` levels of `|v_i| /
//! ‖v‖₂`, rounding stochastically so the result is an *unbiased* estimator of
//! `v`. The wire format stores the norm (f32), one sign bit and a gamma-coded
//! level per coordinate.

use crate::bitio::{BitReader, BitWriter};
use crate::elias;
use crate::{CodecError, Result};

/// Stochastic uniform quantizer with `levels >= 1` quantization levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Qsgd {
    levels: u32,
}

impl Qsgd {
    /// Creates a quantizer with the given number of levels (e.g. 255 for
    /// "8-bit" QSGD).
    ///
    /// # Panics
    ///
    /// Panics if `levels == 0`.
    pub fn new(levels: u32) -> Self {
        assert!(levels > 0, "QSGD needs at least one level");
        Self { levels }
    }

    /// Number of quantization levels.
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// Quantizes `values`, drawing rounding randomness from `uniform`, a
    /// closure returning samples in `[0, 1)` (injected so callers control
    /// seeding and this crate stays RNG-agnostic).
    pub fn encode<F: FnMut() -> f32>(&self, values: &[f32], mut uniform: F) -> Vec<u8> {
        let norm = l2_norm(values);
        // Norm, then at most a sign and the longest level code per value.
        let worst_case = 1 + elias::gamma_bit_len(u64::from(self.levels) + 1) as usize;
        let mut w = BitWriter::with_capacity_bits(32 + values.len() * worst_case);
        w.write_bits(u64::from(norm.to_bits()), 32);
        if norm == 0.0 {
            return w.into_bytes();
        }
        for &v in values {
            w.write_bit(v.is_sign_negative());
            let scaled = (v.abs() / norm) * self.levels as f32;
            let floor = scaled.floor();
            let frac = scaled - floor;
            let level = floor as u32 + u32::from(uniform() < frac);
            let level = level.min(self.levels);
            // Shift by one: gamma cannot encode zero.
            elias::write_gamma(&mut w, u64::from(level) + 1)
                .expect("level + 1 >= 1 is always encodable");
        }
        w.into_bytes()
    }

    /// Reconstructs `count` values from a buffer produced by [`Self::encode`]:
    /// [`Self::decoder`], then `count` values of it, then
    /// [`QsgdDecoder::finish`].
    ///
    /// # Errors
    ///
    /// Fails on truncated or corrupt streams, and on streams with more than
    /// `count` values.
    pub fn decode(&self, bytes: &[u8], count: usize) -> Result<Vec<f32>> {
        let mut values = self.decoder(bytes)?;
        // `count` may be wire-influenced: grow a run at a time, so a stream
        // too short for it fails before much is allocated.
        const RUN: usize = 1 << 12;
        let mut out = Vec::with_capacity(count.min(1 << 20));
        while out.len() < count {
            let start = out.len();
            out.resize(start + (count - start).min(RUN), 0.0);
            values.next_values(&mut out[start..])?;
        }
        values.finish()?;
        Ok(out)
    }

    /// Decoder over a buffer produced by [`Self::encode`], its norm read and
    /// checked: a run of values per [`QsgdDecoder::next_values`] call, then
    /// [`QsgdDecoder::finish`] to check the end. A zero norm ends the
    /// stream, and the decoder then yields zeros.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEof`] when the norm is cut,
    /// [`CodecError::Corrupt`] when it is negative or not finite.
    pub fn decoder<'a>(&self, bytes: &'a [u8]) -> Result<QsgdDecoder<'a>> {
        let mut reader = BitReader::new(bytes);
        let norm = f32::from_bits(reader.read_bits(32)? as u32);
        if norm != 0.0 && (!norm.is_finite() || norm < 0.0) {
            return Err(CodecError::Corrupt("invalid norm"));
        }
        Ok(QsgdDecoder {
            reader,
            norm,
            levels: self.levels,
        })
    }
}

/// See [`Qsgd::decoder`].
#[derive(Debug, Clone)]
pub struct QsgdDecoder<'a> {
    reader: BitReader<'a>,
    /// 0 for a zero vector, whose stream ends with it.
    norm: f32,
    levels: u32,
}

impl QsgdDecoder<'_> {
    /// Decodes the next `out.len()` values into `out`. On a bad stream the
    /// values before the first bad one are written and the rest of `out`
    /// is unspecified.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEof`] on a truncated stream,
    /// [`CodecError::Corrupt`] on a level above the quantizer's or an
    /// overlong gamma code.
    pub fn next_values(&mut self, out: &mut [f32]) -> Result<()> {
        if self.norm == 0.0 {
            out.fill(0.0);
            return Ok(());
        }
        for value in out {
            let negative = self.reader.read_bit()?;
            let level = elias::read_gamma(&mut self.reader)? - 1;
            if level > u64::from(self.levels) {
                return Err(CodecError::Corrupt("quantization level out of range"));
            }
            let magnitude = self.norm * level as f32 / self.levels as f32;
            *value = if negative { -magnitude } else { magnitude };
        }
        Ok(())
    }
}

impl QsgdDecoder<'_> {
    /// Checks what follows the last value read: nothing but the zero bits
    /// that pad the last byte. A zero vector's stream ends at its norm.
    ///
    /// The stream carries no count, so this is what tells a stream with
    /// more values than were read (a share from a larger model) from one
    /// with as many. A zero vector carries no values at all: one from a
    /// larger model still cannot be told apart from one of the right size.
    ///
    /// # Errors
    ///
    /// [`CodecError::Corrupt`] on a byte after the last value or a set
    /// padding bit.
    pub fn finish(self) -> Result<()> {
        self.reader.expect_padding("bytes after the last value")
    }
}

fn l2_norm(values: &[f32]) -> f32 {
    values
        .iter()
        .map(|v| f64::from(*v) * f64::from(*v))
        .sum::<f64>()
        .sqrt() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Deterministic "uniform" stream for tests.
    fn halves() -> impl FnMut() -> f32 {
        || 0.5
    }

    #[test]
    fn zero_vector_roundtrip() {
        let q = Qsgd::new(4);
        let bytes = q.encode(&[0.0; 8], halves());
        assert_eq!(q.decode(&bytes, 8).unwrap(), vec![0.0; 8]);
    }

    /// A stream with anything but zero padding after its last value is
    /// corrupt: a trailing byte, a set padding bit, values left over (a
    /// longer vector's stream read short), or a byte behind a zero norm.
    #[test]
    fn only_padding_may_follow_the_last_value() {
        let q = Qsgd::new(15);
        let values: Vec<f32> = (0..13).map(|i| (i as f32 - 6.0) / 3.0).collect();
        let bytes = q.encode(&values, halves());
        let decoded = q.decode(&bytes, values.len()).unwrap();
        assert_eq!(decoded.len(), values.len());
        let corrupt = CodecError::Corrupt("bytes after the last value");

        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(q.decode(&trailing, values.len()), Err(corrupt.clone()));

        let mut decoder = q.decoder(&bytes).unwrap();
        let mut out = vec![0.0; values.len()];
        decoder.next_values(&mut out).unwrap();
        let used = bytes.len() * 8 - decoder.reader.remaining_bits();
        assert!(
            !used.is_multiple_of(8),
            "the last byte must have padding to set"
        );
        for bit in used % 8..8 {
            let mut padded = bytes.clone();
            *padded.last_mut().unwrap() |= 0x80 >> bit;
            assert_eq!(q.decode(&padded, values.len()), Err(corrupt.clone()));
        }

        assert_eq!(q.decode(&bytes, values.len() - 1), Err(corrupt.clone()));

        let zero = q.encode(&[0.0; 8], halves());
        assert_eq!(zero.len(), 4);
        assert_eq!(q.decode(&zero, 100).unwrap(), vec![0.0; 100]);
        let mut behind_zero = zero;
        behind_zero.push(0);
        assert_eq!(q.decode(&behind_zero, 8), Err(corrupt));
    }

    #[test]
    fn error_bounded_by_norm_over_levels() {
        let q = Qsgd::new(256);
        let values: Vec<f32> = (0..64).map(|i| (i as f32 - 32.0) / 7.0).collect();
        let norm = l2_norm(&values);
        let bytes = q.encode(&values, halves());
        let decoded = q.decode(&bytes, values.len()).unwrap();
        for (a, b) in values.iter().zip(&decoded) {
            assert!(
                (a - b).abs() <= norm / 256.0 + 1e-6,
                "coordinate error {} exceeds bound",
                (a - b).abs()
            );
        }
    }

    #[test]
    fn unbiasedness_over_rounding_randomness() {
        // With u ~ U[0,1), E[level] = scaled, so averaging many draws should
        // approach the original value.
        let q = Qsgd::new(4);
        let values = [0.3f32, -0.7, 0.1];
        let mut acc = vec![0.0f64; values.len()];
        let trials = 4000;
        let mut state = 0x12345678u64;
        let mut next_uniform = move || {
            // xorshift for test determinism
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / (1u64 << 24) as f32
        };
        for _ in 0..trials {
            let bytes = q.encode(&values, &mut next_uniform);
            for (a, b) in acc.iter_mut().zip(q.decode(&bytes, values.len()).unwrap()) {
                *a += f64::from(b);
            }
        }
        for (mean, v) in acc.iter().map(|a| a / f64::from(trials)).zip(values) {
            assert!(
                (mean - f64::from(v)).abs() < 0.05,
                "mean {mean} far from {v}"
            );
        }
    }

    #[test]
    fn signs_survive() {
        let q = Qsgd::new(2);
        let values = [-1.0f32, 1.0, -2.0, 2.0];
        let decoded = q.decode(&q.encode(&values, halves()), 4).unwrap();
        for (a, b) in values.iter().zip(&decoded) {
            if *b != 0.0 {
                assert_eq!(a.signum(), b.signum());
            }
        }
    }

    #[test]
    fn truncation_detected() {
        let q = Qsgd::new(8);
        let bytes = q.encode(&[1.0, -2.0, 3.0], halves());
        assert!(q.decode(&bytes[..3], 3).is_err());
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn zero_levels_panics() {
        let _ = Qsgd::new(0);
    }

    /// [`per_value_decode`], then the end check a whole decode adds: only
    /// zero bits of the last byte may follow the last value read.
    fn checked_decode(q: &Qsgd, bytes: &[u8], count: usize) -> (Vec<f32>, Option<CodecError>) {
        let (values, error, left) = per_value_decode_at(q, bytes, count);
        let clean = left == 0 || (left < 8 && bytes[bytes.len() - 1] & ((1u8 << left) - 1) == 0);
        let error = error.or((!clean).then_some(CodecError::Corrupt("bytes after the last value")));
        (values, error)
    }

    /// The decode this module had before its cursor, value by value: the
    /// values it produced before its first failure, and that failure.
    fn per_value_decode(q: &Qsgd, bytes: &[u8], count: usize) -> (Vec<f32>, Option<CodecError>) {
        let (values, error, _) = per_value_decode_at(q, bytes, count);
        (values, error)
    }

    /// [`per_value_decode`] and the bits it left unread.
    fn per_value_decode_at(
        q: &Qsgd,
        bytes: &[u8],
        count: usize,
    ) -> (Vec<f32>, Option<CodecError>, usize) {
        let mut r = BitReader::new(bytes);
        let mut out = Vec::new();
        let norm = match r.read_bits(32) {
            Ok(bits) => f32::from_bits(bits as u32),
            Err(e) => return (out, Some(e), 0),
        };
        if norm == 0.0 {
            return (vec![0.0; count], None, r.remaining_bits());
        }
        if !norm.is_finite() || norm < 0.0 {
            return (out, Some(CodecError::Corrupt("invalid norm")), 0);
        }
        let mut next = || -> Result<f32> {
            let negative = r.read_bit()?;
            let level = elias::read_gamma(&mut r)? - 1;
            if level > u64::from(q.levels) {
                return Err(CodecError::Corrupt("quantization level out of range"));
            }
            let magnitude = norm * level as f32 / q.levels as f32;
            Ok(if negative { -magnitude } else { magnitude })
        };
        for _ in 0..count {
            match next() {
                Ok(v) => out.push(v),
                Err(e) => return (out, Some(e), 0),
            }
        }
        (out, None, r.remaining_bits())
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Where a test cuts the reads of a `count`-value decode: at `points`,
    /// or every 2 048 values, the tile a dense mix folds at a time.
    fn read_ends(count: usize, points: &[usize], tiles: bool) -> Vec<usize> {
        let mut ends: Vec<usize> = if tiles {
            (1..=count.div_ceil(2048))
                .map(|t| (t * 2048).min(count))
                .collect()
        } else {
            points.iter().map(|&p| p.min(count)).collect()
        };
        ends.push(count);
        ends.sort_unstable();
        ends.dedup();
        ends
    }

    proptest! {
        /// The cursor read in runs cut anywhere is the value-by-value
        /// decode: the same values, and on a bad stream the same error in
        /// the run that holds the first bad value, after the same values —
        /// over truncated and flipped streams, zero norms, levels above the
        /// decoder's and counts that cross 2 048-value tiles. A whole
        /// decode is that decode followed by the end check.
        #[test]
        fn cursor_runs_equal_the_per_value_decode(
            len in prop_oneof![0usize..40, 2046usize..2051, 0usize..6500],
            levels in 0usize..4,
            narrower in 0u8..4,
            zero in 0u8..5,
            damage in 0u8..4,
            at in 0.0f64..1.0,
            mask in 1u8..=255,
            extra in 0usize..3,
            points in proptest::collection::vec(0usize..6600, 0..6),
            tiles in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let mut state = seed | 1;
            let mut uniform = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 40) as f32 / (1u64 << 24) as f32
            };
            let levels = [1u32, 3, 255, 4095][levels];
            let (narrower, zero) = (narrower == 0, zero == 0);
            let values: Vec<f32> = (0..len)
                .map(|_| if zero { 0.0 } else { uniform() * 8.0 - 4.0 })
                .collect();
            let mut bytes = Qsgd::new(levels).encode(&values, &mut uniform);
            match damage {
                1 => bytes.truncate((bytes.len() as f64 * at) as usize),
                2 => {
                    let i = ((bytes.len() as f64 * at) as usize).min(bytes.len() - 1);
                    bytes[i] ^= mask;
                }
                _ => {}
            }
            // A decoder with fewer levels than the encoder meets levels it
            // cannot hold.
            let q = Qsgd::new(if narrower { levels.div_ceil(4) } else { levels });
            let count = len + extra % 2;
            let (expected, error) = per_value_decode(&q, &bytes, count);

            // A whole decode also checks the end.
            let whole = q.decode(&bytes, count);
            match checked_decode(&q, &bytes, count) {
                (values, None) => prop_assert_eq!(bits(&whole.unwrap()), bits(&values)),
                (_, Some(e)) => prop_assert_eq!(whole.unwrap_err(), e),
            }

            let mut got = vec![f32::NAN; count];
            let mut outcome = None;
            match q.decoder(&bytes) {
                Err(e) => outcome = Some((0, e)),
                Ok(mut cursor) => {
                    let mut start = 0;
                    for end in read_ends(count, &points, tiles) {
                        if let Err(e) = cursor.next_values(&mut got[start..end]) {
                            outcome = Some((start, e));
                            break;
                        }
                        start = end;
                    }
                }
            }
            match (outcome, error) {
                (None, None) => prop_assert_eq!(bits(&got), bits(&expected)),
                (Some((start, e)), Some(error)) => {
                    prop_assert_eq!(e, error);
                    prop_assert!(start <= expected.len(), "failed in an earlier run");
                    let m = expected.len();
                    prop_assert_eq!(bits(&got[..m]), bits(&expected));
                }
                (outcome, error) => prop_assert!(false, "{:?} vs {:?}", outcome, error),
            }
        }
    }
}
