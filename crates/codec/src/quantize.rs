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

    /// Reconstructs `count` values from a buffer produced by [`Self::encode`].
    ///
    /// # Errors
    ///
    /// Fails on truncated or corrupt streams.
    pub fn decode(&self, bytes: &[u8], count: usize) -> Result<Vec<f32>> {
        let mut r = BitReader::new(bytes);
        let norm = f32::from_bits(r.read_bits(32)? as u32);
        if norm == 0.0 {
            return Ok(vec![0.0; count]);
        }
        if !norm.is_finite() || norm < 0.0 {
            return Err(CodecError::Corrupt("invalid norm"));
        }
        // `count` may be wire-influenced; growth is bounded by the
        // stream length, so cap only the eager pre-allocation.
        let mut out = Vec::with_capacity(count.min(1 << 20));
        for _ in 0..count {
            let negative = r.read_bit()?;
            let level = elias::read_gamma(&mut r)? - 1;
            if level > u64::from(self.levels) {
                return Err(CodecError::Corrupt("quantization level out of range"));
            }
            let magnitude = norm * level as f32 / self.levels as f32;
            out.push(if negative { -magnitude } else { magnitude });
        }
        Ok(out)
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
}
