//! Elias gamma and Elias delta universal codes for positive integers.
//!
//! JWINS compresses the difference array of sparse-model indices with Elias
//! gamma (paper §III-C), the same construction used by QSGD. Gamma codes are
//! optimal when small deltas dominate — exactly the regime of TopK index
//! arrays over large models, where consecutive selected coefficients are
//! close together. Elias delta is provided as a comparator for the metadata
//! ablation (Figure 9 extension): it wins asymptotically for large values.
//!
//! Both codes encode integers `n >= 1`:
//!
//! - **gamma(n)**: `⌊log2 n⌋` zero bits, then the `⌊log2 n⌋ + 1` binary digits
//!   of `n` (which start with a one).
//! - **delta(n)**: `gamma(⌊log2 n⌋ + 1)` followed by the `⌊log2 n⌋` low bits
//!   of `n`.

use crate::bitio::{BitReader, BitWriter};
use crate::{CodecError, Result};

/// Appends the Elias gamma code of `n` to `w`.
///
/// # Errors
///
/// Returns [`CodecError::InvalidValue`] if `n == 0` (gamma codes start at 1).
pub fn write_gamma(w: &mut BitWriter, n: u64) -> Result<()> {
    if n == 0 {
        return Err(CodecError::InvalidValue("Elias gamma cannot encode 0"));
    }
    let bits = 64 - n.leading_zeros(); // position of the highest one bit, 1-based
    if bits <= 32 {
        // The zero prefix is `n`'s own leading zeros at this width.
        w.write_bits(n, 2 * bits - 1);
    } else {
        w.write_bits(0, bits - 1);
        w.write_bits(n, bits);
    }
    Ok(())
}

/// Reads one Elias gamma code from `r`.
///
/// # Errors
///
/// Propagates [`CodecError::UnexpectedEof`] and flags runs longer than 64 bits
/// as [`CodecError::Corrupt`].
#[inline]
pub fn read_gamma(r: &mut BitReader<'_>) -> Result<u64> {
    // Short codes (the common case for index deltas) sit in one window.
    let window = r.peek();
    let width = 2 * window.leading_zeros() + 1;
    if width <= BitReader::PEEK_MAX && r.skip(width).is_ok() {
        return Ok(window >> (64 - width));
    }
    let zeros = r.read_unary_zeros()?;
    if zeros >= 64 {
        return Err(CodecError::Corrupt("gamma prefix longer than 64 bits"));
    }
    // The leading one bit was consumed by `read_unary_zeros`; read the rest.
    let rest = r.read_bits(zeros)?;
    Ok((1u64 << zeros) | rest)
}

/// Appends the Elias delta code of `n` to `w`.
///
/// # Errors
///
/// Returns [`CodecError::InvalidValue`] if `n == 0`.
pub fn write_delta(w: &mut BitWriter, n: u64) -> Result<()> {
    if n == 0 {
        return Err(CodecError::InvalidValue("Elias delta cannot encode 0"));
    }
    let bits = 64 - n.leading_zeros(); // ⌊log2 n⌋ + 1
    write_gamma(w, u64::from(bits))?;
    if bits > 1 {
        w.write_bits(n & !(1u64 << (bits - 1)), bits - 1);
    }
    Ok(())
}

/// Reads one Elias delta code from `r`.
///
/// # Errors
///
/// Propagates stream errors; declares prefixes above 64 bits corrupt.
pub fn read_delta(r: &mut BitReader<'_>) -> Result<u64> {
    let bits = read_gamma(r)?;
    if bits == 0 || bits > 64 {
        return Err(CodecError::Corrupt("delta length prefix out of range"));
    }
    let bits = bits as u32;
    let rest = r.read_bits(bits - 1)?;
    Ok(if bits == 64 {
        (1u64 << 63) | rest
    } else {
        (1u64 << (bits - 1)) | rest
    })
}

/// Bit length of `gamma(n)`; useful for budgeting without encoding.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn gamma_bit_len(n: u64) -> u32 {
    assert!(n > 0, "gamma undefined for 0");
    2 * (64 - n.leading_zeros()) - 1
}

/// Bit length of `delta(n)`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn delta_bit_len(n: u64) -> u32 {
    assert!(n > 0, "delta undefined for 0");
    let bits = 64 - n.leading_zeros();
    gamma_bit_len(u64::from(bits)) + bits - 1
}

/// Encodes a whole slice with gamma codes into a fresh byte buffer.
///
/// # Errors
///
/// Fails on any zero element.
pub fn gamma_encode_all(values: &[u64]) -> Result<Vec<u8>> {
    let mut w = BitWriter::new();
    for &v in values {
        write_gamma(&mut w, v)?;
    }
    Ok(w.into_bytes())
}

/// Decodes exactly `count` gamma codes from `bytes`.
///
/// # Errors
///
/// Fails if the stream is too short or corrupt.
pub fn gamma_decode_all(bytes: &[u8], count: usize) -> Result<Vec<u64>> {
    let mut r = BitReader::new(bytes);
    // `count` may be wire-influenced; growth is bounded by the
    // stream length, so cap only the eager pre-allocation.
    let mut out = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        out.push(read_gamma(&mut r)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitio::serial;
    use proptest::prelude::*;

    /// `read_gamma` as the bit-serial coder performed it.
    fn serial_read_gamma(r: &mut serial::BitReader<'_>) -> Result<u64> {
        let zeros = r.read_unary_zeros()?;
        if zeros >= 64 {
            return Err(CodecError::Corrupt("gamma prefix longer than 64 bits"));
        }
        Ok((1u64 << zeros) | r.read_bits(zeros)?)
    }

    /// Decodes up to `count` codes on both readers; values and the first
    /// error must agree.
    fn assert_gamma_reads_agree(bytes: &[u8], count: usize) {
        let mut fast = BitReader::new(bytes);
        let mut slow = serial::BitReader::new(bytes);
        for k in 0..count {
            let (got, want) = (read_gamma(&mut fast), serial_read_gamma(&mut slow));
            assert_eq!(got, want, "code {k} of {bytes:02x?}");
            if got.is_err() {
                return;
            }
        }
    }

    /// Values of every bit width, small ones most often.
    fn gamma_value() -> impl Strategy<Value = u64> {
        (0u32..64, any::<u64>()).prop_map(|(shift, raw)| (raw >> shift).max(1))
    }

    proptest! {
        #[test]
        fn gamma_matches_serial_oracle_at_every_truncation(
            values in proptest::collection::vec(gamma_value(), 0..40),
        ) {
            let mut fast = BitWriter::new();
            let mut slow = serial::BitWriter::default();
            for &n in &values {
                write_gamma(&mut fast, n).unwrap();
                let bits = 64 - n.leading_zeros();
                slow.write_bits(0, bits - 1);
                slow.write_bits(n, bits);
            }
            let bytes = fast.into_bytes();
            prop_assert_eq!(&bytes, &slow.into_bytes());
            prop_assert_eq!(gamma_decode_all(&bytes, values.len()).unwrap(), values.clone());
            for cut in 0..=bytes.len() {
                assert_gamma_reads_agree(&bytes[..cut], values.len());
            }
        }

        #[test]
        fn gamma_of_arbitrary_bytes_matches_serial_oracle(
            bytes in proptest::collection::vec(prop_oneof![Just(0u8), any::<u8>()], 0..48),
        ) {
            assert_gamma_reads_agree(&bytes, bytes.len() * 8 + 1);
        }
    }

    /// First few gamma codes from the literature.
    #[test]
    fn gamma_known_codewords() {
        let cases: [(u64, &str); 8] = [
            (1, "1"),
            (2, "010"),
            (3, "011"),
            (4, "00100"),
            (5, "00101"),
            (8, "0001000"),
            (15, "0001111"),
            (16, "000010000"),
        ];
        for (n, expect) in cases {
            let mut w = BitWriter::new();
            write_gamma(&mut w, n).unwrap();
            let bit_len = w.bit_len();
            let bytes = w.into_bytes();
            let got: String = (0..bit_len)
                .map(|i| {
                    let byte = bytes[i / 8];
                    if (byte >> (7 - i % 8)) & 1 == 1 {
                        '1'
                    } else {
                        '0'
                    }
                })
                .collect();
            assert_eq!(got, expect, "gamma({n})");
            assert_eq!(bit_len as u32, gamma_bit_len(n));
        }
    }

    #[test]
    fn delta_known_codewords() {
        // delta(1) = "1", delta(2) = "0100", delta(3) = "0101", delta(4) = "01100"
        let mut w = BitWriter::new();
        for n in [1u64, 2, 3, 4] {
            write_delta(&mut w, n).unwrap();
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for n in [1u64, 2, 3, 4] {
            assert_eq!(read_delta(&mut r).unwrap(), n);
        }
    }

    #[test]
    fn zero_is_rejected() {
        let mut w = BitWriter::new();
        assert!(matches!(
            write_gamma(&mut w, 0),
            Err(CodecError::InvalidValue(_))
        ));
        assert!(matches!(
            write_delta(&mut w, 0),
            Err(CodecError::InvalidValue(_))
        ));
    }

    #[test]
    fn gamma_roundtrip_boundaries() {
        let mut values = vec![1u64, 2, 3, u32::MAX as u64, u64::MAX];
        for p in 0..63 {
            values.push(1 << p);
            values.push((1 << p) + 1);
        }
        let bytes = gamma_encode_all(&values).unwrap();
        assert_eq!(gamma_decode_all(&bytes, values.len()).unwrap(), values);
    }

    #[test]
    fn delta_roundtrip_boundaries() {
        let mut values = vec![1u64, 2, 3, u64::MAX];
        for p in 0..63 {
            values.push(1 << p);
            values.push((1 << p) | 0x5);
        }
        let mut w = BitWriter::new();
        for &v in &values {
            write_delta(&mut w, v).unwrap();
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &v in &values {
            assert_eq!(read_delta(&mut r).unwrap(), v, "delta roundtrip of {v}");
        }
    }

    #[test]
    fn delta_beats_gamma_for_large_values() {
        assert!(delta_bit_len(1 << 40) < gamma_bit_len(1 << 40));
        // ... but not for tiny ones.
        assert!(delta_bit_len(2) >= gamma_bit_len(2));
    }

    #[test]
    fn truncated_stream_fails_cleanly() {
        let bytes = gamma_encode_all(&[300]).unwrap();
        let cut = &bytes[..bytes.len() - 1];
        assert!(gamma_decode_all(cut, 1).is_err());
    }

    #[test]
    fn bit_len_helpers_match_actual_encoding() {
        for n in [1u64, 2, 7, 8, 100, 1023, 1024, 123_456_789] {
            let mut w = BitWriter::new();
            write_gamma(&mut w, n).unwrap();
            assert_eq!(w.bit_len() as u32, gamma_bit_len(n));
            let mut w = BitWriter::new();
            write_delta(&mut w, n).unwrap();
            assert_eq!(w.bit_len() as u32, delta_bit_len(n));
        }
    }
}
