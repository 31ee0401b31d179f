//! Delta coding of strictly increasing index arrays.
//!
//! A TopK selection over a `d`-dimensional model yields a sorted list of
//! coefficient indices. Instead of `4K` bytes of raw `u32`s, JWINS stores the
//! *differences* between consecutive indices (plus one, so every value is
//! `>= 1`) and entropy-codes them with Elias gamma (paper §III-C). Dense
//! selections produce long runs of small deltas that gamma compresses by
//! roughly an order of magnitude — the paper measures 9.9×.

use crate::bitio::{BitReader, BitWriter};
use crate::elias;
use crate::{CodecError, Result};

/// Encodes a strictly increasing slice of indices as gamma-coded deltas.
///
/// Layout: `gamma(first + 1)` then `gamma(idx[i] - idx[i-1])` for each
/// subsequent index. The count is *not* stored; callers frame it externally
/// (see [`crate::sparse`]).
///
/// # Errors
///
/// Returns [`CodecError::InvalidValue`] if the input is not strictly
/// increasing.
pub fn encode_gamma(indices: &[u32]) -> Result<Vec<u8>> {
    let mut w = BitWriter::with_capacity_bits(gamma_encoded_bits(indices)?);
    encode_gamma_into(indices, &mut w)?;
    Ok(w.into_bytes())
}

/// Same as [`encode_gamma`] but appends to an existing writer.
///
/// # Errors
///
/// Returns [`CodecError::InvalidValue`] if the input is not strictly increasing.
pub fn encode_gamma_into(indices: &[u32], w: &mut BitWriter) -> Result<()> {
    let mut prev: Option<u32> = None;
    for &idx in indices {
        match prev {
            None => elias::write_gamma(w, u64::from(idx) + 1)?,
            Some(p) => {
                if idx <= p {
                    return Err(CodecError::InvalidValue(
                        "indices must be strictly increasing",
                    ));
                }
                elias::write_gamma(w, u64::from(idx - p))?;
            }
        }
        prev = Some(idx);
    }
    Ok(())
}

/// Decodes `count` indices previously encoded with [`encode_gamma`].
///
/// # Errors
///
/// Fails on truncated streams or if a decoded index overflows `u32`.
pub fn decode_gamma(bytes: &[u8], count: usize) -> Result<Vec<u32>> {
    let mut out = Vec::new();
    decode_gamma_from(&mut BitReader::new(bytes), count, &mut out)?;
    Ok(out)
}

/// Same as [`decode_gamma`] but reads from an existing reader and appends
/// to `out`.
///
/// # Errors
///
/// Fails on truncated streams or if a decoded index overflows `u32`.
pub fn decode_gamma_from(r: &mut BitReader<'_>, count: usize, out: &mut Vec<u32>) -> Result<()> {
    // `count` may be wire-influenced; growth is bounded by the
    // stream length, so cap only the eager pre-allocation.
    out.reserve(count.min(1 << 20));
    // The smallest index the stream can still hold (0, then the previous
    // index plus one), so both the first code (`index + 1`) and every later
    // one (`index − previous`) are `floor + code − 1`.
    let mut floor = 0u64;
    for _ in 0..count {
        // Gamma codes are at least 1; a peer can make the sum overflow.
        let code = elias::read_gamma(r)?;
        let index = floor
            .checked_add(code - 1)
            .and_then(|index| u32::try_from(index).ok())
            .ok_or(CodecError::Corrupt("decoded index overflows u32"))?;
        out.push(index);
        floor = u64::from(index) + 1;
    }
    Ok(())
}

/// Exact encoded size, in bits, of [`encode_gamma`] for `indices` —
/// used for communication budgeting without materializing the buffer.
///
/// # Errors
///
/// Returns [`CodecError::InvalidValue`] for non-increasing input.
pub fn gamma_encoded_bits(indices: &[u32]) -> Result<usize> {
    let mut bits = 0usize;
    let mut prev: Option<u32> = None;
    for &idx in indices {
        bits += match prev {
            None => elias::gamma_bit_len(u64::from(idx) + 1) as usize,
            Some(p) => {
                if idx <= p {
                    return Err(CodecError::InvalidValue(
                        "indices must be strictly increasing",
                    ));
                }
                elias::gamma_bit_len(u64::from(idx - p)) as usize
            }
        };
        prev = Some(idx);
    }
    Ok(bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_roundtrip() {
        let bytes = encode_gamma(&[]).unwrap();
        assert!(bytes.is_empty());
        assert_eq!(decode_gamma(&bytes, 0).unwrap(), Vec::<u32>::new());
    }

    #[test]
    fn simple_roundtrip() {
        let idx = vec![0u32, 1, 2, 10, 1000, 1001, u32::MAX];
        let bytes = encode_gamma(&idx).unwrap();
        assert_eq!(decode_gamma(&bytes, idx.len()).unwrap(), idx);
    }

    #[test]
    fn non_increasing_is_rejected() {
        assert!(encode_gamma(&[5, 5]).is_err());
        assert!(encode_gamma(&[5, 4]).is_err());
        assert!(gamma_encoded_bits(&[1, 1]).is_err());
    }

    /// A delta of `u64::MAX` used to overflow the running sum (a panic
    /// wherever overflow checks are on).
    #[test]
    fn delta_overflowing_u64_is_corrupt() {
        let bytes = elias::gamma_encode_all(&[2, u64::MAX]).unwrap();
        assert!(matches!(
            decode_gamma(&bytes, 2),
            Err(CodecError::Corrupt(_))
        ));
    }

    #[test]
    fn dense_indices_compress_well() {
        // Every other index out of 100k — deltas of 2 take 3 bits each.
        let idx: Vec<u32> = (0..50_000u32).map(|i| i * 2).collect();
        let bytes = encode_gamma(&idx).unwrap();
        let raw = idx.len() * 4;
        assert!(
            bytes.len() * 8 < raw,
            "gamma ({} bytes) should beat raw ({} bytes) by ~8x",
            bytes.len(),
            raw
        );
        assert!(bytes.len() <= raw / 8);
    }

    #[test]
    fn size_estimate_matches_encoding() {
        let idx: Vec<u32> = vec![3, 7, 8, 20, 500, 501, 502, 100_000];
        let bits = gamma_encoded_bits(&idx).unwrap();
        let bytes = encode_gamma(&idx).unwrap();
        assert_eq!(bytes.len(), bits.div_ceil(8));
    }

    proptest! {
        #[test]
        fn roundtrip_any_sorted_unique(mut raw in proptest::collection::vec(0u32..1_000_000, 0..300)) {
            raw.sort_unstable();
            raw.dedup();
            let bytes = encode_gamma(&raw).unwrap();
            prop_assert_eq!(decode_gamma(&bytes, raw.len()).unwrap(), raw);
        }

        #[test]
        fn estimate_always_matches(mut raw in proptest::collection::vec(0u32..10_000_000, 1..200)) {
            raw.sort_unstable();
            raw.dedup();
            let bits = gamma_encoded_bits(&raw).unwrap();
            let bytes = encode_gamma(&raw).unwrap();
            prop_assert_eq!(bytes.len(), bits.div_ceil(8));
        }
    }
}
