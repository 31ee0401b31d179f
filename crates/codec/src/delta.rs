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

/// Same as [`encode_gamma`] but appends to an existing writer. Order is
/// checked as each code is written, so no pass over `indices` comes first;
/// on an error the writer holds the codes before the offending index.
///
/// # Errors
///
/// Returns [`CodecError::InvalidValue`] if the input is not strictly increasing.
pub fn encode_gamma_into(indices: &[u32], w: &mut BitWriter) -> Result<()> {
    encode_gamma_from(indices.iter().copied(), w)
}

/// [`encode_gamma_into`] of indices in the order an iterator yields them —
/// a list's or a bitmap's ([`crate::bitmap::ones`]).
///
/// # Errors
///
/// Returns [`CodecError::InvalidValue`] if the input is not strictly increasing.
pub(crate) fn encode_gamma_from(
    indices: impl IntoIterator<Item = u32>,
    w: &mut BitWriter,
) -> Result<()> {
    // The smallest index allowed next, as in `decode_gamma_from`: every
    // code is `index − floor + 1`.
    let mut floor = 0u64;
    for index in indices {
        let index = u64::from(index);
        if index < floor {
            return Err(CodecError::InvalidValue(
                "indices must be strictly increasing",
            ));
        }
        elias::write_gamma(w, index - floor + 1)?;
        floor = index + 1;
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
/// A window at a time: while at least 57 bits remain, one 64-bit look
/// ahead of the cursor yields every code that lies wholly inside its first
/// 57 bits (all of them real), and one cursor move passes them all. A code
/// that does not fit — one longer than that, one behind a run of zeros, or
/// one in the stream's last bits — is read by itself with
/// [`elias::read_gamma`]. Values, errors and the cursor after an error are
/// those of reading every code with [`elias::read_gamma`].
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
    // one (`index − previous`) are `floor + code − 1`. Gamma codes are at
    // least 1; a peer can make the sum overflow.
    let index = |floor: u64, code: u64| {
        floor
            .checked_add(code - 1)
            .and_then(|index| u32::try_from(index).ok())
            .ok_or(CodecError::Corrupt("decoded index overflows u32"))
    };
    let mut floor = 0u64;
    let mut left = count;
    while left > 0 {
        let mut used = 0;
        if r.remaining_bits() >= BitReader::PEEK_MAX as usize {
            let window = r.peek();
            while left > 0 {
                // Past the window's real bits `rest` reads zeros, which
                // only make a code look longer than what is left.
                let rest = window << used;
                let width = 2 * rest.leading_zeros() + 1;
                if used + width > BitReader::PEEK_MAX {
                    break;
                }
                used += width;
                let next = match index(floor, rest >> (64 - width)) {
                    Ok(next) => next,
                    Err(error) => {
                        r.skip(used)?;
                        return Err(error);
                    }
                };
                out.push(next);
                floor = u64::from(next) + 1;
                left -= 1;
            }
        }
        if used > 0 {
            r.skip(used)?;
        } else {
            let next = index(floor, elias::read_gamma(r)?)?;
            out.push(next);
            floor = u64::from(next) + 1;
            left -= 1;
        }
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

    /// `decode_gamma_from` as it read before it took a window at a time:
    /// one `read_gamma` per index.
    fn per_code_reference(r: &mut BitReader<'_>, count: usize, out: &mut Vec<u32>) -> Result<()> {
        let mut floor = 0u64;
        for _ in 0..count {
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

    /// Both decoders on `bytes`: result, indices decoded before it and the
    /// cursor behind them must agree.
    fn assert_matches_reference(bytes: &[u8], count: usize) {
        let (mut fast, mut slow) = (BitReader::new(bytes), BitReader::new(bytes));
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let result = decode_gamma_from(&mut fast, count, &mut got);
        let expected = per_code_reference(&mut slow, count, &mut want);
        assert_eq!(result, expected, "count {count} of {bytes:02x?}");
        assert_eq!(got, want, "count {count} of {bytes:02x?}");
        assert_eq!(
            fast.bit_pos(),
            slow.bit_pos(),
            "count {count} of {bytes:02x?}"
        );
    }

    /// Gamma codes of `values`, for streams no index list spells.
    fn codes(values: &[u64]) -> Vec<u8> {
        elias::gamma_encode_all(values).unwrap()
    }

    #[test]
    fn windowed_decode_matches_reference_on_crafted_streams() {
        // A 57-bit code right behind short ones straddles the window.
        let mut straddling = vec![1u64; 7];
        straddling.push(1 << 28);
        straddling.extend([1; 40]);
        // Codes with 29 to 63 leading zeros, between short ones.
        let long: Vec<u64> = (29..64).flat_map(|zeros| [3, 1 << zeros, 2]).collect();
        // Index u32::MAX − 3 by one long code, then deltas of one: the
        // fourth overflows `u32` inside a window (the 60 behind it keep
        // the stream longer than one).
        let mut overflow = vec![1, 2, u64::from(u32::MAX) - 5];
        overflow.extend([1; 64]);
        for values in [&straddling[..], &long, &overflow] {
            let bytes = codes(values);
            for cut in 0..=bytes.len() {
                for count in [0, 1, values.len() / 2, values.len(), values.len() + 1] {
                    assert_matches_reference(&bytes[..cut], count);
                }
            }
        }
        assert!(matches!(
            decode_gamma(&codes(&overflow), overflow.len()),
            Err(CodecError::Corrupt(_))
        ));
    }

    /// Gaps of every code width gamma meets, small ones most often.
    fn gap() -> impl Strategy<Value = u32> {
        (0u32..32, any::<u32>()).prop_map(|(shift, raw)| (raw >> shift).max(1))
    }

    proptest! {
        #[test]
        fn windowed_decode_matches_reference_on_any_bytes(
            bytes in proptest::collection::vec(
                prop_oneof![Just(0u8), Just(0xFFu8), any::<u8>()],
                0..96,
            ),
            count in prop_oneof![0usize..64, 0usize..1_000, any::<usize>()],
        ) {
            assert_matches_reference(&bytes, count);
        }

        #[test]
        fn windowed_decode_matches_reference_at_every_truncation(
            gaps in proptest::collection::vec(gap(), 0..60),
        ) {
            let indices: Vec<u32> = gaps
                .iter()
                .scan(0u32, |at, &gap| {
                    *at = at.checked_add(gap)?;
                    Some(*at)
                })
                .collect();
            let bytes = encode_gamma(&indices).unwrap();
            prop_assert_eq!(decode_gamma(&bytes, indices.len()).unwrap(), indices.clone());
            for cut in 0..=bytes.len() {
                assert_matches_reference(&bytes[..cut], indices.len());
            }
        }
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
