//! No byte sequence a neighbour can send, and no element count a header can
//! declare, may panic a decoder: every outcome is `Ok` or `Err`. (The
//! proptest shim runs each case on the test thread, so a panic — overflow
//! checks are on in this profile — fails the test.)

use jwins_codec::bitio::{BitReader, BitWriter};
use jwins_codec::float::{BlockFloatCodec, FloatCodec, RawFloatCodec};
use jwins_codec::quantize::Qsgd;
use jwins_codec::sparse::{IndexCodec, SparseVecCodec, ValueCodec};
use jwins_codec::{delta, elias, varint, CodecError};
use proptest::prelude::*;

/// Arbitrary bytes, biased towards the zero and all-ones bytes that make
/// long unary runs, maximal varints and maximal gamma codes.
fn wire() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(prop_oneof![Just(0u8), Just(0xFFu8), any::<u8>()], 0..96)
}

/// Declared element counts: plausible, large, and absurd.
fn declared_count() -> impl Strategy<Value = usize> {
    prop_oneof![0usize..64, 0usize..200_000, any::<usize>()]
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// A block as a peer may write it: any header — wasteful or impossible —
/// and any fields. `raw` holds 64 `(offset, sign + mantissa)` pairs that
/// [`write_block`] cuts to the header's widths.
type WireBlock = (u32, u32, u32, Vec<(u32, u32)>);

fn wire_block() -> impl Strategy<Value = WireBlock> {
    (
        // Under `emax` = 255 no offset is out of range.
        prop_oneof![Just(255u32), 0u32..=255],
        prop_oneof![0u32..=8, 0u32..=8, 9u32..=15],
        prop_oneof![0u32..=23, 0u32..=23, 24u32..=31],
        proptest::collection::vec((any::<u32>(), any::<u32>()), 64..65),
    )
}

/// Writes the first `len` values of `block`, appending to `values` the bit
/// patterns a decoder must make of them. `false` at the first thing the
/// format forbids; nothing is written past it.
fn write_block(
    w: &mut BitWriter,
    (emax, offset_bits, tz, raw): &WireBlock,
    len: usize,
    values: &mut Vec<u32>,
) -> bool {
    w.write_bits(u64::from((emax << 9) | (offset_bits << 5) | tz), 17);
    if *offset_bits > 8 || *tz > 23 {
        return false;
    }
    let low = 24 - tz;
    for &(offset, sign_mantissa) in &raw[..len] {
        let offset = offset & ((1 << offset_bits) - 1);
        let sign_mantissa = sign_mantissa & ((1 << low) - 1);
        w.write_bits(
            (u64::from(offset) << low) | u64::from(sign_mantissa),
            offset_bits + low,
        );
        let Some(exponent) = emax.checked_sub(offset) else {
            return false;
        };
        let spread = sign_mantissa << tz;
        values.push((spread >> 23 << 31) | (exponent << 23) | (spread & 0x7F_FFFF));
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn elias_decoders(bytes in wire(), count in declared_count()) {
        let mut r = BitReader::new(&bytes);
        while elias::read_gamma(&mut r).is_ok() {}
        let mut r = BitReader::new(&bytes);
        while elias::read_delta(&mut r).is_ok() {}
        let _ = elias::gamma_decode_all(&bytes, count);
    }

    #[test]
    fn delta_decoder(bytes in wire(), count in declared_count()) {
        let _ = delta::decode_gamma(&bytes, count);
    }

    #[test]
    fn float_decoders(bytes in wire(), count in declared_count()) {
        let _ = RawFloatCodec.decode(&bytes, count);
        // Whatever arbitrary bytes decode to re-encodes no longer.
        if let Ok(values) = BlockFloatCodec.decode(&bytes, count) {
            prop_assert_eq!(values.len(), count);
            prop_assert!(BlockFloatCodec.encode(&values).len() <= bytes.len());
        }
    }

    /// Headers steered into and out of the legal range: `w` ∈ 9..=15,
    /// `tz` ∈ 24..=31 and an offset above `emax` are `Corrupt`; a legal
    /// image decodes to the modelled values, is `UnexpectedEof` at every
    /// truncation and `Corrupt` with a byte appended.
    #[test]
    fn block_float_steered_headers(
        blocks in proptest::collection::vec(wire_block(), 1..4),
        last_len in 1usize..=64,
    ) {
        let mut w = BitWriter::new();
        let (mut expected, mut count, mut legal) = (Vec::new(), 0, true);
        for (i, block) in blocks.iter().enumerate() {
            let len = if i + 1 == blocks.len() { last_len } else { 64 };
            count += len;
            legal = write_block(&mut w, block, len, &mut expected);
            if !legal {
                break;
            }
        }
        let bytes = w.into_bytes();
        let decoded = BlockFloatCodec.decode(&bytes, count);
        if legal {
            prop_assert_eq!(decoded.as_deref().map(bits), Ok(expected));
            let values = decoded.unwrap();
            prop_assert!(BlockFloatCodec.encode(&values).len() <= bytes.len());
            for cut in 0..bytes.len() {
                prop_assert_eq!(
                    BlockFloatCodec.decode(&bytes[..cut], count),
                    Err(CodecError::UnexpectedEof)
                );
            }
            let mut longer = bytes;
            longer.push(0);
            prop_assert!(matches!(
                BlockFloatCodec.decode(&longer, count),
                Err(CodecError::Corrupt(_))
            ));
        } else {
            prop_assert!(matches!(decoded, Err(CodecError::Corrupt(_))), "{:?}", decoded);
        }
    }

    #[test]
    fn sparse_decoder(
        body in wire(),
        // The header is wire data too; steer it so that some cases get past
        // the framing checks and into the block decoders.
        count in prop_oneof![0u64..64, any::<u64>()],
        index_len in prop_oneof![0u64..96, any::<u64>()],
        framed in any::<bool>(),
        // What a reused buffer holds from the last message: any content,
        // any length.
        junk_indices in proptest::collection::vec(any::<u32>(), 0..80),
        junk_values in proptest::collection::vec(any::<u32>(), 0..80),
    ) {
        let mut bytes = Vec::new();
        if framed {
            varint::write_u64(&mut bytes, count);
            varint::write_u64(&mut bytes, index_len);
        }
        bytes.extend(&body);
        for ic in [IndexCodec::RawU32, IndexCodec::VarintDelta, IndexCodec::EliasGammaDelta] {
            for vc in [ValueCodec::Raw, ValueCodec::Block] {
                let codec = SparseVecCodec::new(ic, vc);
                let decoded = codec.decode(&bytes);
                let compact = codec.decode_compact(&bytes);
                // The three entry points are one decoder.
                prop_assert_eq!(
                    compact.as_ref().map(|(_, v)| v.len()),
                    decoded.as_ref().map(|(_, v)| v.len())
                );
                if let Ok((indices, values)) = &decoded {
                    prop_assert_eq!(indices.len(), values.len());
                }
                // Decoding into reused buffers gives what fresh ones would,
                // with `indices` left empty for an implied frame.
                let mut indices = junk_indices.clone();
                let mut values: Vec<f32> = junk_values.iter().map(|&p| f32::from_bits(p)).collect();
                let reused = codec
                    .decode_compact_into(&bytes, &mut indices, &mut values)
                    .map(|implied| (implied, indices, bits(&values)));
                let fresh = compact.map(|(i, v)| (i.is_none(), i.unwrap_or_default(), bits(&v)));
                prop_assert_eq!(reused, fresh);
            }
        }
    }

    /// Implied frames (`count > 0`, `index_len = 0`) as a peer may cut them:
    /// a value block one byte short is `UnexpectedEof`, one with a byte
    /// appended is `Corrupt`, and a count above eight per byte of the frame
    /// is `Corrupt` before anything is sized by it.
    #[test]
    fn implied_frame_steered(
        patterns in proptest::collection::vec(any::<u32>(), 1..200),
        overdeclared in 1u64..1_000,
    ) {
        let values: Vec<f32> = patterns.iter().map(|&p| f32::from_bits(p)).collect();
        let n = values.len();
        for vc in [ValueCodec::Raw, ValueCodec::Block] {
            let value_block = |values: &[f32]| match vc {
                ValueCodec::Raw => RawFloatCodec.encode(values),
                _ => BlockFloatCodec.encode(values),
            };
            let frame = |count: u64, value_block: &[u8]| {
                let mut bytes = Vec::new();
                varint::write_u64(&mut bytes, count);
                varint::write_u64(&mut bytes, 0);
                bytes.extend(value_block);
                bytes
            };
            for ic in [IndexCodec::RawU32, IndexCodec::VarintDelta, IndexCodec::EliasGammaDelta] {
                let codec = SparseVecCodec::new(ic, vc);
                let whole = frame(n as u64, &value_block(&values));
                let (indices, decoded) = codec.decode(&whole).unwrap();
                prop_assert_eq!(indices, (0..n as u32).collect::<Vec<_>>());
                prop_assert_eq!(bits(&decoded), bits(&values));
                let short = &whole[..whole.len() - 1];
                prop_assert_eq!(codec.decode(short), Err(CodecError::UnexpectedEof));
                let mut longer = whole.clone();
                longer.push(0xA5);
                prop_assert!(matches!(codec.decode(&longer), Err(CodecError::Corrupt(_))));
                let len = whole.len() as u64;
                let absurd = frame(8 * (len + 2) + overdeclared, &value_block(&values));
                prop_assert!(8 * (absurd.len() as u64) < 8 * (len + 2) + overdeclared);
                prop_assert_eq!(
                    codec.decode(&absurd),
                    Err(CodecError::Corrupt("declared count exceeds buffer capacity"))
                );
            }
        }
    }

    #[test]
    fn qsgd_decoder(
        bytes in wire(),
        // `count` is the receiver's own dimension here, not wire data: a
        // zero-norm message legitimately expands to `count` zeros.
        count in 0usize..4096,
        levels in prop_oneof![1u32..=255, any::<u32>().prop_map(|l| l.max(1))],
    ) {
        let _ = Qsgd::new(levels).decode(&bytes, count);
    }

    #[test]
    fn varint_decoder(bytes in wire()) {
        if let Ok((value, used)) = varint::read_u64(&bytes) {
            prop_assert!((1..=10).contains(&used) && used <= bytes.len());
            // The canonical re-encoding is never longer than what was read
            // and reads back as the same value; padded encodings (a trailing
            // zero group, e.g. `80 00`) are the only inputs it shortens.
            let mut again = Vec::new();
            let written = varint::write_u64(&mut again, value);
            prop_assert_eq!(written, varint::encoded_len(value));
            prop_assert!(written <= used);
            prop_assert_eq!(varint::read_u64(&again), Ok((value, written)));
            let padded = used > 1 && bytes[used - 1] == 0;
            prop_assert_eq!(again == bytes[..used], !padded);
        }
    }
}
