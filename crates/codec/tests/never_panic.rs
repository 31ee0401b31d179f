//! No byte sequence a neighbour can send, and no element count a header can
//! declare, may panic a decoder: every outcome is `Ok` or `Err`. (The
//! proptest shim runs each case on the test thread, so a panic — overflow
//! checks are on in this profile — fails the test.)

use jwins_codec::bitio::BitReader;
use jwins_codec::float::{FloatCodec, RawFloatCodec, XorFloatCodec};
use jwins_codec::quantize::Qsgd;
use jwins_codec::sparse::{IndexCodec, SparseVecCodec, ValueCodec};
use jwins_codec::{delta, elias, varint};
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
        let _ = XorFloatCodec.decode(&bytes, count);
        let _ = RawFloatCodec.decode(&bytes, count);
    }

    #[test]
    fn sparse_decoder(
        body in wire(),
        // The header is wire data too; steer it so that some cases get past
        // the framing checks and into the block decoders.
        count in prop_oneof![0u64..64, any::<u64>()],
        index_len in prop_oneof![0u64..96, any::<u64>()],
        framed in any::<bool>(),
    ) {
        let mut bytes = Vec::new();
        if framed {
            varint::write_u64(&mut bytes, count);
            varint::write_u64(&mut bytes, index_len);
        }
        bytes.extend(&body);
        for ic in [IndexCodec::RawU32, IndexCodec::VarintDelta, IndexCodec::EliasGammaDelta] {
            for vc in [ValueCodec::Raw, ValueCodec::Xor] {
                let codec = SparseVecCodec::new(ic, vc);
                let decoded = codec.decode(&bytes);
                let mut visited = 0usize;
                let streamed = codec.decode_each(&bytes, |_, _| {
                    visited += 1;
                    Ok::<(), jwins_codec::CodecError>(())
                });
                // The two entry points are one decoder.
                prop_assert_eq!(decoded.as_ref().map(|(i, _)| i.len()), streamed.as_ref().copied());
                if let Ok((indices, values)) = decoded {
                    prop_assert_eq!(indices.len(), values.len());
                    prop_assert_eq!(indices.len(), visited);
                }
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
