//! No byte sequence the wire can hand a receiving session may panic the
//! frame decoder: every outcome is `Ok` or `Err`, and a frame that decodes
//! is exactly the frame `encode` would have written. (The proptest shim runs
//! each case on the test thread, so a panic fails the test.)

use bytes::Bytes;
use jwins_net::framing::{decode, encode, FrameError, HEADER_LEN, MAGIC, VERSION};
use proptest::prelude::*;

fn bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(prop_oneof![Just(0u8), Just(0xFFu8), any::<u8>()], 0..max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes(wire in bytes(96)) {
        let wire = Bytes::from(wire);
        if let Ok(frame) = decode(&wire) {
            let again = encode(frame.kind, frame.from, frame.to, frame.sent_round, frame.sent, &frame.payload);
            prop_assert_eq!(again, wire);
        }
    }

    /// The header is wire data too; steer it so that most cases get past
    /// the magic/version/kind checks and into the length validation.
    #[test]
    fn steered_headers(
        version in prop_oneof![Just(VERSION), any::<u8>()],
        kind in prop_oneof![Just(0u8), any::<u8>()],
        stamps in proptest::collection::vec(any::<u8>(), 24..25),
        declared in prop_oneof![Just(None), any::<u32>().prop_map(Some)],
        body in bytes(64),
        cut in prop_oneof![Just(None), (0usize..HEADER_LEN + 64).prop_map(Some)],
    ) {
        let mut wire = MAGIC.to_vec();
        wire.extend([version, kind]);
        wire.extend(&stamps);
        wire.extend(declared.unwrap_or(body.len() as u32).to_le_bytes());
        wire.extend(&body);
        if let Some(cut) = cut {
            wire.truncate(cut);
        }
        let wire = Bytes::from(wire);
        match decode(&wire) {
            Ok(frame) => {
                prop_assert_eq!(&frame.payload[..], &wire[HEADER_LEN..]);
                let again = encode(frame.kind, frame.from, frame.to, frame.sent_round, frame.sent, &frame.payload);
                prop_assert_eq!(again, wire);
            }
            Err(FrameError::TooShort { got }) => prop_assert!(got == wire.len() && got < HEADER_LEN),
            Err(FrameError::LengthMismatch { declared, got }) => {
                prop_assert!(declared != got && got == wire.len() - HEADER_LEN);
            }
            Err(_) => prop_assert!(version != VERSION || kind != 0),
        }
    }
}
