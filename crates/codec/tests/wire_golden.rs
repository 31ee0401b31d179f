//! Golden wire images: the bytes below were produced by the bit-at-a-time
//! coders this crate started with. Any change to them is a wire-format
//! change — it moves `bytes_per_node` and `sim_time_s` in every experiment —
//! and must be made on purpose, never as a side effect of a faster kernel.
//!
//! The float-bearing images (`xor_float_codec`, `default_sparse_vec_codec`,
//! `block_float_codec_at_block_boundaries`) were bumped on purpose when the
//! value codec changed from the Gorilla-style XOR coder, which inflated
//! every payload of this repository by 6 %, to the block-exponent format of
//! `jwins_codec::float`; the index and QSGD images did not move.

use jwins_codec::delta;
use jwins_codec::float::{BlockFloatCodec, FloatCodec};
use jwins_codec::quantize::Qsgd;
use jwins_codec::sparse::SparseVecCodec;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn xor_float_codec() {
    let values = [
        0.0f32,
        -0.0,
        1.5,
        1.5,
        1.5000001,
        f32::NAN,
        f32::NEG_INFINITY,
        f32::MAX,
        f32::MIN_POSITIVE,
        -1e-38,
        3.25,
        3.25,
        3.26,
        100.0,
    ];
    let wire = BlockFloatCodec.encode(&values);
    assert_eq!(
        hex(&wire),
        "ff807f8000007fc00000402000004020000040200000802000000040000000bfffffff0000007ff671f73fa800003fa800003fa851ebbd24000000"
    );
    let decoded = BlockFloatCodec.decode(&wire, values.len()).unwrap();
    assert_eq!(bits(&decoded), bits(&values));
}

/// One image per block shape: a lone value, one short of a block, a full
/// block, one value into the second block, and a block that mixes zeros
/// with normal values (`w` = 8).
#[test]
fn block_float_codec_at_block_boundaries() {
    // Exponents span 2⁻²..2², three mantissa bits, alternating sign: seven
    // bits a field.
    let value = |i: usize| {
        [1.0, -1.0][i % 2] * (1.0 + (i % 8) as f32 / 8.0) * f32::powi(2.0, (i % 5) as i32 - 2)
    };
    let mut mixed: Vec<f32> = (0..8).map(value).collect();
    mixed[2] = 0.0;
    mixed[5] = -0.0;
    for (len, expected) in [
        (1, "7d0b80"),
        (63, "813a407288d849ad97901309da43a1a7b052485c47a98f8092c95941b19fa0320a5b45a587c07288d849ad97901309da43a1a7b052485c47a980"),
        (64, "813a407288d849ad97901309da43a1a7b052485c47a98f8092c95941b19fa0320a5b45a587c07288d849ad97901309da43a1a7b052485c47a98f80"),
        (65, "813a407288d849ad97901309da43a1a7b052485c47a98f8092c95941b19fa0320a5b45a587c07288d849ad97901309da43a1a7b052485c47a98fc085c0"),
    ] {
        let values: Vec<f32> = (0..len).map(value).collect();
        let wire = BlockFloatCodec.encode(&values);
        assert_eq!(hex(&wire), expected, "{len} values");
        let decoded = BlockFloatCodec.decode(&wire, len).unwrap();
        assert_eq!(bits(&decoded), bits(&values));
    }
    let wire = BlockFloatCodec.encode(&mixed);
    assert_eq!(hex(&wire), "818a02001cc0800d80240c01b01780");
    assert_eq!(
        bits(&BlockFloatCodec.decode(&wire, mixed.len()).unwrap()),
        bits(&mixed)
    );
}

#[test]
fn gamma_delta_indices() {
    let indices = [0u32, 1, 2, 10, 1000, 1001, 65_536, u32::MAX];
    let wire = delta::encode_gamma(&indices).unwrap();
    assert_eq!(hex(&wire), "e2001ef40007e0b80000000fffeffff0");
    assert_eq!(delta::decode_gamma(&wire, indices.len()).unwrap(), indices);
}

#[test]
fn default_sparse_vec_codec() {
    let indices = [3u32, 17, 18, 400, 70_000];
    let values = [0.25f32, -1.5, 3.0, 0.125, -7.75];
    let codec = SparseVecCodec::default();
    let encoded = codec.encode(&indices, &values).unwrap();
    assert_eq!(
        hex(encoded.as_bytes()),
        "050820e805f800021fc08139c02c14500f80"
    );
    assert_eq!((encoded.metadata_bytes, encoded.payload_bytes), (10, 8));
    let (di, dv) = codec.decode(encoded.as_bytes()).unwrap();
    assert_eq!(di, indices);
    assert_eq!(bits(&dv), bits(&values));
}

/// A full-budget share: indices `0..5` are implied, so the frame is the
/// count, an empty index block and the values — the same value block as
/// `default_sparse_vec_codec`'s.
#[test]
fn implied_sparse_vec_frame() {
    let indices = [0u32, 1, 2, 3, 4];
    let values = [0.25f32, -1.5, 3.0, 0.125, -7.75];
    let codec = SparseVecCodec::default();
    let encoded = codec.encode(&indices, &values).unwrap();
    assert_eq!(hex(encoded.as_bytes()), "05008139c02c14500f80");
    assert_eq!((encoded.metadata_bytes, encoded.payload_bytes), (2, 8));
    let (di, dv) = codec.decode(encoded.as_bytes()).unwrap();
    assert_eq!(di, indices);
    assert_eq!(bits(&dv), bits(&values));
}

#[test]
fn qsgd() {
    let values = [0.3f32, -0.7, 0.1, 0.0, 2.0];
    let quantizer = Qsgd::new(4);
    let wire = quantizer.encode(&values, || 0.5);
    assert_eq!(hex(&wire), "40091d8d2a5140");
    let norm = f32::from_bits(0x4009_1d8d);
    let decoded = quantizer.decode(&wire, values.len()).unwrap();
    let expected = [norm * 0.25, -norm * 0.25, 0.0, 0.0, norm];
    assert_eq!(bits(&decoded), bits(&expected));
}
