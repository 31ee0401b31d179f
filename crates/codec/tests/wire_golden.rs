//! Golden wire images: the bytes below were produced by the bit-at-a-time
//! coders this crate started with. Any change to them is a wire-format
//! change — it moves `bytes_per_node` and `sim_time_s` in every experiment —
//! and must be made on purpose, never as a side effect of a faster kernel.

use jwins_codec::delta;
use jwins_codec::float::{FloatCodec, XorFloatCodec};
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
    let wire = XorFloatCodec.encode(&values);
    assert_eq!(
        hex(&wire),
        "00000000c00e04dfefe0e1f40000001c0980707e03fffffe7fffffffa03b38fbac03ce3ee4000147af014c51eb80"
    );
    let decoded = XorFloatCodec.decode(&wire, values.len()).unwrap();
    assert_eq!(bits(&decoded), bits(&values));
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
        "050820e805f800021fc03e800000c09816ffa7e7033fbe"
    );
    assert_eq!((encoded.metadata_bytes, encoded.payload_bytes), (10, 13));
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
