//! The value codec must compress what this repository ships: the size
//! guarantees that the XOR coder it replaced never had (it emitted 34 bits
//! per `f32` on every real message and nothing noticed).

mod common;

use common::{trained_like, LENET, MLP};
use jwins_codec::float::{BlockFloatCodec, FloatCodec, RawFloatCodec};
use jwins_codec::sparse::SparseVecCodec;

fn bits_per_value(values: &[f32]) -> f64 {
    BlockFloatCodec.encode(values).len() as f64 * 8.0 / values.len() as f64
}

#[test]
fn trained_like_vectors_compress() {
    let mlp = trained_like(&MLP);
    assert_eq!(mlp.len(), 113_418);
    let encoded = BlockFloatCodec.encode(&mlp);
    assert!(encoded.len() < RawFloatCodec.encode(&mlp).len());
    assert!(bits_per_value(&mlp) <= 28.5, "{}", bits_per_value(&mlp));
    let decoded = BlockFloatCodec.decode(&encoded, mlp.len()).unwrap();
    assert!(mlp
        .iter()
        .zip(&decoded)
        .all(|(a, b)| a.to_bits() == b.to_bits()));
    // A small model is a larger share of zeros and ones, which cost a
    // bit or two each.
    let lenet = trained_like(&LENET);
    assert_eq!(lenet.len(), 1_570);
    assert!(bits_per_value(&lenet) <= 28.5, "{}", bits_per_value(&lenet));
}

/// The densest frames there are — all-zero values, one sign bit each, at
/// consecutive indices. `SparseVecCodec` rejects a declared count above
/// four per byte (eight in an implied frame, which spends no bit on an
/// index) before sizing anything by it, so both have to stay inside their
/// bound: 1 000 indices from 1 cost a gamma bit each (3 for the first), and
/// 1 000 indices from 0 are implied and cost none — 162 bytes in all, which
/// only the implied frame's bound admits.
#[test]
fn all_zero_values_fit_the_sparse_frame_bound() {
    let values = vec![0.0f32; 1000];
    let payload = (1000usize + 16 * 17).div_ceil(8);
    let codec = SparseVecCodec::default();
    // Metadata: a two-byte count, a one-byte `index_len`, the index block.
    for (first, per_byte, metadata) in [(1u32, 4, 3 + 1002usize.div_ceil(8)), (0, 8, 3)] {
        let indices: Vec<u32> = (first..first + 1000).collect();
        let encoded = codec.encode(&indices, &values).unwrap();
        assert_eq!(encoded.payload_bytes, payload);
        assert_eq!(encoded.metadata_bytes, metadata, "indices from {first}");
        assert!(indices.len() <= per_byte * encoded.len());
        let (di, dv) = codec.decode(encoded.as_bytes()).unwrap();
        assert_eq!(di, indices);
        assert!(dv.iter().all(|v| v.to_bits() == 0));
    }
}
