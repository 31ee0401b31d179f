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

/// The densest frame there is — consecutive indices, all-zero values: one
/// bit per index and one sign bit per value. `SparseVecCodec` rejects a
/// declared count above four per byte before sizing anything by it, so this
/// frame has to stay inside that bound.
#[test]
fn all_zero_values_fit_the_sparse_frame_bound() {
    let indices: Vec<u32> = (0..1000).collect();
    let values = vec![0.0f32; 1000];
    let codec = SparseVecCodec::default();
    let encoded = codec.encode(&indices, &values).unwrap();
    assert_eq!(encoded.payload_bytes, (1000usize + 16 * 17).div_ceil(8));
    assert!(indices.len() <= 4 * encoded.len());
    let (di, dv) = codec.decode(encoded.as_bytes()).unwrap();
    assert_eq!(di, indices);
    assert!(dv.iter().all(|v| v.to_bits() == 0));
}
