//! Deterministic inputs for the oracle tests: full-mantissa values, so that
//! a reordered sum rounds differently, salted with the signed zeros that
//! padding and ReLU put into real activations and gradients.

/// `len` values in `[-1, 1)`; one in eight is `0.0`, one in eight `-0.0`.
pub(crate) fn salted(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            match state >> 61 {
                0 => 0.0,
                1 => -0.0,
                _ => (state as u32 >> 8) as f32 / (1 << 23) as f32 - 1.0,
            }
        })
        .collect()
}

/// [`salted`] with every non-positive value replaced by `0.0`: an upstream
/// gradient after a ReLU.
pub(crate) fn relu_sparse(len: usize, seed: u64) -> Vec<f32> {
    let mut values = salted(len, seed);
    for v in &mut values {
        *v = v.max(0.0);
    }
    values
}

pub(crate) fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}
