//! A deterministic stand-in for a trained parameter vector, shared by the
//! size tests here and by `micro_substrates` (which includes this file by
//! path): per layer a Gaussian weight matrix at the layer's own scale, then
//! zero biases, and for normalised layers unit gains. No RNG crate: a
//! SplitMix64 stream and the sum of twelve uniforms.

/// One layer: `weights` Gaussian values of standard deviation `sigma`,
/// followed by `ones` values of 1.0 (GroupNorm γ) and `zeros` of 0.0
/// (biases, GroupNorm β).
#[derive(Debug, Clone, Copy)]
pub struct LayerShape {
    pub weights: usize,
    pub sigma: f32,
    pub ones: usize,
    pub zeros: usize,
}

const fn dense(inputs: usize, outputs: usize, sigma: f32) -> LayerShape {
    LayerShape {
        weights: inputs * outputs,
        sigma,
        ones: 0,
        zeros: outputs,
    }
}

const fn conv_gn(weights: usize, channels: usize, sigma: f32) -> LayerShape {
    LayerShape {
        weights,
        sigma,
        ones: channels,
        zeros: 2 * channels,
    }
}

/// The benchmark's MLP 432-256-10: d = 113 418.
pub const MLP: [LayerShape; 2] = [dense(432, 256, 0.068), dense(256, 10, 0.088)];

/// A GN-LeNet-like stack of d = 1 570: two 3×3 convolutions with GroupNorm
/// and a linear head.
pub const LENET: [LayerShape; 3] = [
    conv_gn(3 * 8 * 9, 8, 0.27),
    conv_gn(8 * 8 * 9, 8, 0.17),
    dense(72, 10, 0.17),
];

pub fn trained_like(layers: &[LayerShape]) -> Vec<f32> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut uniform = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut out = Vec::new();
    for layer in layers {
        for _ in 0..layer.weights {
            let gaussian: f64 = (0..12).map(|_| uniform()).sum::<f64>() - 6.0;
            out.push((gaussian * f64::from(layer.sigma)) as f32);
        }
        out.extend(std::iter::repeat_n(1.0, layer.ones));
        out.extend(std::iter::repeat_n(0.0, layer.zeros));
    }
    out
}
