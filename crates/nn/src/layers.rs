//! The [`Layer`] trait and the dense/stateless layers.
//!
//! Layers own their parameters and gradients as flat `f32` buffers so a
//! [`crate::sequential::Sequential`] container can expose the whole network
//! as one parameter vector — the representation JWINS sparsifies. Every
//! backward implementation here is covered by finite-difference tests in
//! [`crate::gradcheck`].

use crate::init;
use crate::scratch;
use crate::tensor::Tensor;

/// A differentiable module with owned parameters.
///
/// Activations move through the stack by value: a layer may overwrite its
/// argument in place or keep it, and never copies it. Contract: a `forward`
/// with `train` set keeps whatever `backward` needs; `backward` reads what
/// the *most recent* training forward kept, accumulates parameter gradients
/// into `grads()` and returns the gradient with respect to the input. A
/// `forward` without `train` (evaluation) keeps nothing and leaves an
/// earlier training forward's state alone.
pub trait Layer: Send + std::fmt::Debug {
    /// Computes the layer output for a batch.
    fn forward(&mut self, input: Tensor, train: bool) -> Tensor;

    /// Backpropagates `grad_out`, returning the gradient w.r.t. the input.
    ///
    /// # Panics
    ///
    /// May panic if called before a training `forward` or with a mismatched
    /// shape.
    fn backward(&mut self, grad_out: Tensor) -> Tensor;

    /// Number of trainable parameters.
    fn param_count(&self) -> usize {
        0
    }

    /// Flat view of the parameters.
    fn params(&self) -> &[f32] {
        &[]
    }

    /// Mutable flat view of the parameters.
    fn params_mut(&mut self) -> &mut [f32] {
        &mut []
    }

    /// Flat view of the accumulated gradients (same layout as `params`).
    fn grads(&self) -> &[f32] {
        &[]
    }

    /// Clears accumulated gradients.
    fn zero_grads(&mut self) {}

    /// Matrix shapes of the parameter blocks, in flat order; the `(rows,
    /// cols)` products sum to [`Self::param_count`]. Low-rank compressors
    /// (PowerGossip) factorize each block separately, which only pays off
    /// when the shapes match the layer's natural matrices — the default
    /// treats all parameters as one column vector, which a rank-1
    /// factorization represents exactly (right for biases and norms).
    fn param_segments(&self) -> Vec<(usize, usize)> {
        if self.param_count() == 0 {
            Vec::new()
        } else {
            vec![(self.param_count(), 1)]
        }
    }
}

/// Fully connected layer: `y = W x + b`, weights `[out, in]` row-major
/// followed by the bias in the flat parameter buffer.
#[derive(Debug)]
pub struct Linear {
    in_features: usize,
    out_features: usize,
    params: Vec<f32>,
    grads: Vec<f32>,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Creates a Xavier-initialized linear layer.
    pub fn new(in_features: usize, out_features: usize, seed: u64) -> Self {
        let mut params =
            init::xavier_uniform(in_features, out_features, in_features * out_features, seed);
        params.extend(std::iter::repeat_n(0.0f32, out_features)); // bias
        let len = params.len();
        Self {
            in_features,
            out_features,
            params,
            grads: vec![0.0; len],
            cached_input: None,
        }
    }

    fn weight(&self) -> &[f32] {
        &self.params[..self.in_features * self.out_features]
    }

    fn bias(&self) -> &[f32] {
        &self.params[self.in_features * self.out_features..]
    }
}

/// Most samples whose chains [`linear_forward`] runs side by side.
const LANES: usize = 8;

/// `y[s][o] = bias[o] + Σ_i x[s][i]·w[o][i]` for `b` samples.
///
/// Every `(sample, output)` chain starts at the bias and adds its products
/// in ascending `i`, as a scalar loop would; what runs in parallel is
/// *different* chains: up to [`LANES`] samples as vector lanes (over a
/// transposed block of `x`) times four output rows. The block narrows to
/// 4, 2 and 1 lanes for the remainder, so a batch of 2 transposes 2 columns.
fn linear_forward(x: &[f32], w: &[f32], bias: &[f32], b: usize, n_in: usize, y: &mut [f32]) {
    let n_out = bias.len();
    scratch::with(n_in * LANES.min(b), |xt| {
        let mut s = 0;
        while s < b {
            let (x, y) = (&x[s * n_in..], &mut y[s * n_out..]);
            s += match b - s {
                LANES.. => linear_block::<LANES>(x, w, bias, n_in, xt, y),
                4.. => linear_block::<4>(x, w, bias, n_in, xt, y),
                2.. => linear_block::<2>(x, w, bias, n_in, xt, y),
                _ => linear_block::<1>(x, w, bias, n_in, xt, y),
            };
        }
    });
}

/// The first `L` samples of `x` into the first `L` rows of `y`; returns `L`.
fn linear_block<const L: usize>(
    x: &[f32],
    w: &[f32],
    bias: &[f32],
    n_in: usize,
    xt: &mut [f32],
    y: &mut [f32],
) -> usize {
    let n_out = bias.len();
    let (xt, _) = xt[..n_in * L].as_chunks_mut::<L>();
    for l in 0..L {
        for (column, &v) in xt.iter_mut().zip(&x[l * n_in..(l + 1) * n_in]) {
            column[l] = v;
        }
    }
    let mut o = 0;
    while o + 4 <= n_out {
        linear_rows::<L, 4>(xt, &w[o * n_in..], &bias[o..], &mut y[o..], n_out);
        o += 4;
    }
    while o < n_out {
        linear_rows::<L, 1>(xt, &w[o * n_in..], &bias[o..], &mut y[o..], n_out);
        o += 1;
    }
    L
}

/// `R` consecutive output rows for the `L` samples in `xt`: `R·L` chains in
/// registers, one pass over the inputs.
#[inline(always)]
fn linear_rows<const L: usize, const R: usize>(
    xt: &[[f32; L]],
    w: &[f32],
    bias: &[f32],
    y: &mut [f32],
    n_out: usize,
) {
    let n_in = xt.len();
    let rows: [&[f32]; R] = std::array::from_fn(|r| &w[r * n_in..(r + 1) * n_in]);
    let mut acc: [[f32; L]; R] = std::array::from_fn(|r| [bias[r]; L]);
    for (i, xs) in xt.iter().enumerate() {
        for r in 0..R {
            let wi = rows[r][i];
            for l in 0..L {
                acc[r][l] += xs[l] * wi;
            }
        }
    }
    for (r, chains) in acc.iter().enumerate() {
        for (l, &v) in chains.iter().enumerate() {
            y[l * n_out + r] = v;
        }
    }
}

impl Layer for Linear {
    fn forward(&mut self, input: Tensor, train: bool) -> Tensor {
        let b = input.shape()[0];
        assert_eq!(
            input.len(),
            b * self.in_features,
            "linear expects [batch, {}]",
            self.in_features
        );
        let mut out = vec![0.0f32; b * self.out_features];
        linear_forward(
            input.data(),
            self.weight(),
            self.bias(),
            b,
            self.in_features,
            &mut out,
        );
        if train {
            self.cached_input = Some(input);
        }
        Tensor::from_vec(&[b, self.out_features], out)
    }

    fn backward(&mut self, grad_out: Tensor) -> Tensor {
        let input = self.cached_input.as_ref().expect("backward before forward");
        let b = input.shape()[0];
        let (n_in, n_out) = (self.in_features, self.out_features);
        assert_eq!(grad_out.len(), b * n_out);
        let x = input.data();
        let gy = grad_out.data();
        let mut gx = vec![0.0f32; b * n_in];
        let (gw, gb) = self.grads.split_at_mut(n_in * n_out);
        // One output row at a time, so its weights and their gradients stay
        // in cache across the batch. Each `gw`/`gb` element still gathers
        // its samples in ascending order and each `gx` element its outputs
        // in ascending order.
        for (o, gb) in gb.iter_mut().enumerate() {
            let wrow = &self.params[o * n_in..(o + 1) * n_in];
            let grow = &mut gw[o * n_in..(o + 1) * n_in];
            for s in 0..b {
                let g = gy[s * n_out + o];
                *gb += g;
                let xs = &x[s * n_in..(s + 1) * n_in];
                let gxs = &mut gx[s * n_in..(s + 1) * n_in];
                for i in 0..n_in {
                    grow[i] += g * xs[i];
                    gxs[i] += g * wrow[i];
                }
            }
        }
        Tensor::from_vec(&[b, n_in], gx)
    }

    fn param_count(&self) -> usize {
        self.params.len()
    }

    fn param_segments(&self) -> Vec<(usize, usize)> {
        // Weight matrix [out, in] then the bias column.
        vec![
            (self.out_features, self.in_features),
            (self.out_features, 1),
        ]
    }

    fn params(&self) -> &[f32] {
        &self.params
    }

    fn params_mut(&mut self) -> &mut [f32] {
        &mut self.params
    }

    fn grads(&self) -> &[f32] {
        &self.grads
    }

    fn zero_grads(&mut self) {
        self.grads.iter_mut().for_each(|g| *g = 0.0);
    }
}

/// Rectified linear unit.
#[derive(Debug, Default)]
pub struct Relu {
    mask: Vec<bool>,
}

impl Relu {
    /// Creates a ReLU activation.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, mut input: Tensor, train: bool) -> Tensor {
        if train {
            self.mask.clear();
            self.mask.extend(input.data().iter().map(|&v| v > 0.0));
        }
        for v in input.data_mut() {
            *v = v.max(0.0);
        }
        input
    }

    fn backward(&mut self, mut grad_out: Tensor) -> Tensor {
        assert_eq!(grad_out.len(), self.mask.len(), "backward before forward");
        for (g, &m) in grad_out.data_mut().iter_mut().zip(&self.mask) {
            if !m {
                *g = 0.0;
            }
        }
        grad_out
    }
}

/// Hyperbolic tangent.
#[derive(Debug, Default)]
pub struct Tanh {
    cached_output: Vec<f32>,
}

impl Tanh {
    /// Creates a tanh activation.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Tanh {
    fn forward(&mut self, mut input: Tensor, train: bool) -> Tensor {
        for v in input.data_mut() {
            *v = v.tanh();
        }
        if train {
            self.cached_output.clear();
            self.cached_output.extend_from_slice(input.data());
        }
        input
    }

    fn backward(&mut self, mut grad_out: Tensor) -> Tensor {
        assert_eq!(
            grad_out.len(),
            self.cached_output.len(),
            "backward before forward"
        );
        for (g, &y) in grad_out.data_mut().iter_mut().zip(&self.cached_output) {
            *g *= 1.0 - y * y;
        }
        grad_out
    }
}

/// Remembers `input`'s shape for `backward`, reusing the allocation.
fn keep_shape(shape: &mut Vec<usize>, input: &Tensor) {
    shape.clear();
    shape.extend_from_slice(input.shape());
}

/// Collapses `[batch, d1, d2, …]` to `[batch, d1·d2·…]`.
#[derive(Debug, Default)]
pub struct Flatten {
    input_shape: Vec<usize>,
}

impl Flatten {
    /// Creates a flattening layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Flatten {
    fn forward(&mut self, input: Tensor, train: bool) -> Tensor {
        if train {
            keep_shape(&mut self.input_shape, &input);
        }
        let b = input.shape()[0];
        let rest = input.len() / b.max(1);
        input.reshape(&[b, rest])
    }

    fn backward(&mut self, grad_out: Tensor) -> Tensor {
        grad_out.reshape(&self.input_shape)
    }
}

/// Non-overlapping average pooling over `[batch, ch, h, w]` with a square
/// window.
#[derive(Debug)]
pub struct AvgPool2d {
    window: usize,
    input_shape: Vec<usize>,
}

impl AvgPool2d {
    /// Creates an average pool with the given square window/stride.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        Self {
            window,
            input_shape: Vec::new(),
        }
    }
}

impl Layer for AvgPool2d {
    fn forward(&mut self, input: Tensor, train: bool) -> Tensor {
        let [b, c, h, w]: [usize; 4] = input.shape().try_into().expect("expects [b,c,h,w]");
        assert!(
            h % self.window == 0 && w % self.window == 0,
            "spatial dims {h}x{w} not divisible by window {}",
            self.window
        );
        if train {
            keep_shape(&mut self.input_shape, &input);
        }
        let (oh, ow) = (h / self.window, w / self.window);
        let mut out = vec![0.0f32; b * c * oh * ow];
        let x = input.data();
        let norm = 1.0 / (self.window * self.window) as f32;
        for bi in 0..b {
            for ci in 0..c {
                let plane = &x[(bi * c + ci) * h * w..(bi * c + ci + 1) * h * w];
                let dst = &mut out[(bi * c + ci) * oh * ow..(bi * c + ci + 1) * oh * ow];
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0.0;
                        for dy in 0..self.window {
                            for dx in 0..self.window {
                                acc += plane[(oy * self.window + dy) * w + ox * self.window + dx];
                            }
                        }
                        dst[oy * ow + ox] = acc * norm;
                    }
                }
            }
        }
        Tensor::from_vec(&[b, c, oh, ow], out)
    }

    fn backward(&mut self, grad_out: Tensor) -> Tensor {
        let [b, c, h, w]: [usize; 4] = self.input_shape[..]
            .try_into()
            .expect("backward before forward");
        let (oh, ow) = (h / self.window, w / self.window);
        let gy = grad_out.data();
        let norm = 1.0 / (self.window * self.window) as f32;
        let mut gx = vec![0.0f32; b * c * h * w];
        for bi in 0..b {
            for ci in 0..c {
                let src = &gy[(bi * c + ci) * oh * ow..(bi * c + ci + 1) * oh * ow];
                let dst = &mut gx[(bi * c + ci) * h * w..(bi * c + ci + 1) * h * w];
                for oy in 0..oh {
                    for ox in 0..ow {
                        let g = src[oy * ow + ox] * norm;
                        for dy in 0..self.window {
                            for dx in 0..self.window {
                                dst[(oy * self.window + dy) * w + ox * self.window + dx] += g;
                            }
                        }
                    }
                }
            }
        }
        Tensor::from_vec(&self.input_shape, gx)
    }
}

/// Non-overlapping max pooling over `[batch, ch, h, w]`.
#[derive(Debug)]
pub struct MaxPool2d {
    window: usize,
    input_shape: Vec<usize>,
    argmax: Vec<usize>,
}

impl MaxPool2d {
    /// Creates a max pool with the given square window/stride.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        Self {
            window,
            input_shape: Vec::new(),
            argmax: Vec::new(),
        }
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, input: Tensor, train: bool) -> Tensor {
        let [b, c, h, w]: [usize; 4] = input.shape().try_into().expect("expects [b,c,h,w]");
        assert!(
            h % self.window == 0 && w % self.window == 0,
            "spatial dims {h}x{w} not divisible by window {}",
            self.window
        );
        let (oh, ow) = (h / self.window, w / self.window);
        let x = input.data();
        let mut out = vec![0.0f32; b * c * oh * ow];
        if train {
            keep_shape(&mut self.input_shape, &input);
            self.argmax.clear();
            self.argmax.resize(out.len(), 0);
        }
        for bi in 0..b {
            for ci in 0..c {
                let base = (bi * c + ci) * h * w;
                let obase = (bi * c + ci) * oh * ow;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = 0;
                        for dy in 0..self.window {
                            for dx in 0..self.window {
                                let idx =
                                    base + (oy * self.window + dy) * w + ox * self.window + dx;
                                if x[idx] > best {
                                    best = x[idx];
                                    best_idx = idx;
                                }
                            }
                        }
                        out[obase + oy * ow + ox] = best;
                        if train {
                            self.argmax[obase + oy * ow + ox] = best_idx;
                        }
                    }
                }
            }
        }
        Tensor::from_vec(&[b, c, oh, ow], out)
    }

    fn backward(&mut self, grad_out: Tensor) -> Tensor {
        assert_eq!(grad_out.len(), self.argmax.len(), "backward before forward");
        let mut gx = vec![0.0f32; self.input_shape.iter().product()];
        for (g, &idx) in grad_out.data().iter().zip(&self.argmax) {
            gx[idx] += g;
        }
        Tensor::from_vec(&self.input_shape, gx)
    }
}

/// The one-chain-per-output loops [`Linear`] started with, kept as the
/// oracle: the kernels above must reproduce them bit for bit.
#[cfg(test)]
mod reference {
    pub(super) fn linear_forward(n_in: usize, n_out: usize, params: &[f32], x: &[f32]) -> Vec<f32> {
        let (w, bias) = params.split_at(n_in * n_out);
        let b = x.len() / n_in;
        let mut out = vec![0.0f32; b * n_out];
        for s in 0..b {
            let xs = &x[s * n_in..(s + 1) * n_in];
            let ys = &mut out[s * n_out..(s + 1) * n_out];
            for (o, y) in ys.iter_mut().enumerate() {
                let row = &w[o * n_in..(o + 1) * n_in];
                let mut acc = bias[o];
                for (xi, wi) in xs.iter().zip(row) {
                    acc += xi * wi;
                }
                *y = acc;
            }
        }
        out
    }

    /// Accumulates into `grads`, returns the input gradient.
    pub(super) fn linear_backward(
        n_in: usize,
        n_out: usize,
        params: &[f32],
        grads: &mut [f32],
        x: &[f32],
        gy: &[f32],
    ) -> Vec<f32> {
        let b = x.len() / n_in;
        let mut gx = vec![0.0f32; b * n_in];
        let (gw, gb) = grads.split_at_mut(n_in * n_out);
        let w = &params[..n_in * n_out];
        for s in 0..b {
            let xs = &x[s * n_in..(s + 1) * n_in];
            let gys = &gy[s * n_out..(s + 1) * n_out];
            let gxs = &mut gx[s * n_in..(s + 1) * n_in];
            for (o, &g) in gys.iter().enumerate() {
                gb[o] += g;
                let grow = &mut gw[o * n_in..(o + 1) * n_in];
                let wrow = &w[o * n_in..(o + 1) * n_in];
                for i in 0..n_in {
                    grow[i] += g * xs[i];
                    gxs[i] += g * wrow[i];
                }
            }
        }
        gx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_forward_known() {
        let mut l = Linear::new(2, 2, 0);
        l.params_mut()
            .copy_from_slice(&[1.0, 2.0, 3.0, 4.0, 0.5, -0.5]);
        // W = [[1,2],[3,4]], b = [0.5,-0.5]; x = [1, -1]
        let x = Tensor::from_vec(&[1, 2], vec![1.0, -1.0]);
        let y = l.forward(x, true);
        assert_eq!(y.data(), &[1.0 - 2.0 + 0.5, 3.0 - 4.0 - 0.5]);
    }

    #[test]
    fn linear_backward_shapes_and_bias_grad() {
        let mut l = Linear::new(3, 2, 1);
        let x = Tensor::from_vec(&[2, 3], vec![1.0, 0.0, -1.0, 2.0, 1.0, 0.0]);
        let _ = l.forward(x, true);
        let gy = Tensor::from_vec(&[2, 2], vec![1.0, 1.0, 1.0, 1.0]);
        let gx = l.backward(gy);
        assert_eq!(gx.shape(), &[2, 3]);
        // Bias grads sum over the batch.
        let gb = &l.grads()[6..];
        assert_eq!(gb, &[2.0, 2.0]);
    }

    #[test]
    fn relu_masks_negatives() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(&[1, 4], vec![-1.0, 0.0, 2.0, -3.0]);
        let y = r.forward(x, true);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0, 0.0]);
        let g = r.backward(Tensor::from_vec(&[1, 4], vec![1.0; 4]));
        assert_eq!(g.data(), &[0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn tanh_gradient_uses_output() {
        let mut t = Tanh::new();
        let x = Tensor::from_vec(&[1, 1], vec![0.0]);
        let y = t.forward(x, true);
        assert_eq!(y.data(), &[0.0]);
        let g = t.backward(Tensor::from_vec(&[1, 1], vec![2.0]));
        assert_eq!(g.data(), &[2.0]); // 1 - tanh(0)^2 = 1
    }

    #[test]
    fn flatten_roundtrip() {
        let mut f = Flatten::new();
        let x = Tensor::zeros(&[2, 3, 4, 4]);
        let y = f.forward(x, true);
        assert_eq!(y.shape(), &[2, 48]);
        let g = f.backward(Tensor::zeros(&[2, 48]));
        assert_eq!(g.shape(), &[2, 3, 4, 4]);
    }

    #[test]
    fn avg_pool_known() {
        let mut p = AvgPool2d::new(2);
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let y = p.forward(x, true);
        assert_eq!(y.data(), &[2.5]);
        let g = p.backward(Tensor::from_vec(&[1, 1, 1, 1], vec![4.0]));
        assert_eq!(g.data(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn max_pool_routes_gradient_to_argmax() {
        let mut p = MaxPool2d::new(2);
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 5.0, 3.0, 4.0]);
        let y = p.forward(x, true);
        assert_eq!(y.data(), &[5.0]);
        let g = p.backward(Tensor::from_vec(&[1, 1, 1, 1], vec![7.0]));
        assert_eq!(g.data(), &[0.0, 7.0, 0.0, 0.0]);
    }

    #[test]
    fn stateless_layers_report_zero_params() {
        assert_eq!(Relu::new().param_count(), 0);
        assert_eq!(Flatten::new().param_count(), 0);
        assert_eq!(AvgPool2d::new(2).param_count(), 0);
    }

    use crate::testdata::{bits, relu_sparse, salted};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Outputs, input gradients and parameter gradients accumulated over
        /// two passes equal the reference loops bit for bit, at batch sizes
        /// and widths on both sides of every lane and row block.
        #[test]
        fn linear_is_bit_identical_to_reference(
            seed in any::<u64>(),
            b in 1usize..18,
            n_in in 1usize..41,
            n_out in 1usize..41,
        ) {
            let mut linear = Linear::new(n_in, n_out, seed);
            let params = salted(linear.param_count(), seed ^ 1);
            linear.params_mut().copy_from_slice(&params);
            let mut ref_grads = vec![0.0f32; params.len()];
            for pass in 0..2u64 {
                let x = salted(b * n_in, seed ^ (2 + pass));
                let gy = if pass == 0 {
                    relu_sparse(b * n_out, seed ^ 4)
                } else {
                    salted(b * n_out, seed ^ 5)
                };
                let y = linear.forward(Tensor::from_vec(&[b, n_in], x.clone()), true);
                let y_ref = reference::linear_forward(n_in, n_out, &params, &x);
                prop_assert_eq!(bits(y.data()), bits(&y_ref));
                let y_eval = linear.forward(Tensor::from_vec(&[b, n_in], x.clone()), false);
                prop_assert_eq!(bits(y_eval.data()), bits(&y_ref));

                let gx = linear.backward(Tensor::from_vec(&[b, n_out], gy.clone()));
                let gx_ref =
                    reference::linear_backward(n_in, n_out, &params, &mut ref_grads, &x, &gy);
                prop_assert_eq!(bits(gx.data()), bits(&gx_ref));
                prop_assert_eq!(bits(linear.grads()), bits(&ref_grads));
            }
        }
    }
}
