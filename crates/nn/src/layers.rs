//! The [`Layer`] trait and the dense/stateless layers.
//!
//! Layers own their parameters and gradients as flat `f32` buffers so a
//! [`crate::sequential::Sequential`] container can expose the whole network
//! as one parameter vector — the representation JWINS sparsifies. Every
//! backward implementation here is covered by finite-difference tests in
//! [`crate::gradcheck`].

use crate::init;
use crate::scratch;
use crate::simd::{self, Kernel};
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

    /// [`Self::backward`] for a layer whose input gradient nobody reads —
    /// the first of a network: accumulates the same parameter gradients, bit
    /// for bit, and may skip computing the input gradient. The default
    /// computes it and drops it.
    ///
    /// # Panics
    ///
    /// As [`Self::backward`].
    fn backward_params(&mut self, grad_out: Tensor) {
        let _ = self.backward(grad_out);
    }

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
        // Exact, or the bias doubles the block the weights were built in.
        params.reserve_exact(out_features);
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

    /// Accumulates the parameter gradients of `grad_out` and, if
    /// `input_grad`, returns the gradient with respect to the input.
    fn backward_with(&mut self, grad_out: &Tensor, input_grad: bool) -> Option<Tensor> {
        let input = self.cached_input.as_ref().expect("backward before forward");
        let b = input.shape()[0];
        let (n_in, n_out) = (self.in_features, self.out_features);
        assert_eq!(grad_out.len(), b * n_out);
        let mut gx = input_grad.then(|| vec![0.0f32; b * n_in]);
        let (gw, gb) = self.grads.split_at_mut(n_in * n_out);
        simd::run(LinearBackward {
            b,
            n_in,
            x: input.data(),
            gy: grad_out.data(),
            w: &self.params[..n_in * n_out],
            gw,
            gb,
            gx: gx.as_deref_mut(),
        });
        gx.map(|gx| Tensor::from_vec(&[b, n_in], gx))
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
    scratch::with(n_in * LANES.min(b), |xt| {
        simd::run(LinearForward {
            x,
            w,
            bias,
            b,
            n_in,
            xt,
            y,
        });
    });
}

/// [`linear_forward`]'s loop nest; `xt` holds its transposed block.
struct LinearForward<'a> {
    x: &'a [f32],
    w: &'a [f32],
    bias: &'a [f32],
    b: usize,
    n_in: usize,
    xt: &'a mut [f32],
    y: &'a mut [f32],
}

impl Kernel for LinearForward<'_> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        let Self {
            x,
            w,
            bias,
            b,
            n_in,
            xt,
            y,
        } = self;
        let n_out = bias.len();
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
    }
}

/// The first `L` samples of `x` into the first `L` rows of `y`; returns `L`.
#[inline(always)]
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

/// [`Linear`]'s backward loop nest: accumulates `gw`, `gb` and, where given,
/// the input gradient `gx`.
///
/// One output row at a time, so its weights and their gradients stay in
/// cache across the batch. Each `gw`/`gb` element still gathers its samples
/// in ascending order and each `gx` element its outputs in ascending order.
struct LinearBackward<'a> {
    b: usize,
    n_in: usize,
    x: &'a [f32],
    gy: &'a [f32],
    w: &'a [f32],
    gw: &'a mut [f32],
    gb: &'a mut [f32],
    gx: Option<&'a mut [f32]>,
}

impl Kernel for LinearBackward<'_> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        let Self {
            b,
            n_in,
            x,
            gy,
            w,
            gw,
            gb,
            mut gx,
        } = self;
        let n_out = gb.len();
        for (o, gb) in gb.iter_mut().enumerate() {
            let wrow = &w[o * n_in..(o + 1) * n_in];
            let grow = &mut gw[o * n_in..(o + 1) * n_in];
            for s in 0..b {
                let g = gy[s * n_out + o];
                *gb += g;
                let xs = &x[s * n_in..(s + 1) * n_in];
                if let Some(gx) = gx.as_deref_mut() {
                    let gxs = &mut gx[s * n_in..(s + 1) * n_in];
                    for i in 0..n_in {
                        grow[i] += g * xs[i];
                        gxs[i] += g * wrow[i];
                    }
                } else {
                    for (gw, &x) in grow.iter_mut().zip(xs) {
                        *gw += g * x;
                    }
                }
            }
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
        self.backward_with(&grad_out, true)
            .expect("the input gradient was asked for")
    }

    fn backward_params(&mut self, grad_out: Tensor) {
        self.backward_with(&grad_out, false);
    }

    fn param_count(&self) -> usize {
        self.params.len()
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

/// [`Relu`]'s forward pass in place; where `mask` is given it first records
/// which inputs are positive.
struct ReluForward<'a> {
    x: &'a mut [f32],
    mask: Option<&'a mut [bool]>,
}

impl Kernel for ReluForward<'_> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        if let Some(mask) = self.mask {
            for (m, &v) in mask.iter_mut().zip(self.x.iter()) {
                *m = v > 0.0;
            }
        }
        for v in self.x {
            *v = v.max(0.0);
        }
    }
}

/// [`Relu`]'s backward pass in place: zero where the input was not positive.
struct ReluBackward<'a> {
    grad: &'a mut [f32],
    mask: &'a [bool],
}

impl Kernel for ReluBackward<'_> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        for (g, &m) in self.grad.iter_mut().zip(self.mask) {
            if !m {
                *g = 0.0;
            }
        }
    }
}

impl Layer for Relu {
    fn forward(&mut self, mut input: Tensor, train: bool) -> Tensor {
        let mask = if train {
            self.mask.resize(input.len(), false);
            Some(&mut self.mask[..])
        } else {
            None
        };
        simd::run(ReluForward {
            x: input.data_mut(),
            mask,
        });
        input
    }

    fn backward(&mut self, mut grad_out: Tensor) -> Tensor {
        assert_eq!(grad_out.len(), self.mask.len(), "backward before forward");
        simd::run(ReluBackward {
            grad: grad_out.data_mut(),
            mask: &self.mask,
        });
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

/// [`AvgPool2d`]'s forward pass: every band of `window` input rows, each
/// `w` wide, becomes one output row.
struct Pool<'a> {
    window: usize,
    w: usize,
    x: &'a [f32],
    out: &'a mut [f32],
}

impl Kernel for Pool<'_> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        let Self { window, w, x, out } = self;
        match window {
            2 => pool::<2>(window, w, x, out),
            _ => pool::<0>(window, w, x, out),
        }
    }
}

/// `out = (0.0 + Σ_dy Σ_dx window) · 1/window²`, `dy` outer, with the window
/// size a constant `W` (`W = 0`: `window`). Each output accumulates in
/// place, row by row of its band.
#[inline(always)]
fn pool<const W: usize>(window: usize, w: usize, x: &[f32], out: &mut [f32]) {
    let win = if W == 0 { window } else { W };
    let norm = 1.0 / (win * win) as f32;
    for (band, sums) in x.chunks_exact(win * w).zip(out.chunks_exact_mut(w / win)) {
        sums.fill(0.0);
        for row in band.chunks_exact(w) {
            for (sum, xs) in sums.iter_mut().zip(row.chunks_exact(win)) {
                for &v in xs {
                    *sum += v;
                }
            }
        }
        for sum in sums {
            *sum *= norm;
        }
    }
}

/// [`AvgPool2d`]'s backward pass: every input of a window receives its
/// output's gradient times `1/window²`.
struct PoolGrad<'a> {
    window: usize,
    w: usize,
    gy: &'a [f32],
    gx: &'a mut [f32],
}

impl Kernel for PoolGrad<'_> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        let Self { window, w, gy, gx } = self;
        match window {
            2 => pool_grad::<2>(window, w, gy, gx),
            _ => pool_grad::<0>(window, w, gy, gx),
        }
    }
}

/// `gx = 0.0 + gy · 1/window²` over each window, the window size a constant
/// `W` (`W = 0`: `window`). The `0.0 +` is what accumulating into a zeroed
/// buffer did: it turns a `-0.0` gradient into `+0.0`.
#[inline(always)]
fn pool_grad<const W: usize>(window: usize, w: usize, gy: &[f32], gx: &mut [f32]) {
    let win = if W == 0 { window } else { W };
    let norm = 1.0 / (win * win) as f32;
    for (band, gy) in gx.chunks_exact_mut(win * w).zip(gy.chunks_exact(w / win)) {
        for row in band.chunks_exact_mut(w) {
            for (xs, &g) in row.chunks_exact_mut(win).zip(gy) {
                xs.fill(0.0 + g * norm);
            }
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
        simd::run(Pool {
            window: self.window,
            w,
            x: input.data(),
            out: &mut out,
        });
        Tensor::from_vec(&[b, c, oh, ow], out)
    }

    fn backward(&mut self, grad_out: Tensor) -> Tensor {
        let [b, c, h, w]: [usize; 4] = self.input_shape[..]
            .try_into()
            .expect("backward before forward");
        assert_eq!(grad_out.len(), b * c * h * w / (self.window * self.window));
        let mut gx = vec![0.0f32; b * c * h * w];
        simd::run(PoolGrad {
            window: self.window,
            w,
            gy: grad_out.data(),
            gx: &mut gx,
        });
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
                        // A window in which nothing beats -∞ (all -∞ or NaN)
                        // routes its gradient to its own first element.
                        let mut best_idx = base + oy * self.window * w + ox * self.window;
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

/// The loops [`Linear`], [`AvgPool2d`] and [`Relu`] started with, kept as
/// the oracle: the kernels above must reproduce them bit for bit.
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

    pub(super) fn avg_pool_forward(window: usize, [b, c, h, w]: [usize; 4], x: &[f32]) -> Vec<f32> {
        let (oh, ow) = (h / window, w / window);
        let mut out = vec![0.0f32; b * c * oh * ow];
        let norm = 1.0 / (window * window) as f32;
        for bi in 0..b {
            for ci in 0..c {
                let plane = &x[(bi * c + ci) * h * w..(bi * c + ci + 1) * h * w];
                let dst = &mut out[(bi * c + ci) * oh * ow..(bi * c + ci + 1) * oh * ow];
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0.0;
                        for dy in 0..window {
                            for dx in 0..window {
                                acc += plane[(oy * window + dy) * w + ox * window + dx];
                            }
                        }
                        dst[oy * ow + ox] = acc * norm;
                    }
                }
            }
        }
        out
    }

    pub(super) fn avg_pool_backward(
        window: usize,
        [b, c, h, w]: [usize; 4],
        gy: &[f32],
    ) -> Vec<f32> {
        let (oh, ow) = (h / window, w / window);
        let norm = 1.0 / (window * window) as f32;
        let mut gx = vec![0.0f32; b * c * h * w];
        for bi in 0..b {
            for ci in 0..c {
                let src = &gy[(bi * c + ci) * oh * ow..(bi * c + ci + 1) * oh * ow];
                let dst = &mut gx[(bi * c + ci) * h * w..(bi * c + ci + 1) * h * w];
                for oy in 0..oh {
                    for ox in 0..ow {
                        let g = src[oy * ow + ox] * norm;
                        for dy in 0..window {
                            for dx in 0..window {
                                dst[(oy * window + dy) * w + ox * window + dx] += g;
                            }
                        }
                    }
                }
            }
        }
        gx
    }

    /// Returns `(output, mask)`.
    pub(super) fn relu_forward(x: &[f32]) -> (Vec<f32>, Vec<bool>) {
        let mask = x.iter().map(|&v| v > 0.0).collect();
        let out = x.iter().map(|v| v.max(0.0)).collect();
        (out, mask)
    }

    pub(super) fn relu_backward(mask: &[bool], gy: &[f32]) -> Vec<f32> {
        gy.iter()
            .zip(mask)
            .map(|(&g, &m)| if m { g } else { 0.0 })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_fresh_linear_holds_no_untouched_parameter_capacity() {
        // The benchmark's 432×256 layer: the bias once doubled its block.
        let l = Linear::new(432, 256, 0);
        assert_eq!(l.params.len(), 432 * 256 + 256);
        assert_eq!(l.params.capacity(), l.params.len());
    }

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

    /// A window in which nothing beats `-∞` sends its gradient to its own
    /// first element, never into another sample.
    #[test]
    fn max_pool_routes_a_window_of_nothing_to_its_first_element() {
        let mut p = MaxPool2d::new(2);
        let ninf = f32::NEG_INFINITY;
        let x = Tensor::from_vec(
            &[2, 2, 2, 2],
            vec![
                1.0,
                5.0,
                3.0,
                4.0, // sample 0, channel 0
                -2.0,
                -1.0,
                -4.0,
                -3.0, // sample 0, channel 1
                ninf,
                ninf,
                ninf,
                ninf, // sample 1, channel 0: all -∞
                f32::NAN,
                ninf,
                f32::NAN,
                f32::NAN, // sample 1, channel 1
            ],
        );
        let y = p.forward(x, true);
        assert_eq!(y.data(), &[5.0, -1.0, ninf, ninf]);
        let g = p.backward(Tensor::from_vec(&[2, 2, 1, 1], vec![7.0, 6.0, 3.0, 2.0]));
        let mut expected = [0.0f32; 16];
        expected[1] = 7.0;
        expected[5] = 6.0;
        expected[8] = 3.0;
        expected[12] = 2.0;
        assert_eq!(g.data(), &expected[..]);
    }

    #[test]
    fn stateless_layers_report_zero_params() {
        assert_eq!(Relu::new().param_count(), 0);
        assert_eq!(Flatten::new().param_count(), 0);
        assert_eq!(AvgPool2d::new(2).param_count(), 0);
    }

    use crate::testdata::{bits, relu_sparse, salted};
    use proptest::prelude::*;

    /// [`salted`] with `+∞`, `−∞` and NaN mixed in.
    fn with_specials(len: usize, seed: u64) -> Vec<f32> {
        let mut values = salted(len, seed);
        let specials = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        for (i, v) in values.iter_mut().enumerate() {
            let h = (i as u64 ^ seed).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 59;
            if h < 3 {
                *v = specials[h as usize];
            }
        }
        values
    }

    /// Bit patterns with every NaN as one: Rust does not specify which NaN
    /// an operation on a NaN returns, so its payload is no part of a result.
    fn canonical(values: &[f32]) -> Vec<u32> {
        values
            .iter()
            .map(|v| {
                if v.is_nan() {
                    f32::NAN.to_bits()
                } else {
                    v.to_bits()
                }
            })
            .collect()
    }

    /// A gradient of nothing but `+0.0` and `-0.0`.
    fn signed_zeros(len: usize) -> Vec<f32> {
        (0..len)
            .map(|i| if i % 3 == 0 { -0.0 } else { 0.0 })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Outputs, input gradients and parameter gradients accumulated over
        /// two passes equal the reference loops bit for bit, at batch sizes
        /// and widths on both sides of every lane and row block, under both
        /// kernel sets.
        #[test]
        fn linear_is_bit_identical_to_reference(
            seed in any::<u64>(),
            b in 1usize..18,
            n_in in 1usize..41,
            n_out in 1usize..41,
        ) {
            simd::both_sets(|| {
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
            });
        }

        /// Windows 1, 2 (the fixed-window kernel) and 3 over inputs with
        /// ±0.0, ±∞ and NaN, and gradients of signed zeros, equal the plain
        /// window loops under both kernel sets.
        #[test]
        fn avg_pool_is_bit_identical_to_reference(
            seed in any::<u64>(),
            window in 1usize..4,
            (b, c) in (1usize..4, 1usize..4),
            (oh, ow) in (1usize..5, 1usize..5),
        ) {
            let shape = [b, c, oh * window, ow * window];
            let (len, out_len) = (b * c * oh * ow * window * window, b * c * oh * ow);
            simd::both_sets(|| {
                let mut pool = AvgPool2d::new(window);
                for pass in 0..2u64 {
                    let x = with_specials(len, seed ^ pass);
                    let gy = if pass == 0 {
                        signed_zeros(out_len)
                    } else {
                        with_specials(out_len, seed ^ 7)
                    };
                    let y = pool.forward(Tensor::from_vec(&shape, x.clone()), true);
                    let y_ref = reference::avg_pool_forward(window, shape, &x);
                    prop_assert_eq!(canonical(y.data()), canonical(&y_ref));
                    let gx = pool.backward(Tensor::from_vec(y.shape(), gy.clone()));
                    let gx_ref = reference::avg_pool_backward(window, shape, &gy);
                    prop_assert_eq!(canonical(gx.data()), canonical(&gx_ref));
                }
            });
        }

        /// Forward outputs and backward gradients over ±0.0, ±∞ and NaN
        /// inputs and gradients equal the plain loops under both kernel sets.
        #[test]
        fn relu_is_bit_identical_to_reference(seed in any::<u64>(), len in 1usize..200) {
            simd::both_sets(|| {
                let mut relu = Relu::new();
                for pass in 0..2u64 {
                    let x = with_specials(len, seed ^ pass);
                    let gy = if pass == 0 {
                        signed_zeros(len)
                    } else {
                        with_specials(len, seed ^ 9)
                    };
                    let (y_ref, mask) = reference::relu_forward(&x);
                    let y_eval = relu.forward(Tensor::from_vec(&[1, len], x.clone()), false);
                    prop_assert_eq!(canonical(y_eval.data()), canonical(&y_ref));
                    let y = relu.forward(Tensor::from_vec(&[1, len], x.clone()), true);
                    prop_assert_eq!(canonical(y.data()), canonical(&y_ref));
                    let gx = relu.backward(Tensor::from_vec(&[1, len], gy.clone()));
                    let gx_ref = reference::relu_backward(&mask, &gy);
                    prop_assert_eq!(canonical(gx.data()), canonical(&gx_ref));
                }
            });
        }
    }
}
