//! 2-D convolution (direct algorithm, stride 1, symmetric zero padding).
//!
//! GN-LeNet — the CIFAR-10 model of Hsieh et al. that the paper adopts — is
//! two convolution blocks followed by a classifier head, and the two
//! convolutions are nine tenths of its SGD step. They run as three kernels
//! over one sample at a time, all on **zero-padded planes in wide layout**:
//! an image row is `wp = w + 2·pad` floats long, so pixel `(y, x)` sits at
//! `y·wp + x` and tap `(ky, kx)` of *every* output position is the same
//! distance `ky·wp + kx` away. No kernel tests a coordinate against the
//! border; the padding contributes exact zeros instead.
//!
//! - **Forward** and **input gradient** are the same correlation
//!   (`correlate`): `CHUNK` consecutive wide positions are vector lanes
//!   held in registers across all taps, for up to four destination planes
//!   per loaded window. The input gradient reads the output gradient in
//!   wide layout and the filters flipped in both axes.
//! - **Weight gradient** (`weight_grads`): each weight is one serial chain
//!   over the output pixels, so the lanes are `OC_LANES` output channels
//!   and the taps of a filter row advance together.
//!
//! The loops over the batch are `Kernel`s (`Forward`, `Backward`), so
//! each runs as compiled for the baseline target or as its AVX2 twin
//! (`crate::simd`); every helper they call is `#[inline(always)]`.
//!
//! Every floating-point reduction keeps the element order of the plain
//! six-deep loop (kept as `reference` under `#[cfg(test)]` and compared bit
//! for bit); "The SGD path" in `docs/ARCHITECTURE.md` states that order.
//! The zeros that padding, the unused columns of the wide layout and zero
//! gradients add to a chain leave it unchanged for finite operands: a chain
//! that starts at `+0.0` never becomes `-0.0`, and `x + ±0.0 == x` otherwise.

use crate::init;
use crate::layers::Layer;
use crate::scratch::{self, carve};
use crate::simd::{self, Kernel};
use crate::tensor::Tensor;

/// Wide positions one [`correlate`] step accumulates in registers.
const CHUNK: usize = 8;

/// Destination planes one [`correlate`] step feeds from each loaded window.
const PLANES: usize = 4;

/// Output channels whose weight-gradient chains run as vector lanes.
const OC_LANES: usize = 8;

/// Stride-1 2-D convolution with square kernels and zero padding.
///
/// Parameters are packed `[weight: out_ch × in_ch × k × k][bias: out_ch]`.
#[derive(Debug)]
pub struct Conv2d {
    in_ch: usize,
    out_ch: usize,
    kernel: usize,
    pad: usize,
    params: Vec<f32>,
    grads: Vec<f32>,
    cached_input: Option<Tensor>,
}

/// Sizes of one call, shared by the three kernels.
#[derive(Debug, Clone, Copy)]
struct Geometry {
    in_ch: usize,
    out_ch: usize,
    k: usize,
    pad: usize,
    h: usize,
    w: usize,
    /// Length of a wide row: `w + 2·pad`.
    wp: usize,
    oh: usize,
    ow: usize,
}

impl Geometry {
    fn taps(&self) -> usize {
        self.k * self.k
    }

    /// Distance of the last tap: `(k−1)·wp + (k−1)`.
    fn last_tap(&self) -> usize {
        (self.k - 1) * (self.wp + 1)
    }

    /// Wide output positions, in whole chunks.
    fn wide_out(&self) -> usize {
        (self.oh * self.wp).next_multiple_of(CHUNK)
    }

    /// Wide positions of the padded rows that hold input pixels, in whole
    /// chunks: where the input gradient is computed.
    fn wide_in(&self) -> usize {
        (self.h * self.wp).next_multiple_of(CHUNK)
    }

    /// Floats of one padded input plane: the last tap of the last output
    /// chunk ends it (the padded image itself ends `oh·wp + last_tap`
    /// floats in, or earlier).
    fn padded_plane(&self) -> usize {
        self.wide_out() + self.last_tap()
    }

    /// Floats of one output-gradient plane as the input gradient reads it
    /// (see [`widen_grads`]).
    fn grad_plane(&self) -> usize {
        self.wide_in() + self.last_tap()
    }

    fn oc_blocks(&self) -> usize {
        self.out_ch.div_ceil(OC_LANES)
    }

    /// Floats of workspace [`Backward`] carves: the weight-gradient chains,
    /// the padded planes and the lane-major output gradient, plus — for the
    /// input gradient — the flipped filters, the widened output gradient and
    /// [`PLANES`] wide planes.
    fn backward_scratch(&self, input_grad: bool) -> usize {
        let params = self.oc_blocks() * self.in_ch * self.taps() * OC_LANES
            + self.in_ch * self.padded_plane()
            + self.oc_blocks() * self.oh * self.ow * OC_LANES;
        if input_grad {
            params
                + self.out_ch * self.in_ch * self.taps()
                + self.out_ch * self.grad_plane()
                + PLANES * self.wide_in()
        } else {
            params
        }
    }
}

/// Where output channel `oc`'s value of `item` sits in a buffer laid out
/// `[oc block][item][lane]` with `items` items per block.
#[inline(always)]
fn lane_index(oc: usize, item: usize, items: usize) -> usize {
    (oc / OC_LANES * items + item) * OC_LANES + oc % OC_LANES
}

impl Conv2d {
    /// Creates a Kaiming-initialized convolution.
    ///
    /// # Panics
    ///
    /// Panics if `kernel == 0`.
    pub fn new(in_ch: usize, out_ch: usize, kernel: usize, pad: usize, seed: u64) -> Self {
        assert!(kernel > 0, "kernel must be positive");
        let wlen = out_ch * in_ch * kernel * kernel;
        let mut params = init::kaiming_normal(in_ch * kernel * kernel, wlen, seed);
        params.reserve_exact(out_ch);
        params.extend(std::iter::repeat_n(0.0f32, out_ch));
        let len = params.len();
        Self {
            in_ch,
            out_ch,
            kernel,
            pad,
            params,
            grads: vec![0.0; len],
            cached_input: None,
        }
    }

    /// Batch size and geometry for an input of `shape`.
    fn geometry(&self, shape: &[usize]) -> (usize, Geometry) {
        let [b, c, h, w]: [usize; 4] = shape.try_into().expect("expects [b,c,h,w]");
        assert_eq!(c, self.in_ch, "channel mismatch");
        assert!(
            h + 2 * self.pad >= self.kernel && w + 2 * self.pad >= self.kernel,
            "input smaller than kernel"
        );
        let geo = Geometry {
            in_ch: c,
            out_ch: self.out_ch,
            k: self.kernel,
            pad: self.pad,
            h,
            w,
            wp: w + 2 * self.pad,
            oh: h + 2 * self.pad + 1 - self.kernel,
            ow: w + 2 * self.pad + 1 - self.kernel,
        };
        (b, geo)
    }

    /// Accumulates the parameter gradients of `grad_out` and, if
    /// `input_grad`, returns the gradient with respect to the input.
    fn backward_with(&mut self, grad_out: &Tensor, input_grad: bool) -> Option<Tensor> {
        let input = self.cached_input.as_ref().expect("backward before forward");
        let (b, geo) = self.geometry(input.shape());
        assert_eq!(grad_out.len(), b * geo.out_ch * geo.oh * geo.ow);
        let wlen = geo.out_ch * geo.in_ch * geo.taps();
        let weight = &self.params[..wlen];
        let (gw, gb) = self.grads.split_at_mut(wlen);
        let mut gx = input_grad.then(|| vec![0.0f32; input.len()]);
        scratch::with(geo.backward_scratch(input_grad), |scratch| {
            simd::run(Backward {
                geo,
                weight,
                gw,
                gb,
                x: input.data(),
                gy: grad_out.data(),
                gx: gx.as_deref_mut(),
                scratch,
            });
        });
        gx.map(|gx| Tensor::from_vec(input.shape(), gx))
    }
}

/// Copies one sample's `[in_ch][h][w]` planes into zeroed padded planes.
#[inline(always)]
fn pad_planes(geo: &Geometry, x: &[f32], padded: &mut [f32]) {
    padded.fill(0.0);
    let planes = padded.chunks_exact_mut(geo.padded_plane());
    for (plane, x) in planes.zip(x.chunks_exact(geo.h * geo.w)) {
        for (iy, row) in x.chunks_exact(geo.w).enumerate() {
            plane[(iy + geo.pad) * geo.wp + geo.pad..][..geo.w].copy_from_slice(row);
        }
    }
}

/// Lays one sample's `[out_ch][oh][ow]` output gradient out for the input
/// gradient: wide rows, shifted so that position 0 of [`correlate`]'s result
/// is the first padded row that holds input pixels, behind `last_tap` zeros
/// that the flipped taps reach back into. Pixel `(oy, ox)` lands at
/// `last_tap + (oy − pad)·wp + ox`; rows that touch no input pixel are
/// dropped, everything else is zero.
#[inline(always)]
fn widen_grads(geo: &Geometry, gy: &[f32], wide: &mut [f32]) {
    wide.fill(0.0);
    let rows = geo.pad.saturating_sub(geo.k - 1)..geo.oh.min(geo.pad + geo.h);
    let planes = wide.chunks_exact_mut(geo.grad_plane());
    for (plane, gy) in planes.zip(gy.chunks_exact(geo.oh * geo.ow)) {
        for oy in rows.clone() {
            let at = geo.last_tap() + oy * geo.wp - geo.pad * geo.wp;
            plane[at..at + geo.ow].copy_from_slice(&gy[oy * geo.ow..(oy + 1) * geo.ow]);
        }
    }
}

/// `acc[n][i] += src[ky·wp + kx + i] · coef[n][ky·k + kx]`, taps in ascending
/// `(ky, kx)`: one loaded window feeds `N` accumulator rows.
#[inline(always)]
fn taps<const K: usize, const N: usize>(
    geo: &Geometry,
    acc: &mut [[f32; CHUNK]; N],
    src: &[f32],
    coef: [&[f32]; N],
) {
    let k = if K == 0 { geo.k } else { K };
    for ky in 0..k {
        for kx in 0..k {
            let window: &[f32; CHUNK] = src[ky * geo.wp + kx..]
                .first_chunk()
                .expect("source planes cover the last tap of the last chunk");
            for n in 0..N {
                let c = coef[n][ky * k + kx];
                for i in 0..CHUNK {
                    acc[n][i] += window[i] * c;
                }
            }
        }
    }
}

/// `N` destination planes of a correlation, each `wide.len() / N` wide
/// positions long. Position `p` of plane `n` becomes
///
/// - `PER_SOURCE`: `Σ_s (Σ_taps source_s[p + tap] · coef(n, s)[tap])` — each
///   source's taps summed from zero on their own, the sums then added in
///   source order (forward: sources are input channels);
/// - otherwise one chain over all sources and taps in that order (input
///   gradient: sources are output channels).
///
/// `coefs` holds the filters `[n][source][k·k]`.
#[inline(always)]
fn correlate<const K: usize, const N: usize, const PER_SOURCE: bool>(
    geo: &Geometry,
    sources: &[f32],
    source_len: usize,
    coefs: &[f32],
    wide: &mut [f32],
) {
    let kk = geo.taps();
    let n_sources = sources.len() / source_len;
    let wide_len = wide.len() / N;
    for base in (0..wide_len).step_by(CHUNK) {
        let mut total = [[0.0f32; CHUNK]; N];
        for (s, source) in sources.chunks_exact(source_len).enumerate() {
            let coef = std::array::from_fn(|n| &coefs[(n * n_sources + s) * kk..][..kk]);
            if PER_SOURCE {
                let mut acc = [[0.0f32; CHUNK]; N];
                taps::<K, N>(geo, &mut acc, &source[base..], coef);
                for n in 0..N {
                    for i in 0..CHUNK {
                        total[n][i] += acc[n][i];
                    }
                }
            } else {
                taps::<K, N>(geo, &mut total, &source[base..], coef);
            }
        }
        for n in 0..N {
            wide[n * wide_len + base..][..CHUNK].copy_from_slice(&total[n]);
        }
    }
}

/// Where [`correlate_planes`] puts each finished plane, read in wide
/// layout. Both sinks' `store` is `#[inline(always)]`, so it is compiled
/// into the twin with the loop; as closures they were compiled out of line,
/// as baseline code.
trait PlaneSink {
    /// Takes destination plane `plane` from its wide positions `wide`.
    fn store(&mut self, plane: usize, wide: &[f32]);
}

/// [`Forward`]'s sink: one sample's output channel planes, plus the bias.
struct BiasedOutput<'a> {
    geo: &'a Geometry,
    out: &'a mut [f32],
    bias: &'a [f32],
}

impl PlaneSink for BiasedOutput<'_> {
    #[inline(always)]
    fn store(&mut self, oc: usize, wide: &[f32]) {
        let (geo, bias) = (self.geo, self.bias[oc]);
        let out_plane = geo.oh * geo.ow;
        let rows = self.out[oc * out_plane..][..out_plane].chunks_exact_mut(geo.ow);
        for (row, wide) in rows.zip(wide.chunks(geo.wp)) {
            for (o, &v) in row.iter_mut().zip(wide) {
                *o = v + bias;
            }
        }
    }
}

/// [`Backward`]'s sink: one sample's input-gradient planes, the padding
/// cropped off.
struct CroppedGrads<'a> {
    geo: &'a Geometry,
    gx: &'a mut [f32],
}

impl PlaneSink for CroppedGrads<'_> {
    #[inline(always)]
    fn store(&mut self, ic: usize, wide: &[f32]) {
        let geo = self.geo;
        let in_plane = geo.h * geo.w;
        let rows = self.gx[ic * in_plane..][..in_plane].chunks_exact_mut(geo.w);
        for (row, wide) in rows.zip(wide.chunks(geo.wp)) {
            row.copy_from_slice(&wide[geo.pad..][..geo.w]);
        }
    }
}

/// [`correlate`] for destination planes `0..planes`, [`PLANES`] at a time
/// into `wide` (`PLANES · wide_len` floats of workspace); every finished
/// plane goes to `sink.store(plane, wide positions)`.
#[inline(always)]
fn correlate_planes<const K: usize, const PER_SOURCE: bool>(
    geo: &Geometry,
    planes: usize,
    sources: &[f32],
    source_len: usize,
    coefs: &[f32],
    wide: &mut [f32],
    mut sink: impl PlaneSink,
) {
    let per_plane = sources.len() / source_len * geo.taps();
    let wide_len = wide.len() / PLANES;
    let mut plane = 0;
    while plane < planes {
        let coefs = &coefs[plane * per_plane..];
        let n = if planes - plane >= PLANES {
            correlate::<K, PLANES, PER_SOURCE>(geo, sources, source_len, coefs, wide);
            PLANES
        } else {
            correlate::<K, 1, PER_SOURCE>(geo, sources, source_len, coefs, &mut wide[..wide_len]);
            1
        };
        for (i, wide) in wide.chunks_exact(wide_len).take(n).enumerate() {
            sink.store(plane + i, wide);
        }
        plane += n;
    }
}

/// The weight-gradient chains of one block of [`OC_LANES`] output channels
/// for one sample: `chains[ic][ky][kx][lane] += gy[lane][oy][ox] ·
/// x[ic][oy + ky][ox + kx]` over `(oy, ox)` ascending, on padded planes.
/// `KX` taps of a filter row (`KX` divides `k`) advance together, so
/// `KX · OC_LANES` chains are in flight.
#[inline(always)]
fn weight_grads<const KX: usize>(
    geo: &Geometry,
    padded: &[f32],
    gy: &[[f32; OC_LANES]],
    chains: &mut [[f32; OC_LANES]],
) {
    let (k, wp, ow) = (geo.k, geo.wp, geo.ow);
    let planes = padded.chunks_exact(geo.padded_plane());
    for (plane, chains) in planes.zip(chains.chunks_exact_mut(geo.taps())) {
        for (ky, chains) in chains.chunks_exact_mut(k).enumerate() {
            for (kx, chains) in chains.chunks_exact_mut(KX).enumerate() {
                let mut acc: [[f32; OC_LANES]; KX] = std::array::from_fn(|j| chains[j]);
                for (oy, gy) in gy.chunks_exact(ow).enumerate() {
                    let row = &plane[(oy + ky) * wp + kx * KX..][..ow + KX - 1];
                    for (xs, g) in row.windows(KX).zip(gy) {
                        for j in 0..KX {
                            for lane in 0..OC_LANES {
                                acc[j][lane] += g[lane] * xs[j];
                            }
                        }
                    }
                }
                chains.copy_from_slice(&acc);
            }
        }
    }
}

/// Runs `$kernel::<K, ..>(..)` with the kernel size as a constant for the
/// 3×3 filters of every model here (`K = 0`: read from the geometry).
macro_rules! with_kernel_size {
    ($k:expr, $kernel:ident::<_ $(, $generic:tt)*>($($arg:expr),* $(,)?)) => {
        match $k {
            3 => $kernel::<3 $(, $generic)*>($($arg),*),
            _ => $kernel::<0 $(, $generic)*>($($arg),*),
        }
    };
}

/// [`Conv2d::forward`] over the batch: pad each sample, correlate it with
/// the filters, add the bias.
struct Forward<'a> {
    geo: Geometry,
    x: &'a [f32],
    weight: &'a [f32],
    bias: &'a [f32],
    out: &'a mut [f32],
    /// `in_ch` padded planes, then [`PLANES`] wide output planes.
    scratch: &'a mut [f32],
}

impl Kernel for Forward<'_> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        let Self {
            geo,
            x,
            weight,
            bias,
            out,
            scratch: mut rest,
        } = self;
        let out_plane = geo.oh * geo.ow;
        let padded = carve(&mut rest, geo.in_ch * geo.padded_plane());
        let samples = x.chunks_exact(geo.in_ch * geo.h * geo.w);
        for (x, out) in samples.zip(out.chunks_exact_mut(geo.out_ch * out_plane)) {
            pad_planes(&geo, x, padded);
            let sink = BiasedOutput {
                geo: &geo,
                out,
                bias,
            };
            with_kernel_size!(
                geo.k,
                correlate_planes::<_, true>(
                    &geo,
                    geo.out_ch,
                    padded,
                    geo.padded_plane(),
                    weight,
                    rest,
                    sink,
                )
            );
        }
    }
}

/// [`Conv2d`]'s backward pass over the batch: bias and weight gradients,
/// and the input gradient where `gx` is given.
struct Backward<'a> {
    geo: Geometry,
    weight: &'a [f32],
    gw: &'a mut [f32],
    gb: &'a mut [f32],
    x: &'a [f32],
    gy: &'a [f32],
    gx: Option<&'a mut [f32]>,
    /// [`Geometry::backward_scratch`] floats.
    scratch: &'a mut [f32],
}

impl Kernel for Backward<'_> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        let Self {
            geo,
            weight,
            gw,
            gb,
            x,
            gy,
            mut gx,
            scratch: mut rest,
        } = self;
        let (kk, out_plane, in_plane) = (geo.taps(), geo.oh * geo.ow, geo.h * geo.w);
        let chains_per_block = geo.in_ch * kk;
        // The weight gradients so far as chains with the output channel
        // innermost (channels the last block lacks stay zero).
        let chains = carve(&mut rest, geo.oc_blocks() * chains_per_block * OC_LANES);
        chains.fill(0.0);
        for (oc, gw) in gw.chunks_exact(chains_per_block).enumerate() {
            for (at, &g) in gw.iter().enumerate() {
                chains[lane_index(oc, at, chains_per_block)] = g;
            }
        }
        let padded = carve(&mut rest, geo.in_ch * geo.padded_plane());
        let gy_lanes = carve(&mut rest, geo.oc_blocks() * out_plane * OC_LANES);
        gy_lanes.fill(0.0);
        // For the input gradient: the filters as `[in_ch][out_ch]`, flipped
        // in both axes, and the output gradient in wide layout.
        let (flipped, gy_wide) = if gx.is_some() {
            let flipped = carve(&mut rest, weight.len());
            for oc in 0..geo.out_ch {
                for ic in 0..geo.in_ch {
                    for tap in 0..kk {
                        let at = (oc * geo.in_ch + ic) * kk + tap;
                        flipped[(ic * geo.out_ch + oc) * kk + kk - 1 - tap] = weight[at];
                    }
                }
            }
            (flipped, carve(&mut rest, geo.out_ch * geo.grad_plane()))
        } else {
            (&mut [][..], &mut [][..])
        };

        let samples = x.chunks_exact(geo.in_ch * in_plane);
        let grads = gy.chunks_exact(geo.out_ch * out_plane);
        for (s, (x, gy)) in samples.zip(grads).enumerate() {
            // Bias and weight gradients, one block of channels at a time.
            pad_planes(&geo, x, padded);
            for (oc, gy) in gy.chunks_exact(out_plane).enumerate() {
                for (pixel, &g) in gy.iter().enumerate() {
                    gy_lanes[lane_index(oc, pixel, out_plane)] = g;
                }
            }
            let (gy_lanes, _) = gy_lanes.as_chunks::<OC_LANES>();
            let (chains, _) = chains.as_chunks_mut::<OC_LANES>();
            let blocks = gy_lanes
                .chunks_exact(out_plane)
                .zip(chains.chunks_exact_mut(chains_per_block))
                .zip(gb.chunks_mut(OC_LANES));
            for ((gy, chains), gb) in blocks {
                let mut sums = [0.0f32; OC_LANES];
                for g in gy {
                    for lane in 0..OC_LANES {
                        sums[lane] += g[lane];
                    }
                }
                for (gb, sum) in gb.iter_mut().zip(sums) {
                    *gb += sum;
                }
                if geo.k.is_multiple_of(3) {
                    weight_grads::<3>(&geo, padded, gy, chains);
                } else {
                    weight_grads::<1>(&geo, padded, gy, chains);
                }
            }

            // Input gradient.
            let Some(gx) = gx.as_deref_mut() else {
                continue;
            };
            let gx = &mut gx[s * geo.in_ch * in_plane..][..geo.in_ch * in_plane];
            widen_grads(&geo, gy, gy_wide);
            let sink = CroppedGrads { geo: &geo, gx };
            with_kernel_size!(
                geo.k,
                correlate_planes::<_, false>(
                    &geo,
                    geo.in_ch,
                    gy_wide,
                    geo.grad_plane(),
                    flipped,
                    rest,
                    sink,
                )
            );
        }

        for (oc, gw) in gw.chunks_exact_mut(chains_per_block).enumerate() {
            for (at, gw) in gw.iter_mut().enumerate() {
                *gw = chains[lane_index(oc, at, chains_per_block)];
            }
        }
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: Tensor, train: bool) -> Tensor {
        let (b, geo) = self.geometry(input.shape());
        let (weight, bias) = self.params.split_at(geo.out_ch * geo.in_ch * geo.taps());
        let mut out = vec![0.0f32; b * geo.out_ch * geo.oh * geo.ow];
        let scratch_len = geo.in_ch * geo.padded_plane() + PLANES * geo.wide_out();
        scratch::with(scratch_len, |scratch| {
            simd::run(Forward {
                geo,
                x: input.data(),
                weight,
                bias,
                out: &mut out,
                scratch,
            });
        });
        if train {
            self.cached_input = Some(input);
        }
        Tensor::from_vec(&[b, geo.out_ch, geo.oh, geo.ow], out)
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

    fn param_segments(&self) -> Vec<(usize, usize)> {
        // Filter bank [out, in*k*k] then the bias column — the natural
        // matricization PowerSGD/PowerGossip factorize.
        vec![
            (self.out_ch, self.in_ch * self.kernel * self.kernel),
            (self.out_ch, 1),
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

/// The six-deep loops with per-tap border tests that the kernels above
/// replaced, kept as the oracle: the kernels must reproduce them bit for bit.
#[cfg(test)]
mod reference {
    /// `(in_ch, out_ch, kernel, pad)`.
    pub(super) type Layer = (usize, usize, usize, usize);

    pub(super) fn forward(
        (in_ch, out_ch, k, pad): Layer,
        params: &[f32],
        [b, c, h, w]: [usize; 4],
        x: &[f32],
    ) -> Vec<f32> {
        let (oh, ow) = (h + 2 * pad + 1 - k, w + 2 * pad + 1 - k);
        let (weight, bias) = params.split_at(out_ch * in_ch * k * k);
        let mut out = vec![0.0f32; b * out_ch * oh * ow];
        let pad = pad as isize;
        for bi in 0..b {
            for oc in 0..out_ch {
                let dst = &mut out[(bi * out_ch + oc) * oh * ow..(bi * out_ch + oc + 1) * oh * ow];
                for ic in 0..in_ch {
                    let plane = &x[(bi * c + ic) * h * w..(bi * c + ic + 1) * h * w];
                    let kern = &weight[(oc * in_ch + ic) * k * k..(oc * in_ch + ic + 1) * k * k];
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let mut acc = 0.0;
                            for ky in 0..k {
                                let iy = oy as isize + ky as isize - pad;
                                if iy < 0 || iy >= h as isize {
                                    continue;
                                }
                                for kx in 0..k {
                                    let ix = ox as isize + kx as isize - pad;
                                    if ix < 0 || ix >= w as isize {
                                        continue;
                                    }
                                    acc += plane[iy as usize * w + ix as usize] * kern[ky * k + kx];
                                }
                            }
                            dst[oy * ow + ox] += acc;
                        }
                    }
                }
                for v in dst.iter_mut() {
                    *v += bias[oc];
                }
            }
        }
        out
    }

    /// Accumulates into `grads`, returns the input gradient.
    pub(super) fn backward(
        (in_ch, out_ch, k, pad): Layer,
        params: &[f32],
        grads: &mut [f32],
        [b, c, h, w]: [usize; 4],
        x: &[f32],
        gy: &[f32],
    ) -> Vec<f32> {
        let (oh, ow) = (h + 2 * pad + 1 - k, w + 2 * pad + 1 - k);
        let wlen = out_ch * in_ch * k * k;
        let weight = &params[..wlen];
        let (gw, gb) = grads.split_at_mut(wlen);
        let mut gx = vec![0.0f32; b * c * h * w];
        let pad = pad as isize;
        for bi in 0..b {
            for oc in 0..out_ch {
                let gys = &gy[(bi * out_ch + oc) * oh * ow..(bi * out_ch + oc + 1) * oh * ow];
                gb[oc] += gys.iter().sum::<f32>();
                for ic in 0..in_ch {
                    let plane = &x[(bi * c + ic) * h * w..(bi * c + ic + 1) * h * w];
                    let kern = &weight[(oc * in_ch + ic) * k * k..(oc * in_ch + ic + 1) * k * k];
                    let gkern = &mut gw[(oc * in_ch + ic) * k * k..(oc * in_ch + ic + 1) * k * k];
                    let gplane_base = (bi * c + ic) * h * w;
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let g = gys[oy * ow + ox];
                            if g == 0.0 {
                                continue;
                            }
                            for ky in 0..k {
                                let iy = oy as isize + ky as isize - pad;
                                if iy < 0 || iy >= h as isize {
                                    continue;
                                }
                                for kx in 0..k {
                                    let ix = ox as isize + kx as isize - pad;
                                    if ix < 0 || ix >= w as isize {
                                        continue;
                                    }
                                    let ii = iy as usize * w + ix as usize;
                                    gkern[ky * k + kx] += g * plane[ii];
                                    gx[gplane_base + ii] += g * kern[ky * k + kx];
                                }
                            }
                        }
                    }
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
    fn a_fresh_conv_holds_no_untouched_parameter_capacity() {
        let conv = Conv2d::new(3, 16, 5, 2, 0);
        assert_eq!(conv.params.len(), 16 * 3 * 5 * 5 + 16);
        assert_eq!(conv.params.capacity(), conv.params.len());
    }

    #[test]
    fn identity_kernel_preserves_input() {
        // 1x1 kernel with weight 1 and no padding acts as identity.
        let mut conv = Conv2d::new(1, 1, 1, 0, 0);
        conv.params_mut().copy_from_slice(&[1.0, 0.0]);
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let y = conv.forward(x.clone(), true);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn known_3x3_convolution() {
        let mut conv = Conv2d::new(1, 1, 3, 1, 0);
        // Sum-of-neighbourhood kernel.
        let mut p = vec![1.0f32; 9];
        p.push(0.0); // bias
        conv.params_mut().copy_from_slice(&p);
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let y = conv.forward(x.clone(), true);
        // With zero padding every output is the sum of all in-range pixels.
        assert_eq!(y.data(), &[10.0, 10.0, 10.0, 10.0]);
    }

    #[test]
    fn output_shape_and_bias() {
        let mut conv = Conv2d::new(2, 3, 3, 1, 7);
        let x = Tensor::zeros(&[2, 2, 8, 8]);
        let y = conv.forward(x.clone(), true);
        assert_eq!(y.shape(), &[2, 3, 8, 8]);
        assert_eq!(conv.param_count(), 3 * 2 * 9 + 3);
    }

    #[test]
    fn gradient_accumulates_across_calls() {
        let mut conv = Conv2d::new(1, 1, 1, 0, 3);
        let x = Tensor::from_vec(&[1, 1, 1, 1], vec![2.0]);
        let _ = conv.forward(x.clone(), true);
        let _ = conv.backward(Tensor::from_vec(&[1, 1, 1, 1], vec![1.0]));
        let g1 = conv.grads()[0];
        let _ = conv.forward(x.clone(), true);
        let _ = conv.backward(Tensor::from_vec(&[1, 1, 1, 1], vec![1.0]));
        assert_eq!(conv.grads()[0], 2.0 * g1);
        conv.zero_grads();
        assert_eq!(conv.grads()[0], 0.0);
    }

    use crate::testdata::{bits, relu_sparse, salted};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Outputs, input gradients and parameter gradients accumulated over
        /// two passes equal the reference loops bit for bit — over kernel
        /// sizes with and without a constant instantiation, paddings from
        /// none to wider than the kernel, non-square images down to
        /// `h + 2·pad == k`, channel counts on both sides of the lane and
        /// plane blocks, and gradients full of the zeros the reference
        /// skips — under both kernel sets.
        #[test]
        fn kernels_are_bit_identical_to_reference(
            seed in any::<u64>(),
            k in prop_oneof![Just(1usize), Just(2usize), Just(3usize), Just(5usize)],
            pad in 0usize..3,
            (dh, dw) in (0usize..7, 0usize..7),
            b in 1usize..10,
            in_ch in 1usize..6,
            out_ch in 1usize..11,
        ) {
            let smallest = k.saturating_sub(2 * pad).max(1);
            let (h, w) = (smallest + dh, smallest + dw);
            prop_assume!(h != w);
            let layer = (in_ch, out_ch, k, pad);
            let shape = [b, in_ch, h, w];
            let out_len = b * out_ch * (h + 2 * pad + 1 - k) * (w + 2 * pad + 1 - k);

            simd::both_sets(|| {
                let mut conv = Conv2d::new(in_ch, out_ch, k, pad, seed);
                let params = salted(conv.param_count(), seed ^ 1);
                conv.params_mut().copy_from_slice(&params);
                let mut ref_grads = vec![0.0f32; params.len()];
                for pass in 0..2u64 {
                    let x = salted(b * in_ch * h * w, seed ^ (2 + pass));
                    let gy = if pass == 0 {
                        relu_sparse(out_len, seed ^ 4)
                    } else {
                        salted(out_len, seed ^ 5)
                    };
                    let y = conv.forward(Tensor::from_vec(&shape, x.clone()), true);
                    let y_ref = reference::forward(layer, &params, shape, &x);
                    prop_assert_eq!(bits(y.data()), bits(&y_ref));
                    let y_eval = conv.forward(Tensor::from_vec(&shape, x.clone()), false);
                    prop_assert_eq!(bits(y_eval.data()), bits(&y_ref));

                    let gx = conv.backward(Tensor::from_vec(y.shape(), gy.clone()));
                    let gx_ref =
                        reference::backward(layer, &params, &mut ref_grads, shape, &x, &gy);
                    prop_assert_eq!(gx.shape(), &shape[..]);
                    prop_assert_eq!(bits(gx.data()), bits(&gx_ref));
                    prop_assert_eq!(bits(conv.grads()), bits(&ref_grads));
                }
            });
        }
    }
}
