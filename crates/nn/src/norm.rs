//! Group normalization (Wu & He, 2018).
//!
//! The paper's CIFAR-10 model is *GN*-LeNet (Hsieh et al., "The non-IID data
//! quagmire"): batch norm is replaced by group norm precisely because batch
//! statistics break under non-IID decentralized training. Group norm
//! normalizes each sample independently over channel groups, so it behaves
//! identically at train and eval time and needs no running statistics.

use crate::layers::Layer;
use crate::simd::{self, Kernel};
use crate::tensor::Tensor;

const EPS: f64 = 1e-5;

/// Group normalization over `[batch, ch, h, w]` with per-channel affine
/// parameters (`gamma` then `beta` in the flat buffer).
#[derive(Debug)]
pub struct GroupNorm {
    groups: usize,
    channels: usize,
    params: Vec<f32>,
    grads: Vec<f32>,
    /// Kept by a training forward, reused across calls: normalized
    /// activations, per-(sample, group) inverse standard deviations and the
    /// input shape.
    xhat: Vec<f32>,
    inv_std: Vec<f64>,
    shape: [usize; 4],
}

impl GroupNorm {
    /// Creates a group norm with `gamma = 1`, `beta = 0`.
    ///
    /// # Panics
    ///
    /// Panics unless `groups` divides `channels`.
    pub fn new(groups: usize, channels: usize) -> Self {
        assert!(
            groups > 0 && channels.is_multiple_of(groups),
            "groups must divide channels"
        );
        let params = [vec![1.0f32; channels], vec![0.0; channels]].concat();
        Self {
            groups,
            channels,
            grads: vec![0.0; 2 * channels],
            params,
            xhat: Vec::new(),
            inv_std: Vec::new(),
            shape: [0; 4],
        }
    }
}

/// [`GroupNorm`]'s forward pass in place over `(sample, group)` slices of
/// `ch_per_group` planes of `plane` floats; a training pass also keeps `x̂`
/// and the inverse standard deviations in `cache`.
struct Forward<'a> {
    groups: usize,
    plane: usize,
    gamma: &'a [f32],
    beta: &'a [f32],
    x: &'a mut [f32],
    cache: Option<(&'a mut [f32], &'a mut [f64])>,
}

impl Kernel for Forward<'_> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        let Self {
            groups,
            plane,
            gamma,
            beta,
            x,
            mut cache,
        } = self;
        let ch_per_group = gamma.len() / groups;
        // Elements per (sample, group). The (sample, group) slices tile the
        // buffer in order: slice `sg` is sample `sg / groups`, group
        // `sg % groups`.
        let gsize = ch_per_group * plane;
        for (sg, slice) in x.chunks_exact_mut(gsize).enumerate() {
            let mean = slice.iter().map(|&v| f64::from(v)).sum::<f64>() / gsize as f64;
            let var = slice
                .iter()
                .map(|&v| (f64::from(v) - mean).powi(2))
                .sum::<f64>()
                / gsize as f64;
            let istd = 1.0 / (var + EPS).sqrt();
            for v in slice.iter_mut() {
                *v = ((f64::from(*v) - mean) * istd) as f32;
            }
            if let Some((xhat, inv_std)) = cache.as_mut() {
                inv_std[sg] = istd;
                xhat[sg * gsize..(sg + 1) * gsize].copy_from_slice(slice);
            }
            let first_ch = sg % groups * ch_per_group;
            for (j, plane) in slice.chunks_exact_mut(plane).enumerate() {
                let (gamma, beta) = (gamma[first_ch + j], beta[first_ch + j]);
                for v in plane {
                    *v = gamma * *v + beta;
                }
            }
        }
    }
}

/// [`GroupNorm`]'s backward pass: accumulates `gγ`, `gβ` and turns `gy`
/// into the input gradient in place.
struct Backward<'a> {
    groups: usize,
    plane: usize,
    gamma: &'a [f32],
    ggamma: &'a mut [f32],
    gbeta: &'a mut [f32],
    gy: &'a mut [f32],
    xhat: &'a [f32],
    inv_std: &'a [f64],
}

impl Kernel for Backward<'_> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        let Self {
            groups,
            plane,
            gamma,
            ggamma,
            gbeta,
            gy,
            xhat,
            inv_std,
        } = self;
        let ch_per_group = gamma.len() / groups;
        let gsize = ch_per_group * plane;
        let slices = gy.chunks_exact_mut(gsize).zip(xhat.chunks_exact(gsize));
        for (sg, (gys, xhats)) in slices.enumerate() {
            let first_ch = sg % groups * ch_per_group;
            // Per-group reductions of gxhat and gxhat·xhat; the per-channel
            // ones go straight into the parameter gradients.
            let mut sum_gxh = 0.0f64;
            let mut sum_gxh_xh = 0.0f64;
            let planes = gys.chunks_exact(plane).zip(xhats.chunks_exact(plane));
            for (j, (gys, xhats)) in planes.enumerate() {
                let ch = first_ch + j;
                let gamma = f64::from(gamma[ch]);
                let (mut ggamma_ch, mut gbeta_ch) = (ggamma[ch], gbeta[ch]);
                for (&gy, &xh) in gys.iter().zip(xhats) {
                    let gxh = f64::from(gy) * gamma;
                    sum_gxh += gxh;
                    sum_gxh_xh += gxh * f64::from(xh);
                    ggamma_ch += gy * xh;
                    gbeta_ch += gy;
                }
                (ggamma[ch], gbeta[ch]) = (ggamma_ch, gbeta_ch);
            }
            let m = gsize as f64;
            let scale = inv_std[sg] / m;
            let planes = gys.chunks_exact_mut(plane).zip(xhats.chunks_exact(plane));
            for (j, (gys, xhats)) in planes.enumerate() {
                let gamma = f64::from(gamma[first_ch + j]);
                for (gy, &xh) in gys.iter_mut().zip(xhats) {
                    let gxh = f64::from(*gy) * gamma;
                    *gy = (scale * (m * gxh - sum_gxh - f64::from(xh) * sum_gxh_xh)) as f32;
                }
            }
        }
    }
}

impl Layer for GroupNorm {
    fn forward(&mut self, mut input: Tensor, train: bool) -> Tensor {
        let shape: [usize; 4] = input.shape().try_into().expect("expects [b,c,h,w]");
        let [b, c, h, w] = shape;
        assert_eq!(c, self.channels, "channel mismatch");
        let (gamma, beta) = self.params.split_at(c);
        let cache = if train {
            self.shape = shape;
            self.xhat.resize(input.len(), 0.0);
            self.inv_std.resize(b * self.groups, 0.0);
            Some((&mut self.xhat[..], &mut self.inv_std[..]))
        } else {
            None
        };
        simd::run(Forward {
            groups: self.groups,
            plane: h * w,
            gamma,
            beta,
            x: input.data_mut(),
            cache,
        });
        input
    }

    fn backward(&mut self, mut grad_out: Tensor) -> Tensor {
        let [b, c, h, w] = self.shape;
        assert!(
            b * c * h * w == grad_out.len() && grad_out.len() == self.xhat.len(),
            "backward before forward"
        );
        let (ggamma, gbeta) = self.grads.split_at_mut(c);
        simd::run(Backward {
            groups: self.groups,
            plane: h * w,
            gamma: &self.params[..c],
            ggamma,
            gbeta,
            gy: grad_out.data_mut(),
            xhat: &self.xhat,
            inv_std: &self.inv_std,
        });
        grad_out
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

/// The per-element `k / (h·w)` loops [`GroupNorm`] started with, kept as the
/// oracle: the in-place version above must reproduce them bit for bit.
#[cfg(test)]
mod reference {
    use super::EPS;

    /// Returns `(out, xhat, inv_std)`.
    pub(super) fn forward(
        groups: usize,
        params: &[f32],
        [b, c, h, w]: [usize; 4],
        x: &[f32],
    ) -> (Vec<f32>, Vec<f32>, Vec<f64>) {
        let gsize = c / groups * h * w;
        let (gamma, beta) = params.split_at(c);
        let mut xhat = vec![0.0f32; x.len()];
        let mut out = vec![0.0f32; x.len()];
        let mut inv_std = vec![0.0f64; b * groups];
        let ch_per_group = c / groups;
        for bi in 0..b {
            for g in 0..groups {
                let start = bi * c * h * w + g * ch_per_group * h * w;
                let slice = &x[start..start + gsize];
                let mean = slice.iter().map(|&v| f64::from(v)).sum::<f64>() / gsize as f64;
                let var = slice
                    .iter()
                    .map(|&v| (f64::from(v) - mean).powi(2))
                    .sum::<f64>()
                    / gsize as f64;
                let istd = 1.0 / (var + EPS).sqrt();
                inv_std[bi * groups + g] = istd;
                for (k, &v) in slice.iter().enumerate() {
                    let ch = g * ch_per_group + k / (h * w);
                    let xh = ((f64::from(v) - mean) * istd) as f32;
                    xhat[start + k] = xh;
                    out[start + k] = gamma[ch] * xh + beta[ch];
                }
            }
        }
        (out, xhat, inv_std)
    }

    /// Accumulates into `grads`, returns the input gradient.
    pub(super) fn backward(
        groups: usize,
        params: &[f32],
        grads: &mut [f32],
        [b, c, h, w]: [usize; 4],
        (xhat, inv_std): (&[f32], &[f64]),
        gy: &[f32],
    ) -> Vec<f32> {
        let gsize = c / groups * h * w;
        let ch_per_group = c / groups;
        let gamma = &params[..c];
        let (ggamma, gbeta) = grads.split_at_mut(c);
        let mut gx = vec![0.0f32; gy.len()];
        for bi in 0..b {
            for g in 0..groups {
                let start = bi * c * h * w + g * ch_per_group * h * w;
                let istd = inv_std[bi * groups + g];
                let mut sum_gxh = 0.0f64;
                let mut sum_gxh_xh = 0.0f64;
                for k in 0..gsize {
                    let ch = g * ch_per_group + k / (h * w);
                    let gxh = f64::from(gy[start + k]) * f64::from(gamma[ch]);
                    let xh = f64::from(xhat[start + k]);
                    sum_gxh += gxh;
                    sum_gxh_xh += gxh * xh;
                    ggamma[ch] += gy[start + k] * xhat[start + k];
                    gbeta[ch] += gy[start + k];
                }
                let m = gsize as f64;
                for k in 0..gsize {
                    let ch = g * ch_per_group + k / (h * w);
                    let gxh = f64::from(gy[start + k]) * f64::from(gamma[ch]);
                    let xh = f64::from(xhat[start + k]);
                    gx[start + k] = ((istd / m) * (m * gxh - sum_gxh - xh * sum_gxh_xh)) as f32;
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
    fn normalizes_to_zero_mean_unit_var() {
        let mut gn = GroupNorm::new(2, 4);
        let x = Tensor::from_vec(&[1, 4, 1, 2], vec![1.0, 3.0, 5.0, 7.0, -2.0, 0.0, 2.0, 4.0]);
        let y = gn.forward(x, true);
        // Group 0 covers channels 0-1 (first 4 values), group 1 the rest.
        for group in y.data().chunks(4) {
            let mean: f32 = group.iter().sum::<f32>() / 4.0;
            let var: f32 = group.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "var {var}");
        }
    }

    #[test]
    fn affine_parameters_apply() {
        let mut gn = GroupNorm::new(1, 2);
        let c = 2;
        gn.params_mut()[0] = 2.0; // gamma ch0
        gn.params_mut()[c] = 1.0; // beta ch0
        let x = Tensor::from_vec(&[1, 2, 1, 1], vec![1.0, -1.0]);
        let y = gn.forward(x, true);
        // xhat = [1, -1] (mean 0, var 1 over the group of both channels).
        assert!((y.data()[0] - 3.0).abs() < 1e-3, "{:?}", y.data());
        assert!((y.data()[1] + 1.0).abs() < 1e-3);
    }

    #[test]
    fn samples_are_independent() {
        // Changing sample 2 must not affect sample 1's output.
        let mut gn = GroupNorm::new(1, 1);
        let x1 = Tensor::from_vec(&[2, 1, 1, 2], vec![1.0, 2.0, 100.0, -50.0]);
        let x2 = Tensor::from_vec(&[2, 1, 1, 2], vec![1.0, 2.0, 7.0, 9.0]);
        let y1 = gn.forward(x1, true).data()[..2].to_vec();
        let y2 = gn.forward(x2, true).data()[..2].to_vec();
        assert_eq!(y1, y2);
    }

    #[test]
    #[should_panic(expected = "groups must divide channels")]
    fn invalid_groups_panics() {
        let _ = GroupNorm::new(3, 4);
    }

    use crate::testdata::{bits, relu_sparse, salted};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Outputs, input gradients and parameter gradients accumulated over
        /// two passes equal the reference loops bit for bit, under both
        /// kernel sets.
        #[test]
        fn group_norm_is_bit_identical_to_reference(
            seed in any::<u64>(),
            groups in 1usize..5,
            ch_per_group in 1usize..4,
            (b, h, w) in (1usize..6, 1usize..6, 1usize..6),
        ) {
            let c = groups * ch_per_group;
            let shape = [b, c, h, w];
            simd::both_sets(|| {
                let mut gn = GroupNorm::new(groups, c);
                let params = salted(2 * c, seed ^ 1);
                gn.params_mut().copy_from_slice(&params);
                let mut ref_grads = vec![0.0f32; 2 * c];
                for pass in 0..2u64 {
                    let x = salted(b * c * h * w, seed ^ (2 + pass));
                    let gy = if pass == 0 {
                        relu_sparse(x.len(), seed ^ 4)
                    } else {
                        salted(x.len(), seed ^ 5)
                    };
                    let y = gn.forward(Tensor::from_vec(&shape, x.clone()), true);
                    let (y_ref, xhat, inv_std) = reference::forward(groups, &params, shape, &x);
                    prop_assert_eq!(bits(y.data()), bits(&y_ref));
                    let y_eval = gn.forward(Tensor::from_vec(&shape, x.clone()), false);
                    prop_assert_eq!(bits(y_eval.data()), bits(&y_ref));

                    let gx = gn.backward(Tensor::from_vec(&shape, gy.clone()));
                    let cache = (&xhat[..], &inv_std[..]);
                    let gx_ref =
                        reference::backward(groups, &params, &mut ref_grads, shape, cache, &gy);
                    prop_assert_eq!(bits(gx.data()), bits(&gx_ref));
                    prop_assert_eq!(bits(gn.grads()), bits(&ref_grads));
                }
            });
        }
    }
}
