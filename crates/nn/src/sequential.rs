//! A sequential container exposing its layers as one flat parameter vector.

use crate::layers::Layer;
use crate::tensor::Tensor;

/// A stack of layers applied in order.
///
/// The container concatenates every layer's parameters (in layer order) into
/// the single flat vector JWINS and the baselines sparsify, and scatters
/// updates back.
#[derive(Debug, Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates an empty container.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a layer (builder style).
    #[must_use]
    pub fn with(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the container has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Runs all layers forward; `train` as in [`Layer::forward`].
    pub fn forward(&mut self, input: Tensor, train: bool) -> Tensor {
        self.layers
            .iter_mut()
            .fold(input, |x, layer| layer.forward(x, train))
    }

    /// Backpropagates through all layers (reverse order), accumulating
    /// parameter gradients; returns the gradient w.r.t. the input.
    pub fn backward(&mut self, grad_out: Tensor) -> Tensor {
        self.layers
            .iter_mut()
            .rev()
            .fold(grad_out, |g, layer| layer.backward(g))
    }

    /// [`Self::backward`] for the parameter gradients alone: the first
    /// layer's input gradient, which nobody reads, is not computed (see
    /// [`Layer::backward_params`]). The gradients are the same bits.
    pub fn backward_params(&mut self, grad_out: Tensor) {
        if let Some((first, rest)) = self.layers.split_first_mut() {
            let grad = rest
                .iter_mut()
                .rev()
                .fold(grad_out, |g, layer| layer.backward(g));
            first.backward_params(grad);
        }
    }

    /// Total trainable parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Copies all parameters into a fresh flat vector (layer order).
    pub fn params(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        for layer in &self.layers {
            out.extend_from_slice(layer.params());
        }
        out
    }

    /// Loads a flat parameter vector produced by [`Self::params`].
    ///
    /// # Panics
    ///
    /// Panics if `flat.len() != self.param_count()`.
    pub fn set_params(&mut self, flat: &[f32]) {
        assert_eq!(flat.len(), self.param_count(), "parameter length mismatch");
        let mut offset = 0;
        for layer in &mut self.layers {
            let n = layer.param_count();
            layer
                .params_mut()
                .copy_from_slice(&flat[offset..offset + n]);
            offset += n;
        }
    }

    /// Copies all gradients into a fresh flat vector (same layout as
    /// [`Self::params`]).
    pub fn grads(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        for layer in &self.layers {
            out.extend_from_slice(layer.grads());
        }
        out
    }

    /// Clears all accumulated gradients.
    pub fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grads();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Linear, Relu};

    fn tiny_net() -> Sequential {
        Sequential::new()
            .with(Linear::new(3, 4, 1))
            .with(Relu::new())
            .with(Linear::new(4, 2, 2))
    }

    #[test]
    fn param_roundtrip() {
        let mut net = tiny_net();
        assert_eq!(net.param_count(), 3 * 4 + 4 + 4 * 2 + 2);
        let p = net.params();
        let mut p2 = p.clone();
        p2[0] += 1.0;
        net.set_params(&p2);
        assert_eq!(net.params(), p2);
    }

    #[test]
    fn forward_backward_shapes() {
        let mut net = tiny_net();
        let x = Tensor::from_vec(&[2, 3], vec![0.5; 6]);
        let y = net.forward(x, true);
        assert_eq!(y.shape(), &[2, 2]);
        let gx = net.backward(Tensor::from_vec(&[2, 2], vec![1.0; 4]));
        assert_eq!(gx.shape(), &[2, 3]);
        assert_eq!(net.grads().len(), net.param_count());
    }

    #[test]
    fn zero_grads_clears_everything() {
        let mut net = tiny_net();
        let x = Tensor::from_vec(&[1, 3], vec![1.0, 2.0, 3.0]);
        let _ = net.forward(x, true);
        let _ = net.backward(Tensor::from_vec(&[1, 2], vec![1.0, -1.0]));
        assert!(net.grads().iter().any(|&g| g != 0.0));
        net.zero_grads();
        assert!(net.grads().iter().all(|&g| g == 0.0));
    }

    /// Every layer kind in one stack: an evaluation forward between a
    /// training forward and its backward — at another batch size — changes
    /// neither the gradients nor what the evaluation itself returns.
    #[test]
    fn evaluation_forward_leaves_training_state_alone() {
        use crate::conv::Conv2d;
        use crate::layers::{AvgPool2d, Flatten, MaxPool2d, Tanh};
        use crate::norm::GroupNorm;
        use crate::testdata::{bits, salted};
        let mut net = Sequential::new()
            .with(Conv2d::new(2, 4, 3, 1, 1))
            .with(GroupNorm::new(2, 4))
            .with(Relu::new())
            .with(AvgPool2d::new(2))
            .with(Conv2d::new(4, 4, 3, 1, 2))
            .with(Tanh::new())
            .with(MaxPool2d::new(2))
            .with(Flatten::new())
            .with(Linear::new(4 * 2 * 2, 3, 3));
        let x = Tensor::from_vec(&[3, 2, 8, 8], salted(3 * 2 * 8 * 8, 1));
        let other = Tensor::from_vec(&[5, 2, 8, 8], salted(5 * 2 * 8 * 8, 2));
        let gy = Tensor::from_vec(&[3, 3], salted(9, 3));

        let _ = net.forward(x.clone(), true);
        let gx = net.backward(gy.clone());
        let grads = net.grads();
        let evaluated = net.forward(other.clone(), true);

        net.zero_grads();
        let _ = net.forward(x, true);
        let evaluated_between = net.forward(other, false);
        assert_eq!(bits(evaluated_between.data()), bits(evaluated.data()));
        assert_eq!(bits(net.backward(gy).data()), bits(gx.data()));
        assert_eq!(bits(&net.grads()), bits(&grads));
    }

    #[test]
    #[should_panic(expected = "parameter length mismatch")]
    fn set_params_validates_length() {
        tiny_net().set_params(&[0.0; 3]);
    }
}
