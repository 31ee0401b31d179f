//! The five model architectures of the JWINS evaluation.
//!
//! | Paper workload | Architecture | Constructor |
//! |---|---|---|
//! | CIFAR-10 | GN-LeNet (conv + group norm, Hsieh et al.) | [`gn_lenet`] |
//! | FEMNIST | LEAF CNN (conv + max pool) | [`leaf_cnn`] |
//! | CelebA | LEAF CNN, binary head | [`leaf_cnn`] |
//! | MovieLens | matrix factorization with biases | [`MatrixFactorization`] |
//! | Shakespeare | embedding + stacked LSTM + decoder | [`CharLstm`] |
//!
//! All widths are configurable so experiments can run at laptop scale while
//! keeping the architectural shape; every model implements [`Model`] and is
//! finite-difference checked in the test suite.

use crate::conv::Conv2d;
use crate::init;
use crate::layers::{AvgPool2d, Flatten, Layer, Linear, MaxPool2d, Relu};
use crate::loss::{argmax_rows, cross_entropy, mse, softmax_cross_entropy};
use crate::model::{EvalMetrics, Model};
use crate::norm::GroupNorm;
use crate::recurrent::{Embedding, Lstm};
use crate::sequential::Sequential;
use crate::tensor::Tensor;

/// A classification sample: dense features plus a class index.
pub type ClassSample = (Vec<f32>, usize);

/// A rating sample: `(user, item, rating)`.
pub type RatingSample = (usize, usize, f32);

/// A sequence sample: `(input token ids, next-token targets)`, equal length.
pub type SeqSample = (Vec<usize>, Vec<usize>);

/// A [`Sequential`] network with a softmax-cross-entropy head, consuming
/// `(features, label)` samples.
#[derive(Debug)]
pub struct ImageClassifier {
    net: Sequential,
    /// Per-sample input shape (e.g. `[3, 16, 16]` or `[features]`).
    input_shape: Vec<usize>,
    classes: usize,
}

impl ImageClassifier {
    /// Wraps a network whose final layer emits `classes` logits.
    pub fn new(net: Sequential, input_shape: Vec<usize>, classes: usize) -> Self {
        Self {
            net,
            input_shape,
            classes,
        }
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    fn batch_tensor(&self, batch: &[ClassSample]) -> (Tensor, Vec<usize>) {
        let per: usize = self.input_shape.iter().product();
        let mut data = Vec::with_capacity(batch.len() * per);
        let mut targets = Vec::with_capacity(batch.len());
        for (x, y) in batch {
            assert_eq!(
                x.len(),
                per,
                "sample has {} features, expected {per}",
                x.len()
            );
            data.extend_from_slice(x);
            targets.push(*y);
        }
        let rank = 1 + self.input_shape.len();
        let mut shape = [0; 4];
        shape[0] = batch.len();
        shape[1..rank].copy_from_slice(&self.input_shape);
        (Tensor::from_vec(&shape[..rank], data), targets)
    }
}

impl Model for ImageClassifier {
    type Sample = ClassSample;

    fn param_count(&self) -> usize {
        self.net.param_count()
    }

    fn params(&self) -> Vec<f32> {
        self.net.params()
    }

    fn set_params(&mut self, flat: &[f32]) {
        self.net.set_params(flat);
    }

    fn loss_and_grad(&mut self, batch: &[ClassSample]) -> (f32, Vec<f32>) {
        assert!(!batch.is_empty(), "empty batch");
        self.net.zero_grads();
        let (x, targets) = self.batch_tensor(batch);
        let logits = self.net.forward(x, true);
        let (loss, grad) = softmax_cross_entropy(&logits, &targets);
        self.net.backward_params(grad);
        (loss, self.net.grads())
    }

    fn evaluate(&mut self, batch: &[ClassSample]) -> EvalMetrics {
        if batch.is_empty() {
            return EvalMetrics::default();
        }
        let (x, targets) = self.batch_tensor(batch);
        let logits = self.net.forward(x, false);
        let loss = cross_entropy(&logits, &targets);
        let pred = argmax_rows(&logits);
        let correct = pred.iter().zip(&targets).filter(|(p, t)| p == t).count();
        EvalMetrics {
            loss_sum: f64::from(loss) * batch.len() as f64,
            count: batch.len(),
            correct,
            sq_err_sum: 0.0,
        }
    }
}

/// Multi-layer perceptron classifier over flat features.
pub fn mlp_classifier(
    inputs: usize,
    hidden: &[usize],
    classes: usize,
    seed: u64,
) -> ImageClassifier {
    let mut net = Sequential::new();
    let mut prev = inputs;
    for (i, &h) in hidden.iter().enumerate() {
        net = net
            .with(Linear::new(prev, h, init::sub_seed(seed, i as u64)))
            .with(Relu::new());
        prev = h;
    }
    net = net.with(Linear::new(prev, classes, init::sub_seed(seed, 100)));
    ImageClassifier::new(net, vec![inputs], classes)
}

/// GN-LeNet (Hsieh et al.): two conv + group-norm + ReLU + avg-pool blocks and
/// a linear head. `width` is the channel count of both conv layers.
///
/// # Panics
///
/// Panics unless `h` and `w` are divisible by 4 (two 2× pools).
pub fn gn_lenet(
    in_ch: usize,
    h: usize,
    w: usize,
    classes: usize,
    width: usize,
    seed: u64,
) -> ImageClassifier {
    assert!(
        h.is_multiple_of(4) && w.is_multiple_of(4),
        "spatial dims must be divisible by 4"
    );
    let groups = if width.is_multiple_of(4) { 4 } else { 1 };
    let net = Sequential::new()
        .with(Conv2d::new(in_ch, width, 3, 1, init::sub_seed(seed, 0)))
        .with(GroupNorm::new(groups, width))
        .with(Relu::new())
        .with(AvgPool2d::new(2))
        .with(Conv2d::new(width, width, 3, 1, init::sub_seed(seed, 1)))
        .with(GroupNorm::new(groups, width))
        .with(Relu::new())
        .with(AvgPool2d::new(2))
        .with(Flatten::new())
        .with(Linear::new(
            width * (h / 4) * (w / 4),
            classes,
            init::sub_seed(seed, 2),
        ));
    ImageClassifier::new(net, vec![in_ch, h, w], classes)
}

/// LEAF-style CNN (FEMNIST/CelebA): two conv + ReLU + max-pool blocks, then a
/// hidden linear layer and the class head.
///
/// # Panics
///
/// Panics unless `h` and `w` are divisible by 4.
pub fn leaf_cnn(
    in_ch: usize,
    h: usize,
    w: usize,
    classes: usize,
    width: usize,
    hidden: usize,
    seed: u64,
) -> ImageClassifier {
    assert!(
        h.is_multiple_of(4) && w.is_multiple_of(4),
        "spatial dims must be divisible by 4"
    );
    let net = Sequential::new()
        .with(Conv2d::new(in_ch, width, 3, 1, init::sub_seed(seed, 0)))
        .with(Relu::new())
        .with(MaxPool2d::new(2))
        .with(Conv2d::new(width, 2 * width, 3, 1, init::sub_seed(seed, 1)))
        .with(Relu::new())
        .with(MaxPool2d::new(2))
        .with(Flatten::new())
        .with(Linear::new(
            2 * width * (h / 4) * (w / 4),
            hidden,
            init::sub_seed(seed, 2),
        ))
        .with(Relu::new())
        .with(Linear::new(hidden, classes, init::sub_seed(seed, 3)));
    ImageClassifier::new(net, vec![in_ch, h, w], classes)
}

/// Matrix factorization with user/item biases (Koren et al.), the MovieLens
/// model.
///
/// Flat layout: `[user factors U×k][item factors I×k][user bias U][item bias
/// I][global bias]`.
#[derive(Debug)]
pub struct MatrixFactorization {
    users: usize,
    items: usize,
    factors: usize,
    params: Vec<f32>,
}

impl MatrixFactorization {
    /// Creates a model with `N(0, 0.1)` factors and zero biases.
    pub fn new(users: usize, items: usize, factors: usize, seed: u64) -> Self {
        let mut params = init::scaled_normal(0.1, users * factors, init::sub_seed(seed, 0));
        params.reserve_exact(items * factors + users + items + 1);
        params.extend(init::scaled_normal(
            0.1,
            items * factors,
            init::sub_seed(seed, 1),
        ));
        params.extend(std::iter::repeat_n(0.0f32, users + items + 1));
        Self {
            users,
            items,
            factors,
            params,
        }
    }

    fn predict(&self, user: usize, item: usize) -> f32 {
        let k = self.factors;
        let pu = &self.params[user * k..(user + 1) * k];
        let qi_base = self.users * k + item * k;
        let qi = &self.params[qi_base..qi_base + k];
        let bias_base = (self.users + self.items) * k;
        let bu = self.params[bias_base + user];
        let bi = self.params[bias_base + self.users + item];
        let g = self.params[bias_base + self.users + self.items];
        let dot: f32 = pu.iter().zip(qi).map(|(a, b)| a * b).sum();
        g + bu + bi + dot
    }

    fn validate(&self, user: usize, item: usize) {
        assert!(user < self.users, "user {user} out of range {}", self.users);
        assert!(item < self.items, "item {item} out of range {}", self.items);
    }
}

impl Model for MatrixFactorization {
    type Sample = RatingSample;

    fn param_count(&self) -> usize {
        self.params.len()
    }

    fn params(&self) -> Vec<f32> {
        self.params.clone()
    }

    fn set_params(&mut self, flat: &[f32]) {
        assert_eq!(flat.len(), self.params.len(), "parameter length mismatch");
        self.params.copy_from_slice(flat);
    }

    fn loss_and_grad(&mut self, batch: &[RatingSample]) -> (f32, Vec<f32>) {
        assert!(!batch.is_empty(), "empty batch");
        let preds: Vec<f32> = batch
            .iter()
            .map(|&(u, i, _)| {
                self.validate(u, i);
                self.predict(u, i)
            })
            .collect();
        let targets: Vec<f32> = batch.iter().map(|&(_, _, r)| r).collect();
        let (loss, dpred) = mse(&preds, &targets);
        let k = self.factors;
        let bias_base = (self.users + self.items) * k;
        let mut grad = vec![0.0f32; self.params.len()];
        for (&(u, i, _), &e) in batch.iter().zip(&dpred) {
            let qi_base = self.users * k + i * k;
            for f in 0..k {
                grad[u * k + f] += e * self.params[qi_base + f];
                grad[qi_base + f] += e * self.params[u * k + f];
            }
            grad[bias_base + u] += e;
            grad[bias_base + self.users + i] += e;
            grad[bias_base + self.users + self.items] += e;
        }
        (loss, grad)
    }

    fn evaluate(&mut self, batch: &[RatingSample]) -> EvalMetrics {
        if batch.is_empty() {
            return EvalMetrics::default();
        }
        let mut loss_sum = 0.0f64;
        let mut correct = 0usize;
        for &(u, i, r) in batch {
            self.validate(u, i);
            let p = self.predict(u, i);
            let d = f64::from(p) - f64::from(r);
            loss_sum += d * d;
            // "Accuracy" for ratings: prediction rounds to the true (half-)star.
            if d.abs() < 0.5 {
                correct += 1;
            }
        }
        EvalMetrics {
            loss_sum,
            count: batch.len(),
            correct,
            sq_err_sum: loss_sum,
        }
    }
}

/// Embedding → stacked LSTM (2 layers) → linear decoder; the LEAF
/// Shakespeare next-character model.
#[derive(Debug)]
pub struct CharLstm {
    emb: Embedding,
    lstm1: Lstm,
    lstm2: Lstm,
    head: Linear,
    vocab: usize,
    hidden: usize,
}

impl CharLstm {
    /// Creates the model for a `vocab`-symbol alphabet.
    pub fn new(vocab: usize, emb_dim: usize, hidden: usize, seed: u64) -> Self {
        Self {
            emb: Embedding::new(vocab, emb_dim, init::sub_seed(seed, 0)),
            lstm1: Lstm::new(emb_dim, hidden, init::sub_seed(seed, 1)),
            lstm2: Lstm::new(hidden, hidden, init::sub_seed(seed, 2)),
            head: Linear::new(hidden, vocab, init::sub_seed(seed, 3)),
            vocab,
            hidden,
        }
    }

    /// Alphabet size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Runs the network, returning `[batch·steps, vocab]` logits and the
    /// flattened targets.
    fn forward_batch(&mut self, batch: &[SeqSample], train: bool) -> (Tensor, Vec<usize>) {
        assert!(!batch.is_empty(), "empty batch");
        let t = batch[0].0.len();
        assert!(t > 0, "empty sequence");
        let mut ids = Vec::with_capacity(batch.len() * t);
        let mut targets = Vec::with_capacity(batch.len() * t);
        for (x, y) in batch {
            assert_eq!(x.len(), t, "all sequences in a batch must share a length");
            assert_eq!(y.len(), t, "targets must align with inputs");
            ids.extend_from_slice(x);
            targets.extend_from_slice(y);
        }
        let e = self.emb.dim();
        let embedded = self.emb.forward(&ids).reshape(&[batch.len(), t, e]);
        let h1 = self.lstm1.forward(&embedded);
        let h2 = self.lstm2.forward(&h1);
        let flat = h2.reshape(&[batch.len() * t, self.hidden]);
        let logits = self.head.forward(flat, train);
        (logits, targets)
    }
}

impl Model for CharLstm {
    type Sample = SeqSample;

    fn param_count(&self) -> usize {
        self.emb.params().len()
            + self.lstm1.params().len()
            + self.lstm2.params().len()
            + self.head.param_count()
    }

    fn params(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        out.extend_from_slice(self.emb.params());
        out.extend_from_slice(self.lstm1.params());
        out.extend_from_slice(self.lstm2.params());
        out.extend_from_slice(self.head.params());
        out
    }

    fn set_params(&mut self, flat: &[f32]) {
        assert_eq!(flat.len(), self.param_count(), "parameter length mismatch");
        let mut off = 0;
        for (dst_len, dst) in [
            (self.emb.params().len(), self.emb.params_mut()),
            (self.lstm1.params().len(), self.lstm1.params_mut()),
            (self.lstm2.params().len(), self.lstm2.params_mut()),
            (self.head.param_count(), self.head.params_mut()),
        ] {
            dst.copy_from_slice(&flat[off..off + dst_len]);
            off += dst_len;
        }
    }

    fn loss_and_grad(&mut self, batch: &[SeqSample]) -> (f32, Vec<f32>) {
        self.emb.zero_grads();
        self.lstm1.zero_grads();
        self.lstm2.zero_grads();
        self.head.zero_grads();
        let b = batch.len();
        let t = batch[0].0.len();
        let (logits, targets) = self.forward_batch(batch, true);
        let (loss, dlogits) = softmax_cross_entropy(&logits, &targets);
        let dflat = self.head.backward(dlogits);
        let dh2 = dflat.reshape(&[b, t, self.hidden]);
        let dh1 = self.lstm2.backward(&dh2);
        let demb = self.lstm1.backward(&dh1);
        let e = self.emb.dim();
        self.emb.backward(&demb.reshape(&[b * t, e]));
        let mut grad = Vec::with_capacity(self.param_count());
        grad.extend_from_slice(self.emb.grads());
        grad.extend_from_slice(self.lstm1.grads());
        grad.extend_from_slice(self.lstm2.grads());
        grad.extend_from_slice(self.head.grads());
        (loss, grad)
    }

    fn evaluate(&mut self, batch: &[SeqSample]) -> EvalMetrics {
        if batch.is_empty() {
            return EvalMetrics::default();
        }
        let (logits, targets) = self.forward_batch(batch, false);
        let loss = cross_entropy(&logits, &targets);
        let preds = argmax_rows(&logits);
        let correct = preds.iter().zip(&targets).filter(|(p, t)| p == t).count();
        EvalMetrics {
            loss_sum: f64::from(loss) * targets.len() as f64,
            count: targets.len(),
            correct,
            sq_err_sum: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_model;

    fn class_batch(features: usize, classes: usize) -> Vec<ClassSample> {
        (0..4)
            .map(|s| {
                let x: Vec<f32> = (0..features)
                    .map(|i| ((s * features + i) as f32 * 0.7).sin() * 0.5)
                    .collect();
                (x, s % classes)
            })
            .collect()
    }

    #[test]
    fn mlp_gradcheck() {
        let mut m = mlp_classifier(6, &[8], 3, 11);
        let batch = class_batch(6, 3);
        check_model(&mut m, &batch, 1e-3, 3e-2, 60).unwrap();
    }

    #[test]
    fn gn_lenet_gradcheck() {
        let mut m = gn_lenet(2, 4, 4, 3, 4, 5);
        let batch = class_batch(2 * 4 * 4, 3);
        check_model(&mut m, &batch, 1e-3, 5e-2, 50).unwrap();
    }

    #[test]
    fn leaf_cnn_gradcheck() {
        let mut m = leaf_cnn(1, 4, 4, 2, 3, 8, 6);
        let batch = class_batch(16, 2);
        check_model(&mut m, &batch, 1e-3, 5e-2, 50).unwrap();
    }

    /// Kernel sizes and paddings the two CNNs do not use: 5×5 "same", an
    /// unpadded 3×3 and a 1×1, each feeding a second convolution so that
    /// the input gradient is checked too.
    #[test]
    fn conv_variants_gradcheck() {
        for (k, pad) in [(5, 2), (3, 0), (1, 0)] {
            let side = 6 + 2 * pad + 1 - k;
            let net = Sequential::new()
                .with(Conv2d::new(2, 3, k, pad, init::sub_seed(9, 0)))
                .with(crate::layers::Tanh::new())
                .with(Conv2d::new(3, 2, k, pad, init::sub_seed(9, 1)))
                .with(Flatten::new())
                .with(Linear::new(
                    2 * (side + 2 * pad + 1 - k) * (side + 2 * pad + 1 - k),
                    3,
                    init::sub_seed(9, 2),
                ));
            let mut m = ImageClassifier::new(net, vec![2, 6, 6], 3);
            let batch = class_batch(2 * 6 * 6, 3);
            check_model(&mut m, &batch, 1e-3, 5e-2, 80)
                .unwrap_or_else(|e| panic!("{k}x{k} pad {pad}: {e}"));
        }
    }

    #[test]
    fn matrix_factorization_gradcheck() {
        let mut m = MatrixFactorization::new(5, 7, 3, 2);
        let batch = vec![(0usize, 1usize, 4.0f32), (2, 6, 1.5), (4, 0, 3.0)];
        check_model(&mut m, &batch, 1e-3, 3e-2, 60).unwrap();
    }

    #[test]
    fn char_lstm_gradcheck() {
        let mut m = CharLstm::new(6, 4, 5, 3);
        let batch = vec![
            (vec![0usize, 2, 4, 1], vec![2usize, 4, 1, 5]),
            (vec![3, 3, 0, 5], vec![3, 0, 5, 2]),
        ];
        check_model(&mut m, &batch, 5e-3, 5e-2, 80).unwrap();
    }

    #[test]
    fn mlp_learns_a_separable_problem() {
        // Two clearly separated Gaussian blobs.
        let mut m = mlp_classifier(2, &[8], 2, 1);
        let mut batch = Vec::new();
        for i in 0..20 {
            let t = i as f32 * 0.1;
            batch.push((vec![1.0 + t.sin() * 0.1, 1.0 + t.cos() * 0.1], 0usize));
            batch.push((vec![-1.0 + t.sin() * 0.1, -1.0 - t.cos() * 0.1], 1usize));
        }
        let mut opt = crate::optim::Sgd::new(0.5);
        let mut params = m.params();
        for _ in 0..60 {
            m.set_params(&params);
            let (_, grad) = m.loss_and_grad(&batch);
            opt.step(&mut params, &grad);
        }
        m.set_params(&params);
        let metrics = m.evaluate(&batch);
        assert!(metrics.accuracy() > 0.95, "accuracy {}", metrics.accuracy());
    }

    #[test]
    fn mf_fits_a_tiny_matrix() {
        let mut m = MatrixFactorization::new(4, 4, 2, 7);
        // Block structure: users 0-1 love items 0-1, users 2-3 love items 2-3.
        let mut batch = Vec::new();
        for u in 0..4usize {
            for i in 0..4usize {
                let r = if (u < 2) == (i < 2) { 5.0 } else { 1.0 };
                batch.push((u, i, r));
            }
        }
        let mut opt = crate::optim::Sgd::new(0.3);
        let mut params = m.params();
        for _ in 0..300 {
            m.set_params(&params);
            let (_, grad) = m.loss_and_grad(&batch);
            opt.step(&mut params, &grad);
        }
        m.set_params(&params);
        let metrics = m.evaluate(&batch);
        assert!(metrics.rmse() < 0.5, "rmse {}", metrics.rmse());
    }

    #[test]
    fn param_roundtrip_all_models() {
        let mut lstm = CharLstm::new(5, 3, 4, 1);
        let p = lstm.params();
        assert_eq!(p.len(), lstm.param_count());
        let mut p2 = p.clone();
        p2[10] += 1.0;
        lstm.set_params(&p2);
        assert_eq!(lstm.params(), p2);

        let mut mf = MatrixFactorization::new(3, 3, 2, 1);
        let p = mf.params();
        assert_eq!(p.len(), 3 * 2 + 3 * 2 + 3 + 3 + 1);
        mf.set_params(&p);
        assert_eq!(mf.params(), p);
    }

    /// A diverged model (NaN parameters, reachable with a large learning
    /// rate alone) is evaluated like any other instead of unwinding inside
    /// an engine worker.
    #[test]
    fn evaluating_a_diverged_model_returns_metrics() {
        let models = [
            (gn_lenet(2, 4, 4, 3, 4, 5), 2 * 4 * 4, 3),
            (leaf_cnn(1, 4, 4, 2, 3, 8, 6), 16, 2),
            (mlp_classifier(6, &[8], 3, 11), 6, 3),
        ];
        for (mut m, features, classes) in models {
            m.set_params(&vec![f32::NAN; m.param_count()]);
            let batch = class_batch(features, classes);
            let metrics = m.evaluate(&batch);
            assert_eq!(metrics.count, batch.len());
            assert!(metrics.correct <= metrics.count);
            let (loss, grad) = m.loss_and_grad(&batch);
            assert!(loss.is_nan());
            assert_eq!(grad.len(), m.param_count());
        }
    }

    /// The first layer's parameters-only backward accumulates the gradients
    /// of the full backward bit for bit, over two passes.
    #[test]
    fn backward_params_accumulates_what_backward_does() {
        use crate::testdata::{bits, salted};
        let models = [
            (gn_lenet(3, 8, 8, 10, 8, 5), vec![3, 8, 8], 10),
            (mlp_classifier(12, &[9, 7], 4, 6), vec![12], 4),
            (leaf_cnn(2, 8, 12, 4, 3, 16, 7), vec![2, 8, 12], 4),
        ];
        for (model, sample, classes) in models {
            let initial = model.params();
            let mut m = model;
            let mut grads = |params_only: bool| {
                m.set_params(&initial);
                m.net.zero_grads();
                let b = 9;
                let mut shape = vec![b];
                shape.extend_from_slice(&sample);
                let len = shape.iter().product();
                for pass in 0..2u64 {
                    let x = Tensor::from_vec(&shape, salted(len, pass + 1));
                    let _ = m.net.forward(x, true);
                    let gy = Tensor::from_vec(&[b, classes], salted(b * classes, pass + 7));
                    if params_only {
                        m.net.backward_params(gy);
                    } else {
                        let _ = m.net.backward(gy);
                    }
                }
                bits(&m.net.grads())
            };
            assert_eq!(grads(true), grads(false));
        }
    }

    /// Five SGD steps and an evaluation of a GN-LeNet and an MLP give the
    /// same parameters, losses and evaluation counters under both kernel
    /// sets.
    #[test]
    fn kernel_sets_train_and_evaluate_alike() {
        use crate::testdata::{bits, salted};
        let run = |mut m: ImageClassifier, features: usize, classes: usize| {
            let x = salted(11 * features, 3);
            let batch: Vec<ClassSample> = x
                .chunks(features)
                .enumerate()
                .map(|(s, x)| (x.to_vec(), s % classes))
                .collect();
            let mut opt = crate::optim::Sgd::new(0.1);
            let mut params = m.params();
            let mut losses = Vec::new();
            for _ in 0..5 {
                m.set_params(&params);
                let (loss, grad) = m.loss_and_grad(&batch[..9]);
                opt.step(&mut params, &grad);
                losses.push(loss.to_bits());
            }
            m.set_params(&params);
            let eval = m.evaluate(&batch);
            (
                bits(&params),
                losses,
                eval.loss_sum.to_bits(),
                eval.count,
                eval.correct,
            )
        };
        let detected = run(gn_lenet(3, 12, 12, 10, 8, 42), 432, 10);
        let portable = crate::simd::portable(|| run(gn_lenet(3, 12, 12, 10, 8, 42), 432, 10));
        assert_eq!(detected, portable);
        let detected = run(mlp_classifier(432, &[64], 10, 42), 432, 10);
        let portable = crate::simd::portable(|| run(mlp_classifier(432, &[64], 10, 42), 432, 10));
        assert_eq!(detected, portable);
    }

    #[test]
    fn classifier_counts_correct_predictions() {
        let mut m = mlp_classifier(2, &[], 2, 3);
        // Fix weights so class 0 wins iff x0 > x1: W = [[1,0],[0,1]], b = 0.
        m.set_params(&[1.0, 0.0, 0.0, 1.0, 0.0, 0.0]);
        let batch = vec![
            (vec![2.0, 0.0], 0usize),
            (vec![0.0, 2.0], 1),
            (vec![2.0, 0.0], 1), // wrong on purpose
        ];
        let metrics = m.evaluate(&batch);
        assert_eq!(metrics.count, 3);
        assert_eq!(metrics.correct, 2);
    }
}
