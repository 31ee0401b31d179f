//! Embedding tables and LSTMs for the sequence workload.
//!
//! The Shakespeare next-character task in the paper uses the LEAF model: an
//! embedding layer feeding a two-layer stacked LSTM and a linear decoder.
//! These modules are not [`crate::layers::Layer`]s — their inputs are token
//! ids and sequences rather than dense feature batches — so they expose their
//! own typed forward/backward API and are composed by
//! [`crate::models::CharLstm`].

use crate::init;
use crate::tensor::Tensor;

/// A trainable lookup table mapping token ids to dense vectors.
#[derive(Debug)]
pub struct Embedding {
    vocab: usize,
    dim: usize,
    params: Vec<f32>,
    grads: Vec<f32>,
    cached_ids: Vec<usize>,
}

impl Embedding {
    /// Creates an `N(0, 0.1)`-initialized embedding table.
    pub fn new(vocab: usize, dim: usize, seed: u64) -> Self {
        let params = init::scaled_normal(0.1, vocab * dim, seed);
        Self {
            vocab,
            dim,
            grads: vec![0.0; params.len()],
            params,
            cached_ids: Vec::new(),
        }
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Looks up a flat list of ids, producing `[ids.len(), dim]`.
    ///
    /// # Panics
    ///
    /// Panics if any id is out of vocabulary.
    pub fn forward(&mut self, ids: &[usize]) -> Tensor {
        let mut out = vec![0.0f32; ids.len() * self.dim];
        for (row, &id) in ids.iter().enumerate() {
            assert!(
                id < self.vocab,
                "token id {id} out of vocabulary {}",
                self.vocab
            );
            out[row * self.dim..(row + 1) * self.dim]
                .copy_from_slice(&self.params[id * self.dim..(id + 1) * self.dim]);
        }
        self.cached_ids = ids.to_vec();
        Tensor::from_vec(&[ids.len(), self.dim], out)
    }

    /// Accumulates gradients for the rows used by the last forward.
    pub fn backward(&mut self, grad_out: &Tensor) {
        assert_eq!(grad_out.len(), self.cached_ids.len() * self.dim);
        let gy = grad_out.data();
        for (row, &id) in self.cached_ids.iter().enumerate() {
            let dst = &mut self.grads[id * self.dim..(id + 1) * self.dim];
            let src = &gy[row * self.dim..(row + 1) * self.dim];
            for (d, s) in dst.iter_mut().zip(src) {
                *d += s;
            }
        }
    }

    /// Parameter buffer.
    pub fn params(&self) -> &[f32] {
        &self.params
    }

    /// Mutable parameter buffer.
    pub fn params_mut(&mut self) -> &mut [f32] {
        &mut self.params
    }

    /// Gradient buffer.
    pub fn grads(&self) -> &[f32] {
        &self.grads
    }

    /// Clears gradients.
    pub fn zero_grads(&mut self) {
        self.grads.iter_mut().for_each(|g| *g = 0.0);
    }
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// A single-layer LSTM processing whole sequences with BPTT.
///
/// Parameters pack `[w_ih: 4H×I][w_hh: 4H×H][bias: 4H]` with gate order
/// `input, forget, cell, output`.
#[derive(Debug)]
pub struct Lstm {
    input_size: usize,
    hidden: usize,
    params: Vec<f32>,
    grads: Vec<f32>,
    cache: Option<LstmCache>,
}

#[derive(Debug)]
struct LstmCache {
    batch: usize,
    steps: usize,
    /// `[B, T, I]` inputs.
    x: Vec<f32>,
    /// Gate activations per step: i, f, g, o each `[B, T, H]`.
    gates: Vec<f32>,
    /// Cell states `[B, T+1, H]` (slot 0 is the zero initial state).
    c: Vec<f32>,
    /// Hidden states `[B, T+1, H]`.
    h: Vec<f32>,
}

impl Lstm {
    /// Creates a Xavier-initialized LSTM.
    pub fn new(input_size: usize, hidden: usize, seed: u64) -> Self {
        let wih = init::xavier_uniform(input_size, hidden, 4 * hidden * input_size, seed);
        let whh =
            init::xavier_uniform(hidden, hidden, 4 * hidden * hidden, init::sub_seed(seed, 1));
        let mut params = wih;
        params.reserve_exact(whh.len() + 4 * hidden);
        params.extend(whh);
        // Bias: forget gate initialized to 1 (standard trick for gradient flow).
        let mut bias = vec![0.0f32; 4 * hidden];
        for b in bias.iter_mut().take(2 * hidden).skip(hidden) {
            *b = 1.0;
        }
        params.extend(bias);
        let len = params.len();
        Self {
            input_size,
            hidden,
            params,
            grads: vec![0.0; len],
            cache: None,
        }
    }

    /// Hidden width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    fn split_params(&self) -> (&[f32], &[f32], &[f32]) {
        let wih_len = 4 * self.hidden * self.input_size;
        let whh_len = 4 * self.hidden * self.hidden;
        let (wih, rest) = self.params.split_at(wih_len);
        let (whh, bias) = rest.split_at(whh_len);
        (wih, whh, bias)
    }

    /// Runs the LSTM over `[batch, steps, input]`, returning all hidden
    /// states `[batch, steps, hidden]`. Initial state is zero.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        let [b, t, i]: [usize; 3] = x.shape().try_into().expect("expects [b,t,i]");
        assert_eq!(i, self.input_size, "input width mismatch");
        let hsz = self.hidden;
        let (wih, whh, bias) = self.split_params();
        let xv = x.data();
        let mut gates = vec![0.0f32; b * t * 4 * hsz];
        let mut c = vec![0.0f32; b * (t + 1) * hsz];
        let mut h = vec![0.0f32; b * (t + 1) * hsz];
        for bi in 0..b {
            for step in 0..t {
                let xt = &xv[(bi * t + step) * i..(bi * t + step + 1) * i];
                let hprev =
                    h[(bi * (t + 1) + step) * hsz..(bi * (t + 1) + step + 1) * hsz].to_vec();
                let cprev =
                    c[(bi * (t + 1) + step) * hsz..(bi * (t + 1) + step + 1) * hsz].to_vec();
                let gt = &mut gates[(bi * t + step) * 4 * hsz..(bi * t + step + 1) * 4 * hsz];
                // z = W_ih x + W_hh h_prev + b
                for (row, g) in gt.iter_mut().enumerate() {
                    let mut acc = bias[row];
                    let wrow = &wih[row * i..(row + 1) * i];
                    for (xj, wj) in xt.iter().zip(wrow) {
                        acc += xj * wj;
                    }
                    let hrow = &whh[row * hsz..(row + 1) * hsz];
                    for (hj, wj) in hprev.iter().zip(hrow) {
                        acc += hj * wj;
                    }
                    *g = acc;
                }
                // Activations in place: i, f, o are sigmoids; g is tanh.
                for k in 0..hsz {
                    gt[k] = sigmoid(gt[k]);
                    gt[hsz + k] = sigmoid(gt[hsz + k]);
                    gt[2 * hsz + k] = gt[2 * hsz + k].tanh();
                    gt[3 * hsz + k] = sigmoid(gt[3 * hsz + k]);
                }
                let hnext_base = (bi * (t + 1) + step + 1) * hsz;
                for k in 0..hsz {
                    let ct = gt[hsz + k] * cprev[k] + gt[k] * gt[2 * hsz + k];
                    c[hnext_base + k] = ct;
                    h[hnext_base + k] = gt[3 * hsz + k] * ct.tanh();
                }
            }
        }
        // Collect outputs [b, t, h] from h[:, 1.., :].
        let mut out = vec![0.0f32; b * t * hsz];
        for bi in 0..b {
            for step in 0..t {
                out[(bi * t + step) * hsz..(bi * t + step + 1) * hsz].copy_from_slice(
                    &h[(bi * (t + 1) + step + 1) * hsz..(bi * (t + 1) + step + 2) * hsz],
                );
            }
        }
        self.cache = Some(LstmCache {
            batch: b,
            steps: t,
            x: xv.to_vec(),
            gates,
            c,
            h,
        });
        Tensor::from_vec(&[b, t, hsz], out)
    }

    /// BPTT through the cached forward. Returns the gradient w.r.t. the
    /// input `[batch, steps, input]`.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward` or with a mismatched shape.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = self.cache.take().expect("backward before forward");
        let (b, t) = (cache.batch, cache.steps);
        let hsz = self.hidden;
        let isz = self.input_size;
        assert_eq!(grad_out.len(), b * t * hsz);
        let gy = grad_out.data();
        let wih_len = 4 * hsz * isz;
        let whh_len = 4 * hsz * hsz;
        let wih: Vec<f32> = self.params[..wih_len].to_vec();
        let whh: Vec<f32> = self.params[wih_len..wih_len + whh_len].to_vec();
        let mut gx = vec![0.0f32; b * t * isz];
        {
            let (gwih, rest) = self.grads.split_at_mut(wih_len);
            let (gwhh, gbias) = rest.split_at_mut(whh_len);
            for bi in 0..b {
                let mut dh_next = vec![0.0f32; hsz];
                let mut dc_next = vec![0.0f32; hsz];
                for step in (0..t).rev() {
                    let gt = &cache.gates[(bi * t + step) * 4 * hsz..(bi * t + step + 1) * 4 * hsz];
                    let c_t =
                        &cache.c[(bi * (t + 1) + step + 1) * hsz..(bi * (t + 1) + step + 2) * hsz];
                    let c_prev =
                        &cache.c[(bi * (t + 1) + step) * hsz..(bi * (t + 1) + step + 1) * hsz];
                    let h_prev =
                        &cache.h[(bi * (t + 1) + step) * hsz..(bi * (t + 1) + step + 1) * hsz];
                    let xt = &cache.x[(bi * t + step) * isz..(bi * t + step + 1) * isz];
                    let mut dz = vec![0.0f32; 4 * hsz];
                    for k in 0..hsz {
                        let dh = gy[(bi * t + step) * hsz + k] + dh_next[k];
                        let (ig, fg, gg, og) =
                            (gt[k], gt[hsz + k], gt[2 * hsz + k], gt[3 * hsz + k]);
                        let tc = c_t[k].tanh();
                        let dc = dc_next[k] + dh * og * (1.0 - tc * tc);
                        dz[k] = dc * gg * ig * (1.0 - ig); // input gate
                        dz[hsz + k] = dc * c_prev[k] * fg * (1.0 - fg); // forget gate
                        dz[2 * hsz + k] = dc * ig * (1.0 - gg * gg); // cell candidate
                        dz[3 * hsz + k] = dh * tc * og * (1.0 - og); // output gate
                        dc_next[k] = dc * fg;
                    }
                    // Parameter gradients and upstream gradients.
                    let gxt = &mut gx[(bi * t + step) * isz..(bi * t + step + 1) * isz];
                    dh_next.iter_mut().for_each(|v| *v = 0.0);
                    for (row, &dzr) in dz.iter().enumerate() {
                        gbias[row] += dzr;
                        if dzr == 0.0 {
                            continue;
                        }
                        let gw_row = &mut gwih[row * isz..(row + 1) * isz];
                        let w_row = &wih[row * isz..(row + 1) * isz];
                        for j in 0..isz {
                            gw_row[j] += dzr * xt[j];
                            gxt[j] += dzr * w_row[j];
                        }
                        let gwh_row = &mut gwhh[row * hsz..(row + 1) * hsz];
                        let wh_row = &whh[row * hsz..(row + 1) * hsz];
                        for j in 0..hsz {
                            gwh_row[j] += dzr * h_prev[j];
                            dh_next[j] += dzr * wh_row[j];
                        }
                    }
                }
            }
        }
        Tensor::from_vec(&[b, t, isz], gx)
    }

    /// Parameter buffer.
    pub fn params(&self) -> &[f32] {
        &self.params
    }

    /// Mutable parameter buffer.
    pub fn params_mut(&mut self) -> &mut [f32] {
        &mut self.params
    }

    /// Gradient buffer.
    pub fn grads(&self) -> &[f32] {
        &self.grads
    }

    /// Clears gradients.
    pub fn zero_grads(&mut self) {
        self.grads.iter_mut().for_each(|g| *g = 0.0);
    }
}

impl Embedding {
    /// Matrix shape of the embedding table, `(vocab, dim)` — feeds
    /// per-layer low-rank compressors.
    pub fn param_segments(&self) -> Vec<(usize, usize)> {
        vec![(self.vocab, self.dim)]
    }
}

impl Lstm {
    /// Matrix shapes of the parameter blocks: `[W_ih: 4H×I][W_hh: 4H×H]
    /// [bias: 4H×1]` — feeds per-layer low-rank compressors.
    pub fn param_segments(&self) -> Vec<(usize, usize)> {
        vec![
            (4 * self.hidden, self.input_size),
            (4 * self.hidden, self.hidden),
            (4 * self.hidden, 1),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedding_lookup_and_grad() {
        let mut emb = Embedding::new(5, 3, 0);
        let out = emb.forward(&[2, 2, 4]);
        assert_eq!(out.shape(), &[3, 3]);
        assert_eq!(out.data()[0..3], emb.params()[6..9]);
        let g = Tensor::from_vec(&[3, 3], vec![1.0; 9]);
        emb.backward(&g);
        // Row 2 was used twice: gradient 2.0 per slot; row 4 once.
        assert_eq!(&emb.grads()[6..9], &[2.0, 2.0, 2.0]);
        assert_eq!(&emb.grads()[12..15], &[1.0, 1.0, 1.0]);
        assert_eq!(&emb.grads()[0..3], &[0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn embedding_rejects_oov() {
        let mut emb = Embedding::new(3, 2, 0);
        let _ = emb.forward(&[3]);
    }

    #[test]
    fn lstm_shapes_and_determinism() {
        let mut lstm = Lstm::new(4, 6, 9);
        let x = Tensor::from_vec(&[2, 3, 4], (0..24).map(|i| i as f32 * 0.1).collect());
        let y1 = lstm.forward(&x);
        assert_eq!(y1.shape(), &[2, 3, 6]);
        let y2 = lstm.forward(&x);
        assert_eq!(y1, y2);
    }

    #[test]
    fn lstm_hidden_states_are_bounded() {
        // h = o · tanh(c): |h| <= 1 regardless of input scale.
        let mut lstm = Lstm::new(2, 4, 3);
        let x = Tensor::from_vec(&[1, 5, 2], vec![100.0; 10]);
        let y = lstm.forward(&x);
        for &v in y.data() {
            assert!(v.abs() <= 1.0 + 1e-6);
        }
    }

    #[test]
    fn lstm_carries_state_across_steps() {
        // With a nonzero input only at t=0, later outputs must still move
        // (memory), i.e. differ from the all-zero-input run.
        let mut lstm = Lstm::new(1, 3, 5);
        let ximp = Tensor::from_vec(&[1, 4, 1], vec![5.0, 0.0, 0.0, 0.0]);
        let yimp = lstm.forward(&ximp).into_vec();
        let xzero = Tensor::from_vec(&[1, 4, 1], vec![0.0; 4]);
        let yzero = lstm.forward(&xzero).into_vec();
        let last_diff: f32 = yimp[9..12]
            .iter()
            .zip(&yzero[9..12])
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(last_diff > 1e-4, "state did not propagate: {last_diff}");
    }

    #[test]
    fn lstm_backward_produces_full_grads() {
        let mut lstm = Lstm::new(3, 4, 1);
        let x = Tensor::from_vec(
            &[2, 2, 3],
            (0..12).map(|i| (i as f32 - 6.0) * 0.2).collect(),
        );
        let y = lstm.forward(&x);
        let gx = lstm.backward(&Tensor::from_vec(y.shape(), vec![1.0; y.len()]));
        assert_eq!(gx.shape(), &[2, 2, 3]);
        let nonzero = lstm.grads().iter().filter(|g| **g != 0.0).count();
        assert!(nonzero > lstm.grads().len() / 2, "too many zero grads");
    }
}
