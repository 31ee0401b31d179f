//! Loss functions: softmax cross-entropy and mean squared error.
//!
//! Classification tasks (CIFAR/FEMNIST/CelebA/Shakespeare analogues) use
//! cross-entropy; the MovieLens-style matrix factorization uses MSE. Both
//! return the mean loss over the batch together with the gradient w.r.t. the
//! predictions, already divided by the batch size so optimizer steps are
//! batch-size invariant.

use crate::tensor::Tensor;

/// One row's stabilizer and partition sum: `(max, Σ_k exp(row[k] − max))`.
fn partition(row: &[f32]) -> (f32, f64) {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut denom = 0.0f64;
    for &v in row {
        denom += f64::from(v - max).exp();
    }
    (max, denom)
}

/// Sum of the per-row losses `ln Σ_k exp(x_k) − x_target`, with each row's
/// `(max, partition sum)` handed to `each_row`.
fn cross_entropy_sum(
    logits: &Tensor,
    targets: &[usize],
    mut each_row: impl FnMut(usize, f32, f64),
) -> f64 {
    let [b, c]: [usize; 2] = logits.shape().try_into().expect("expects [batch, classes]");
    assert_eq!(targets.len(), b, "one target per sample");
    let mut loss = 0.0f64;
    for (s, &target) in targets.iter().enumerate() {
        assert!(target < c, "target {target} out of {c} classes");
        let row = &logits.data()[s * c..(s + 1) * c];
        let (max, denom) = partition(row);
        loss += denom.ln() - f64::from(row[target] - max);
        each_row(s, max, denom);
    }
    loss
}

/// Numerically stable mean softmax cross-entropy.
///
/// `logits` is `[batch, classes]`; `targets[b]` is the class index of sample
/// `b`. Returns `(mean_loss, grad)` with `grad = (softmax - onehot) / batch`.
///
/// # Panics
///
/// Panics on shape mismatch or out-of-range targets.
pub fn softmax_cross_entropy(logits: &Tensor, targets: &[usize]) -> (f32, Tensor) {
    let [b, c]: [usize; 2] = logits.shape().try_into().expect("expects [batch, classes]");
    let x = logits.data();
    let mut grad = vec![0.0f32; x.len()];
    let loss = cross_entropy_sum(logits, targets, |s, max, denom| {
        let row = &x[s * c..(s + 1) * c];
        let grow = &mut grad[s * c..(s + 1) * c];
        for (k, g) in grow.iter_mut().enumerate() {
            let p = (f64::from(row[k] - max).exp() / denom) as f32;
            *g = (p - if k == targets[s] { 1.0 } else { 0.0 }) / b as f32;
        }
    });
    ((loss / b as f64) as f32, Tensor::from_vec(&[b, c], grad))
}

/// The mean loss of [`softmax_cross_entropy`] without its gradient — what
/// evaluation needs.
///
/// # Panics
///
/// Panics on shape mismatch or out-of-range targets.
pub fn cross_entropy(logits: &Tensor, targets: &[usize]) -> f32 {
    (cross_entropy_sum(logits, targets, |_, _, _| {}) / targets.len() as f64) as f32
}

/// Softmax probabilities of a logit matrix (used for evaluation).
pub fn softmax(logits: &Tensor) -> Tensor {
    let [b, c]: [usize; 2] = logits.shape().try_into().expect("expects [batch, classes]");
    let x = logits.data();
    let mut out = vec![0.0f32; x.len()];
    for s in 0..b {
        let row = &x[s * c..(s + 1) * c];
        let (max, denom) = partition(row);
        for (k, o) in out[s * c..(s + 1) * c].iter_mut().enumerate() {
            *o = (f64::from(row[k] - max).exp() / denom) as f32;
        }
    }
    Tensor::from_vec(&[b, c], out)
}

/// Index of the largest logit per row; among equal maxima, the last.
///
/// Total: a diverged model's NaN logits never compare as the maximum, and a
/// row of nothing but NaN predicts the last class — a wrong answer to count
/// like any other, where the loss of that row is NaN already.
///
/// # Panics
///
/// Panics if the rows are empty.
pub fn argmax_rows(logits: &Tensor) -> Vec<usize> {
    let [_, c]: [usize; 2] = logits.shape().try_into().expect("expects [batch, classes]");
    assert!(c > 0, "nonzero class count");
    logits
        .data()
        .chunks_exact(c)
        .map(|row| {
            (1..c).fold(0, |best, i| {
                if row[i] >= row[best] || row[best].is_nan() {
                    i
                } else {
                    best
                }
            })
        })
        .collect()
}

/// Mean squared error: returns `(mean_loss, grad)` with
/// `grad = 2 (pred - target) / n`.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
pub fn mse(pred: &[f32], target: &[f32]) -> (f32, Vec<f32>) {
    assert_eq!(pred.len(), target.len(), "length mismatch");
    assert!(!pred.is_empty(), "empty batch");
    let n = pred.len() as f64;
    let mut loss = 0.0f64;
    let grad: Vec<f32> = pred
        .iter()
        .zip(target)
        .map(|(&p, &t)| {
            let d = f64::from(p) - f64::from(t);
            loss += d * d;
            (2.0 * d / n) as f32
        })
        .collect();
    ((loss / n) as f32, grad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_logits_give_log_c() {
        let logits = Tensor::zeros(&[2, 4]);
        let (loss, grad) = softmax_cross_entropy(&logits, &[0, 3]);
        assert!((loss - (4.0f32).ln()).abs() < 1e-6);
        // Gradient rows sum to zero.
        for row in grad.data().chunks(4) {
            let s: f32 = row.iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn confident_correct_prediction_has_small_loss() {
        let logits = Tensor::from_vec(&[1, 3], vec![10.0, -10.0, -10.0]);
        let (loss, _) = softmax_cross_entropy(&logits, &[0]);
        assert!(loss < 1e-6);
        let (loss_wrong, _) = softmax_cross_entropy(&logits, &[1]);
        assert!(loss_wrong > 10.0);
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_difference() {
        let base = vec![0.3f32, -0.7, 1.2, 0.1, 0.9, -0.2];
        let targets = [2usize, 0];
        let (_, grad) = softmax_cross_entropy(&Tensor::from_vec(&[2, 3], base.clone()), &targets);
        let eps = 1e-3f32;
        for i in 0..base.len() {
            let mut plus = base.clone();
            plus[i] += eps;
            let mut minus = base.clone();
            minus[i] -= eps;
            let (lp, _) = softmax_cross_entropy(&Tensor::from_vec(&[2, 3], plus), &targets);
            let (lm, _) = softmax_cross_entropy(&Tensor::from_vec(&[2, 3], minus), &targets);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - grad.data()[i]).abs() < 1e-3,
                "coord {i}: numeric {numeric} vs analytic {}",
                grad.data()[i]
            );
        }
    }

    #[test]
    fn loss_without_gradient_is_the_same_float() {
        let logits = Tensor::from_vec(&[2, 3], vec![0.3, -0.7, 1.2, 0.1, 0.9, -0.2]);
        let (loss, _) = softmax_cross_entropy(&logits, &[2, 0]);
        assert_eq!(cross_entropy(&logits, &[2, 0]).to_bits(), loss.to_bits());
    }

    #[test]
    fn stability_under_huge_logits() {
        let logits = Tensor::from_vec(&[1, 2], vec![1e4, -1e4]);
        let (loss, grad) = softmax_cross_entropy(&logits, &[0]);
        assert!(loss.is_finite());
        assert!(grad.data().iter().all(|g| g.is_finite()));
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let logits = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        let p = softmax(&logits);
        for row in p.data().chunks(3) {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn argmax_picks_largest() {
        let logits = Tensor::from_vec(&[2, 3], vec![1.0, 5.0, 3.0, -1.0, -2.0, -0.5]);
        assert_eq!(argmax_rows(&logits), vec![1, 2]);
    }

    #[test]
    fn argmax_ties_go_to_the_last_maximum_and_signed_zeros_tie() {
        let logits = Tensor::from_vec(
            &[3, 3],
            vec![2.0, 2.0, 1.0, 0.0, -0.0, -1.0, -0.0, 0.0, -1.0],
        );
        assert_eq!(argmax_rows(&logits), vec![1, 1, 1]);
    }

    #[test]
    fn argmax_is_total_over_nan() {
        let nan = f32::NAN;
        let rows = vec![
            nan, 1.0, 3.0, 3.0, // NaN first: ignored
            1.0, 5.0, nan, 2.0, // NaN after the maximum
            1.0, nan, 4.0, nan, // NaN on both sides
            nan, nan, nan, nan, // nothing to compare
        ];
        let logits = Tensor::from_vec(&[4, 4], rows);
        assert_eq!(argmax_rows(&logits), vec![3, 1, 2, 3]);
        // The loss of the same rows is NaN, not a panic.
        let (loss, _) = softmax_cross_entropy(&logits, &[0, 1, 2, 3]);
        assert!(loss.is_nan());
    }

    #[test]
    fn mse_known_value_and_gradient() {
        let (loss, grad) = mse(&[1.0, 2.0], &[0.0, 4.0]);
        assert!((loss - 2.5).abs() < 1e-6); // (1 + 4) / 2
        assert_eq!(grad, vec![1.0, -2.0]); // 2d/n
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mse_rejects_mismatch() {
        let _ = mse(&[1.0], &[1.0, 2.0]);
    }
}
