//! The flat-parameter-vector model interface.
//!
//! Decentralized learning algorithms in this reproduction never look inside a
//! model: they read and write a flat `f32` parameter vector, ask for a loss
//! gradient on a local mini-batch, and evaluate held-out metrics. This
//! mirrors the paper's design ("JWINS considers models as flat vectors of
//! parameters", §IV-G) and keeps the sparsifiers architecture-agnostic.

/// Aggregated evaluation counters, mergeable across batches and nodes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EvalMetrics {
    /// Sum of per-sample losses.
    pub loss_sum: f64,
    /// Number of samples evaluated.
    pub count: usize,
    /// Correct top-1 predictions (classification tasks; 0 otherwise).
    pub correct: usize,
    /// Sum of squared errors (regression tasks; 0 otherwise).
    pub sq_err_sum: f64,
}

impl EvalMetrics {
    /// Mean loss per sample.
    pub fn mean_loss(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.loss_sum / self.count as f64
        }
    }

    /// Top-1 accuracy in `[0, 1]`.
    pub fn accuracy(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.correct as f64 / self.count as f64
        }
    }

    /// Root mean squared error.
    pub fn rmse(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (self.sq_err_sum / self.count as f64).sqrt()
        }
    }

    /// Combines counters from another batch/node.
    pub fn merge(&mut self, other: &EvalMetrics) {
        self.loss_sum += other.loss_sum;
        self.count += other.count;
        self.correct += other.correct;
        self.sq_err_sum += other.sq_err_sum;
    }
}

/// A trainable model exposed as a flat parameter vector.
///
/// Implementations cache activations internally, hence `&mut self` on the
/// compute methods. `loss_and_grad` must be a deterministic function of
/// `(params, batch)` — the finite-difference checker in [`crate::gradcheck`]
/// relies on it.
///
/// # An instance is a workspace, not a node
///
/// What [`Self::loss_and_grad`] and [`Self::evaluate`] return may depend
/// only on the value last given to [`Self::set_params`] and on the batch —
/// never on earlier calls, and never on which instance is asked. Anything a
/// node must remember from one call to the next (its weights, and for a
/// model with running statistics those too) therefore lives in its flat
/// vector. Instances of one architecture are interchangeable, and callers
/// rely on it: the training engine reads [`Self::params`] once from every
/// model it is handed, keeps only as many instances as it has worker
/// threads, and loads a node's parameters into whichever one is at hand
/// before each use. A wrapper that counts or times calls (a decorator)
/// keeps working unedited; its per-instance label then names a worker's
/// workspace, not a node.
pub trait Model: Send {
    /// One training/evaluation example.
    type Sample: Clone + Send + Sync;

    /// Number of trainable parameters (`d` in the paper).
    fn param_count(&self) -> usize;

    /// Copies the parameters into a fresh flat vector.
    fn params(&self) -> Vec<f32>;

    /// Overwrites all parameters from a flat vector.
    ///
    /// # Panics
    ///
    /// Implementations panic if `flat.len() != self.param_count()`.
    fn set_params(&mut self, flat: &[f32]);

    /// Computes the mean loss over `batch` and its gradient w.r.t. the
    /// parameters (same layout as [`Self::params`]).
    fn loss_and_grad(&mut self, batch: &[Self::Sample]) -> (f32, Vec<f32>);

    /// Evaluates `batch` without touching gradients.
    fn evaluate(&mut self, batch: &[Self::Sample]) -> EvalMetrics;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_aggregate() {
        let mut a = EvalMetrics {
            loss_sum: 2.0,
            count: 4,
            correct: 3,
            sq_err_sum: 8.0,
        };
        let b = EvalMetrics {
            loss_sum: 6.0,
            count: 4,
            correct: 1,
            sq_err_sum: 0.0,
        };
        a.merge(&b);
        assert_eq!(a.count, 8);
        assert!((a.mean_loss() - 1.0).abs() < 1e-12);
        assert!((a.accuracy() - 0.5).abs() < 1e-12);
        assert!((a.rmse() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_metrics_are_safe() {
        let m = EvalMetrics::default();
        assert_eq!(m.mean_loss(), 0.0);
        assert_eq!(m.accuracy(), 0.0);
        assert_eq!(m.rmse(), 0.0);
    }
}
