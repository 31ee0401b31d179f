//! Metropolis–Hastings mixing weights (Xiao & Boyd, 2004).
//!
//! D-PSGD averages neighbour models with a doubly stochastic weight matrix.
//! The Metropolis–Hastings construction needs only local degree information:
//!
//! ```text
//! w_ij = 1 / (1 + max(deg(i), deg(j)))   for {i,j} ∈ E
//! w_ii = 1 − Σ_{j ∈ N(i)} w_ij
//! ```
//!
//! It is symmetric and doubly stochastic on any simple graph, which makes
//! plain gossip averaging converge to the exact global mean — the property
//! the consensus tests in `jwins` rely on.
//!
//! The off-diagonal entries are stored as compressed sparse rows (CSR) in
//! the graph's own row layout: one offsets array and one flat weight array,
//! beside the diagonal.

use crate::Graph;

/// Metropolis–Hastings weights aligned with a graph's adjacency lists, in
/// compressed sparse rows like the [`Graph`] itself: row `v`'s off-diagonal
/// entries are `weights[offsets[v]..offsets[v + 1]]`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetropolisWeights {
    self_weight: Vec<f64>,
    /// `n + 1` row starts into `weights`.
    offsets: Vec<usize>,
    /// `weights[offsets[v] + k]` pairs with `graph.neighbors(v)[k]`.
    weights: Vec<f64>,
}

impl MetropolisWeights {
    /// Computes the weights for `graph`.
    pub fn for_graph(graph: &Graph) -> Self {
        let n = graph.len();
        let mut self_weight = Vec::with_capacity(n);
        let mut offsets = Vec::with_capacity(n + 1);
        let mut weights = Vec::with_capacity(2 * graph.num_edges());
        offsets.push(0);
        for v in 0..n {
            let deg_v = graph.degree(v);
            let mut row_sum = 0.0;
            for &u in graph.neighbors(v) {
                let w = 1.0 / (1.0 + deg_v.max(graph.degree(u)) as f64);
                row_sum += w;
                weights.push(w);
            }
            offsets.push(weights.len());
            self_weight.push(1.0 - row_sum);
        }
        Self {
            self_weight,
            offsets,
            weights,
        }
    }

    /// Number of rows (vertices).
    pub fn len(&self) -> usize {
        self.self_weight.len()
    }

    /// Whether the matrix is empty.
    pub fn is_empty(&self) -> bool {
        self.self_weight.is_empty()
    }

    /// Diagonal entry `w_vv`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn self_weight(&self, v: usize) -> f64 {
        self.self_weight[v]
    }

    /// Off-diagonal entries of row `v`, aligned with the graph's neighbour
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbor_weights(&self, v: usize) -> &[f64] {
        &self.weights[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Applies one gossip-averaging step to a set of per-node scalars:
    /// `x'[v] = w_vv x[v] + Σ w_vu x[u]`. Exposed for tests and spectral
    /// diagnostics.
    pub fn mix_scalars(&self, graph: &Graph, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.len(), "dimension mismatch");
        (0..x.len())
            .map(|v| {
                let mut acc = self.self_weight[v] * x[v];
                for (&u, &w) in graph.neighbors(v).iter().zip(self.neighbor_weights(v)) {
                    acc += w * x[u];
                }
                acc
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use proptest::prelude::*;

    fn check_doubly_stochastic(graph: &Graph, w: &MetropolisWeights) {
        let n = graph.len();
        // Row sums.
        for v in 0..n {
            let sum: f64 = w.self_weight(v) + w.neighbor_weights(v).iter().sum::<f64>();
            assert!((sum - 1.0).abs() < 1e-12, "row {v} sums to {sum}");
            assert!(w.self_weight(v) >= 0.0, "negative diagonal at {v}");
        }
        // Symmetry w_uv == w_vu (implies column sums too).
        for v in 0..n {
            for (k, &u) in graph.neighbors(v).iter().enumerate() {
                let w_vu = w.neighbor_weights(v)[k];
                let pos = graph.neighbors(u).iter().position(|&x| x == v).unwrap();
                let w_uv = w.neighbor_weights(u)[pos];
                assert!((w_vu - w_uv).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn regular_graph_weights() {
        let g = gen::random_regular(12, 4, 3).unwrap();
        let w = MetropolisWeights::for_graph(&g);
        check_doubly_stochastic(&g, &w);
        // On a d-regular graph every off-diagonal weight is 1/(d+1).
        for v in 0..12 {
            for &wv in w.neighbor_weights(v) {
                assert!((wv - 1.0 / 5.0).abs() < 1e-15);
            }
            assert!((w.self_weight(v) - 1.0 / 5.0).abs() < 1e-12);
        }
    }

    #[test]
    fn star_graph_weights() {
        let g = gen::star(5).unwrap();
        let w = MetropolisWeights::for_graph(&g);
        check_doubly_stochastic(&g, &w);
        // Hub: four links of weight 1/5 each, self weight 1/5.
        assert!((w.self_weight(0) - 0.2).abs() < 1e-12);
        // Leaves keep most of their own mass.
        assert!((w.self_weight(1) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn mixing_preserves_mean_and_contracts() {
        let g = gen::random_regular(16, 4, 9).unwrap();
        let w = MetropolisWeights::for_graph(&g);
        let mut x: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let mean = x.iter().sum::<f64>() / 16.0;
        let spread0 = x.iter().map(|v| (v - mean).abs()).fold(0.0, f64::max);
        for _ in 0..60 {
            x = w.mix_scalars(&g, &x);
        }
        let mean_after = x.iter().sum::<f64>() / 16.0;
        assert!((mean - mean_after).abs() < 1e-9, "mean drifted");
        let spread = x.iter().map(|v| (v - mean).abs()).fold(0.0, f64::max);
        assert!(spread < spread0 * 1e-3, "no contraction: {spread}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn doubly_stochastic_on_random_graphs(n in 4usize..40, d in 2usize..5, seed in any::<u64>()) {
            prop_assume!(n * d % 2 == 0 && d < n);
            let g = gen::random_regular(n, d, seed).unwrap();
            let w = MetropolisWeights::for_graph(&g);
            check_doubly_stochastic(&g, &w);
        }

        #[test]
        fn doubly_stochastic_on_irregular_graphs(n in 3usize..30, extra in 0usize..40, seed in any::<u64>()) {
            // Ring plus random chords: irregular degrees.
            let mut edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
            let mut s = seed | 1;
            for _ in 0..extra {
                s ^= s << 13; s ^= s >> 7; s ^= s << 17;
                let a = (s % n as u64) as usize;
                s ^= s << 13; s ^= s >> 7; s ^= s << 17;
                let b = (s % n as u64) as usize;
                if a != b { edges.push((a.min(b), a.max(b))); }
            }
            let g = Graph::from_edges(n, &edges).unwrap();
            let w = MetropolisWeights::for_graph(&g);
            check_doubly_stochastic(&g, &w);
        }
    }
}
