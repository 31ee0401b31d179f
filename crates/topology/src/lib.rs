//! Communication topologies for decentralized learning.
//!
//! The JWINS evaluation connects its 96–384 nodes in random `d`-regular
//! graphs (d = 4 for 96 nodes, 5 for 192/288, 6 for 384 — paper §IV-B/F) and
//! aggregates with Metropolis–Hastings weights (Xiao & Boyd). Figure 7
//! additionally re-randomizes the neighbourhood every round ("dynamic
//! topology"), which improves mixing for full-sharing and JWINS but breaks
//! CHOCO-SGD's error-feedback state.
//!
//! - [`Graph`]: simple undirected graph with validated invariants, stored
//!   as compressed sparse rows (one offsets array, one flat neighbour
//!   array).
//! - [`gen`]: generators — random regular, ring, full, star, torus.
//! - [`weights`]: Metropolis–Hastings doubly stochastic mixing matrices,
//!   in the same rows (one offsets array, one flat weight array).
//! - [`dynamic`]: static and per-round re-randomized topology providers.
//! - [`peer_sampling`]: Cyclon-style partial-view peer sampling (the
//!   "peer-sampling services" future-work direction of §V).
//! - [`repair`]: liveness-aware topology repair — deterministic, seeded
//!   re-wiring of survivors around crashed nodes ([`repair::RepairPolicy`]).
//!
//! # Example
//!
//! ```
//! use jwins_topology::{gen, weights::MetropolisWeights};
//!
//! # fn main() -> Result<(), jwins_topology::TopologyError> {
//! let graph = gen::random_regular(96, 4, 7)?;
//! assert!(graph.is_connected());
//! let w = MetropolisWeights::for_graph(&graph);
//! assert!((w.self_weight(0) + w.neighbor_weights(0).iter().sum::<f64>() - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]
#![warn(clippy::too_many_lines)]

pub mod dynamic;
pub mod gen;
pub mod peer_sampling;
pub mod repair;
pub mod weights;

pub use repair::{LiveSet, RepairPolicy};

use std::error::Error;
use std::fmt;

/// Errors from graph construction.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TopologyError {
    /// `n * d` must be even and `d < n` for a `d`-regular graph to exist.
    InfeasibleRegular {
        /// Number of vertices requested.
        nodes: usize,
        /// Degree requested.
        degree: usize,
    },
    /// The pairing model failed to produce a simple connected graph after
    /// the attempt budget (astronomically unlikely for sane `n`, `d`).
    GenerationFailed,
    /// An edge references a vertex outside `0..n`.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: usize,
        /// Number of vertices in the graph.
        nodes: usize,
    },
    /// Self-loops are not allowed.
    SelfLoop(usize),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::InfeasibleRegular { nodes, degree } => {
                write!(f, "no {degree}-regular graph on {nodes} vertices exists")
            }
            TopologyError::GenerationFailed => {
                write!(f, "failed to generate a simple connected regular graph")
            }
            TopologyError::VertexOutOfRange { vertex, nodes } => {
                write!(f, "vertex {vertex} out of range for {nodes}-vertex graph")
            }
            TopologyError::SelfLoop(v) => write!(f, "self-loop at vertex {v}"),
        }
    }
}

impl Error for TopologyError {}

/// A simple undirected graph: no self-loops, no parallel edges, symmetric
/// adjacency. Vertices are `0..n`.
///
/// Stored in compressed sparse rows (CSR): vertex `v`'s sorted neighbours
/// are `neighbors[offsets[v]..offsets[v + 1]]`, so a graph is three
/// allocations whatever its size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    /// `n + 1` row starts into `neighbors`; `offsets[n]` is its length.
    offsets: Vec<usize>,
    /// Every row's sorted neighbours, row after row.
    neighbors: Vec<usize>,
}

impl Graph {
    /// Builds a graph on `n` vertices from an edge list. Duplicate edges are
    /// collapsed.
    ///
    /// # Errors
    ///
    /// Rejects out-of-range vertices and self-loops (the first bad edge in
    /// list order).
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Result<Self, TopologyError> {
        // Row `v` first gets room for every listed edge at `v`, duplicates
        // included: `cursor[v]` counts them, then serves as the row's fill
        // cursor.
        let mut cursor = vec![0usize; n];
        for &(a, b) in edges {
            for vertex in [a, b] {
                if vertex >= n {
                    return Err(TopologyError::VertexOutOfRange { vertex, nodes: n });
                }
            }
            if a == b {
                return Err(TopologyError::SelfLoop(a));
            }
            cursor[a] += 1;
            cursor[b] += 1;
        }
        let mut offsets = vec![0usize; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + cursor[v];
            cursor[v] = offsets[v];
        }
        let mut neighbors = vec![0usize; offsets[n]];
        for &(a, b) in edges {
            neighbors[cursor[a]] = b;
            cursor[a] += 1;
            neighbors[cursor[b]] = a;
            cursor[b] += 1;
        }
        // Sort and dedup each row, compacting the rows towards the front:
        // a row's write cursor never passes its read cursor.
        let mut kept = 0;
        for v in 0..n {
            let row = offsets[v]..offsets[v + 1];
            offsets[v] = kept;
            neighbors[row.clone()].sort_unstable();
            for k in row {
                let u = neighbors[k];
                if kept == offsets[v] || neighbors[kept - 1] != u {
                    neighbors[kept] = u;
                    kept += 1;
                }
            }
        }
        offsets[n] = kept;
        neighbors.truncate(kept);
        neighbors.shrink_to_fit();
        Ok(Self { offsets, neighbors })
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sorted neighbour list of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= self.len()`.
    pub fn neighbors(&self, v: usize) -> &[usize] {
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= self.len()`.
    pub fn degree(&self, v: usize) -> usize {
        self.neighbors(v).len()
    }

    /// Total number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Whether the undirected edge `{a, b}` exists.
    ///
    /// # Panics
    ///
    /// Panics if `a >= self.len()`.
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Iterates over each undirected edge once, as `(low, high)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.len()).flat_map(move |a| {
            self.neighbors(a)
                .iter()
                .filter(move |&&b| a < b)
                .map(move |&b| (a, b))
        })
    }

    /// Whether every vertex can reach every other (BFS). Empty and
    /// single-vertex graphs count as connected.
    pub fn is_connected(&self) -> bool {
        let n = self.len();
        if n <= 1 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut queue = std::collections::VecDeque::from([0usize]);
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = queue.pop_front() {
            for &u in self.neighbors(v) {
                if !seen[u] {
                    seen[u] = true;
                    count += 1;
                    queue.push_back(u);
                }
            }
        }
        count == n
    }

    /// Whether every vertex with `include[v] == true` can reach every other
    /// included vertex through included vertices only — connectivity of the
    /// induced subgraph. Zero or one included vertices count as connected.
    /// Used by the repair layer, where crashed nodes sit isolated in the
    /// full graph but must not count against survivor connectivity.
    ///
    /// # Panics
    ///
    /// Panics if `include.len() != self.len()`.
    pub fn is_connected_among(&self, include: &[bool]) -> bool {
        assert_eq!(include.len(), self.len(), "include mask length mismatch");
        let total = include.iter().filter(|&&k| k).count();
        if total <= 1 {
            return true;
        }
        let start = include.iter().position(|&k| k).expect("total >= 1");
        let mut seen = vec![false; self.len()];
        let mut queue = std::collections::VecDeque::from([start]);
        seen[start] = true;
        let mut count = 1;
        while let Some(v) = queue.pop_front() {
            for &u in self.neighbors(v) {
                if include[u] && !seen[u] {
                    seen[u] = true;
                    count += 1;
                    queue.push_back(u);
                }
            }
        }
        count == total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights::MetropolisWeights;
    use proptest::prelude::*;

    #[test]
    fn from_edges_basic() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        assert_eq!(g.len(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors(0), &[1, 3]);
        assert!(g.is_connected());
    }

    #[test]
    fn duplicates_collapse() {
        let g = Graph::from_edges(2, &[(0, 1), (1, 0), (0, 1)]).unwrap();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn invalid_edges_rejected() {
        assert_eq!(
            Graph::from_edges(2, &[(0, 2)]),
            Err(TopologyError::VertexOutOfRange {
                vertex: 2,
                nodes: 2
            })
        );
        assert_eq!(
            Graph::from_edges(2, &[(1, 1)]),
            Err(TopologyError::SelfLoop(1))
        );
    }

    #[test]
    fn disconnected_detected() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(!g.is_connected());
    }

    #[test]
    fn edge_iterator_visits_each_once() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (1, 2), (3, 4)]).unwrap();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2), (3, 4)]);
    }

    #[test]
    fn has_edge_checks_membership() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert!(!g.has_edge(0, 0));
    }

    #[test]
    fn induced_connectivity_ignores_excluded_vertices() {
        // 0-1-2 path plus isolated 3: full graph disconnected, but the
        // subgraph without 3 is connected.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2)]).unwrap();
        assert!(!g.is_connected());
        assert!(g.is_connected_among(&[true, true, true, false]));
        // Excluding the middle of the path disconnects the ends.
        assert!(!g.is_connected_among(&[true, false, true, false]));
        // Degenerate masks are connected.
        assert!(g.is_connected_among(&[false, false, false, true]));
        assert!(g.is_connected_among(&[false; 4]));
    }

    #[test]
    fn trivial_graphs_connected() {
        assert!(Graph::from_edges(0, &[]).unwrap().is_connected());
        assert!(Graph::from_edges(1, &[]).unwrap().is_connected());
        assert!(!Graph::from_edges(2, &[]).unwrap().is_connected());
    }

    /// The nested-list adjacency `Graph` was stored as before it became
    /// CSR, built the way it was built: the oracle for the flat layout.
    fn nested(n: usize, edges: &[(usize, usize)]) -> Result<Vec<Vec<usize>>, TopologyError> {
        let mut adj = vec![Vec::new(); n];
        for &(a, b) in edges {
            if a >= n {
                return Err(TopologyError::VertexOutOfRange {
                    vertex: a,
                    nodes: n,
                });
            }
            if b >= n {
                return Err(TopologyError::VertexOutOfRange {
                    vertex: b,
                    nodes: n,
                });
            }
            if a == b {
                return Err(TopologyError::SelfLoop(a));
            }
            adj[a].push(b);
            adj[b].push(a);
        }
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
        }
        Ok(adj)
    }

    /// Vertices reachable from the first included one through included
    /// ones, by depth-first search over the nested lists, against the
    /// number included.
    fn nested_connected_among(adj: &[Vec<usize>], include: &[bool]) -> bool {
        let total = include.iter().filter(|&&k| k).count();
        let Some(start) = include.iter().position(|&k| k) else {
            return true;
        };
        let mut seen = vec![false; adj.len()];
        let mut stack = vec![start];
        seen[start] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for &u in &adj[v] {
                if include[u] && !seen[u] {
                    seen[u] = true;
                    count += 1;
                    stack.push(u);
                }
            }
        }
        count == total
    }

    /// The nested rows' Metropolis–Hastings weights, computed as they were
    /// when each row was its own vector.
    fn nested_weights(adj: &[Vec<usize>]) -> Vec<(f64, Vec<f64>)> {
        adj.iter()
            .map(|row| {
                let mut row_sum = 0.0;
                let weights: Vec<f64> = row
                    .iter()
                    .map(|&u| {
                        let w = 1.0 / (1.0 + row.len().max(adj[u].len()) as f64);
                        row_sum += w;
                        w
                    })
                    .collect();
                (1.0 - row_sum, weights)
            })
            .collect()
    }

    /// An edge list over `n` vertices from raw draws — duplicates and both
    /// orientations included, self-loops dropped — with, if `stray.0`, one
    /// arbitrary edge spliced in at `stray.1`: it may be out of range or a
    /// self-loop.
    fn edge_list(n: usize, raw: &[(u8, u8)], stray: (bool, u8, u8, u8)) -> Vec<(usize, usize)> {
        let vertex = |x: u8| usize::from(x) % n.max(1);
        let mut edges: Vec<(usize, usize)> = raw
            .iter()
            .map(|&(a, b)| (vertex(a), vertex(b)))
            .filter(|(a, b)| a != b)
            .collect();
        let (splice, at, a, b) = stray;
        if splice {
            let stray = |x: u8| usize::from(x) % (n + 3);
            edges.insert(usize::from(at) % (edges.len() + 1), (stray(a), stray(b)));
        }
        edges
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn from_edges_matches_the_nested_oracle(
            n in 0usize..12,
            raw in collection::vec((any::<u8>(), any::<u8>()), 0..40),
            stray in (any::<bool>(), any::<u8>(), any::<u8>(), any::<u8>()),
            mask in any::<u16>(),
        ) {
            let edges = edge_list(n, &raw, stray);
            let graph = Graph::from_edges(n, &edges);
            let adj = match nested(n, &edges) {
                Err(e) => {
                    prop_assert_eq!(graph, Err(e));
                    return;
                }
                Ok(adj) => adj,
            };
            let graph = graph.expect("the oracle accepted the same list");
            prop_assert_eq!(graph.len(), n);
            prop_assert_eq!(graph.is_empty(), n == 0);
            for (v, row) in adj.iter().enumerate() {
                prop_assert_eq!(graph.neighbors(v), &row[..]);
                prop_assert_eq!(graph.degree(v), row.len());
                for u in 0..n + 2 {
                    prop_assert_eq!(graph.has_edge(v, u), row.contains(&u));
                }
            }
            let nested_edges: Vec<(usize, usize)> = adj
                .iter()
                .enumerate()
                .flat_map(|(a, row)| row.iter().filter(move |&&b| a < b).map(move |&b| (a, b)))
                .collect();
            prop_assert_eq!(graph.edges().collect::<Vec<_>>(), nested_edges.clone());
            prop_assert_eq!(graph.num_edges(), nested_edges.len());
            prop_assert_eq!(graph.is_connected(), nested_connected_among(&adj, &vec![true; n]));
            let include: Vec<bool> = (0..n).map(|v| mask >> v & 1 == 1).collect();
            prop_assert_eq!(
                graph.is_connected_among(&include),
                nested_connected_among(&adj, &include)
            );
            let weights = MetropolisWeights::for_graph(&graph);
            for (v, (self_weight, row)) in nested_weights(&adj).into_iter().enumerate() {
                prop_assert_eq!(weights.self_weight(v).to_bits(), self_weight.to_bits());
                let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(weights.neighbor_weights(v)), bits(&row));
            }
        }
    }
}
