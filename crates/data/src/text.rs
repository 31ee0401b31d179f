//! Shakespeare analogue: per-client Markov character streams.
//!
//! LEAF's Shakespeare task groups lines by the speaking role; each client's
//! text has its own style on top of the shared language. This generator
//! plants a global sparse character-transition matrix ("the language") and
//! blends it per client with a private transition matrix ("the role's
//! style"): clients share structure — so decentralized training helps — but
//! differ in distribution, so the partition is non-IID. Streams are cut into
//! fixed-length `(input, next-char target)` windows, the LEAF training
//! format.

use crate::partition::assign_clients;
use crate::{Partitioned, SeqSample};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Knobs for the character-stream generator.
#[derive(Debug, Clone, PartialEq)]
pub struct TextConfig {
    /// Alphabet size (LEAF Shakespeare uses ~80 printable chars; a smaller
    /// alphabet keeps laptop models small with identical mechanics).
    pub vocab: usize,
    /// Sequence length of each training window.
    pub seq_len: usize,
    /// Training windows per client.
    pub train_per_client: usize,
    /// Test windows (drawn from the global language).
    pub test_windows: usize,
    /// Client style weight λ ∈ \[0,1\]: 0 = IID, 1 = fully private language.
    pub style_weight: f64,
    /// Sparsity: number of plausible successors per character.
    pub branching: usize,
}

impl TextConfig {
    /// Laptop-scale Shakespeare analogue.
    pub fn small() -> Self {
        Self {
            vocab: 24,
            seq_len: 16,
            train_per_client: 32,
            test_windows: 128,
            style_weight: 0.35,
            branching: 3,
        }
    }

    /// Minimal configuration for unit tests. Deliberately concentrated
    /// (`branching = 2`, mild styles) so even brief runs can demonstrably
    /// learn the structure.
    pub fn tiny() -> Self {
        Self {
            vocab: 8,
            seq_len: 8,
            train_per_client: 24,
            test_windows: 32,
            style_weight: 0.15,
            branching: 2,
        }
    }
}

/// Row-stochastic transition matrix stored dense (`vocab × vocab`).
fn random_transitions(vocab: usize, branching: usize, rng: &mut ChaCha8Rng) -> Vec<f64> {
    let mut t = vec![0.0f64; vocab * vocab];
    for row in 0..vocab {
        // `branching` preferred successors get most of the mass; the rest is
        // smoothing so every transition stays possible.
        let mut mass_left = 0.9;
        for _ in 0..branching {
            let col = rng.gen_range(0..vocab);
            let p = rng.gen_range(0.3..1.0) * mass_left / branching as f64;
            t[row * vocab + col] += p;
            mass_left -= p;
        }
        let assigned: f64 = t[row * vocab..(row + 1) * vocab].iter().sum();
        let smooth = (1.0 - assigned) / vocab as f64;
        for col in 0..vocab {
            t[row * vocab + col] += smooth;
        }
    }
    t
}

fn blend(global: &[f64], private: &[f64], lambda: f64) -> Vec<f64> {
    global
        .iter()
        .zip(private)
        .map(|(g, p)| (1.0 - lambda) * g + lambda * p)
        .collect()
}

fn sample_stream(t: &[f64], vocab: usize, len: usize, rng: &mut ChaCha8Rng) -> Vec<usize> {
    let mut out = Vec::with_capacity(len);
    let mut cur = rng.gen_range(0..vocab);
    out.push(cur);
    for _ in 1..len {
        let row = &t[cur * vocab..(cur + 1) * vocab];
        let mut u: f64 = rng.gen_range(0.0..1.0);
        let mut next = vocab - 1;
        for (c, &p) in row.iter().enumerate() {
            if u < p {
                next = c;
                break;
            }
            u -= p;
        }
        out.push(next);
        cur = next;
    }
    out
}

fn windows(stream: &[usize], seq_len: usize, count: usize) -> Vec<SeqSample> {
    (0..count)
        .map(|k| {
            let start = k * seq_len;
            (
                stream[start..start + seq_len].to_vec(),
                stream[start + 1..start + seq_len + 1].to_vec(),
            )
        })
        .collect()
}

/// Generates per-client streams and assigns clients to nodes.
///
/// # Panics
///
/// Panics if `nodes == 0` or `clients < nodes`.
pub fn shakespeare_like(
    cfg: &TextConfig,
    nodes: usize,
    clients: usize,
    seed: u64,
) -> Partitioned<SeqSample> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let global = random_transitions(cfg.vocab, cfg.branching, &mut rng);
    let mut client_data: Vec<Vec<SeqSample>> = Vec::with_capacity(clients);
    for _ in 0..clients {
        let private = random_transitions(cfg.vocab, cfg.branching, &mut rng);
        let t = blend(&global, &private, cfg.style_weight);
        let stream_len = cfg.train_per_client * cfg.seq_len + 1;
        let stream = sample_stream(&t, cfg.vocab, stream_len, &mut rng);
        client_data.push(windows(&stream, cfg.seq_len, cfg.train_per_client));
    }
    // Test windows come from the global language: the shared structure all
    // nodes are supposed to learn collaboratively.
    let test_stream = sample_stream(
        &global,
        cfg.vocab,
        cfg.test_windows * cfg.seq_len + 1,
        &mut rng,
    );
    let test = windows(&test_stream, cfg.seq_len, cfg.test_windows);
    Partitioned {
        node_train: assign_clients(client_data, nodes, seed ^ 0x1b1b),
        test,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_align_inputs_and_targets() {
        let data = shakespeare_like(&TextConfig::tiny(), 2, 4, 3);
        for (x, y) in data.node_train.iter().flatten().chain(&data.test) {
            assert_eq!(x.len(), y.len());
            // Target at position t is the input at position t+1.
            for k in 0..x.len() - 1 {
                assert_eq!(y[k], x[k + 1]);
            }
        }
    }

    #[test]
    fn tokens_are_in_vocab() {
        let cfg = TextConfig::tiny();
        let data = shakespeare_like(&cfg, 2, 4, 5);
        for (x, y) in data.node_train.iter().flatten().chain(&data.test) {
            assert!(x.iter().chain(y).all(|&t| t < cfg.vocab));
        }
    }

    #[test]
    fn transition_matrix_is_stochastic() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let t = random_transitions(16, 4, &mut rng);
        for row in t.chunks(16) {
            let s: f64 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "row sums to {s}");
            assert!(row.iter().all(|&p| p >= 0.0));
        }
    }

    #[test]
    fn language_is_predictable_above_chance() {
        // A bigram oracle built from training text should beat uniform
        // guessing on test text — i.e. there is structure to learn.
        let cfg = TextConfig::small();
        let data = shakespeare_like(&cfg, 4, 8, 7);
        let v = cfg.vocab;
        let mut counts = vec![1.0f64; v * v]; // Laplace smoothing
        for (x, y) in data.node_train.iter().flatten() {
            for (a, b) in x.iter().zip(y) {
                counts[a * v + b] += 1.0;
            }
        }
        let mut correct = 0usize;
        let mut total = 0usize;
        for (x, y) in &data.test {
            for (a, b) in x.iter().zip(y) {
                let row = &counts[a * v..(a + 1) * v];
                let pred = row
                    .iter()
                    .enumerate()
                    .max_by(|p, q| p.1.partial_cmp(q.1).expect("finite"))
                    .map(|(i, _)| i)
                    .expect("nonempty row");
                correct += usize::from(pred == *b);
                total += 1;
            }
        }
        let acc = correct as f64 / total as f64;
        assert!(
            acc > 1.5 / v as f64 * 2.0,
            "bigram accuracy {acc} should clearly beat chance {}",
            1.0 / v as f64
        );
    }

    #[test]
    fn clients_differ_in_distribution() {
        let cfg = TextConfig::small();
        let data = shakespeare_like(&cfg, 8, 8, 9);
        // Compare unigram histograms between two nodes.
        let hist = |node: &[SeqSample]| {
            let mut h = vec![0usize; cfg.vocab];
            for (x, _) in node {
                for &t in x {
                    h[t] += 1;
                }
            }
            h
        };
        let h0 = hist(&data.node_train[0]);
        let h1 = hist(&data.node_train[1]);
        assert_ne!(h0, h1, "client styles should make nodes differ");
    }

    #[test]
    fn deterministic() {
        let a = shakespeare_like(&TextConfig::tiny(), 2, 4, 11);
        let b = shakespeare_like(&TextConfig::tiny(), 2, 4, 11);
        assert_eq!(a.node_train, b.node_train);
        assert_eq!(a.test, b.test);
    }
}
