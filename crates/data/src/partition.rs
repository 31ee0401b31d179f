//! The paper's two data-partitioning regimes.
//!
//! - [`shard_by_label`]: CIFAR-10 partitioning (§IV-B-d): sort by label, cut
//!   into `shards_per_node · n` shards, deal each node `shards_per_node`
//!   random shards. With 2 shards per node each node sees at most 4 classes.
//! - [`assign_clients`]: LEAF partitioning: data is grouped by the *client*
//!   (human) who produced it and each node receives an equal number of
//!   clients.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Sorts `samples` by label, slices them into `nodes * shards_per_node`
/// shards and deals shards randomly, `shards_per_node` to each node. The
/// samples are moved, not copied, into the nodes' lists; the remainder past
/// the last whole shard is dropped.
///
/// # Panics
///
/// Panics if `nodes == 0`, `shards_per_node == 0`, or there are fewer
/// samples than shards.
pub fn shard_by_label<S>(
    samples: Vec<(S, usize)>,
    nodes: usize,
    shards_per_node: usize,
    seed: u64,
) -> Vec<Vec<(S, usize)>> {
    assert!(nodes > 0 && shards_per_node > 0, "invalid partition shape");
    let shards = nodes * shards_per_node;
    assert!(
        samples.len() >= shards,
        "{} samples cannot fill {shards} shards",
        samples.len()
    );
    let mut sorted = samples;
    // Stable: samples of one label keep their order.
    sorted.sort_by_key(|(_, y)| *y);
    // Equal-size shards (PyTorch-style): truncate the remainder.
    let shard_len = sorted.len() / shards;
    let mut shard_order: Vec<usize> = (0..shards).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    shard_order.shuffle(&mut rng);
    let mut sorted = sorted.into_iter();
    let mut pieces: Vec<Vec<(S, usize)>> = (0..shards)
        .map(|_| sorted.by_ref().take(shard_len).collect())
        .collect();
    let mut out: Vec<Vec<(S, usize)>> = (0..nodes)
        .map(|_| Vec::with_capacity(shard_len * shards_per_node))
        .collect();
    for (k, &shard) in shard_order.iter().enumerate() {
        out[k / shards_per_node].append(&mut pieces[shard]);
    }
    out
}

/// Distributes `clients` (each a bag of samples) over `nodes`, as equally as
/// possible, in a seed-determined random order; returns per-node
/// concatenated sample lists, the samples moved rather than copied.
///
/// # Panics
///
/// Panics if `nodes == 0` or there are fewer clients than nodes.
pub fn assign_clients<S>(mut clients: Vec<Vec<S>>, nodes: usize, seed: u64) -> Vec<Vec<S>> {
    assert!(nodes > 0, "need at least one node");
    assert!(
        clients.len() >= nodes,
        "{} clients cannot cover {nodes} nodes",
        clients.len()
    );
    let mut order: Vec<usize> = (0..clients.len()).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    order.shuffle(&mut rng);
    let mut out: Vec<Vec<S>> = (0..nodes).map(|_| Vec::new()).collect();
    for (k, &client) in order.iter().enumerate() {
        out[k % nodes].append(&mut clients[client]);
    }
    out
}

/// IID control partition: shuffles samples and deals them round-robin,
/// moving each into its node's list.
///
/// # Panics
///
/// Panics if `nodes == 0`.
pub fn iid<S>(samples: Vec<S>, nodes: usize, seed: u64) -> Vec<Vec<S>> {
    assert!(nodes > 0, "need at least one node");
    let mut order: Vec<usize> = (0..samples.len()).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    order.shuffle(&mut rng);
    let per_node = samples.len() / nodes + 1;
    let mut slots: Vec<Option<S>> = samples.into_iter().map(Some).collect();
    let mut out: Vec<Vec<S>> = (0..nodes).map(|_| Vec::with_capacity(per_node)).collect();
    for (k, &i) in order.iter().enumerate() {
        out[k % nodes].push(slots[i].take().expect("a permutation visits each once"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// The partitions as they cloned every sample: the oracles the owned
    /// ones must reproduce, order included.
    mod cloning {
        use super::*;

        pub fn shard_by_label<S: Clone>(
            samples: &[(S, usize)],
            nodes: usize,
            shards_per_node: usize,
            seed: u64,
        ) -> Vec<Vec<(S, usize)>> {
            let shards = nodes * shards_per_node;
            let mut sorted: Vec<&(S, usize)> = samples.iter().collect();
            sorted.sort_by_key(|(_, y)| *y);
            let shard_len = sorted.len() / shards;
            let mut shard_order: Vec<usize> = (0..shards).collect();
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            shard_order.shuffle(&mut rng);
            let mut out = vec![Vec::with_capacity(shard_len * shards_per_node); nodes];
            for (k, &shard) in shard_order.iter().enumerate() {
                let node = k / shards_per_node;
                let slice = &sorted[shard * shard_len..(shard + 1) * shard_len];
                out[node].extend(slice.iter().map(|s| (*s).clone()));
            }
            out
        }

        pub fn assign_clients<S: Clone>(
            clients: &[Vec<S>],
            nodes: usize,
            seed: u64,
        ) -> Vec<Vec<S>> {
            let mut order: Vec<usize> = (0..clients.len()).collect();
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            order.shuffle(&mut rng);
            let mut out = vec![Vec::new(); nodes];
            for (k, &client) in order.iter().enumerate() {
                out[k % nodes].extend(clients[client].iter().cloned());
            }
            out
        }

        pub fn iid<S: Clone>(samples: &[S], nodes: usize, seed: u64) -> Vec<Vec<S>> {
            let mut order: Vec<usize> = (0..samples.len()).collect();
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            order.shuffle(&mut rng);
            let mut out = vec![Vec::with_capacity(samples.len() / nodes + 1); nodes];
            for (k, &i) in order.iter().enumerate() {
                out[k % nodes].push(samples[i].clone());
            }
            out
        }
    }

    fn labelled(n_per_class: usize, classes: usize) -> Vec<(u32, usize)> {
        let mut v = Vec::new();
        for c in 0..classes {
            for i in 0..n_per_class {
                v.push(((c * n_per_class + i) as u32, c));
            }
        }
        v
    }

    #[test]
    fn shard_partition_caps_label_diversity() {
        // 10 classes, 8 nodes, 2 shards per node -> at most 4 classes/node
        // (the paper's exact argument for CIFAR-10 with 2n shards).
        let samples = labelled(64, 10);
        let parts = shard_by_label(samples, 8, 2, 3);
        assert_eq!(parts.len(), 8);
        for node in &parts {
            let labels: HashSet<usize> = node.iter().map(|(_, y)| *y).collect();
            assert!(labels.len() <= 4, "node saw {} classes", labels.len());
            assert!(!node.is_empty());
        }
    }

    #[test]
    fn shard_partition_is_disjoint_and_deterministic() {
        let samples = labelled(16, 4);
        let a = shard_by_label(samples.clone(), 4, 2, 9);
        let b = shard_by_label(samples.clone(), 4, 2, 9);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x, y);
        }
        let mut seen = HashSet::new();
        for node in &a {
            for (id, _) in node {
                assert!(seen.insert(*id), "sample {id} appears twice");
            }
        }
        let c = shard_by_label(samples, 4, 2, 10);
        assert_ne!(a, c, "different seeds should shuffle differently");
    }

    #[test]
    fn client_assignment_balances_counts() {
        let clients: Vec<Vec<u32>> = (0..12).map(|c| vec![c as u32; 5]).collect();
        let parts = assign_clients(clients, 4, 1);
        for node in &parts {
            assert_eq!(node.len(), 15); // 3 clients × 5 samples
        }
    }

    #[test]
    fn iid_covers_everything() {
        let samples: Vec<u32> = (0..100).collect();
        let parts = iid(samples, 7, 2);
        let total: usize = parts.iter().map(Vec::len).sum();
        assert_eq!(total, 100);
        let all: HashSet<u32> = parts.iter().flatten().copied().collect();
        assert_eq!(all.len(), 100);
    }

    #[test]
    #[should_panic(expected = "cannot fill")]
    fn too_few_samples_panics() {
        let samples = labelled(1, 2);
        let _ = shard_by_label(samples, 4, 2, 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Moving the samples deals every node the samples, in the order,
        /// that cloning them did — labels in any order, ties within a
        /// label kept in input order by the stable sort.
        #[test]
        fn owned_partitions_are_the_cloning_ones(
            labels in proptest::collection::vec(0usize..5, 8..120),
            nodes in 1usize..5,
            spn in 1usize..3,
            seed in any::<u64>(),
        ) {
            let samples: Vec<(String, usize)> = (labels.iter().enumerate())
                .map(|(i, &y)| (format!("s{i}"), y))
                .collect();
            if samples.len() >= nodes * spn {
                prop_assert_eq!(
                    shard_by_label(samples.clone(), nodes, spn, seed),
                    cloning::shard_by_label(&samples, nodes, spn, seed)
                );
            }
            let clients: Vec<Vec<(String, usize)>> =
                samples.chunks(1 + labels[0]).map(<[_]>::to_vec).collect();
            if clients.len() >= nodes {
                prop_assert_eq!(
                    assign_clients(clients.clone(), nodes, seed),
                    cloning::assign_clients(&clients, nodes, seed)
                );
            }
            prop_assert_eq!(iid(samples.clone(), nodes, seed), cloning::iid(&samples, nodes, seed));
        }

        #[test]
        fn shards_exhaust_truncated_samples(
            classes in 2usize..6,
            per_class in 4usize..20,
            nodes in 1usize..6,
            spn in 1usize..3,
            seed in any::<u64>(),
        ) {
            let samples = labelled(per_class, classes);
            prop_assume!(samples.len() >= nodes * spn);
            let parts = shard_by_label(samples.clone(), nodes, spn, seed);
            let shard_len = samples.len() / (nodes * spn);
            let total: usize = parts.iter().map(Vec::len).sum();
            prop_assert_eq!(total, shard_len * nodes * spn);
            for node in &parts {
                prop_assert_eq!(node.len(), shard_len * spn);
            }
        }
    }
}
