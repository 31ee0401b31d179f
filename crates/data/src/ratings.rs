//! MovieLens analogue: low-rank ground-truth ratings.
//!
//! MovieLens groups ratings by the user who produced them; in the paper each
//! node receives an equal number of users (clients). This generator plants a
//! random low-rank preference structure `R = μ + b_u + b_i + U·Vᵀ`, clips to
//! the 1–5 star range, adds observation noise, and splits each user's ratings
//! into train and held-out test — so matrix factorization can genuinely
//! recover structure, and nodes are non-IID because they hold disjoint user
//! populations.

use crate::partition::assign_clients;
use crate::{Partitioned, RatingSample};
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rand_distr::{Distribution, Normal};

/// Shape and difficulty knobs for the rating generator.
#[derive(Debug, Clone, PartialEq)]
pub struct RatingConfig {
    /// Number of users (= clients).
    pub users: usize,
    /// Number of items.
    pub items: usize,
    /// Rank of the planted preference structure.
    pub true_rank: usize,
    /// Ratings each user contributes to training.
    pub train_per_user: usize,
    /// Ratings each user contributes to the test set.
    pub test_per_user: usize,
    /// Observation noise added to each rating.
    pub noise: f32,
}

impl RatingConfig {
    /// Laptop-scale MovieLens analogue.
    pub fn small() -> Self {
        Self {
            users: 48,
            items: 64,
            true_rank: 4,
            train_per_user: 20,
            test_per_user: 5,
            noise: 0.3,
        }
    }

    /// Minimal configuration for unit tests.
    pub fn tiny() -> Self {
        Self {
            users: 12,
            items: 16,
            true_rank: 2,
            train_per_user: 8,
            test_per_user: 2,
            noise: 0.2,
        }
    }
}

/// A generated rating dataset together with its dimensions (the model needs
/// `users`/`items` to size its embedding tables).
#[derive(Debug, Clone)]
pub struct RatingData {
    /// Per-node training ratings and the global test set.
    pub partitioned: Partitioned<RatingSample>,
    /// Number of users.
    pub users: usize,
    /// Number of items.
    pub items: usize,
}

/// Generates the dataset and assigns users to nodes.
///
/// # Panics
///
/// Panics if `nodes == 0`, `users < nodes`, or a user is asked for more
/// ratings than there are items.
pub fn movielens_like(cfg: &RatingConfig, nodes: usize, seed: u64) -> RatingData {
    assert!(
        cfg.train_per_user + cfg.test_per_user <= cfg.items,
        "cannot rate more items than exist"
    );
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let normal = Normal::new(0.0, 1.0).expect("unit normal");
    let scale = 1.0 / (cfg.true_rank as f64).sqrt();
    let u: Vec<f64> = (0..cfg.users * cfg.true_rank)
        .map(|_| normal.sample(&mut rng) * scale)
        .collect();
    let v: Vec<f64> = (0..cfg.items * cfg.true_rank)
        .map(|_| normal.sample(&mut rng) * scale)
        .collect();
    let user_bias: Vec<f64> = (0..cfg.users)
        .map(|_| normal.sample(&mut rng) * 0.3)
        .collect();
    let item_bias: Vec<f64> = (0..cfg.items)
        .map(|_| normal.sample(&mut rng) * 0.3)
        .collect();
    let noise = Normal::new(0.0, f64::from(cfg.noise)).expect("noise is finite");
    let mut clients: Vec<Vec<RatingSample>> = Vec::with_capacity(cfg.users);
    let mut test = Vec::with_capacity(cfg.users * cfg.test_per_user);
    for user in 0..cfg.users {
        let mut items: Vec<usize> = (0..cfg.items).collect();
        items.shuffle(&mut rng);
        items.truncate(cfg.train_per_user + cfg.test_per_user);
        let mut mine = Vec::with_capacity(cfg.train_per_user);
        for (k, &item) in items.iter().enumerate() {
            let dot: f64 = (0..cfg.true_rank)
                .map(|f| u[user * cfg.true_rank + f] * v[item * cfg.true_rank + f])
                .sum();
            let r = 3.0 + user_bias[user] + item_bias[item] + 1.2 * dot + noise.sample(&mut rng);
            let r = r.clamp(1.0, 5.0) as f32;
            if k < cfg.train_per_user {
                mine.push((user, item, r));
            } else {
                test.push((user, item, r));
            }
        }
        clients.push(mine);
    }
    // Nodes get whole users — the ML non-IID regime.
    let node_train = assign_clients(clients, nodes, seed ^ 0x7e7e);
    let _ = rng.gen::<u64>();
    RatingData {
        partitioned: Partitioned { node_train, test },
        users: cfg.users,
        items: cfg.items,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ratings_are_in_star_range() {
        let data = movielens_like(&RatingConfig::tiny(), 3, 1);
        for &(_, _, r) in data.partitioned.node_train.iter().flatten() {
            assert!((1.0..=5.0).contains(&r));
        }
        for &(_, _, r) in &data.partitioned.test {
            assert!((1.0..=5.0).contains(&r));
        }
    }

    #[test]
    fn users_are_node_disjoint() {
        let data = movielens_like(&RatingConfig::tiny(), 3, 2);
        let mut seen: HashSet<usize> = HashSet::new();
        for node in &data.partitioned.node_train {
            let users: HashSet<usize> = node.iter().map(|&(u, _, _)| u).collect();
            for u in users {
                assert!(seen.insert(u), "user {u} on two nodes");
            }
        }
    }

    #[test]
    fn indices_are_in_bounds() {
        let cfg = RatingConfig::tiny();
        let data = movielens_like(&cfg, 2, 3);
        for &(u, i, _) in data
            .partitioned
            .node_train
            .iter()
            .flatten()
            .chain(&data.partitioned.test)
        {
            assert!(u < cfg.users && i < cfg.items);
        }
    }

    #[test]
    fn low_rank_structure_beats_global_mean() {
        // The planted structure must carry signal: per-user mean prediction
        // should beat the global mean on held-out data. (A full MF fit is
        // exercised in jwins-nn tests.)
        let cfg = RatingConfig::small();
        let data = movielens_like(&cfg, 4, 4);
        let train: Vec<RatingSample> = data
            .partitioned
            .node_train
            .iter()
            .flatten()
            .copied()
            .collect();
        let gmean: f64 =
            train.iter().map(|&(_, _, r)| f64::from(r)).sum::<f64>() / train.len() as f64;
        let mut user_sum = vec![0.0f64; cfg.users];
        let mut user_cnt = vec![0usize; cfg.users];
        for &(u, _, r) in &train {
            user_sum[u] += f64::from(r);
            user_cnt[u] += 1;
        }
        let mut err_global = 0.0;
        let mut err_user = 0.0;
        for &(u, _, r) in &data.partitioned.test {
            let r = f64::from(r);
            err_global += (r - gmean).powi(2);
            let umean = user_sum[u] / user_cnt[u].max(1) as f64;
            err_user += (r - umean).powi(2);
        }
        assert!(
            err_user < err_global,
            "user means ({err_user:.2}) should beat global mean ({err_global:.2})"
        );
    }

    #[test]
    fn deterministic_generation() {
        let a = movielens_like(&RatingConfig::tiny(), 2, 9);
        let b = movielens_like(&RatingConfig::tiny(), 2, 9);
        assert_eq!(a.partitioned.node_train, b.partitioned.node_train);
    }
}
