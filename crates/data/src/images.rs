//! Synthetic image-classification datasets (CIFAR-10, FEMNIST and CelebA
//! analogues).
//!
//! Images are generated from smooth class prototypes plus Gaussian noise.
//! Prototypes are spatially correlated (random low-frequency blobs) so
//! convolutional models have local structure to exploit, and the LEAF-style
//! generators additionally give every *client* a private style shift so the
//! client-grouped partition is genuinely non-IID.

use crate::partition::{assign_clients, shard_by_label};
use crate::{ClassSample, Partitioned};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rand_distr::{Distribution, Normal};

/// Shape and difficulty knobs for the image generators.
#[derive(Debug, Clone, PartialEq)]
pub struct ImageConfig {
    /// Number of classes (10 for the CIFAR analogue, 62 for FEMNIST).
    pub classes: usize,
    /// Channels per image.
    pub channels: usize,
    /// Image height.
    pub height: usize,
    /// Image width.
    pub width: usize,
    /// Training samples per class (CIFAR regime) or per client (LEAF regime).
    pub train_per_unit: usize,
    /// Test samples per class.
    pub test_per_class: usize,
    /// Standard deviation of the additive pixel noise.
    pub noise: f32,
    /// Strength of per-client style shifts (LEAF generators only).
    pub client_style: f32,
}

impl ImageConfig {
    /// A CIFAR-10-shaped configuration scaled to laptop size
    /// (3×16×16, 10 classes).
    pub fn cifar_small() -> Self {
        Self {
            classes: 10,
            channels: 3,
            height: 12,
            width: 12,
            train_per_unit: 96,
            test_per_class: 24,
            noise: 0.6,
            client_style: 0.0,
        }
    }

    /// A minimal configuration for unit tests (2×8×8, 4 classes).
    pub fn tiny() -> Self {
        Self {
            classes: 4,
            channels: 2,
            height: 8,
            width: 8,
            train_per_unit: 24,
            test_per_class: 8,
            noise: 0.4,
            client_style: 0.3,
        }
    }

    /// FEMNIST-shaped: 1×16×16, many classes, strong client styles.
    pub fn femnist_small() -> Self {
        Self {
            classes: 16, // 62 in LEAF; fewer keeps 1-core runs fast with the same shape
            channels: 1,
            height: 12,
            width: 12,
            train_per_unit: 36,
            test_per_class: 16,
            noise: 0.5,
            client_style: 0.6,
        }
    }

    /// CelebA-shaped: 3×16×16, binary attribute, strong per-client identity.
    pub fn celeba_small() -> Self {
        Self {
            classes: 2,
            channels: 3,
            height: 12,
            width: 12,
            train_per_unit: 20,
            test_per_class: 48,
            noise: 0.5,
            client_style: 0.8,
        }
    }

    /// Pixels per image.
    pub fn pixels(&self) -> usize {
        self.channels * self.height * self.width
    }
}

/// Draws a smooth random pattern: a sum of a few random low-frequency
/// cosine blobs, giving convolution-friendly spatial correlation.
fn smooth_pattern(cfg: &ImageConfig, rng: &mut ChaCha8Rng, scale: f32) -> Vec<f32> {
    let (h, w) = (cfg.height, cfg.width);
    let mut img = vec![0.0f32; cfg.pixels()];
    for c in 0..cfg.channels {
        for _ in 0..3 {
            let fx = rng.gen_range(0.5..2.5) * std::f32::consts::PI / w as f32;
            let fy = rng.gen_range(0.5..2.5) * std::f32::consts::PI / h as f32;
            let px = rng.gen_range(0.0..std::f32::consts::TAU);
            let py = rng.gen_range(0.0..std::f32::consts::TAU);
            let amp = rng.gen_range(0.4..1.0) * scale;
            for y in 0..h {
                for x in 0..w {
                    img[c * h * w + y * w + x] +=
                        amp * (fy * y as f32 + py).cos() * (fx * x as f32 + px).cos();
                }
            }
        }
    }
    img
}

fn noisy_sample(proto: &[f32], noise: f32, rng: &mut ChaCha8Rng) -> Vec<f32> {
    let normal = Normal::new(0.0, f64::from(noise)).expect("noise is finite");
    proto
        .iter()
        .map(|&p| p + normal.sample(rng) as f32)
        .collect()
}

fn add(into: &mut [f32], from: &[f32]) {
    for (a, b) in into.iter_mut().zip(from) {
        *a += b;
    }
}

/// CIFAR-10 analogue: class-prototype images, sort-by-label sharding with
/// `shards_per_node` shards per node (the paper uses 2; Figure 10 relaxes to
/// 4).
pub fn cifar_like(
    cfg: &ImageConfig,
    nodes: usize,
    shards_per_node: usize,
    seed: u64,
) -> Partitioned<ClassSample> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let protos: Vec<Vec<f32>> = (0..cfg.classes)
        .map(|_| smooth_pattern(cfg, &mut rng, 1.0))
        .collect();
    let mut train: Vec<ClassSample> = Vec::with_capacity(cfg.classes * cfg.train_per_unit);
    for (y, proto) in protos.iter().enumerate() {
        for _ in 0..cfg.train_per_unit {
            train.push((noisy_sample(proto, cfg.noise, &mut rng), y));
        }
    }
    let mut test = Vec::with_capacity(cfg.classes * cfg.test_per_class);
    for (y, proto) in protos.iter().enumerate() {
        for _ in 0..cfg.test_per_class {
            test.push((noisy_sample(proto, cfg.noise, &mut rng), y));
        }
    }
    let node_train = shard_by_label(train, nodes, shards_per_node, seed ^ 0xA5A5);
    Partitioned { node_train, test }
}

/// FEMNIST analogue: `clients` writers, each with a private style pattern
/// added to every image they produce and a skewed subset of classes,
/// client-grouped across nodes.
pub fn femnist_like(
    cfg: &ImageConfig,
    nodes: usize,
    clients: usize,
    seed: u64,
) -> Partitioned<ClassSample> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let protos: Vec<Vec<f32>> = (0..cfg.classes)
        .map(|_| smooth_pattern(cfg, &mut rng, 1.0))
        .collect();
    let mut client_data: Vec<Vec<ClassSample>> = Vec::with_capacity(clients);
    for _ in 0..clients {
        let style = smooth_pattern(cfg, &mut rng, cfg.client_style);
        // A writer produces a random half of the alphabet.
        let mut classes: Vec<usize> = (0..cfg.classes).collect();
        for i in (1..classes.len()).rev() {
            classes.swap(i, rng.gen_range(0..=i));
        }
        classes.truncate((cfg.classes / 2).max(1));
        let mut samples = Vec::with_capacity(cfg.train_per_unit);
        for k in 0..cfg.train_per_unit {
            let y = classes[k % classes.len()];
            let mut x = noisy_sample(&protos[y], cfg.noise, &mut rng);
            add(&mut x, &style);
            samples.push((x, y));
        }
        client_data.push(samples);
    }
    let mut test = Vec::with_capacity(cfg.classes * cfg.test_per_class);
    for (y, proto) in protos.iter().enumerate() {
        for _ in 0..cfg.test_per_class {
            test.push((noisy_sample(proto, cfg.noise, &mut rng), y));
        }
    }
    Partitioned {
        node_train: assign_clients(client_data, nodes, seed ^ 0x5A5A),
        test,
    }
}

/// CelebA analogue: binary attribute classification. Every client is a
/// "celebrity" with a private face pattern; the positive class adds a global
/// attribute pattern (the smile).
pub fn celeba_like(
    cfg: &ImageConfig,
    nodes: usize,
    clients: usize,
    seed: u64,
) -> Partitioned<ClassSample> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let attribute = smooth_pattern(cfg, &mut rng, 1.0);
    let mut client_data: Vec<Vec<ClassSample>> = Vec::with_capacity(clients);
    for _ in 0..clients {
        let face = smooth_pattern(cfg, &mut rng, cfg.client_style);
        let mut samples = Vec::with_capacity(cfg.train_per_unit);
        for k in 0..cfg.train_per_unit {
            let y = k % 2;
            let mut x = face.clone();
            if y == 1 {
                add(&mut x, &attribute);
            }
            let noise = noisy_sample(&vec![0.0; cfg.pixels()], cfg.noise, &mut rng);
            add(&mut x, &noise);
            samples.push((x, y));
        }
        client_data.push(samples);
    }
    // Test set: fresh unseen faces.
    let mut test = Vec::with_capacity(2 * cfg.test_per_class);
    for k in 0..2 * cfg.test_per_class {
        let face = smooth_pattern(cfg, &mut rng, cfg.client_style);
        let y = k % 2;
        let mut x = face;
        if y == 1 {
            add(&mut x, &attribute);
        }
        let noise = noisy_sample(&vec![0.0; cfg.pixels()], cfg.noise, &mut rng);
        add(&mut x, &noise);
        test.push((x, y));
    }
    Partitioned {
        node_train: assign_clients(client_data, nodes, seed ^ 0x3C3C),
        test,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Nearest-centroid accuracy: a cheap proxy showing classes are
    /// learnable but not trivially separable.
    fn centroid_accuracy(train: &[ClassSample], test: &[ClassSample], classes: usize) -> f64 {
        let dim = train[0].0.len();
        let mut centroids = vec![vec![0.0f64; dim]; classes];
        let mut counts = vec![0usize; classes];
        for (x, y) in train {
            counts[*y] += 1;
            for (c, v) in centroids[*y].iter_mut().zip(x) {
                *c += f64::from(*v);
            }
        }
        for (c, n) in centroids.iter_mut().zip(&counts) {
            if *n > 0 {
                c.iter_mut().for_each(|v| *v /= *n as f64);
            }
        }
        let mut correct = 0;
        for (x, y) in test {
            let best = (0..classes)
                .min_by(|&a, &b| {
                    let da: f64 = centroids[a]
                        .iter()
                        .zip(x)
                        .map(|(c, v)| (c - f64::from(*v)).powi(2))
                        .sum();
                    let db: f64 = centroids[b]
                        .iter()
                        .zip(x)
                        .map(|(c, v)| (c - f64::from(*v)).powi(2))
                        .sum();
                    da.partial_cmp(&db).expect("finite distances")
                })
                .expect("at least one class");
            if best == *y {
                correct += 1;
            }
        }
        correct as f64 / test.len() as f64
    }

    #[test]
    fn cifar_like_is_learnable_and_non_iid() {
        let cfg = ImageConfig::tiny();
        let data = cifar_like(&cfg, 4, 2, 7);
        assert_eq!(data.nodes(), 4);
        let train: Vec<ClassSample> = data.node_train.iter().flatten().cloned().collect();
        let acc = centroid_accuracy(&train, &data.test, cfg.classes);
        assert!(acc > 0.7, "centroid accuracy too low: {acc}");
        // Non-IID: at least one node must miss at least one class.
        let mut any_skewed = false;
        for node in &data.node_train {
            let labels: HashSet<usize> = node.iter().map(|(_, y)| *y).collect();
            if labels.len() < cfg.classes {
                any_skewed = true;
            }
        }
        assert!(any_skewed, "sharded partition should be label-skewed");
    }

    #[test]
    fn cifar_like_deterministic() {
        let cfg = ImageConfig::tiny();
        let a = cifar_like(&cfg, 2, 2, 11);
        let b = cifar_like(&cfg, 2, 2, 11);
        assert_eq!(a.node_train[0][0].0, b.node_train[0][0].0);
        let c = cifar_like(&cfg, 2, 2, 12);
        assert_ne!(a.node_train[0][0].0, c.node_train[0][0].0);
    }

    #[test]
    fn femnist_like_clients_have_distinct_label_mixes() {
        let cfg = ImageConfig::tiny();
        let data = femnist_like(&cfg, 4, 8, 3);
        assert_eq!(data.nodes(), 4);
        let mixes: Vec<Vec<usize>> = data
            .node_train
            .iter()
            .map(|node| {
                let mut h = vec![0usize; cfg.classes];
                for (_, y) in node {
                    h[*y] += 1;
                }
                h
            })
            .collect();
        assert!(
            mixes.windows(2).any(|w| w[0] != w[1]),
            "label histograms should differ across nodes"
        );
        // Still learnable from pooled data.
        let train: Vec<ClassSample> = data.node_train.iter().flatten().cloned().collect();
        let acc = centroid_accuracy(&train, &data.test, cfg.classes);
        assert!(acc > 0.5, "centroid accuracy too low: {acc}");
    }

    #[test]
    fn celeba_like_attribute_is_detectable() {
        let mut cfg = ImageConfig::tiny();
        cfg.classes = 2;
        let data = celeba_like(&cfg, 2, 6, 5);
        let train: Vec<ClassSample> = data.node_train.iter().flatten().cloned().collect();
        let acc = centroid_accuracy(&train, &data.test, 2);
        assert!(acc > 0.7, "attribute not separable: {acc}");
        // Balanced labels.
        let pos = train.iter().filter(|(_, y)| *y == 1).count();
        assert!((pos as f64 / train.len() as f64 - 0.5).abs() < 0.1);
    }

    #[test]
    fn configs_report_consistent_pixel_counts() {
        for cfg in [
            ImageConfig::cifar_small(),
            ImageConfig::tiny(),
            ImageConfig::femnist_small(),
            ImageConfig::celeba_small(),
        ] {
            assert_eq!(cfg.pixels(), cfg.channels * cfg.height * cfg.width);
            let data = cifar_like(&cfg, 2, 2, 1);
            assert_eq!(data.test[0].0.len(), cfg.pixels());
        }
    }
}
