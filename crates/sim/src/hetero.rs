//! Heterogeneity models: per-node compute speed and per-link capacity.
//!
//! Cluster heterogeneity is what separates the paper's deployment from an
//! idealized simulation: some nodes compute slower (stragglers), some links
//! are thin. Profiles here are *generative* — they expand a seed into
//! concrete per-node/per-link parameters, so an experiment's hardware is as
//! reproducible as its data split.

use crate::splitmix64;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rand_distr::{Distribution, Normal};
use serde::{Deserialize, Serialize};

/// Per-node compute-speed distribution. A node's speed is a multiplier on
/// work throughput: training that takes `c` seconds at speed 1 takes
/// `c / speed` seconds at speed `s`.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
#[non_exhaustive]
pub enum ComputeProfile {
    /// Every node computes at the same speed (no stragglers).
    #[default]
    Uniform,
    /// A `fraction` of nodes (seed-chosen) run `slowdown`× slower — the
    /// classic straggler pattern.
    Stragglers {
        /// Fraction of nodes that are slow, in `[0, 1]`.
        fraction: f64,
        /// How many times slower the stragglers run (`>= 1`).
        slowdown: f64,
    },
    /// Speeds drawn i.i.d. from a log-normal: `speed = exp(N(0, sigma))`,
    /// normalized so the *median* node has speed 1.
    LogNormal {
        /// Standard deviation of the underlying normal.
        sigma: f64,
    },
    /// Explicit per-node speeds (cycled if shorter than the node count).
    Explicit(Vec<f64>),
}

impl ComputeProfile {
    /// Expands the profile into one speed per node, deterministically in
    /// `(profile, n, seed)`.
    ///
    /// # Panics
    ///
    /// Panics on non-positive speeds/slowdowns or fractions outside `[0, 1]`
    /// — profile validity is checked at config-validation time, so reaching
    /// here with bad numbers is a bug.
    pub fn speeds(&self, n: usize, seed: u64) -> Vec<f64> {
        match self {
            ComputeProfile::Uniform => vec![1.0; n],
            ComputeProfile::Stragglers { fraction, slowdown } => {
                assert!((0.0..=1.0).contains(fraction), "straggler fraction");
                assert!(*slowdown >= 1.0, "straggler slowdown must be >= 1");
                let slow_count = (fraction * n as f64).round() as usize;
                let mut speeds = vec![1.0; n];
                // Seed-chosen straggler set: a deterministic partial shuffle.
                let mut order: Vec<usize> = (0..n).collect();
                let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5712A);
                use rand::seq::SliceRandom;
                order.shuffle(&mut rng);
                for &i in order.iter().take(slow_count) {
                    speeds[i] = 1.0 / slowdown;
                }
                speeds
            }
            ComputeProfile::LogNormal { sigma } => {
                assert!(*sigma >= 0.0 && sigma.is_finite(), "lognormal sigma");
                let normal = Normal::new(0.0, *sigma).expect("validated sigma");
                let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x0001_0CA1);
                (0..n).map(|_| f64::exp(normal.sample(&mut rng))).collect()
            }
            ComputeProfile::Explicit(list) => {
                assert!(!list.is_empty(), "explicit speeds must be non-empty");
                assert!(
                    list.iter().all(|&s| s > 0.0 && s.is_finite()),
                    "explicit speeds must be positive"
                );
                (0..n).map(|i| list[i % list.len()]).collect()
            }
        }
    }

    /// Whether this profile makes every node identical.
    pub fn is_uniform(&self) -> bool {
        match self {
            ComputeProfile::Uniform => true,
            ComputeProfile::Stragglers { fraction, slowdown } => {
                *fraction == 0.0 || *slowdown == 1.0
            }
            ComputeProfile::LogNormal { sigma } => *sigma == 0.0,
            ComputeProfile::Explicit(list) => list.windows(2).all(|w| w[0] == w[1]),
        }
    }

    /// Validates profile parameters.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            ComputeProfile::Uniform => Ok(()),
            ComputeProfile::Stragglers { fraction, slowdown } => {
                if !(0.0..=1.0).contains(fraction) {
                    return Err(format!("straggler fraction {fraction} outside [0, 1]"));
                }
                if !(*slowdown >= 1.0 && slowdown.is_finite()) {
                    return Err(format!("straggler slowdown {slowdown} must be >= 1"));
                }
                Ok(())
            }
            ComputeProfile::LogNormal { sigma } => {
                if !(*sigma >= 0.0 && sigma.is_finite()) {
                    return Err(format!("lognormal sigma {sigma} must be finite and >= 0"));
                }
                Ok(())
            }
            ComputeProfile::Explicit(list) => {
                if list.is_empty() {
                    return Err("explicit speed list is empty".into());
                }
                if let Some(bad) = list.iter().find(|&&s| !(s > 0.0 && s.is_finite())) {
                    return Err(format!("explicit speed {bad} must be positive and finite"));
                }
                Ok(())
            }
        }
    }
}

/// Concrete parameters of one directed link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkParams {
    /// One-way propagation latency in seconds.
    pub latency_s: f64,
    /// Link bandwidth in bytes per second (`f64::INFINITY` = instantaneous).
    pub bandwidth_bps: f64,
}

impl LinkParams {
    /// An instantaneous link (zero latency, infinite bandwidth).
    pub const INSTANT: LinkParams = LinkParams {
        latency_s: 0.0,
        bandwidth_bps: f64::INFINITY,
    };

    /// Time for `bytes` to fully arrive: `latency + bytes / bandwidth`.
    pub fn transfer_secs(&self, bytes: u64) -> f64 {
        if self.bandwidth_bps == f64::INFINITY {
            self.latency_s
        } else {
            self.latency_s + bytes as f64 / self.bandwidth_bps
        }
    }

    /// Serialization (transmission) time alone: `bytes / bandwidth`.
    pub fn serialize_secs(&self, bytes: u64) -> f64 {
        if self.bandwidth_bps == f64::INFINITY {
            0.0
        } else {
            bytes as f64 / self.bandwidth_bps
        }
    }
}

/// Per-link latency/bandwidth distribution over directed node pairs.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
#[non_exhaustive]
pub enum LinkProfile {
    /// Instantaneous links: zero latency, infinite bandwidth. Under this
    /// profile (and a uniform compute profile) the event-driven runtime
    /// degrades *bit-for-bit* to the bulk-synchronous engine.
    #[default]
    Instant,
    /// Every directed link shares the same latency and bandwidth.
    Uniform {
        /// One-way latency in seconds.
        latency_s: f64,
        /// Bandwidth in bytes/second.
        bandwidth_bps: f64,
    },
    /// Latency and bandwidth jittered per directed link: each link's
    /// bandwidth is `base * exp(N(0, sigma))` and latency is scaled by the
    /// inverse factor, deterministically in `(seed, from, to)`.
    LogNormal {
        /// Median one-way latency in seconds.
        latency_s: f64,
        /// Median bandwidth in bytes/second.
        bandwidth_bps: f64,
        /// Log-scale spread of per-link capacity.
        sigma: f64,
    },
}

impl LinkProfile {
    /// Parameters of the directed link `from -> to`, deterministic in
    /// `(profile, seed, from, to)` and independent of query order.
    pub fn link(&self, from: usize, to: usize, seed: u64) -> LinkParams {
        match self {
            LinkProfile::Instant => LinkParams::INSTANT,
            LinkProfile::Uniform {
                latency_s,
                bandwidth_bps,
            } => LinkParams {
                latency_s: *latency_s,
                bandwidth_bps: *bandwidth_bps,
            },
            LinkProfile::LogNormal {
                latency_s,
                bandwidth_bps,
                sigma,
            } => {
                // One standard normal from the link's own hash stream.
                let h = splitmix64(
                    seed ^ (from as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        ^ (to as u64 + 1).wrapping_mul(0xBF58_476D_1CE4_E5B9),
                );
                let mut rng = ChaCha8Rng::seed_from_u64(h);
                let normal = Normal::new(0.0, *sigma).expect("validated sigma");
                let factor = f64::exp(normal.sample(&mut rng));
                LinkParams {
                    latency_s: latency_s / factor,
                    bandwidth_bps: bandwidth_bps * factor,
                }
            }
        }
    }

    /// A latency no link of this profile undercuts, in seconds: the
    /// lookahead a conservative event scheduler may rely on (a message sent
    /// at `t` arrives no earlier than `t + min_latency_s`). Log-normal links
    /// report zero — a per-link factor `exp(N(0, sigma))` is unbounded above,
    /// so `latency_s / factor` has no positive lower bound.
    pub fn min_latency_s(&self) -> f64 {
        match self {
            LinkProfile::Instant | LinkProfile::LogNormal { .. } => 0.0,
            LinkProfile::Uniform { latency_s, .. } => *latency_s,
        }
    }

    /// Whether every link is instantaneous.
    pub fn is_instant(&self) -> bool {
        matches!(self, LinkProfile::Instant)
    }

    /// Validates profile parameters.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            LinkProfile::Instant => Ok(()),
            LinkProfile::Uniform {
                latency_s,
                bandwidth_bps,
            }
            | LinkProfile::LogNormal {
                latency_s,
                bandwidth_bps,
                ..
            } => {
                if !(*latency_s >= 0.0 && latency_s.is_finite()) {
                    return Err(format!("link latency {latency_s} must be finite and >= 0"));
                }
                // Written via partial_cmp so NaN is also rejected.
                if bandwidth_bps.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                    return Err(format!("link bandwidth {bandwidth_bps} must be positive"));
                }
                if let LinkProfile::LogNormal { sigma, .. } = self {
                    if !(*sigma >= 0.0 && sigma.is_finite()) {
                        return Err(format!("link sigma {sigma} must be finite and >= 0"));
                    }
                }
                Ok(())
            }
        }
    }
}

/// The full hardware picture of one simulated cluster: compute speeds plus
/// link capacities. [`Default`] is the *degenerate* profile (uniform
/// compute, instantaneous links) under which event-driven execution
/// reproduces bulk-synchronous execution exactly.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct HeterogeneityProfile {
    /// Per-node compute speeds.
    pub compute: ComputeProfile,
    /// Per-link latency/bandwidth.
    pub links: LinkProfile,
}

impl HeterogeneityProfile {
    /// A straggler cluster over uniform links — the profile behind the
    /// `stragglers` example and the `ext_async` benchmark.
    pub fn stragglers(fraction: f64, slowdown: f64, latency_s: f64, bandwidth_bps: f64) -> Self {
        Self {
            compute: ComputeProfile::Stragglers { fraction, slowdown },
            links: LinkProfile::Uniform {
                latency_s,
                bandwidth_bps,
            },
        }
    }

    /// Whether this profile is degenerate (uniform compute and instant
    /// links), i.e. event-driven execution equals bulk-synchronous.
    pub fn is_degenerate(&self) -> bool {
        self.compute.is_uniform() && self.links.is_instant()
    }

    /// Validates both component profiles.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        self.compute.validate()?;
        self.links.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_profile_is_flat() {
        let speeds = ComputeProfile::Uniform.speeds(5, 1);
        assert_eq!(speeds, vec![1.0; 5]);
        assert!(ComputeProfile::Uniform.is_uniform());
    }

    #[test]
    fn stragglers_hit_the_requested_fraction() {
        let profile = ComputeProfile::Stragglers {
            fraction: 0.25,
            slowdown: 4.0,
        };
        let speeds = profile.speeds(16, 7);
        let slow = speeds.iter().filter(|&&s| s < 1.0).count();
        assert_eq!(slow, 4);
        assert!(speeds.iter().all(|&s| s == 1.0 || s == 0.25));
        // Deterministic in the seed; different seeds pick different sets.
        assert_eq!(profile.speeds(16, 7), speeds);
        assert_ne!(profile.speeds(16, 8), speeds);
    }

    #[test]
    fn lognormal_speeds_are_positive_and_spread() {
        let profile = ComputeProfile::LogNormal { sigma: 0.5 };
        let speeds = profile.speeds(64, 3);
        assert!(speeds.iter().all(|&s| s > 0.0));
        let min = speeds.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = speeds.iter().cloned().fold(0.0f64, f64::max);
        assert!(max / min > 1.5, "no spread: {min}..{max}");
    }

    #[test]
    fn explicit_speeds_cycle() {
        let profile = ComputeProfile::Explicit(vec![1.0, 2.0]);
        assert_eq!(profile.speeds(5, 0), vec![1.0, 2.0, 1.0, 2.0, 1.0]);
    }

    #[test]
    fn transfer_time_composes_latency_and_bandwidth() {
        let link = LinkParams {
            latency_s: 0.5,
            bandwidth_bps: 1000.0,
        };
        assert!((link.transfer_secs(2000) - 2.5).abs() < 1e-12);
        assert_eq!(LinkParams::INSTANT.transfer_secs(u64::MAX), 0.0);
    }

    #[test]
    fn lognormal_links_are_deterministic_and_order_free() {
        let profile = LinkProfile::LogNormal {
            latency_s: 0.01,
            bandwidth_bps: 1e6,
            sigma: 0.4,
        };
        let a = profile.link(2, 5, 9);
        let b = profile.link(0, 1, 9);
        // Re-querying in any order yields identical parameters.
        assert_eq!(profile.link(2, 5, 9), a);
        assert_eq!(profile.link(0, 1, 9), b);
        assert_ne!(a, b);
        assert!(a.bandwidth_bps > 0.0 && b.latency_s > 0.0);
    }

    #[test]
    fn min_latency_is_a_floor_only_where_one_exists() {
        assert_eq!(LinkProfile::Instant.min_latency_s(), 0.0);
        let uniform = LinkProfile::Uniform {
            latency_s: 0.005,
            bandwidth_bps: 1e6,
        };
        assert_eq!(uniform.min_latency_s(), 0.005);
        assert_eq!(uniform.link(3, 4, 9).latency_s, 0.005);
        // Per-link factors are unbounded: some link always undercuts any
        // positive floor, so the profile promises none.
        let jittered = LinkProfile::LogNormal {
            latency_s: 0.005,
            bandwidth_bps: 1e6,
            sigma: 0.5,
        };
        assert_eq!(jittered.min_latency_s(), 0.0);
        let fastest = (0..64)
            .map(|to| jittered.link(0, to + 1, 9).latency_s)
            .fold(f64::INFINITY, f64::min);
        assert!(fastest < 0.005, "median latency is not a floor: {fastest}");
        assert!(fastest >= jittered.min_latency_s());
    }

    #[test]
    fn degenerate_profile_detection() {
        assert!(HeterogeneityProfile::default().is_degenerate());
        assert!(!HeterogeneityProfile::stragglers(0.5, 2.0, 0.0, 1e6).is_degenerate());
        let zero_stragglers = HeterogeneityProfile {
            compute: ComputeProfile::Stragglers {
                fraction: 0.0,
                slowdown: 8.0,
            },
            links: LinkProfile::Instant,
        };
        assert!(zero_stragglers.is_degenerate());
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(ComputeProfile::Stragglers {
            fraction: 1.5,
            slowdown: 2.0
        }
        .validate()
        .is_err());
        assert!(ComputeProfile::Explicit(vec![]).validate().is_err());
        assert!(LinkProfile::Uniform {
            latency_s: -1.0,
            bandwidth_bps: 1.0
        }
        .validate()
        .is_err());
        assert!(LinkProfile::Uniform {
            latency_s: 0.0,
            bandwidth_bps: 0.0
        }
        .validate()
        .is_err());
    }

    #[test]
    fn profiles_serde_round_trip() {
        let profile = HeterogeneityProfile::stragglers(0.2, 3.0, 0.005, 12.5e6);
        let text = serde::json::to_string(&profile);
        let back: HeterogeneityProfile = serde::json::from_str(&text).unwrap();
        assert_eq!(back, profile);
    }
}
