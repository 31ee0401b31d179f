//! Simulated wall-clock model.
//!
//! The paper reports wall-clock time on a 6-machine cluster where nodes are
//! CPU-rich but bandwidth-constrained (e.g. "JWINS took 14 min and random
//! sampling 53 min", §IV-C-3). In a single-process simulation, time must be
//! modelled: a bulk-synchronous round costs local compute plus one message
//! latency plus the transfer time of the *slowest* node (rounds are
//! barrier-synchronized, so the stragglers dominate — the same reason the
//! paper's low-budget experiments win on time).

use serde::{Deserialize, Serialize};

/// Parameters of the per-round time model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimeModel {
    /// Seconds of local compute per training round (τ SGD steps).
    pub compute_s: f64,
    /// Link bandwidth in bytes/second (per node).
    pub bandwidth_bps: f64,
    /// One-way message latency in seconds.
    pub latency_s: f64,
}

impl TimeModel {
    /// A 100 Mbit/s edge-device profile with 5 ms latency.
    pub fn edge_100mbit(compute_s: f64) -> Self {
        Self {
            compute_s,
            bandwidth_bps: 100.0e6 / 8.0,
            latency_s: 0.005,
        }
    }

    /// Every round costs exactly `round_s` seconds whatever is sent: compute
    /// only, over links too fast to register. Lets a virtual-time schedule
    /// (a fault plan, an attack window) be written in rounds. The bandwidth
    /// is the largest finite one rather than ∞, which JSON cannot carry.
    pub fn fixed_round(round_s: f64) -> Self {
        Self {
            compute_s: round_s,
            bandwidth_bps: f64::MAX,
            latency_s: 0.0,
        }
    }

    /// Validates the model's parameters: a latency and a compute time that
    /// are finite and non-negative, and a positive bandwidth (`f64::MAX`, as
    /// [`TimeModel::fixed_round`] uses, and ∞ pass). Anything else would
    /// make [`TimeModel::round_seconds`] panic or run the clock backwards or
    /// into NaN.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        let Self {
            compute_s,
            bandwidth_bps,
            latency_s,
        } = *self;
        if !(latency_s >= 0.0 && latency_s.is_finite()) {
            return Err(format!(
                "time_model.latency_s {latency_s} must be finite and >= 0"
            ));
        }
        // Written via partial_cmp so NaN is also rejected.
        if bandwidth_bps.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(format!(
                "time_model.bandwidth_bps {bandwidth_bps} must be positive"
            ));
        }
        if !(compute_s >= 0.0 && compute_s.is_finite()) {
            return Err(format!(
                "time_model.compute_s {compute_s} must be finite and >= 0"
            ));
        }
        Ok(())
    }

    /// Seconds one synchronous round takes when the busiest node sends
    /// `max_node_bytes` in total.
    ///
    /// # Panics
    ///
    /// Panics if the bandwidth is not positive.
    pub fn round_seconds(&self, max_node_bytes: u64) -> f64 {
        assert!(self.bandwidth_bps > 0.0, "bandwidth must be positive");
        self.compute_s + self.latency_s + max_node_bytes as f64 / self.bandwidth_bps
    }
}

impl Default for TimeModel {
    /// Default profile used by the experiment harnesses.
    fn default() -> Self {
        Self::edge_100mbit(0.05)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_time_composition() {
        let m = TimeModel {
            compute_s: 1.0,
            bandwidth_bps: 1000.0,
            latency_s: 0.5,
        };
        assert!((m.round_seconds(2000) - (1.0 + 0.5 + 2.0)).abs() < 1e-12);
        assert!((m.round_seconds(0) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn fixed_rounds_ignore_bytes_and_survive_json() {
        let m = TimeModel::fixed_round(1.0);
        assert_eq!(m.round_seconds(0), 1.0);
        assert_eq!(m.round_seconds(u64::MAX), 1.0);
        let back: TimeModel = serde::json::from_str(&serde::json::to_string(&m)).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn fewer_bytes_is_faster() {
        let m = TimeModel::default();
        assert!(m.round_seconds(1_000) < m.round_seconds(1_000_000));
    }

    #[test]
    fn serde_round_trip_is_lossless() {
        let m = TimeModel {
            compute_s: 0.125,
            bandwidth_bps: 12.5e6,
            latency_s: 0.005,
        };
        let text = serde::json::to_string(&m);
        let back: TimeModel = serde::json::from_str(&text).unwrap();
        assert_eq!(back, m);
    }
}
