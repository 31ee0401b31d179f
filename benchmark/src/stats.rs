//! Order statistics and the run fingerprint.

use jwins::metrics::{RoundRecord, RunResult};

/// Median of `values` (mean of the two middle elements for even counts).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The `p`-th percentile (`0 <= p <= 100`) by linear interpolation between
/// closest ranks.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let sorted = sorted(values);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// First, second and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives them —
/// the spread rule of the benchmark contract is stated in those terms.
///
/// # Panics
///
/// Panics on fewer than two values or a NaN.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let sorted = sorted(values);
    let n = sorted.len();
    assert!(n >= 2, "quartiles need at least two values");
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median — the spread the contract
/// compares against a metric's bound.
pub fn relative_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2.abs()
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "order statistic of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    v
}

/// 64-bit FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Fingerprint {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The scalar float fields of a record (the per-node accuracies aside).
fn floats(r: &RoundRecord) -> [f64; 12] {
    [
        r.train_loss,
        r.test_loss,
        r.test_accuracy,
        r.test_rmse,
        r.mean_alpha,
        r.cum_bytes_per_node,
        r.cum_payload_per_node,
        r.cum_metadata_per_node,
        r.sim_time_s,
        r.mean_staleness_s,
        r.downweight_mass,
        r.mass_clipped,
    ]
}

/// Folds every field [`RoundRecord::bits_eq`] compares, as bit patterns.
fn fold_record(fp: &mut Fingerprint, r: &RoundRecord) {
    fp.word(r.round as u64);
    for x in floats(r) {
        fp.float(x);
    }
    for w in [
        r.crashes,
        r.rejoins,
        r.messages_expired,
        r.edges_rewired,
        r.bandwidth_saved_bytes,
        r.attacks_injected,
        u64::from(r.checkpoint),
        r.per_node_accuracy.len() as u64,
    ] {
        fp.word(w);
    }
    for &a in &r.per_node_accuracy {
        fp.float(a);
    }
}

/// The run's identity: every record's bit patterns, the traffic totals and
/// the round count — what `RunResult::assert_bit_identical` compares, as
/// one number a child process can print.
pub fn fingerprint(result: &RunResult) -> u64 {
    let mut fp = Fingerprint::new();
    fp.word(result.rounds_run as u64);
    fp.word(result.records.len() as u64);
    for r in &result.records {
        fold_record(&mut fp, r);
    }
    let t = &result.total_traffic;
    for w in [
        t.bytes_sent,
        t.bytes_received,
        t.payload_sent,
        t.metadata_sent,
        t.messages_sent,
        t.messages_dropped,
        t.messages_expired,
    ] {
        fp.word(w);
    }
    fp.finish()
}

/// Whether every float the run reported is finite.
pub fn all_finite(result: &RunResult) -> bool {
    result.records.iter().all(|r| {
        floats(r)
            .iter()
            .chain(&r.per_node_accuracy)
            .all(|x| x.is_finite())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use jwins_net::TrafficStats;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_interpolates() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 95.0), 96.0);
        assert_eq!(percentile(&v, 100.0), 101.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((relative_spread(&v) - 1.0).abs() < 1e-12);
    }

    fn sample_result() -> RunResult {
        let record = RoundRecord {
            round: 3,
            train_loss: 1.25,
            test_loss: 0.75,
            test_accuracy: 0.5,
            test_rmse: 0.0,
            mean_alpha: 0.3,
            cum_bytes_per_node: 1000.0,
            cum_payload_per_node: 900.0,
            cum_metadata_per_node: 100.0,
            sim_time_s: 2.5,
            mean_staleness_s: 0.0,
            crashes: 0,
            rejoins: 0,
            messages_expired: 0,
            downweight_mass: 0.0,
            edges_rewired: 0,
            bandwidth_saved_bytes: 0,
            attacks_injected: 0,
            mass_clipped: 0.0,
            per_node_accuracy: vec![0.25, 0.75],
            checkpoint: false,
        };
        RunResult {
            strategy: "x".into(),
            records: vec![record],
            total_traffic: TrafficStats::default(),
            rounds_run: 4,
            reached_target: None,
            alpha_history: Vec::new(),
            measured_latency_s: None,
        }
    }

    #[test]
    fn fingerprint_flips_on_one_ulp() {
        let base = sample_result();
        let reference = fingerprint(&base);
        assert_eq!(reference, fingerprint(&sample_result()));

        let mut ulp = sample_result();
        let loss = ulp.records[0].test_loss;
        ulp.records[0].test_loss = f64::from_bits(loss.to_bits() + 1);
        assert_ne!(reference, fingerprint(&ulp));

        let mut node = sample_result();
        node.records[0].per_node_accuracy[1] = f64::from_bits(0.75f64.to_bits() + 1);
        assert_ne!(reference, fingerprint(&node));

        let mut traffic = sample_result();
        traffic.total_traffic.bytes_received = 1;
        assert_ne!(reference, fingerprint(&traffic));
    }

    #[test]
    fn non_finite_fields_are_caught() {
        assert!(all_finite(&sample_result()));
        let mut bad = sample_result();
        bad.records[0].train_loss = f64::NAN;
        assert!(!all_finite(&bad));
        let mut bad_node = sample_result();
        bad_node.records[0].per_node_accuracy[0] = f64::INFINITY;
        assert!(!all_finite(&bad_node));
    }
}
