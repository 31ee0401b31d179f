//! Round-by-round experiment records.
//!
//! These are the series behind every figure: test accuracy and loss per
//! round (Figures 4–8, 10), cumulative bytes per node split into payload and
//! metadata (Figure 4 row 3, Figure 9), simulated wall-clock (Figure 6), and
//! the per-node sharing fractions (Figure 3).

use jwins_net::TrafficStats;
use serde::{Deserialize, Serialize};

/// One evaluation point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundRecord {
    /// Communication round (0-based; the record is taken *after* the round).
    pub round: usize,
    /// Mean training loss across nodes (last local step of the round).
    pub train_loss: f64,
    /// Mean test loss across nodes on the shared test set.
    pub test_loss: f64,
    /// Mean top-1 test accuracy across nodes.
    pub test_accuracy: f64,
    /// Mean test RMSE (regression tasks; 0 otherwise).
    pub test_rmse: f64,
    /// Mean sharing fraction α drawn this round.
    pub mean_alpha: f64,
    /// Cumulative bytes sent per node (average), total.
    pub cum_bytes_per_node: f64,
    /// Payload component of [`Self::cum_bytes_per_node`].
    pub cum_payload_per_node: f64,
    /// Metadata component of [`Self::cum_bytes_per_node`].
    pub cum_metadata_per_node: f64,
    /// Simulated wall-clock seconds elapsed since round 0.
    pub sim_time_s: f64,
    /// Mean age (in simulated seconds) of neighbour information at the
    /// moment it was mixed, cumulative over the run so far. Always `0` under
    /// bulk-synchronous execution, where every mixed message is from the
    /// current round; under event-driven gossip it quantifies how stale the
    /// consumed models were.
    #[serde(default)]
    pub mean_staleness_s: f64,
    /// Node crashes injected so far (cumulative; fault-injection runs only).
    #[serde(default)]
    pub crashes: u64,
    /// Node rejoins so far (cumulative; fault-injection runs only).
    #[serde(default)]
    pub rejoins: u64,
    /// Messages discarded by the staleness policy so far — TTL expiry at
    /// mailbox drain plus over-cap drops at mix time (cumulative).
    #[serde(default)]
    pub messages_expired: u64,
    /// Total mixing-weight mass shifted from stale neighbours to
    /// self-weights by the down-weighting policy so far (cumulative).
    #[serde(default)]
    pub downweight_mass: f64,
    /// Edges added by topology repair so far — each repaired round
    /// resolution contributes the survivor–survivor edges it wired in
    /// (cumulative; zero under `RepairPolicy::None`).
    #[serde(default)]
    pub edges_rewired: u64,
    /// Bytes *not* sent to crashed neighbours because repair removed them
    /// from the sender's topology (cumulative). Under `RepairPolicy::None`
    /// these bytes are spent on dead hosts instead — the waste the paper's
    /// cost metrics would otherwise hide.
    #[serde(default)]
    pub bandwidth_saved_bytes: u64,
    /// Byzantine perturbations injected at message-build time so far
    /// (cumulative; one per attacker per round actually sent — see
    /// `TrainConfig::attack`). Zero whenever the attack plan is a no-op.
    #[serde(default)]
    pub attacks_injected: u64,
    /// Mixing-weight mass the robust aggregation rule removed from
    /// neighbour contributions (renormalized over the survivors) so far
    /// (cumulative; see `TrainConfig::robust`). Zero under `Robust::None`.
    #[serde(default)]
    pub mass_clipped: f64,
    /// Per-node test accuracy at this evaluation, indexed by node id —
    /// exposes the fast/slow (and survivor/rejoiner) gap the cluster mean
    /// [`Self::test_accuracy`] averages away. Empty in legacy records.
    #[serde(default)]
    pub per_node_accuracy: Vec<f64>,
    /// Whether this record is a virtual-time evaluation checkpoint
    /// (`TrainConfig::eval_interval_s`) rather than a round-boundary
    /// evaluation. Checkpoints report `round` as the latest fully completed
    /// round at that instant (0 also when no round has completed yet —
    /// compare `sim_time_s` against the round-boundary records to
    /// disambiguate the earliest checkpoints).
    #[serde(default)]
    pub checkpoint: bool,
}

impl RoundRecord {
    /// Whether two records are identical down to float *bit patterns* — the
    /// comparison behind the engine's determinism guarantees (thread-count
    /// invariance, degenerate-config no-ops). Every field participates;
    /// adding a field to [`RoundRecord`] must extend this method so all
    /// callers keep the full-strength comparison.
    pub fn bits_eq(&self, other: &RoundRecord) -> bool {
        self.round == other.round
            && self.train_loss.to_bits() == other.train_loss.to_bits()
            && self.test_loss.to_bits() == other.test_loss.to_bits()
            && self.test_accuracy.to_bits() == other.test_accuracy.to_bits()
            && self.test_rmse.to_bits() == other.test_rmse.to_bits()
            && self.mean_alpha.to_bits() == other.mean_alpha.to_bits()
            && self.cum_bytes_per_node.to_bits() == other.cum_bytes_per_node.to_bits()
            && self.cum_payload_per_node.to_bits() == other.cum_payload_per_node.to_bits()
            && self.cum_metadata_per_node.to_bits() == other.cum_metadata_per_node.to_bits()
            && self.sim_time_s.to_bits() == other.sim_time_s.to_bits()
            && self.mean_staleness_s.to_bits() == other.mean_staleness_s.to_bits()
            && self.crashes == other.crashes
            && self.rejoins == other.rejoins
            && self.messages_expired == other.messages_expired
            && self.downweight_mass.to_bits() == other.downweight_mass.to_bits()
            && self.edges_rewired == other.edges_rewired
            && self.bandwidth_saved_bytes == other.bandwidth_saved_bytes
            && self.attacks_injected == other.attacks_injected
            && self.mass_clipped.to_bits() == other.mass_clipped.to_bits()
            && self.per_node_accuracy.len() == other.per_node_accuracy.len()
            && self
                .per_node_accuracy
                .iter()
                .zip(&other.per_node_accuracy)
                .all(|(a, b)| a.to_bits() == b.to_bits())
            && self.checkpoint == other.checkpoint
    }
}

/// Round and cost at which a target accuracy was first reached.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TargetHit {
    /// Round of the first evaluation at or above the target.
    pub round: usize,
    /// Simulated seconds elapsed.
    pub sim_time_s: f64,
    /// Average cumulative bytes per node at that point.
    pub bytes_per_node: f64,
}

/// The outcome of one training run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Strategy name (as reported by the per-node strategy).
    pub strategy: String,
    /// All evaluation records, in round order.
    pub records: Vec<RoundRecord>,
    /// Cluster-wide traffic totals.
    pub total_traffic: TrafficStats,
    /// Rounds actually executed (early stop can shorten a run).
    pub rounds_run: usize,
    /// First time the target accuracy was met, if one was set and reached.
    pub reached_target: Option<TargetHit>,
    /// Per-round, per-node sharing fractions (only when
    /// `TrainConfig::record_alphas` is set).
    pub alpha_history: Vec<Vec<f64>>,
    /// Mean in-flight message latency a transport *measured* during the
    /// run, in seconds: always `None`, because the simulated network models
    /// latency rather than measuring it. Kept so that code building a
    /// `RunResult` by hand still compiles. Excluded from
    /// [`Self::assert_bit_identical`].
    pub measured_latency_s: Option<f64>,
}

impl RunResult {
    /// The last evaluation record.
    pub fn final_record(&self) -> Option<&RoundRecord> {
        self.records.last()
    }

    /// Panics unless the two runs are observably identical, down to float
    /// bit patterns — record streams ([`RoundRecord::bits_eq`]), traffic
    /// totals and round counts. `label` prefixes the panic message. This is
    /// the one shared assertion behind the determinism tests and benches,
    /// so a new [`RoundRecord`] field tightens every call site at once.
    ///
    /// # Panics
    ///
    /// Panics on the first divergence, naming the record index.
    pub fn assert_bit_identical(&self, other: &RunResult, label: &str) {
        assert_eq!(self.rounds_run, other.rounds_run, "{label}: rounds_run");
        assert_eq!(
            self.total_traffic, other.total_traffic,
            "{label}: total traffic"
        );
        assert_eq!(
            self.records.len(),
            other.records.len(),
            "{label}: record count"
        );
        for (i, (x, y)) in self.records.iter().zip(&other.records).enumerate() {
            assert!(
                x.bits_eq(y),
                "{label}: record {i} diverges:\n  {x:?}\nvs\n  {y:?}"
            );
        }
    }

    /// Final mean test accuracy (0 when no evaluation ran).
    pub fn final_accuracy(&self) -> f64 {
        self.final_record().map_or(0.0, |r| r.test_accuracy)
    }

    /// Round-boundary evaluation records only (virtual-time checkpoints
    /// filtered out).
    pub fn round_records(&self) -> impl Iterator<Item = &RoundRecord> {
        self.records.iter().filter(|r| !r.checkpoint)
    }

    /// Virtual-time evaluation checkpoints only
    /// (`TrainConfig::eval_interval_s`).
    pub fn checkpoints(&self) -> impl Iterator<Item = &RoundRecord> {
        self.records.iter().filter(|r| r.checkpoint)
    }

    /// Total bytes sent by the whole cluster, in GiB.
    pub fn total_gib_sent(&self) -> f64 {
        self.total_traffic.bytes_sent as f64 / (1024.0 * 1024.0 * 1024.0)
    }

    /// Serializes the records as CSV (header + one row per evaluation).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "round,train_loss,test_loss,test_accuracy,test_rmse,mean_alpha,\
             cum_bytes_per_node,cum_payload_per_node,cum_metadata_per_node,sim_time_s,\
             mean_staleness_s,crashes,rejoins,messages_expired,downweight_mass,checkpoint,\
             edges_rewired,bandwidth_saved_bytes,attacks_injected,mass_clipped,\
             per_node_accuracy\n",
        );
        for r in &self.records {
            // Per-node accuracies stay one CSV cell, ';'-separated, so the
            // row shape is independent of the cluster size.
            let per_node = r
                .per_node_accuracy
                .iter()
                .map(|a| format!("{a:.6}"))
                .collect::<Vec<_>>()
                .join(";");
            out.push_str(&format!(
                "{},{:.6},{:.6},{:.6},{:.6},{:.4},{:.0},{:.0},{:.0},{:.3},{:.4},{},{},{},{:.4},{},{},{},{},{:.4},{}\n",
                r.round,
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
                r.crashes,
                r.rejoins,
                r.messages_expired,
                r.downweight_mass,
                u8::from(r.checkpoint),
                r.edges_rewired,
                r.bandwidth_saved_bytes,
                r.attacks_injected,
                r.mass_clipped,
                per_node
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(round: usize, acc: f64) -> RoundRecord {
        RoundRecord {
            round,
            train_loss: 1.0,
            test_loss: 0.9,
            test_accuracy: acc,
            test_rmse: 0.0,
            mean_alpha: 0.34,
            cum_bytes_per_node: 1000.0,
            cum_payload_per_node: 900.0,
            cum_metadata_per_node: 100.0,
            sim_time_s: 12.5,
            mean_staleness_s: 0.0,
            crashes: 0,
            rejoins: 0,
            messages_expired: 0,
            downweight_mass: 0.0,
            edges_rewired: 0,
            bandwidth_saved_bytes: 0,
            attacks_injected: 0,
            mass_clipped: 0.0,
            per_node_accuracy: vec![acc; 2],
            checkpoint: false,
        }
    }

    #[test]
    fn final_accessors() {
        let result = RunResult {
            strategy: "jwins".into(),
            records: vec![record(0, 0.1), record(10, 0.5)],
            total_traffic: TrafficStats::default(),
            rounds_run: 11,
            reached_target: None,
            alpha_history: Vec::new(),
            measured_latency_s: None,
        };
        assert_eq!(result.final_accuracy(), 0.5);
        assert_eq!(result.final_record().unwrap().round, 10);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let result = RunResult {
            strategy: "full-sharing".into(),
            records: vec![record(0, 0.2)],
            total_traffic: TrafficStats::default(),
            rounds_run: 1,
            reached_target: None,
            alpha_history: Vec::new(),
            measured_latency_s: None,
        };
        let csv = result.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("round,"));
        assert!(lines[0].ends_with("per_node_accuracy"));
        assert!(lines[1].starts_with("0,"));
        assert!(
            lines[1].ends_with("0.200000;0.200000"),
            "per-node accuracies join with ';': {}",
            lines[1]
        );
        // One cell per header column regardless of cluster size.
        assert_eq!(
            lines[0].split(',').count(),
            lines[1].split(',').count(),
            "row shape matches header"
        );
    }

    #[test]
    fn bits_eq_covers_the_new_fields() {
        let a = record(0, 0.5);
        assert!(a.bits_eq(&a.clone()));
        let mut b = a.clone();
        b.edges_rewired = 1;
        assert!(!a.bits_eq(&b));
        let mut b = a.clone();
        b.bandwidth_saved_bytes = 1;
        assert!(!a.bits_eq(&b));
        let mut b = a.clone();
        b.attacks_injected = 1;
        assert!(!a.bits_eq(&b));
        let mut b = a.clone();
        b.mass_clipped = 0.5;
        assert!(!a.bits_eq(&b));
        let mut b = a.clone();
        b.per_node_accuracy[1] = 0.25;
        assert!(!a.bits_eq(&b));
        let mut b = a.clone();
        b.per_node_accuracy.pop();
        assert!(!a.bits_eq(&b));
    }

    #[test]
    fn empty_run_is_safe() {
        let result = RunResult {
            strategy: "jwins".into(),
            records: Vec::new(),
            total_traffic: TrafficStats::default(),
            rounds_run: 0,
            reached_target: None,
            alpha_history: Vec::new(),
            measured_latency_s: None,
        };
        assert_eq!(result.final_accuracy(), 0.0);
        assert!(result.final_record().is_none());
    }
}
