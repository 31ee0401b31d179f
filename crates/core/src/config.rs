//! Experiment configuration.

use crate::{JwinsError, Result};
use jwins_fault::FaultConfig;
use jwins_net::TimeModel;
use jwins_sim::HeterogeneityProfile;
use jwins_topology::repair::RepairPolicy;
use serde::{Deserialize, Serialize};

/// Which execution substrate drives a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[non_exhaustive]
pub enum ExecutionMode {
    /// The paper's round structure: train → communicate → aggregate behind a
    /// global barrier; round time from [`TimeModel::round_seconds`].
    #[default]
    BulkSynchronous,
    /// Discrete-event asynchronous gossip: each node advances its own
    /// virtual clock through heterogeneous compute and links, mixing with
    /// whatever neighbour messages have *arrived* by its local time. With a
    /// degenerate [`HeterogeneityProfile`] this reproduces
    /// [`ExecutionMode::BulkSynchronous`] results bit-for-bit.
    EventDriven,
}

/// Knobs of one decentralized training run.
///
/// Mirrors the paper's hyperparameter surface: rounds `T`, local steps `τ`,
/// batch size `b`, learning rate `η`, plus evaluation cadence and the
/// simulated-time model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of communication rounds `T`.
    pub rounds: usize,
    /// Local SGD steps per round `τ`.
    pub local_steps: usize,
    /// Mini-batch size `b`.
    pub batch_size: usize,
    /// Learning rate `η`.
    pub lr: f32,
    /// Master seed: drives initial weights, batch order and cut-off draws.
    pub seed: u64,
    /// Evaluate every this many rounds (also evaluates the final round).
    /// `0` evaluates only at the end.
    pub eval_every: usize,
    /// Cap on test samples per evaluation (`0` = the full test set).
    pub eval_test_samples: usize,
    /// Worker threads (`0` = all available cores).
    pub threads: usize,
    /// Simulated wall-clock model. (Serialized since the event-driven
    /// runtime landed; configs now round-trip losslessly.)
    #[serde(default)]
    pub time_model: TimeModel,
    /// Execution substrate: barrier rounds or event-driven async gossip.
    #[serde(default)]
    pub execution: ExecutionMode,
    /// Hardware heterogeneity (compute speeds, link capacities) for
    /// [`ExecutionMode::EventDriven`]. The default profile is degenerate:
    /// uniform compute, instantaneous links; any other is rejected under
    /// [`ExecutionMode::BulkSynchronous`].
    #[serde(default)]
    pub heterogeneity: HeterogeneityProfile,
    /// Who is absent when, and how old a message may get: a crash/recovery
    /// plan plus message TTL/staleness caps. The plan is the one description
    /// of node churn and runs on both virtual clocks — the event scheduler
    /// crashes a node mid-round (inbox and in-flight messages destroyed, the
    /// node resumes its own round counter), the barrier scheduler samples
    /// the plan at round starts (a down node skips whole rounds and is not
    /// addressed). Staleness caps need messages that arrive late, so they are
    /// [`ExecutionMode::EventDriven`] only. The default is a strict no-op:
    /// runs reproduce their fault-free results bit-for-bit.
    #[serde(default)]
    pub faults: FaultConfig,
    /// Evaluate every this many *virtual seconds* in event-driven runs
    /// (heterogeneity-aware cadence): checkpoints fire on the simulated
    /// clock, so fast nodes' progress is visible even while a straggler is
    /// still mid-round. Checkpoint records carry
    /// [`crate::metrics::RoundRecord::checkpoint`] `= true` and never
    /// trigger early stop. `None` keeps the round-boundary cadence only;
    /// a value is rejected under [`ExecutionMode::BulkSynchronous`].
    #[serde(default)]
    pub eval_interval_s: Option<f64>,
    /// Liveness-aware topology repair for event-driven runs with a fault
    /// plan: on every crash and rejoin the affected rounds' graphs are
    /// re-resolved through [`RepairPolicy::apply`], survivors re-wire
    /// around the dead nodes (Metropolis–Hastings weights recomputed), and
    /// in-flight messages on removed edges are invalidated. The default
    /// [`RepairPolicy::None`] keeps the pre-repair engine behaviour bit for
    /// bit; non-default values are rejected under
    /// [`ExecutionMode::BulkSynchronous`], where no lifecycle exists.
    #[serde(default)]
    pub repair: RepairPolicy,
    /// Stop as soon as mean test accuracy reaches this value (Figures 5–6
    /// "run to target accuracy").
    pub target_accuracy: Option<f64>,
    /// Probability that any single message is lost in flight (extension;
    /// `0.0` = the paper's reliable TCP transport). Distinct from node
    /// churn: here the node stays up but an individual link delivery fails.
    #[serde(default)]
    pub message_loss: f64,
    /// Run telemetry: structured trace sinks and the flight-recorder bound
    /// (see `jwins_trace`). The default keeps only the always-on in-memory
    /// flight recorder — no files are written. Tracing is *observational*:
    /// any setting here leaves every [`crate::metrics::RoundRecord`] bit
    /// identical to an untraced run.
    #[serde(default)]
    pub trace: jwins_trace::TraceConfig,
    /// Metrics aggregation over the trace stream (see `jwins_metrics`):
    /// when an export path is set, a `MetricsSink` rides the tracer and
    /// writes Prometheus-text / CSV aggregates at the end of the run. Like
    /// every trace sink it is observational — any setting here leaves every
    /// [`crate::metrics::RoundRecord`] bit identical (pinned by
    /// `tests/metrics_layer.rs`).
    #[serde(default)]
    pub metrics: jwins_metrics::MetricsConfig,
    /// Byzantine attack schedule (see `jwins_adversary::AttackPlan`):
    /// marked nodes train honestly but perturb a copy of their parameters
    /// at message-build time, so attacks compose with faults, staleness,
    /// churn and repair. The default [`jwins_adversary::AttackPlan::None`]
    /// is a strict engine no-op — runs are bit-identical to the
    /// pre-adversary engine (pinned by `tests/byzantine.rs`).
    #[serde(default)]
    pub attack: jwins_adversary::AttackPlan,
    /// Ignored: the event queue is one heap. The field stays settable so
    /// that configurations naming it keep parsing; ROADMAP item 4A(c)
    /// removes it.
    #[serde(default)]
    pub shards: usize,
    /// The event loop's commit order. [`jwins_sim::Ordering::Strict`] is
    /// its only value: the observable run is the single-heap,
    /// one-event-at-a-time schedule, and the loop executes ahead only as far
    /// as the smallest link latency proves exact. A serialized config that
    /// names another ordering fails to parse.
    #[serde(default)]
    pub ordering: jwins_sim::Ordering,
    /// Robust aggregation rule applied to decoded neighbor contributions
    /// at the mixing layer (see `jwins_adversary::Robust`). Removed mass
    /// folds into the self-weight, keeping mixing row-stochastic (the
    /// `StalenessPolicy::downweight_row` contract). Only strategies whose
    /// aggregation is a partial average support it
    /// (`ShareStrategy::supports_robust`); other combinations are rejected
    /// here. The default [`jwins_adversary::Robust::None`] is a strict
    /// no-op.
    #[serde(default)]
    pub robust: jwins_adversary::Robust,
    /// Record each node's α every round (Figure 3).
    pub record_alphas: bool,
}

impl TrainConfig {
    /// A configuration with sensible defaults for `rounds` rounds.
    pub fn new(rounds: usize) -> Self {
        Self {
            rounds,
            local_steps: 3,
            batch_size: 16,
            lr: 0.05,
            seed: 42,
            eval_every: 10,
            eval_test_samples: 0,
            threads: 0,
            time_model: TimeModel::default(),
            execution: ExecutionMode::default(),
            heterogeneity: HeterogeneityProfile::default(),
            faults: FaultConfig::default(),
            eval_interval_s: None,
            repair: RepairPolicy::None,
            target_accuracy: None,
            message_loss: 0.0,
            trace: jwins_trace::TraceConfig::default(),
            metrics: jwins_metrics::MetricsConfig::default(),
            shards: 0,
            ordering: jwins_sim::Ordering::Strict,
            attack: jwins_adversary::AttackPlan::None,
            robust: jwins_adversary::Robust::None,
            record_alphas: false,
        }
    }

    /// Fluent switch to event-driven execution under `profile`.
    #[must_use]
    pub fn with_event_driven(mut self, profile: HeterogeneityProfile) -> Self {
        self.execution = ExecutionMode::EventDriven;
        self.heterogeneity = profile;
        self
    }

    /// A tiny configuration for unit tests and doctests (3 rounds).
    pub fn quick_test() -> Self {
        Self {
            rounds: 3,
            local_steps: 1,
            batch_size: 4,
            eval_every: 0,
            eval_test_samples: 16,
            threads: 1,
            ..Self::new(3)
        }
    }

    /// Fluent fault/staleness override (event-driven runs only).
    #[must_use]
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Fluent topology-repair override (event-driven runs only).
    #[must_use]
    pub fn with_repair(mut self, repair: RepairPolicy) -> Self {
        self.repair = repair;
        self
    }

    /// Fluent attack-plan override.
    #[must_use]
    pub fn with_attack(mut self, attack: jwins_adversary::AttackPlan) -> Self {
        self.attack = attack;
        self
    }

    /// Fluent robust-aggregation override.
    #[must_use]
    pub fn with_robust(mut self, robust: jwins_adversary::Robust) -> Self {
        self.robust = robust;
        self
    }

    /// Fluent seed override.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Fluent learning-rate override.
    #[must_use]
    pub fn with_lr(mut self, lr: f32) -> Self {
        self.lr = lr;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`JwinsError::InvalidConfig`] describing the first violation.
    pub fn validate(&self) -> Result<()> {
        if self.rounds == 0 {
            return Err(JwinsError::InvalidConfig("rounds must be positive".into()));
        }
        // Envelopes and the trace stamp rounds as `u32`.
        if u32::try_from(self.rounds).is_err() {
            return Err(JwinsError::InvalidConfig(format!(
                "rounds must be at most {}",
                u32::MAX
            )));
        }
        if self.local_steps == 0 {
            return Err(JwinsError::InvalidConfig(
                "local_steps must be positive".into(),
            ));
        }
        if self.batch_size == 0 {
            return Err(JwinsError::InvalidConfig(
                "batch_size must be positive".into(),
            ));
        }
        // Written to also reject NaN, which `< 0.0` alone would admit.
        if self.lr.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(JwinsError::InvalidConfig(
                "learning rate must be positive".into(),
            ));
        }
        if !(0.0..1.0).contains(&self.message_loss) {
            return Err(JwinsError::InvalidConfig(
                "message loss must be in [0, 1)".into(),
            ));
        }
        if let Some(t) = self.target_accuracy {
            if !(0.0..=1.0).contains(&t) {
                return Err(JwinsError::InvalidConfig(
                    "target accuracy must be in [0, 1]".into(),
                ));
            }
        }
        self.heterogeneity
            .validate()
            .map_err(JwinsError::InvalidConfig)?;
        self.faults.validate().map_err(JwinsError::InvalidConfig)?;
        self.time_model
            .validate()
            .map_err(JwinsError::InvalidConfig)?;
        if self.execution == ExecutionMode::BulkSynchronous && !self.faults.staleness.is_unbounded()
        {
            return Err(JwinsError::InvalidConfig(
                "staleness caps act on messages that arrive late; barrier rounds deliver \
                 everything sent, so they require event-driven execution"
                    .into(),
            ));
        }
        if self.execution == ExecutionMode::BulkSynchronous && !self.repair.is_none() {
            return Err(JwinsError::InvalidConfig(
                "topology repair tracks the event-driven lifecycle; it has no meaning \
                 under bulk-synchronous execution"
                    .into(),
            ));
        }
        if self.execution == ExecutionMode::BulkSynchronous && !self.heterogeneity.is_degenerate() {
            return Err(JwinsError::InvalidConfig(
                "a heterogeneity profile paces the event-driven clock; barrier rounds run on \
                 the time model alone, so it requires event-driven execution"
                    .into(),
            ));
        }
        if self.execution == ExecutionMode::BulkSynchronous && self.eval_interval_s.is_some() {
            return Err(JwinsError::InvalidConfig(
                "eval_interval_s schedules checkpoints on the event-driven clock; barrier \
                 rounds evaluate every eval_every rounds only, so it requires event-driven \
                 execution"
                    .into(),
            ));
        }
        if let Some(interval) = self.eval_interval_s {
            if interval.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
                || !interval.is_finite()
            {
                return Err(JwinsError::InvalidConfig(
                    "eval_interval_s must be positive and finite".into(),
                ));
            }
        }
        self.metrics.validate().map_err(JwinsError::InvalidConfig)?;
        self.attack.validate().map_err(JwinsError::InvalidConfig)?;
        self.robust.validate().map_err(JwinsError::InvalidConfig)?;
        if self.execution == ExecutionMode::EventDriven {
            // The event clock derives every node's round length from
            // compute_s; zero (or NaN/negative, which SimTime would clamp
            // to zero silently) would let one node run all its rounds at
            // t=0 before any other node starts.
            if self.time_model.compute_s.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
                || !self.time_model.compute_s.is_finite()
            {
                return Err(JwinsError::InvalidConfig(
                    "event-driven execution requires a positive, finite time_model.compute_s"
                        .into(),
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert!(TrainConfig::new(10).validate().is_ok());
        assert!(TrainConfig::quick_test().validate().is_ok());
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(TrainConfig::new(0).validate().is_err());
        let mut c = TrainConfig::new(1);
        c.lr = 0.0;
        assert!(c.validate().is_err());
        let mut c = TrainConfig::new(1);
        c.batch_size = 0;
        assert!(c.validate().is_err());
        let mut c = TrainConfig::new(1);
        c.target_accuracy = Some(1.5);
        assert!(c.validate().is_err());
        let mut c = TrainConfig::new(1);
        c.message_loss = 1.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn rounds_past_a_u32_stamp_are_rejected() {
        // Validation only: nothing is allocated per round.
        let last = u32::MAX as usize;
        assert!(TrainConfig::new(last).validate().is_ok());
        let err = TrainConfig::new(last + 1).validate().unwrap_err();
        assert!(err.to_string().contains("rounds must be at most"), "{err}");
    }

    #[test]
    fn fluent_overrides() {
        let c = TrainConfig::new(5).with_seed(7).with_lr(0.5);
        assert_eq!(c.seed, 7);
        assert_eq!(c.lr, 0.5);
        let mut c = c.with_event_driven(HeterogeneityProfile::stragglers(0.25, 4.0, 0.005, 12.5e6));
        assert_eq!(c.execution, ExecutionMode::EventDriven);
        assert!(!c.heterogeneity.is_degenerate());
        // Shards are ignored, and still accepted.
        c.shards = 8;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn bad_heterogeneity_rejected() {
        let mut c = TrainConfig::new(1);
        c.heterogeneity = HeterogeneityProfile::stragglers(2.0, 4.0, 0.0, 1e6);
        assert!(c.validate().is_err());
    }

    #[test]
    fn event_driven_requires_positive_compute() {
        let mut c = TrainConfig::new(1).with_event_driven(HeterogeneityProfile::default());
        assert!(c.validate().is_ok());
        c.time_model.compute_s = 0.0;
        assert!(c.validate().is_err());
        c.time_model.compute_s = -1.0;
        assert!(c.validate().is_err());
        c.time_model.compute_s = f64::NAN;
        assert!(c.validate().is_err());
        // The barrier engine never schedules by compute_s alone; zero stays
        // legal there.
        c.execution = ExecutionMode::BulkSynchronous;
        c.time_model.compute_s = 0.0;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn time_models_the_clocks_cannot_run_are_rejected_in_both_modes() {
        let base = TimeModel::default();
        let bad = [
            TimeModel {
                bandwidth_bps: 0.0,
                ..base
            },
            TimeModel {
                bandwidth_bps: f64::NAN,
                ..base
            },
            TimeModel {
                latency_s: -1.0,
                ..base
            },
            TimeModel {
                compute_s: f64::NAN,
                ..base
            },
        ];
        let good = [
            base,
            TimeModel::edge_100mbit(0.2),
            TimeModel::fixed_round(1.0),
            TimeModel {
                bandwidth_bps: f64::INFINITY,
                ..base
            },
        ];
        let barrier = TrainConfig::quick_test();
        let event = TrainConfig::quick_test().with_event_driven(HeterogeneityProfile::default());
        for mode in [barrier, event] {
            for time_model in bad {
                let c = TrainConfig {
                    time_model,
                    ..mode.clone()
                };
                assert!(
                    c.validate().is_err(),
                    "{time_model:?} under {:?}",
                    c.execution
                );
            }
            for time_model in good {
                let c = TrainConfig {
                    time_model,
                    ..mode.clone()
                };
                assert!(
                    c.validate().is_ok(),
                    "{time_model:?} under {:?}",
                    c.execution
                );
            }
        }
    }

    #[test]
    fn faults_require_event_driven_execution() {
        // Plans need a virtual clock, staleness caps the event one.
        use jwins_fault::{FaultOutage, FaultPlan, StalenessPolicy};
        let faults = FaultConfig {
            plan: FaultPlan::Scripted(vec![FaultOutage::new(0, 1.0, 1.0)]),
            staleness: StalenessPolicy::default(),
        };
        let c = TrainConfig::new(3).with_faults(faults.clone());
        assert!(c.validate().is_ok(), "the barrier replays a plan");
        let c = TrainConfig::new(3)
            .with_event_driven(HeterogeneityProfile::default())
            .with_faults(faults.clone());
        assert!(c.validate().is_ok());
        // A staleness cap is event-driven-only.
        let mut c = TrainConfig::new(3);
        c.faults.staleness = StalenessPolicy::drop_after_rounds(2);
        assert!(c.validate().is_err());
        c = c.with_event_driven(HeterogeneityProfile::default());
        assert!(c.validate().is_ok());
        // Degenerate fault configs are fine anywhere.
        assert!(TrainConfig::new(3).validate().is_ok());
    }

    #[test]
    fn repair_requires_event_driven_execution() {
        let mut c = TrainConfig::new(3).with_repair(RepairPolicy::DegreePreserving);
        assert!(c.validate().is_err(), "repair under the barrier rejected");
        c = c.with_event_driven(HeterogeneityProfile::default());
        assert!(c.validate().is_ok());
        // The degenerate policy is fine anywhere.
        assert!(TrainConfig::new(3)
            .with_repair(RepairPolicy::None)
            .validate()
            .is_ok());
    }

    #[test]
    fn bad_fault_and_eval_interval_values_rejected() {
        use jwins_fault::FaultPlan;
        let mut c = TrainConfig::new(3).with_event_driven(HeterogeneityProfile::default());
        c.faults.plan = FaultPlan::CorrelatedOutage {
            fraction: 2.0,
            at_s: 0.0,
            down_s: 1.0,
            rejoin: jwins_fault::RejoinMode::Warm,
        };
        assert!(c.validate().is_err());
        let mut c = TrainConfig::new(3).with_event_driven(HeterogeneityProfile::default());
        c.eval_interval_s = Some(0.0);
        assert!(c.validate().is_err());
        c.eval_interval_s = Some(f64::NAN);
        assert!(c.validate().is_err());
        c.eval_interval_s = Some(2.5);
        assert!(c.validate().is_ok());
    }

    /// The barrier scheduler reads neither a heterogeneity profile nor an
    /// evaluation interval: a config that sets either under it is rejected
    /// rather than run as if it were unset.
    #[test]
    fn event_clock_settings_require_event_driven_execution() {
        let stragglers = HeterogeneityProfile::stragglers(0.25, 4.0, 0.005, 12.5e6);
        let mut c = TrainConfig::new(3);
        c.heterogeneity = stragglers.clone();
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("heterogeneity profile"), "{err}");
        c.execution = ExecutionMode::EventDriven;
        assert!(c.validate().is_ok());

        let mut c = TrainConfig::new(3);
        c.eval_interval_s = Some(2.5);
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("eval_interval_s"), "{err}");
        c = c.with_event_driven(stragglers);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn config_round_trips_through_serde_losslessly() {
        // Regression: time_model used to be #[serde(skip)], so configs came
        // back with a default time model and any tuned bandwidth silently
        // vanished.
        let mut config = TrainConfig::new(7).with_seed(99).with_lr(0.125);
        config.time_model = jwins_net::TimeModel {
            compute_s: 0.75,
            bandwidth_bps: 1.5e6,
            latency_s: 0.025,
        };
        config.execution = ExecutionMode::EventDriven;
        config.heterogeneity = HeterogeneityProfile::stragglers(0.125, 8.0, 0.001, 2.5e7);
        config.faults = FaultConfig {
            plan: jwins_fault::FaultPlan::RandomChurn {
                mean_up_s: 30.0,
                mean_down_s: 5.0,
                horizon_s: 120.0,
                rejoin: jwins_fault::RejoinMode::Resync,
            },
            staleness: jwins_fault::StalenessPolicy::decay_after_rounds(2, 0.5),
        };
        config.eval_interval_s = Some(7.5);
        config.repair = RepairPolicy::DegreePreserving;
        config.target_accuracy = Some(0.5);
        config.message_loss = 0.125;
        config.trace = jwins_trace::TraceConfig {
            jsonl_path: Some("/tmp/run.jsonl".into()),
            chrome_path: None,
            flight_recorder_bytes: 4096,
        };
        config.metrics = jwins_metrics::MetricsConfig {
            prometheus_path: Some("/tmp/run.prom".into()),
            csv_path: Some("/tmp/run.csv".into()),
            window_s: 0.5,
        };
        config.attack = jwins_adversary::AttackPlan::RandomFraction {
            fraction: 0.25,
            from_s: 2.0,
            until_s: 60.0,
            behavior: jwins_adversary::AttackBehavior::Scale { factor: -4.0 },
        };
        config.robust = jwins_adversary::Robust::TrimmedMean { trim: 0.3 };
        config.shards = 16;
        let text = serde::json::to_string(&config);
        let back: TrainConfig = serde::json::from_str(&text).unwrap();
        assert_eq!(back.time_model, config.time_model);
        assert_eq!(back.execution, config.execution);
        assert_eq!(back.heterogeneity, config.heterogeneity);
        assert_eq!(back.faults, config.faults);
        assert_eq!(back.eval_interval_s, config.eval_interval_s);
        assert_eq!(back.repair, config.repair);
        assert_eq!(back.rounds, config.rounds);
        assert_eq!(back.lr, config.lr);
        assert_eq!(back.seed, config.seed);
        assert_eq!(back.target_accuracy, config.target_accuracy);
        assert_eq!(back.message_loss, config.message_loss);
        assert_eq!(back.trace, config.trace);
        assert_eq!(back.metrics, config.metrics);
        assert_eq!(back.attack, config.attack);
        assert_eq!(back.robust, config.robust);
        assert_eq!(back.shards, config.shards);
        assert_eq!(back.ordering, config.ordering);
    }

    #[test]
    fn bad_metrics_window_rejected() {
        let mut c = TrainConfig::new(3);
        c.metrics.window_s = 0.0;
        assert!(c.validate().is_err());
        c.metrics.window_s = f64::NAN;
        assert!(c.validate().is_err());
        c.metrics.window_s = 0.25;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn old_configs_without_new_fields_still_parse() {
        // Forward compatibility: serialized configs predating the
        // event-driven runtime omit execution/heterogeneity/time_model.
        let text = r#"{"rounds":3,"local_steps":1,"batch_size":4,"lr":0.05,
            "seed":42,"eval_every":0,"eval_test_samples":16,"threads":1,
            "target_accuracy":null,"record_alphas":false}"#;
        let config: TrainConfig = serde::json::from_str(text).unwrap();
        assert_eq!(config.execution, ExecutionMode::BulkSynchronous);
        assert!(config.heterogeneity.is_degenerate());
        assert_eq!(config.time_model, jwins_net::TimeModel::default());
        assert!(config.faults.is_noop());
        assert_eq!(config.eval_interval_s, None);
        assert_eq!(config.repair, RepairPolicy::None);
        assert_eq!(config.trace, jwins_trace::TraceConfig::default());
        assert_eq!(config.metrics, jwins_metrics::MetricsConfig::default());
        assert_eq!(config.attack, jwins_adversary::AttackPlan::None);
        assert_eq!(config.robust, jwins_adversary::Robust::None);
        assert_eq!(config.shards, 0);
        assert_eq!(config.ordering, jwins_sim::Ordering::Strict);
        assert!(config.validate().is_ok());
        // Configs written while a transport could be chosen name one; the
        // field is ignored, so they parse to the same configuration, which
        // runs on the simulated network.
        let plain = serde::json::to_string(&config);
        for transport in [
            r#""Sim""#,
            r#"{"Channel":{"mix_wait_ms":500,"poll_us":200}}"#,
        ] {
            let named = text.replace('}', &format!(r#","transport":{transport}}}"#));
            let parsed: TrainConfig = serde::json::from_str(&named).unwrap();
            assert_eq!(serde::json::to_string(&parsed), plain, "{transport}");
            assert!(parsed.validate().is_ok(), "{transport}");
        }
    }

    #[test]
    fn configs_naming_a_window_ordering_no_longer_parse() {
        let config = |ordering: &str| {
            let text = format!(
                r#"{{"rounds":3,"local_steps":1,"batch_size":4,"lr":0.05,
                "seed":42,"eval_every":0,"eval_test_samples":16,"threads":1,
                "target_accuracy":null,"record_alphas":false{ordering}}}"#
            );
            serde::json::from_str::<TrainConfig>(&text)
        };
        // A config written while the windowed ordering existed. Its one
        // field is spelled in pieces so that the deleted name appears
        // nowhere in the code.
        let field = ["max", "skew", "ns"].join("_");
        let old = format!(r#","ordering":{{"Window":{{"{field}":2500}}}}"#);
        let err = config(&old).unwrap_err();
        assert!(
            err.to_string()
                .contains("unknown Ordering variant `Window`"),
            "{err}"
        );
        for ordering in [r#","ordering":"Strict""#, ""] {
            let parsed = config(ordering).unwrap();
            assert_eq!(parsed.ordering, jwins_sim::Ordering::Strict);
        }
    }

    #[test]
    fn bad_attack_and_robust_values_rejected() {
        let mut c = TrainConfig::new(3);
        c.attack = jwins_adversary::AttackPlan::RandomFraction {
            fraction: 1.5,
            from_s: 0.0,
            until_s: 1.0,
            behavior: jwins_adversary::AttackBehavior::SignFlip,
        };
        assert!(c.validate().is_err());
        let mut c = TrainConfig::new(3);
        c.robust = jwins_adversary::Robust::TrimmedMean { trim: 0.5 };
        assert!(c.validate().is_err());
        c.robust = jwins_adversary::Robust::NormClip { tau: 0.0 };
        assert!(c.validate().is_err());
        c.robust = jwins_adversary::Robust::Median;
        assert!(c.validate().is_ok());
    }
}
