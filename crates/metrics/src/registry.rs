//! The metrics registry: windowed counters, gauges and histograms folded
//! from the trace stream into per-node and per-edge time series.

use jwins_trace::{KillReason, TraceEvent, TraceSink};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

/// Default aggregation window on the virtual clock, in seconds.
pub const DEFAULT_WINDOW_S: f64 = 1.0;

/// Upper bounds of the mix-staleness histogram buckets (seconds); the
/// implicit final bucket is `+Inf`.
const STALENESS_BUCKETS_S: [f64; 9] = [0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0];

/// Metrics-layer configuration, carried on `TrainConfig::metrics`.
///
/// The default writes nothing: the layer only activates when an export
/// path is set (or when a [`MetricsSink`] is attached explicitly). Like
/// trace sinks, attaching it is provably observational — no run output
/// bit changes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsConfig {
    /// Write the Prometheus text exposition of every aggregate here at the
    /// end of the run.
    #[serde(default)]
    pub prometheus_path: Option<String>,
    /// Write the windowed per-node/per-edge time series as CSV here at the
    /// end of the run.
    #[serde(default)]
    pub csv_path: Option<String>,
    /// Aggregation window on the virtual clock, in seconds.
    pub window_s: f64,
}

impl Default for MetricsConfig {
    fn default() -> Self {
        Self {
            prometheus_path: None,
            csv_path: None,
            window_s: DEFAULT_WINDOW_S,
        }
    }
}

impl MetricsConfig {
    /// Whether no export is configured (the layer stays detached).
    pub fn is_noop(&self) -> bool {
        self.prometheus_path.is_none() && self.csv_path.is_none()
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Describes the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.window_s.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
            || !self.window_s.is_finite()
        {
            return Err("metrics window_s must be positive and finite".into());
        }
        Ok(())
    }
}

/// Per-node running totals.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NodeStats {
    /// Messages this node put on the wire.
    pub msgs_sent: u64,
    /// Bytes this node put on the wire.
    pub bytes_sent: u64,
    /// Messages lost at send time (loss model).
    pub msgs_dropped: u64,
    /// Bytes lost at send time.
    pub bytes_dropped: u64,
    /// Training completions.
    pub trains: u64,
    /// Virtual compute nanoseconds spent training.
    pub compute_ns: u64,
    /// Messages this node mixed into its aggregate.
    pub msgs_mixed: u64,
    /// Summed age (virtual seconds) of the messages it mixed.
    pub staleness_sum_s: f64,
    /// Messages TTL-expired or purged at this node.
    pub msgs_expired: u64,
    /// Messages destroyed at this node by crash/rejoin/repair purges.
    pub msgs_killed: u64,
    /// Crashes of this node.
    pub crashes: u64,
    /// Rejoins of this node.
    pub rejoins: u64,
    /// Rounds a crash abandoned in progress at this node.
    pub rounds_abandoned: u64,
    /// Byzantine perturbations this node injected into its outbound
    /// messages.
    pub attacks_injected: u64,
    /// Neighbour contributions the robust aggregation rule screened out at
    /// this node (trimmed entries, clipped messages).
    pub robust_clipped: u64,
    /// Mixing-weight mass the robust rule moved from neighbour
    /// contributions to this node's self-weight.
    pub mass_clipped: f64,
}

/// Per-directed-edge running totals (`from → to`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EdgeStats {
    /// Messages sent on the edge.
    pub msgs: u64,
    /// Bytes sent on the edge.
    pub bytes: u64,
    /// Messages the loss model dropped on the edge.
    pub drops: u64,
    /// Summed flight time (virtual ns) of the edge's deliveries.
    pub flight_ns_sum: u64,
    /// Messages from this edge that were actually mixed by the receiver.
    pub mixed: u64,
    /// Summed mix-time staleness (virtual seconds) of those messages.
    pub staleness_sum_s: f64,
}

/// One aggregation window of the per-node series.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct NodeWindow {
    bytes_sent: u64,
    trains: u64,
    msgs_mixed: u64,
    staleness_sum_s: f64,
    msgs_expired: u64,
    attacks_injected: u64,
}

/// One aggregation window of the global series.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct GlobalWindow {
    bytes_sent: u64,
    msgs_sent: u64,
    trains: u64,
    msgs_mixed: u64,
    msgs_expired: u64,
    lifecycle_events: u64,
    queue_depth_max: u32,
    /// Last mean accuracy evaluated inside the window.
    accuracy: Option<f64>,
}

/// Whole-run header/footer facts and cross-cutting totals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunFacts {
    /// Cluster size from `RunStart` (0 before one is seen).
    pub nodes: u32,
    /// Configured rounds from `RunStart`.
    pub rounds_configured: u32,
    /// Master seed from `RunStart`.
    pub seed: u64,
    /// Final virtual time from `RunEnd` (ns).
    pub t_end_ns: u64,
    /// Rounds completed cluster-wide from `RunEnd`.
    pub rounds_run: u32,
    /// Event-queue high-water mark from `RunEnd`.
    pub queue_depth_hwm: u32,
    /// Evaluations observed.
    pub evals: u64,
    /// Last evaluated mean accuracy.
    pub final_accuracy: f64,
    /// `RoundComplete` events observed.
    pub rounds_completed: u64,
    /// Detour edges added by repair (summed over rewires).
    pub repair_edges_added: u64,
    /// Wall nanoseconds in the sequential propose phases.
    pub propose_wall_ns: u64,
    /// Wall nanoseconds in the parallel execute phases.
    pub execute_wall_ns: u64,
    /// Wall nanoseconds in the sequential commit phases.
    pub commit_wall_ns: u64,
    /// Parallel execute batches observed.
    pub batches: u64,
    /// Events those batches executed: the sum of their widths.
    pub batch_width_sum: u64,
}

/// Streaming aggregation of a trace into per-node/per-edge totals, windowed
/// time series and histograms, exportable as Prometheus text and CSV.
///
/// Feed it events with [`MetricsRegistry::observe`] (a [`MetricsSink`] does
/// this from inside a run), or fold a whole recorded stream with
/// [`MetricsRegistry::from_events`]. All internal maps are ordered, so both
/// exports are byte-deterministic for a deterministic event stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    window_ns: u64,
    run: RunFacts,
    nodes: BTreeMap<u32, NodeStats>,
    edges: BTreeMap<(u32, u32), EdgeStats>,
    global_windows: BTreeMap<u64, GlobalWindow>,
    node_windows: BTreeMap<(u32, u64), NodeWindow>,
    edge_windows: BTreeMap<(u32, u32, u64), u64>,
    /// Mix-staleness histogram: counts per `STALENESS_BUCKETS_S` bucket
    /// plus the trailing `+Inf` bucket, and the observation sum.
    staleness_counts: [u64; STALENESS_BUCKETS_S.len() + 1],
    staleness_sum_s: f64,
    /// Execute-batch width histogram over power-of-two buckets.
    width_counts: Vec<u64>,
    kills: BTreeMap<&'static str, u64>,
}

fn kill_reason_name(reason: KillReason) -> &'static str {
    match reason {
        KillReason::CrashInbox => "crash_inbox",
        KillReason::CrashInFlight => "crash_in_flight",
        KillReason::RejoinArrived => "rejoin_arrived",
        KillReason::RepairEdge => "repair_edge",
    }
}

impl MetricsRegistry {
    /// An empty registry aggregating over `window_s`-second windows of the
    /// virtual clock (clamped to at least one nanosecond).
    pub fn new(window_s: f64) -> Self {
        let window_ns = (window_s * 1e9).max(1.0) as u64;
        Self {
            window_ns: window_ns.max(1),
            ..Self::default()
        }
    }

    /// Folds a whole recorded stream.
    pub fn from_events(window_s: f64, events: &[TraceEvent]) -> Self {
        let mut registry = Self::new(window_s);
        for event in events {
            registry.observe(event);
        }
        registry
    }

    /// The aggregation window index of a virtual time.
    fn window(&self, t_ns: u64) -> u64 {
        t_ns / self.window_ns.max(1)
    }

    fn node(&mut self, node: u32) -> &mut NodeStats {
        self.nodes.entry(node).or_default()
    }

    fn node_window(&mut self, node: u32, t_ns: u64) -> &mut NodeWindow {
        let w = self.window(t_ns);
        self.node_windows.entry((node, w)).or_default()
    }

    fn global_window(&mut self, t_ns: u64) -> &mut GlobalWindow {
        let w = self.window(t_ns);
        self.global_windows.entry(w).or_default()
    }

    /// Consumes one event.
    pub fn observe(&mut self, event: &TraceEvent) {
        match *event {
            TraceEvent::RunStart {
                nodes,
                rounds,
                seed,
            } => {
                self.run.nodes = nodes;
                self.run.rounds_configured = rounds;
                self.run.seed = seed;
            }
            TraceEvent::RunEnd {
                t_ns,
                rounds_run,
                queue_depth_hwm,
            } => {
                self.run.t_end_ns = t_ns;
                self.run.rounds_run = rounds_run;
                self.run.queue_depth_hwm = queue_depth_hwm;
            }
            TraceEvent::NodeCrash { t_ns, node, .. } => {
                self.node(node).crashes += 1;
                self.global_window(t_ns).lifecycle_events += 1;
            }
            TraceEvent::NodeRejoin { t_ns, node, .. } => {
                self.node(node).rejoins += 1;
                self.global_window(t_ns).lifecycle_events += 1;
            }
            TraceEvent::MsgSend {
                t_ns,
                from,
                to,
                bytes,
                arrives_ns,
                ..
            } => {
                let n = self.node(from);
                n.msgs_sent += 1;
                n.bytes_sent += bytes;
                let e = self.edges.entry((from, to)).or_default();
                e.msgs += 1;
                e.bytes += bytes;
                e.flight_ns_sum += arrives_ns.saturating_sub(t_ns);
                let nw = self.node_window(from, t_ns);
                nw.bytes_sent += bytes;
                let w = self.window(t_ns);
                *self.edge_windows.entry((from, to, w)).or_default() += bytes;
                let gw = self.global_window(t_ns);
                gw.bytes_sent += bytes;
                gw.msgs_sent += 1;
            }
            TraceEvent::MsgDrop {
                from, to, bytes, ..
            } => {
                let n = self.node(from);
                n.msgs_dropped += 1;
                n.bytes_dropped += bytes;
                self.edges.entry((from, to)).or_default().drops += 1;
            }
            TraceEvent::MsgKill {
                node,
                count,
                reason,
                ..
            } => {
                self.node(node).msgs_killed += count;
                *self.kills.entry(kill_reason_name(reason)).or_default() += count;
            }
            TraceEvent::MsgExpire {
                t_ns, node, count, ..
            } => {
                self.node(node).msgs_expired += count;
                self.node_window(node, t_ns).msgs_expired += count;
                self.global_window(t_ns).msgs_expired += count;
            }
            TraceEvent::MsgMixed {
                t_ns,
                node,
                from,
                staleness_s,
                ..
            } => {
                let n = self.node(node);
                n.msgs_mixed += 1;
                n.staleness_sum_s += staleness_s;
                let e = self.edges.entry((from, node)).or_default();
                e.mixed += 1;
                e.staleness_sum_s += staleness_s;
                let nw = self.node_window(node, t_ns);
                nw.msgs_mixed += 1;
                nw.staleness_sum_s += staleness_s;
                self.global_window(t_ns).msgs_mixed += 1;
                let bucket = STALENESS_BUCKETS_S
                    .iter()
                    .position(|&le| staleness_s <= le)
                    .unwrap_or(STALENESS_BUCKETS_S.len());
                self.staleness_counts[bucket] += 1;
                self.staleness_sum_s += staleness_s;
            }
            TraceEvent::Train {
                t_ns,
                node,
                compute_ns,
                ..
            } => {
                let n = self.node(node);
                n.trains += 1;
                n.compute_ns += compute_ns;
                self.node_window(node, t_ns).trains += 1;
                self.global_window(t_ns).trains += 1;
            }
            TraceEvent::AttackInject { t_ns, node, .. } => {
                self.node(node).attacks_injected += 1;
                self.node_window(node, t_ns).attacks_injected += 1;
            }
            TraceEvent::RobustClip {
                node,
                clipped,
                mass,
                ..
            } => {
                let n = self.node(node);
                n.robust_clipped += clipped;
                n.mass_clipped += mass;
            }
            TraceEvent::RoundResolve { .. } => {}
            TraceEvent::RoundAbandon { node, .. } => {
                self.node(node).rounds_abandoned += 1;
            }
            TraceEvent::RoundComplete { .. } => {
                self.run.rounds_completed += 1;
            }
            TraceEvent::Eval { t_ns, accuracy, .. } => {
                self.run.evals += 1;
                self.run.final_accuracy = accuracy;
                self.global_window(t_ns).accuracy = Some(accuracy);
            }
            TraceEvent::RepairRewire { edges_added, .. } => {
                self.run.repair_edges_added += edges_added;
            }
            TraceEvent::ExecuteBatch {
                t_ns,
                width,
                queue_depth,
                propose_ns,
                execute_ns,
                commit_ns,
                ..
            } => {
                self.run.batches += 1;
                self.run.batch_width_sum += u64::from(width);
                self.run.propose_wall_ns += propose_ns;
                self.run.execute_wall_ns += execute_ns;
                self.run.commit_wall_ns += commit_ns;
                let bucket = (32 - width.max(1).leading_zeros() - 1) as usize;
                if self.width_counts.len() <= bucket {
                    self.width_counts.resize(bucket + 1, 0);
                }
                self.width_counts[bucket] += 1;
                let gw = self.global_window(t_ns);
                gw.queue_depth_max = gw.queue_depth_max.max(queue_depth);
            }
        }
    }

    /// Whole-run facts folded so far.
    pub fn run_facts(&self) -> &RunFacts {
        &self.run
    }

    /// Per-node totals, ordered by node id.
    pub fn node_stats(&self) -> &BTreeMap<u32, NodeStats> {
        &self.nodes
    }

    /// Per-directed-edge totals, ordered by `(from, to)`.
    pub fn edge_stats(&self) -> &BTreeMap<(u32, u32), EdgeStats> {
        &self.edges
    }

    /// A flat, deterministic list of `(metric, value)` summary scalars —
    /// the rows `run_diff` turns into a delta table. Cluster-wide totals
    /// only; the per-node/per-edge breakdowns live in the exports.
    pub fn summary(&self) -> Vec<(&'static str, f64)> {
        let total =
            |f: fn(&NodeStats) -> u64| -> f64 { self.nodes.values().map(f).sum::<u64>() as f64 };
        let mixed: u64 = self.nodes.values().map(|n| n.msgs_mixed).sum();
        let staleness: f64 = self.nodes.values().map(|n| n.staleness_sum_s).sum();
        vec![
            ("virtual_time_s", self.run.t_end_ns as f64 * 1e-9),
            ("rounds_run", f64::from(self.run.rounds_run)),
            ("final_accuracy", self.run.final_accuracy),
            ("evals", self.run.evals as f64),
            ("bytes_sent", total(|n| n.bytes_sent)),
            ("messages_sent", total(|n| n.msgs_sent)),
            ("messages_dropped", total(|n| n.msgs_dropped)),
            ("messages_expired", total(|n| n.msgs_expired)),
            ("messages_killed", total(|n| n.msgs_killed)),
            ("messages_mixed", mixed as f64),
            (
                "mean_mix_staleness_s",
                if mixed == 0 {
                    0.0
                } else {
                    staleness / mixed as f64
                },
            ),
            ("trains", total(|n| n.trains)),
            ("compute_virtual_s", total(|n| n.compute_ns) * 1e-9),
            ("crashes", total(|n| n.crashes)),
            ("rejoins", total(|n| n.rejoins)),
            ("rounds_abandoned", total(|n| n.rounds_abandoned)),
            ("attacks_injected", total(|n| n.attacks_injected)),
            ("robust_clipped", total(|n| n.robust_clipped)),
            (
                "mass_clipped",
                self.nodes.values().map(|n| n.mass_clipped).sum(),
            ),
            ("repair_edges_added", self.run.repair_edges_added as f64),
            ("queue_depth_hwm", f64::from(self.run.queue_depth_hwm)),
        ]
    }

    /// The Prometheus text exposition of every aggregate: run gauges,
    /// per-node and per-edge counters, the phase wall-time split and the
    /// mix-staleness/batch-width histograms. Deterministic byte-for-byte
    /// for a deterministic stream (wall-time lines excepted — they carry
    /// the `ExecuteBatch` side channel).
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut scalar = |name: &str, help: &str, kind: &str, value: f64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} {kind}");
            let _ = writeln!(out, "{name} {value}");
        };
        scalar(
            "jwins_run_virtual_time_seconds",
            "Final virtual time of the run.",
            "gauge",
            self.run.t_end_ns as f64 * 1e-9,
        );
        scalar(
            "jwins_run_rounds_completed",
            "Rounds completed cluster-wide.",
            "gauge",
            f64::from(self.run.rounds_run),
        );
        scalar(
            "jwins_run_final_accuracy",
            "Last evaluated mean test accuracy.",
            "gauge",
            self.run.final_accuracy,
        );
        scalar(
            "jwins_run_queue_depth_hwm",
            "Event-queue depth high-water mark.",
            "gauge",
            f64::from(self.run.queue_depth_hwm),
        );
        scalar(
            "jwins_repair_edges_added_total",
            "Detour edges added by topology repair.",
            "counter",
            self.run.repair_edges_added as f64,
        );

        out.push_str("# HELP jwins_phase_wall_seconds Host wall time per engine phase (nondeterministic side channel).\n");
        out.push_str("# TYPE jwins_phase_wall_seconds counter\n");
        for (phase, ns) in [
            ("propose", self.run.propose_wall_ns),
            ("execute", self.run.execute_wall_ns),
            ("commit", self.run.commit_wall_ns),
        ] {
            let _ = writeln!(
                out,
                "jwins_phase_wall_seconds{{phase=\"{phase}\"}} {}",
                ns as f64 * 1e-9
            );
        }

        let node_counter = |out: &mut String, name: &str, help: &str, f: fn(&NodeStats) -> f64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            for (node, stats) in &self.nodes {
                let _ = writeln!(out, "{name}{{node=\"{node}\"}} {}", f(stats));
            }
        };
        node_counter(
            &mut out,
            "jwins_node_bytes_sent_total",
            "Bytes this node put on the wire.",
            |n| n.bytes_sent as f64,
        );
        node_counter(
            &mut out,
            "jwins_node_messages_sent_total",
            "Messages this node put on the wire.",
            |n| n.msgs_sent as f64,
        );
        node_counter(
            &mut out,
            "jwins_node_messages_dropped_total",
            "Messages lost at send time (loss model).",
            |n| n.msgs_dropped as f64,
        );
        node_counter(
            &mut out,
            "jwins_node_messages_expired_total",
            "Messages TTL-expired or over-cap dropped at this node.",
            |n| n.msgs_expired as f64,
        );
        node_counter(
            &mut out,
            "jwins_node_messages_killed_total",
            "Messages destroyed at this node by crash/rejoin/repair purges.",
            |n| n.msgs_killed as f64,
        );
        node_counter(
            &mut out,
            "jwins_node_messages_mixed_total",
            "Messages this node mixed into its aggregate.",
            |n| n.msgs_mixed as f64,
        );
        node_counter(
            &mut out,
            "jwins_node_train_rounds_total",
            "Training completions at this node.",
            |n| n.trains as f64,
        );
        node_counter(
            &mut out,
            "jwins_node_compute_virtual_seconds_total",
            "Virtual compute seconds spent training at this node.",
            |n| n.compute_ns as f64 * 1e-9,
        );
        node_counter(
            &mut out,
            "jwins_node_crashes_total",
            "Crashes of this node.",
            |n| n.crashes as f64,
        );
        node_counter(
            &mut out,
            "jwins_node_rejoins_total",
            "Rejoins of this node.",
            |n| n.rejoins as f64,
        );
        node_counter(
            &mut out,
            "jwins_node_attacks_injected_total",
            "Byzantine perturbations this node injected into its messages.",
            |n| n.attacks_injected as f64,
        );
        node_counter(
            &mut out,
            "jwins_node_robust_clipped_total",
            "Neighbour contributions the robust rule screened out here.",
            |n| n.robust_clipped as f64,
        );
        node_counter(
            &mut out,
            "jwins_node_robust_mass_clipped_total",
            "Mixing mass the robust rule moved to this node's self-weight.",
            |n| n.mass_clipped,
        );

        out.push_str("# HELP jwins_edge_bytes_total Bytes sent on the directed edge.\n");
        out.push_str("# TYPE jwins_edge_bytes_total counter\n");
        for (&(from, to), stats) in &self.edges {
            let _ = writeln!(
                out,
                "jwins_edge_bytes_total{{from=\"{from}\",to=\"{to}\"}} {}",
                stats.bytes
            );
        }
        out.push_str(
            "# HELP jwins_edge_mean_flight_seconds Mean delivery flight time on the edge.\n",
        );
        out.push_str("# TYPE jwins_edge_mean_flight_seconds gauge\n");
        for (&(from, to), stats) in &self.edges {
            if stats.msgs > 0 {
                let _ = writeln!(
                    out,
                    "jwins_edge_mean_flight_seconds{{from=\"{from}\",to=\"{to}\"}} {}",
                    stats.flight_ns_sum as f64 * 1e-9 / stats.msgs as f64
                );
            }
        }
        out.push_str(
            "# HELP jwins_edge_mean_mix_staleness_seconds Mean age of the edge's messages when mixed.\n",
        );
        out.push_str("# TYPE jwins_edge_mean_mix_staleness_seconds gauge\n");
        for (&(from, to), stats) in &self.edges {
            if stats.mixed > 0 {
                let _ = writeln!(
                    out,
                    "jwins_edge_mean_mix_staleness_seconds{{from=\"{from}\",to=\"{to}\"}} {}",
                    stats.staleness_sum_s / stats.mixed as f64
                );
            }
        }

        out.push_str("# HELP jwins_message_kills_total Messages destroyed by purges, by reason.\n");
        out.push_str("# TYPE jwins_message_kills_total counter\n");
        for (reason, count) in &self.kills {
            let _ = writeln!(
                out,
                "jwins_message_kills_total{{reason=\"{reason}\"}} {count}"
            );
        }

        out.push_str(
            "# HELP jwins_mix_staleness_seconds Age of neighbour information at mix time.\n",
        );
        out.push_str("# TYPE jwins_mix_staleness_seconds histogram\n");
        let mut cumulative = 0u64;
        for (i, &count) in self.staleness_counts.iter().enumerate() {
            cumulative += count;
            let le = STALENESS_BUCKETS_S
                .get(i)
                .map_or("+Inf".to_owned(), |b| format!("{b}"));
            let _ = writeln!(
                out,
                "jwins_mix_staleness_seconds_bucket{{le=\"{le}\"}} {cumulative}"
            );
        }
        let _ = writeln!(
            out,
            "jwins_mix_staleness_seconds_sum {}",
            self.staleness_sum_s
        );
        let _ = writeln!(out, "jwins_mix_staleness_seconds_count {cumulative}");

        out.push_str(
            "# HELP jwins_execute_batch_width Parallel batch width (power-of-two buckets).\n",
        );
        out.push_str("# TYPE jwins_execute_batch_width histogram\n");
        let mut cumulative = 0u64;
        for (k, &count) in self.width_counts.iter().enumerate() {
            cumulative += count;
            let _ = writeln!(
                out,
                "jwins_execute_batch_width_bucket{{le=\"{}\"}} {cumulative}",
                (1u64 << (k + 1)) - 1
            );
        }
        let _ = writeln!(
            out,
            "jwins_execute_batch_width_bucket{{le=\"+Inf\"}} {cumulative}"
        );
        let _ = writeln!(out, "jwins_execute_batch_width_count {}", self.run.batches);
        out
    }

    /// The windowed time series as long-format CSV:
    /// `window_start_s,scope,id,metric,value`, rows ordered by window, then
    /// scope (`run` < `node` < `edge`), then id, then metric name.
    pub fn to_csv(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("window_start_s,scope,id,metric,value\n");
        let window_s = self.window_ns as f64 * 1e-9;
        let windows: std::collections::BTreeSet<u64> = self
            .global_windows
            .keys()
            .copied()
            .chain(self.node_windows.keys().map(|&(_, w)| w))
            .chain(self.edge_windows.keys().map(|&(_, _, w)| w))
            .collect();
        for &w in &windows {
            let start = w as f64 * window_s;
            if let Some(g) = self.global_windows.get(&w) {
                let mut row = |metric: &str, value: f64| {
                    let _ = writeln!(out, "{start:.3},run,,{metric},{value}");
                };
                row("bytes_sent", g.bytes_sent as f64);
                row("messages_sent", g.msgs_sent as f64);
                row("trains", g.trains as f64);
                row("messages_mixed", g.msgs_mixed as f64);
                row("messages_expired", g.msgs_expired as f64);
                row("lifecycle_events", g.lifecycle_events as f64);
                row("queue_depth_max", f64::from(g.queue_depth_max));
                if let Some(acc) = g.accuracy {
                    row("accuracy", acc);
                }
            }
            for (&(node, nw), stats) in self.node_windows.range((0, w)..=(u32::MAX, u64::MAX)) {
                if nw != w {
                    continue;
                }
                let mut row = |metric: &str, value: f64| {
                    let _ = writeln!(out, "{start:.3},node,{node},{metric},{value}");
                };
                row("bytes_sent", stats.bytes_sent as f64);
                row("trains", stats.trains as f64);
                row("messages_mixed", stats.msgs_mixed as f64);
                if stats.msgs_mixed > 0 {
                    row(
                        "mean_mix_staleness_s",
                        stats.staleness_sum_s / stats.msgs_mixed as f64,
                    );
                }
                if stats.msgs_expired > 0 {
                    row("messages_expired", stats.msgs_expired as f64);
                }
                if stats.attacks_injected > 0 {
                    row("attacks_injected", stats.attacks_injected as f64);
                }
            }
            for (&(from, to, ew), &bytes) in &self.edge_windows {
                if ew != w {
                    continue;
                }
                let _ = writeln!(out, "{start:.3},edge,{from}->{to},bytes_sent,{bytes}");
            }
        }
        out
    }
}

/// A cloneable [`TraceSink`] folding every event into a shared
/// [`MetricsRegistry`]. Clones share the registry: attach one handle to a
/// run (`Trainer::builder().trace_sink(..)` or `TrainConfig::metrics`) and
/// keep another to read aggregates back — live (a controller polling
/// [`MetricsSink::summary`] mid-run) or after the run. When export paths
/// are configured the sink writes them on `flush` (the engine flushes every
/// sink at the end of the run).
#[derive(Debug, Clone)]
pub struct MetricsSink {
    registry: Arc<Mutex<MetricsRegistry>>,
    prometheus_path: Option<PathBuf>,
    csv_path: Option<PathBuf>,
}

impl MetricsSink {
    /// A file-free sink aggregating over `window_s`-second windows.
    pub fn new(window_s: f64) -> Self {
        Self {
            registry: Arc::new(Mutex::new(MetricsRegistry::new(window_s))),
            prometheus_path: None,
            csv_path: None,
        }
    }

    /// Builds the sink a configuration asks for: `None` when no export
    /// path is set. Export files are created (truncated) eagerly so an
    /// unwritable path surfaces at build time, not at the end of a long
    /// run; the final contents are written on `flush`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if an export path cannot be created.
    pub fn from_config(config: &MetricsConfig) -> std::io::Result<Option<Self>> {
        if config.is_noop() {
            return Ok(None);
        }
        let mut sink = Self::new(config.window_s);
        if let Some(path) = &config.prometheus_path {
            std::fs::File::create(path)?;
            sink.prometheus_path = Some(PathBuf::from(path));
        }
        if let Some(path) = &config.csv_path {
            std::fs::File::create(path)?;
            sink.csv_path = Some(PathBuf::from(path));
        }
        Ok(Some(sink))
    }

    /// A snapshot of the shared registry.
    pub fn registry(&self) -> MetricsRegistry {
        self.registry.lock().clone()
    }

    /// The current summary scalars (see [`MetricsRegistry::summary`]).
    pub fn summary(&self) -> Vec<(&'static str, f64)> {
        self.registry.lock().summary()
    }

    /// The current Prometheus exposition.
    pub fn to_prometheus(&self) -> String {
        self.registry.lock().to_prometheus()
    }

    /// The current CSV time series.
    pub fn to_csv(&self) -> String {
        self.registry.lock().to_csv()
    }
}

impl TraceSink for MetricsSink {
    fn record(&mut self, event: &TraceEvent) {
        self.registry.lock().observe(event);
    }

    fn flush(&mut self) {
        // Telemetry is best-effort past the eager create: a disk filling
        // up mid-run must not panic the flush path.
        let registry = self.registry.lock();
        if let Some(path) = &self.prometheus_path {
            let _ = std::fs::write(path, registry.to_prometheus());
        }
        if let Some(path) = &self.csv_path {
            let _ = std::fs::write(path, registry.to_csv());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jwins_trace::BatchClass;

    fn sample_stream() -> Vec<TraceEvent> {
        vec![
            TraceEvent::RunStart {
                nodes: 3,
                rounds: 2,
                seed: 7,
            },
            TraceEvent::MsgSend {
                t_ns: 100_000_000,
                from: 0,
                to: 1,
                round: 0,
                bytes: 1000,
                arrives_ns: 300_000_000,
            },
            TraceEvent::MsgSend {
                t_ns: 1_200_000_000,
                from: 0,
                to: 1,
                round: 1,
                bytes: 1000,
                arrives_ns: 1_400_000_000,
            },
            TraceEvent::MsgDrop {
                t_ns: 100_000_000,
                from: 1,
                to: 2,
                round: 0,
                bytes: 500,
            },
            TraceEvent::Train {
                t_ns: 1_000_000_000,
                node: 1,
                round: 0,
                compute_ns: 1_000_000_000,
            },
            TraceEvent::MsgMixed {
                t_ns: 1_500_000_000,
                node: 1,
                from: 0,
                round: 0,
                sent_round: 0,
                staleness_s: 1.2,
            },
            TraceEvent::MsgExpire {
                t_ns: 1_500_000_000,
                node: 1,
                round: 0,
                count: 2,
            },
            TraceEvent::AttackInject {
                t_ns: 1_000_000_000,
                node: 2,
                round: 0,
                kind: jwins_trace::AttackKind::SignFlip,
            },
            TraceEvent::RobustClip {
                t_ns: 1_500_000_000,
                node: 1,
                round: 0,
                clipped: 3,
                mass: 0.25,
            },
            TraceEvent::ExecuteBatch {
                t_ns: 1_500_000_000,
                class: BatchClass::Mix,
                round: 0,
                width: 3,
                queue_depth: 9,
                shard: 0,
                wall_start_ns: 5,
                propose_ns: 10,
                execute_ns: 20,
                commit_ns: 30,
            },
            TraceEvent::Eval {
                t_ns: 1_600_000_000,
                round: 0,
                checkpoint: false,
                accuracy: 0.5,
            },
            TraceEvent::RunEnd {
                t_ns: 2_000_000_000,
                rounds_run: 2,
                queue_depth_hwm: 12,
            },
        ]
    }

    #[test]
    fn totals_fold_per_node_and_per_edge() {
        let r = MetricsRegistry::from_events(1.0, &sample_stream());
        assert_eq!(r.node_stats()[&0].bytes_sent, 2000);
        assert_eq!(r.node_stats()[&0].msgs_sent, 2);
        assert_eq!(r.node_stats()[&1].msgs_dropped, 1);
        assert_eq!(r.node_stats()[&1].trains, 1);
        assert_eq!(r.node_stats()[&1].msgs_mixed, 1);
        assert_eq!(r.node_stats()[&1].msgs_expired, 2);
        assert_eq!(r.node_stats()[&2].attacks_injected, 1);
        assert_eq!(r.node_stats()[&1].robust_clipped, 3);
        assert_eq!(r.node_stats()[&1].mass_clipped, 0.25);
        let edge = &r.edge_stats()[&(0, 1)];
        assert_eq!(edge.msgs, 2);
        assert_eq!(edge.bytes, 2000);
        assert_eq!(edge.flight_ns_sum, 400_000_000);
        assert_eq!(edge.mixed, 1);
        assert_eq!(r.run_facts().rounds_run, 2);
        assert_eq!(r.run_facts().batches, 1);
        assert_eq!(r.run_facts().batch_width_sum, 3);
        assert_eq!(r.run_facts().propose_wall_ns, 10);
        assert_eq!(r.run_facts().execute_wall_ns, 20);
        assert_eq!(r.run_facts().commit_wall_ns, 30);
    }

    #[test]
    fn windows_split_on_the_virtual_clock() {
        let r = MetricsRegistry::from_events(1.0, &sample_stream());
        // The two sends land in windows 0 and 1.
        let csv = r.to_csv();
        assert!(csv.starts_with("window_start_s,scope,id,metric,value\n"));
        assert!(csv.contains("0.000,node,0,bytes_sent,1000"), "{csv}");
        assert!(csv.contains("1.000,node,0,bytes_sent,1000"), "{csv}");
        assert!(csv.contains("0.000,edge,0->1,bytes_sent,1000"), "{csv}");
        assert!(csv.contains("1.000,run,,accuracy,0.5"), "{csv}");
        assert!(csv.contains("1.000,node,2,attacks_injected,1"), "{csv}");
    }

    #[test]
    fn prometheus_export_is_well_formed_and_deterministic() {
        let r = MetricsRegistry::from_events(1.0, &sample_stream());
        let text = r.to_prometheus();
        assert_eq!(text, r.to_prometheus(), "export is deterministic");
        assert!(text.contains("jwins_node_bytes_sent_total{node=\"0\"} 2000"));
        assert!(text.contains("jwins_edge_bytes_total{from=\"0\",to=\"1\"} 2000"));
        assert!(text.contains("jwins_run_final_accuracy 0.5"));
        assert!(text.contains("jwins_mix_staleness_seconds_count 1"));
        assert!(text.contains("jwins_node_attacks_injected_total{node=\"2\"} 1"));
        assert!(text.contains("jwins_node_robust_clipped_total{node=\"1\"} 3"));
        assert!(text.contains("jwins_node_robust_mass_clipped_total{node=\"1\"} 0.25"));
        // Every non-comment line is `name{labels} value` or `name value`.
        for line in text.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("metric line has a value");
            assert!(!name.is_empty());
            assert!(value.parse::<f64>().is_ok(), "unparsable value: {line}");
        }
    }

    #[test]
    fn summary_names_are_stable_and_finite() {
        let r = MetricsRegistry::from_events(1.0, &sample_stream());
        let summary = r.summary();
        let names: Vec<&str> = summary.iter().map(|(n, _)| *n).collect();
        assert!(names.contains(&"bytes_sent"));
        assert!(names.contains(&"mean_mix_staleness_s"));
        for (name, value) in &summary {
            assert!(value.is_finite(), "{name} is not finite");
        }
        // An empty registry's summary has the same shape (no NaN division).
        let empty = MetricsRegistry::new(1.0);
        assert_eq!(empty.summary().len(), summary.len());
        for (name, value) in empty.summary() {
            assert!(value.is_finite(), "{name} is not finite on empty");
        }
    }

    #[test]
    fn sink_clones_share_the_registry_and_flush_writes_exports() {
        let dir = std::env::temp_dir().join(format!("jwins-metrics-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let config = MetricsConfig {
            prometheus_path: Some(dir.join("run.prom").to_string_lossy().into_owned()),
            csv_path: Some(dir.join("run.csv").to_string_lossy().into_owned()),
            window_s: 1.0,
        };
        let sink = MetricsSink::from_config(&config).unwrap().expect("active");
        let mut attached = sink.clone();
        for event in sample_stream() {
            attached.record(&event);
        }
        attached.flush();
        assert_eq!(sink.registry().run_facts().rounds_run, 2);
        let prom = std::fs::read_to_string(dir.join("run.prom")).unwrap();
        assert_eq!(prom, sink.to_prometheus());
        let csv = std::fs::read_to_string(dir.join("run.csv")).unwrap();
        assert_eq!(csv, sink.to_csv());
    }

    #[test]
    fn noop_config_builds_no_sink_and_bad_paths_fail_eagerly() {
        assert!(MetricsSink::from_config(&MetricsConfig::default())
            .unwrap()
            .is_none());
        let bad = MetricsConfig {
            prometheus_path: Some("/nonexistent-dir-for-sure/run.prom".into()),
            ..MetricsConfig::default()
        };
        assert!(MetricsSink::from_config(&bad).is_err());
        assert!(MetricsConfig::default().validate().is_ok());
        let bad_window = MetricsConfig {
            window_s: 0.0,
            ..MetricsConfig::default()
        };
        assert!(bad_window.validate().is_err());
    }

    #[test]
    fn config_round_trips_through_serde() {
        let config = MetricsConfig {
            prometheus_path: Some("/tmp/run.prom".into()),
            csv_path: None,
            window_s: 0.5,
        };
        let back: MetricsConfig = serde::json::from_str(&serde::json::to_string(&config)).unwrap();
        assert_eq!(back, config);
        // Configs predating the metrics layer parse as the default.
        let old: MetricsConfig = serde::json::from_str(r#"{"window_s":1.0}"#).unwrap();
        assert_eq!(old, MetricsConfig::default());
    }
}
