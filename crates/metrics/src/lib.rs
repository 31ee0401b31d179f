//! Turning the trace stream into answers.
//!
//! `jwins_trace` records *what happened*; this crate answers the two
//! questions the raw stream cannot: **where did the time and bytes go**
//! (the [`MetricsRegistry`] — windowed per-node and per-edge series,
//! exported as Prometheus text and CSV) and **what bounded the result**
//! (the [`CriticalPath`] analyzer — the causal chain of node and link
//! events behind a run's virtual time-to-accuracy, with per-node/per-edge
//! blame shares). The [`diff`] module compares two runs structurally so a
//! determinism break or bench regression arrives with its first divergent
//! event attached (`run_diff` bin in `jwins_bench`).
//!
//! Everything here consumes [`jwins_trace::TraceEvent`]s — live through a
//! [`MetricsSink`] attached to a run (via `TrainConfig::metrics` or
//! `Trainer::builder().trace_sink(..)`), or post hoc from a recorded JSONL
//! trace (`jwins_trace::read_jsonl`). Like every sink, the metrics layer is
//! purely observational: attaching it changes no bit of any run output
//! (`tests/metrics_layer.rs` pins this with the trace-determinism harness).

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod critical_path;
pub mod diff;
mod registry;

pub use critical_path::{BlameShare, CriticalPath, PathError, Segment, SegmentKind};
pub use registry::{MetricsConfig, MetricsRegistry, MetricsSink, DEFAULT_WINDOW_S};
