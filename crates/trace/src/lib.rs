//! Deterministic run telemetry for the JWINS engine.
//!
//! The engine's `RoundRecord` stream says *what* a run achieved; this crate
//! records *why* — per-event lifecycle telemetry (crashes, kills, expiries,
//! repair rewires, attacks and robust clipping) and per-batch execute records
//! (batch width, queue depth, propose/execute/commit wall-nanos) — without
//! ever being allowed to change a result.
//!
//! # The determinism contract
//!
//! Every [`TraceEvent`] is emitted from *sequential* engine code (the
//! propose or commit phase of the event loop, or the barrier phases of the
//! synchronous engine), in pop order. Emission reads engine state but never
//! writes it: no RNG draw, no float accumulation, no queue push happens on
//! behalf of tracing, so a run with any combination of sinks attached is
//! bit-identical to the untraced run (`tests/trace_determinism.rs` enforces
//! this under faults + repair + staleness at 1/2/8 threads).
//!
//! Wall-clock timings are the one unavoidable nondeterminism: they live in
//! the dedicated fields of [`TraceEvent::ExecuteBatch`] (a side channel
//! excluded from every bit-equality check) and can be stripped with
//! [`TraceEvent::canonical`], after which a trace is itself invariant under
//! the worker-thread count.
//!
//! # Sinks
//!
//! - [`JsonlWriter`] — one JSON object per line, the archival format
//!   consumed by the `trace_report` bin;
//! - [`MemorySink`] — a cloneable in-memory collector for tests and
//!   controllers;
//! - [`FlightRecorder`] — a byte-bounded ring that is cheap enough to leave
//!   always-on; the [`Tracer`] keeps one internally and dumps its tail on
//!   panic or protocol violation;
//! - [`ChromeTraceWriter`] — a Chrome trace-event (Perfetto-loadable) JSON
//!   export of the propose/execute/commit spans.

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod chrome;
mod event;
pub mod replay;
mod sink;
mod tracer;

pub use chrome::ChromeTraceWriter;
pub use event::{AttackKind, BatchClass, KillReason, TraceEvent};
pub use replay::{read_jsonl, ParsedTrace};
pub use sink::{FlightRecorder, JsonlWriter, MemorySink, TraceSink};
pub use tracer::{FlightDumpGuard, TraceConfig, Tracer, DEFAULT_FLIGHT_RECORDER_BYTES};
