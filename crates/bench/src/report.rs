//! Machine-readable bench reports for the CI `bench-smoke` gate.
//!
//! Benches that participate in the perf trajectory append structured
//! results — wall-time plus the bytes/accuracy numbers the paper's cost
//! metrics are built from — to the JSON array named by the
//! `JWINS_BENCH_JSON` environment variable (typically `BENCH_pr.json` in
//! CI, uploaded as an artifact). The `bench_gate` binary then compares a
//! PR's report against the checked-in `BENCH_baseline.json` and fails the
//! job when any case's wall-time regresses beyond the allowed ratio.

use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// One bench case's structured result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchCase {
    /// Bench target name (e.g. `ext_repair`).
    pub bench: String,
    /// Case label within the bench (e.g. `degree-preserving/full-sharing`).
    pub case: String,
    /// Host wall-clock seconds the case took (the regression gate input).
    pub wall_s: f64,
    /// Cumulative bytes sent per node at the end of the run.
    pub bytes_per_node: f64,
    /// Final mean test accuracy.
    pub final_accuracy: f64,
    /// Bytes per node per unit of final accuracy (lower = cheaper). `-1`
    /// when the run never reached positive accuracy — the quotient is
    /// undefined there, and a non-finite value would not survive the JSON
    /// round-trip (the serializer writes non-finite floats as `null`).
    pub bytes_per_accuracy: f64,
    /// Wall seconds spent in the sequential propose phases, summed over the
    /// run's `ExecuteBatch` trace records. `0` when the case ran without a
    /// trace collector attached (older reports parse the same way).
    #[serde(default)]
    pub propose_s: f64,
    /// Wall seconds in the parallel execute phases.
    #[serde(default)]
    pub execute_s: f64,
    /// Wall seconds in the sequential commit phases.
    #[serde(default)]
    pub commit_s: f64,
}

/// Propose/execute/commit wall-time totals folded from a trace. The phase
/// split shows where a configuration's wall time actually goes — a parallel
/// speedup can only shrink `execute_s`, so a case dominated by the
/// sequential phases has no headroom regardless of thread count.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTotals {
    /// Sequential propose wall seconds.
    pub propose_s: f64,
    /// Parallel execute wall seconds.
    pub execute_s: f64,
    /// Sequential commit wall seconds.
    pub commit_s: f64,
}

impl PhaseTotals {
    /// Adds `event`'s phase spans if it is an `ExecuteBatch` record.
    fn add(&mut self, event: &jwins_trace::TraceEvent) {
        if let jwins_trace::TraceEvent::ExecuteBatch {
            propose_ns,
            execute_ns,
            commit_ns,
            ..
        } = *event
        {
            self.propose_s += propose_ns as f64 * 1e-9;
            self.execute_s += execute_ns as f64 * 1e-9;
            self.commit_s += commit_ns as f64 * 1e-9;
        }
    }

    /// Sums the phase spans of every `ExecuteBatch` record in `events`.
    pub fn from_events(events: &[jwins_trace::TraceEvent]) -> Self {
        let mut totals = Self::default();
        events.iter().for_each(|event| totals.add(event));
        totals
    }
}

/// A trace sink that folds [`PhaseTotals`] as the events arrive instead of
/// keeping them: `ext_scale` reports peak RSS, which a `MemorySink` holding
/// the whole trace of a 10k-node run would dominate. Clones share the
/// totals, so a handle kept outside the engine reads them after the run.
#[derive(Debug, Clone, Default)]
pub struct PhaseSink {
    totals: std::sync::Arc<std::sync::Mutex<PhaseTotals>>,
}

impl PhaseSink {
    /// The totals folded so far.
    pub fn totals(&self) -> PhaseTotals {
        *self.lock()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PhaseTotals> {
        // An addition leaves the totals valid at every step, so a lock
        // poisoned by a panic elsewhere loses nothing.
        self.totals
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl jwins_trace::TraceSink for PhaseSink {
    fn record(&mut self, event: &jwins_trace::TraceEvent) {
        self.lock().add(event);
    }
}

impl BenchCase {
    /// Builds a case from a finished run.
    pub fn from_result(
        bench: &str,
        case: &str,
        wall_s: f64,
        result: &jwins::metrics::RunResult,
    ) -> Self {
        let last = result.final_record();
        let bytes_per_node = last.map_or(0.0, |r| r.cum_bytes_per_node);
        let final_accuracy = last.map_or(0.0, |r| r.test_accuracy);
        let bytes_per_accuracy = if final_accuracy > 0.0 {
            bytes_per_node / final_accuracy
        } else {
            -1.0
        };
        Self {
            bench: bench.to_owned(),
            case: case.to_owned(),
            wall_s,
            bytes_per_node,
            final_accuracy,
            bytes_per_accuracy,
            propose_s: 0.0,
            execute_s: 0.0,
            commit_s: 0.0,
        }
    }

    /// Attaches phase-time totals folded from the run's trace.
    #[must_use]
    pub fn with_phases(mut self, phases: PhaseTotals) -> Self {
        self.propose_s = phases.propose_s;
        self.execute_s = phases.execute_s;
        self.commit_s = phases.commit_s;
        self
    }
}

/// The report path, if `JWINS_BENCH_JSON` is set.
pub fn report_path() -> Option<PathBuf> {
    std::env::var_os("JWINS_BENCH_JSON").map(PathBuf::from)
}

/// Appends `cases` to the JSON array at `$JWINS_BENCH_JSON`; a no-op when
/// the variable is unset, so ordinary bench runs stay file-free. Multiple
/// bench binaries append to the same file sequentially (CI runs them one
/// after another).
///
/// # Panics
///
/// Panics when the file already exists but cannot be parsed, or the write
/// fails — silently resetting the array would make the downstream
/// `bench_gate` report the *earlier* benches as "missing" and hide the
/// real fault (truncated write, full disk).
pub fn append_cases(cases: &[BenchCase]) {
    let Some(path) = report_path() else {
        return;
    };
    let mut all: Vec<BenchCase> = match std::fs::read_to_string(&path) {
        Ok(text) => serde::json::from_str(&text).unwrap_or_else(|e| {
            panic!(
                "existing bench report {} is unparsable ({e:?}); refusing to overwrite it",
                path.display()
            )
        }),
        // Only a genuinely missing file starts a fresh report; any other
        // read error (permissions, I/O) would silently drop the earlier
        // benches' cases and misdiagnose as "missing" at the gate.
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => panic!("cannot read bench report {}: {e}", path.display()),
    };
    all.extend(cases.iter().cloned());
    std::fs::write(&path, serde::json::to_string(&all))
        .unwrap_or_else(|e| panic!("cannot write bench report {}: {e}", path.display()));
    println!("  [bench-json] {} ({} cases)", path.display(), all.len());
}

/// Loads a report file written by [`append_cases`].
///
/// # Errors
///
/// Describes unreadable or unparsable files.
pub fn load_cases(path: &Path) -> Result<Vec<BenchCase>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde::json::from_str(&text).map_err(|e| format!("cannot parse {}: {e:?}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_round_trip_through_json() {
        let cases = vec![
            BenchCase {
                bench: "ext_repair".into(),
                case: "no-repair/full-sharing".into(),
                wall_s: 1.25,
                bytes_per_node: 1024.0,
                final_accuracy: 0.5,
                bytes_per_accuracy: 2048.0,
                propose_s: 0.0,
                execute_s: 0.0,
                commit_s: 0.0,
            },
            BenchCase {
                bench: "ext_parallel".into(),
                case: "threads-2".into(),
                wall_s: 0.75,
                bytes_per_node: 512.0,
                final_accuracy: 0.25,
                bytes_per_accuracy: 2048.0,
                propose_s: 0.01,
                execute_s: 0.6,
                commit_s: 0.02,
            },
        ];
        let text = serde::json::to_string(&cases);
        let back: Vec<BenchCase> = serde::json::from_str(&text).unwrap();
        assert_eq!(back, cases);
    }

    #[test]
    fn reports_without_phase_fields_still_parse() {
        // BENCH_baseline.json predates the phase-time columns; the gate must
        // keep reading it.
        let old = r#"[{"bench":"b","case":"c","wall_s":1.0,"bytes_per_node":2.0,
            "final_accuracy":0.5,"bytes_per_accuracy":4.0}]"#;
        let back: Vec<BenchCase> = serde::json::from_str(old).unwrap();
        assert_eq!(back[0].propose_s, 0.0);
        assert_eq!(back[0].execute_s, 0.0);
        assert_eq!(back[0].commit_s, 0.0);
    }

    #[test]
    fn phase_totals_fold_execute_batches() {
        use jwins_trace::{BatchClass, TraceEvent};
        let events = vec![
            TraceEvent::RoundComplete { t_ns: 5, round: 0 },
            TraceEvent::ExecuteBatch {
                t_ns: 1,
                class: BatchClass::Train,
                round: 0,
                width: 4,
                queue_depth: 8,
                shard: 0,
                wall_start_ns: 0,
                propose_ns: 1_000_000,
                execute_ns: 5_000_000,
                commit_ns: 2_000_000,
            },
            TraceEvent::ExecuteBatch {
                t_ns: 2,
                class: BatchClass::Mix,
                round: 0,
                width: 4,
                queue_depth: 4,
                shard: 1,
                wall_start_ns: 10,
                propose_ns: 500_000,
                execute_ns: 1_500_000,
                commit_ns: 1_000_000,
            },
        ];
        let totals = PhaseTotals::from_events(&events);
        // The folding sink sees the same stream and arrives at the same sums.
        let sink = PhaseSink::default();
        let mut attached: Box<dyn jwins_trace::TraceSink> = Box::new(sink.clone());
        events.iter().for_each(|event| attached.record(event));
        assert_eq!(sink.totals(), totals);
        assert!((totals.propose_s - 0.0015).abs() < 1e-12);
        assert!((totals.execute_s - 0.0065).abs() < 1e-12);
        assert!((totals.commit_s - 0.003).abs() < 1e-12);
        let case = BenchCase::from_result(
            "b",
            "c",
            1.0,
            &jwins::metrics::RunResult {
                strategy: "test".into(),
                records: Vec::new(),
                total_traffic: jwins_net::TrafficStats::default(),
                rounds_run: 0,
                reached_target: None,
                alpha_history: Vec::new(),
                measured_latency_s: None,
            },
        )
        .with_phases(totals);
        assert_eq!(case.execute_s, totals.execute_s);
    }

    #[test]
    fn from_result_guards_zero_accuracy() {
        let result = jwins::metrics::RunResult {
            strategy: "test".into(),
            records: Vec::new(),
            total_traffic: jwins_net::TrafficStats::default(),
            rounds_run: 0,
            reached_target: None,
            alpha_history: Vec::new(),
            measured_latency_s: None,
        };
        let case = BenchCase::from_result("b", "c", 1.0, &result);
        assert_eq!(
            case.bytes_per_accuracy, -1.0,
            "undefined cost uses a JSON-safe sentinel, not a non-finite float"
        );
        assert_eq!(case.final_accuracy, 0.0);
        // The degenerate case must survive the JSON round-trip (non-finite
        // floats would come back as unparsable nulls).
        let text = serde::json::to_string(&vec![case.clone()]);
        let back: Vec<BenchCase> = serde::json::from_str(&text).unwrap();
        assert_eq!(back, vec![case]);
    }
}
