//! One run of one workload, inside a fresh child process.
//!
//! `VmHWM` and process CPU time are per-process, so every timed run gets a
//! process of its own; a run that panics is then one failed operation of
//! the parent instead of the end of the benchmark.

use crate::spans::{Recorder, Totals};
use crate::stats::{all_finite, fingerprint, median};
use crate::workload::{model_seed, set_up, Hooks, Plain, Share, Spec, DEGREE};
use jwins::engine::Trainer;
use jwins::metrics::RunResult;
use jwins::strategies::FullSharing;
use jwins::strategy::ShareStrategy;
use jwins_nn::model::Model;
use jwins_nn::models::ClassSample;
use serde::{Deserialize, Serialize};
use std::io::BufWriter;
use std::path::Path;
use std::time::Instant;

/// Set-ups per child; `setup_s` is their median (the last one's trainer
/// runs). Set-up takes tens of milliseconds, so a single sample would put
/// process start-up noise into a metric later changes are held to.
const SETUPS: usize = 5;

/// What a child reports on its standard output, as one JSON line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunOutput {
    pub setup_s: f64,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    pub rounds_run: u64,
    pub final_accuracy: f64,
    pub final_test_loss: f64,
    pub bytes_per_node: f64,
    pub sim_time_s: f64,
    /// [`fingerprint`] of the whole result, as hex.
    pub fingerprint: String,
    pub finite: bool,
    pub bytes_sent: u64,
    pub bytes_received: u64,
    /// What `FullSharing` would have put on the wire per node over the same
    /// rounds (0 unless the workload shares with JWINS).
    pub full_sharing_bytes_per_node: f64,
    /// The decorators' totals (traced runs only).
    #[serde(default)]
    pub trace: Option<Totals>,
}

#[cfg(target_os = "linux")]
mod clock {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

    extern "C" {
        fn clock_gettime(clock: i32, out: *mut Timespec) -> i32;
    }

    /// User + system CPU seconds this process has consumed, all threads
    /// (finished ones included).
    pub fn process_cpu_seconds() -> f64 {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
        // fields on every 64-bit Linux ABI, which the `cfg` below pins), and
        // `clock_gettime` writes nothing else.
        let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID is always available");
        ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads process CPU time and VmHWM the 64-bit Linux way");

pub use clock::process_cpu_seconds;

/// Peak resident set (`VmHWM`) of this process in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Bytes per node a `FullSharing` cluster would send over the workload's
/// rounds: its message for the initial model, to every neighbour, every
/// round.
fn full_sharing_reference(spec: &Spec, seed: u64) -> f64 {
    let params = spec.model(model_seed(seed)).params();
    let mut full = FullSharing::new();
    full.init(&params);
    let message = full
        .make_message(0, &params)
        .expect("full sharing encodes any vector");
    (message.bytes.len() * DEGREE * spec.rounds) as f64
}

/// Builds the trainer [`SETUPS`] times, returning the last one and the
/// median set-up time.
fn timed_set_up<H: Hooks>(
    spec: &Spec,
    seed: u64,
    mut hooks: impl FnMut() -> H,
) -> Result<(Trainer<H::Model>, H, f64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let mut h = hooks();
        let start = Instant::now();
        let trainer = set_up(spec, seed, &mut h).map_err(|e| format!("set-up failed: {e}"))?;
        times.push(start.elapsed().as_secs_f64());
        last = Some((trainer, h));
    }
    let (trainer, h) = last.expect("SETUPS is positive");
    Ok((trainer, h, median(&times)))
}

struct Timed {
    result: RunResult,
    wall_s: f64,
    cpu_s: f64,
}

fn timed_run<M>(trainer: Trainer<M>) -> Result<Timed, String>
where
    M: Model<Sample = ClassSample>,
{
    let cpu_start = process_cpu_seconds();
    let start = Instant::now();
    let result = trainer.run();
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = process_cpu_seconds() - cpu_start;
    let result = result.map_err(|e| format!("run failed: {e}"))?;
    Ok(Timed {
        result,
        wall_s,
        cpu_s,
    })
}

/// Runs `spec` once. With `trace_file`, the layers are decorated and the
/// spans land in that file.
///
/// # Errors
///
/// Returns a description when set-up or the run fails, or the trace file
/// cannot be written.
pub fn run_once(spec: &Spec, seed: u64, trace_file: Option<&Path>) -> Result<RunOutput, String> {
    let (timed, setup_s, trace) = match trace_file {
        None => {
            let (trainer, _, setup_s) = timed_set_up(spec, seed, || Plain)?;
            (timed_run(trainer)?, setup_s, None)
        }
        Some(path) => {
            let (trainer, recorder, setup_s) =
                timed_set_up(spec, seed, || Recorder::new(Instant::now()))?;
            recorder.arm();
            let run_start_ns = recorder.elapsed_ns();
            let timed = timed_run(trainer)?;
            let run_end_ns = recorder.elapsed_ns();
            let file = std::fs::File::create(path)
                .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
            let mut out = BufWriter::new(file);
            recorder
                .write_jsonl(&mut out, run_start_ns, run_end_ns)
                .and_then(|()| std::io::Write::flush(&mut out))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            let trace = recorder.totals();
            (timed, setup_s, Some(trace))
        }
    };
    let last = timed
        .result
        .final_record()
        .ok_or("the run produced no evaluation record")?;
    Ok(RunOutput {
        setup_s,
        wall_s: timed.wall_s,
        cpu_s: timed.cpu_s,
        peak_rss_mb: peak_rss_mb(),
        rounds_run: timed.result.rounds_run as u64,
        final_accuracy: last.test_accuracy,
        final_test_loss: last.test_loss,
        bytes_per_node: last.cum_bytes_per_node,
        sim_time_s: last.sim_time_s,
        fingerprint: format!("{:016x}", fingerprint(&timed.result)),
        finite: all_finite(&timed.result),
        bytes_sent: timed.result.total_traffic.bytes_sent,
        bytes_received: timed.result.total_traffic.bytes_received,
        full_sharing_bytes_per_node: match spec.share {
            Share::Jwins => full_sharing_reference(spec, seed),
            Share::Full => 0.0,
        },
        trace,
    })
}
