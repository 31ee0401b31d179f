//! The parent side of one benchmark pass over one workload: spawn the
//! child runs one at a time, check their outputs, fold them into metrics.
//!
//! Closed-loop batch benchmark: one run at a time, fixed work per run; the
//! number of timed runs is what fits into `--seconds`.

use crate::catalogue::{END_TO_END, PER_LAYER};
use crate::child::RunOutput;
use crate::direct::{replayed_share_us, Measured};
use crate::spans::{Op, Totals};
use crate::stats::median;
use crate::workload::{Share, Spec};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// A pass keeps at least this many timed runs, whatever `--seconds` says: a
/// median of fewer is one run's noise.
const MIN_TIMED_RUNS: usize = 3;
/// A child still running after this long is killed and counted as one
/// failed operation. Runs take a few seconds.
const CHILD_TIMEOUT: Duration = Duration::from_secs(60);
/// Share of a traced pass's `--seconds` spent on untraced/traced run pairs;
/// the rest is left to direct drive.
const TRACED_PAIR_SHARE: f64 = 0.7;
/// JWINS must put fewer than this share of the full-sharing bytes on the
/// wire (the paper reports 62–65 % savings).
const JWINS_BYTES_CEILING: f64 = 0.45;

/// One reported number with the samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// Median of `values` (the value itself for single-sample metrics).
    pub value: f64,
    pub values: Vec<f64>,
}

impl Metric {
    fn of(name: &'static str, values: Vec<f64>) -> Self {
        let unit = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("{name} is not in the catalogue"))
            .unit;
        Self {
            name,
            unit,
            value: median(&values),
            values,
        }
    }

    pub fn min(&self) -> f64 {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    pub fn max(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// Everything one pass over one workload produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Output checks made (a child that dies or hangs is one).
    pub attempted: u64,
    /// Output checks that failed.
    pub failed: u64,
    /// What failed, for the human reader.
    pub failures: Vec<String>,
    /// Untraced timed runs.
    pub timed: Vec<RunOutput>,
    /// Decorated runs (`--trace 1` only).
    pub traced: Vec<RunOutput>,
    /// Direct-drive metrics (`--trace 1` only).
    pub direct: Vec<Measured>,
    /// Fingerprint of the first run; every later run must match it.
    reference: Option<String>,
}

/// The directory the benchmark writes to: `<target dir>/benchmark`, next to
/// the `release/` directory this executable was built into.
///
/// # Errors
///
/// Fails when the executable's path cannot be resolved or the directory
/// cannot be created.
pub fn output_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the executable: {e}"))?;
    let target = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("the executable is not inside a cargo target directory")?;
    let dir = target.join("benchmark");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Runs `--child <kind>` for one workload and seed (plus `extra` flags) and
/// parses the one JSON line it prints.
fn child<T: serde::Deserialize>(
    kind: &str,
    spec: &Spec,
    seed: u64,
    extra: &[String],
) -> Result<T, String> {
    let mut args: Vec<String> = ["--child", kind, "--workload", spec.name, "--seed"]
        .map(str::to_owned)
        .into();
    args.push(seed.to_string());
    args.extend_from_slice(extra);
    let stdout = spawn(&args)?;
    serde::json::from_str(stdout.trim()).map_err(|e| format!("unreadable child output: {e}"))
}

/// Runs this executable with `args` and returns its standard output.
fn spawn(args: &[String]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the executable: {e}"))?;
    let mut child = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot start a child: {e}"))?;
    // A child prints one line of a few KiB when it is done, so the pipe
    // never fills while we poll instead of read.
    let begun = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if begun.elapsed() > CHILD_TIMEOUT => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("child timed out after {CHILD_TIMEOUT:?}"));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(5)),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("cannot wait for the child: {e}"));
            }
        }
    };
    let mut stdout = String::new();
    if let Some(mut pipe) = child.stdout.take() {
        std::io::Read::read_to_string(&mut pipe, &mut stdout)
            .map_err(|e| format!("cannot read the child's output: {e}"))?;
    }
    if !status.success() {
        return Err(format!("child exited with {status}"));
    }
    Ok(stdout)
}

impl Pass {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }

    fn check(&mut self, label: &str, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(format!("{label}: {}", what()));
        }
    }

    /// Spawns one run and applies the per-run output checks, each counted
    /// as one operation. A child that dies or hangs is one failed operation.
    fn run(
        &mut self,
        spec: &Spec,
        seed: u64,
        label: &str,
        trace: Option<&Path>,
    ) -> Option<RunOutput> {
        let extra: Vec<String> = trace
            .map(|path| vec!["--trace-file".to_owned(), path.display().to_string()])
            .unwrap_or_default();
        let out = child::<RunOutput>("run", spec, seed, &extra);
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                self.attempted += 1;
                self.fail(format!("{label}: {e}"));
                return None;
            }
        };
        self.check(label, out.rounds_run == spec.rounds as u64, || {
            format!("ran {} of {} rounds", out.rounds_run, spec.rounds)
        });
        self.check(label, out.finite, || "a record field is not finite".into());
        let reference = self
            .reference
            .get_or_insert_with(|| out.fingerprint.clone())
            .clone();
        self.check(label, out.fingerprint == reference, || {
            format!(
                "fingerprint {} differs from the first run's {reference}",
                out.fingerprint
            )
        });
        self.check(label, out.bytes_received == out.bytes_sent, || {
            format!(
                "received {} of {} bytes sent",
                out.bytes_received, out.bytes_sent
            )
        });
        if let Some(floor) = spec.accuracy_floor {
            self.check(label, out.final_accuracy >= floor, || {
                format!("final accuracy {:.3} is below {floor}", out.final_accuracy)
            });
        }
        if spec.share == Share::Jwins {
            let share = out.bytes_per_node / out.full_sharing_bytes_per_node;
            self.check(label, share < JWINS_BYTES_CEILING, || {
                format!("JWINS sent {share:.3} of the full-sharing bytes")
            });
        }
        Some(out)
    }

    fn direct(&mut self, spec: &Spec, seed: u64) {
        self.attempted += 1;
        match child::<Vec<Measured>>("direct", spec, seed, &[]) {
            Ok(measured) => self.direct = measured,
            Err(e) => self.fail(format!("direct drive: {e}")),
        }
    }
}

/// One pass: timed runs for `seconds` (`traced = false`), or
/// untraced/traced run pairs followed by direct drive (`traced = true`).
///
/// There is no discarded warm-up run: every run is a fresh process that
/// generates its own inputs, and the parent is the same executable, so its
/// pages are resident before the first child starts. Measured first runs
/// are no slower than later ones.
pub fn run_pass(spec: &Spec, seed: u64, seconds: f64, traced: bool, out_dir: &Path) -> Pass {
    let mut pass = Pass::default();
    let mut slowest = 0.0f64;
    let trace_file = out_dir.join(format!("trace_{}.jsonl", spec.name));
    let budget = if traced {
        seconds * TRACED_PAIR_SHARE
    } else {
        seconds
    };
    let started = Instant::now();
    loop {
        let round_start = Instant::now();
        let label = format!("run {}", pass.timed.len() + 1);
        if let Some(out) = pass.run(spec, seed, &label, None) {
            pass.timed.push(out);
        }
        if traced {
            let label = format!("traced run {}", pass.traced.len() + 1);
            if let Some(out) = pass.run(spec, seed, &label, Some(&trace_file)) {
                pass.traced.push(out);
            }
        }
        slowest = slowest.max(round_start.elapsed().as_secs_f64());
        let enough = traced || pass.timed.len() >= MIN_TIMED_RUNS;
        let fits = started.elapsed().as_secs_f64() + slowest <= budget;
        // Failing children would otherwise loop until the budget is gone.
        if (enough && !fits) || pass.failed > 0 {
            break;
        }
    }
    if traced {
        pass.direct(spec, seed);
    }
    pass
}

fn column(runs: &[RunOutput], field: impl Fn(&RunOutput) -> f64) -> Vec<f64> {
    runs.iter().map(field).collect()
}

/// The end-to-end metrics of a pass, or `None` when no timed run finished.
pub fn end_to_end(pass: &Pass) -> Option<Vec<Metric>> {
    let runs = &pass.timed;
    if runs.is_empty() {
        return None;
    }
    Some(vec![
        Metric::of("wall_s", column(runs, |r| r.wall_s)),
        Metric::of("cpu_s", column(runs, |r| r.cpu_s)),
        Metric::of("peak_rss_mb", column(runs, |r| r.peak_rss_mb)),
        Metric::of("setup_s", column(runs, |r| r.setup_s)),
        Metric::of("bytes_per_node", column(runs, |r| r.bytes_per_node)),
        Metric::of("sim_time_s", column(runs, |r| r.sim_time_s)),
    ])
}

/// The per-layer metrics of a traced pass, or `None` when a run it needs
/// did not finish.
pub fn per_layer(spec: &Spec, pass: &Pass) -> Option<Vec<Metric>> {
    if pass.timed.is_empty() || pass.traced.is_empty() || pass.direct.is_empty() {
        return None;
    }
    let untraced_wall = median(&column(&pass.timed, |r| r.wall_s));
    let untraced_cpu = median(&column(&pass.timed, |r| r.cpu_s));
    // One value per traced run; the reported value is their median.
    let traced = |field: &dyn Fn(&RunOutput, &Totals) -> f64| -> Vec<f64> {
        pass.traced
            .iter()
            .map(|run| {
                let totals = run.trace.as_ref().expect("traced runs carry totals");
                field(run, totals)
            })
            .collect()
    };
    let seconds = |op: Op| traced(&move |_, t| t.seconds(op));
    let calls = |op: Op| traced(&move |_, t| t.op(op).calls as f64);
    let decorated = Totals::decorated_seconds;
    let share_of = |ops: &'static [Op]| {
        traced(&move |run, t| ops.iter().map(|&op| t.seconds(op)).sum::<f64>() / run.cpu_s)
    };
    let make_calls = |t: &Totals| t.op(Op::Make).calls as f64;

    let mut metrics = vec![
        Metric::of(
            "quality.final_accuracy",
            column(&pass.timed, |r| r.final_accuracy),
        ),
        Metric::of(
            "quality.final_test_loss",
            column(&pass.timed, |r| r.final_test_loss),
        ),
        Metric::of("nn.train_cpu_s", seconds(Op::Train)),
        Metric::of("nn.train_calls", calls(Op::Train)),
        Metric::of("nn.eval_cpu_s", seconds(Op::Eval)),
        Metric::of("nn.eval_calls", calls(Op::Eval)),
        Metric::of("nn.params_copy_cpu_s", seconds(Op::ParamsCopy)),
        Metric::of(
            "nn.cpu_share",
            share_of(&[Op::Train, Op::Eval, Op::ParamsCopy]),
        ),
        Metric::of("strategy.make_cpu_s", seconds(Op::Make)),
        Metric::of("strategy.make_calls", calls(Op::Make)),
        Metric::of("strategy.aggregate_cpu_s", seconds(Op::Aggregate)),
        Metric::of("strategy.aggregate_calls", calls(Op::Aggregate)),
        Metric::of("strategy.cpu_share", share_of(&[Op::Make, Op::Aggregate])),
        Metric::of(
            "strategy.msg_bytes_mean",
            traced(&|_, t| t.msg_bytes as f64 / make_calls(t)),
        ),
        Metric::of(
            "strategy.alpha_mean",
            traced(&|_, t| t.alpha_sum / make_calls(t)),
        ),
        Metric::of("topology.resolve_cpu_s", seconds(Op::Resolve)),
        Metric::of("topology.resolve_calls", calls(Op::Resolve)),
        // Whatever the decorators did not see: queue, transport, commit,
        // record folding, the SGD update itself.
        Metric::of(
            "engine.self_cpu_s",
            traced(&|run, t| run.cpu_s - decorated(t)),
        ),
        Metric::of(
            "engine.self_cpu_share",
            traced(&|run, t| 1.0 - decorated(t) / run.cpu_s),
        ),
        Metric::of(
            "engine.propose_s",
            traced(&|_, t| t.phases.propose_ns as f64 * 1e-9),
        ),
        Metric::of(
            "engine.execute_s",
            traced(&|_, t| t.phases.execute_ns as f64 * 1e-9),
        ),
        Metric::of(
            "engine.commit_s",
            traced(&|_, t| t.phases.commit_ns as f64 * 1e-9),
        ),
        Metric::of("engine.batches", traced(&|_, t| t.phases.batches as f64)),
        Metric::of(
            "engine.mean_batch_width",
            traced(&|_, t| {
                if t.phases.batches == 0 {
                    0.0
                } else {
                    t.phases.width_sum as f64 / t.phases.batches as f64
                }
            }),
        ),
        Metric::of("engine.cores_used", vec![untraced_cpu / untraced_wall]),
        Metric::of(
            "engine.events_per_s",
            vec![spec.queue_events() as f64 / untraced_wall],
        ),
        Metric::of(
            "engine.attributed_share",
            traced(&|run, t| decorated(t) / run.cpu_s),
        ),
        Metric::of(
            "bench.trace_overhead_ratio",
            vec![median(&column(&pass.traced, |r| r.wall_s)) / untraced_wall],
        ),
    ];

    for entry in &PER_LAYER {
        if let Some(m) = pass.direct.iter().find(|m| m.name == entry.name) {
            metrics.push(Metric {
                name: entry.name,
                unit: entry.unit,
                value: m.median,
                values: vec![m.median],
            });
        }
    }
    // Reconciliation: the direct-drive pieces, composed as the strategy
    // composes them, against what the decorators saw per node-round.
    let replayed = replayed_share_us(spec, &pass.direct);
    let observed_us = median(&traced(&|_, t| {
        (t.seconds(Op::Make) + t.seconds(Op::Aggregate)) * 1e6 / make_calls(t)
    }));
    metrics.push(Metric::of(
        "strategy.replay_coverage",
        vec![replayed / observed_us],
    ));
    metrics.push(Metric::of("strategy.replayed_us", vec![replayed]));
    Some(metrics)
}
