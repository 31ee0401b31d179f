//! What the benchmark prints and writes: the driver's result line, the
//! human-readable tables, the result file with its provenance, and the
//! comparison of two result files.

use crate::catalogue::{self, Better};
use crate::direct::Measured;
use crate::parent::{Metric, Pass};
use crate::stats::{median, relative_spread};
use serde::{find_field, Value};
use std::process::Command;

/// A JSON object as the serde shim holds it.
type Object = [(String, Value)];

fn text(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Map(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the latter holding each metric's value and unit.
pub fn result_line(pass: &Pass, metrics: Option<&[Metric]>) -> String {
    let metrics = metrics.unwrap_or_default();
    let correct =
        pass.failed == 0 && !metrics.is_empty() && metrics.iter().all(|m| m.value.is_finite());
    let fields = metrics
        .iter()
        .map(|m| {
            (
                m.name.to_owned(),
                object(vec![("value", Value::F64(m.value)), ("unit", text(m.unit))]),
            )
        })
        .collect();
    serde::json::to_string(&object(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::U64(pass.attempted.max(1))),
        ("failed", Value::U64(pass.failed)),
        ("metrics", Value::Map(fields)),
    ]))
}

/// Prints every metric by name with its unit, the sample count, and the
/// minimum and maximum beside the median.
pub fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    println!(
        "  {:<30} {:>16} {:<9} {:>3} {:>16} {:>16}",
        "metric", "median", "unit", "n", "min", "max"
    );
    for m in metrics {
        println!(
            "  {:<30} {:>16.6} {:<9} {:>3} {:>16.6} {:>16.6}",
            m.name,
            m.value,
            m.unit,
            m.values.len(),
            m.min(),
            m.max()
        );
    }
}

/// Prints the direct-drive order statistics (the per-layer list carries
/// only the medians).
pub fn print_direct(measured: &[Measured]) {
    println!(
        "  {:<30} {:>12} {:>12} {:>12} {:<4} {:>4}",
        "direct drive", "median", "p95", "mean", "unit", "n"
    );
    for m in measured {
        println!(
            "  {:<30} {:>12.4} {:>12.4} {:>12.4} {:<4} {:>4}",
            m.name, m.median, m.p95, m.mean, m.unit, m.samples
        );
    }
}

pub fn print_failures(pass: &Pass) {
    println!(
        "  operations: {} attempted, {} failed",
        pass.attempted, pass.failed
    );
    for failure in &pass.failures {
        println!("  FAILED {failure}");
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|l| l.split_whitespace().next().and_then(|x| x.parse().ok()))
        .unwrap_or(f64::NAN)
}

/// Where and how a result file was measured. Taken before the first run,
/// so the load average is the host's, not the benchmark's.
pub fn provenance(seed: u64, seconds: f64) -> Value {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    object(vec![
        ("benchmark_version", text(env!("CARGO_PKG_VERSION"))),
        (
            "git_commit",
            text(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Value::U64(seed)),
        ("seconds_per_pass", Value::F64(seconds)),
        ("nproc", Value::U64(cores as u64)),
        ("cpu_model", text(cpu_model())),
        ("rustc", text(command_line("rustc", &["-V"]))),
        ("load_average_1m", Value::F64(load_average())),
    ])
}

fn metric_value(m: &Metric) -> Value {
    object(vec![
        ("value", Value::F64(m.value)),
        ("unit", text(m.unit)),
        ("samples", Value::U64(m.values.len() as u64)),
        ("min", Value::F64(m.min())),
        ("max", Value::F64(m.max())),
        (
            "values",
            Value::Seq(m.values.iter().map(|&v| Value::F64(v)).collect()),
        ),
    ])
}

fn metrics_value(metrics: &[Metric]) -> Value {
    Value::Map(
        metrics
            .iter()
            .map(|m| (m.name.to_owned(), metric_value(m)))
            .collect(),
    )
}

/// One workload's section of a result file. `k` is the number of timed
/// runs behind the end-to-end medians.
pub fn workload_value(
    name: &str,
    timed: &Pass,
    traced: &Pass,
    end_to_end: &[Metric],
    per_layer: &[Metric],
) -> Value {
    object(vec![
        ("name", text(name)),
        ("k", Value::U64(timed.timed.len() as u64)),
        ("attempted", Value::U64(timed.attempted + traced.attempted)),
        ("failed", Value::U64(timed.failed + traced.failed)),
        ("end_to_end", metrics_value(end_to_end)),
        ("per_layer", metrics_value(per_layer)),
        (
            "direct_drive",
            Value::Seq(
                traced
                    .direct
                    .iter()
                    .map(serde::Serialize::to_value)
                    .collect(),
            ),
        ),
    ])
}

pub fn result_file(provenance: Value, workloads: Vec<Value>) -> String {
    serde::json::to_string(&object(vec![
        ("provenance", provenance),
        ("workloads", Value::Seq(workloads)),
    ]))
}

/// A comparison's verdict on one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Pass,
    Fail,
    /// The spread of either side's runs is wider than the bound, so the
    /// medians cannot resolve a regression of that size.
    Unresolved,
}

/// Judges `change` against `base` for a metric with direction `better` and
/// regression bound `bound`.
pub fn judge(better: Better, bound: f64, base: &[f64], change: &[f64]) -> Verdict {
    let spread = |v: &[f64]| if v.len() < 2 { 0.0 } else { relative_spread(v) };
    if spread(base) > bound || spread(change) > bound {
        Verdict::Unresolved
    } else if better.worsening(median(base), median(change)) > bound {
        Verdict::Fail
    } else {
        Verdict::Pass
    }
}

fn number(v: &Value) -> Option<f64> {
    match *v {
        Value::F64(x) => Some(x),
        Value::U64(x) => Some(x as f64),
        Value::I64(x) => Some(x as f64),
        _ => None,
    }
}

fn samples(workload: &Object, metric: &str) -> Option<Vec<f64>> {
    find_field(workload, "end_to_end")?
        .as_map()
        .and_then(|m| find_field(m, metric))?
        .as_map()
        .and_then(|m| find_field(m, "values"))?
        .as_seq()?
        .iter()
        .map(number)
        .collect()
}

fn workloads(file: &Value) -> Option<Vec<(String, &Object)>> {
    find_field(file.as_map()?, "workloads")?
        .as_seq()?
        .iter()
        .map(|w| {
            let map = w.as_map()?;
            match find_field(map, "name")? {
                Value::Str(name) => Some((name.clone(), map)),
                _ => None,
            }
        })
        .collect()
}

/// The bounds `BENCHMARK.json` fixes, by end-to-end metric name.
///
/// # Errors
///
/// Describes the first structural problem in the file.
pub fn read_bounds(benchmark_json: &str) -> Result<Vec<(String, f64)>, String> {
    let root = serde::json::parse(benchmark_json).map_err(|e| e.to_string())?;
    let listed = root
        .as_map()
        .and_then(|m| find_field(m, "end_to_end"))
        .and_then(Value::as_seq)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    listed
        .iter()
        .map(|entry| {
            let entry = entry.as_map()?;
            match (find_field(entry, "name")?, find_field(entry, "bound")?) {
                (Value::Str(name), bound) => Some((name.clone(), number(bound)?)),
                _ => None,
            }
        })
        .collect::<Option<_>>()
        .ok_or_else(|| "an end_to_end entry lacks a name or a bound".to_owned())
}

/// Prints, per workload × end-to-end metric, the two medians, their ratio
/// and the verdict; returns how many FAIL and UNRESOLVED rows there were.
///
/// # Errors
///
/// Describes the first structural problem in either file.
pub fn compare(base: &str, change: &str, bounds: &[(String, f64)]) -> Result<(u64, u64), String> {
    let base = serde::json::parse(base).map_err(|e| format!("first file: {e}"))?;
    let change = serde::json::parse(change).map_err(|e| format!("second file: {e}"))?;
    let base = workloads(&base).ok_or("first file: no workloads")?;
    let change = workloads(&change).ok_or("second file: no workloads")?;
    println!(
        "{:<16} {:<16} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "first", "second", "ratio", "bound"
    );
    let (mut fails, mut unresolved) = (0, 0);
    for (name, a) in &base {
        let (_, b) = change
            .iter()
            .find(|(n, _)| n == name)
            .ok_or_else(|| format!("second file lacks workload {name}"))?;
        for (metric, bound) in bounds {
            let entry = catalogue::end_to_end(metric)
                .ok_or_else(|| format!("{metric} is not an end-to-end metric"))?;
            let va = samples(a, metric).ok_or_else(|| format!("first file: {name}/{metric}"))?;
            let vb = samples(b, metric).ok_or_else(|| format!("second file: {name}/{metric}"))?;
            // As in the driver's contract, `setup_s` is held to its medians
            // only: it lasts tens of milliseconds, and its few samples
            // spread by more than its bound on a busy host.
            let verdict = if metric == "setup_s" {
                judge(entry.better, *bound, &[median(&va)], &[median(&vb)])
            } else {
                judge(entry.better, *bound, &va, &vb)
            };
            match verdict {
                Verdict::Fail => fails += 1,
                Verdict::Unresolved => unresolved += 1,
                Verdict::Pass => {}
            }
            let (ma, mb) = (median(&va), median(&vb));
            println!(
                "{name:<16} {metric:<16} {ma:>14.6} {mb:>14.6} {:>8.4} {bound:>7.3}  {}",
                mb / ma,
                match verdict {
                    Verdict::Pass => "PASS",
                    Verdict::Fail => "FAIL",
                    Verdict::Unresolved => "UNRESOLVED",
                }
            );
        }
    }
    Ok((fails, unresolved))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_separates_pass_fail_and_unresolved() {
        let steady = [1.00, 1.01, 0.99, 1.00, 1.005];
        let slower = [1.20, 1.21, 1.19, 1.20, 1.205];
        let noisy = [0.7, 1.0, 1.4, 0.8, 1.3];
        assert_eq!(judge(Better::Lower, 0.1, &steady, &steady), Verdict::Pass);
        assert_eq!(judge(Better::Lower, 0.1, &steady, &slower), Verdict::Fail);
        assert_eq!(judge(Better::Lower, 0.1, &slower, &steady), Verdict::Pass);
        assert_eq!(judge(Better::Higher, 0.1, &slower, &steady), Verdict::Fail);
        assert_eq!(
            judge(Better::Lower, 0.1, &steady, &noisy),
            Verdict::Unresolved
        );
        // Deterministic metrics: identical samples have zero spread.
        assert_eq!(
            judge(Better::Lower, 0.005, &[3.0; 4], &[3.0; 4]),
            Verdict::Pass
        );
        assert_eq!(
            judge(Better::Lower, 0.005, &[3.0; 4], &[3.1; 4]),
            Verdict::Fail
        );
    }

    #[test]
    fn bounds_are_read_from_benchmark_json() {
        let file = r#"{"end_to_end": [
            {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}"#;
        assert_eq!(
            read_bounds(file),
            Ok(vec![
                ("wall_s".to_owned(), 0.1),
                ("setup_s".to_owned(), 0.25)
            ])
        );
        assert!(read_bounds("{}").is_err());
    }

    #[test]
    fn compare_counts_failures() {
        let file_of = |name: &'static str, wall: [f64; 3]| {
            let m = Metric {
                name,
                unit: "s",
                value: median(&wall),
                values: wall.to_vec(),
            };
            result_file(
                Value::Null,
                vec![object(vec![
                    ("name", text("w")),
                    ("end_to_end", metrics_value(&[m])),
                ])],
            )
        };
        let file = |wall| file_of("wall_s", wall);
        let bounds = vec![("wall_s".to_owned(), 0.1)];
        let base = file([1.0, 1.01, 0.99]);
        assert_eq!(compare(&base, &base, &bounds), Ok((0, 0)));
        assert_eq!(
            compare(&base, &file([1.3, 1.31, 1.29]), &bounds),
            Ok((1, 0))
        );
        assert_eq!(compare(&base, &file([0.5, 1.0, 1.5]), &bounds), Ok((0, 1)));
        assert!(compare(&base, "{}", &bounds).is_err());

        // `setup_s` is compared on medians alone, however wide its samples.
        let bounds = vec![("setup_s".to_owned(), 0.1)];
        let noisy = file_of("setup_s", [0.5, 1.0, 1.5]);
        assert_eq!(compare(&noisy, &noisy, &bounds), Ok((0, 0)));
        let slower = file_of("setup_s", [0.7, 1.2, 1.7]);
        assert_eq!(compare(&noisy, &slower, &bounds), Ok((1, 0)));
    }
}
