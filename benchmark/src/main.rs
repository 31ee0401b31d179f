//! The repo benchmark. See `benchmark/README.md` for the catalogue.
//!
//! ```text
//! jwins_benchmark --seed N [--seconds S] [--out FILE]       every workload, both passes
//! jwins_benchmark --workload W --seed N --seconds S --trace 0|1   one pass (the driver's form)
//! jwins_benchmark --compare A.json B.json [--bounds BENCHMARK.json]
//! ```

mod catalogue;
mod child;
mod direct;
mod parent;
mod report;
mod spans;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workload::{Spec, WORKLOADS};

/// Seconds per pass when `--seconds` is not given: `run_seconds` of
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 25.0;

const USAGE: &str = "usage:
  jwins_benchmark --seed N [--seconds S] [--out FILE]
  jwins_benchmark --workload NAME --seed N --seconds S --trace 0|1
  jwins_benchmark --compare A.json B.json [--bounds BENCHMARK.json]
workloads: lenet_sync mlp_jwins mlp_full_async event_scale";

/// `--key value` pairs, plus the two operands of `--compare`.
#[derive(Debug, Default, PartialEq)]
struct Args {
    flags: Vec<(String, String)>,
    compare: Option<(String, String)>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut parsed = Args::default();
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {arg:?}"))?;
            let mut value = || {
                iter.next()
                    .cloned()
                    .ok_or_else(|| format!("--{key} needs a value"))
            };
            if key == "compare" {
                parsed.compare = Some((value()?, value()?));
            } else {
                parsed.flags.push((key.to_owned(), value()?));
            }
        }
        Ok(parsed)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.get(key)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{key} {v:?} is not a valid number"))
            })
            .transpose()
    }

    fn seed(&self) -> Result<u64, String> {
        self.number("seed")?
            .ok_or_else(|| "--seed is required".into())
    }

    fn seconds(&self) -> Result<f64, String> {
        let seconds = self.number("seconds")?.unwrap_or(DEFAULT_SECONDS);
        if seconds > 0.0 && seconds <= 600.0 {
            Ok(seconds)
        } else {
            Err(format!("--seconds {seconds} is outside (0, 600]"))
        }
    }

    fn workload(&self) -> Result<Option<&'static Spec>, String> {
        self.get("workload")
            .map(|name| workload::find(name).ok_or_else(|| format!("unknown workload {name:?}")))
            .transpose()
    }
}

/// A child process's whole job: one run or one direct drive, one JSON line.
fn child_main(kind: &str, args: &Args) -> Result<(), String> {
    let spec = args.workload()?.ok_or("--workload is required")?;
    let seed = args.seed()?;
    let line = match kind {
        "run" => {
            let trace = args.get("trace-file").map(Path::new);
            serde::json::to_string(&child::run_once(spec, seed, trace)?)
        }
        "direct" => serde::json::to_string(&direct::direct_drive(spec, seed)),
        other => return Err(format!("unknown child kind {other:?}")),
    };
    println!("{line}");
    Ok(())
}

/// The driver's form: one pass over one workload, the result line last.
fn pass_main(spec: &Spec, args: &Args) -> Result<bool, String> {
    let seed = args.seed()?;
    let seconds = args.seconds()?;
    let traced = match args.get("trace") {
        Some("0") | None => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace {other:?} is neither 0 nor 1")),
    };
    let out_dir = parent::output_dir()?;
    let pass = parent::run_pass(spec, seed, seconds, traced, &out_dir);
    let metrics = if traced {
        parent::per_layer(spec, &pass)
    } else {
        parent::end_to_end(&pass)
    };
    println!("{} (seed {seed}): {}", spec.name, spec.why);
    if let Some(metrics) = &metrics {
        report::print_metrics(if traced { "per layer" } else { "end to end" }, metrics);
    }
    if traced {
        report::print_direct(&pass.direct);
    }
    report::print_failures(&pass);
    println!("{}", report::result_line(&pass, metrics.as_deref()));
    Ok(metrics.is_some())
}

/// Every workload, timed pass then traced pass; writes the result file.
fn suite_main(args: &Args) -> Result<bool, String> {
    let seed = args.seed()?;
    let seconds = args.seconds()?;
    let out_dir = parent::output_dir()?;
    let out_file = args.get("out").map_or_else(
        || out_dir.join(format!("result_seed{seed}.json")),
        PathBuf::from,
    );
    let provenance = report::provenance(seed, seconds);
    println!("provenance: {}", serde::json::to_string(&provenance));
    let mut sections = Vec::new();
    let mut clean = true;
    for spec in &WORKLOADS {
        println!("\n== {} — {}", spec.name, spec.why);
        let timed = parent::run_pass(spec, seed, seconds, false, &out_dir);
        let traced = parent::run_pass(spec, seed, seconds, true, &out_dir);
        let end_to_end = parent::end_to_end(&timed).unwrap_or_default();
        let per_layer = parent::per_layer(spec, &traced).unwrap_or_default();
        report::print_metrics(
            &format!("end to end (k = {} timed runs)", timed.timed.len()),
            &end_to_end,
        );
        report::print_metrics(
            &format!("per layer ({} traced runs)", traced.traced.len()),
            &per_layer,
        );
        report::print_direct(&traced.direct);
        report::print_failures(&timed);
        report::print_failures(&traced);
        clean &=
            timed.failed + traced.failed == 0 && !end_to_end.is_empty() && !per_layer.is_empty();
        sections.push(report::workload_value(
            spec.name,
            &timed,
            &traced,
            &end_to_end,
            &per_layer,
        ));
    }
    std::fs::write(&out_file, report::result_file(provenance, sections))
        .map_err(|e| format!("cannot write {}: {e}", out_file.display()))?;
    println!("\nresult file: {}", out_file.display());
    println!("span files:  {}/trace_<workload>.jsonl", out_dir.display());
    Ok(clean)
}

fn compare_main(first: &str, second: &str, args: &Args) -> Result<bool, String> {
    let read =
        |path: &str| std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
    let bounds = report::read_bounds(&read(args.get("bounds").unwrap_or("BENCHMARK.json"))?)?;
    let (fails, unresolved) = report::compare(&read(first)?, &read(second)?, &bounds)?;
    println!("{fails} FAIL, {unresolved} UNRESOLVED");
    Ok(fails == 0)
}

fn run(args: &[String]) -> Result<bool, String> {
    let args = Args::parse(args)?;
    if let Some(kind) = args.get("child") {
        return child_main(kind, &args).map(|()| true);
    }
    if let Some((first, second)) = &args.compare {
        return compare_main(first, second, &args);
    }
    match args.workload()? {
        Some(spec) => pass_main(spec, &args),
        None => suite_main(&args),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("jwins_benchmark: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_the_drivers_form() {
        let args = Args::parse(&strings(&[
            "--workload",
            "mlp_jwins",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .expect("parses");
        assert_eq!(
            args.workload().expect("known").map(|s| s.name),
            Some("mlp_jwins")
        );
        assert_eq!(args.seed(), Ok(7));
        assert_eq!(args.seconds(), Ok(10.0));
        assert_eq!(args.get("trace"), Some("1"));
    }

    #[test]
    fn rejects_malformed_command_lines() {
        assert!(Args::parse(&strings(&["stray"])).is_err());
        assert!(Args::parse(&strings(&["--seed"])).is_err());
        assert!(Args::parse(&strings(&["--compare", "a.json"])).is_err());
        let args =
            Args::parse(&strings(&["--workload", "nope", "--seconds", "-1"])).expect("parses");
        assert!(args.workload().is_err());
        assert!(args.seed().is_err());
        assert!(args.seconds().is_err());
        let compare = Args::parse(&strings(&["--compare", "a", "b"])).expect("parses");
        assert_eq!(compare.compare, Some(("a".to_owned(), "b".to_owned())));
    }
}
