//! Extension: a baseline the paper cites but does not run.
//!
//! §II-A names the random model walk as the other DL communication pattern.
//! This harness runs it against JWINS, CHOCO and full sharing on the
//! CIFAR-like workload for the same number of rounds. It evaluates every
//! tenth of the run (every round under `JWINS_SMOKE=1`) and reports each
//! row's final accuracy, its bytes per node, and the bytes per node it had
//! spent at its first evaluation with at least [`TARGET`] accuracy — the
//! paper's bytes-to-target framing — or `—` if it never got there.
//!
//! `JWINS_SMOKE=1` shrinks the round budget for the CI `bench-smoke` job.

use jwins::cutoff::AlphaDistribution;
use jwins::strategies::{ChocoConfig, JwinsConfig};
use jwins_bench::{banner, fmt_bytes, run_cifar, save_csv, Algo, RunCfg, Scale};

/// The test accuracy a row's bytes-to-target is read at.
const TARGET: f64 = 0.9;

fn main() {
    let scale = Scale::from_env();
    let smoke = jwins_bench::smoke();
    banner(
        "Extension — JWINS, CHOCO and the random model walk against full sharing",
        "sparsification reaches full sharing's accuracy for fewer bytes; the \
         random model walk trades accuracy for one edge a round",
    );
    let rounds = if smoke { 4 } else { scale.rounds(100) };
    if smoke {
        println!("[smoke] reduced to {rounds} rounds");
    }
    let eval_every = if smoke { 1 } else { (rounds / 10).max(1) };
    let algos = [
        Algo::Jwins(JwinsConfig::with_alpha(AlphaDistribution::budget_20())),
        Algo::Choco(ChocoConfig::budget_20()),
        Algo::Rmw,
        Algo::Full,
    ];

    println!(
        "{:<20} {:>10} {:>14} {:>16} {:>14}",
        "algorithm",
        "accuracy",
        "bytes/node",
        "vs full-sharing",
        format!("bytes@{:.0}%", TARGET * 100.0)
    );
    let mut rows = Vec::new();
    for algo in &algos {
        let mut cfg = RunCfg::new(rounds);
        cfg.train.eval_every = eval_every;
        let result = run_cifar(scale, algo, &cfg, 2);
        let last = result.final_record().expect("evaluated");
        let at_target = (result.records.iter())
            .find(|r| r.test_accuracy >= TARGET)
            .map(|r| r.cum_bytes_per_node);
        rows.push((
            algo.label(),
            last.test_accuracy,
            last.cum_bytes_per_node,
            at_target,
        ));
    }
    let full_bytes = rows.last().expect("full-sharing row").2;
    let mut csv = String::from("algo,final_accuracy,bytes_per_node,bytes_per_node_at_target\n");
    for (label, acc, bytes, at_target) in &rows {
        println!(
            "{label:<20} {:>9.1}% {:>14} {:>15.1}% {:>14}",
            acc * 100.0,
            fmt_bytes(*bytes),
            100.0 * bytes / full_bytes,
            at_target.map_or_else(|| "—".to_string(), fmt_bytes)
        );
        let at_target = at_target.map_or_else(String::new, |b| format!("{b:.0}"));
        csv.push_str(&format!("{label},{acc:.4},{bytes:.0},{at_target}\n"));
    }
    save_csv("ext_baselines", &csv);
}
