//! Extension: the baselines the paper cites but does not run.
//!
//! §II-B names quantization (QSGD) as the other compression family, and
//! §II-A names the random model walk as the other DL communication pattern.
//! This harness runs both against JWINS, CHOCO and full sharing on the
//! CIFAR-like workload for the same number of rounds and reports accuracy
//! versus bytes.
//!
//! `JWINS_SMOKE=1` shrinks the round budget for the CI `bench-smoke` job.

use jwins::cutoff::AlphaDistribution;
use jwins::strategies::{ChocoConfig, JwinsConfig};
use jwins_bench::{banner, fmt_bytes, run_cifar, save_csv, Algo, RunCfg, Scale};

fn main() {
    let scale = Scale::from_env();
    let smoke = jwins_bench::smoke();
    banner(
        "Extension — cited-but-unrun baselines (QSGD, random model walk)",
        "quantization and RMW trade accuracy for bytes differently than sparsification",
    );
    let rounds = if smoke { 4 } else { scale.rounds(100) };
    if smoke {
        println!("[smoke] reduced to {rounds} rounds");
    }
    let algos = [
        Algo::Jwins(JwinsConfig::with_alpha(AlphaDistribution::budget_20())),
        Algo::Choco(ChocoConfig::budget_20()),
        Algo::Quantized(255),
        Algo::Rmw,
        Algo::Full,
    ];

    println!(
        "{:<20} {:>10} {:>14} {:>16}",
        "algorithm", "accuracy", "bytes/node", "vs full-sharing"
    );
    let mut rows = Vec::new();
    for algo in &algos {
        let mut cfg = RunCfg::new(rounds);
        cfg.train.eval_every = rounds;
        let result = run_cifar(scale, algo, &cfg, 2);
        let last = result.final_record().expect("evaluated");
        rows.push((algo.label(), last.test_accuracy, last.cum_bytes_per_node));
    }
    let full_bytes = rows.last().expect("full-sharing row").2;
    let mut csv = String::from("algo,final_accuracy,bytes_per_node\n");
    for (label, acc, bytes) in &rows {
        println!(
            "{label:<20} {:>9.1}% {:>14} {:>15.1}%",
            acc * 100.0,
            fmt_bytes(*bytes),
            100.0 * bytes / full_bytes
        );
        csv.push_str(&format!("{label},{acc:.4},{bytes:.0}\n"));
    }
    save_csv("ext_baselines", &csv);
}
