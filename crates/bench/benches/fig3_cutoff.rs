//! Figure 3: the randomized cut-off in action.
//!
//! Left chart: the sharing percentages drawn by each node in a typical
//! round. Right chart: the average shared fraction across nodes over the
//! rounds, hovering around E[α] ≈ 34%.

use jwins::cutoff::AlphaDistribution;
use jwins::strategies::JwinsConfig;
use jwins_bench::{banner, run_cifar, save_csv, Algo, RunCfg, Scale};

fn main() {
    let scale = Scale::from_env();
    banner(
        "Figure 3 — randomized cut-off: per-node α and per-round mean",
        "nodes draw α independently from {10,15,20,25,30,40,100}%; round mean ≈ 34%",
    );
    let mut cfg = RunCfg::new(scale.rounds(35));
    cfg.train.record_alphas = true;
    cfg.train.eval_every = cfg.train.rounds; // metrics not the point here
    let result = run_cifar(scale, &Algo::Jwins(JwinsConfig::paper_default()), &cfg, 2);

    let mid = result.alpha_history.len() / 2;
    println!("\nshared fraction in round {mid} (left chart):");
    for (node, alpha) in result.alpha_history[mid].iter().enumerate() {
        println!(
            "  node {node:>3}: {:>5.1}%  {}",
            alpha * 100.0,
            "#".repeat((alpha * 40.0) as usize)
        );
    }

    println!("\naverage shared fraction over rounds (right chart):");
    let mut csv = String::from("round,mean_alpha\n");
    let mut overall = 0.0;
    for (round, alphas) in result.alpha_history.iter().enumerate() {
        let mean = alphas.iter().sum::<f64>() / alphas.len() as f64;
        overall += mean;
        csv.push_str(&format!("{round},{mean}\n"));
        if round % (result.alpha_history.len() / 10).max(1) == 0 {
            println!("  round {round:>4}: mean α {:>5.1}%", mean * 100.0);
        }
    }
    overall /= result.alpha_history.len() as f64;
    save_csv("fig3_cutoff", &csv);

    let expected = AlphaDistribution::paper_default().mean();
    println!("\npaper-vs-measured:");
    println!(
        "  paper: average sharing percentage ≈ {:.0}% across rounds",
        expected * 100.0
    );
    println!(
        "  here:  {:.1}% (|Δ| = {:.1} pp) => {}",
        overall * 100.0,
        (overall - expected).abs() * 100.0,
        if (overall - expected).abs() < 0.05 {
            "REPRODUCED"
        } else {
            "NOT reproduced"
        }
    );
}
