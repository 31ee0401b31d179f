//! Figure 8: ablation of JWINS's three components.
//!
//! Removing the wavelet transform hurts most; removing accumulation or the
//! randomized cut-off hurts less; full JWINS reaches the lowest test loss.

use jwins::strategies::JwinsConfig;
use jwins_bench::{banner, run_cifar, save_csv, Algo, RunCfg, Scale};

fn main() {
    let scale = Scale::from_env();
    banner(
        "Figure 8 — ablation: JWINS without wavelet / accumulation / randomized cut-off",
        "wavelet matters most; each removed component raises the test loss; full JWINS is best",
    );
    let rounds = scale.rounds(90);
    let variants: [(&str, JwinsConfig); 4] = [
        ("jwins", JwinsConfig::paper_default()),
        ("without-wavelet", JwinsConfig::without_wavelet()),
        ("without-accumulation", JwinsConfig::without_accumulation()),
        (
            "without-random-cutoff",
            JwinsConfig::without_random_cutoff(),
        ),
    ];
    let mut losses = std::collections::HashMap::new();
    println!();
    for (name, config) in variants {
        let mut cfg = RunCfg::new(rounds);
        cfg.train.eval_every = (rounds / 12).max(5);
        let result = run_cifar(scale, &Algo::Jwins(config), &cfg, 2);
        let last = result.final_record().expect("evaluated");
        println!(
            "{name:<22} final test loss {:.4}  accuracy {:>5.1}%",
            last.test_loss,
            last.test_accuracy * 100.0
        );
        save_csv(&format!("fig8_{name}"), &result.to_csv());
        losses.insert(name, last.test_loss);
    }
    let full = losses["jwins"];
    let worst = [
        "without-wavelet",
        "without-accumulation",
        "without-random-cutoff",
    ]
    .iter()
    .map(|k| losses[k])
    .fold(0.0f64, f64::max);
    println!("\npaper-vs-measured:");
    println!("  paper: full JWINS attains the minimum test loss; removing wavelet degrades most");
    let complete = losses
        .iter()
        .filter(|(k, _)| **k != "jwins")
        .all(|(_, v)| *v >= full - 0.02);
    println!(
        "  here:  full {:.4} vs worst ablation {:.4} => {}",
        full,
        worst,
        if complete {
            "REPRODUCED (full JWINS best)"
        } else {
            "PARTIAL"
        }
    );
}
