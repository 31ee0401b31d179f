//! Extension: per-layer adaptive importance scores (paper §VI future work).
//!
//! "An adaptive version of the importance score based on the parameter type
//! (CNN, RNN, FC) may be explored in depth." This harness explores the
//! first-order version: rescaling each layer's contribution to the JWINS
//! importance scores so small layers (biases, norms, the classifier head)
//! are not starved by magnitude-ranked TopK under tight budgets. The
//! FEMNIST-like LEAF CNN is used because its layer sizes span two orders of
//! magnitude.

use jwins::cutoff::AlphaDistribution;
use jwins::scaling::ScoreScaling;
use jwins::strategies::JwinsConfig;
use jwins_bench::{banner, run_femnist, save_csv, Algo, RunCfg, Scale};
use jwins_data::images::ImageConfig;
use jwins_nn::models::leaf_cnn;

fn main() {
    let scale = Scale::from_env();
    banner(
        "Extension — adaptive per-layer importance scores (§VI future work)",
        "inverse-size scaling keeps small layers alive under tight budgets",
    );
    let rounds = scale.rounds(80);
    // The exact model run_femnist builds, constructed once to read its
    // per-layer parameter layout.
    let img = ImageConfig::femnist_small();
    let probe = leaf_cnn(img.channels, img.height, img.width, img.classes, 4, 24, 1);
    let sizes = probe.layer_param_sizes();
    let parameterized: Vec<usize> = sizes.iter().copied().filter(|&s| s > 0).collect();
    println!(
        "LEAF-CNN layer parameter sizes: {parameterized:?} (ratio max/min = {:.0}x)\n",
        *parameterized.iter().max().unwrap() as f64 / *parameterized.iter().min().unwrap() as f64
    );
    let inverse = ScoreScaling::inverse_size(&sizes).expect("valid layout");

    // Tight fixed budget exposes the starvation effect most clearly.
    let alpha = AlphaDistribution::Fixed(0.10);
    let variants = [
        ("jwins-uniform-scores", {
            let mut c = JwinsConfig::with_alpha(alpha.clone());
            c.randomized_cutoff = false;
            c
        }),
        ("jwins-inverse-size", {
            let mut c = JwinsConfig::with_alpha(alpha);
            c.randomized_cutoff = false;
            c.score_scaling = Some(inverse);
            c
        }),
    ];

    let mut csv = String::from("variant,final_accuracy,final_loss\n");
    let mut accs = Vec::new();
    for (name, config) in variants {
        let mut cfg = RunCfg::new(rounds);
        cfg.train.eval_every = rounds;
        let result = run_femnist(scale, &Algo::Jwins(config), &cfg);
        let last = result.final_record().expect("evaluated");
        println!(
            "{name:<24} accuracy {:>5.1}%  test loss {:.3}",
            last.test_accuracy * 100.0,
            last.test_loss
        );
        csv.push_str(&format!(
            "{name},{:.4},{:.4}\n",
            last.test_accuracy, last.test_loss
        ));
        accs.push(last.test_accuracy);
    }
    save_csv("ext_adaptive", &csv);

    println!("\npaper-vs-measured:");
    println!("  paper: proposes adaptive scores as future work (no numbers)");
    println!(
        "  here:  inverse-size scaling moves accuracy by {:+.1}pp at a 10% budget => {}",
        (accs[1] - accs[0]) * 100.0,
        if accs[1] >= accs[0] - 0.01 {
            "VIABLE (no loss; small layers protected)"
        } else {
            "COSTLY at this scale"
        }
    );
}
