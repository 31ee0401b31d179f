//! Figure 7: dynamic (per-round re-randomized) topologies.
//!
//! The paper randomizes every node's neighbours each round without moving
//! data: full-sharing improves thanks to better mixing, JWINS follows the
//! same trend (dynamic JWINS even beats static full-sharing), and CHOCO —
//! whose error-feedback state assumes a fixed neighbourhood — stops
//! learning.

use jwins::strategies::{ChocoConfig, JwinsConfig};
use jwins_bench::{banner, run_cifar, save_csv, Algo, RunCfg, Scale};

fn main() {
    let scale = Scale::from_env();
    banner(
        "Figure 7 — dynamic topology: full-sharing static/dynamic, JWINS dynamic (+ CHOCO dynamic)",
        "dynamic mixing improves both full-sharing and JWINS; JWINS-dynamic ≥ full-static; CHOCO breaks",
    );
    let rounds = scale.rounds(90);
    let runs: [(&str, Algo, bool); 5] = [
        ("full-static", Algo::Full, false),
        ("full-dynamic", Algo::Full, true),
        (
            "jwins-static",
            Algo::Jwins(JwinsConfig::paper_default()),
            false,
        ),
        (
            "jwins-dynamic",
            Algo::Jwins(JwinsConfig::paper_default()),
            true,
        ),
        (
            "choco-dynamic",
            Algo::Choco(ChocoConfig {
                fraction: 0.34,
                gamma: 0.6,
                ..ChocoConfig::budget_20()
            }),
            true,
        ),
    ];
    let mut finals = std::collections::HashMap::new();
    println!();
    for (name, algo, dynamic) in runs {
        let mut cfg = RunCfg::new(rounds);
        cfg.dynamic_topology = dynamic;
        cfg.train.eval_every = (rounds / 12).max(5);
        let result = run_cifar(scale, &algo, &cfg, 2);
        let acc = result.final_accuracy();
        println!("{name:<16} final accuracy {:>5.1}%", acc * 100.0);
        save_csv(&format!("fig7_{name}"), &result.to_csv());
        finals.insert(name, acc);
    }
    let fs = finals["full-static"];
    let fd = finals["full-dynamic"];
    let jd = finals["jwins-dynamic"];
    let cd = finals["choco-dynamic"];
    println!("\npaper-vs-measured:");
    println!("  paper: full-dynamic > full-static; jwins-dynamic ≥ full-static; choco-dynamic ~no learning");
    let ok = fd >= fs - 0.01 && jd >= fs - 0.03 && cd < jd;
    println!(
        "  here:  full-dyn {:.1}% vs full-stat {:.1}%; jwins-dyn {:.1}%; choco-dyn {:.1}% => {}",
        fd * 100.0,
        fs * 100.0,
        jd * 100.0,
        cd * 100.0,
        if ok { "REPRODUCED (shape)" } else { "PARTIAL" }
    );
}
