//! Figure 5: run-until-target-accuracy vs random sampling.
//!
//! Protocol: run random sampling for a long budget, take its best accuracy
//! as the target, then run JWINS and full-sharing until they reach it. The
//! paper reports JWINS arriving 777–4305 rounds earlier than random sampling
//! and pushing 1.5–4× fewer bytes.

use jwins::strategies::JwinsConfig;
use jwins_bench::{banner, fmt_bytes, run_cifar, save_csv, Algo, RunCfg, Scale};

fn main() {
    let scale = Scale::from_env();
    banner(
        "Figure 5 — rounds and bytes to reach random sampling's best accuracy",
        "JWINS reaches the target in fewer rounds with 1.5–4× fewer bytes",
    );
    // Phase 1: long random-sampling run defines the target.
    let long_rounds = scale.rounds(170);
    let mut cfg = RunCfg::new(long_rounds);
    cfg.train.eval_every = (long_rounds / 20).max(5);
    let random = run_cifar(scale, &Algo::Random(0.37), &cfg, 2);
    let target = random
        .records
        .iter()
        .map(|r| r.test_accuracy)
        .fold(0.0f64, f64::max);
    let random_hit = random
        .records
        .iter()
        .find(|r| r.test_accuracy >= target)
        .expect("max exists");
    println!(
        "\ntarget accuracy (random sampling best): {:.1}% at round {} with {} per node",
        target * 100.0,
        random_hit.round + 1,
        fmt_bytes(random_hit.cum_bytes_per_node)
    );

    // Phase 2: run the competitors until they reach that accuracy.
    let mut rows = vec![(
        "random-sampling".to_owned(),
        Some((
            random_hit.round + 1,
            random_hit.cum_bytes_per_node,
            random_hit.sim_time_s,
        )),
    )];
    for algo in [Algo::Full, Algo::Jwins(JwinsConfig::paper_default())] {
        let mut cfg = RunCfg::new(long_rounds);
        cfg.train.eval_every = 5;
        cfg.train.target_accuracy = Some(target);
        let result = run_cifar(scale, &algo, &cfg, 2);
        save_csv(&format!("fig5_{}", algo.label()), &result.to_csv());
        rows.push((
            algo.label(),
            result
                .reached_target
                .map(|h| (h.round + 1, h.bytes_per_node, h.sim_time_s)),
        ));
    }
    println!(
        "\n{:<18} {:>10} {:>16} {:>12}",
        "ALGORITHM", "rounds", "bytes/node", "sim time"
    );
    let mut csv = String::from("algo,rounds_to_target,bytes_per_node,sim_time_s\n");
    for (name, hit) in &rows {
        match hit {
            Some((rounds, bytes, time)) => {
                println!(
                    "{name:<18} {rounds:>10} {:>16} {:>11.1}s",
                    fmt_bytes(*bytes),
                    time
                );
                csv.push_str(&format!("{name},{rounds},{bytes},{time}\n"));
            }
            None => {
                println!("{name:<18} {:>10}", "not reached");
                csv.push_str(&format!("{name},,,\n"));
            }
        }
    }
    save_csv("fig5_summary", &csv);

    println!("\npaper-vs-measured:");
    println!("  paper: JWINS needs fewer rounds than random sampling and 1.5–4x fewer bytes");
    let rs = rows[0].1.expect("random reached its own best");
    if let Some(jw) = rows
        .iter()
        .find(|(n, _)| n == "jwins")
        .and_then(|(_, h)| *h)
    {
        let byte_ratio = rs.1 / jw.1.max(1.0);
        let fewer_rounds = rs.0 as i64 - jw.0 as i64;
        println!(
            "  here:  JWINS {} rounds earlier ({} vs {}), {:.1}x fewer bytes => {}",
            fewer_rounds,
            jw.0,
            rs.0,
            byte_ratio,
            if jw.0 <= rs.0 && byte_ratio > 1.0 {
                "REPRODUCED"
            } else {
                "NOT reproduced"
            }
        );
    } else {
        println!("  here:  JWINS did not reach the target within the budget => NOT reproduced");
    }
}
