//! Extension: accuracy vs staleness cap under asynchronous gossip.
//!
//! The event-driven runtime mixes whatever has arrived, so on a straggler
//! cluster fast nodes consume models that are several rounds old. Zhao et
//! al. (2019, "Decentralized Online Learning") show bounding that staleness
//! is the key accuracy knob under asynchrony. This experiment sweeps the
//! staleness cap k — messages older than k rounds are dropped and their
//! mixing weight renormalized into the self-weight — over k ∈ {1, 2, 4, ∞}
//! for full-sharing, JWINS and CHOCO-SGD on a straggler cluster (25% of
//! nodes 4× slower, 100 Mbit/s links).
//!
//! A tight cap trades information for freshness: k = 1 discards most of the
//! stragglers' contributions (watch `expired`), while k = ∞ averages
//! arbitrarily old models. The sweep reports where the trade pays off per
//! strategy, plus the time and traffic to the end of the round budget.

use jwins::config::ExecutionMode;
use jwins::strategies::{ChocoConfig, JwinsConfig};
use jwins_bench::{banner, fmt_bytes, run_cifar, save_csv, Algo, RunCfg, Scale};
use jwins_fault::{FaultConfig, FaultPlan, StalenessPolicy};
use jwins_sim::HeterogeneityProfile;

/// 25% of nodes 4× slower; 100 Mbit/s, 5 ms links (the `ext_async` cluster).
fn straggler_cluster() -> HeterogeneityProfile {
    HeterogeneityProfile::stragglers(0.25, 4.0, 0.005, 100.0e6 / 8.0)
}

fn main() {
    let scale = Scale::from_env();
    banner(
        "ext_staleness — accuracy vs staleness cap under stragglers",
        "bounding how stale a mixed message may be (k rounds) recovers \
         accuracy lost to asynchrony without waiting for stragglers",
    );
    let rounds = scale.rounds(60);
    let mut csv = String::from(
        "strategy,cap_rounds,rounds_run,final_accuracy,mean_staleness_s,\
         messages_expired,sim_time_s,bytes_per_node\n",
    );
    let algos = [
        ("full-sharing", Algo::Full),
        ("jwins", Algo::Jwins(JwinsConfig::paper_default())),
        ("choco@20%", Algo::Choco(ChocoConfig::budget_20())),
    ];
    let caps: [Option<usize>; 4] = [Some(1), Some(2), Some(4), None];
    for (label, algo) in algos {
        println!("\n[{label}]");
        println!("  cap     rounds  accuracy  staleness[s]  expired  sim-time[s]  bytes/node");
        for cap in caps {
            let mut cfg = RunCfg::new(rounds);
            cfg.train.eval_every = (rounds / 15).max(2);
            cfg.train.execution = ExecutionMode::EventDriven;
            cfg.train.heterogeneity = straggler_cluster();
            cfg.train.faults = FaultConfig {
                plan: FaultPlan::None,
                staleness: match cap {
                    Some(k) => StalenessPolicy::drop_after_rounds(k),
                    None => StalenessPolicy::unbounded(),
                },
            };
            let result = run_cifar(scale, &algo, &cfg, 2);
            let last = result.final_record().expect("at least one evaluation");
            let cap_label = cap.map_or("inf".into(), |k| k.to_string());
            println!(
                "  k={cap_label:<4} {:>7}  {:>8.3}  {:>12.3}  {:>7}  {:>11.1}  {:>10}",
                result.rounds_run,
                last.test_accuracy,
                last.mean_staleness_s,
                last.messages_expired,
                last.sim_time_s,
                fmt_bytes(last.cum_bytes_per_node),
            );
            csv.push_str(&format!(
                "{label},{cap_label},{},{:.6},{:.4},{},{:.3},{:.0}\n",
                result.rounds_run,
                last.test_accuracy,
                last.mean_staleness_s,
                last.messages_expired,
                last.sim_time_s,
                last.cum_bytes_per_node,
            ));
        }
    }
    save_csv("ext_staleness", &csv);
    println!(
        "\nNote: dropped-over-cap messages are counted in `expired`; their \
         mixing weight renormalizes into the self-weight, so the effective \
         mixing matrix stays row-stochastic at every cap."
    );
}
