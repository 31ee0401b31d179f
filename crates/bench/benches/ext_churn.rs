//! Extension: node churn resilience.
//!
//! The paper claims JWINS is "more memory-efficient, and flexible to nodes
//! leaving and joining" than replica-based error feedback (§V), but never
//! runs that experiment. This harness does: the CIFAR-like workload at
//! matched ~20% communication budgets with every node but node 0 down an
//! increasing fraction of the time (a `RandomChurn` fault plan on one-second
//! rounds: outages last one round on average).
//! CHOCO-SGD's neighbour aggregate `s_i` silently assumes every neighbour's
//! compressed difference arrives every round, so missed rounds corrupt its
//! gossip state; JWINS and full-sharing renormalize over whoever actually
//! showed up.

use jwins::cutoff::AlphaDistribution;
use jwins::strategies::{ChocoConfig, JwinsConfig};
use jwins_bench::{banner, run_cifar, save_csv, Algo, RunCfg, Scale};
use jwins_fault::{FaultPlan, RejoinMode};
use jwins_net::TimeModel;

fn main() {
    let scale = Scale::from_env();
    banner(
        "Extension — churn resilience (paper §V claim, not evaluated there)",
        "JWINS and full-sharing degrade gracefully under churn; CHOCO's error feedback does not",
    );
    let rounds = scale.rounds(100);
    // Matched ~20% budgets: JWINS's Figure-6 two-point α distribution
    // {100%: 0.1, 10%: 0.9} vs CHOCO at fraction 0.2 with the paper's γ.
    let algos = [
        Algo::Full,
        Algo::Jwins(JwinsConfig::with_alpha(AlphaDistribution::budget_20())),
        Algo::Choco(ChocoConfig::budget_20()),
    ];
    let downtimes = [0.0, 0.2, 0.4];

    let mut csv = String::from("algo,downtime,final_accuracy\n");
    let mut by_algo: Vec<Vec<f64>> = vec![Vec::new(); algos.len()];
    println!(
        "{:<18} {:>10} {:>10} {:>10}",
        "algorithm", "p=0.0", "p=0.2", "p=0.4"
    );
    for (ai, algo) in algos.iter().enumerate() {
        let mut row = format!("{:<18}", algo.label());
        for &p in &downtimes {
            let mut cfg = RunCfg::new(rounds);
            cfg.train.eval_every = rounds;
            if p > 0.0 {
                // One second per round, so the plan reads in rounds.
                cfg.train.time_model = TimeModel::fixed_round(1.0);
                cfg.train.faults.plan = FaultPlan::RandomChurn {
                    mean_up_s: (1.0 - p) / p,
                    mean_down_s: 1.0,
                    horizon_s: rounds as f64,
                    rejoin: RejoinMode::Warm,
                };
            }
            let result = run_cifar(scale, algo, &cfg, 2);
            let acc = result.final_record().expect("evaluated").test_accuracy;
            row.push_str(&format!(" {:>9.1}%", acc * 100.0));
            csv.push_str(&format!("{},{p},{acc:.4}\n", algo.label()));
            by_algo[ai].push(acc);
        }
        println!("{row}");
    }
    save_csv("ext_churn", &csv);

    // Accuracy lost between no churn and 40% downtime, per algorithm.
    let drop_of = |accs: &[f64]| accs[0] - accs[2];
    let jwins_drop = drop_of(&by_algo[1]);
    let choco_drop = drop_of(&by_algo[2]);
    println!("\npaper-vs-measured:");
    println!("  paper: claims flexibility to leave/join for JWINS (no experiment)");
    println!(
        "  here:  40% downtime costs JWINS {:.1}pp and CHOCO {:.1}pp => {}",
        jwins_drop * 100.0,
        choco_drop * 100.0,
        if choco_drop > jwins_drop {
            "SUPPORTED (JWINS degrades less than CHOCO under churn)"
        } else {
            "NOT OBSERVED at this scale"
        }
    );
}
