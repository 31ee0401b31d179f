//! Extension: fault-aware topology repair under churn.
//!
//! The paper's bandwidth comparisons assume a fixed communication graph;
//! under churn that graph leaks bytes, because a crashed node's neighbours
//! keep addressing it until it rejoins (or forever, for permanent
//! failures). This harness runs a 64-node CIFAR-like cluster through a
//! staggered churn plan — part of the victims rejoin, part never do — and
//! compares three policies:
//!
//! - `no-repair` (`RepairPolicy::None`): today's behaviour — survivors pay
//!   for dead edges;
//! - `degree-preserving` (`RepairPolicy::DegreePreserving`): orphaned
//!   half-edges are re-paired among the survivors, keeping degree and the
//!   mixing spectral gap healthy;
//! - `resample` (`RepairPolicy::PeerSamplingResample`): survivors draw
//!   fresh live peers uniformly, as a peer-sampling service would.
//!
//! For full-sharing, JWINS and CHoCo at matched budgets, the table reports
//! final accuracy, simulated time, cumulative bytes per node, the repair
//! telemetry (`edges_rewired`, `bandwidth_saved_bytes`) and the headline
//! metric: bytes per node per unit of final accuracy. The run asserts the
//! paper-extending claim — no-repair wastes strictly more bytes per unit
//! accuracy than degree-preserving repair under churn.
//!
//! `JWINS_SMOKE=1` shrinks the sweep (16 nodes, 2 algorithms) for the CI
//! `bench-smoke` job.

use jwins::config::ExecutionMode;
use jwins::cutoff::AlphaDistribution;
use jwins::metrics::RunResult;
use jwins::strategies::{ChocoConfig, JwinsConfig};
use jwins_bench::{banner, fmt_bytes, run_cifar_n, save_csv, Algo, RunCfg, Scale};
use jwins_fault::{FaultConfig, FaultOutage, FaultPlan, FaultTimeline, RejoinMode};
use jwins_sim::HeterogeneityProfile;
use jwins_topology::repair::RepairPolicy;

/// Heavy staggered churn: a third of the cluster crashes early, most of it
/// permanently; every third victim rejoins re-synced. Early permanent
/// crashes maximize the regime the experiment isolates — a no-repair
/// cluster keeps spending on dead edges round after round while its
/// survivors' effective degree (and mixing) decays.
fn churn_plan(nodes: usize) -> FaultPlan {
    let victims = (nodes / 3).max(2);
    let outages = (0..victims)
        .map(|k| {
            let node = 2 + k * (nodes / victims).max(1);
            let at_s = 1.5 + 1.1 * k as f64;
            if k % 3 == 1 {
                FaultOutage {
                    rejoin: RejoinMode::Resync,
                    ..FaultOutage::new(node, at_s, 5.0)
                }
            } else {
                FaultOutage::new(node, at_s, f64::INFINITY)
            }
        })
        .collect();
    FaultPlan::Scripted(outages)
}

fn run_once(
    scale: Scale,
    nodes: usize,
    degree: usize,
    rounds: usize,
    algo: &Algo,
    repair: RepairPolicy,
) -> RunResult {
    let mut cfg = RunCfg::new(rounds);
    cfg.train.eval_every = rounds;
    cfg.train.execution = ExecutionMode::EventDriven;
    cfg.train.heterogeneity = HeterogeneityProfile::stragglers(0.25, 2.0, 0.002, 12.5e6);
    cfg.train.time_model = jwins_net::TimeModel {
        compute_s: 1.0,
        ..jwins_net::TimeModel::default()
    };
    cfg.train.faults = FaultConfig {
        plan: churn_plan(nodes),
        ..FaultConfig::default()
    };
    cfg.train.repair = repair;
    run_cifar_n(scale, nodes, degree, algo, &cfg, 2)
}

fn policy_label(p: RepairPolicy) -> &'static str {
    match p {
        RepairPolicy::None => "no-repair",
        RepairPolicy::DegreePreserving => "degree-preserving",
        RepairPolicy::PeerSamplingResample => "resample",
        _ => "unknown",
    }
}

fn main() {
    let scale = Scale::from_env();
    let smoke = jwins_bench::smoke();
    banner(
        "ext_repair — fault-aware topology repair under churn",
        "survivors re-wiring around dead nodes spend strictly fewer bytes \
         per unit accuracy than clusters that keep paying for dead edges",
    );
    let (nodes, degree, rounds) = if smoke {
        (16, 4, 10)
    } else {
        (64, 4, scale.rounds(12))
    };
    let timeline = FaultTimeline::expand(&churn_plan(nodes), nodes, 0).expect("valid plan");
    println!(
        "{nodes} nodes ({degree}-regular), {rounds} rounds, {} outages \
         (peak {} down simultaneously){}\n",
        timeline.outage_count(),
        timeline.peak_concurrent_down(),
        if smoke { " [smoke]" } else { "" }
    );
    let algos: Vec<Algo> = if smoke {
        vec![
            Algo::Full,
            Algo::Jwins(JwinsConfig::with_alpha(AlphaDistribution::budget_20())),
        ]
    } else {
        vec![
            Algo::Full,
            Algo::Jwins(JwinsConfig::with_alpha(AlphaDistribution::budget_20())),
            Algo::Choco(ChocoConfig::budget_20()),
        ]
    };
    let policies = [
        RepairPolicy::None,
        RepairPolicy::DegreePreserving,
        RepairPolicy::PeerSamplingResample,
    ];

    println!(
        "{:<18} {:<18} {:>8} {:>10} {:>12} {:>9} {:>12} {:>14}",
        "policy", "algorithm", "acc", "sim-time", "bytes/node", "rewired", "saved", "bytes/acc"
    );
    let mut csv = String::from(
        "policy,algo,final_accuracy,sim_time_s,bytes_per_node,edges_rewired,\
         bandwidth_saved_bytes,bytes_per_accuracy\n",
    );
    // bytes-per-accuracy by (policy, algo) for the headline assertion.
    let mut cost: Vec<Vec<f64>> = vec![Vec::new(); policies.len()];
    for (pi, &policy) in policies.iter().enumerate() {
        for algo in &algos {
            let result = run_once(scale, nodes, degree, rounds, algo, policy);
            let last = result.final_record().expect("evaluated");
            assert!(
                last.test_accuracy > 0.0,
                "{}/{}: run learned nothing — bytes/accuracy undefined",
                policy_label(policy),
                algo.label()
            );
            let bytes_per_acc = last.cum_bytes_per_node / last.test_accuracy;
            println!(
                "{:<18} {:<18} {:>7.1}% {:>9.1}s {:>12} {:>9} {:>12} {:>14}",
                policy_label(policy),
                algo.label(),
                last.test_accuracy * 100.0,
                last.sim_time_s,
                fmt_bytes(last.cum_bytes_per_node),
                last.edges_rewired,
                fmt_bytes(last.bandwidth_saved_bytes as f64),
                fmt_bytes(bytes_per_acc)
            );
            csv.push_str(&format!(
                "{},{},{:.4},{:.2},{:.0},{},{},{:.0}\n",
                policy_label(policy),
                algo.label(),
                last.test_accuracy,
                last.sim_time_s,
                last.cum_bytes_per_node,
                last.edges_rewired,
                last.bandwidth_saved_bytes,
                bytes_per_acc
            ));
            cost[pi].push(bytes_per_acc);
        }
    }
    save_csv("ext_repair", &csv);

    // The headline claim, asserted on the full-sharing column where message
    // sizes are identical across policies: a cluster that never repairs
    // pays for its dead edges, so each accuracy point costs strictly more.
    let none_cost = cost[0][0];
    let repair_cost = cost[1][0];
    assert!(
        none_cost > repair_cost,
        "no-repair must waste more bytes per accuracy than degree-preserving: \
         {none_cost:.0} vs {repair_cost:.0}"
    );
    println!(
        "\nfull-sharing bytes per unit accuracy: no-repair {} vs \
         degree-preserving {} ({:.1}% cheaper with repair)",
        fmt_bytes(none_cost),
        fmt_bytes(repair_cost),
        100.0 * (1.0 - repair_cost / none_cost)
    );
}
