//! Extension: Byzantine resilience of the sharing strategies under robust
//! aggregation.
//!
//! The paper's evaluation assumes every node follows the protocol. This
//! harness drops that assumption: a seeded fraction of a 32-node CIFAR-like
//! cluster sign-flips every parameter it shares (the classic gradient-
//! inversion attack), and the survivors defend — or don't — with a robust
//! aggregation rule applied to their strategy's decoded contributions:
//!
//! - `none` (`Robust::None`): plain weighted averaging — the paper's mixing;
//! - `trimmed-mean` (`Robust::TrimmedMean`): drops the extreme tail on each
//!   coordinate and averages the survivors with renormalized weights;
//! - `median` (`Robust::Median`): coordinate-wise weighted median;
//! - `norm-clip` (`Robust::NormClip`): rescales any contribution whose
//!   deviation from the receiver's model exceeds a norm budget.
//!
//! For full-sharing and JWINS the table reports final accuracy, injected
//! message count and screened mass across attacker fractions — each rule
//! both honest (its mixing cost) and attacked (its screening power) — and
//! asserts the headline claim on full-sharing: at a seeded 25% sign-flip
//! attack, trimmed-mean and median hold ≥ 0.9× of their own honest
//! baseline's final accuracy while plain averaging collapses below 0.9× of
//! its. The JWINS rows are informative: its sparse, per-node energy-ranked
//! wavelet shares leave most coefficients covered by too few neighbours
//! for a coordinate-wise statistic to screen, so the defense does not
//! transfer — a measured limitation, printed but not asserted. A final
//! pass re-runs one attacked, defended configuration at 1/2/8 worker
//! threads and asserts bit-identical results — the adversarial layer
//! preserves the determinism contract.
//!
//! `JWINS_SMOKE=1` shrinks the sweep (16 nodes, 25% fraction only) for the
//! CI `bench-smoke` job.

use jwins::cutoff::AlphaDistribution;
use jwins::metrics::RunResult;
use jwins::strategies::JwinsConfig;
use jwins_adversary::{AttackBehavior, AttackPlan, Robust};
use jwins_bench::{banner, run_cifar_n, save_csv, Algo, RunCfg, Scale};

fn sign_flip(fraction: f64) -> AttackPlan {
    AttackPlan::RandomFraction {
        fraction,
        from_s: 0.0,
        until_s: f64::INFINITY,
        behavior: AttackBehavior::SignFlip,
    }
}

fn rule_label(rule: Robust) -> String {
    match rule {
        Robust::None => "none".into(),
        Robust::TrimmedMean { trim } => format!("trimmed-mean@{trim:.2}"),
        Robust::Median => "median".into(),
        Robust::NormClip { tau } => format!("norm-clip@{tau:.1}"),
        _ => "unknown".into(),
    }
}

/// Cluster sizing shared by every run of the sweep.
#[derive(Clone, Copy)]
struct Sizing {
    scale: Scale,
    nodes: usize,
    degree: usize,
    rounds: usize,
}

fn run_once(
    sz: Sizing,
    algo: &Algo,
    attack: AttackPlan,
    robust: Robust,
    threads: usize,
) -> RunResult {
    let mut cfg = RunCfg::new(sz.rounds);
    cfg.train.eval_every = sz.rounds;
    // A per-round re-randomized graph (as in the paper's Figure-7 regime):
    // on a static graph a node unlucky enough to draw more attackers than
    // the trim depth is poisoned chronically; re-randomizing makes the
    // exposure transient, which is the regime robust rules are built for.
    cfg.dynamic_topology = true;
    cfg.train.attack = attack;
    cfg.train.robust = robust;
    cfg.train.threads = threads;
    run_cifar_n(sz.scale, sz.nodes, sz.degree, algo, &cfg, 2)
}

fn main() {
    let scale = Scale::from_env();
    let smoke = jwins_bench::smoke();
    banner(
        "ext_byzantine — sign-flip attackers vs robust aggregation",
        "at a seeded 25% sign-flip attack, trimmed-mean and median hold \
         >= 0.9x of the honest final accuracy while plain averaging collapses",
    );
    let (nodes, degree, rounds) = if smoke {
        (16, 10, 14)
    } else {
        (32, 14, scale.rounds(20))
    };
    let sz = Sizing {
        scale,
        nodes,
        degree,
        rounds,
    };
    let fractions: &[f64] = if smoke { &[0.25] } else { &[0.125, 0.25] };
    let rules: &[Robust] = if smoke {
        &[
            Robust::None,
            Robust::TrimmedMean { trim: 0.45 },
            Robust::Median,
        ]
    } else {
        &[
            Robust::None,
            Robust::TrimmedMean { trim: 0.45 },
            Robust::Median,
            Robust::NormClip { tau: 1.0 },
        ]
    };
    let algos = [
        Algo::Full,
        Algo::Jwins(JwinsConfig::with_alpha(AlphaDistribution::budget_20())),
    ];
    println!(
        "{nodes} nodes ({degree}-regular), {rounds} rounds, fractions {fractions:?}{}\n",
        if smoke { " [smoke]" } else { "" }
    );

    println!(
        "{:<18} {:<10} {:<18} {:>8} {:>10} {:>12}",
        "algorithm", "attack", "aggregation", "acc", "injected", "mass-clipped"
    );
    let mut csv =
        String::from("algo,attacker_fraction,rule,final_accuracy,attacks_injected,mass_clipped\n");
    // (algo index, fraction, rule) -> final accuracy, for the assertions.
    let mut acc = std::collections::BTreeMap::new();
    for (ai, algo) in algos.iter().enumerate() {
        // Honest baselines for every rule — the attacked run of a rule is
        // judged against the same rule's honest accuracy, isolating attack
        // damage from the rule's own mixing cost.
        let honest_and_attacked = std::iter::once(0.0).chain(fractions.iter().copied());
        for (fraction, rule) in honest_and_attacked.flat_map(|f| rules.iter().map(move |&r| (f, r)))
        {
            let attack = if fraction > 0.0 {
                sign_flip(fraction)
            } else {
                AttackPlan::None
            };
            let result = run_once(sz, algo, attack, rule, 0);
            let attack_label = if fraction > 0.0 {
                format!("flip@{:.0}%", fraction * 100.0)
            } else {
                "honest".into()
            };
            let last = result.final_record().expect("evaluated");
            println!(
                "{:<18} {:<10} {:<18} {:>7.1}% {:>10} {:>12.3}",
                algo.label(),
                attack_label,
                rule_label(rule),
                last.test_accuracy * 100.0,
                last.attacks_injected,
                last.mass_clipped,
            );
            csv.push_str(&format!(
                "{},{:.3},{},{:.4},{},{:.4}\n",
                algo.label(),
                fraction,
                rule_label(rule),
                last.test_accuracy,
                last.attacks_injected,
                last.mass_clipped
            ));
            acc.insert(
                (ai, (fraction * 1000.0) as u64, rule_label(rule)),
                last.clone(),
            );
        }
    }
    save_csv("ext_byzantine", &csv);

    // Headline claim at the 25% sign-flip point, asserted on full-sharing
    // (dense shares: every coordinate sees every neighbour, the regime
    // coordinate-wise screening is built for). Each rule's attacked run is
    // judged against its own honest baseline. The JWINS rows are reported
    // but not asserted: its wavelet shares are sparse and energy-ranked
    // per node, so most coefficients arrive from too few neighbours for a
    // per-coordinate statistic to screen — an observed limitation of
    // coordinate-wise defenses under sparse sharing, not a harness bug.
    let ai = 0usize;
    let trimmed_rule = rule_label(Robust::TrimmedMean { trim: 0.45 });
    let honest_none = acc[&(ai, 0, rule_label(Robust::None))].test_accuracy;
    let plain = acc[&(ai, 250, rule_label(Robust::None))].test_accuracy;
    let honest_trimmed = acc[&(ai, 0, trimmed_rule.clone())].test_accuracy;
    let trimmed = &acc[&(ai, 250, trimmed_rule)];
    let honest_median = acc[&(ai, 0, rule_label(Robust::Median))].test_accuracy;
    let median = &acc[&(ai, 250, rule_label(Robust::Median))];
    assert!(
        honest_none > 0.5 && honest_trimmed > 0.5 && honest_median > 0.5,
        "honest baselines learned nothing: none {honest_none:.3}, \
         trimmed {honest_trimmed:.3}, median {honest_median:.3}"
    );
    assert!(
        trimmed.attacks_injected > 0 && trimmed.mass_clipped > 0.0,
        "the defended run saw no attack traffic"
    );
    assert!(
        plain < 0.9 * honest_none,
        "plain averaging survived the attack ({plain:.3} >= 0.9 x {honest_none:.3}) — \
         the scenario no longer discriminates"
    );
    assert!(
        trimmed.test_accuracy >= 0.9 * honest_trimmed,
        "trimmed-mean fell to {:.3} < 0.9 x its honest baseline {honest_trimmed:.3}",
        trimmed.test_accuracy
    );
    assert!(
        median.test_accuracy >= 0.9 * honest_median,
        "median fell to {:.3} < 0.9 x its honest baseline {honest_median:.3}",
        median.test_accuracy
    );
    println!(
        "\nfull-sharing honest/attacked: none {:.1}%/{:.1}%, trimmed-mean {:.1}%/{:.1}%, \
         median {:.1}%/{:.1}%",
        honest_none * 100.0,
        plain * 100.0,
        honest_trimmed * 100.0,
        trimmed.test_accuracy * 100.0,
        honest_median * 100.0,
        median.test_accuracy * 100.0
    );

    // Determinism: the attacked, defended run is bit-identical across
    // worker-thread counts (threads is a pure performance knob).
    let reference = run_once(
        sz,
        &algos[0],
        sign_flip(0.25),
        Robust::TrimmedMean { trim: 0.45 },
        1,
    );
    for threads in [2usize, 8] {
        let other = run_once(
            sz,
            &algos[0],
            sign_flip(0.25),
            Robust::TrimmedMean { trim: 0.45 },
            threads,
        );
        reference.assert_bit_identical(&other, &format!("threads=1 vs threads={threads}"));
    }
    println!("\ndeterminism: attacked run bit-identical at 1/2/8 worker threads");
}
