//! Node churn: decentralized training while nodes leave and rejoin.
//!
//! The paper argues JWINS is "flexible to nodes leaving and joining" because
//! it keeps no per-neighbour replicas (§V). This example runs the same
//! workload three ways — no churn, random churn, and a scripted outage —
//! and shows training survives all of them, with CHOCO-SGD's error-feedback
//! state degrading where JWINS does not. Churn is a fault plan in the
//! configuration; on one-second rounds its times read as rounds.
//!
//! Run with: `cargo run --release --example node_churn`

use jwins::config::TrainConfig;
use jwins::cutoff::AlphaDistribution;
use jwins::engine::Trainer;
use jwins::strategies::{ChocoConfig, ChocoSgd, Jwins, JwinsConfig};
use jwins::strategy::ShareStrategy;
use jwins_data::images::{cifar_like, ImageConfig};
use jwins_fault::{FaultOutage, FaultPlan, RejoinMode};
use jwins_net::TimeModel;
use jwins_nn::models::mlp_classifier;
use jwins_topology::dynamic::StaticTopology;

use jwins_repro::smoke;

fn rounds() -> usize {
    if smoke() {
        12
    } else {
        80
    }
}

fn run(plan: &FaultPlan, use_jwins: bool) -> Result<f64, Box<dyn std::error::Error>> {
    let nodes = 8;
    let data = cifar_like(&ImageConfig::tiny(), nodes, 2, 42);
    let features = ImageConfig::tiny().pixels();
    let classes = ImageConfig::tiny().classes;

    let mut config = TrainConfig::new(rounds());
    config.local_steps = 2;
    config.batch_size = 8;
    config.lr = 0.1;
    config.eval_every = 0; // evaluate at the end only
    config.time_model = TimeModel::fixed_round(1.0);
    config.faults.plan = plan.clone();

    let trainer = Trainer::builder(config)
        .topology(StaticTopology::random_regular(nodes, 4, 7)?)
        .test_set(data.test.clone())
        .nodes(data.node_train.clone(), |node| {
            let model = mlp_classifier(features, &[32], classes, 42);
            let strategy: Box<dyn ShareStrategy> = if use_jwins {
                Box::new(Jwins::new(
                    JwinsConfig::with_alpha(AlphaDistribution::budget_20()),
                    1000 + node as u64,
                ))
            } else {
                Box::new(ChocoSgd::new(ChocoConfig::budget_20()))
            };
            (model, strategy)
        })
        .build()?;
    Ok(trainer.run()?.final_accuracy())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One node disappears for the middle half of the run, another flaps
    // (outage rounds scale with the smoke-shortened run).
    let down = |node, from: usize, until: usize| {
        FaultOutage::new(node, from as f64, (until - from) as f64)
    };
    let scripted = FaultPlan::Scripted(if smoke() {
        vec![down(3, 3, 9), down(5, 4, 5), down(5, 7, 8)]
    } else {
        vec![down(3, 20, 60), down(5, 30, 35), down(5, 45, 50)]
    });
    // Every node but node 0 is down 30 % of the time, one round at a stretch
    // on average.
    let random = FaultPlan::RandomChurn {
        mean_up_s: 0.7 / 0.3,
        mean_down_s: 1.0,
        horizon_s: rounds() as f64,
        rejoin: RejoinMode::Warm,
    };

    println!(
        "{:<24} {:>12} {:>12}",
        "fault plan", "jwins@20%", "choco@20%"
    );
    for (name, plan) in [
        ("none", FaultPlan::None),
        ("30% random downtime", random),
        ("scripted outages", scripted),
    ] {
        println!(
            "{name:<24} {:>11.1}% {:>11.1}%",
            run(&plan, true)? * 100.0,
            run(&plan, false)? * 100.0
        );
    }
    println!("\nJWINS keeps no per-neighbour state, so absent nodes simply rejoin;");
    println!("CHOCO's neighbour aggregate goes stale every round a message is missed.");
    Ok(())
}
