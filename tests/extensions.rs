//! Integration tests for the extension surface: churn, per-edge strategies
//! and peer sampling — what the paper claims or cites without evaluating.

use jwins::config::TrainConfig;
use jwins::cutoff::AlphaDistribution;
use jwins::engine::Trainer;
use jwins::strategies::{ChocoConfig, ChocoSgd, FullSharing, Jwins, JwinsConfig, RandomModelWalk};
use jwins::strategy::ShareStrategy;
use jwins_data::images::{cifar_like, ImageConfig};
use jwins_fault::{FaultOutage, FaultPlan, RejoinMode};
use jwins_net::TimeModel;
use jwins_nn::models::{mlp_classifier, ImageClassifier};
use jwins_topology::dynamic::StaticTopology;
use jwins_topology::peer_sampling::{PeerSampling, PeerSamplingConfig};

const NODES: usize = 6;

fn config(rounds: usize) -> TrainConfig {
    let mut cfg = TrainConfig::new(rounds);
    cfg.local_steps = 1;
    cfg.batch_size = 8;
    cfg.lr = 0.05;
    cfg.eval_every = 0;
    cfg.eval_test_samples = 96;
    cfg.threads = 2;
    cfg
}

/// [`config`] under a fault plan, on one-second rounds so the plan's times
/// read as rounds.
fn churned(rounds: usize, plan: FaultPlan) -> TrainConfig {
    let mut cfg = config(rounds);
    cfg.time_model = TimeModel::fixed_round(1.0);
    cfg.faults.plan = plan;
    cfg
}

fn build_and_run(
    rounds: usize,
    factory: impl FnMut(usize) -> (ImageClassifier, Box<dyn ShareStrategy>),
) -> jwins::metrics::RunResult {
    let data = cifar_like(&ImageConfig::tiny(), NODES, 2, 11);
    Trainer::builder(config(rounds))
        .topology(StaticTopology::random_regular(NODES, 2, 5).expect("feasible"))
        .test_set(data.test)
        .nodes(data.node_train, factory)
        .build()
        .expect("valid experiment")
        .run()
        .expect("run completes")
}

fn tiny_model(seed: u64) -> ImageClassifier {
    mlp_classifier(2 * 8 * 8, &[12], 4, seed)
}

#[test]
fn random_model_walk_spends_one_edge_per_round() {
    let full = build_and_run(20, |_| {
        (
            tiny_model(3),
            Box::new(FullSharing::new()) as Box<dyn ShareStrategy>,
        )
    });
    let rmw = build_and_run(20, |node| {
        (
            tiny_model(3),
            Box::new(RandomModelWalk::new(50 + node as u64)) as Box<dyn ShareStrategy>,
        )
    });
    // Degree-2 graph: RMW sends one full model per round instead of two.
    let ratio = rmw.total_traffic.bytes_sent as f64 / full.total_traffic.bytes_sent as f64;
    assert!(
        (0.35..0.75).contains(&ratio),
        "RMW/full byte ratio {ratio} not ≈ 1/d"
    );
    assert!(rmw.final_accuracy() > 0.3, "RMW failed to learn");
}

#[test]
fn jwins_outlives_choco_under_heavy_churn() {
    // The §V claim: replica-free JWINS degrades gracefully where CHOCO's
    // stale neighbour aggregate does not. Heavy churn (every node but node
    // 0 down half the time, a round at a stretch on average), same budget.
    let plan = FaultPlan::RandomChurn {
        mean_up_s: 1.0,
        mean_down_s: 1.0,
        horizon_s: 40.0,
        rejoin: RejoinMode::Warm,
    };
    let data = cifar_like(&ImageConfig::tiny(), NODES, 2, 11);
    let run = |jwins: bool| {
        Trainer::builder(churned(40, plan.clone()))
            .topology(StaticTopology::random_regular(NODES, 2, 5).expect("feasible"))
            .test_set(data.test.clone())
            .nodes(data.node_train.clone(), |node| {
                let strategy: Box<dyn ShareStrategy> = if jwins {
                    Box::new(Jwins::new(
                        JwinsConfig::with_alpha(AlphaDistribution::budget_20()),
                        700 + node as u64,
                    ))
                } else {
                    Box::new(ChocoSgd::new(ChocoConfig::budget_20()))
                };
                (tiny_model(3), strategy)
            })
            .build()
            .expect("valid experiment")
            .run()
            .expect("run completes")
    };
    let jwins = run(true);
    let choco = run(false);
    assert!(
        jwins.final_accuracy() >= choco.final_accuracy() - 0.02,
        "JWINS {} fell behind CHOCO {} under churn",
        jwins.final_accuracy(),
        choco.final_accuracy()
    );
}

#[test]
fn scripted_outage_node_rejoins_and_catches_up() {
    let data = cifar_like(&ImageConfig::tiny(), NODES, 2, 11);
    let outage = FaultPlan::Scripted(vec![FaultOutage::new(2, 5.0, 20.0)]);
    let result = Trainer::builder(churned(40, outage))
        .topology(StaticTopology::random_regular(NODES, 2, 5).expect("feasible"))
        .test_set(data.test)
        .nodes(data.node_train, |node| {
            (
                tiny_model(3),
                Box::new(Jwins::new(JwinsConfig::paper_default(), 60 + node as u64))
                    as Box<dyn ShareStrategy>,
            )
        })
        .build()
        .expect("valid experiment")
        .run()
        .expect("run completes");
    assert!(
        result.final_accuracy() > 0.4,
        "cluster never recovered from the outage: {}",
        result.final_accuracy()
    );
}

#[test]
fn peer_sampled_topology_trains_jwins() {
    let data = cifar_like(&ImageConfig::tiny(), NODES, 2, 11);
    let result = Trainer::builder(config(30))
        .topology(PeerSampling::new(NODES, PeerSamplingConfig::default(), 9))
        .test_set(data.test)
        .nodes(data.node_train, |node| {
            (
                tiny_model(3),
                Box::new(Jwins::new(JwinsConfig::paper_default(), 80 + node as u64))
                    as Box<dyn ShareStrategy>,
            )
        })
        .build()
        .expect("valid experiment")
        .run()
        .expect("run completes");
    assert!(
        result.final_accuracy() > 0.4,
        "JWINS on peer-sampled graphs reached only {}",
        result.final_accuracy()
    );
}

#[test]
fn jwins_tolerates_lossy_links() {
    let data = cifar_like(&ImageConfig::tiny(), NODES, 2, 11);
    let mut cfg = config(30);
    cfg.message_loss = 0.15;
    let result = Trainer::builder(cfg)
        .topology(StaticTopology::random_regular(NODES, 2, 5).expect("feasible"))
        .test_set(data.test)
        .nodes(data.node_train, |node| {
            (
                tiny_model(3),
                Box::new(Jwins::new(JwinsConfig::paper_default(), 40 + node as u64))
                    as Box<dyn ShareStrategy>,
            )
        })
        .build()
        .expect("valid experiment")
        .run()
        .expect("run completes");
    assert!(
        result.total_traffic.messages_dropped > 0,
        "loss never triggered"
    );
    assert!(
        result.final_accuracy() > 0.4,
        "JWINS collapsed under 15% message loss: {}",
        result.final_accuracy()
    );
}

#[test]
fn random_model_walk_on_every_node_sends_one_message_per_node_per_round() {
    // Every node walks on a seed of its own; each round each sends its full
    // model down exactly one edge and nothing on the others.
    let rounds = 15;
    let result = build_and_run(rounds, |node| {
        (
            tiny_model(3),
            Box::new(RandomModelWalk::new(node as u64)) as Box<dyn ShareStrategy>,
        )
    });
    assert_eq!(result.rounds_run, rounds);
    let traffic = &result.total_traffic;
    assert_eq!(traffic.messages_sent, (NODES * rounds) as u64);
    assert_eq!(traffic.messages_dropped, 0);
    assert_eq!(traffic.bytes_received, traffic.bytes_sent);
    // A broadcast strategy on the same 2-regular graph sends on both edges.
    let full = build_and_run(rounds, |_| {
        (
            tiny_model(3),
            Box::new(FullSharing::new()) as Box<dyn ShareStrategy>,
        )
    });
    assert_eq!(full.total_traffic.messages_sent, 2 * traffic.messages_sent);
}
