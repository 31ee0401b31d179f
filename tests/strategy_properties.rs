//! Cross-crate properties of the sharing strategies.
//!
//! These pin down the paper's qualitative claims at tiny scale: budget
//! compliance on the wire, metadata negligibility, determinism, and the
//! orderings between algorithms that the figures report.

use jwins::config::TrainConfig;
use jwins::cutoff::AlphaDistribution;
use jwins::engine::Trainer;
use jwins::metrics::RunResult;
use jwins::strategies::{ChocoConfig, ChocoSgd, FullSharing, Jwins, JwinsConfig, RandomSampling};
use jwins::strategy::ShareStrategy;
use jwins_codec::sparse::IndexCodec;
use jwins_data::images::{cifar_like, ImageConfig};
use jwins_nn::models::mlp_classifier;
use jwins_topology::dynamic::{DynamicRegular, StaticTopology};

const NODES: usize = 8;

fn config(rounds: usize) -> TrainConfig {
    let mut c = TrainConfig::new(rounds);
    c.local_steps = 2;
    c.batch_size = 8;
    c.lr = 0.1;
    c.eval_every = 0;
    c.eval_test_samples = 128;
    c.threads = 2;
    c
}

fn run_with(
    rounds: usize,
    dynamic: bool,
    factory: impl Fn(usize) -> Box<dyn ShareStrategy>,
) -> RunResult {
    let img = ImageConfig::tiny();
    let data = cifar_like(&img, NODES, 2, 5);
    let builder = Trainer::builder(config(rounds))
        .test_set(data.test.clone())
        .nodes(data.node_train.clone(), |node| {
            (
                mlp_classifier(img.pixels(), &[24], img.classes, 11),
                factory(node),
            )
        });
    let builder = if dynamic {
        builder.topology(DynamicRegular::new(NODES, 4, 13).unwrap())
    } else {
        builder.topology(StaticTopology::random_regular(NODES, 4, 13).unwrap())
    };
    builder.build().unwrap().run().unwrap()
}

#[test]
fn all_strategies_learn_above_chance() {
    let chance = 0.25;
    for (name, factory) in strategy_matrix() {
        let result = run_with(15, false, factory);
        assert!(
            result.final_accuracy() > chance,
            "{name} stuck at {:.3}",
            result.final_accuracy()
        );
    }
}

type StrategyFactory = Box<dyn Fn(usize) -> Box<dyn ShareStrategy>>;

fn strategy_matrix() -> Vec<(&'static str, StrategyFactory)> {
    vec![
        (
            "full-sharing",
            Box::new(|_| Box::new(FullSharing::new()) as Box<dyn ShareStrategy>),
        ),
        (
            "random-sampling",
            Box::new(|_| Box::new(RandomSampling::new(0.37, 42)) as Box<dyn ShareStrategy>),
        ),
        (
            "jwins",
            Box::new(|n: usize| {
                Box::new(Jwins::new(JwinsConfig::paper_default(), 70 + n as u64))
                    as Box<dyn ShareStrategy>
            }),
        ),
        (
            "topk",
            Box::new(|n: usize| {
                Box::new(Jwins::new(JwinsConfig::topk(0.34), 70 + n as u64))
                    as Box<dyn ShareStrategy>
            }),
        ),
        (
            "choco",
            Box::new(|_| {
                Box::new(ChocoSgd::new(ChocoConfig {
                    fraction: 0.34,
                    gamma: 0.6,
                    ..ChocoConfig::budget_20()
                })) as Box<dyn ShareStrategy>
            }),
        ),
    ]
}

#[test]
fn sparse_strategies_save_bytes_in_budget_order() {
    let full = run_with(8, false, |_| Box::new(FullSharing::new()));
    let jwins20 = run_with(8, false, |n| {
        Box::new(Jwins::new(
            JwinsConfig::with_alpha(AlphaDistribution::budget_20()),
            n as u64,
        ))
    });
    let jwins10 = run_with(8, false, |n| {
        Box::new(Jwins::new(
            JwinsConfig::with_alpha(AlphaDistribution::budget_10()),
            n as u64,
        ))
    });
    let b_full = full.total_traffic.bytes_sent;
    let b20 = jwins20.total_traffic.bytes_sent;
    let b10 = jwins10.total_traffic.bytes_sent;
    assert!(b10 < b20, "10% ({b10}) should send less than 20% ({b20})");
    assert!(
        b20 < b_full,
        "20% ({b20}) should send less than full ({b_full})"
    );
}

#[test]
fn jwins_metadata_is_a_small_fraction_with_elias_gamma() {
    let result = run_with(8, false, |n| {
        Box::new(Jwins::new(JwinsConfig::paper_default(), n as u64))
    });
    let t = result.total_traffic;
    let frac = t.metadata_sent as f64 / t.bytes_sent as f64;
    assert!(frac < 0.25, "metadata fraction {frac:.3} too high");
}

#[test]
fn raw_metadata_roughly_doubles_traffic() {
    // The Figure-9 claim: without compression, metadata ≈ payload (both are
    // 32-bit per shared value). A full-budget draw (α = 1) implies its
    // indices under every index codec, so the paper's list without it is
    // what compares the codecs.
    let listed = || JwinsConfig {
        alpha: AlphaDistribution::UniformList(vec![0.10, 0.15, 0.20, 0.25, 0.30, 0.40]),
        ..JwinsConfig::paper_default()
    };
    let gamma = run_with(6, false, |n| {
        let mut cfg = listed();
        cfg.value_codec = jwins_codec::sparse::ValueCodec::Raw;
        Box::new(Jwins::new(cfg, n as u64))
    });
    let raw = run_with(6, false, |n| {
        let mut cfg = listed();
        cfg.index_codec = IndexCodec::RawU32;
        cfg.value_codec = jwins_codec::sparse::ValueCodec::Raw;
        Box::new(Jwins::new(cfg, n as u64))
    });
    let raw_meta = raw.total_traffic.metadata_sent as f64;
    let raw_payload = raw.total_traffic.payload_sent as f64;
    assert!(
        raw_meta > raw_payload * 0.9,
        "raw metadata {raw_meta} should be ~payload {raw_payload}"
    );
    let improvement = raw_meta / gamma.total_traffic.metadata_sent as f64;
    assert!(
        improvement > 3.0,
        "Elias gamma should shrink metadata several-fold, got {improvement:.1}x"
    );
}

#[test]
fn runs_are_reproducible() {
    let a = run_with(5, false, |n| {
        Box::new(Jwins::new(JwinsConfig::paper_default(), n as u64))
    });
    let b = run_with(5, false, |n| {
        Box::new(Jwins::new(JwinsConfig::paper_default(), n as u64))
    });
    assert_eq!(a.total_traffic.bytes_sent, b.total_traffic.bytes_sent);
    assert_eq!(a.final_accuracy(), b.final_accuracy());
}

#[test]
fn dynamic_topology_works_for_jwins_but_not_choco() {
    // Figure 7: JWINS keeps learning when neighbours change every round;
    // CHOCO's error-feedback state becomes incoherent. A harder workload
    // (more classes, heavier noise, stricter sharding) is needed so the
    // difference is visible before everything saturates.
    let mut img = ImageConfig::tiny();
    img.classes = 8;
    img.noise = 1.1;
    img.train_per_unit = 48;
    let data = cifar_like(&img, NODES, 2, 5);
    let run = |factory: &dyn Fn(usize) -> Box<dyn ShareStrategy>| {
        let mut cfg = config(12);
        cfg.lr = 0.05;
        Trainer::builder(cfg)
            .topology(DynamicRegular::new(NODES, 4, 13).unwrap())
            .test_set(data.test.clone())
            .nodes(data.node_train.clone(), |node| {
                (
                    mlp_classifier(img.pixels(), &[24], img.classes, 11),
                    factory(node),
                )
            })
            .build()
            .unwrap()
            .run()
            .unwrap()
    };
    let jwins_dyn = run(&|n| {
        Box::new(Jwins::new(JwinsConfig::paper_default(), n as u64)) as Box<dyn ShareStrategy>
    });
    let choco_dyn = run(&|_| {
        Box::new(ChocoSgd::new(ChocoConfig {
            fraction: 0.34,
            gamma: 0.6,
            ..ChocoConfig::budget_20()
        })) as Box<dyn ShareStrategy>
    });
    assert!(
        jwins_dyn.final_accuracy() > 1.5 / 8.0,
        "jwins-dynamic accuracy {:.3}",
        jwins_dyn.final_accuracy()
    );
    // CHOCO under dynamic topology must trail JWINS (the paper observes
    // "practically no learning"; at tiny scale a clear gap suffices).
    assert!(
        choco_dyn.final_accuracy() + 0.02 < jwins_dyn.final_accuracy(),
        "choco-dynamic {:.3} >= jwins-dynamic {:.3}",
        choco_dyn.final_accuracy(),
        jwins_dyn.final_accuracy()
    );
}

#[test]
fn mean_alpha_matches_distribution_mean() {
    let img = ImageConfig::tiny();
    let data = cifar_like(&img, NODES, 2, 5);
    let mut cfg = config(30);
    cfg.record_alphas = true;
    let trainer = Trainer::builder(cfg)
        .topology(StaticTopology::random_regular(NODES, 4, 13).unwrap())
        .test_set(data.test)
        .nodes(data.node_train, |node| {
            (
                mlp_classifier(img.pixels(), &[24], img.classes, 11),
                Box::new(Jwins::new(JwinsConfig::paper_default(), node as u64))
                    as Box<dyn ShareStrategy>,
            )
        })
        .build()
        .unwrap();
    let result = trainer.run().unwrap();
    assert_eq!(result.alpha_history.len(), 30);
    let all: Vec<f64> = result.alpha_history.iter().flatten().copied().collect();
    let mean = all.iter().sum::<f64>() / all.len() as f64;
    let expected = AlphaDistribution::paper_default().mean();
    assert!(
        (mean - expected).abs() < 0.08,
        "empirical mean α {mean:.3} vs {expected:.3}"
    );
    // Nodes draw independently: within a round, not all alphas equal.
    let varied = result
        .alpha_history
        .iter()
        .filter(|row| row.windows(2).any(|w| (w[0] - w[1]).abs() > 1e-9))
        .count();
    assert!(
        varied > 15,
        "only {varied}/30 rounds had per-node variation"
    );
}

#[test]
fn jwins_holds_less_state_than_choco() {
    // Paper §V: JWINS nodes do not maintain replicas of neighbour models,
    // making it more memory-efficient than CHOCO-style error feedback. JWINS
    // keeps V plus a round-start snapshot; CHOCO keeps x̂ and s. Both are
    // O(d), but the claim pinned here is that JWINS needs no *additional*
    // state when CHOCO-style replicas grow (e.g. non-memory-efficient CHOCO
    // keeps one replica per neighbour). We verify the measured state sizes
    // are reported and comparable (within 2x), and that FullSharing is
    // stateless.
    let d = 1000;
    let params: Vec<f32> = (0..d).map(|i| i as f32 * 0.01).collect();
    let mut full = FullSharing::new();
    full.init(&params);
    assert_eq!(full.state_bytes(), 0);
    let mut jwins = Jwins::new(JwinsConfig::paper_default(), 1);
    jwins.init(&params);
    let mut choco = ChocoSgd::new(ChocoConfig::budget_20());
    choco.init(&params);
    assert!(jwins.state_bytes() > 0 && choco.state_bytes() > 0);
    assert!(
        jwins.state_bytes() <= choco.state_bytes() + 4 * d,
        "jwins {} vs choco {}",
        jwins.state_bytes(),
        choco.state_bytes()
    );
}

mod robust_mixing {
    //! Mixing-layer robustness properties, exercised through the public
    //! `ShareStrategy` surface (`aggregate_robust`, which the engine calls
    //! at the mix boundary when `TrainConfig::robust` is set):
    //!
    //! - `Robust::None` is *bit-identical* to the plain aggregation path;
    //! - trimmed mean and median stay within the coordinate range spanned
    //!   by the node's own value and the honest neighbours, however extreme
    //!   the Byzantine minority;
    //! - norm clipping never increases a contribution's deviation norm;
    //! - every rule preserves the mixing row sum: a constant cluster is a
    //!   fixed point (removed mass is renormalized over the surviving
    //!   entries, not dropped).

    use jwins::strategies::{FullSharing, RandomSampling};
    use jwins::strategy::{ReceivedMessage, ShareStrategy};
    use jwins_adversary::Robust;
    use proptest::prelude::*;

    /// Builds one wire message per neighbour vector via `factory`, then
    /// aggregates them into `own` under `rule` with uniform mixing weights.
    fn mix(
        factory: &dyn Fn() -> Box<dyn ShareStrategy>,
        own: &[f32],
        neighbors: &[Vec<f32>],
        rule: &Robust,
    ) -> Vec<f32> {
        let messages: Vec<_> = neighbors
            .iter()
            .map(|p| {
                let mut peer = factory();
                peer.init(p);
                peer.make_message(0, p).expect("encode").bytes
            })
            .collect();
        let weight = 1.0 / (neighbors.len() + 1) as f64;
        let received: Vec<ReceivedMessage<'_>> = messages
            .iter()
            .enumerate()
            .map(|(i, bytes)| ReceivedMessage {
                from: i + 1,
                round: 0,
                weight,
                edge_weight: weight,
                bytes,
                decoded: None,
            })
            .collect();
        let mut me = factory();
        me.init(own);
        if rule.is_none() {
            me.aggregate(0, own, weight, &received).expect("aggregate")
        } else {
            me.aggregate_robust(0, own, weight, &received, rule)
                .expect("robust aggregate")
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// `aggregate_robust` with `Robust::None` is the plain aggregation,
        /// bit for bit — the invariant the engine's no-op differential
        /// (`tests/byzantine.rs`) relies on.
        #[test]
        fn none_rule_is_bit_identical_to_plain_aggregation(
            own in proptest::collection::vec(-2.0f32..2.0, 8..64),
            offsets in proptest::collection::vec(-1.0f32..1.0, 1..4),
        ) {
            let neighbors: Vec<Vec<f32>> = offsets
                .iter()
                .map(|o| own.iter().map(|v| v + o).collect())
                .collect();
            let mut peer = FullSharing::new();
            peer.init(&own);
            let messages: Vec<_> = neighbors
                .iter()
                .map(|p| peer.make_message(0, p).expect("encode").bytes)
                .collect();
            let weight = 1.0 / (neighbors.len() + 1) as f64;
            let received: Vec<ReceivedMessage<'_>> = messages
                .iter()
                .enumerate()
                .map(|(i, bytes)| ReceivedMessage {
                    from: i + 1,
                    round: 0,
                    weight,
                    edge_weight: weight,
                    bytes,
                    decoded: None,
                })
                .collect();
            let mut plain = FullSharing::new();
            plain.init(&own);
            let a = plain.aggregate(0, &own, weight, &received).expect("plain");
            let mut robust = FullSharing::new();
            robust.init(&own);
            let b = robust
                .aggregate_robust(0, &own, weight, &received, &Robust::None)
                .expect("robust none");
            prop_assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "None path drifted");
            }
        }

        /// Trimmed mean and median, called exactly as the engine calls
        /// them, stay inside the honest coordinate range for a Byzantine
        /// minority — the screen the `ext_byzantine` bench measures.
        #[test]
        fn wrapped_trim_and_median_are_bounded_by_honest_range(
            own in proptest::collection::vec(-2.0f32..2.0, 8..48),
            offsets in proptest::collection::vec(-0.5f32..0.5, 2..5),
            byz in prop_oneof![Just(-1.0e5f32), Just(1.0e5f32)],
        ) {
            let mut neighbors: Vec<Vec<f32>> = offsets
                .iter()
                .map(|o| own.iter().map(|v| v + o).collect())
                .collect();
            neighbors.push(vec![byz; own.len()]);
            let factory = || Box::new(FullSharing::new()) as Box<dyn ShareStrategy>;
            for rule in [Robust::TrimmedMean { trim: 0.49 }, Robust::Median] {
                let out = mix(&factory, &own, &neighbors, &rule);
                for (k, v) in out.iter().enumerate() {
                    let mut lo = own[k];
                    let mut hi = own[k];
                    for h in &neighbors[..offsets.len()] {
                        lo = lo.min(h[k]);
                        hi = hi.max(h[k]);
                    }
                    prop_assert!(
                        *v >= lo - 1e-4 && *v <= hi + 1e-4,
                        "{rule:?} coord {k}: {v} outside honest [{lo}, {hi}]"
                    );
                }
            }
        }

        /// Norm clipping never lets the aggregate move further from the own
        /// vector than `tau`, through a *sparse* strategy (exercising the
        /// `add_sparse` decode path the engine uses for subsampled wires).
        #[test]
        fn sparse_norm_clip_caps_the_aggregate_deviation(
            own in proptest::collection::vec(-2.0f32..2.0, 16..64),
            scale in 3.0f32..50.0,
            tau in 0.05f64..1.0,
        ) {
            let neighbors = vec![own.iter().map(|v| v * scale + 1.0).collect::<Vec<f32>>()];
            let factory = || Box::new(RandomSampling::new(0.5, 9)) as Box<dyn ShareStrategy>;
            let out = mix(&factory, &own, &neighbors, &Robust::NormClip { tau });
            let dev: f64 = out
                .iter()
                .zip(&own)
                .map(|(a, b)| (f64::from(*a) - f64::from(*b)).powi(2))
                .sum::<f64>()
                .sqrt();
            prop_assert!(dev <= tau + 1e-3, "deviation {dev} exceeds tau {tau}");
        }

        /// Row-stochasticity through the full strategy stack: a constant
        /// cluster is a fixed point of every rule (dense and sparse wires
        /// alike) — removed mass lands in the self entry, never vanishes.
        #[test]
        fn constant_cluster_is_a_fixed_point_of_every_rule(
            own in proptest::collection::vec(-3.0f32..3.0, 8..64),
            peers in 1usize..4,
            rule_pick in 0usize..4,
        ) {
            let rule = match rule_pick {
                0 => Robust::None,
                1 => Robust::TrimmedMean { trim: 0.4 },
                2 => Robust::Median,
                _ => Robust::NormClip { tau: 0.25 },
            };
            let neighbors = vec![own.clone(); peers];
            for factory in [
                (|| Box::new(FullSharing::new()) as Box<dyn ShareStrategy>)
                    as fn() -> Box<dyn ShareStrategy>,
                || Box::new(RandomSampling::new(0.6, 17)) as Box<dyn ShareStrategy>,
            ] {
                let out = mix(&factory, &own, &neighbors, &rule);
                for (a, b) in own.iter().zip(&out) {
                    prop_assert!(
                        (a - b).abs() < 1e-5,
                        "{rule:?} moved a constant cluster: {a} -> {b}"
                    );
                }
            }
        }
    }
}

mod adversarial_inputs {
    //! No strategy may panic on arbitrary neighbour bytes — a malformed or
    //! malicious message must surface as `Err`, never as a crash (the
    //! simulator stands in for real sockets, where garbage is a fact of
    //! life).

    use jwins::strategies::{
        ChocoConfig, ChocoSgd, FullSharing, Jwins, JwinsConfig, PowerGossip, PowerGossipConfig,
        QuantizedSharing, RandomModelWalk, RandomSampling,
    };
    use jwins::strategy::{Outbound, ReceivedMessage, ShareStrategy};
    use jwins_adversary::Robust;
    use proptest::prelude::*;

    fn params(dim: usize) -> Vec<f32> {
        (0..dim).map(|i| (i as f32 * 0.17).sin()).collect()
    }

    fn deliver_garbage(strategy: &mut dyn ShareStrategy, bytes: &[u8]) {
        let x = params(64);
        strategy.init(&x);
        let _ = strategy
            .make_outbound(0, &x, &[1])
            .expect("own message construction succeeds");
        let msg = ReceivedMessage {
            from: 1,
            round: 0,
            weight: 0.5,
            edge_weight: 0.5,
            bytes,
            decoded: None,
        };
        // Must not panic; Err or Ok are both acceptable outcomes.
        let _ = strategy.aggregate(0, &x, 0.5, &[msg]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn jwins_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
            let mut s = Jwins::new(JwinsConfig::paper_default(), 3);
            deliver_garbage(&mut s, &bytes);
        }

        #[test]
        fn choco_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
            let mut s = ChocoSgd::new(ChocoConfig::budget_20());
            deliver_garbage(&mut s, &bytes);
        }

        #[test]
        fn power_gossip_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
            let mut s = PowerGossip::new(PowerGossipConfig::global(1), 0, 7);
            deliver_garbage(&mut s, &bytes);
        }

        #[test]
        fn quantized_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
            let mut s = QuantizedSharing::new(255, 5);
            deliver_garbage(&mut s, &bytes);
        }

        #[test]
        fn rmw_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
            let mut s = RandomModelWalk::new(5);
            deliver_garbage(&mut s, &bytes);
        }
    }

    /// Every byte a receiver is charged for is validated: an honest message
    /// is accepted, the same message with a byte appended or its last byte
    /// cut off is an `Err` — from `aggregate` and, where the strategy has
    /// one, from `aggregate_robust`. `make(node)` builds one node's strategy.
    fn assert_consumed_exactly(make: impl Fn(u64) -> Box<dyn ShareStrategy>) {
        let x = params(200);
        let y: Vec<f32> = x.iter().map(|v| v * 0.9 + 0.01).collect();
        let mut sender = make(0);
        sender.init(&x);
        let honest = match sender.make_outbound(0, &x, &[1]).expect("sender encodes") {
            Outbound::Broadcast(msg) => msg.bytes.to_vec(),
            Outbound::PerEdge(mut msgs) => msgs.remove(0).expect("one neighbour").bytes.to_vec(),
        };
        let deliver = |bytes: &[u8], robust: bool| {
            let mut receiver = make(1);
            receiver.init(&y);
            let _ = receiver
                .make_outbound(0, &y, &[0])
                .expect("receiver encodes");
            let msg = ReceivedMessage {
                from: 0,
                round: 0,
                weight: 0.5,
                edge_weight: 0.5,
                bytes,
                decoded: None,
            };
            if robust {
                receiver.aggregate_robust(0, &y, 0.5, &[msg], &Robust::Median)
            } else {
                receiver.aggregate(0, &y, 0.5, &[msg])
            }
        };
        let robust_too = make(1).supports_robust();
        for robust in [false, true] {
            if robust && !robust_too {
                continue;
            }
            deliver(&honest, robust).expect("honest message accepted");
            for extra in [0x00, 0xFF] {
                let mut longer = honest.clone();
                longer.push(extra);
                assert!(
                    deliver(&longer, robust).is_err(),
                    "trailing {extra:#04x} accepted"
                );
            }
            assert!(
                deliver(&honest[..honest.len() - 1], robust).is_err(),
                "truncated message accepted"
            );
        }
    }

    #[test]
    fn full_sharing_consumes_a_message_exactly() {
        assert_consumed_exactly(|_| Box::new(FullSharing::new()));
    }

    #[test]
    fn jwins_consumes_a_message_exactly() {
        assert_consumed_exactly(|node| Box::new(Jwins::new(JwinsConfig::paper_default(), node)));
    }

    #[test]
    fn choco_consumes_a_message_exactly() {
        assert_consumed_exactly(|_| Box::new(ChocoSgd::new(ChocoConfig::budget_20())));
    }

    #[test]
    fn random_sampling_consumes_a_message_exactly() {
        assert_consumed_exactly(|_| Box::new(RandomSampling::new(0.37, 11)));
    }

    #[test]
    fn rmw_consumes_a_message_exactly() {
        assert_consumed_exactly(|node| Box::new(RandomModelWalk::new(node)));
    }

    #[test]
    fn own_messages_always_decode() {
        // Round-trip sanity across all strategies: a node's own wire image
        // is always accepted by a peer instance of the same strategy.
        let x = params(64);
        let y: Vec<f32> = x.iter().map(|v| v * 0.9 + 0.01).collect();
        let mut a = Jwins::new(JwinsConfig::paper_default(), 1);
        let mut b = Jwins::new(JwinsConfig::paper_default(), 2);
        a.init(&x);
        b.init(&y);
        let Outbound::Broadcast(msg) = a.make_outbound(0, &x, &[1]).unwrap() else {
            panic!("jwins broadcasts")
        };
        let _ = b.make_outbound(0, &y, &[0]).unwrap();
        b.aggregate(
            0,
            &y,
            0.5,
            &[ReceivedMessage {
                from: 0,
                round: 0,
                weight: 0.5,
                edge_weight: 0.5,
                bytes: &msg.bytes,
                decoded: None,
            }],
        )
        .expect("well-formed peer message accepted");
    }
}

mod aggregate_into_contract {
    //! `ShareStrategy::aggregate_into`, the engine's mix, against the
    //! allocating `aggregate` / `aggregate_robust`: two instances in the
    //! same state get the same inbox, one through each path.
    //!
    //! - On success the parameters are bit-equal, and so is what the
    //!   strategy does next (the next round's share and, for JWINS, its
    //!   accumulated scores).
    //! - On a damaged inbox both return the same error and `aggregate_into`
    //!   leaves the parameters bit-unchanged — what re-running a failed
    //!   mix over intact parameters relies on.
    //!
    //! JWINS overrides `aggregate_into`; full sharing, quantized and CHOCO
    //! run the default, checked here the same way.

    use jwins::average::TILE;
    use jwins::strategies::{
        ChocoConfig, ChocoSgd, FullSharing, Jwins, JwinsConfig, QuantizedSharing,
    };
    use jwins::strategy::{ReceivedMessage, ShareStrategy};
    use jwins_adversary::Robust;
    use proptest::prelude::*;

    fn params(dim: usize, phase: f32) -> Vec<f32> {
        (0..dim).map(|i| (i as f32 * 0.37 + phase).sin()).collect()
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// How the middle message of the inbox is damaged.
    #[derive(Debug, Clone, Copy)]
    enum Damage {
        /// Its last byte is cut off.
        Truncated,
        /// It was built by a model of another size: a sparse share indexes
        /// past the receiver's coefficients, a dense one carries another
        /// number of values.
        Misfit,
    }

    /// Checks the contract for one strategy. `make(node)` builds a node's
    /// strategy, `misfit(dim)` a share that does not fit a receiver of
    /// `dim` parameters, and `state` reads what of a strategy's state the
    /// next round depends on beyond its share.
    fn check<S: ShareStrategy>(
        make: impl Fn(u64) -> S,
        misfit: impl Fn(usize) -> Vec<u8>,
        state: impl Fn(&S) -> Vec<u32>,
        dim: usize,
        rule: &Robust,
        damage: Option<Damage>,
    ) {
        let case = format!("dim {dim}, {rule:?}, {damage:?}");
        let mut messages: Vec<Vec<u8>> = (1..=3u64)
            .map(|node| {
                let theirs = params(dim, node as f32);
                let mut peer = make(node);
                peer.init(&params(dim, 0.0));
                peer.make_message(0, &theirs)
                    .expect("encode")
                    .bytes
                    .to_vec()
            })
            .collect();
        match damage {
            Some(Damage::Truncated) => {
                messages[1].pop();
            }
            Some(Damage::Misfit) => messages[1] = misfit(dim),
            None => {}
        }
        let received: Vec<ReceivedMessage<'_>> = (messages.iter().enumerate())
            .map(|(j, bytes)| ReceivedMessage {
                from: j + 1,
                round: 0,
                weight: 0.2,
                edge_weight: 0.2,
                bytes,
                decoded: None,
            })
            .collect();
        let start = params(dim, 0.0);
        let trained: Vec<f32> = start.iter().map(|v| v * 0.9 + 0.01).collect();
        let (mut old, mut new) = (make(0), make(0));
        for s in [&mut old, &mut new] {
            s.init(&start);
            s.make_message(0, &trained).expect("own share");
        }
        let returned = if rule.is_none() {
            old.aggregate(0, &trained, 0.4, &received)
        } else {
            old.aggregate_robust(0, &trained, 0.4, &received, rule)
        };
        let mut in_place = trained.clone();
        let written = new.aggregate_into(0, &mut in_place, 0.4, &received, rule);
        match (returned, written) {
            (Ok(returned), Ok(())) => {
                assert!(damage.is_none(), "{case}: a damaged inbox mixed");
                assert_eq!(bits(&returned), bits(&in_place), "{case}: parameters");
                let moved: Vec<f32> = in_place.iter().map(|v| v * 0.8 - 0.02).collect();
                let next_old = old.make_message(1, &moved).expect("next share").bytes;
                let next_new = new.make_message(1, &moved).expect("next share").bytes;
                assert_eq!(next_old, next_new, "{case}: next round's share");
                assert_eq!(state(&old), state(&new), "{case}: state");
            }
            (Err(returned), Err(written)) => {
                assert!(
                    damage.is_some(),
                    "{case}: an intact inbox failed: {returned}"
                );
                assert_eq!(returned.to_string(), written.to_string(), "{case}: error");
                assert_eq!(bits(&in_place), bits(&trained), "{case}: written on error");
            }
            (returned, written) => panic!("{case}: {returned:?} vs {written:?}"),
        }
    }

    /// A share of `dim` parameters `0, 1, 2, …` from a `make(0)`
    /// initialised at zero.
    fn ramp_share<S: ShareStrategy>(make: impl Fn(u64) -> S, dim: usize) -> Vec<u8> {
        let mut sender = make(0);
        sender.init(&vec![0.0; dim]);
        let ramp: Vec<f32> = (0..dim).map(|i| i as f32).collect();
        sender
            .make_message(0, &ramp)
            .expect("encode")
            .bytes
            .to_vec()
    }

    fn jwins(node: u64) -> Jwins {
        Jwins::new(JwinsConfig::paper_default(), node)
    }

    /// A listed share of the largest tenth of a model more than twice as
    /// large: every index is past the receiver's coefficients. TopK is
    /// JWINS without the transform, on the same wire.
    fn jwins_misfit(dim: usize) -> Vec<u8> {
        ramp_share(|_| Jwins::new(JwinsConfig::topk(0.1), 0), 2 * dim + 64)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn jwins_mixes_in_place_as_it_returns(
            dim in prop_oneof![2usize..300, (TILE - 2)..(TILE + 4), 300..(3 * TILE + 300)],
            median in any::<bool>(),
            damage in 0usize..3,
        ) {
            let rule = if median { Robust::Median } else { Robust::None };
            let damage = [None, Some(Damage::Truncated), Some(Damage::Misfit)][damage];
            check(jwins, jwins_misfit, |s: &Jwins| bits(s.scores()), dim, &rule, damage);
        }

        #[test]
        fn the_default_mixes_in_place_as_it_returns(
            dim in prop_oneof![2usize..300, (TILE - 2)..(TILE + 4), 300..(3 * TILE + 300)],
            median in any::<bool>(),
            damage in 0usize..3,
        ) {
            let rule = if median { Robust::Median } else { Robust::None };
            let damage = [None, Some(Damage::Truncated), Some(Damage::Misfit)][damage];
            let full = |_| FullSharing::new();
            check(full, |d| ramp_share(full, d + 1), |_| Vec::new(), dim, &rule, damage);
            // A QSGD stream carries no count: a short one runs out, and a
            // long one (non-zero norm) has values left after the last read.
            let quantized = |node| QuantizedSharing::new(255, node);
            let short = |d: usize| ramp_share(quantized, d / 2);
            check(quantized, short, |_| Vec::new(), dim, &rule, damage);
            let long = |d: usize| ramp_share(quantized, 2 * d + 64);
            check(quantized, long, |_| Vec::new(), dim, &rule, damage);
            if rule.is_none() {
                let choco = |_| ChocoSgd::new(ChocoConfig::budget_20());
                let misfit = |d| ramp_share(choco, 2 * d + 64);
                check(choco, misfit, |_| Vec::new(), dim, &rule, damage);
            }
        }
    }
}
