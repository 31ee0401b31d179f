//! Byzantine scenario differential suite.
//!
//! The adversarial layer rides the same determinism contracts as the rest
//! of the engine, and this suite pins all of them:
//!
//! 1. **The empty plan is a strict no-op.** `AttackPlan` with no windows
//!    plus `Robust::None` is bit-identical to a configuration that never
//!    mentions either field, at every worker thread count — the adversarial
//!    plumbing costs nothing when unused.
//! 2. **Attacked runs are deterministic.** A seeded attack plan with robust
//!    aggregation produces bit-identical records and canonically identical
//!    traces across 1/2/8 worker threads, on both execution substrates.
//! 3. **Attacks compose with faults.** A crashed attacker builds no
//!    messages, so it injects nothing while down — checked structurally on
//!    the trace.
//! 4. **`run_diff` localizes an attacker.** Toggling one attacker on an
//!    otherwise identical run first diverges at an `AttackInject` event.
//! 5. **The golden adversarial trace reproduces bit-for-bit** and satisfies
//!    the `trace_report --check` structural contract (parses clean, time
//!    monotone, bracketed by RunStart/RunEnd).
//! 6. **Unsupported combinations are rejected at build time.** A strategy
//!    whose update cannot be re-ordered as an average (CHOCO-SGD) plus a
//!    robust rule is a configuration error, not a silent fallback.
//! 7. **The defence works where it is claimed to.** Full sharing under a
//!    25 % sign-flip attack: plain averaging collapses, trimmed mean and
//!    median hold (the headline `ext_byzantine` prints a table around).

use jwins::config::{ExecutionMode, TrainConfig};
use jwins::engine::Trainer;
use jwins::metrics::RunResult;
use jwins::strategies::{ChocoConfig, ChocoSgd, FullSharing, Jwins, JwinsConfig};
use jwins::strategy::ShareStrategy;
use jwins::JwinsError;
use jwins_adversary::{AttackBehavior, AttackPlan, AttackWindow, Robust};
use jwins_data::images::{cifar_like, ImageConfig};
use jwins_fault::{FaultConfig, FaultOutage, FaultPlan, RejoinMode, StalenessPolicy};
use jwins_metrics::diff::TraceDiff;
use jwins_nn::models::{gn_lenet, mlp_classifier};
use jwins_sim::HeterogeneityProfile;
use jwins_topology::dynamic::{DynamicRegular, StaticTopology};
use jwins_topology::repair::RepairPolicy;
use jwins_trace::{MemorySink, TraceEvent};
use std::path::PathBuf;

const NODES: usize = 8;

/// The chaos workload of `tests/parallel_determinism.rs`: crashes, a
/// rejoin, staleness decay, repair, stragglers and mid-round checkpoints.
fn chaos_config(threads: usize) -> TrainConfig {
    let mut cfg = TrainConfig::quick_test();
    cfg.rounds = 6;
    cfg.lr = 0.1;
    cfg.eval_every = 1;
    cfg.threads = threads;
    cfg.execution = ExecutionMode::EventDriven;
    cfg.time_model.compute_s = 1.0;
    cfg.heterogeneity = HeterogeneityProfile::stragglers(0.25, 3.0, 0.002, 1.0e6);
    cfg.faults = FaultConfig {
        plan: FaultPlan::Scripted(vec![
            FaultOutage {
                rejoin: RejoinMode::Resync,
                ..FaultOutage::new(1, 2.5, 3.0)
            },
            FaultOutage::new(3, 7.5, f64::INFINITY),
        ]),
        staleness: StalenessPolicy::decay_after_rounds(1, 0.5),
    };
    cfg.repair = RepairPolicy::DegreePreserving;
    cfg.eval_interval_s = Some(1.5);
    cfg
}

/// Chaos plus adversaries: a quarter of the cluster sign-flips from the
/// start and the mix is defended with a trimmed mean deep enough to
/// actually trim at degree 3 (`floor(0.34 * 3) = 1` per side).
fn byz_config(threads: usize) -> TrainConfig {
    let mut cfg = chaos_config(threads);
    cfg.attack = AttackPlan::RandomFraction {
        fraction: 0.25,
        from_s: 0.0,
        until_s: f64::INFINITY,
        behavior: AttackBehavior::SignFlip,
    };
    cfg.robust = Robust::TrimmedMean { trim: 0.34 };
    cfg
}

fn run(cfg: TrainConfig, memory: Option<MemorySink>) -> RunResult {
    let data = cifar_like(&ImageConfig::tiny(), NODES, 2, 5);
    let mut builder = Trainer::builder(cfg)
        .topology(StaticTopology::random_regular(NODES, 3, 3).unwrap())
        .test_set(data.test)
        .nodes(data.node_train, |node| {
            let strategy: Box<dyn ShareStrategy> =
                Box::new(Jwins::new(JwinsConfig::paper_default(), 100 + node as u64));
            (mlp_classifier(2 * 8 * 8, &[8], 4, 7), strategy)
        });
    if let Some(memory) = memory {
        builder = builder.trace_sink(Box::new(memory));
    }
    builder.build().unwrap().run().unwrap()
}

fn canonical(memory: &MemorySink) -> Vec<TraceEvent> {
    jwins_trace::replay::canonicalize(&memory.events())
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/trace_byzantine_golden.jsonl")
}

/// An empty attack plan plus `Robust::None` is bit-identical to a run that
/// never mentions either field, at 1/2/8 worker threads — and no record
/// reports adversarial activity.
#[test]
fn empty_plan_and_no_rule_are_a_bit_noop() {
    let baseline = run(chaos_config(1), None);
    assert!(
        baseline.records.last().is_some_and(|r| r.crashes >= 2),
        "non-degenerate workload"
    );
    for threads in [1usize, 2, 8] {
        let mut cfg = chaos_config(threads);
        // Explicitly empty, not merely defaulted: the expansion and the
        // per-event timeline queries still run, and must change nothing.
        cfg.attack = AttackPlan::Scripted(Vec::new());
        cfg.robust = Robust::None;
        let noop = run(cfg, None);
        baseline.assert_bit_identical(
            &noop,
            &format!("defaults/1-thread vs empty-plan/{threads}-thread"),
        );
        for r in &noop.records {
            assert_eq!(r.attacks_injected, 0, "no-op plan injected");
            assert_eq!(r.mass_clipped, 0.0, "no-op rule clipped");
        }
    }
}

/// A seeded attack under robust aggregation is bit-identical across worker
/// thread counts — records and canonical traces alike — and the records
/// report the adversarial activity.
#[test]
fn attacked_runs_are_thread_invariant() {
    let sink1 = MemorySink::new();
    let base = run(byz_config(1), Some(sink1.clone()));
    let last = base.records.last().expect("evaluated");
    assert!(last.attacks_injected > 0, "attack plan never fired");
    assert!(last.mass_clipped > 0.0, "trimmed mean never trimmed");
    let events1 = canonical(&sink1);
    assert!(
        events1
            .iter()
            .any(|e| matches!(e, TraceEvent::AttackInject { .. })),
        "trace carries the injections"
    );
    assert!(
        events1
            .iter()
            .any(|e| matches!(e, TraceEvent::RobustClip { .. })),
        "trace carries the clips"
    );
    for threads in [2usize, 8] {
        let sink = MemorySink::new();
        let other = run(byz_config(threads), Some(sink.clone()));
        base.assert_bit_identical(&other, &format!("attacked 1-thread vs {threads}-thread"));
        assert_eq!(
            events1,
            canonical(&sink),
            "attacked canonical trace differs at {threads} threads"
        );
    }
}

/// The same invariance on the bulk-synchronous substrate, where injection
/// happens at the round barrier instead of per-event.
#[test]
fn attacked_sync_runs_are_thread_invariant() {
    let config = |threads: usize| {
        let mut cfg = TrainConfig::quick_test();
        cfg.rounds = 5;
        cfg.lr = 0.1;
        cfg.eval_every = 1;
        cfg.threads = threads;
        cfg.attack = AttackPlan::Scripted(vec![
            AttackWindow::forever(2, AttackBehavior::Scale { factor: -6.0 }),
            AttackWindow::forever(5, AttackBehavior::Garbage { std: 3.0 }),
        ]);
        cfg.robust = Robust::NormClip { tau: 1.0 };
        cfg
    };
    let base = run(config(1), None);
    let last = base.records.last().expect("evaluated");
    assert!(last.attacks_injected > 0, "sync substrate never injected");
    assert!(last.mass_clipped > 0.0, "norm clip never fired");
    for threads in [2usize, 8] {
        let other = run(config(threads), None);
        base.assert_bit_identical(&other, &format!("sync attacked 1 vs {threads} threads"));
    }
}

/// A crashed attacker injects nothing while it is down: injection happens
/// at message-build time, and a dead node builds no messages.
#[test]
fn crashed_attacker_injects_nothing_while_down() {
    let mut cfg = chaos_config(1);
    // Both fault victims attack permanently: node 1 crashes over
    // [2.5 s, 3.0 s) and rejoins; node 3 dies at 7.5 s for good.
    cfg.attack = AttackPlan::Scripted(vec![
        AttackWindow::forever(1, AttackBehavior::SignFlip),
        AttackWindow::forever(3, AttackBehavior::SignFlip),
    ]);
    cfg.robust = Robust::TrimmedMean { trim: 0.34 };
    let memory = MemorySink::new();
    let _ = run(cfg, Some(memory.clone()));
    let events = memory.events();

    // Reconstruct each node's down intervals from the lifecycle events.
    let mut down: Vec<(u32, u64, u64)> = Vec::new(); // (node, from_ns, until_ns)
    let mut open: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
    for e in &events {
        match *e {
            TraceEvent::NodeCrash { t_ns, node, .. } => {
                open.insert(node, t_ns);
            }
            TraceEvent::NodeRejoin { t_ns, node, .. } => {
                let from = open.remove(&node).expect("rejoin without crash");
                down.push((node, from, t_ns));
            }
            _ => {}
        }
    }
    for (node, from) in open {
        down.push((node, from, u64::MAX));
    }
    assert!(
        down.iter().any(|&(n, _, _)| n == 1) && down.iter().any(|&(n, _, _)| n == 3),
        "both scripted outages occurred"
    );

    let mut injections = [0u64; NODES];
    for e in &events {
        if let TraceEvent::AttackInject { t_ns, node, .. } = *e {
            injections[node as usize] += 1;
            assert!(
                !down
                    .iter()
                    .any(|&(n, from, until)| n == node && from <= t_ns && t_ns < until),
                "node {node} injected at {t_ns} ns while down"
            );
        }
    }
    assert!(injections[1] > 0, "node 1 attacks around its outage");
    // Node 3 injects before its crash at 7.5 s, then never again.
    assert!(injections[3] > 0, "node 3 attacks before dying");
    let crash3 = down
        .iter()
        .find(|&&(n, _, _)| n == 3)
        .map(|&(_, from, _)| from)
        .unwrap();
    assert!(
        events.iter().all(|e| !matches!(
            *e,
            TraceEvent::AttackInject { t_ns, node: 3, .. } if t_ns >= crash3
        )),
        "a permanently dead attacker stays silent"
    );
}

/// Toggling a single attacker on an otherwise identical run first diverges
/// at that attacker's `AttackInject` — everything up to the injection is
/// untouched, so `run_diff` points straight at the adversary.
#[test]
fn toggling_one_attacker_first_diverges_at_attack_inject() {
    let honest_sink = MemorySink::new();
    let _ = run(chaos_config(1), Some(honest_sink.clone()));
    let mut attacked = chaos_config(1);
    // Node 2 is fault-free in the chaos plan: the divergence is purely
    // adversarial, not a fault interaction.
    attacked.attack =
        AttackPlan::Scripted(vec![AttackWindow::forever(2, AttackBehavior::SignFlip)]);
    let attacked_sink = MemorySink::new();
    let _ = run(attacked, Some(attacked_sink.clone()));

    let a = honest_sink.events();
    let b = attacked_sink.events();
    let diff = TraceDiff::compare(&a, &b);
    let index = diff.divergence.expect("an attacker must move the trace");
    assert!(index > 0, "setup events stay identical");
    assert_eq!(
        b[index].kind_name(),
        "AttackInject",
        "first divergent event is the injection, got {} at {index}",
        b[index].kind_name()
    );
    assert!(
        matches!(b[index], TraceEvent::AttackInject { node: 2, .. }),
        "the injection names the toggled attacker"
    );
    assert_eq!(&a[..index], &b[..index], "prefix untouched by the toggle");
}

/// The checked-in golden adversarial trace reproduces exactly, and it
/// passes the same structural checks `trace_report --check` applies: every
/// line parses, virtual time is monotone, and the run is bracketed.
#[test]
fn golden_fixture_matches_fresh_run() {
    let path = golden_path();
    let parsed = jwins_trace::read_jsonl(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); regenerate with \
             `cargo test --test byzantine -- --ignored regenerate`",
            path.display()
        )
    });
    assert!(parsed.is_clean(), "golden fixture has unparsable lines");
    assert!(
        matches!(parsed.events.first(), Some(TraceEvent::RunStart { .. }))
            && matches!(parsed.events.last(), Some(TraceEvent::RunEnd { .. })),
        "fixture is bracketed by RunStart/RunEnd"
    );
    let mut clock = 0u64;
    for event in &parsed.events {
        assert!(event.t_ns() >= clock, "virtual time runs backwards");
        clock = event.t_ns();
    }
    // The new kinds are actually present — the fixture exercises the
    // parse path `trace_report --check` takes for them.
    for kind in ["AttackInject", "RobustClip"] {
        assert!(
            parsed.events.iter().any(|e| e.kind_name() == kind),
            "fixture carries no {kind} events"
        );
    }
    let fresh_sink = MemorySink::new();
    let _ = run(byz_config(1), Some(fresh_sink.clone()));
    let diff = TraceDiff::compare(&parsed.events, &fresh_sink.events());
    assert!(
        diff.is_identical(),
        "fresh adversarial run diverged from the golden fixture at {:?} — if \
         the engine change was intended, regenerate with \
         `cargo test --test byzantine -- --ignored regenerate`:\n{}",
        diff.divergence,
        diff.render(3)
    );
}

/// Robust aggregation requires a strategy whose update is an average;
/// CHOCO-SGD's error-feedback update is not, and the builder says so instead
/// of silently skipping the defense.
#[test]
fn robust_rule_with_unsupported_strategy_is_rejected_at_build() {
    let data = cifar_like(&ImageConfig::tiny(), NODES, 2, 5);
    let mut cfg = TrainConfig::quick_test();
    cfg.robust = Robust::Median;
    let err = Trainer::builder(cfg)
        .topology(StaticTopology::random_regular(NODES, 3, 3).unwrap())
        .test_set(data.test)
        .nodes(data.node_train, |_| {
            let strategy: Box<dyn ShareStrategy> =
                Box::new(ChocoSgd::new(ChocoConfig::budget_20()));
            (mlp_classifier(2 * 8 * 8, &[8], 4, 7), strategy)
        })
        .build()
        .map(|_| ())
        .expect_err("CHOCO-SGD cannot honor a robust rule");
    assert!(
        matches!(err, JwinsError::InvalidConfig(ref what) if what.contains("robust")),
        "wrong error: {err}"
    );
}

/// The adversarial headline, at `ext_byzantine`'s smoke configuration
/// (16 nodes, degree 10 re-drawn every round, GN-LeNet on the CIFAR-like
/// data, 14 rounds, seed 42, full sharing): under a seeded 25 % sign-flip
/// attack plain averaging loses more than a tenth of its honest accuracy
/// while trimmed-mean@0.45 and the median keep nine tenths of theirs.
#[test]
fn trimmed_mean_and_median_survive_a_quarter_of_sign_flippers() {
    const SEED: u64 = 42;
    let (nodes, degree, rounds) = (16, 10, 14);
    let final_record = |attacked: bool, robust: Robust| {
        let mut cfg = TrainConfig::new(rounds);
        cfg.local_steps = 2;
        cfg.batch_size = 8;
        cfg.lr = 0.08;
        cfg.seed = SEED;
        cfg.eval_every = rounds;
        cfg.eval_test_samples = 256;
        cfg.robust = robust;
        if attacked {
            cfg.attack = AttackPlan::RandomFraction {
                fraction: 0.25,
                from_s: 0.0,
                until_s: f64::INFINITY,
                behavior: AttackBehavior::SignFlip,
            };
        }
        let img = ImageConfig::cifar_small();
        let data = cifar_like(&img, nodes, 2, SEED);
        // Re-randomized every round, so drawing more attackers than the
        // trim depth is a transient exposure, not a chronic one.
        let result = Trainer::builder(cfg)
            .topology(DynamicRegular::new(nodes, degree, SEED ^ 0xD1).unwrap())
            .test_set(data.test)
            .nodes(data.node_train, |_| {
                let strategy: Box<dyn ShareStrategy> = Box::new(FullSharing::new());
                let model = gn_lenet(img.channels, img.height, img.width, img.classes, 8, SEED);
                (model, strategy)
            })
            .build()
            .unwrap()
            .run()
            .unwrap();
        result.final_record().expect("evaluated").clone()
    };
    let trim = Robust::TrimmedMean { trim: 0.45 };
    let honest_none = final_record(false, Robust::None).test_accuracy;
    let honest_trimmed = final_record(false, trim).test_accuracy;
    let honest_median = final_record(false, Robust::Median).test_accuracy;
    let plain = final_record(true, Robust::None).test_accuracy;
    let trimmed = final_record(true, trim);
    let median = final_record(true, Robust::Median).test_accuracy;
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
        median >= 0.9 * honest_median,
        "median fell to {median:.3} < 0.9 x its honest baseline {honest_median:.3}"
    );
}

/// Rewrites the golden adversarial fixture from the current engine. Run
/// explicitly after an intended behaviour change:
/// `cargo test --test byzantine -- --ignored regenerate`.
#[test]
#[ignore = "fixture generator, not a test"]
fn regenerate() {
    let sink = MemorySink::new();
    let _ = run(byz_config(1), Some(sink.clone()));
    let events = canonical(&sink);
    let mut text = String::new();
    for event in &events {
        text.push_str(&serde::json::to_string(event));
        text.push('\n');
    }
    let path = golden_path();
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(&path, text).unwrap();
    println!("wrote {} ({} events)", path.display(), events.len());
}
