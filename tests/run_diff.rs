//! Regression suite for structural run diffing (`jwins_metrics::diff`,
//! surfaced as the `run_diff` bin).
//!
//! The contracts pinned here:
//!
//! - two runs of the same configuration and seed compare *canonically
//!   identical*, even across worker-thread counts (the wall-clock side
//!   channel is stripped before comparison);
//! - a seed change diverges at the very first event (`RunStart` carries the
//!   seed);
//! - a learning-rate change first diverges at a *weight-carrying* event: a
//!   `MsgSend` whose payload byte count moved (the wire codec is
//!   value-dependent), at the exact same virtual send time — not at some
//!   setup or topology event;
//! - the checked-in golden trace (`tests/fixtures/trace_run_diff_golden.jsonl`)
//!   still reproduces bit-for-bit, so `run_diff` against a recorded
//!   baseline is meaningful across machines. Regenerate it after an
//!   *intended* behaviour change with
//!   `cargo test --test run_diff -- --ignored regenerate`.

use jwins::config::{ExecutionMode, TrainConfig};
use jwins::engine::Trainer;
use jwins::strategies::{Jwins, JwinsConfig};
use jwins::strategy::ShareStrategy;
use jwins_data::images::{cifar_like, ImageConfig};
use jwins_metrics::diff::TraceDiff;
use jwins_nn::models::mlp_classifier;
use jwins_sim::HeterogeneityProfile;
use jwins_topology::dynamic::StaticTopology;
use jwins_trace::{MemorySink, TraceEvent};
use std::path::PathBuf;

const NODES: usize = 6;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/trace_run_diff_golden.jsonl")
}

/// The fixture workload: small but non-degenerate (stragglers, real links,
/// per-round evals) so the trace has sends, mixes and staleness.
fn golden_config(threads: usize) -> TrainConfig {
    let mut cfg = TrainConfig::quick_test();
    cfg.rounds = 3;
    cfg.lr = 0.1;
    cfg.eval_every = 1;
    cfg.threads = threads;
    cfg.execution = ExecutionMode::EventDriven;
    cfg.time_model.compute_s = 1.0;
    cfg.heterogeneity = HeterogeneityProfile::stragglers(0.25, 3.0, 0.002, 1.0e6);
    cfg
}

fn run_traced(cfg: TrainConfig) -> Vec<TraceEvent> {
    let memory = MemorySink::new();
    let data = cifar_like(&ImageConfig::tiny(), NODES, 2, 5);
    Trainer::builder(cfg)
        .topology(StaticTopology::random_regular(NODES, 3, 3).unwrap())
        .test_set(data.test)
        .nodes(data.node_train, |node| {
            let strategy: Box<dyn ShareStrategy> =
                Box::new(Jwins::new(JwinsConfig::paper_default(), 100 + node as u64));
            (mlp_classifier(2 * 8 * 8, &[8], 4, 7), strategy)
        })
        .trace_sink(Box::new(memory.clone()))
        .build()
        .unwrap()
        .run()
        .unwrap();
    memory.events()
}

fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut text = String::new();
    for event in events {
        text.push_str(&serde::json::to_string(event));
        text.push('\n');
    }
    text
}

/// Identical seed and config → zero divergence, even across thread counts
/// (thread choice only moves the wall-clock side channel, which the diff
/// strips).
#[test]
fn identical_runs_diff_empty() {
    let a = run_traced(golden_config(1));
    let b = run_traced(golden_config(2));
    let diff = TraceDiff::compare(&a, &b);
    assert!(
        diff.is_identical(),
        "same-seed runs diverged at {:?}:\n{}",
        diff.divergence,
        diff.render(3)
    );
    assert!(diff.kind_deltas.is_empty());
    assert!(diff.metric_deltas.is_empty());
}

/// A seed change shows up immediately: `RunStart` carries the seed, so the
/// first divergent canonical event is index 0.
#[test]
fn seed_perturbation_diverges_at_run_start() {
    let a = run_traced(golden_config(1));
    let b = run_traced(golden_config(1).with_seed(43));
    let diff = TraceDiff::compare(&a, &b);
    assert_eq!(diff.divergence, Some(0), "RunStart carries the seed");
    assert!(diff
        .render(3)
        .contains("first divergence at canonical event 0"));
}

/// A learning-rate change moves only the model weights — so the first
/// divergence is a *weight-carrying* event, not setup or topology. The
/// wire codec is value-dependent (block-exponent float compression; JWINS adds
/// a magnitude-based wavelet cut-off on top), so the weights reach the
/// trace through a `MsgSend` payload byte count: same sender, same
/// receiver, same virtual send time, different `bytes`. Pinpointing that
/// kind of subtle cause is exactly what `run_diff` is for.
#[test]
fn lr_perturbation_first_diverges_at_a_weight_carrying_send() {
    let a = run_traced(golden_config(1));
    let b = run_traced(golden_config(1).with_lr(0.05));
    let diff = TraceDiff::compare(&a, &b);
    let index = diff.divergence.expect("different lr must diverge");
    assert!(index > 0, "header and early setup events stay identical");
    assert_eq!(
        a[index].kind_name(),
        "MsgSend",
        "weights surface on the wire first, got {} at {index}",
        a[index].kind_name()
    );
    assert_eq!(
        a[index].t_ns(),
        b[index].t_ns(),
        "the send is scheduled at the same virtual instant; only its \
         payload moved"
    );
    // Everything before the divergent send is untouched by the lr.
    assert_eq!(&a[..index], &b[..index]);
}

/// The checked-in golden trace still reproduces exactly: `run_diff`
/// against a recorded baseline stays meaningful across machines and PRs.
#[test]
fn golden_fixture_matches_fresh_run() {
    let path = golden_path();
    let parsed = jwins_trace::read_jsonl(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); regenerate with \
             `cargo test --test run_diff -- --ignored regenerate`",
            path.display()
        )
    });
    assert!(parsed.is_clean(), "golden fixture has unparsable lines");
    let fresh = run_traced(golden_config(1));
    let diff = TraceDiff::compare(&parsed.events, &fresh);
    assert!(
        diff.is_identical(),
        "fresh run diverged from the golden fixture at {:?} — if the engine \
         change was intended, regenerate the fixture with \
         `cargo test --test run_diff -- --ignored regenerate`:\n{}",
        diff.divergence,
        diff.render(3)
    );
}

/// Rewrites the golden fixture from the current engine. Run explicitly
/// after an intended behaviour change:
/// `cargo test --test run_diff -- --ignored regenerate`.
#[test]
#[ignore = "fixture generator, not a test"]
fn regenerate() {
    let events = jwins_trace::replay::canonicalize(&run_traced(golden_config(1)));
    let path = golden_path();
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(&path, to_jsonl(&events)).unwrap();
    println!("wrote {} ({} events)", path.display(), events.len());
}
