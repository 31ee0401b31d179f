//! Extension: the same `TrainConfig` on real OS threads vs the sim oracle.
//!
//! The transport abstraction's promise is that the engine does not care
//! what carries its messages: the virtual-time [`jwins_net::SimNetwork`]
//! and the real-concurrency [`jwins_net::ThreadChannelTransport`] (one OS
//! thread per node, framed messages over per-edge channels, wall-clock
//! stamps) are interchangeable backends behind one trait. This experiment
//! drives the promise end to end per strategy:
//!
//! 1. run the config on the **channel** backend — real threads, real
//!    nondeterministic arrival order, measured flight latency;
//! 2. replay the *same config + seed* on the **sim** backend under the
//!    latency profile the real run measured ([`jwins::crosscheck`]);
//! 3. cross-check: the two accuracy trajectories must agree within the
//!    declared tolerance, and a fixed-size strategy must meter *identical*
//!    bytes on both backends (frame headers are transport-internal).
//!
//! `JWINS_SMOKE=1` shrinks the cluster and round budget for the CI
//! `bench-smoke` job.

use jwins::config::{ChannelTransportConfig, ExecutionMode, TransportKind};
use jwins::crosscheck::{self, DEFAULT_ACCURACY_TOLERANCE};
use jwins::strategies::JwinsConfig;
use jwins_bench::{banner, fmt_bytes, run_cifar_n, save_csv, Algo, RunCfg, Scale};

fn main() {
    let scale = Scale::from_env();
    let smoke = jwins_bench::smoke();
    banner(
        "ext_transport — real OS-thread channels vs the sim oracle",
        "the same config + seed runs on both transport backends and the \
         accuracy trajectories must agree",
    );
    let (nodes, degree, rounds) = if smoke { (8, 2, 6) } else { (16, 4, 20) };
    if smoke {
        println!("[smoke] reduced to {nodes} nodes / {rounds} rounds");
    }
    let mut csv = String::from(
        "strategy,backend,rounds_run,final_accuracy,bytes_per_node,\
         measured_latency_s,max_accuracy_gap,traffic_gap_ratio\n",
    );
    let algos = [
        ("full-sharing", Algo::Full),
        ("jwins", Algo::Jwins(JwinsConfig::paper_default())),
    ];
    // When set, the first channel run also writes its full JSONL trace
    // there — CI uploads it as the real-backend artifact. Unlike sim
    // traces it is *not* `trace_report --check`-clean: wall-clock stamps
    // from concurrent node threads interleave, so t_ns is non-monotone
    // across nodes by design.
    let mut real_trace_jsonl = std::env::var("JWINS_REAL_TRACE_JSONL").ok();
    for (label, algo) in algos {
        let mut cfg = RunCfg::new(rounds);
        cfg.train.eval_every = (rounds / 3).max(2);
        cfg.train.transport = TransportKind::Channel(ChannelTransportConfig {
            mix_wait_ms: 2_000,
            poll_us: 100,
        });
        if let Some(path) = real_trace_jsonl.take() {
            cfg.train.trace.jsonl_path = Some(path);
        }
        let real = run_cifar_n(scale, nodes, degree, &algo, &cfg, 2);
        let measured = real
            .measured_latency_s
            .expect("channel backend measures flight latency");

        // The sim oracle replays the measured profile. In-process flight is
        // a small fraction of the modelled round, so this resolves to the
        // plain barrier sim; a slow backend would flip it to event-driven.
        let mut oracle_cfg = RunCfg::new(rounds);
        oracle_cfg.train.eval_every = cfg.train.eval_every;
        let profile = crosscheck::oracle_profile(
            real.measured_latency_s,
            jwins_net::TimeModel::default().compute_s,
        );
        if !profile.is_degenerate() {
            oracle_cfg.train.execution = ExecutionMode::EventDriven;
            oracle_cfg.train.heterogeneity = profile;
        }
        let oracle = run_cifar_n(scale, nodes, degree, &algo, &oracle_cfg, 2);

        let check = crosscheck::compare_to_oracle(&real, &oracle, DEFAULT_ACCURACY_TOLERANCE);
        assert!(
            check.within_tolerance(),
            "[{label}] real backend diverged from the sim oracle: {check:?}"
        );
        if matches!(algo, Algo::Full) {
            assert_eq!(
                check.traffic_gap_ratio, 0.0,
                "[{label}] fixed-size strategy must meter identical bytes"
            );
        }
        println!(
            "\n[{label}] {nodes} nodes  measured latency {:.2}ms  \
             max accuracy gap {:.4} (tol {:.2})  traffic gap {:.4}",
            measured * 1e3,
            check.max_accuracy_gap,
            check.tolerance,
            check.traffic_gap_ratio,
        );
        for (backend, result) in [("channel", &real), ("sim-oracle", &oracle)] {
            let last = result.final_record().expect("at least one evaluation");
            println!(
                "  {backend:<11} rounds {:>3}  acc {:.3}  bytes/node {:>10}",
                result.rounds_run,
                last.test_accuracy,
                fmt_bytes(last.cum_bytes_per_node),
            );
            csv.push_str(&format!(
                "{label},{backend},{},{:.6},{:.0},{:.6},{:.6},{:.6}\n",
                result.rounds_run,
                last.test_accuracy,
                last.cum_bytes_per_node,
                result.measured_latency_s.unwrap_or(0.0),
                check.max_accuracy_gap,
                check.traffic_gap_ratio,
            ));
        }
    }
    save_csv("ext_transport", &csv);
    println!(
        "\nNote: byte columns are application-level (frame headers are \
         transport-internal), so channel and sim rows price traffic on the \
         same axis."
    );
}
