//! The metric catalogue: every name the benchmark prints, with its unit and
//! direction. `BENCHMARK.json` at the repo root lists the same names; a
//! unit test keeps the two in step.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// How much worse `change` is than `base`, as a share of `base`
    /// (negative when it is better).
    pub fn worsening(self, base: f64, change: f64) -> f64 {
        match self {
            Better::Lower => (change - base) / base.abs(),
            Better::Higher => (base - change) / base.abs(),
        }
    }
}

/// One catalogue entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Entry {
    Entry {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Entry {
    Entry {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The end-to-end metrics, the same on every workload (`--trace 0`).
pub const END_TO_END: [Entry; 6] = [
    lower("wall_s", "s"),
    lower("cpu_s", "s"),
    lower("peak_rss_mb", "MiB"),
    lower("setup_s", "s"),
    lower("bytes_per_node", "B"),
    lower("sim_time_s", "sim_s"),
];

/// The per-layer metrics (`--trace 1`): the learning outcome (a pure
/// function of the inputs, but one that moves by tens of percent from seed
/// to seed, so it cannot carry a regression bound), then what the traced
/// run attributes, then what direct drive measures.
pub const PER_LAYER: [Entry; 51] = [
    higher("quality.final_accuracy", "fraction"),
    lower("quality.final_test_loss", "nats"),
    lower("nn.train_cpu_s", "s"),
    lower("nn.train_calls", "count"),
    lower("nn.eval_cpu_s", "s"),
    lower("nn.eval_calls", "count"),
    lower("nn.params_copy_cpu_s", "s"),
    lower("nn.cpu_share", "fraction"),
    lower("strategy.make_cpu_s", "s"),
    lower("strategy.make_calls", "count"),
    lower("strategy.aggregate_cpu_s", "s"),
    lower("strategy.aggregate_calls", "count"),
    lower("strategy.cpu_share", "fraction"),
    lower("strategy.msg_bytes_mean", "B"),
    lower("strategy.alpha_mean", "fraction"),
    lower("topology.resolve_cpu_s", "s"),
    lower("topology.resolve_calls", "count"),
    lower("engine.self_cpu_s", "s"),
    lower("engine.self_cpu_share", "fraction"),
    lower("engine.propose_s", "s"),
    lower("engine.execute_s", "s"),
    lower("engine.commit_s", "s"),
    lower("engine.batches", "count"),
    higher("engine.mean_batch_width", "count"),
    higher("engine.cores_used", "cores"),
    higher("engine.events_per_s", "1/s"),
    higher("engine.attributed_share", "fraction"),
    lower("bench.trace_overhead_ratio", "ratio"),
    lower("nn.sgd_step_us", "us"),
    lower("nn.eval_sample_us", "us"),
    lower("data.sample_batch_us", "us"),
    lower("wavelet.forward_us", "us"),
    lower("wavelet.inverse_us", "us"),
    lower("sparsify.topk_us", "us"),
    lower("sparsify.gather_us", "us"),
    lower("codec.sparse_encode_us", "us"),
    lower("codec.sparse_decode_us", "us"),
    lower("codec.dense_encode_us", "us"),
    lower("codec.dense_decode_us", "us"),
    lower("average.add_sparse_us", "us"),
    lower("average.add_dense_us", "us"),
    lower("average.finish_us", "us"),
    lower("net.send_us", "us"),
    lower("net.drain_us", "us"),
    lower("sim.queue_push_us", "us"),
    lower("sim.queue_pop_us", "us"),
    lower("topology.build_ms", "ms"),
    lower("topology.weights_us", "us"),
    lower("trace.emit_us", "us"),
    higher("strategy.replay_coverage", "ratio"),
    lower("strategy.replayed_us", "us"),
];

/// Looks an end-to-end metric up by name.
pub fn end_to_end(name: &str) -> Option<&'static Entry> {
    END_TO_END.iter().find(|e| e.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;
    use serde::{find_field, Value};

    fn text(map: &[(String, Value)], key: &str) -> String {
        match find_field(map, key) {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("{key}: expected a string, found {other:?}"),
        }
    }

    fn entries(root: &[(String, Value)], key: &str) -> Vec<Vec<(String, Value)>> {
        find_field(root, key)
            .and_then(Value::as_seq)
            .unwrap_or_else(|| panic!("{key}: expected a list"))
            .iter()
            .map(|v| v.as_map().expect("an object").to_vec())
            .collect()
    }

    /// `BENCHMARK.json` and this catalogue are one contract in two places.
    #[test]
    fn benchmark_json_agrees_with_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let file = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let root = serde::json::parse(&file).expect("valid JSON");
        let root = root.as_map().expect("an object");

        let workloads = entries(root, "workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (listed, spec) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(text(listed, "name"), spec.name);
            assert_eq!(text(listed, "why"), spec.why);
            assert!(spec.why.len() <= 200);
        }

        let listed = entries(root, "end_to_end");
        assert_eq!(listed.len(), END_TO_END.len());
        for (listed, entry) in listed.iter().zip(&END_TO_END) {
            assert_eq!(text(listed, "name"), entry.name);
            assert_eq!(text(listed, "unit"), entry.unit);
            assert_eq!(text(listed, "better"), entry.better.as_str());
            match find_field(listed, "bound") {
                Some(Value::F64(b)) => assert!(*b > 0.0 && *b <= 0.25, "{}", entry.name),
                other => panic!("{}: bound {other:?}", entry.name),
            }
        }

        let listed = entries(root, "per_layer");
        assert_eq!(listed.len(), PER_LAYER.len());
        for (listed, entry) in listed.iter().zip(&PER_LAYER) {
            assert_eq!(text(listed, "name"), entry.name);
            assert_eq!(text(listed, "unit"), entry.unit);
            assert_eq!(text(listed, "better"), entry.better.as_str());
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|e| e.name)
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        for name in &names {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        for entry in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(entry.unit.len() <= 16);
        }
    }

    #[test]
    fn worsening_respects_direction() {
        assert!((Better::Lower.worsening(2.0, 2.2) - 0.1).abs() < 1e-12);
        assert!((Better::Higher.worsening(0.8, 0.72) - 0.1).abs() < 1e-12);
        assert!(Better::Lower.worsening(2.0, 1.0) < 0.0);
    }
}
