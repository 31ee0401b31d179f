//! Timing decorators: the per-layer attribution, measured from outside.
//!
//! The traced run hands the engine every node's `Model` and `ShareStrategy`
//! and the `TopologyProvider` wrapped in decorators that time each call
//! into the layer and push a span into an in-memory buffer. The engine is
//! not touched, and the decorators forward every call unchanged, so the
//! traced run is bit-identical to the timed ones (a unit test and every
//! benchmark invocation check that).
//!
//! Span durations are wall time inside a worker thread. With at most one
//! worker per core that is the thread's busy time, so layer seconds are
//! attributed against the run's process CPU seconds, not its wall seconds:
//! workers run concurrently and only CPU sums.

use crate::workload::Hooks;
use jwins::strategy::{OutMessage, Outbound, PairingStats, ReceivedMessage, ShareStrategy};
use jwins_nn::model::{EvalMetrics, Model};
use jwins_nn::models::ImageClassifier;
use jwins_topology::dynamic::{RoundTopology, StaticTopology, TopologyProvider};
use jwins_topology::LiveSet;
use jwins_trace::{TraceEvent, TraceSink};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Only the first this-many nodes keep their individual spans for the trace
/// file (every node on the three small workloads); all nodes' calls enter
/// the totals. At 16 384 nodes a full span list would be ~200 MB of JSONL.
pub const SPAN_NODES: usize = 64;

/// One decorated call site: `(layer, op)` as the trace file names them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Train,
    Eval,
    ParamsCopy,
    Make,
    Aggregate,
    Resolve,
}

pub const OPS: [Op; 6] = [
    Op::Train,
    Op::Eval,
    Op::ParamsCopy,
    Op::Make,
    Op::Aggregate,
    Op::Resolve,
];

impl Op {
    pub fn layer(self) -> &'static str {
        match self {
            Op::Train | Op::Eval | Op::ParamsCopy => "nn",
            Op::Make | Op::Aggregate => "strategy",
            Op::Resolve => "topology",
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Op::Train => "train",
            Op::Eval => "eval",
            Op::ParamsCopy => "params_copy",
            Op::Make => "make",
            Op::Aggregate => "aggregate",
            Op::Resolve => "resolve",
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Span {
    op: Op,
    round: Option<u32>,
    start_ns: u64,
    end_ns: u64,
}

/// Busy nanoseconds and call count of one op.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpTotal {
    pub ns: u64,
    pub calls: u64,
}

/// One node's (or the topology provider's) recording.
#[derive(Debug, Default)]
struct Buffer {
    totals: [OpTotal; OPS.len()],
    /// `None` beyond [`SPAN_NODES`]: totals only.
    spans: Option<Vec<Span>>,
    msg_bytes: u64,
    alpha_sum: f64,
}

impl Buffer {
    fn new(keep_spans: bool) -> Self {
        Self {
            spans: keep_spans.then(Vec::new),
            ..Self::default()
        }
    }

    fn record(&mut self, span: Span) {
        let total = &mut self.totals[span.op as usize];
        total.ns += span.end_ns - span.start_ns;
        total.calls += 1;
        if let Some(spans) = &mut self.spans {
            spans.push(span);
        }
    }

    /// Adds `other`'s totals (not its spans) to `self`'s.
    fn add_totals(&mut self, other: &Buffer) {
        for (sum, part) in self.totals.iter_mut().zip(&other.totals) {
            sum.ns += part.ns;
            sum.calls += part.calls;
        }
        self.msg_bytes += other.msg_bytes;
        self.alpha_sum += other.alpha_sum;
    }

    /// Moves everything `other` holds into `self`.
    fn absorb(&mut self, other: &mut Buffer) {
        self.add_totals(other);
        if let (Some(mine), Some(theirs)) = (&mut self.spans, &mut other.spans) {
            mine.append(theirs);
        }
        *other = Buffer::new(other.spans.is_some());
    }
}

/// What every decorator shares with its [`Recorder`].
#[derive(Debug, Clone)]
struct Shared {
    /// Spans are relative to this instant.
    epoch: Instant,
    /// Calls are recorded only once the run has started: set-up calls into
    /// the layers too (`params`, `set_params`), and only what happens
    /// inside `run()` is attributed.
    armed: Arc<AtomicBool>,
    buffer: Arc<Mutex<Buffer>>,
}

impl Shared {
    /// Times `call`; `None` while the recorder is not armed.
    fn time<R>(&self, op: Op, round: Option<usize>, call: impl FnOnce() -> R) -> (R, Option<Span>) {
        // Relaxed: the flag publishes no data, and it is set before the
        // run spawns the threads that read it.
        if !self.armed.load(Ordering::Relaxed) {
            return (call(), None);
        }
        let start = Instant::now();
        let out = call();
        let end = Instant::now();
        let span = Span {
            op,
            round: round.map(|r| r as u32),
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.duration_since(self.epoch).as_nanos() as u64,
        };
        (out, Some(span))
    }
}

/// A node-side recording point. One thread at a time owns a node, so calls
/// land in a lock-free local buffer; it is merged into the node's shared
/// buffer when the engine drops the decorator at the end of the run. On
/// the 16 384-node workload a call lasts a microsecond, and a lock per call
/// would be a tenth of the run.
#[derive(Debug)]
struct Probe {
    shared: Shared,
    local: RefCell<Buffer>,
}

impl Probe {
    fn time<R>(&self, op: Op, round: Option<usize>, call: impl FnOnce() -> R) -> R {
        let (out, span) = self.shared.time(op, round, call);
        if let Some(span) = span {
            self.local.borrow_mut().record(span);
        }
        out
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        // A poisoned lock means a decorated run already panicked; there is
        // nothing left to report to.
        if let Ok(mut buffer) = self.shared.buffer.lock() {
            buffer.absorb(self.local.get_mut());
        }
    }
}

/// A `Model` that times `loss_and_grad`, `evaluate` and the parameter
/// copies.
pub struct TimedModel<M> {
    inner: M,
    probe: Probe,
}

impl<M: Model> Model for TimedModel<M> {
    type Sample = M::Sample;

    fn param_count(&self) -> usize {
        self.inner.param_count()
    }

    fn params(&self) -> Vec<f32> {
        self.probe
            .time(Op::ParamsCopy, None, || self.inner.params())
    }

    fn set_params(&mut self, flat: &[f32]) {
        let inner = &mut self.inner;
        self.probe
            .time(Op::ParamsCopy, None, || inner.set_params(flat));
    }

    fn loss_and_grad(&mut self, batch: &[Self::Sample]) -> (f32, Vec<f32>) {
        let inner = &mut self.inner;
        self.probe
            .time(Op::Train, None, || inner.loss_and_grad(batch))
    }

    fn evaluate(&mut self, batch: &[Self::Sample]) -> EvalMetrics {
        let inner = &mut self.inner;
        self.probe.time(Op::Eval, None, || inner.evaluate(batch))
    }
}

/// A `ShareStrategy` that times message building and aggregation and
/// forwards everything else untouched.
pub struct TimedStrategy {
    inner: Box<dyn ShareStrategy>,
    probe: Probe,
}

impl TimedStrategy {
    fn note_message(&self, bytes: usize) {
        let mut buffer = self.probe.local.borrow_mut();
        buffer.msg_bytes += bytes as u64;
        buffer.alpha_sum += self.inner.last_alpha();
    }
}

impl ShareStrategy for TimedStrategy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn init(&mut self, params: &[f32]) {
        self.inner.init(params);
    }

    fn make_message(&mut self, round: usize, params: &[f32]) -> jwins::Result<OutMessage> {
        let inner = &mut self.inner;
        let message = self
            .probe
            .time(Op::Make, Some(round), || inner.make_message(round, params))?;
        self.note_message(message.bytes.len());
        Ok(message)
    }

    fn make_outbound(
        &mut self,
        round: usize,
        params: &[f32],
        neighbors: &[usize],
    ) -> jwins::Result<Outbound> {
        let inner = &mut self.inner;
        let outbound = self.probe.time(Op::Make, Some(round), || {
            inner.make_outbound(round, params, neighbors)
        })?;
        let bytes = match &outbound {
            Outbound::Broadcast(message) => message.bytes.len(),
            Outbound::PerEdge(messages) => messages.iter().flatten().map(|m| m.bytes.len()).sum(),
        };
        self.note_message(bytes);
        Ok(outbound)
    }

    fn aggregate(
        &mut self,
        round: usize,
        params: &[f32],
        self_weight: f64,
        received: &[ReceivedMessage<'_>],
    ) -> jwins::Result<Vec<f32>> {
        let inner = &mut self.inner;
        self.probe.time(Op::Aggregate, Some(round), || {
            inner.aggregate(round, params, self_weight, received)
        })
    }

    fn last_alpha(&self) -> f64 {
        self.inner.last_alpha()
    }

    fn forget_edge(&mut self, peer: usize) {
        self.inner.forget_edge(peer);
    }

    fn state_bytes(&self) -> usize {
        self.inner.state_bytes()
    }

    fn pairing_stats(&mut self) -> Option<PairingStats> {
        self.inner.pairing_stats()
    }

    fn supports_robust(&self) -> bool {
        self.inner.supports_robust()
    }

    fn aggregate_robust(
        &mut self,
        round: usize,
        params: &[f32],
        self_weight: f64,
        received: &[ReceivedMessage<'_>],
        rule: &jwins_adversary::Robust,
    ) -> jwins::Result<Vec<f32>> {
        let inner = &mut self.inner;
        self.probe.time(Op::Aggregate, Some(round), || {
            inner.aggregate_robust(round, params, self_weight, received, rule)
        })
    }

    fn robust_stats(&mut self) -> Option<jwins_adversary::RobustStats> {
        self.inner.robust_stats()
    }
}

/// A `TopologyProvider` that times per-round resolution.
pub struct TimedTopology {
    inner: StaticTopology,
    shared: Shared,
}

impl TimedTopology {
    /// The provider is `Sync` and resolved from sequential engine code, so
    /// it records straight into its shared buffer.
    fn time(&self, round: usize, call: impl FnOnce() -> RoundTopology) -> RoundTopology {
        let (out, span) = self.shared.time(Op::Resolve, Some(round), call);
        if let Some(span) = span {
            self.shared
                .buffer
                .lock()
                .expect("no decorated call panics")
                .record(span);
        }
        out
    }
}

impl TopologyProvider for TimedTopology {
    fn nodes(&self) -> usize {
        self.inner.nodes()
    }

    fn topology(&self, round: usize) -> RoundTopology {
        self.time(round, || self.inner.topology(round))
    }

    fn topology_for(&self, round: usize, live: &LiveSet) -> RoundTopology {
        self.time(round, || self.inner.topology_for(round, live))
    }

    fn is_live_aware(&self) -> bool {
        self.inner.is_live_aware()
    }

    fn is_dynamic(&self) -> bool {
        self.inner.is_dynamic()
    }
}

/// Sums of the engine's own `ExecuteBatch` phase timings (event-driven
/// workloads; the barrier driver emits none).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Phases {
    pub propose_ns: u64,
    pub execute_ns: u64,
    pub commit_ns: u64,
    pub batches: u64,
    pub width_sum: u64,
}

/// A trace sink that folds `ExecuteBatch` events as they arrive — a
/// `MemorySink` would buffer one `MsgSend` per message on top.
#[derive(Debug, Clone, Default)]
struct PhaseSink(Arc<Mutex<Phases>>);

impl TraceSink for PhaseSink {
    fn record(&mut self, event: &TraceEvent) {
        if let TraceEvent::ExecuteBatch {
            width,
            propose_ns,
            execute_ns,
            commit_ns,
            ..
        } = *event
        {
            let mut phases = self.0.lock().expect("sink never panics while locked");
            phases.propose_ns += propose_ns;
            phases.execute_ns += execute_ns;
            phases.commit_ns += commit_ns;
            phases.batches += 1;
            phases.width_sum += u64::from(width);
        }
    }
}

/// The traced run's recording: hands out decorators while the trainer is
/// assembled and yields totals and the span file afterwards.
pub struct Recorder {
    epoch: Instant,
    armed: Arc<AtomicBool>,
    /// One shared buffer per node; the node's model and strategy decorators
    /// both merge into it.
    nodes: Vec<Arc<Mutex<Buffer>>>,
    topology: Arc<Mutex<Buffer>>,
    phases: PhaseSink,
}

/// What the recording adds up to; a traced child prints it as is.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Totals {
    /// One entry per [`Op`], in [`OPS`] order.
    pub ops: Vec<OpTotal>,
    /// Bytes of every message built.
    pub msg_bytes: u64,
    /// Sum of the sharing fraction over every message built.
    pub alpha_sum: f64,
    pub phases: Phases,
}

impl Totals {
    pub fn op(&self, op: Op) -> OpTotal {
        self.ops[op as usize]
    }

    /// Busy seconds of `op`.
    pub fn seconds(&self, op: Op) -> f64 {
        self.op(op).ns as f64 * 1e-9
    }

    /// Busy seconds of every decorated call together.
    pub fn decorated_seconds(&self) -> f64 {
        self.ops.iter().map(|t| t.ns).sum::<u64>() as f64 * 1e-9
    }
}

impl Recorder {
    /// A recorder whose spans are relative to `epoch`. Nothing is recorded
    /// until [`Self::arm`].
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            armed: Arc::new(AtomicBool::new(false)),
            nodes: Vec::new(),
            topology: Arc::new(Mutex::new(Buffer::new(true))),
            phases: PhaseSink::default(),
        }
    }

    fn share(&self, buffer: &Arc<Mutex<Buffer>>) -> Shared {
        Shared {
            epoch: self.epoch,
            armed: Arc::clone(&self.armed),
            buffer: Arc::clone(buffer),
        }
    }

    fn node_probe(&mut self, node: usize) -> Probe {
        while self.nodes.len() <= node {
            let keep = self.nodes.len() < SPAN_NODES;
            self.nodes.push(Arc::new(Mutex::new(Buffer::new(keep))));
        }
        Probe {
            shared: self.share(&self.nodes[node]),
            local: RefCell::new(Buffer::new(node < SPAN_NODES)),
        }
    }

    /// Starts recording; call right before `Trainer::run()`.
    pub fn arm(&self) {
        self.armed.store(true, Ordering::Relaxed);
    }

    /// Nanoseconds since the epoch the spans are relative to.
    pub fn elapsed_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Sums every buffer. Complete once the run has returned: the engine
    /// has dropped the decorators by then, which merges their recordings.
    pub fn totals(&self) -> Totals {
        let mut sum = Buffer::default();
        for buffer in self.nodes.iter().chain([&self.topology]) {
            sum.add_totals(&buffer.lock().expect("no decorated call panics"));
        }
        Totals {
            ops: sum.totals.to_vec(),
            msg_bytes: sum.msg_bytes,
            alpha_sum: sum.alpha_sum,
            phases: *self
                .phases
                .0
                .lock()
                .expect("sink never panics while locked"),
        }
    }

    /// Writes the spans as JSON lines: first the `run` span (id 0, the
    /// parent of every other span), then each kept span, by node and start
    /// time.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_jsonl(
        &self,
        out: &mut impl Write,
        run_start_ns: u64,
        run_end_ns: u64,
    ) -> std::io::Result<()> {
        writeln!(
            out,
            "{{\"id\":0,\"layer\":\"engine\",\"op\":\"run\",\"node\":null,\"round\":null,\
             \"start_ns\":{run_start_ns},\"end_ns\":{run_end_ns},\"parent\":null}}"
        )?;
        let mut id = 0u64;
        let buffers = self
            .nodes
            .iter()
            .enumerate()
            .map(|(node, buffer)| (Some(node), buffer))
            .chain([(None, &self.topology)]);
        for (node, buffer) in buffers {
            let buffer = buffer.lock().expect("no decorated call panics");
            let mut spans: Vec<Span> = buffer.spans.iter().flatten().copied().collect();
            spans.sort_by_key(|span| span.start_ns);
            let node = node.map_or_else(|| "null".to_owned(), |n| n.to_string());
            for span in spans {
                id += 1;
                let round = span
                    .round
                    .map_or_else(|| "null".to_owned(), |r| r.to_string());
                writeln!(
                    out,
                    "{{\"id\":{id},\"layer\":\"{}\",\"op\":\"{}\",\"node\":{node},\"round\":{round},\
                     \"start_ns\":{},\"end_ns\":{},\"parent\":0}}",
                    span.op.layer(),
                    span.op.name(),
                    span.start_ns,
                    span.end_ns
                )?;
            }
        }
        Ok(())
    }
}

impl Hooks for Recorder {
    type Model = TimedModel<ImageClassifier>;
    type Topology = TimedTopology;

    fn model(&mut self, node: usize, model: ImageClassifier) -> Self::Model {
        TimedModel {
            inner: model,
            probe: self.node_probe(node),
        }
    }

    fn strategy(
        &mut self,
        node: usize,
        strategy: Box<dyn ShareStrategy>,
    ) -> Box<dyn ShareStrategy> {
        Box::new(TimedStrategy {
            inner: strategy,
            probe: self.node_probe(node),
        })
    }

    fn topology(&mut self, topology: StaticTopology) -> TimedTopology {
        TimedTopology {
            inner: topology,
            shared: self.share(&self.topology),
        }
    }

    fn sink(&mut self) -> Option<Box<dyn TraceSink>> {
        Some(Box::new(self.phases.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::fingerprint;
    use crate::workload::{set_up, Plain, Spec, WORKLOADS};

    /// A 5-node (the smallest 4-regular graph), 3-round cut of a workload:
    /// same layers, tiny budget.
    fn tiny(base: &Spec) -> Spec {
        Spec {
            nodes: 5,
            rounds: 3,
            evaluations: 3,
            ..*base
        }
    }

    #[test]
    fn decorated_run_is_bit_identical_on_both_drivers() {
        // mlp_jwins: barrier driver, sparse path; mlp_full_async: event
        // engine, dense path.
        for base in [&WORKLOADS[1], &WORKLOADS[2]] {
            let spec = tiny(base);
            let plain = set_up(&spec, 9, &mut Plain)
                .expect("builds")
                .run()
                .expect("runs");
            let mut recorder = Recorder::new(Instant::now());
            let trainer = set_up(&spec, 9, &mut recorder).expect("builds");
            assert!(
                recorder.totals().ops.iter().all(|t| t.calls == 0),
                "set-up is not recorded"
            );
            recorder.arm();
            let traced = trainer.run().expect("runs");
            plain.assert_bit_identical(&traced, spec.name);
            assert_eq!(fingerprint(&plain), fingerprint(&traced));

            let totals = recorder.totals();
            let node_rounds = (spec.nodes * spec.rounds) as u64;
            assert_eq!(totals.op(Op::Make).calls, node_rounds);
            assert_eq!(totals.op(Op::Aggregate).calls, node_rounds);
            assert_eq!(
                totals.op(Op::Train).calls,
                node_rounds * spec.local_steps as u64
            );
            assert!(totals.op(Op::Eval).calls > 0);
            assert!(totals.op(Op::Resolve).calls > 0);
            assert!(totals.msg_bytes > 0);
            assert_eq!(
                totals.phases.batches > 0,
                spec.event_shards.is_some(),
                "{}: ExecuteBatch events come from the event engine only",
                spec.name
            );
        }
    }

    #[test]
    fn span_file_lists_the_run_span_then_children() {
        let spec = tiny(&WORKLOADS[1]);
        let mut recorder = Recorder::new(Instant::now());
        let trainer = set_up(&spec, 3, &mut recorder).expect("builds");
        recorder.arm();
        trainer.run().expect("runs");
        let mut file = Vec::new();
        recorder.write_jsonl(&mut file, 100, 123).expect("writes");
        let text = String::from_utf8(file).expect("utf-8");
        let mut lines = text.lines();
        let run = serde::json::parse(lines.next().expect("run span")).expect("json");
        let run = run.as_map().expect("object");
        assert_eq!(
            serde::find_field(run, "op"),
            Some(&serde::Value::Str("run".into()))
        );
        assert_eq!(
            serde::find_field(run, "end_ns"),
            Some(&serde::Value::U64(123))
        );
        let totals = recorder.totals();
        let calls: u64 = totals.ops.iter().map(|t| t.calls).sum();
        let mut children = 0u64;
        for line in lines {
            let span = serde::json::parse(line).expect("json");
            let span = span.as_map().expect("object");
            assert_eq!(
                serde::find_field(span, "parent"),
                Some(&serde::Value::U64(0))
            );
            children += 1;
        }
        assert_eq!(children, calls, "every call on a kept node is one span");
    }
}
