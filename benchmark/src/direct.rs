//! Direct drive: the benchmark calls each layer's public functions itself,
//! on inputs of the workload's shape, and times them with
//! `std::time::Instant` + `std::hint::black_box`.
//!
//! Inputs are real: the parameter delta comes from two SGD steps of the
//! workload's model on the workload's data, the sparse messages are what
//! the JWINS path would build from it at every α of the paper's cut-off
//! list, and the network/queue drives use the workload's node count,
//! degree, shard count and message size.

use crate::workload::{generate, Share, Spec, DEGREE};
use bytes::Bytes;
use jwins::average::PartialAverager;
use jwins::cutoff::AlphaDistribution;
use jwins::sparsify::{budget, gather, top_k_indices};
use jwins::strategies::JwinsConfig;
use jwins_codec::float::{FloatCodec, XorFloatCodec};
use jwins_codec::sparse::SparseVecCodec;
use jwins_data::batch::BatchSampler;
use jwins_net::{ByteBreakdown, PendingSend, SimNetwork, Transport};
use jwins_nn::model::Model;
use jwins_nn::models::{ClassSample, ImageClassifier};
use jwins_sim::{Conflict, Ordering, ShardedEventQueue, SimTime};
use jwins_topology::gen::random_regular;
use jwins_topology::weights::MetropolisWeights;
use jwins_topology::Graph;
use jwins_trace::{MemorySink, TraceConfig, TraceEvent, Tracer};
use jwins_wavelet::Dwt;
use serde::{Deserialize, Serialize};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Untimed calls before the first sample.
const WARM_UP: usize = 20;
/// Timed samples per metric: a multiple of the seven-entry α list, so
/// every α gets the same number of samples.
const SAMPLES: usize = 210;
/// A metric stops sampling early (never below [`MIN_SAMPLES`]) once it has
/// used this much time; the sample count is reported beside every value.
const TIME_CAP: Duration = Duration::from_millis(1500);
const MIN_SAMPLES: usize = 21;
/// Calls per sample are chosen so one sample lasts about this long: a
/// 100 ns call timed alone would mostly measure `Instant::now`.
const SAMPLE_TARGET: Duration = Duration::from_micros(50);

/// One direct-drive metric: order statistics over its samples, per call.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Measured {
    pub name: String,
    pub unit: String,
    pub median: f64,
    pub p95: f64,
    pub mean: f64,
    pub samples: u64,
}

struct Bench {
    out: Vec<Measured>,
}

impl Bench {
    fn push(&mut self, name: &str, unit: &str, per_call_ns: &[f64]) {
        let scale = match unit {
            "us" => 1e-3,
            "ms" => 1e-6,
            other => unreachable!("direct-drive unit {other}"),
        };
        let scaled: Vec<f64> = per_call_ns.iter().map(|ns| ns * scale).collect();
        self.out.push(Measured {
            name: name.to_owned(),
            unit: unit.to_owned(),
            median: crate::stats::median(&scaled),
            p95: crate::stats::percentile(&scaled, 95.0),
            mean: scaled.iter().sum::<f64>() / scaled.len() as f64,
            samples: scaled.len() as u64,
        });
    }

    /// Times `run(i, &mut state)` for sample `i`, with `state` built
    /// untimed by `prepare(i)` before each sample.
    fn measure<S, R>(
        &mut self,
        name: &str,
        unit: &str,
        mut prepare: impl FnMut(usize) -> S,
        mut run: impl FnMut(usize, &mut S) -> R,
    ) {
        let mut state = prepare(0);
        let probe = Instant::now();
        black_box(run(0, &mut state));
        let once = probe.elapsed().max(Duration::from_nanos(20));
        let calls = (SAMPLE_TARGET.as_nanos() / once.as_nanos()).clamp(1, 1000) as usize;
        for i in 0..WARM_UP {
            let mut state = prepare(i);
            black_box(run(i, &mut state));
        }
        let mut samples = Vec::with_capacity(SAMPLES);
        let begun = Instant::now();
        for i in 0..SAMPLES {
            let mut state = prepare(i);
            let start = Instant::now();
            for _ in 0..calls {
                black_box(run(i, black_box(&mut state)));
            }
            samples.push(start.elapsed().as_nanos() as f64 / calls as f64);
            if samples.len() >= MIN_SAMPLES && begun.elapsed() > TIME_CAP {
                break;
            }
        }
        self.push(name, unit, &samples);
    }

    /// [`Self::measure`] for calls that need no per-sample state.
    fn time<R>(&mut self, name: &str, unit: &str, mut run: impl FnMut(usize) -> R) {
        self.measure(name, unit, |_| (), |i, ()| run(i));
    }
}

/// The sparse message the JWINS path builds at one α.
struct SparseCase {
    k: usize,
    indices: Vec<u32>,
    values: Vec<f32>,
    wire: Vec<u8>,
}

/// Drives every layer on `spec`'s shapes and returns the metrics.
///
/// # Panics
///
/// Panics if a layer rejects input the workload itself would feed it —
/// that is a bug the benchmark should surface.
pub fn direct_drive(spec: &Spec, seed: u64) -> Vec<Measured> {
    let mut bench = Bench { out: Vec::new() };
    let inputs = generate(spec, seed);
    let mut model = spec.model(inputs.model_seed);
    let start_params = model.params();
    let mut params = start_params.clone();
    let dim = params.len();
    let mut sampler = BatchSampler::new(inputs.node_train[0].clone(), seed);
    let sgd_step = |model: &mut ImageClassifier, params: &mut [f32], batch: &[ClassSample]| {
        let (_, grad) = model.loss_and_grad(batch);
        for (p, g) in params.iter_mut().zip(&grad) {
            *p -= spec.lr * g;
        }
        model.set_params(params);
    };

    // The delta every share-path input is derived from: two real SGD steps.
    for _ in 0..2 {
        let batch = sampler.sample(spec.batch);
        sgd_step(&mut model, &mut params, &batch);
    }
    let delta: Vec<f32> = params
        .iter()
        .zip(&start_params)
        .map(|(a, b)| a - b)
        .collect();

    bench.time("data.sample_batch_us", "us", |_| sampler.sample(spec.batch));
    let batches: Vec<_> = (0..8).map(|_| sampler.sample(spec.batch)).collect();
    {
        let mut step_params = params.clone();
        bench.time("nn.sgd_step_us", "us", |i| {
            sgd_step(&mut model, &mut step_params, &batches[i % batches.len()]);
        });
    }
    let eval_chunk = &inputs.test[..inputs.test.len().min(64)];
    bench.measure(
        "nn.eval_sample_us",
        "us",
        |_| (),
        |_, ()| model.evaluate(eval_chunk),
    );
    // `evaluate` takes a chunk; report per sample.
    {
        let last = bench.out.last_mut().expect("just pushed");
        let per = eval_chunk.len() as f64;
        last.median /= per;
        last.p95 /= per;
        last.mean /= per;
    }

    // Wavelet + sparsification + sparse codec, as `Jwins` composes them.
    let config = JwinsConfig::paper_default();
    let (wavelet, levels) = config.wavelet.clone().expect("paper default has a wavelet");
    let dwt = Dwt::new(wavelet, levels).expect("paper default levels are valid");
    let AlphaDistribution::UniformList(alphas) = config.alpha.clone() else {
        unreachable!("the paper default cut-off is a uniform list");
    };
    let codec = SparseVecCodec::new(config.index_codec, config.value_codec);
    let scores = dwt.forward(&delta);
    let coeffs = dwt.forward(&params);
    let cases: Vec<SparseCase> = alphas
        .iter()
        .map(|&alpha| {
            let k = budget(scores.data.len(), alpha);
            let indices = top_k_indices(&scores.data, k);
            let values = gather(&coeffs.data, &indices);
            let wire = codec
                .encode(&indices, &values)
                .expect("sorted indices encode")
                .into_bytes();
            SparseCase {
                k,
                indices,
                values,
                wire,
            }
        })
        .collect();
    let case = |i: usize| &cases[i % cases.len()];

    bench.time("wavelet.forward_us", "us", |_| dwt.forward(&delta));
    bench.time("wavelet.inverse_us", "us", |_| {
        dwt.inverse(&coeffs).expect("layout matches")
    });
    bench.time("sparsify.topk_us", "us", |i| {
        top_k_indices(&scores.data, case(i).k)
    });
    bench.time("sparsify.gather_us", "us", |i| {
        gather(&coeffs.data, &case(i).indices)
    });
    bench.time("codec.sparse_encode_us", "us", |i| {
        codec
            .encode(&case(i).indices, &case(i).values)
            .expect("sorted indices encode")
    });
    bench.time("codec.sparse_decode_us", "us", |i| {
        codec.decode(&case(i).wire).expect("own encoding decodes")
    });

    // Dense codec, as `FullSharing` uses it.
    let dense_wire = XorFloatCodec.encode(&params);
    bench.time("codec.dense_encode_us", "us", |_| {
        XorFloatCodec.encode(&params)
    });
    bench.time("codec.dense_decode_us", "us", |_| {
        XorFloatCodec
            .decode(&dense_wire, dim)
            .expect("own encoding decodes")
    });

    // Averaging at the Metropolis–Hastings weight of a 4-regular graph.
    let weight = 1.0 / (DEGREE + 1) as f64;
    bench.measure(
        "average.add_sparse_us",
        "us",
        |_| PartialAverager::new(&coeffs.data, weight),
        |i, avg| avg.add_sparse(&case(i).indices, &case(i).values, weight),
    );
    bench.measure(
        "average.add_dense_us",
        "us",
        |_| PartialAverager::new(&params, weight),
        |_, avg| avg.add_dense(&start_params, weight),
    );
    // Opening and closing an average: `new` + `finish`, no contributions.
    bench.time("average.finish_us", "us", |_| {
        PartialAverager::new(&params, weight).finish()
    });

    // Topology: graph construction and Metropolis–Hastings weights.
    bench.time("topology.build_ms", "ms", |i| {
        random_regular(spec.nodes, DEGREE, seed.wrapping_add(i as u64)).expect("feasible graph")
    });
    bench.time("topology.weights_us", "us", |_| {
        MetropolisWeights::for_graph(&inputs.graph)
    });

    // Transport: every node (at most 256) broadcasts one Arc-aliased
    // message of the workload's size to its neighbours, then drains.
    let message_len = match spec.share {
        Share::Jwins => cases.iter().map(|c| c.wire.len()).sum::<usize>() / cases.len(),
        Share::Full => dense_wire.len(),
    };
    drive_network(&mut bench, spec, &inputs.graph, message_len);
    drive_queue(&mut bench, spec, seed);

    // Trace emission into an in-memory sink.
    let mut tracer = Tracer::from_config(&TraceConfig::default()).expect("no file sinks");
    tracer.push_sink(Box::new(MemorySink::new()));
    bench.time("trace.emit_us", "us", |i| {
        tracer.emit(TraceEvent::MsgSend {
            t_ns: i as u64,
            from: 0,
            to: 1,
            round: 0,
            bytes: message_len as u64,
            arrives_ns: i as u64 + 1,
        });
    });
    bench.out
}

/// `net.send_us` / `net.drain_us`: per message through
/// `SimNetwork::send_batch` and `drain`.
fn drive_network(bench: &mut Bench, spec: &Spec, graph: &Graph, message_len: usize) {
    let senders = spec.nodes.min(256);
    let mut network = SimNetwork::new(spec.nodes);
    // The engine always attaches its tracer, so every send also lands in
    // the flight-recorder ring.
    let tracer = Tracer::from_config(&TraceConfig::default()).expect("no file sinks");
    network.set_tracer(Arc::new(tracer));
    let payload = Bytes::from(vec![0x5au8; message_len]);
    let breakdown = ByteBreakdown {
        payload: message_len,
        metadata: 0,
    };
    let broadcast = || -> Vec<PendingSend> {
        (0..senders)
            .flat_map(|from| {
                let payload = &payload;
                graph
                    .neighbors(from)
                    .iter()
                    .map(move |&to| PendingSend::bulk(from, to, payload.clone(), breakdown))
            })
            .collect()
    };
    let messages = broadcast().len() as f64;
    let mut send_ns = Vec::with_capacity(SAMPLES);
    let mut drain_ns = Vec::with_capacity(SAMPLES);
    for i in 0..WARM_UP + SAMPLES {
        let sends = broadcast();
        let start = Instant::now();
        network.send_batch(black_box(sends));
        let sent = start.elapsed();
        let start = Instant::now();
        for node in 0..spec.nodes {
            black_box(network.drain(node, SimTime::MAX, None));
        }
        let drained = start.elapsed();
        if i >= WARM_UP {
            send_ns.push(sent.as_nanos() as f64 / messages);
            drain_ns.push(drained.as_nanos() as f64 / messages);
        }
    }
    bench.push("net.send_us", "us", &send_ns);
    bench.push("net.drain_us", "us", &drain_ns);
}

/// `sim.queue_push_us` / `sim.queue_pop_us`: per event through
/// `ShardedEventQueue::push` / `pop_independent_batch`, on the schedule the
/// straggler profile produces — every node always has one pending event,
/// three quarters of the nodes fire every tick and one quarter every fourth.
fn drive_queue(bench: &mut Bench, spec: &Spec, seed: u64) {
    const TICK_NS: u64 = 50_000_000;
    let period = |node: usize| if node % 4 == 3 { 4 * TICK_NS } else { TICK_NS };
    let mut queue: ShardedEventQueue<usize> =
        ShardedEventQueue::new(seed, spec.event_shards.unwrap_or(0), Ordering::Strict);
    for node in 0..spec.nodes {
        queue.push(SimTime(period(node)), node as u64, node, node);
    }
    let classify = |&node: &usize| Conflict::Exclusive { class: 1, node };
    let mut push_ns = Vec::with_capacity(SAMPLES);
    let mut pop_ns = Vec::with_capacity(SAMPLES);
    for i in 0..WARM_UP + SAMPLES {
        let start = Instant::now();
        let batch = queue.pop_independent_batch(classify);
        let popped = start.elapsed();
        let events = batch.len() as f64;
        let start = Instant::now();
        for scheduled in black_box(batch) {
            let node = scheduled.event;
            queue.push(
                SimTime(scheduled.time.0 + period(node)),
                node as u64,
                node,
                node,
            );
        }
        let pushed = start.elapsed();
        if i >= WARM_UP {
            pop_ns.push(popped.as_nanos() as f64 / events);
            push_ns.push(pushed.as_nanos() as f64 / events);
        }
    }
    bench.push("sim.queue_push_us", "us", &push_ns);
    bench.push("sim.queue_pop_us", "us", &pop_ns);
}

/// Mean microseconds the workload's strategy spends per node-round when
/// replayed from the direct-drive pieces, composed as `Jwins` /
/// `FullSharing` compose them with [`DEGREE`] neighbours.
pub fn replayed_share_us(spec: &Spec, measured: &[Measured]) -> f64 {
    let mean = |name: &str| {
        measured
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.mean)
    };
    let neighbours = DEGREE as f64;
    match spec.share {
        // make: DWT(delta), top-k, DWT(params), gather, encode;
        // aggregate: per message decode + add, then finish, inverse and
        // DWT(averaging delta).
        Share::Jwins => {
            3.0 * mean("wavelet.forward_us")
                + mean("sparsify.topk_us")
                + mean("sparsify.gather_us")
                + mean("codec.sparse_encode_us")
                + neighbours * (mean("codec.sparse_decode_us") + mean("average.add_sparse_us"))
                + mean("average.finish_us")
                + mean("wavelet.inverse_us")
        }
        Share::Full => {
            mean("codec.dense_encode_us")
                + neighbours * (mean("codec.dense_decode_us") + mean("average.add_dense_us"))
                + mean("average.finish_us")
        }
    }
}
