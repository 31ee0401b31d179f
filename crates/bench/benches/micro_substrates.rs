//! Criterion microbenchmarks of every substrate on the JWINS hot path:
//! wavelet transforms (by family and depth), FFT, entropy coders, float
//! codecs, TopK selection, gossip mixing, the partial average, JWINS's
//! whole mix (returned against written in place), the
//! `jwins_nn` layers and the event engine's fixed costs (queue push/pop per
//! event by node count, one empty batch dispatch by width). These quantify
//! the share path's design choices (wavelet family, metadata codec, value
//! codec), the SGD path's kernels and what the engine adds around them;
//! `docs/ARCHITECTURE.md`, "The share path", "The SGD path" and "Scale &
//! ordering", describe them. Every group starts with a line naming the
//! kernel sets it runs under.
//!
//! `cargo bench --bench micro_substrates -- nn/` runs one group.

use criterion::{
    black_box, criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion,
};
use jwins::average::{partial_average_into, DenseAverager, PartialAverager};
use jwins::engine::workers::{with_workers, Cell};
use jwins::sparsify::{budget, gather, top_k_indices, top_k_into};
use jwins::strategies::{FullSharing, Jwins, JwinsConfig};
use jwins::strategy::{Contribution, ReceivedMessage, ShareStrategy};
use jwins_adversary::Robust;
use jwins_codec::bitio::{BitReader, BitWriter};
use jwins_codec::float::{BlockFloatCodec, FloatCodec, RawFloatCodec};
use jwins_codec::quantize::Qsgd;
use jwins_codec::sparse::{IndexCodec, SparseVecCodec, ValueCodec};
use jwins_codec::{delta, lz, varint};
use jwins_fourier::fft_real;
use jwins_nn::conv::Conv2d;
use jwins_nn::layers::{AvgPool2d, Layer, Linear, Relu};
use jwins_nn::model::Model;
use jwins_nn::models::{gn_lenet, mlp_classifier, ClassSample};
use jwins_nn::norm::GroupNorm;
use jwins_nn::Tensor;
use jwins_sim::{Conflict, Ordering, ShardedEventQueue, SimTime};
use jwins_topology::{gen, weights::MetropolisWeights};
use jwins_wavelet::{Dwt, Wavelet};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// The trained-like vectors the codec's size tests pin.
#[path = "../../codec/tests/common/mod.rs"]
mod trained;

const DIM: usize = 65_536;

/// Starts the group `name`, headed by the kernel sets its timings run
/// under: both dispatchers' choice depends on the host.
fn headed_group<'c>(c: &'c mut Criterion, name: &str) -> BenchmarkGroup<'c> {
    println!(
        "{name}/kernel_set: nn {}, wavelet {}",
        jwins_nn::kernel_set(),
        jwins_wavelet::kernel_set()
    );
    c.benchmark_group(name)
}

fn model_vector(n: usize) -> Vec<f32> {
    (0..n).map(|i| (i as f32 * 0.013).sin() * 0.3).collect()
}

fn bench_wavelet(c: &mut Criterion) {
    let x = model_vector(DIM);
    let mut group = headed_group(c, "wavelet");
    group.sample_size(20);
    for name in ["haar", "sym2", "db4", "sym8"] {
        let dwt = Dwt::new(Wavelet::by_name(name).unwrap(), 4).unwrap();
        group.bench_with_input(BenchmarkId::new("forward_64k", name), &dwt, |b, dwt| {
            b.iter(|| black_box(dwt.forward(&x)));
        });
    }
    let dwt = Dwt::new(Wavelet::sym2(), 4).unwrap();
    let coeffs = dwt.forward(&x);
    group.bench_function("inverse_64k_sym2", |b| {
        b.iter(|| black_box(dwt.inverse(&coeffs).unwrap()));
    });
    // Both directions at the benchmark's d = 113 418, into buffers reused
    // from one call to the next as `Jwins` makes them: the tiled transforms
    // against the level-by-level ones they replaced, each with its own
    // workspace.
    let mlp = trained::trained_like(&trained::MLP);
    let layout = dwt.layout_for(mlp.len());
    let (mut coeffs, mut signal) = (Vec::new(), Vec::new());
    let (mut levels_work, mut tiled_work) = (Vec::new(), Vec::new());
    group.bench_function("forward_113418/levels", |b| {
        b.iter(|| {
            dwt.forward_levels_into(black_box(&mlp), &layout, &mut levels_work, &mut coeffs);
        });
    });
    group.bench_function("forward_113418/tiled", |b| {
        b.iter(|| dwt.forward_into(black_box(&mlp), &layout, &mut tiled_work, &mut coeffs));
    });
    group.bench_function("inverse_113418/levels", |b| {
        b.iter(|| {
            (dwt.inverse_levels_into(black_box(&coeffs), &layout, &mut levels_work, &mut signal))
                .unwrap();
        });
    });
    group.bench_function("inverse_113418/tiled", |b| {
        b.iter(|| {
            (dwt.inverse_into(black_box(&coeffs), &layout, &mut tiled_work, &mut signal)).unwrap();
        });
    });
    println!(
        "wavelet/work_f64: levels {}, tiled {}",
        levels_work.len(),
        tiled_work.len()
    );
    for levels in [1usize, 2, 4, 6] {
        let dwt = Dwt::new(Wavelet::sym2(), levels).unwrap();
        group.bench_with_input(
            BenchmarkId::new("forward_64k_levels", levels),
            &dwt,
            |b, dwt| {
                b.iter(|| black_box(dwt.forward(&x)));
            },
        );
    }
    group.finish();
}

fn bench_fft(c: &mut Criterion) {
    let x = model_vector(DIM);
    let x_odd = model_vector(DIM - 1); // Bluestein path
    let mut group = headed_group(c, "fft");
    group.sample_size(20);
    group.bench_function("radix2_64k", |b| b.iter(|| black_box(fft_real(&x))));
    group.bench_function("bluestein_64k-1", |b| {
        b.iter(|| black_box(fft_real(&x_odd)))
    });
    group.finish();
}

fn bench_codecs(c: &mut Criterion) {
    let indices: Vec<u32> = (0..DIM as u32 / 10).map(|i| i * 10).collect();
    let values: Vec<f32> = model_vector(indices.len());
    let mut group = headed_group(c, "codec");
    group.sample_size(30);
    group.bench_function("elias_gamma_encode_6k_indices", |b| {
        b.iter(|| black_box(delta::encode_gamma(&indices).unwrap()));
    });
    let encoded = delta::encode_gamma(&indices).unwrap();
    group.bench_function("elias_gamma_decode_6k_indices", |b| {
        b.iter(|| black_box(delta::decode_gamma(&encoded, indices.len()).unwrap()));
    });
    // The index block alone, as JWINS sends it at its mean cut-off: a
    // seeded selection of 36 % of the 113 420 coefficients, with gaps of
    // every length gamma meets there.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let selection: Vec<u32> = (0..113_420u32)
        .filter(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % 100 < 36
        })
        .collect();
    let mut block = Vec::new();
    group.bench_function("gamma_index_block/encode_113420_36pct", |b| {
        b.iter(|| {
            let mut w = BitWriter::appending(std::mem::take(&mut block));
            delta::encode_gamma_into(black_box(&selection), &mut w).unwrap();
            block = w.into_bytes();
            block.clear();
        });
    });
    let block = delta::encode_gamma(&selection).unwrap();
    let mut decoded = Vec::new();
    group.bench_function("gamma_index_block/decode_113420_36pct", |b| {
        b.iter(|| {
            decoded.clear();
            let mut r = BitReader::new(black_box(&block));
            delta::decode_gamma_from(&mut r, selection.len(), &mut decoded).unwrap();
        });
    });
    group.bench_function("block_float_encode_6k", |b| {
        b.iter(|| black_box(BlockFloatCodec.encode(&values)));
    });
    group.bench_function("raw_float_encode_6k", |b| {
        b.iter(|| black_box(RawFloatCodec.encode(&values)));
    });
    for (name, codec) in [
        (
            "gamma+block",
            SparseVecCodec::new(IndexCodec::EliasGammaDelta, ValueCodec::Block),
        ),
        (
            "raw+raw",
            SparseVecCodec::new(IndexCodec::RawU32, ValueCodec::Raw),
        ),
    ] {
        group.bench_with_input(
            BenchmarkId::new("sparse_roundtrip_6k", name),
            &codec,
            |b, codec| {
                b.iter(|| {
                    let enc = codec.encode(&indices, &values).unwrap();
                    black_box(codec.decode(enc.as_bytes()).unwrap())
                });
            },
        );
    }
    // LZ77 on the two streams the Figure-9 discussion contrasts: a
    // delta-coded index array (dictionary-friendly) and raw float payload
    // bytes (dictionary-hostile).
    let delta_bytes: Vec<u8> = indices
        .iter()
        .scan(0u32, |prev, &i| {
            let d = i - *prev;
            *prev = i;
            Some(d.to_le_bytes())
        })
        .flatten()
        .collect();
    group.bench_function("lz77_compress_index_deltas", |b| {
        b.iter(|| black_box(lz::compress(&delta_bytes)));
    });
    let float_bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
    group.bench_function("lz77_compress_float_payload", |b| {
        b.iter(|| black_box(lz::compress(&float_bytes)));
    });
    let packed = lz::compress(&delta_bytes);
    group.bench_function("lz77_decompress_index_deltas", |b| {
        b.iter(|| black_box(lz::decompress(&packed).unwrap()));
    });

    let qsgd = Qsgd::new(255);
    group.bench_function("qsgd_encode_6k", |b| {
        let mut s = 1u64;
        b.iter(|| {
            black_box(qsgd.encode(&values, || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 40) as f32 / (1u64 << 24) as f32
            }))
        });
    });
    group.finish();
}

/// Size and speed of the value codec on what the repository ships: a whole
/// trained-like model (full sharing) and the 36 % of its wavelet
/// coefficients JWINS sends at its mean cut-off. The bits-per-value line is
/// printed on every run, so a codec that stops compressing shows in the
/// `bench-smoke` log.
fn bench_float_codec(c: &mut Criterion) {
    let mlp = trained::trained_like(&trained::MLP);
    let lenet = trained::trained_like(&trained::LENET);
    // JWINS ranks by accumulated change, not by the value it ships: rank by
    // an unrelated vector's coefficients.
    let dwt = Dwt::new(Wavelet::sym2(), 4).unwrap();
    let reversed: Vec<f32> = mlp.iter().rev().copied().collect();
    let indices = top_k_indices(&dwt.forward(&reversed).data, 41_000);
    let selection = gather(&dwt.forward(&mlp).data, &indices);
    let bits_per_value =
        |values: &[f32]| BlockFloatCodec.encode(values).len() as f64 * 8.0 / values.len() as f64;
    println!(
        "codec/float bits per value (raw: 32): d=1570 {:.2}  d=113418 {:.2}  sparse k=41000 {:.2}",
        bits_per_value(&lenet),
        bits_per_value(&mlp),
        bits_per_value(&selection),
    );
    let mut group = headed_group(c, "codec/float");
    group.sample_size(30);
    for (name, values) in [("dense_113418", &mlp), ("sparse_41000", &selection)] {
        let mut wire = BlockFloatCodec.encode(values);
        group.bench_function(format!("encode/{name}"), |b| {
            b.iter(|| {
                wire.clear();
                BlockFloatCodec.encode_into(black_box(values), &mut wire);
            });
        });
    }
    group.finish();

    // A full-sharing fold of one message: decoded value by value into
    // per-coordinate numerators and denominators (how `FullSharing` folded
    // first), against decoded a block at a time into a model-sized buffer
    // and folded into one denominator (how it folded next).
    let wire = BlockFloatCodec.encode(&mlp);
    let weight = 0.2;
    let mut group = headed_group(c, "codec/dense/decode_fold");
    group.sample_size(30);
    let (mut num, mut den) = (vec![0.0f64; mlp.len()], vec![0.0f64; mlp.len()]);
    group.bench_function("per_value_113418", |b| {
        b.iter(|| {
            let mut decoder = BlockFloatCodec::decoder(black_box(&wire));
            for (num, den) in num.iter_mut().zip(&mut den) {
                *num += f64::from(decoder.next_value().unwrap()) * weight;
                *den += weight;
            }
            decoder.finish().unwrap();
        });
    });
    let mut avg = DenseAverager::default();
    avg.reset(&mlp, weight);
    let mut decoded = vec![0.0f32; mlp.len()];
    group.bench_function("block_113418", |b| {
        b.iter(|| {
            let mut decoder = BlockFloatCodec::decoder(black_box(&wire));
            decoder.next_values(&mut decoded).unwrap();
            decoder.finish().unwrap();
            avg.add(&decoded, weight);
        });
    });
    // A whole mix of four neighbours (the repo benchmark's degree) under
    // Metropolis–Hastings weights: each message decoded whole into a
    // model-sized buffer and added to a `DenseAverager` (how `FullSharing`
    // mixed once, its oracle now), against the strategy's own mix, which
    // reads every message a tile at a time into the tile loop.
    let wires: Vec<Vec<u8>> = (1..=4)
        .map(|j| {
            let theirs: Vec<f32> = mlp.iter().map(|v| v * (0.8 + 0.1 * j as f32)).collect();
            let mut sender = FullSharing::new();
            sender.init(&theirs);
            sender.make_message(0, &theirs).unwrap().bytes.to_vec()
        })
        .collect();
    let received: Vec<ReceivedMessage<'_>> = (wires.iter().enumerate())
        .map(|(j, bytes)| ReceivedMessage {
            from: j + 1,
            round: 0,
            weight: 0.2,
            bytes,
            decoded: None,
        })
        .collect();
    group.bench_function("whole_113418", |b| {
        b.iter(|| {
            avg.reset(black_box(&mlp), 0.2);
            for msg in &received {
                let (_, header) = varint::read_u64(msg.bytes).unwrap();
                let mut decoder = BlockFloatCodec::decoder(&msg.bytes[header..]);
                decoder.next_values(&mut decoded).unwrap();
                decoder.finish().unwrap();
                avg.add(&decoded, msg.weight);
            }
            let mut next = Vec::new();
            avg.finish_into(&mut next);
            next
        });
    });
    let mut strategy = FullSharing::new();
    strategy.init(&mlp);
    group.bench_function("tiled_113418", |b| {
        b.iter(|| {
            strategy
                .aggregate(0, black_box(&mlp), 0.2, &received)
                .unwrap()
        });
    });
    group.finish();
    black_box((num, den, avg));

    // The index block at the two ends of the cut-off on the same probe: a
    // full-budget share implies its indices (0 bits), a 10 % one pays
    // Elias gamma for each. Decoded as the strategies consume them: into
    // buffers reused from one message to the next.
    let coeffs = dwt.forward(&mlp).data;
    let scores = dwt.forward(&reversed).data;
    let full: Vec<u32> = (0..coeffs.len() as u32).collect();
    let tenth = top_k_indices(&scores, coeffs.len().div_ceil(10));
    let codec = SparseVecCodec::default();
    let frame = |indices: &[u32]| codec.encode(indices, &gather(&coeffs, indices)).unwrap();
    let (full_frame, tenth_frame) = (frame(&full), frame(&tenth));
    let index_bits = |frame: &jwins_codec::sparse::EncodedSparseVec, count: usize| {
        frame.metadata_bytes as f64 * 8.0 / count as f64
    };
    println!(
        "codec/sparse index bits per coefficient: d=113418 full budget {:.2}  10% ({} of {}) {:.2}",
        index_bits(&full_frame, full.len()),
        tenth.len(),
        full.len(),
        index_bits(&tenth_frame, tenth.len()),
    );
    let mut group = headed_group(c, "codec/sparse");
    group.sample_size(30);
    // The same frame — JWINS's mean cut-off on the same probe — encoded
    // from an index list and from the bitmap `Jwins` selects into: the same
    // bytes, one without a list.
    let bitmap = {
        let mut words = vec![0u64; coeffs.len().div_ceil(64)];
        for &i in &indices {
            words[i as usize / 64] |= 1 << (i % 64);
        }
        words
    };
    let mut wire = Vec::new();
    group.bench_function("encode_113418/list", |b| {
        b.iter(|| {
            wire.clear();
            let listed = black_box(&indices[..]);
            codec.encode_into(listed, &selection, &mut wire).unwrap()
        });
    });
    group.bench_function("encode_113418/bits", |b| {
        b.iter(|| {
            wire.clear();
            (codec.encode_bitmap_into(black_box(&bitmap), &selection, &mut wire)).unwrap()
        });
    });
    let (mut indices, mut values) = (Vec::new(), Vec::new());
    for (name, frame) in [("full-budget", &full_frame), ("10pct", &tenth_frame)] {
        group.bench_function(format!("decode/{name}"), |b| {
            b.iter(|| {
                codec
                    .decode_compact_into(black_box(frame.as_bytes()), &mut indices, &mut values)
                    .unwrap();
                black_box((&indices, &values));
            });
        });
    }
    group.finish();
}

fn bench_peer_sampling(c: &mut Criterion) {
    use jwins_topology::dynamic::TopologyProvider;
    use jwins_topology::peer_sampling::{PeerSampling, PeerSamplingConfig};
    let mut group = headed_group(c, "peer_sampling");
    group.sample_size(20);
    group.bench_function("cyclon_round_96_nodes", |b| {
        let provider = PeerSampling::new(96, PeerSamplingConfig::default(), 3);
        let mut round = 0usize;
        b.iter(|| {
            // Sequential rounds hit the incremental path (one shuffle each).
            round += 1;
            black_box(provider.topology(round))
        });
    });
    group.finish();
}

/// JWINS's selection at d = 113 418 and its mean cut-off, as a list (what
/// CHOCO and the figures take) and into the bitmap `Jwins` keeps, both on
/// one code path: the list is the bitmap read back.
fn bench_sparsify(c: &mut Criterion) {
    let dwt = Dwt::new(Wavelet::sym2(), 4).unwrap();
    let scores = dwt.forward(&trained::trained_like(&trained::MLP)).data;
    let k = budget(scores.len(), 0.36);
    let mut group = headed_group(c, "sparsify");
    group.sample_size(30);
    group.bench_function("topk_113418/list", |b| {
        b.iter(|| black_box(top_k_indices(black_box(&scores), k)));
    });
    let (mut keys, mut selected) = (Vec::new(), vec![0; scores.len().div_ceil(64)]);
    group.bench_function("topk_113418/bits", |b| {
        b.iter(|| top_k_into(black_box(&scores), k, &mut keys, &mut selected));
    });
    group.finish();
}

fn bench_selection_and_mixing(c: &mut Criterion) {
    let scores = model_vector(DIM);
    let mut group = headed_group(c, "selection");
    group.sample_size(30);
    for frac in [10usize, 37] {
        let k = DIM * frac / 100;
        group.bench_with_input(BenchmarkId::new("topk_64k", frac), &k, |b, &k| {
            b.iter(|| black_box(top_k_indices(&scores, k)));
        });
    }
    // JWINS's own selection, into a reused buffer as `Jwins` makes it: the
    // DWT of a model-like vector at d = 113 418, where the sampled bracket
    // finds the cut (the threshold path), and the same scores on a coarse
    // grid, where many keys tie at the cut (the partition fallback).
    let dwt = Dwt::new(Wavelet::sym2(), 4).unwrap();
    let wavelet = dwt.forward(&trained::trained_like(&trained::MLP)).data;
    let tied: Vec<f32> = wavelet.iter().map(|v| (v * 64.0).round()).collect();
    let mut keys = Vec::new();
    let mut selected = vec![0; wavelet.len().div_ceil(64)];
    for (path, scores, alpha) in [
        ("threshold", &wavelet, 0.1),
        ("threshold", &wavelet, 0.4),
        ("tie", &tied, 0.1),
    ] {
        let k = budget(scores.len(), alpha);
        group.bench_with_input(
            BenchmarkId::new(format!("topk_113418_{path}"), alpha),
            &k,
            |b, &k| b.iter(|| top_k_into(black_box(scores), k, &mut keys, &mut selected)),
        );
    }
    let graph = gen::random_regular(96, 4, 7).unwrap();
    group.bench_function("metropolis_weights_96x4", |b| {
        b.iter(|| black_box(MetropolisWeights::for_graph(&graph)));
    });
    group.bench_function("random_regular_96x4", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(gen::random_regular(96, 4, seed).unwrap())
        });
    });
    group.finish();
}

/// A JWINS mix at the benchmark's d = 113 418: four neighbours, each
/// sharing a seeded 36 % of the coefficients, under Metropolis–Hastings
/// weights of a 4-regular graph. The tiled fold the strategies run against
/// the streaming averager it replaced, both into buffers reused from one
/// mix to the next.
fn bench_average(c: &mut Criterion) {
    let own = trained::trained_like(&trained::MLP);
    let mut rng = ChaCha8Rng::seed_from_u64(36);
    let contributions: Vec<Contribution> = (0..4)
        .map(|_| {
            let indices: Vec<u32> = (0..own.len() as u32)
                .filter(|_| rng.gen_bool(0.36))
                .collect();
            let values = indices.iter().map(|_| rng.gen_range(-0.3..0.3)).collect();
            Contribution {
                indices: Some(indices),
                values,
            }
        })
        .collect();
    let parts: Vec<_> = contributions.iter().map(|c| (c.view(), 0.2)).collect();
    let mut group = headed_group(c, "average");
    group.sample_size(30);
    let mut out = Vec::new();
    group.bench_function("tiled_113418_4x36pct", |b| {
        b.iter(|| partial_average_into(black_box(&own), 0.2, &parts, &mut out));
    });
    let mut avg = PartialAverager::default();
    group.bench_function("streaming_113418_4x36pct", |b| {
        b.iter(|| {
            avg.reset(black_box(&own), 0.2);
            for c in &contributions {
                avg.add_contribution(c, 0.2);
            }
            avg.finish_into(&mut out);
        });
    });
    group.finish();
}

/// The two JWINS mixes at the benchmark's d = 113 418 on an inbox of four
/// neighbours' shares, under Metropolis–Hastings weights of a 4-regular
/// graph: `aggregate` plus the copy into the node's parameters (the
/// engine's mix before `aggregate_into`), against `aggregate_into` writing
/// them in place. Two nodes in the same state alternate, one per candidate,
/// so minute-scale host drift cancels; each mix follows an untimed
/// `make_message` that opens its round. Prints median µs per mix.
fn bench_jwins_mix(c: &mut Criterion) {
    let own = trained::trained_like(&trained::MLP);
    let shifted = |by: f32| -> Vec<f32> { own.iter().map(|v| v * 0.9 + by).collect() };
    let inbox: Vec<_> = (1..=4u64)
        .map(|node| {
            let mut peer = Jwins::new(JwinsConfig::paper_default(), node);
            peer.init(&own);
            let share = peer.make_message(0, &shifted(node as f32 * 0.01));
            share.expect("a share encodes").bytes
        })
        .collect();
    let received: Vec<_> = (inbox.iter().enumerate())
        .map(|(j, bytes)| ReceivedMessage {
            from: j + 1,
            round: 0,
            weight: 0.2,
            bytes,
            decoded: None,
        })
        .collect();
    let mut group = headed_group(c, "jwins");
    group.bench_function("mix_113418", |_| {
        let (warm_up, samples) = (4, if jwins_bench::smoke() { 8 } else { 60 });
        let mut nodes = [(); 2].map(|()| {
            let mut node = Jwins::new(JwinsConfig::paper_default(), 0);
            node.init(&own);
            (node, shifted(0.0), Vec::new())
        });
        for round in 0..warm_up + samples {
            for (candidate, (node, params, ns)) in nodes.iter_mut().enumerate() {
                node.make_message(round, params).expect("a share encodes");
                let start = Instant::now();
                if candidate == 0 {
                    let mixed = node.aggregate(round, params, 0.2, &received);
                    params.copy_from_slice(&mixed.expect("the inbox decodes"));
                } else {
                    let mixed = node.aggregate_into(round, params, 0.2, &received, &Robust::None);
                    mixed.expect("the inbox decodes");
                }
                if round >= warm_up {
                    ns.push(start.elapsed().as_nanos() as f64);
                }
            }
        }
        for (name, (_, _, ns)) in ["aggregate", "aggregate_into"].iter().zip(&mut nodes) {
            ns.sort_by(f64::total_cmp);
            let us = ns[ns.len() / 2] / 1e3;
            println!("jwins/mix_113418/{name:<32} {us:>10.1} µs/mix");
        }
    });
    group.finish();
}

/// One layer's training forward (which also arms `backward`) and backward
/// on a fixed input; both include handing the layer an owned tensor.
fn bench_layer(
    group: &mut criterion::BenchmarkGroup<'_>,
    name: &str,
    layer: &mut dyn Layer,
    in_shape: &[usize],
) {
    let x = Tensor::from_vec(in_shape, model_vector(in_shape.iter().product()));
    let gy = layer.forward(x.clone(), true);
    group.bench_function(format!("{name}/forward"), |b| {
        b.iter(|| black_box(layer.forward(x.clone(), true)));
    });
    group.bench_function(format!("{name}/backward"), |b| {
        b.iter(|| black_box(layer.backward(gy.clone())));
    });
}

fn class_batch(features: usize, classes: usize, len: usize) -> Vec<ClassSample> {
    let x = model_vector(features * len);
    x.chunks(features)
        .enumerate()
        .map(|(s, x)| (x.to_vec(), s % classes))
        .collect()
}

/// The layers and whole models of the repo benchmark's workloads:
/// `lenet_sync` (GN-LeNet width 8 on 3×12×12), `mlp_*` (432-256-10) and
/// `event_scale` (16-1-4 at batch 2).
fn bench_nn(c: &mut Criterion) {
    let mut group = headed_group(c, "nn");
    group.sample_size(30);
    let mut conv1 = Conv2d::new(3, 8, 3, 1, 1);
    bench_layer(
        &mut group,
        "conv_3to8_12x12_b8",
        &mut conv1,
        &[8, 3, 12, 12],
    );
    let mut conv2 = Conv2d::new(8, 8, 3, 1, 2);
    bench_layer(&mut group, "conv_8to8_6x6_b8", &mut conv2, &[8, 8, 6, 6]);
    let mut norm = GroupNorm::new(4, 8);
    bench_layer(
        &mut group,
        "groupnorm_4x8_12x12_b8",
        &mut norm,
        &[8, 8, 12, 12],
    );
    let mut pool = AvgPool2d::new(2);
    bench_layer(
        &mut group,
        "avgpool_2x2_8x8_12x12_b8",
        &mut pool,
        &[8, 8, 12, 12],
    );
    let mut relu = Relu::new();
    bench_layer(&mut group, "relu_8x8x12x12_b8", &mut relu, &[8, 8, 12, 12]);
    for batch in [8usize, 64] {
        let mut linear = Linear::new(432, 256, 3);
        let name = format!("linear_432to256_b{batch}");
        bench_layer(&mut group, &name, &mut linear, &[batch, 432]);
    }
    let models = [
        ("gn_lenet_w8", gn_lenet(3, 12, 12, 10, 8, 4), 432, 10, 8),
        (
            "mlp_432_256_10",
            mlp_classifier(432, &[256], 10, 5),
            432,
            10,
            8,
        ),
        ("mlp_16_1_4", mlp_classifier(16, &[1], 4, 6), 16, 4, 2),
    ];
    for (name, mut model, features, classes, batch) in models {
        let train = class_batch(features, classes, batch);
        group.bench_function(format!("{name}/loss_and_grad_b{batch}"), |b| {
            b.iter(|| black_box(model.loss_and_grad(&train)));
        });
        let test = class_batch(features, classes, 64);
        group.bench_function(format!("{name}/evaluate_b64"), |b| {
            b.iter(|| black_box(model.evaluate(&test)));
        });
    }
    group.finish();
}

/// The node count of the repo benchmark's `event_scale` workload.
const SCALE_NODES: usize = 16_384;

/// Median nanoseconds per event of `ShardedEventQueue::push` and
/// `pop_independent_batch` over `nodes` nodes on the schedule
/// `benchmark/src/direct.rs` drives: every node always has one pending
/// event, three quarters of the nodes fire every tick and one quarter every
/// fourth. The tick count shrinks as the node count grows, so every size
/// times about the same number of events.
fn queue_costs(nodes: usize) -> (f64, f64) {
    const TICK_NS: u64 = 50_000_000;
    let scale = SCALE_NODES as f64 / nodes as f64;
    let warm_up = ((20.0 * scale) as usize).max(4);
    let samples = ((120.0 * scale) as usize).max(8);
    let period = |node: usize| if node % 4 == 3 { 4 * TICK_NS } else { TICK_NS };
    let mut queue: ShardedEventQueue<usize> = ShardedEventQueue::new(7, 0, Ordering::Strict);
    for node in 0..nodes {
        queue.push(SimTime(period(node)), node as u64, node, node);
    }
    let classify = |&node: &usize| Conflict::Exclusive { class: 1, node };
    let (mut push_ns, mut pop_ns) = (Vec::new(), Vec::new());
    for sample in 0..warm_up + samples {
        let start = Instant::now();
        let batch = queue.pop_independent_batch(classify);
        let popped = start.elapsed();
        let events = batch.len() as f64;
        let start = Instant::now();
        for scheduled in black_box(batch) {
            let node = scheduled.event;
            let at = SimTime(scheduled.time.0 + period(node));
            queue.push(at, node as u64, node, node);
        }
        let pushed = start.elapsed();
        if sample >= warm_up {
            pop_ns.push(popped.as_nanos() as f64 / events);
            push_ns.push(pushed.as_nanos() as f64 / events);
        }
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    (median(&mut push_ns), median(&mut pop_ns))
}

/// The event queue (one heap) per event by node count: `event_scale`'s
/// 2^14, then 2^18 and 2^20, where the heap outgrows the caches. The last
/// line prints the pop cost at every size side by side. Under
/// `JWINS_SMOKE=1` only 2^14 runs.
fn bench_sim(c: &mut Criterion) {
    let mut group = headed_group(c, "sim");
    let sizes: &[usize] = if jwins_bench::smoke() {
        &[SCALE_NODES]
    } else {
        &[SCALE_NODES, 1 << 18, 1 << 20]
    };
    let mut pops = Vec::new();
    for &nodes in sizes {
        // Push and pop alternate on one live queue and are timed apart, so
        // the closure keeps its own clock instead of `Bencher::iter`; the
        // harness contributes the name filter.
        group.bench_function(BenchmarkId::new("queue", nodes), |_| {
            let (push, pop) = queue_costs(nodes);
            println!("sim/queue_push/{nodes:<33} {push:>10.1} ns/event");
            println!("sim/queue_pop/{nodes:<34} {pop:>10.1} ns/event");
            pops.push(format!("{nodes}: {pop:.0}"));
        });
    }
    if !pops.is_empty() {
        println!("sim/queue_pop ns/event by nodes   {}", pops.join("   "));
    }
    group.finish();
}

/// One dispatch of an empty closure on the engine's resident workers: what
/// a batch costs before any node work, by batch width.
fn bench_dispatch(c: &mut Criterion) {
    let cells: Vec<Cell<u64>> = (0..SCALE_NODES as u64).map(Cell::new).collect();
    let spaces = [Cell::new(()), Cell::new(())];
    let mut group = headed_group(c, "engine");
    group.sample_size(30);
    with_workers(2, |pool| {
        for width in [2usize, 64, 4096] {
            let stride = SCALE_NODES / width;
            group.bench_with_input(BenchmarkId::new("dispatch", width), &width, |b, &width| {
                b.iter(|| {
                    let items = (0..width).map(|k| (k * stride, ())).collect();
                    pool.batch(&cells, &spaces, items, |_, _, (), ()| Ok(()))
                        .unwrap()
                });
            });
        }
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_sim,
    bench_dispatch,
    bench_nn,
    bench_wavelet,
    bench_fft,
    bench_codecs,
    bench_float_codec,
    bench_peer_sampling,
    bench_sparsify,
    bench_selection_and_mixing,
    bench_average,
    bench_jwins_mix
);
criterion_main!(benches);
