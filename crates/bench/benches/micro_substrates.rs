//! Criterion microbenchmarks of every substrate on the JWINS hot path:
//! wavelet transforms (by family and depth), FFT, entropy coders, float
//! codecs, TopK selection and gossip mixing. These quantify the share
//! path's design choices (wavelet family, metadata codec, value codec);
//! `docs/ARCHITECTURE.md`, "The share path", describes the kernels.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use jwins::average::PartialAverager;
use jwins::sparsify::top_k_indices;
use jwins_codec::float::{FloatCodec, RawFloatCodec, XorFloatCodec};
use jwins_codec::quantize::Qsgd;
use jwins_codec::sparse::{IndexCodec, SparseVecCodec, ValueCodec};
use jwins_codec::{delta, lz};
use jwins_fourier::fft_real;
use jwins_topology::{gen, weights::MetropolisWeights};
use jwins_wavelet::{Dwt, Wavelet};

const DIM: usize = 65_536;

fn model_vector(n: usize) -> Vec<f32> {
    (0..n).map(|i| (i as f32 * 0.013).sin() * 0.3).collect()
}

fn bench_wavelet(c: &mut Criterion) {
    let x = model_vector(DIM);
    let mut group = c.benchmark_group("wavelet");
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
    let mut group = c.benchmark_group("fft");
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
    let mut group = c.benchmark_group("codec");
    group.sample_size(30);
    group.bench_function("elias_gamma_encode_6k_indices", |b| {
        b.iter(|| black_box(delta::encode_gamma(&indices).unwrap()));
    });
    let encoded = delta::encode_gamma(&indices).unwrap();
    group.bench_function("elias_gamma_decode_6k_indices", |b| {
        b.iter(|| black_box(delta::decode_gamma(&encoded, indices.len()).unwrap()));
    });
    group.bench_function("xor_float_encode_6k", |b| {
        b.iter(|| black_box(XorFloatCodec.encode(&values)));
    });
    group.bench_function("raw_float_encode_6k", |b| {
        b.iter(|| black_box(RawFloatCodec.encode(&values)));
    });
    for (name, codec) in [
        (
            "gamma+xor",
            SparseVecCodec::new(IndexCodec::EliasGammaDelta, ValueCodec::Xor),
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

fn bench_peer_sampling(c: &mut Criterion) {
    use jwins_topology::dynamic::TopologyProvider;
    use jwins_topology::peer_sampling::{PeerSampling, PeerSamplingConfig};
    let mut group = c.benchmark_group("peer_sampling");
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

fn bench_power_gossip_kernels(c: &mut Criterion) {
    use jwins::strategies::{PowerGossip, PowerGossipConfig};
    use jwins::strategy::ShareStrategy;
    let mut group = c.benchmark_group("power_gossip");
    group.sample_size(20);
    // One full make_outbound over 4 edges at 64k params (256x256 matrix).
    let params = model_vector(DIM);
    group.bench_function("make_outbound_64k_4edges_rank1", |b| {
        let mut s = PowerGossip::new(PowerGossipConfig::global(1), 0, 7);
        s.init(&params);
        let mut round = 0usize;
        b.iter(|| {
            let out = s.make_outbound(round, &params, &[1, 2, 3, 4]).unwrap();
            let next = s.aggregate(round, &params, 0.5, &[]).unwrap();
            round += 1;
            black_box((out, next))
        });
    });
    group.finish();
}

fn bench_selection_and_mixing(c: &mut Criterion) {
    let scores = model_vector(DIM);
    let mut group = c.benchmark_group("selection");
    group.sample_size(30);
    for frac in [10usize, 37] {
        let k = DIM * frac / 100;
        group.bench_with_input(BenchmarkId::new("topk_64k", frac), &k, |b, &k| {
            b.iter(|| black_box(top_k_indices(&scores, k)));
        });
    }
    let own = model_vector(DIM);
    let indices: Vec<u32> = (0..DIM as u32 / 3).map(|i| i * 3).collect();
    let sparse_vals = model_vector(indices.len());
    group.bench_function("partial_average_4_neighbours_64k", |b| {
        b.iter(|| {
            let mut avg = PartialAverager::new(&own, 0.2);
            for _ in 0..4 {
                avg.add_sparse(&indices, &sparse_vals, 0.2);
            }
            black_box(avg.finish())
        });
    });
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

criterion_group!(
    benches,
    bench_wavelet,
    bench_fft,
    bench_codecs,
    bench_peer_sampling,
    bench_power_gossip_kernels,
    bench_selection_and_mixing
);
criterion_main!(benches);
