//! Figure 9: metadata size with and without Elias gamma compression.
//!
//! Without compression, index metadata is the same size as the shared
//! parameters (both 32-bit), wasting ~50% of the traffic; the paper measures
//! a 9.9× metadata reduction from Elias gamma over the delta-coded index
//! array. This bench also extends the comparison with the varint middle
//! ground and Elias delta.
//!
//! It runs every codec twice: on the paper's cut-off list, whose α = 1
//! draws send no index block under any codec (so raw metadata falls below
//! the payload), and on that list without α = 1, the configuration the
//! REPRODUCED/PARTIAL verdict is judged on.

use jwins::cutoff::AlphaDistribution;
use jwins::sparsify::top_k_indices;
use jwins::strategies::JwinsConfig;
use jwins_bench::{banner, fmt_bytes, run_cifar, save_csv, Algo, RunCfg, Scale};
use jwins_codec::sparse::{IndexCodec, ValueCodec};
use jwins_codec::{delta, lz, varint};

fn main() {
    let scale = Scale::from_env();
    banner(
        "Figure 9 — metadata bytes without vs with Elias gamma",
        "uncompressed metadata ≈ payload (50% waste); Elias gamma shrinks it ~9.9×",
    );
    let rounds = scale.rounds(25);
    // The paper's cut-off list draws α = 1 one time in seven, and a
    // full-budget share implies its indices under every codec (no index
    // block at all), so on that list the codecs differ only on the other
    // six draws. The list without α = 1 is the comparison the figure makes.
    let alpha_lists = [
        ("paper", AlphaDistribution::paper_default()),
        (
            "no-alpha-1",
            AlphaDistribution::UniformList(vec![0.10, 0.15, 0.20, 0.25, 0.30, 0.40]),
        ),
    ];
    let mut rows = Vec::new();
    for (list, alpha) in &alpha_lists {
        println!("α list: {list}");
        for (name, index_codec) in [
            ("raw-u32", IndexCodec::RawU32),
            ("varint-delta", IndexCodec::VarintDelta),
            ("elias-gamma", IndexCodec::EliasGammaDelta),
        ] {
            let mut config = JwinsConfig::with_alpha(alpha.clone());
            config.index_codec = index_codec;
            // Raw values isolate the metadata effect (the paper's chart
            // shows 32-bit params vs 32-bit indices).
            config.value_codec = ValueCodec::Raw;
            let mut cfg = RunCfg::new(rounds);
            cfg.train.eval_every = rounds;
            let result = run_cifar(scale, &Algo::Jwins(config), &cfg, 2);
            let t = result.total_traffic;
            println!(
                "  {name:<14} parameters {:>12}  metadata {:>12}  metadata share {:>5.1}%",
                fmt_bytes(t.payload_sent as f64),
                fmt_bytes(t.metadata_sent as f64),
                100.0 * t.metadata_sent as f64 / t.bytes_sent as f64
            );
            rows.push((*list, name, t.payload_sent, t.metadata_sent));
        }
    }
    let mut csv = String::from("alpha_list,codec,payload_bytes,metadata_bytes\n");
    for (list, name, p, m) in &rows {
        csv.push_str(&format!("{list},{name},{p},{m}\n"));
    }
    save_csv("fig9_metadata", &csv);

    // §III-C: "we conducted experiments using various general-purpose
    // compression algorithms" before settling on Elias gamma. Reproduce that
    // off-line comparison on a representative TopK index stream (10% of a
    // 100k-coefficient model, scores shaped like accumulated changes).
    // Hash-based scores: irregular like accumulated SGD changes (a periodic
    // synthetic signal would hand the dictionary coder artificial repeats).
    let scores: Vec<f32> = (0..100_000u64)
        .map(|i| {
            let mut z = i.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0x5851);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            (z ^ (z >> 31)) as f32 / u64::MAX as f32
        })
        .collect();
    let indices = top_k_indices(&scores, 10_000);
    let raw: Vec<u8> = indices.iter().flat_map(|i| i.to_le_bytes()).collect();
    let lz_raw = lz::compress(&raw);
    let mut deltas_raw = Vec::with_capacity(raw.len());
    let mut prev = 0u32;
    for &i in &indices {
        deltas_raw.extend_from_slice(&(i - prev).to_le_bytes());
        prev = i;
    }
    let lz_delta = lz::compress(&deltas_raw);
    let mut vbytes = Vec::new();
    let mut prev = 0u32;
    for &i in &indices {
        varint::write_u64(&mut vbytes, u64::from(i - prev));
        prev = i;
    }
    let gamma = delta::encode_gamma(&indices).expect("strictly increasing");
    println!(
        "
general-purpose vs entropy coders on one 10k-index stream:"
    );
    for (name, bytes) in [
        ("raw u32", raw.len()),
        ("LZ77 (raw u32)", lz_raw.len()),
        ("LZ77 (delta u32)", lz_delta.len()),
        ("varint delta", vbytes.len()),
        ("Elias gamma delta", gamma.len()),
    ] {
        println!(
            "  {name:<20} {:>10}  ({:.2} bits/index)",
            fmt_bytes(bytes as f64),
            bytes as f64 * 8.0 / indices.len() as f64
        );
    }
    let gamma_wins = gamma.len() < lz_delta.len() && gamma.len() < vbytes.len();
    println!(
        "  => {}",
        if gamma_wins {
            "Elias gamma wins (the paper's §III-C finding)"
        } else {
            "dictionary coder competitive on this stream (regular gaps)"
        }
    );
    assert!(
        gamma.len() * 2 < raw.len(),
        "Elias gamma must at least halve the raw index bytes"
    );

    println!("\npaper-vs-measured:");
    println!("  paper: metadata ≈ 50% of traffic uncompressed; 9.9x compression with Elias gamma");
    for (list, verdict) in [("paper", false), ("no-alpha-1", true)] {
        let row = |codec: &str| {
            let &(_, _, payload, metadata) = rows
                .iter()
                .find(|r| r.0 == list && r.1 == codec)
                .expect("every list runs every codec");
            (payload as f64, metadata as f64)
        };
        let (raw_payload, raw_meta) = row("raw-u32");
        let (_, gamma_meta) = row("elias-gamma");
        let ratio = raw_meta / gamma_meta;
        let raw_share = raw_meta / (raw_payload + raw_meta);
        let judged = if !verdict {
            "α = 1 shares carry no indices; not judged"
        } else if raw_share > 0.4 && ratio > 4.0 {
            "REPRODUCED (shape)"
        } else {
            "PARTIAL"
        };
        println!(
            "  here, α list {list:<10}: uncompressed metadata share {:.1}%; \
             Elias gamma {:.1}x smaller => {judged}",
            raw_share * 100.0,
            ratio,
        );
    }
}
