//! Golden mix pins: what `aggregate` and `aggregate_robust` return for the
//! four averaging strategies (full sharing, QSGD-quantized, random sampling
//! and JWINS), hashed bit for bit with FNV-1a like
//! `crates/nn/tests/float_golden.rs`.
//!
//! The constants were generated before the strategies' plain and robust
//! mixes were folded into one decode and one mix body, from the two
//! separate mix bodies each strategy had then (and, for JWINS without a
//! [`DecodeSlot`], from its streaming decode). They pin every rule —
//! `Robust::None` through `aggregate_robust` as well as `aggregate` —
//! and JWINS at α = 1 (implied-index frames) and α = 0.1, each with and
//! without a shared decode slot. A change that moves one of them moves a
//! defended or undefended run's trajectory and must be made on purpose.

use jwins::cutoff::AlphaDistribution;
use jwins::strategies::{FullSharing, Jwins, JwinsConfig, QuantizedSharing, RandomSampling};
use jwins::strategy::{DecodeSlot, ReceivedMessage, ShareStrategy};
use jwins_adversary::Robust;

const DIM: usize = 300;
const NEIGHBOURS: usize = 4;
const SELF_WEIGHT: f64 = 0.3;
const WEIGHTS: [f64; NEIGHBOURS] = [0.2, 0.15, 0.25, 0.1];

fn fnv1a(h: &mut u64, words: impl IntoIterator<Item = u64>) {
    for word in words {
        for byte in word.to_le_bytes() {
            *h = (*h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Node `node`'s parameters after local training: a smooth signal with a
/// per-node offset, node 3 far off (an outlier for the robust rules), and
/// exact zeros mixed in.
fn params(node: usize) -> Vec<f32> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ (node as u64 + 1);
    (0..DIM)
        .map(|i| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let noise = ((state >> 40) as u32 % 4096) as f32 / 2048.0 - 1.0;
            match (node, (state >> 20) % 17) {
                (_, 0) => 0.0,
                (3, _) => 40.0 + noise,
                _ => (i as f32 * 0.05).sin() + 0.25 * noise + node as f32 * 0.1,
            }
        })
        .collect()
}

/// The cluster-identical start of the round.
fn start() -> Vec<f32> {
    (0..DIM).map(|i| (i as f32 * 0.05).sin()).collect()
}

/// The rules pinned, in pin order after the plain `aggregate`.
fn rules() -> [Robust; 4] {
    [
        Robust::None,
        Robust::TrimmedMean { trim: 0.3 },
        Robust::Median,
        Robust::NormClip { tau: 2.0 },
    ]
}

/// One round: node 0 mixes the messages of nodes 1..=4, once through
/// `aggregate` and once through `aggregate_robust` per rule, each on a
/// fresh receiver. Every pin hashes the output bits, the robust stats and
/// `extra` (the receiver's state after the mix).
fn pins<S: ShareStrategy>(
    make: impl Fn(usize) -> S,
    slotted: bool,
    extra: impl Fn(&S) -> Vec<f32>,
) -> [u64; 5] {
    let x0 = start();
    let messages: Vec<_> = (1..=NEIGHBOURS)
        .map(|node| {
            let mut sender = make(node);
            sender.init(&x0);
            sender.make_message(0, &params(node)).expect("encodes")
        })
        .collect();
    let mine = params(0);
    let mix = |rule: Option<Robust>| {
        let slots: Vec<DecodeSlot> = messages.iter().map(|_| DecodeSlot::new()).collect();
        let received: Vec<ReceivedMessage<'_>> = messages
            .iter()
            .zip(&slots)
            .zip(WEIGHTS)
            .enumerate()
            .map(|(j, ((msg, slot), weight))| ReceivedMessage {
                from: j + 1,
                round: 0,
                weight,
                edge_weight: weight,
                bytes: &msg.bytes,
                decoded: slotted.then_some(slot),
            })
            .collect();
        let mut receiver = make(0);
        receiver.init(&x0);
        receiver.make_message(0, &mine).expect("encodes");
        let out = match rule {
            None => receiver.aggregate(0, &mine, SELF_WEIGHT, &received),
            Some(rule) => receiver.aggregate_robust(0, &mine, SELF_WEIGHT, &received, &rule),
        }
        .expect("mixes");
        let stats = receiver.robust_stats().unwrap_or_default();
        if let Some(Robust::TrimmedMean { .. } | Robust::NormClip { .. }) = rule {
            assert!(stats.clipped > 0, "{rule:?} screened nothing: a weak pin");
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        fnv1a(&mut h, out.iter().map(|v| u64::from(v.to_bits())));
        fnv1a(&mut h, [stats.clipped, stats.mass.to_bits()]);
        fnv1a(
            &mut h,
            extra(&receiver).iter().map(|v| u64::from(v.to_bits())),
        );
        h
    };
    let mut pins = [mix(None); 5];
    for (pin, rule) in pins[1..].iter_mut().zip(rules()) {
        *pin = mix(Some(rule));
    }
    pins
}

fn jwins(alpha: f64, slotted: bool) -> [u64; 5] {
    let config = JwinsConfig {
        alpha: AlphaDistribution::Fixed(alpha),
        ..JwinsConfig::paper_default()
    };
    pins(
        |node| Jwins::new(config.clone(), node as u64 + 7),
        slotted,
        |j| j.scores().to_vec(),
    )
}

/// Fails with every pin of the table, so a deliberate change can paste
/// the new row.
fn check(name: &str, got: [u64; 5], expected: [u64; 5]) {
    assert_eq!(
        got,
        expected,
        "{name}: aggregate, then aggregate_robust under None / TrimmedMean / Median / NormClip; got {}",
        got.map(|h| format!("0x{h:016x}")).join(", ")
    );
}

#[test]
fn full_sharing_mix_is_pinned() {
    let got = pins(|_| FullSharing::new(), false, |_| Vec::new());
    check(
        "full",
        got,
        [
            0xc3ccfc07abe0d847,
            0xc3ccfc07abe0d847,
            0x6afe899a910bb369,
            0x9a00af9ea148d714,
            0xdaddee8f738bcb0f,
        ],
    );
}

#[test]
fn quantized_mix_is_pinned() {
    let got = pins(
        |node| QuantizedSharing::new(255, node as u64 + 3),
        false,
        |_| Vec::new(),
    );
    check(
        "quantized",
        got,
        [
            0x538bafa032f05d51,
            0x538bafa032f05d51,
            0x5e164e3e8094afa5,
            0xfc8fe2b4a9037208,
            0x46038a296a1d4d0b,
        ],
    );
}

#[test]
fn random_sampling_mix_is_pinned() {
    let got = pins(|_| RandomSampling::new(0.3, 42), false, |_| Vec::new());
    check(
        "random sampling",
        got,
        [
            0x60043ed69993405d,
            0x60043ed69993405d,
            0x9f1b7d455ba75f06,
            0x8958e0e064325cbb,
            0xf62195e0cc6ba0b2,
        ],
    );
}

#[test]
fn jwins_full_alpha_mix_is_pinned() {
    let expected = [
        0xad0f8702446f16e5,
        0xad0f8702446f16e5,
        0x38a18ee37864fdf9,
        0x30d69ce98589dc04,
        0x389689e61a9beb56,
    ];
    check("jwins α=1", jwins(1.0, false), expected);
    check("jwins α=1 slotted", jwins(1.0, true), expected);
}

#[test]
fn jwins_sparse_mix_is_pinned() {
    let expected = [
        0x84d8729a1faa7252,
        0x84d8729a1faa7252,
        0x387002c18958ae71,
        0x2eb075bd9300fb03,
        0x88f51ac36da67d61,
    ];
    check("jwins α=0.1", jwins(0.1, false), expected);
    check("jwins α=0.1 slotted", jwins(0.1, true), expected);
}
