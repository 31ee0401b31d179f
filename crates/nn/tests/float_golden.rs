//! Golden float pins: the constants below were produced by the per-tap
//! branching `Conv2d`, the one-chain-per-output `Linear` and the cloning
//! layer stack this crate started with. They do not go through the
//! `#[cfg(test)]` reference kernels, so a later change that moves a kernel
//! *and* its oracle together still fails here. Any change to them moves
//! `bytes_per_node`, `sim_time_s` and the trace fixtures of every experiment
//! and must be made on purpose (see "The SGD path" in docs/ARCHITECTURE.md).

use jwins_nn::model::Model;
use jwins_nn::models::{gn_lenet, leaf_cnn, mlp_classifier, ClassSample, ImageClassifier};
use jwins_nn::optim::Sgd;

/// Deterministic features in `[-1, 1)` with exact `0.0` and `-0.0` mixed in.
fn samples(count: usize, features: usize, classes: usize, salt: u64) -> Vec<ClassSample> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ salt;
    let mut next = || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 40) as u32
    };
    (0..count)
        .map(|s| {
            let x = (0..features)
                .map(|_| match next() % 16 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => (next() % 4096) as f32 / 2048.0 - 1.0,
                })
                .collect();
            (x, (s + next() as usize) % classes)
        })
        .collect()
}

fn fnv1a(values: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// What a run is pinned by.
#[derive(Debug, PartialEq)]
struct Pin {
    params: u64,
    last_grad: u64,
    losses: Vec<u32>,
    eval_loss_sum: u64,
    eval_count: usize,
    eval_correct: usize,
}

/// Trains on batches of 8, 8, 5, 1 and 8 samples (lane remainders
/// included), then evaluates in chunks of 64 + 37 like `Trainer::evaluate`.
fn run(mut model: ImageClassifier, features: usize, classes: usize) -> Pin {
    let train = samples(30, features, classes, 1);
    let test = samples(101, features, classes, 2);
    let mut opt = Sgd::new(0.08);
    let mut params = model.params();
    let mut losses = Vec::new();
    let mut last_grad = 0;
    let mut at = 0;
    for size in [8usize, 8, 5, 1, 8] {
        model.set_params(&params);
        let (loss, grad) = model.loss_and_grad(&train[at..at + size]);
        at += size;
        opt.step(&mut params, &grad);
        losses.push(loss.to_bits());
        last_grad = fnv1a(&grad);
    }
    model.set_params(&params);
    let mut eval = jwins_nn::EvalMetrics::default();
    for chunk in test.chunks(64) {
        eval.merge(&model.evaluate(chunk));
    }
    Pin {
        params: fnv1a(&model.params()),
        last_grad,
        losses,
        eval_loss_sum: eval.loss_sum.to_bits(),
        eval_count: eval.count,
        eval_correct: eval.correct,
    }
}

#[test]
fn gn_lenet_benchmark_shape() {
    let pin = run(gn_lenet(3, 12, 12, 10, 8, 42), 3 * 12 * 12, 10);
    assert_eq!(
        pin,
        Pin {
            params: 0xd618545210ac1a9c,
            last_grad: 0x06d1f07e7ec99182,
            losses: vec![0x4026eee4, 0x4020b1ae, 0x402011e4, 0x3ff8aa63, 0x403eca6e],
            eval_loss_sum: 0x406edd31c3000000,
            eval_count: 101,
            eval_correct: 11,
        }
    );
}

#[test]
fn leaf_cnn_small() {
    let pin = run(leaf_cnn(1, 8, 12, 4, 3, 16, 7), 8 * 12, 4);
    assert_eq!(
        pin,
        Pin {
            params: 0xf5219a324e4f47dd,
            last_grad: 0x9927f1c3cd8dc486,
            losses: vec![0x3fb9b09e, 0x3fa78dd9, 0x3ffdda86, 0x3ff466bc, 0x3fe9a11f],
            eval_loss_sum: 0x4062033f00000000,
            eval_count: 101,
            eval_correct: 29,
        }
    );
}

#[test]
fn mlp_benchmark_shape() {
    let pin = run(mlp_classifier(432, &[256], 10, 42), 432, 10);
    assert_eq!(
        pin,
        Pin {
            params: 0xaede3a2ca615fac4,
            last_grad: 0xcefef947acb89627,
            losses: vec![0x400fa5e7, 0x400ad8a8, 0x401696cc, 0x405b652e, 0x402a0914],
            eval_loss_sum: 0x406ee1f235000000,
            eval_count: 101,
            eval_correct: 6,
        }
    );
}

#[test]
fn event_scale_mlp() {
    let pin = run(mlp_classifier(16, &[1], 4, 42), 16, 4);
    assert_eq!(
        pin,
        Pin {
            params: 0xe915b316d0fd9f47,
            last_grad: 0x964e8d792de6d863,
            losses: vec![0x3faef338, 0x3fb4888f, 0x3fb0497b, 0x3fa9c963, 0x3fb41784],
            eval_loss_sum: 0x4061d95fafc00000,
            eval_count: 101,
            eval_correct: 26,
        }
    );
}
