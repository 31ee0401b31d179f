//! Property tests for the robust aggregation rules: the screening bounds
//! of trimmed mean, median and norm clip, and row stochasticity.

use jwins::average::RobustAccumulator;
use jwins::strategy::Contribution;
use jwins_adversary::Robust;
use proptest::prelude::*;

/// A contribution over every coordinate, as full sharing decodes one.
fn dense(values: &[f32]) -> Contribution {
    Contribution {
        indices: None,
        values: values.to_vec(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Trimmed mean (deep enough to out-trim the attackers) and median
    /// stay inside the coordinate range spanned by the honest inputs and
    /// the node's own value, for any minority of arbitrarily-placed
    /// Byzantine contributions (`f < n/2`).
    #[test]
    fn trimmed_mean_and_median_are_bounded_by_honest_range(
        own in proptest::collection::vec(-5.0f32..5.0, 4..32),
        honest_offsets in proptest::collection::vec(-1.0f32..1.0, 2..6),
        byz_count in 1usize..3,
        byz_value in prop_oneof![Just(-1.0e6f32), Just(1.0e6f32), -2.0f32..2.0],
    ) {
        // f < n/2: strictly more honest neighbors than Byzantine ones.
        prop_assume!(honest_offsets.len() > byz_count);
        let dim = own.len();
        let honest: Vec<Vec<f32>> = honest_offsets
            .iter()
            .map(|o| own.iter().map(|v| v + o).collect())
            .collect();
        for rule in [Robust::TrimmedMean { trim: 0.49 }, Robust::Median] {
            let mut acc = RobustAccumulator::new(&own, 1.0, rule);
            for h in &honest {
                acc.add(&dense(h), 1.0);
            }
            for _ in 0..byz_count {
                acc.add(&dense(&vec![byz_value; dim]), 1.0);
            }
            let (out, _) = acc.finish();
            for k in 0..dim {
                let mut lo = own[k];
                let mut hi = own[k];
                for h in &honest {
                    lo = lo.min(h[k]);
                    hi = hi.max(h[k]);
                }
                prop_assert!(
                    out[k] >= lo - 1e-4 && out[k] <= hi + 1e-4,
                    "{rule:?} coord {k}: {} outside honest range [{lo}, {hi}]",
                    out[k]
                );
            }
        }
    }

    /// Norm clipping caps the aggregate's deviation from the own vector at
    /// `tau`, and leaves in-budget contributions untouched (identical to
    /// plain averaging).
    #[test]
    fn norm_clip_never_increases_the_deviation(
        own in proptest::collection::vec(-3.0f32..3.0, 2..32),
        deltas in proptest::collection::vec(
            (proptest::collection::vec(-10.0f32..10.0, 2..32), 0.1f64..2.0),
            1..4
        ),
        tau in 0.1f64..5.0,
    ) {
        let mut clipped = RobustAccumulator::new(&own, 1.0, Robust::NormClip { tau });
        let mut plain = RobustAccumulator::new(&own, 1.0, Robust::None);
        let mut max_dev = 0.0f64;
        for (delta, weight) in &deltas {
            let contribution: Vec<f32> = own
                .iter()
                .zip(delta.iter().cycle())
                .map(|(v, d)| v + d)
                .collect();
            let dev: f64 = contribution
                .iter()
                .zip(&own)
                .map(|(c, o)| (f64::from(*c) - f64::from(*o)).powi(2))
                .sum::<f64>()
                .sqrt();
            max_dev = max_dev.max(dev);
            clipped.add(&dense(&contribution), *weight);
            plain.add(&dense(&contribution), *weight);
        }
        let (out, stats) = clipped.finish();
        let out_dev: f64 = out
            .iter()
            .zip(&own)
            .map(|(c, o)| (f64::from(*c) - f64::from(*o)).powi(2))
            .sum::<f64>()
            .sqrt();
        prop_assert!(
            out_dev <= tau + 1e-3,
            "aggregate drifted {out_dev} > tau {tau}"
        );
        if max_dev <= tau {
            // Nothing out of budget: the rule is exactly plain averaging.
            prop_assert_eq!(stats.clipped, 0);
            prop_assert_eq!(out, plain.finish().0);
        }
    }

    /// Row-stochasticity: with every input equal to the own vector, all
    /// rules return it unchanged — removed mass is renormalized into the
    /// self entry, never lost.
    #[test]
    fn constant_input_is_a_fixed_point_of_every_rule(
        own in proptest::collection::vec(-4.0f32..4.0, 1..48),
        weights in proptest::collection::vec(0.05f64..2.0, 1..6),
        rule_pick in 0usize..4,
    ) {
        let rule = match rule_pick {
            0 => Robust::None,
            1 => Robust::TrimmedMean { trim: 0.45 },
            2 => Robust::Median,
            _ => Robust::NormClip { tau: 0.5 },
        };
        let mut acc = RobustAccumulator::new(&own, 1.0, rule);
        for w in &weights {
            acc.add(&dense(&own), *w);
        }
        let (out, _) = acc.finish();
        for (o, v) in own.iter().zip(&out) {
            prop_assert!((o - v).abs() < 1e-5, "{rule:?} moved {o} to {v}");
        }
    }
}
