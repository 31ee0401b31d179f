//! Property tests for the adversary crate's attack plans: deterministic
//! expansion, half-open windows and pure perturbations. The robust rules'
//! screening bounds are tested where the rules run, in
//! `crates/core/tests/properties.rs`.

use jwins_adversary::{apply_behavior, AttackBehavior, AttackPlan, AttackTimeline, AttackWindow};
use jwins_sim::SimTime;
use proptest::prelude::*;

fn behaviors() -> impl Strategy<Value = AttackBehavior> {
    prop_oneof![
        (0.01f64..10.0).prop_map(|std| AttackBehavior::Garbage { std }),
        Just(AttackBehavior::SignFlip),
        (-8.0f64..8.0).prop_map(|factor| AttackBehavior::Scale { factor }),
        ((0.01f64..1.0), (0.01f64..4.0))
            .prop_map(|(rate, amplitude)| AttackBehavior::Drift { rate, amplitude }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Expansion is a pure function of `(plan, n, seed)`: two expansions
    /// agree exactly, and the attacker count honors the fraction.
    #[test]
    fn random_fraction_expansion_is_seed_stable(
        seed in any::<u64>(),
        n in 2usize..64,
        fraction in 0.0f64..1.0,
        behavior in behaviors(),
    ) {
        let plan = AttackPlan::RandomFraction {
            fraction,
            from_s: 0.0,
            until_s: f64::INFINITY,
            behavior,
        };
        let a = AttackTimeline::expand(&plan, n, seed).unwrap();
        let b = AttackTimeline::expand(&plan, n, seed).unwrap();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.window_count(), (fraction * n as f64).round() as usize);
        prop_assert!(a.attackers().iter().all(|&node| node < n));
    }

    /// Scripted windows are half-open: a node is Byzantine on
    /// `[from, until)` and honest everywhere else.
    #[test]
    fn windows_are_half_open_in_time(
        node in 0usize..8,
        from_ms in 0u64..10_000,
        len_ms in 1u64..10_000,
        behavior in behaviors(),
    ) {
        let from_s = from_ms as f64 * 1e-3;
        let until_s = (from_ms + len_ms) as f64 * 1e-3;
        let plan = AttackPlan::Scripted(vec![AttackWindow::new(node, from_s, until_s, behavior)]);
        let t = AttackTimeline::expand(&plan, 8, 0).unwrap();
        let start = SimTime::from_secs_f64(from_s);
        let end = SimTime::from_secs_f64(until_s);
        prop_assert!(t.behavior_at(node, start).is_some());
        prop_assert!(t.behavior_at(node, SimTime(end.0 - 1)).is_some());
        prop_assert!(t.behavior_at(node, end).is_none());
        if start.0 > 0 {
            prop_assert!(t.behavior_at(node, SimTime(start.0 - 1)).is_none());
        }
        let other = (node + 1) % 8;
        prop_assert!(t.behavior_at(other, start).is_none());
    }

    /// Perturbations depend only on `(behavior, seed, node, round)` — and
    /// always leave the vector finite and wire-encodable.
    #[test]
    fn perturbations_are_pure_and_finite(
        behavior in behaviors(),
        seed in any::<u64>(),
        node in 0usize..64,
        round in 0usize..1000,
        base in proptest::collection::vec(-10.0f32..10.0, 1..128),
    ) {
        let mut a = base.clone();
        let mut b = base.clone();
        apply_behavior(behavior, seed, node, round, &mut a);
        apply_behavior(behavior, seed, node, round, &mut b);
        prop_assert_eq!(&a, &b);
        prop_assert!(a.iter().all(|v| v.is_finite()));
    }
}
