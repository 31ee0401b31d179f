//! The event queue's vocabulary: the [`Scheduled`] event it returns, the
//! [`Conflict`] class its batch pop groups by, and the seeded tie-break
//! hash. The queue itself is [`crate::ShardedEventQueue`].
//!
//! Three keys order events:
//!
//! 1. **time** — earlier fires first;
//! 2. **priority** — a caller-supplied rank separating phases that must not
//!    interleave at equal time (the engine encodes `phase * 2^32 + node`);
//! 3. **seeded tie-break** — among events equal on both, a SplitMix64 hash
//!    of `(seed, insertion index)` fixes the order. The permutation of
//!    simultaneous same-priority events is thus random *across seeds* (no
//!    accidental bias toward insertion order) yet bit-stable across runs and
//!    replayable from the seed alone; insertion index breaks any final ties
//!    so the order is total.
//!
//! [`crate::ShardedEventQueue::pop_independent_batch`] pops a maximal
//! *prefix* of that total order whose events are simultaneous, share a
//! [`Conflict`] class and touch pairwise-distinct nodes. Because the batch is
//! a contiguous prefix, executing its events concurrently and committing
//! their side effects in batch order is observably identical to popping them
//! one at a time. The tests below pin the order and the batch boundaries on
//! one heap and on several.

use crate::clock::SimTime;

/// How an event interacts with simulation state, as reported to
/// [`crate::ShardedEventQueue::pop_independent_batch`] by the caller's
/// classifier.
///
/// The classification is a *promise* from the interpreter: an
/// [`Conflict::Exclusive`] event may read and write only state owned by its
/// `node` (its model, its mailbox, its RNG) plus append-only effects that the
/// caller defers to an ordered commit phase. Two exclusive events of the same
/// `class` on different nodes are then independent and may execute
/// concurrently. Events that touch global state (crash/recovery replay,
/// cluster-wide evaluation) must be [`Conflict::Solo`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Conflict {
    /// Touches only state owned by `node`; batchable with same-`class`
    /// events on other nodes at the same virtual time.
    Exclusive {
        /// Event-kind class; only equal classes batch together (the engine
        /// uses its same-time phase rank, so a batch is always one phase).
        class: u64,
        /// The single node whose state the event may touch.
        node: usize,
    },
    /// Touches shared state; always popped as a batch of one.
    Solo,
}

/// One scheduled event, as returned by [`crate::ShardedEventQueue::pop`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scheduled<E> {
    /// When the event fires.
    pub time: SimTime,
    /// Caller-supplied same-time ordering rank (lower fires first).
    pub priority: u64,
    /// The payload.
    pub event: E,
}

/// SplitMix64's output function over `z`: the workspace's one stateless
/// 64-bit mixer. The event queues hash `seed ^ insertion index` with it
/// for their tie-break; the fault, attack and heterogeneity plans and the
/// network's loss model derive their per-node and per-link draws from it.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{Ordering, ShardedEventQueue};

    /// One heap, a few, and more shards than most tests have events: every
    /// test runs at each and must see the same order.
    const SHARDS: [usize; 3] = [1, 3, 16];

    fn queue<E>(seed: u64, shards: usize) -> ShardedEventQueue<E> {
        ShardedEventQueue::new(seed, shards, Ordering::Strict)
    }

    fn drain<E>(q: &mut ShardedEventQueue<E>) -> Vec<E> {
        std::iter::from_fn(|| q.pop().map(|s| s.event)).collect()
    }

    #[test]
    fn splitmix_known_answers() {
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(1), 0x910A_2DEC_8902_5CC1);
    }

    #[test]
    fn orders_by_time_then_priority() {
        for shards in SHARDS {
            let mut q = queue(7, shards);
            q.push(SimTime(30), 0, 0, "late");
            q.push(SimTime(10), 5, 1, "early-low-rank");
            q.push(SimTime(10), 1, 2, "early-high-rank");
            q.push(SimTime(20), 0, 3, "middle");
            assert_eq!(
                drain(&mut q),
                ["early-high-rank", "early-low-rank", "middle", "late"],
                "{shards} shards"
            );
        }
    }

    #[test]
    fn equal_keys_replay_identically_per_seed() {
        let run = |seed: u64, shards: usize| {
            let mut q = queue(seed, shards);
            for i in 0..32 {
                q.push(SimTime(1), 0, i, i);
            }
            drain(&mut q)
        };
        for shards in SHARDS {
            assert_eq!(run(1, shards), run(1, 1), "{shards} shards");
            assert_eq!(run(9, shards), run(9, 1), "{shards} shards");
            // Different seeds permute simultaneous events differently.
            assert_ne!(run(1, shards), run(2, shards));
        }
    }

    #[test]
    fn seeded_tie_break_is_a_permutation() {
        for shards in SHARDS {
            let mut q = queue(3, shards);
            for i in 0..100 {
                q.push(SimTime(5), 0, i, i);
            }
            let mut popped = drain(&mut q);
            popped.sort_unstable();
            assert_eq!(popped, (0..100).collect::<Vec<_>>(), "{shards} shards");
        }
    }

    #[test]
    fn peek_and_clear() {
        for shards in SHARDS {
            let mut q = queue(0, shards);
            assert!(q.is_empty());
            q.push(SimTime(4), 0, 0, ());
            q.push(SimTime(2), 0, 1, ());
            assert_eq!(q.peek_time(), Some(SimTime(2)), "{shards} shards");
            assert_eq!(q.len(), 2, "{shards} shards");
            q.clear();
            assert!(q.pop().is_none(), "{shards} shards");
        }
    }

    /// Encodes the engine's priority convention for batch tests.
    fn prio(class: u64, node: usize) -> u64 {
        (class << 32) | node as u64
    }

    #[test]
    fn batch_pops_simultaneous_same_class_distinct_nodes() {
        for shards in SHARDS {
            let mut q = queue(11, shards);
            for node in 0..4 {
                q.push(SimTime(5), prio(1, node), node, ("train", node));
            }
            q.push(SimTime(5), prio(2, 0), 0, ("mix", 0)); // later class
            q.push(SimTime(9), prio(1, 9), 9, ("train", 9)); // later time
            let batch =
                q.pop_independent_batch(|&(_, node)| Conflict::Exclusive { class: 1, node });
            assert_eq!(
                batch.iter().map(|s| s.event.1).collect::<Vec<_>>(),
                vec![0, 1, 2, 3],
                "all four simultaneous trains batch, in priority (node id) order"
            );
            assert_eq!(q.len(), 2, "the later class and later time stay queued");
        }
    }

    #[test]
    fn batch_stops_at_class_boundary_and_solo_events_run_alone() {
        let classify = |&(class, node): &(u64, usize)| {
            if class == 0 {
                Conflict::Solo
            } else {
                Conflict::Exclusive { class, node }
            }
        };
        for shards in SHARDS {
            let mut q = queue(0, shards);
            q.push(SimTime(1), prio(0, 3), 3, (0u64, 3usize)); // class 0 = solo
            q.push(SimTime(1), prio(1, 0), 0, (1, 0));
            q.push(SimTime(1), prio(1, 1), 1, (1, 1));
            q.push(SimTime(1), prio(2, 2), 2, (2, 2)); // later class
            let solo = q.pop_independent_batch(classify);
            assert_eq!(solo.len(), 1);
            assert_eq!(solo[0].event, (0, 3));
            assert_eq!(q.pop_independent_batch(classify).len(), 2);
            assert_eq!(q.pop_independent_batch(classify).len(), 1);
            assert!(q.pop_independent_batch(classify).is_empty());
        }
    }

    #[test]
    fn batch_stops_at_duplicate_node() {
        // Two same-time same-class events on one node (a stale epoch
        // duplicate): the second must head its own batch, never share one.
        for shards in SHARDS {
            let mut q = queue(3, shards);
            q.push(SimTime(2), prio(1, 0), 0, 'a');
            q.push(SimTime(2), prio(1, 0), 0, 'b');
            let classify = |_: &char| Conflict::Exclusive { class: 1, node: 0 };
            let first = q.pop_independent_batch(classify);
            assert_eq!(first.len(), 1);
            let second = q.pop_independent_batch(classify);
            assert_eq!(second.len(), 1);
            assert_ne!(first[0].event, second[0].event);
        }
    }

    use proptest::prelude::*;

    proptest! {
        /// Batched popping is a pure re-grouping of the sequential pop
        /// order: flattened batches replay the one-at-a-time sequence
        /// exactly (tie-breaks included) at every shard count, no batch
        /// mixes times or classes, and no batch contains two events on the
        /// same node.
        #[test]
        fn batches_partition_the_sequential_order(
            seed in proptest::any::<u64>(),
            events in proptest::collection::vec(
                (0u64..4, 0u64..3, 0usize..6), 1..48),
        ) {
            let classify = |&(_, class, node): &(usize, u64, usize)| {
                if class == 0 {
                    Conflict::Solo
                } else {
                    Conflict::Exclusive { class, node }
                }
            };
            let fill = |shards: usize| {
                let mut q = queue(seed, shards);
                for (i, &(t, class, node)) in events.iter().enumerate() {
                    q.push(SimTime(t), prio(class, node), node, (i, class, node));
                }
                q
            };
            let sequential = drain(&mut fill(1));
            for shards in SHARDS {
                let mut batched = fill(shards);
                let mut flattened = Vec::new();
                loop {
                    let batch = batched.pop_independent_batch(classify);
                    if batch.is_empty() {
                        break;
                    }
                    let time = batch[0].time;
                    let head = classify(&batch[0].event);
                    let mut nodes = std::collections::HashSet::new();
                    for s in &batch {
                        prop_assert_eq!(s.time, time, "batch mixes fire times");
                        if batch.len() > 1 {
                            let c = classify(&s.event);
                            prop_assert!(
                                matches!((head, c), (
                                    Conflict::Exclusive { class: a, .. },
                                    Conflict::Exclusive { class: b, .. },
                                ) if a == b),
                                "batch mixes classes: {:?} vs {:?}", head, c
                            );
                            let (_, _, node) = s.event;
                            prop_assert!(
                                nodes.insert(node),
                                "batch contains node {} twice", node
                            );
                        }
                    }
                    flattened.extend(batch.into_iter().map(|s| s.event));
                }
                prop_assert_eq!(&flattened, &sequential, "{} shards", shards);
            }
        }
    }
}
