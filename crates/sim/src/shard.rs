//! The event queue: one seeded total order over virtual time.
//!
//! [`ShardedEventQueue`] keeps every pending event in one binary heap keyed
//! by `(time, priority, tie, seq)`, where `tie` is the seeded hash of the
//! insertion index `seq` (see [`crate::queue`]). A push and a pop each cost
//! `O(log n)`; the pop sequence — and therefore every downstream batch,
//! commit, and trace — is a pure function of the seed and the pushes. The
//! proptests below pin it against a flat-list model under arbitrary
//! interleavings of pushes, pops and clears.
//!
//! The training engine drives the queue with [`ShardedEventQueue::peek`] and
//! [`ShardedEventQueue::pop`]: it commits events one at a time in this total
//! order and executes ahead of its commits inside the network's lookahead
//! (see `jwins::engine`). [`ShardedEventQueue::pop_independent_batch`] is the
//! queue's own, simpler batching rule — simultaneous events of one conflict
//! class on pairwise-distinct nodes — kept for callers that want a
//! ready-made independent batch.

use crate::clock::SimTime;
use crate::queue::{splitmix64, Conflict, Scheduled};
use serde::{Deserialize, Serialize};
use std::collections::BinaryHeap;

/// The commit order of an event loop: the queue's total order.
///
/// `Strict` is the only mode; the type stays so that configurations and
/// callers that name it keep compiling.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum Ordering {
    /// Every event commits in the queue's total order and sees exactly what
    /// it would see executed one at a time. The engine still executes
    /// together events closer than one link latency
    /// ([`crate::LinkProfile::min_latency_s`]), which provably cannot
    /// observe one another.
    #[default]
    Strict,
}

/// The queue's total-order key: `(time, priority, seeded tie, insertion)`.
type Key = (SimTime, u64, u64, u64);

#[derive(Debug)]
struct Entry<E> {
    key: Key,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap; invert so the smallest key sits at the head.
        other.key.cmp(&self.key)
    }
}

/// A deterministic event queue: a seeded total order with a conflict-aware
/// batch pop.
///
/// Every pending event lives in one binary heap. The `shards` argument of
/// [`ShardedEventQueue::new`] and the `node` argument of
/// [`ShardedEventQueue::push`] are ignored; they stay for callers that still
/// pass them.
#[derive(Debug)]
pub struct ShardedEventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seed: u64,
    next_seq: u64,
    /// `claimed[node] == batch_stamp` marks a node taken by the batch being
    /// popped; bumping the stamp releases every claim at once. Grows to the
    /// largest node id a classifier has reported (ids are dense).
    claimed: Vec<u64>,
    batch_stamp: u64,
}

impl<E> ShardedEventQueue<E> {
    /// An empty queue whose tie-breaks are derived from `seed`. `shards` is
    /// ignored, and [`Ordering::Strict`] is the only ordering there is.
    pub fn new(seed: u64, _shards: usize, _ordering: Ordering) -> Self {
        Self {
            heap: BinaryHeap::new(),
            seed,
            next_seq: 0,
            claimed: Vec::new(),
            batch_stamp: 0,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `event` at `time` with same-time rank `priority`. `node`
    /// (the node that owns the event) is ignored.
    pub fn push(&mut self, time: SimTime, priority: u64, _node: usize, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let key = (time, priority, splitmix64(self.seed ^ seq), seq);
        self.heap.push(Entry { key, event });
    }

    /// Removes and returns the next event in the
    /// (time, priority, seeded-tie) order.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        let Entry {
            key: (time, priority, ..),
            event,
        } = self.heap.pop()?;
        Some(Scheduled {
            time,
            priority,
            event,
        })
    }

    /// The next event in the order, without removing it.
    pub fn peek(&self) -> Option<Scheduled<&E>> {
        let Entry {
            key: (time, priority, ..),
            event,
        } = self.heap.peek()?;
        Some(Scheduled {
            time: *time,
            priority: *priority,
            event,
        })
    }

    /// The fire time of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|head| head.key.0)
    }

    /// Claims `node` for the batch being popped; `false` if it already is.
    fn claim(&mut self, node: usize) -> bool {
        if node >= self.claimed.len() {
            self.claimed.resize(node + 1, 0);
        }
        let fresh = self.claimed[node] != self.batch_stamp;
        self.claimed[node] = self.batch_stamp;
        fresh
    }

    /// Pops the maximal batch of *independent* simultaneous events: the
    /// longest prefix of the total order whose events fire at the head's
    /// time, classify as [`Conflict::Exclusive`] with the head's class, and
    /// touch pairwise-distinct nodes. A [`Conflict::Solo`] head (or an empty
    /// queue) yields a batch of at most one event.
    ///
    /// The batch is returned in exact pop order, so an interpreter that
    /// executes it concurrently and commits side effects in batch order
    /// reproduces the one-at-a-time schedule bit for bit. The prefix stops
    /// at the first event that fires later, has a different class, is
    /// `Solo`, or repeats an already-claimed node (a stale duplicate); that
    /// event simply heads the next batch.
    ///
    /// Claimed nodes are tracked in a vector indexed by node id, so the ids
    /// a classifier reports should be dense: the queue keeps one word per
    /// id up to the largest it has seen.
    pub fn pop_independent_batch<F>(&mut self, classify: F) -> Vec<Scheduled<E>>
    where
        F: Fn(&E) -> Conflict,
    {
        let Some(first) = self.pop() else {
            return Vec::new();
        };
        let time = first.time;
        let Conflict::Exclusive { class, node } = classify(&first.event) else {
            return vec![first];
        };
        self.batch_stamp += 1;
        self.claim(node);
        let mut batch = vec![first];
        while let Some(head) = self.heap.peek() {
            if head.key.0 != time {
                break;
            }
            match classify(&head.event) {
                Conflict::Exclusive { class: c, node } if c == class => {
                    if !self.claim(node) {
                        break;
                    }
                }
                _ => break,
            }
            batch.extend(self.pop());
        }
        batch
    }

    /// Discards all pending events (used on early stop).
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peek_len_and_clear_track_all_shards() {
        let mut q = ShardedEventQueue::new(0, 0, Ordering::Strict);
        assert!(q.is_empty());
        q.push(SimTime(4), 0, 0, 'a');
        q.push(SimTime(2), 0, 1, 'b');
        q.push(SimTime(9), 0, 2, 'c');
        assert_eq!(q.peek_time(), Some(SimTime(2)));
        let head = q.peek().expect("three events pending");
        assert_eq!(
            (head.time, head.priority, *head.event),
            (SimTime(2), 0, 'b')
        );
        assert_eq!(q.len(), 3, "peeking removes nothing");
        q.clear();
        assert!(q.peek().is_none());
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn ordering_serde_round_trip_and_default() {
        assert_eq!(Ordering::default(), Ordering::Strict);
        let text = serde::json::to_string(&Ordering::Strict);
        let back: Ordering = serde::json::from_str(&text).unwrap();
        assert_eq!(back, Ordering::Strict);
    }

    use proptest::prelude::*;

    /// `(insertion index, class, node)`; class 0 is [`Conflict::Solo`].
    type TestEvent = (usize, u64, usize);

    fn classify_test(&(_, class, node): &TestEvent) -> Conflict {
        if class == 0 {
            Conflict::Solo
        } else {
            Conflict::Exclusive { class, node }
        }
    }

    /// The queue's specification executed naively: pending events in a flat
    /// list, every minimum found by scanning full keys, batches built from
    /// one-at-a-time pops. Nothing is cached, so nothing can go stale.
    struct Model {
        seed: u64,
        next_seq: u64,
        pending: Vec<(Key, TestEvent)>,
    }

    impl Model {
        fn push(&mut self, time: SimTime, priority: u64, event: TestEvent) {
            let tie = splitmix64(self.seed ^ self.next_seq);
            self.pending
                .push(((time, priority, tie, self.next_seq), event));
            self.next_seq += 1;
        }

        fn min(&self) -> Option<usize> {
            (0..self.pending.len()).min_by_key(|&i| self.pending[i].0)
        }

        fn pop(&mut self) -> Option<(SimTime, u64, TestEvent)> {
            let ((time, priority, ..), event) = self.pending.swap_remove(self.min()?);
            Some((time, priority, event))
        }

        fn pop_batch(&mut self) -> Vec<(SimTime, u64, TestEvent)> {
            let Some(first) = self.pop() else {
                return Vec::new();
            };
            let Conflict::Exclusive { class, node } = classify_test(&first.2) else {
                return vec![first];
            };
            let mut nodes = vec![node];
            let mut batch = vec![first];
            while let Some(i) = self.min() {
                let ((time, ..), event) = self.pending[i];
                let fits = time == first.0
                    && matches!(
                        classify_test(&event),
                        Conflict::Exclusive { class: c, node } if c == class && !nodes.contains(&node)
                    );
                if !fits {
                    break;
                }
                nodes.push(event.2);
                batch.extend(self.pop());
            }
            batch
        }
    }

    fn flat(s: Scheduled<TestEvent>) -> (SimTime, u64, TestEvent) {
        (s.time, s.priority, s.event)
    }

    /// Drives `queue` and the naive [`Model`] through one op sequence,
    /// comparing every popped event, every batch boundary, `len()` and
    /// `peek_time()` after every op.
    fn replay_ops(seed: u64, ops: &[(u8, u64, u64, usize)]) {
        let mut queue = ShardedEventQueue::new(seed, 0, Ordering::Strict);
        let mut model = Model {
            seed,
            next_seq: 0,
            pending: Vec::new(),
        };
        let mut last_popped = 0usize;
        for (step, &(kind, t, class, node)) in ops.iter().enumerate() {
            let min = queue.peek_time();
            let mut push = |time: u64, class: u64, node: usize| {
                let priority = (class << 32) | node as u64;
                let event = (step, class, node);
                queue.push(SimTime(time), priority, node, event);
                model.push(SimTime(time), priority, event);
            };
            match kind {
                0..=5 => push(t, class, node),
                // Push again on the node a pop just served.
                6..=7 => push(t, class, last_popped),
                // Undercut the minimum: an earlier time when
                // there is room, else the lowest rank at the same time.
                8..=9 => match min {
                    Some(SimTime(min)) if min > 0 => push(min - 1, class, node),
                    Some(SimTime(min)) => push(min, 0, 0),
                    None => push(t, class, node),
                },
                10..=13 => {
                    let got = queue.pop().map(flat);
                    assert_eq!(got, model.pop(), "pop at step {step}");
                    if let Some((.., event)) = got {
                        last_popped = event.2;
                    }
                }
                14..=18 => {
                    let got: Vec<_> = queue
                        .pop_independent_batch(classify_test)
                        .into_iter()
                        .map(flat)
                        .collect();
                    assert_eq!(got, model.pop_batch(), "batch at step {}", step);
                    if let Some((.., event)) = got.last() {
                        last_popped = event.2;
                    }
                }
                _ => {
                    queue.clear();
                    model.pending.clear();
                }
            }
            assert_eq!(queue.len(), model.pending.len(), "len at step {}", step);
            assert_eq!(queue.is_empty(), model.pending.is_empty());
            let head = model.min().map(|i| model.pending[i].0 .0);
            assert_eq!(queue.peek_time(), head, "peek at step {}", step);
            let next = model.min().map(|i| {
                let ((time, priority, ..), event) = model.pending[i];
                (time, priority, event)
            });
            let peeked = queue.peek().map(|s| (s.time, s.priority, *s.event));
            assert_eq!(peeked, next, "peeked event at step {}", step);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary interleavings of push, push-on-the-node-just-popped,
        /// push-below-the-minimum, pop, batch pop and clear replay the
        /// flat-list model exactly.
        #[test]
        fn strict_interleaved_ops_replay_the_global_queue(
            seed in proptest::any::<u64>(),
            ops in proptest::collection::vec(
                (0u8..20, 0u64..5, 0u64..3, 0usize..12), 1..96),
        ) {
            replay_ops(seed, &ops);
        }
    }
}
