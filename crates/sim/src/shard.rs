//! The event queue: a sharded, seeded total order over virtual time.
//!
//! [`ShardedEventQueue`] splits the pending-event set across per-node-group
//! binary heaps (shard = `node % shards`) while keeping *one* total order:
//! one shared insertion counter drives the seeded tie-break hash (see
//! [`crate::queue`]), and every pop takes the minimum over shard heads under
//! the `(time, priority, tie, seq)` key. The minimum comes from a winner tree
//! that caches the head keys, so a pop costs `O(log shards)` on top of its
//! own heap's `O(log(n/shards))` instead of a scan of every shard. The pop
//! sequence — and therefore every downstream batch, commit, and trace — is
//! the same for any shard count; the proptests below pin it against a
//! flat-list model under arbitrary interleavings of pushes, pops and clears
//! (a cached head can only go stale between operations, never inside one).
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

#[derive(Debug)]
struct ShardEntry<E> {
    time: SimTime,
    priority: u64,
    tie: u64,
    seq: u64,
    event: E,
}

impl<E> ShardEntry<E> {
    fn key(&self) -> (SimTime, u64, u64, u64) {
        (self.time, self.priority, self.tie, self.seq)
    }
}

impl<E> PartialEq for ShardEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}

impl<E> Eq for ShardEntry<E> {}

impl<E> PartialOrd for ShardEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for ShardEntry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap; invert so the smallest key sits at each shard head.
        other.key().cmp(&self.key())
    }
}

/// The queue's total-order key: `(time, priority, seeded tie, insertion)`.
type Key = (SimTime, u64, u64, u64);

/// The cached head key of an empty shard. Insertion indices count up from
/// zero and never reach `u64::MAX`, so every real key orders strictly below.
const EMPTY: Key = (SimTime(u64::MAX), u64::MAX, u64::MAX, u64::MAX);

/// A winner tree over the shard heads: leaf `i` caches shard `i`'s head key
/// (or [`EMPTY`]), every internal node caches the smaller of its children
/// together with the shard that owns it, and the root is the global minimum.
/// Keys live *in* the tree, so finding the minimum reads one slot and a head
/// change replays one leaf-to-root path of `log2(shards)` slots, without
/// touching any other shard's heap.
#[derive(Debug)]
struct HeadTree {
    /// `slots[1]` is the root, `slots[leaves + i]` is shard `i`'s leaf;
    /// `slots[0]` is unused.
    slots: Vec<(Key, usize)>,
    /// Leaf count: the shard count rounded up to a power of two (padding
    /// leaves stay [`EMPTY`] forever).
    leaves: usize,
}

impl HeadTree {
    fn new(shards: usize) -> Self {
        let leaves = shards.next_power_of_two();
        Self {
            slots: vec![(EMPTY, 0); 2 * leaves],
            leaves,
        }
    }

    /// The global minimum key and its shard ([`EMPTY`] when nothing is
    /// pending).
    fn min(&self) -> (Key, usize) {
        self.slots[1]
    }

    /// `key` was pushed into `shard`. If it undercuts the shard's cached
    /// head it becomes the head, and it may win further up; the ancestors it
    /// wins form a prefix of the path, so the first slot that keeps its
    /// winner — usually the leaf itself — ends the walk.
    fn lower(&mut self, shard: usize, key: Key) {
        let mut at = self.leaves + shard;
        while at >= 1 && key < self.slots[at].0 {
            self.slots[at] = (key, shard);
            at /= 2;
        }
    }

    /// `shard`'s head rose to `key` (its old head was popped; [`EMPTY`] when
    /// the shard ran dry): replay every match on the path to the root.
    fn raise(&mut self, shard: usize, key: Key) {
        let mut at = self.leaves + shard;
        self.slots[at] = (key, shard);
        while at > 1 {
            at /= 2;
            let (left, right) = (self.slots[2 * at], self.slots[2 * at + 1]);
            // Keys are unique (the insertion index is part of them), so the
            // only ties are between empty subtrees.
            self.slots[at] = if right.0 < left.0 { right } else { left };
        }
    }

    fn clear(&mut self) {
        self.slots.fill((EMPTY, 0));
    }
}

/// A deterministic event queue sharded by node id.
///
/// A seeded total order with a conflict-aware batch pop. Pending events
/// live in `shards` independent heaps merged by a winner tree over their
/// heads, so a push costs `O(log(n/shards))` (plus a tree walk only when it
/// lowers its shard's head) and a pop `O(log(n/shards) + log(shards))`;
/// neither ever scans the shards. `push` takes the node that owns the event
/// (routing is `node % shards`; events with no owning node may pass any
/// stable id) purely as a placement hint: pops always take the global
/// minimum across shard heads, so shard count never changes the schedule.
#[derive(Debug)]
pub struct ShardedEventQueue<E> {
    shards: Vec<BinaryHeap<ShardEntry<E>>>,
    heads: HeadTree,
    seed: u64,
    next_seq: u64,
    len: usize,
    /// `claimed[node] == batch_stamp` marks a node taken by the batch being
    /// popped; bumping the stamp releases every claim at once. Grows to the
    /// largest node id a classifier has reported (ids are dense).
    claimed: Vec<u64>,
    batch_stamp: u64,
}

impl<E> ShardedEventQueue<E> {
    /// An empty queue with `shards` heaps (clamped to at least one) whose
    /// tie-breaks are derived from `seed`. [`Ordering::Strict`] is the only
    /// ordering there is.
    pub fn new(seed: u64, shards: usize, _ordering: Ordering) -> Self {
        let shards = shards.max(1);
        Self {
            shards: (0..shards).map(|_| BinaryHeap::new()).collect(),
            heads: HeadTree::new(shards),
            seed,
            next_seq: 0,
            len: 0,
            claimed: Vec::new(),
            batch_stamp: 0,
        }
    }

    /// Number of shards (always at least one).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard that owns events routed by `node`.
    pub fn shard_of(&self, node: usize) -> usize {
        node % self.shards.len()
    }

    /// Number of pending events across all shards.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `event` at `time` with same-time rank `priority`, routed
    /// to shard `node % shards`. The sequence counter and tie-break hash
    /// are global, so the resulting total order is independent of routing.
    pub fn push(&mut self, time: SimTime, priority: u64, node: usize, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let shard = node % self.shards.len();
        let entry = ShardEntry {
            time,
            priority,
            tie: splitmix64(self.seed ^ seq),
            seq,
            event,
        };
        let key = entry.key();
        self.shards[shard].push(entry);
        self.heads.lower(shard, key);
        self.len += 1;
    }

    /// Pops the head of `shard` — the global minimum, per the tree — and
    /// re-runs the shard's matches with its next head.
    fn pop_shard(&mut self, shard: usize) -> Scheduled<E> {
        let heap = &mut self.shards[shard];
        let entry = heap.pop().expect("the tree's winner has a head");
        let next = heap.peek().map_or(EMPTY, ShardEntry::key);
        self.heads.raise(shard, next);
        self.len -= 1;
        Scheduled {
            time: entry.time,
            priority: entry.priority,
            event: entry.event,
        }
    }

    /// Removes and returns the next event in the global
    /// (time, priority, seeded-tie) order.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        if self.len == 0 {
            return None;
        }
        let (_, shard) = self.heads.min();
        Some(self.pop_shard(shard))
    }

    /// The next event in the global order, without removing it.
    pub fn peek(&self) -> Option<Scheduled<&E>> {
        if self.len == 0 {
            return None;
        }
        let ((time, priority, ..), shard) = self.heads.min();
        let head = self.shards[shard]
            .peek()
            .expect("the tree's winner has a head");
        Some(Scheduled {
            time,
            priority,
            event: &head.event,
        })
    }

    /// The fire time of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        (self.len > 0).then(|| self.heads.min().0 .0)
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
    /// longest prefix of the global total order whose events fire at the
    /// head's time, classify as [`Conflict::Exclusive`] with the head's
    /// class, and touch pairwise-distinct nodes. A [`Conflict::Solo`] head
    /// (or an empty queue) yields a batch of at most one event.
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
        while self.len > 0 {
            let ((head_time, ..), shard) = self.heads.min();
            if head_time != time {
                break;
            }
            let head = self.shards[shard].peek().expect("winner has a head");
            match classify(&head.event) {
                Conflict::Exclusive { class: c, node } if c == class => {
                    if !self.claim(node) {
                        break;
                    }
                }
                _ => break,
            }
            batch.push(self.pop_shard(shard));
        }
        batch
    }

    /// Discards all pending events (used on early stop).
    pub fn clear(&mut self) {
        for heap in &mut self.shards {
            heap.clear();
        }
        self.heads.clear();
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prio(class: u64, node: usize) -> u64 {
        (class << 32) | node as u64
    }

    #[test]
    fn strict_pop_matches_global_queue_by_hand() {
        let mut global = ShardedEventQueue::new(99, 1, Ordering::Strict);
        let mut sharded = ShardedEventQueue::new(99, 4, Ordering::Strict);
        for node in 0..12 {
            let t = SimTime((node as u64 * 7) % 3);
            global.push(t, prio(1, node), node, node);
            sharded.push(t, prio(1, node), node, node);
        }
        let g: Vec<_> = std::iter::from_fn(|| global.pop().map(|s| s.event)).collect();
        let s: Vec<_> = std::iter::from_fn(|| sharded.pop().map(|s| s.event)).collect();
        assert_eq!(g, s);
    }

    #[test]
    fn shard_count_is_clamped_and_reported() {
        let q: ShardedEventQueue<()> = ShardedEventQueue::new(0, 0, Ordering::Strict);
        assert_eq!(q.shard_count(), 1);
        let q: ShardedEventQueue<()> = ShardedEventQueue::new(0, 16, Ordering::Strict);
        assert_eq!(q.shard_count(), 16);
        assert_eq!(q.shard_of(17), 1);
    }

    #[test]
    fn peek_len_and_clear_track_all_shards() {
        for shards in [1, 3] {
            let mut q = ShardedEventQueue::new(0, shards, Ordering::Strict);
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

    /// Shard counts the interleaving properties run at: one heap, a few,
    /// a non-power-of-two, and more shards than there are nodes.
    const SHARD_COUNTS: [usize; 6] = [1, 2, 3, 7, 64, 300];

    fn flat(s: Scheduled<TestEvent>) -> (SimTime, u64, TestEvent) {
        (s.time, s.priority, s.event)
    }

    /// Drives `queue` and the naive [`Model`] through one op sequence,
    /// comparing every popped event, every batch boundary, `len()` and
    /// `peek_time()` after every op. Ops interleave on purpose: a merge that
    /// caches head keys can only be wrong when a push or pop lands between
    /// two reads of the cache.
    fn replay_ops(seed: u64, shards: usize, ops: &[(u8, u64, u64, usize)]) {
        let mut queue = ShardedEventQueue::new(seed, shards, Ordering::Strict);
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
                // Refill the shard a pop may just have emptied.
                6..=7 => push(t, class, last_popped),
                // Undercut the cached global minimum: an earlier time when
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

        /// Arbitrary interleavings of push, push-into-the-shard-just-popped,
        /// push-below-the-minimum, pop, batch pop and clear replay the
        /// flat-list model exactly, at every shard count.
        #[test]
        fn strict_interleaved_ops_replay_the_global_queue(
            seed in proptest::any::<u64>(),
            ops in proptest::collection::vec(
                (0u8..20, 0u64..5, 0u64..3, 0usize..12), 1..96),
        ) {
            for shards in SHARD_COUNTS {
                replay_ops(seed, shards, &ops);
            }
        }
    }

    proptest! {
        /// The heart of the contract: for any seed, shard count and event
        /// interleaving, the sharded queue's sequential pops AND its
        /// independent batches replay the single-heap (one-shard) queue
        /// exactly — same events, same order, same grouping.
        #[test]
        fn strict_sharded_replays_the_global_queue(
            seed in proptest::any::<u64>(),
            shards in 2usize..8,
            events in proptest::collection::vec(
                (0u64..4, 0u64..3, 0usize..6), 1..48),
        ) {
            let fill = |shards: usize| {
                let mut q = ShardedEventQueue::new(seed, shards, Ordering::Strict);
                for (i, &(t, class, node)) in events.iter().enumerate() {
                    q.push(SimTime(t), prio(class, node), node, (i, class, node));
                }
                q
            };
            // One-at-a-time pops agree with the single heap.
            let (mut global, mut plain) = (fill(1), fill(shards));
            let reference: Vec<_> =
                std::iter::from_fn(|| global.pop().map(|s| s.event)).collect();
            let popped: Vec<_> =
                std::iter::from_fn(|| plain.pop().map(|s| s.event)).collect();
            prop_assert_eq!(&popped, &reference);
            // Batch boundaries agree with the single heap's batch pop too.
            let (mut global, mut batched) = (fill(1), fill(shards));
            loop {
                let expect: Vec<_> = global
                    .pop_independent_batch(classify_test)
                    .into_iter()
                    .map(flat)
                    .collect();
                let got: Vec<_> = batched
                    .pop_independent_batch(classify_test)
                    .into_iter()
                    .map(flat)
                    .collect();
                prop_assert_eq!(&got, &expect);
                if expect.is_empty() {
                    break;
                }
            }
        }
    }
}
