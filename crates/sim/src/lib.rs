//! Deterministic discrete-event simulation runtime.
//!
//! The paper's headline result is *wall-clock*, not just bytes: on a
//! bandwidth-constrained cluster JWINS reaches the target accuracy in 14 min
//! where random sampling needs 53 min (§IV-C-3). A single scalar time
//! formula under a bulk-synchronous barrier cannot express the mechanisms
//! behind such gaps — stragglers, heterogeneous links, and gossip that
//! proceeds without waiting. This crate supplies the missing substrate:
//!
//! - [`SimTime`]: integer-nanosecond virtual time, so event ordering never
//!   depends on float rounding;
//! - [`ShardedEventQueue`]: the event queue — per-node-group binary heaps
//!   behind one winner-tree merge, with *seeded, stable* tie-breaking:
//!   equal-time events are ordered by caller priority, then a seeded hash,
//!   then insertion order, making every run a pure function of its seed
//!   and never of the shard count. Its `peek`/`pop` drive the training
//!   engine, which commits one event at a time and executes ahead inside
//!   [`LinkProfile::min_latency_s`];
//!   [`ShardedEventQueue::pop_independent_batch`] pops a maximal prefix of
//!   simultaneous, same-[`Conflict`]-class events on pairwise-distinct
//!   nodes, so an interpreter can execute them on worker threads and
//!   commit their side effects in batch order without perturbing the
//!   schedule;
//! - [`ComputeProfile`]/[`LinkProfile`]: per-node compute-speed and per-link
//!   latency/bandwidth models, so a message's transfer time is
//!   `latency + bytes / bandwidth` on *its* link and a straggler's round
//!   takes proportionally longer;
//! - [`HeterogeneityProfile`]: the pair of them, as carried by training
//!   configurations;
//! - [`LifecycleEvent`]/[`LifecycleTracker`]: crash/recover event kinds with
//!   epoch-based invalidation of a crashed node's scheduled events, the
//!   substrate under `jwins_fault`'s fault-injection schedules.
//!
//! The training engine in `jwins::engine` drives these primitives in its
//! event-driven execution mode; this crate knows nothing about learning.
//!
//! # Example
//!
//! Schedule three simultaneous per-node events and one global one, then pop
//! them as independent batches — the per-node events together, the global
//! event alone:
//!
//! ```
//! use jwins_sim::{Conflict, Ordering, ShardedEventQueue, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev {
//!     Train { node: usize },
//!     Checkpoint,
//! }
//!
//! let classify = |ev: &Ev| match *ev {
//!     Ev::Train { node } => Conflict::Exclusive { class: 1, node },
//!     Ev::Checkpoint => Conflict::Solo,
//! };
//!
//! // Seed 42, events routed over two shards by node id.
//! let mut queue = ShardedEventQueue::new(42, 2, Ordering::Strict);
//! for node in 0..3 {
//!     // priority encodes (phase << 32) | node, the engine's convention
//!     queue.push(SimTime(10), (1 << 32) | node as u64, node, Ev::Train { node });
//! }
//! queue.push(SimTime(10), 2 << 32, 0, Ev::Checkpoint);
//!
//! let batch = queue.pop_independent_batch(classify);
//! assert_eq!(batch.len(), 3, "disjoint-node trains pop together");
//! let solo = queue.pop_independent_batch(classify);
//! assert_eq!(solo.len(), 1, "global events run alone");
//! assert_eq!(solo[0].event, Ev::Checkpoint);
//! assert!(queue.is_empty());
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod clock;
pub mod hetero;
pub mod lifecycle;
pub mod queue;
pub mod shard;

pub use clock::SimTime;
pub use hetero::{ComputeProfile, HeterogeneityProfile, LinkParams, LinkProfile};
pub use lifecycle::{LifecycleEvent, LifecycleTracker};
pub use queue::{splitmix64, Conflict, Scheduled};
pub use shard::{Ordering, ShardedEventQueue};
