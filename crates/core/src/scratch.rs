//! Reusable buffers for the share path — one set per worker, none per node.
//!
//! Building and folding a message needs a transform workspace, the tile
//! loop's buffers, the decoded messages being folded, a TopK index buffer,
//! a coefficient-sized `f32` temporary and an encode buffer: a few times
//! the model size, live only inside one `make_message` or `aggregate` call.
//! The transform's workspace is not among the model-sized ones: the
//! wavelet levels run a tile at a time, in a window per level, each half
//! the one before (≈ 30 KiB for four `sym2` levels, whatever d). JWINS
//! makes its model changes in place of the vector each is read against
//! and gathers a share's values into the coefficient temporary.
//! An average needs no model-sized buffer here: every strategy averages a
//! [`TILE`](crate::average::TILE) of coordinates at a time in
//! [`Tiles`] (40 KiB), and full and quantized sharing read each message a
//! tile at a time there instead of decoding it whole (under a robust rule
//! they still decode each message whole into the pool). Allocated per call
//! they cost a page fault per 4 KiB on every node every round; kept per
//! node they would multiply the resident set by the node count (a 16 384-
//! node run has 16 384 strategies and two workers). A worker runs one call
//! at a time, so one set per *concurrent call* is exactly enough.
//!
//! The sets live in a fixed array of **slots**, one cache-line-aligned
//! `Mutex<Option<ShareScratch>>` each, rather than in thread-locals: the
//! barrier and event schedulers' workers are resident for a whole run and
//! would keep a thread-local warm, but the channel scheduler runs one thread
//! per *node*, each alive for one run — a thread-local set there is the
//! per-node multiplication all over again. A thread claims the lowest free
//! slot the first time it needs a set and owns it until it exits (the claim
//! is the only thread-local state, released by its destructor), so
//! [`with_scratch`] takes the set out of the thread's own slot and puts it
//! back: two uncontended locks on a line no other worker touches. One shared
//! LIFO pool — what this replaced — made every worker write the same line
//! four times per node-round and handed each the buffers another core had
//! just warmed (on the 16 384-node benchmark workload a second worker
//! bought no wall time: 1.37 µs per item alone, 2.4–2.6 µs with two).
//!
//! As many slots are open as the widest scheduler run announced
//! ([`reserve`]: `min(threads, nodes)`, whatever the core count — eight
//! workers on two cores keep eight sets, not two), and never fewer than one
//! per core. A thread that finds every open slot owned — the channel
//! backend's node threads beyond that count — allocates a set per call and
//! drops it, so at most one set per open slot is ever pooled. A set returned
//! to a slot that already holds one (a nested call on the same thread
//! returned first) is dropped likewise.
//!
//! Nothing in a set outlives the call as *data*: every buffer is cleared or
//! overwritten before it is read, so which set a call gets cannot change a
//! result.

use crate::average::Tiles;
use crate::strategy::Contribution;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// One worker's buffers. Fields are independent; a strategy uses the ones
/// it needs.
#[derive(Debug, Default)]
pub(crate) struct ShareScratch {
    /// `Dwt::{forward,inverse}_into` workspace.
    pub work: Vec<f64>,
    /// The tile loop's numerators, denominators and decoded values: every
    /// plain average is made in them.
    pub tiles: Tiles,
    /// Decoded neighbour messages, reused call after call (see
    /// [`decode_pool`]): JWINS and random sampling decode a whole inbox
    /// here before they mix it, one contribution per message that has no
    /// shared decode; full and quantized sharing decode each message into
    /// the first and hand it to a robust rule before the next, and under
    /// no rule never decode a message whole.
    pub decoded: Vec<PooledDecode>,
    /// Coefficient-domain temporary: a change's transform, then the values
    /// the share gathers, or the finished average. The changes
    /// themselves are made in place of the vector they are read against.
    pub coeffs: Vec<f32>,
    /// TopK's index buffer: its working keys or permutation, then the
    /// selection.
    pub order: Vec<u32>,
    /// The wire image under construction; copied out at its exact size.
    pub wire: Vec<u8>,
}

impl ShareScratch {
    /// The most elements any buffer of the set has room for.
    #[cfg(test)]
    pub(crate) fn largest_buffer(&self) -> usize {
        let Self {
            work,
            tiles,
            decoded,
            coeffs,
            order,
            wire,
        } = self;
        (decoded.iter())
            .flat_map(|entry| {
                let values = &entry.contribution.values;
                [entry.index_buffer().capacity(), values.capacity()]
            })
            .chain([work.capacity(), tiles.capacity(), coeffs.capacity()])
            .chain([order.capacity(), wire.capacity()])
            .max()
            .unwrap_or(0)
    }
}

/// One contribution of a scratch `decoded` pool, and the index list its
/// last decode did not need.
#[derive(Debug, Default)]
pub(crate) struct PooledDecode {
    /// The decode.
    pub contribution: Contribution,
    /// The list buffer set aside while the contribution's indices are
    /// implied, for the next listed decode to write into.
    spare: Vec<u32>,
}

impl PooledDecode {
    /// The buffers of a listed decode: an index list — the one set aside,
    /// if the last decode implied its indices — and the values.
    pub fn buffers(&mut self) -> (&mut Vec<u32>, &mut Vec<f32>) {
        let Contribution { indices, values } = &mut self.contribution;
        let spare = &mut self.spare;
        (indices.get_or_insert_with(|| std::mem::take(spare)), values)
    }

    /// Makes the contribution's indices implied (`0..values.len()`),
    /// setting its list buffer aside instead of freeing it.
    pub fn imply_indices(&mut self) {
        if let Some(list) = self.contribution.indices.take() {
            self.spare = list;
        }
    }

    /// The index list buffer, in the contribution or set aside.
    #[cfg(test)]
    pub(crate) fn index_buffer(&self) -> &Vec<u32> {
        self.contribution.indices.as_ref().unwrap_or(&self.spare)
    }
}

/// The first `n` entries of a scratch `decoded` pool, made where it has
/// fewer; the buffers of the ones it had are kept for the decodes to
/// overwrite.
pub(crate) fn decode_pool(pool: &mut Vec<PooledDecode>, n: usize) -> &mut [PooledDecode] {
    if pool.len() < n {
        pool.resize_with(n, PooledDecode::default);
    }
    &mut pool[..n]
}

/// More workers than this share no slot: the rest allocate per call.
const MAX_SLOTS: usize = 64;

/// One pooled set on a cache line pair of its own, so a worker's take and
/// return never invalidate another worker's.
#[repr(align(128))]
struct Slot(Mutex<Option<ShareScratch>>);

static SLOTS: [Slot; MAX_SLOTS] = [const { Slot(Mutex::new(None)) }; MAX_SLOTS];

/// `OWNED[i]` while a live thread holds slot `i`. Kept apart from the slots:
/// threads looking for a free one read only this, which changes when a
/// thread claims or exits, never per call.
static OWNED: [AtomicBool; MAX_SLOTS] = [const { AtomicBool::new(false) }; MAX_SLOTS];

/// The widest scheduler run announced so far.
static RESERVED: AtomicUsize = AtomicUsize::new(0);

/// Opens one slot per worker of a scheduler run about to start (capped at
/// [`MAX_SLOTS`]); slots stay open for the life of the process.
pub(crate) fn reserve(workers: usize) {
    // Relaxed: the count publishes nothing, it only widens a search.
    RESERVED.fetch_max(workers.min(MAX_SLOTS), Ordering::Relaxed);
}

/// Slots a thread may claim: one per announced worker, at least one per
/// core. The core count is looked up once — the standard library reads
/// cgroup files for it, far too slow for every call.
fn open_slots() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores = *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    RESERVED.load(Ordering::Relaxed).max(cores.min(MAX_SLOTS))
}

/// This thread's slot, once it has one; released when the thread exits.
struct Claim(Cell<Option<usize>>);

thread_local! {
    static CLAIM: Claim = const { Claim(Cell::new(None)) };
}

impl Claim {
    /// The slot this thread owns, claiming the lowest free one first if it
    /// owns none yet; `None` while every open slot is another thread's.
    fn slot(&self) -> Option<&'static Slot> {
        if self.0.get().is_none() {
            // Acquire/Release on the flag pair a claim with the previous
            // owner's release; the set itself is published by its mutex.
            let free = OWNED[..open_slots()].iter().position(|owned| {
                !owned.load(Ordering::Relaxed)
                    && owned
                        .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                        .is_ok()
            });
            self.0.set(free);
        }
        self.0.get().map(|index| &SLOTS[index])
    }
}

impl Drop for Claim {
    fn drop(&mut self) {
        if let Some(index) = self.0.get() {
            OWNED[index].store(false, Ordering::Release);
        }
    }
}

/// Runs `f` with the scratch set of this thread's slot (or a new one) and
/// returns the set there afterwards. Sets are not returned when `f` panics.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut ShareScratch) -> R) -> R {
    let slot = CLAIM.with(Claim::slot);
    // A take or a put leaves the slot valid at every step, so a poisoned
    // lock (a panic elsewhere while holding it) loses nothing.
    let set = |slot: &'static Slot| slot.0.lock().unwrap_or_else(PoisonError::into_inner);
    let mut scratch = slot.and_then(|s| set(s).take()).unwrap_or_default();
    let result = f(&mut scratch);
    if let Some(slot) = slot {
        let mut pooled = set(slot);
        if pooled.is_none() {
            *pooled = Some(scratch);
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::average::TILE;
    use crate::cutoff::AlphaDistribution;
    use crate::strategies::{FullSharing, Jwins, JwinsConfig, QuantizedSharing};
    use crate::strategy::{OutMessage, ReceivedMessage, ShareStrategy};
    use jwins_adversary::Robust;
    use jwins_wavelet::Dwt;
    use std::sync::Barrier;

    /// `messages` as an inbox, each at weight 0.2.
    fn inbox(messages: &[OutMessage]) -> Vec<ReceivedMessage<'_>> {
        (messages.iter().enumerate())
            .map(|(j, msg)| ReceivedMessage {
                from: j + 1,
                round: 0,
                weight: 0.2,
                edge_weight: 0.2,
                bytes: &msg.bytes,
                decoded: None,
            })
            .collect()
    }

    /// A plain full or quantized mix leaves no buffer as long as the model
    /// in the worker's set: every message is read a tile at a time.
    #[test]
    fn a_dense_mix_keeps_no_model_sized_buffer() {
        let dim = 3 * TILE + 5;
        let own: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.37).sin()).collect();
        let theirs = |j: usize| -> Vec<f32> { own.iter().map(|v| v * j as f32 - 0.5).collect() };
        // Encoded before the set is emptied: full sharing builds its wire
        // image there.
        let mut full = FullSharing::new();
        full.init(&own);
        let full_inbox: Vec<OutMessage> = (1..=4)
            .map(|j| full.make_message(0, &theirs(j)).unwrap())
            .collect();
        let quantized_inbox: Vec<OutMessage> = (1..=4)
            .map(|j| {
                let mut sender = QuantizedSharing::new(255, j as u64);
                sender.init(&own);
                sender.make_message(0, &theirs(j)).unwrap()
            })
            .collect();
        let mut quantized = QuantizedSharing::new(255, 9);
        quantized.init(&own);
        let _ = quantized.make_message(0, &own).unwrap();

        reserve(MAX_SLOTS);
        with_scratch(|s| {
            *s = ShareScratch::default();
            s.wire.push(0xA5);
        });
        full.aggregate(0, &own, 0.2, &inbox(&full_inbox)).unwrap();
        (quantized.aggregate(0, &own, 0.2, &inbox(&quantized_inbox))).unwrap();
        with_scratch(|s| {
            assert_eq!(s.wire, [0xA5], "the mixes ran in another set");
            assert!(
                s.largest_buffer() < dim,
                "a buffer of {} elements",
                s.largest_buffer()
            );
        });
    }

    /// A JWINS share at α = 1 of a model whose transform is longer than it
    /// (n > d) keeps every buffer within `max(n, d)` elements, and the wire
    /// image within the value codec's worst case: no buffer grows by
    /// doubling from d to n.
    #[test]
    fn a_full_budget_jwins_share_sizes_each_buffer_exactly() {
        let dim = 3 * TILE + 5;
        let config = JwinsConfig {
            alpha: AlphaDistribution::Fixed(1.0),
            ..JwinsConfig::paper_default()
        };
        let (wavelet, levels) = config.wavelet.clone().expect("paper default transforms");
        let n = Dwt::new(wavelet, levels)
            .unwrap()
            .layout_for(dim)
            .coeff_len();
        assert!(n > dim, "the case under test: {n} coefficients for {dim}");
        let params: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.37).sin()).collect();
        let mut jwins = Jwins::new(config, 5);
        jwins.init(&params);

        reserve(MAX_SLOTS);
        with_scratch(|s| *s = ShareScratch::default());
        let moved: Vec<f32> = params.iter().map(|v| v * 0.9).collect();
        let message = jwins.make_message(0, &moved).unwrap();
        with_scratch(|s| {
            let wire = std::mem::take(&mut s.wire);
            assert!(
                wire.len() >= message.bytes.len(),
                "the share ran in another set"
            );
            // Two length varints, then every value at its full 32 bits
            // with a 17-bit header per block of 64.
            let worst = 2 * 10 + (n * 32 + n.div_ceil(64) * 17).div_ceil(8);
            assert!(wire.capacity() <= worst, "{} > {worst}", wire.capacity());
            let largest = s.largest_buffer();
            assert!(largest <= n.max(dim), "a buffer of {largest} elements");
        });
    }

    /// A JWINS round — share, then mix four shares — at α = 1 and at
    /// α = 0.1 keeps its transform workspace within a bound that does not
    /// depend on d (a window per level, each half the one before), and its
    /// selection to the budget. (At the larger d a level-by-level
    /// workspace, ¾·d, is past the bound.)
    #[test]
    fn a_jwins_round_keeps_no_model_sized_transform_workspace() {
        for dim in [3 * TILE + 5, 20 * TILE + 5] {
            jwins_round_footprint(dim);
        }
    }

    fn jwins_round_footprint(dim: usize) {
        let (wavelet, levels) = (jwins_wavelet::Wavelet::sym2(), 4);
        let bound = 2 * jwins_wavelet::TILE + 3 * levels * wavelet.filter_len();
        let n = Dwt::new(wavelet.clone(), levels)
            .unwrap()
            .layout_for(dim)
            .coeff_len();
        let own: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.37).sin()).collect();
        reserve(MAX_SLOTS);
        with_scratch(|s| *s = ShareScratch::default());
        for alpha in [1.0, 0.1, 1.0] {
            let config = JwinsConfig {
                wavelet: Some((wavelet.clone(), levels)),
                alpha: AlphaDistribution::Fixed(alpha),
                randomized_cutoff: false,
                ..JwinsConfig::paper_default()
            };
            let shares: Vec<OutMessage> = (1..=4u64)
                .map(|j| {
                    let mut peer = Jwins::new(config.clone(), j);
                    peer.init(&own);
                    let theirs: Vec<f32> = own.iter().map(|v| v * j as f32 - 0.5).collect();
                    peer.make_message(0, &theirs).unwrap()
                })
                .collect();
            let mut jwins = Jwins::new(config, 9);
            jwins.init(&own);
            let moved: Vec<f32> = own.iter().map(|v| v * 0.9).collect();
            let _ = jwins.make_message(0, &moved).unwrap();
            let mut params = moved.clone();
            let mixed = jwins.aggregate_into(0, &mut params, 0.2, &inbox(&shares), &Robust::None);
            mixed.unwrap();
            let k = crate::sparsify::budget(n, alpha);
            with_scratch(|s| {
                let work = s.work.capacity();
                assert!(work > 0, "the round ran in another set");
                assert!(
                    work <= bound,
                    "d = {dim}, α = {alpha}: {work} > {bound} f64"
                );
                let order = &s.order;
                assert_eq!(order.len(), k, "d = {dim}, α = {alpha}");
                assert!(order.capacity() <= n, "d = {dim}, α = {alpha}");
            });
        }
    }

    #[test]
    fn buffers_survive_between_calls_and_nest_without_sharing() {
        // Other tests' workers hold slots too: open enough for everyone.
        reserve(MAX_SLOTS);
        with_scratch(|s| s.wire.extend([1, 2, 3]));
        // Capacity is what persists; a strategy clears before use.
        with_scratch(|outer| {
            assert!(outer.wire.capacity() >= 3);
            // A nested call finds the slot empty and gets a set of its own;
            // the slot keeps whichever comes back first.
            with_scratch(|inner| assert!(!std::ptr::eq(outer, inner)));
        });
    }

    #[test]
    fn a_worker_gets_its_own_set_back_whatever_the_others_do() {
        reserve(MAX_SLOTS);
        let turn = Barrier::new(2);
        std::thread::scope(|scope| {
            for id in [7u8, 9] {
                let turn = &turn;
                scope.spawn(move || {
                    with_scratch(|s| {
                        s.wire.clear();
                        s.wire.push(id);
                        // Both sets are out at once, and go back in either
                        // order; then both threads come for one again.
                        turn.wait();
                    });
                    turn.wait();
                    for _ in 0..4 {
                        with_scratch(|s| assert_eq!(s.wire, [id]));
                    }
                });
            }
        });
    }
}
