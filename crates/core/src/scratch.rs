//! Reusable buffers for the share path — one set per worker, none per node.
//!
//! Building and folding a message needs a transform workspace, the tile
//! loop's buffers, the decoded messages being folded, TopK's key buffer and
//! a coefficient-sized `f32` temporary, live only inside one `make_message`
//! or `aggregate` call. Only the temporary and the decodes are model-sized.
//! The transform's workspace is not: the wavelet levels run a tile at a
//! time, in a window per level, each half the one before (≈ 30 KiB for four
//! `sym2` levels, whatever d). TopK keeps its 2 048-key sample and the
//! bracket's keys (≈ 12 % of d at α = 0.4) and writes its selection as a
//! bitmap into the node's own `sent` set, from which the share's values are
//! gathered and its index block encoded: there is no index list. JWINS
//! makes its model changes in place of the vector each is read against and
//! gathers a share's values into the coefficient temporary. A share's wire
//! image is not here either: each `make_message` encodes into a buffer of
//! its own and copies it into the message at its exact size.
//! An average needs no model-sized buffer here: every strategy averages a
//! [`TILE`](crate::average::TILE) of coordinates at a time in
//! [`Tiles`] (40 KiB), and full sharing reads each message a tile at a
//! time there instead of decoding it whole (under a robust rule it still
//! decodes each message whole into the pool). Allocated per call
//! they cost a page fault per 4 KiB on every node every round; kept per
//! node they would multiply the resident set by the node count (a 16 384-
//! node run has 16 384 strategies and two workers). A worker runs one call
//! at a time, so one set per *concurrent call* is exactly enough.
//!
//! Each thread keeps its set in a thread-local: the barrier and event
//! schedulers' workers are resident for a whole run, so a worker's set
//! stays warm from one call to the next, and no line of it is ever written
//! by another worker. [`with_scratch`] takes the set out of the thread's
//! cell, runs the call and puts it back. A nested call on the same thread
//! finds the cell empty and gets a new set; whichever set comes back first
//! is kept and the other dropped, so a thread pools at most one. One shared
//! LIFO pool — what once stood here — made every worker write the same
//! line four times per node-round and handed each the buffers another core
//! had just warmed (on the 16 384-node benchmark workload a second worker
//! bought no wall time: 1.37 µs per item alone, 2.4–2.6 µs with two).
//!
//! Nothing in a set outlives the call as *data*: every buffer is cleared or
//! overwritten before it is read, so which set a call gets cannot change a
//! result.

use crate::average::Tiles;
use crate::strategy::Contribution;
use std::cell::Cell;

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
    /// shared decode; full sharing decodes each message into the first
    /// and hands it to a robust rule before the next, and under no rule
    /// never decodes a message whole.
    pub decoded: Vec<PooledDecode>,
    /// Coefficient-domain temporary: a change's transform, then the values
    /// the share gathers, or the finished average. The changes
    /// themselves are made in place of the vector they are read against.
    pub coeffs: Vec<f32>,
    /// TopK's key buffer (`sparsify::top_k_into`): the sample, then the
    /// bracket's keys — a few percent of the coefficients, whatever the
    /// budget.
    pub keys: Vec<u32>,
}

impl ShareScratch {
    /// The most elements any buffer of the set has room for.
    #[cfg(test)]
    pub(crate) fn largest_buffer(&self) -> usize {
        let decodes = (self.decoded.iter()).flat_map(|entry| {
            let values = &entry.contribution.values;
            [entry.index_buffer().capacity(), values.capacity()]
        });
        decodes
            .chain([self.coeffs.capacity(), self.largest_workspace()])
            .max()
            .unwrap_or(0)
    }

    /// The most elements any buffer has room for that is neither the
    /// coefficient temporary nor a decode — the two model-sized kinds.
    #[cfg(test)]
    pub(crate) fn largest_workspace(&self) -> usize {
        let Self {
            work,
            tiles,
            decoded: _,
            coeffs: _,
            keys,
        } = self;
        work.capacity().max(tiles.capacity()).max(keys.capacity())
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

thread_local! {
    /// This thread's set, while no call has it out.
    static SCRATCH: Cell<Option<ShareScratch>> = const { Cell::new(None) };
}

/// Runs `f` with this thread's scratch set (or a new one, if a call on this
/// thread already has it out) and keeps the set for the thread's next call.
/// A set is not returned when `f` panics.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut ShareScratch) -> R) -> R {
    let mut scratch = SCRATCH.with(Cell::take).unwrap_or_default();
    let result = f(&mut scratch);
    SCRATCH.with(|cell| {
        let kept = cell.take();
        cell.set(kept.or(Some(scratch)));
    });
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::average::TILE;
    use crate::cutoff::AlphaDistribution;
    use crate::strategies::{FullSharing, Jwins, JwinsConfig};
    use crate::strategy::{OutMessage, ReceivedMessage, ShareStrategy};
    use jwins_adversary::Robust;
    use jwins_codec::sparse::SparseVecCodec;
    use jwins_wavelet::Dwt;
    use std::sync::Barrier;

    /// `messages` as an inbox, each at weight 0.2.
    fn inbox(messages: &[OutMessage]) -> Vec<ReceivedMessage<'_>> {
        (messages.iter().enumerate())
            .map(|(j, msg)| ReceivedMessage {
                from: j + 1,
                round: 0,
                weight: 0.2,
                bytes: &msg.bytes,
                decoded: None,
            })
            .collect()
    }

    /// A plain full-sharing mix leaves no buffer as long as the model in
    /// the worker's set: every message is read a tile at a time.
    #[test]
    fn a_dense_mix_keeps_no_model_sized_buffer() {
        let dim = 3 * TILE + 5;
        let own: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.37).sin()).collect();
        let theirs = |j: usize| -> Vec<f32> { own.iter().map(|v| v * j as f32 - 0.5).collect() };
        let mut full = FullSharing::new();
        full.init(&own);
        let full_inbox: Vec<OutMessage> = (1..=4)
            .map(|j| full.make_message(0, &theirs(j)).unwrap())
            .collect();

        with_scratch(|s| {
            *s = ShareScratch::default();
            s.keys.push(0xA5);
        });
        full.aggregate(0, &own, 0.2, &inbox(&full_inbox)).unwrap();
        with_scratch(|s| {
            assert_eq!(s.keys, [0xA5], "the mix ran in another set");
            assert!(
                s.largest_buffer() < dim,
                "a buffer of {} elements",
                s.largest_buffer()
            );
        });
    }

    /// A JWINS share at α = 1 of a model whose transform is longer than it
    /// (n > d) keeps every buffer within `max(n, d)` elements — no buffer
    /// grows by doubling from d to n — runs no selection (its keys stay
    /// unallocated) and goes out as the implied frame.
    #[test]
    fn a_full_budget_jwins_share_sizes_each_buffer_exactly() {
        let dim = 3 * TILE + 5;
        let config = JwinsConfig {
            alpha: AlphaDistribution::Fixed(1.0),
            ..JwinsConfig::paper_default()
        };
        let codec = SparseVecCodec::new(config.index_codec, config.value_codec);
        let (wavelet, levels) = config.wavelet.clone().expect("paper default transforms");
        let n = Dwt::new(wavelet, levels)
            .unwrap()
            .layout_for(dim)
            .coeff_len();
        assert!(n > dim, "the case under test: {n} coefficients for {dim}");
        let params: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.37).sin()).collect();
        let mut jwins = Jwins::new(config, 5);
        jwins.init(&params);

        with_scratch(|s| *s = ShareScratch::default());
        let moved: Vec<f32> = params.iter().map(|v| v * 0.9).collect();
        let message = jwins.make_message(0, &moved).unwrap();
        let (indices, values) = codec.decode_compact(&message.bytes).unwrap();
        assert_eq!((indices, values.len()), (None, n), "an implied frame");
        with_scratch(|s| {
            assert!(s.work.capacity() > 0, "the share ran in another set");
            assert_eq!(s.keys.capacity(), 0, "a full budget selects no keys");
            assert_eq!(s.coeffs.len(), n);
            let largest = s.largest_buffer();
            assert!(largest <= n.max(dim), "a buffer of {largest} elements");
        });
    }

    /// A JWINS round — share, then mix four shares — at α = 1, 0.1 and
    /// 0.4 keeps its transform workspace within a bound that does not
    /// depend on d (a window per level, each half the one before), and at
    /// the larger d no buffer but the coefficient temporary and the decodes
    /// reaches d/4 elements: TopK keeps its sample and the bracket's keys,
    /// and neither an index list nor a wire image stays in the set. (At the
    /// larger d a level-by-level workspace, ¾·d, is past the bound.)
    #[test]
    fn a_jwins_round_keeps_no_model_sized_transform_workspace() {
        for dim in [3 * TILE + 5, 20 * TILE + 5] {
            jwins_round_footprint(dim);
        }
    }

    fn jwins_round_footprint(dim: usize) {
        let (wavelet, levels) = (jwins_wavelet::Wavelet::sym2(), 4);
        let bound = 2 * jwins_wavelet::TILE + 3 * levels * wavelet.filter_len();
        let own: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.37).sin()).collect();
        with_scratch(|s| *s = ShareScratch::default());
        for alpha in [1.0, 0.1, 0.4, 1.0] {
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
            with_scratch(|s| {
                let work = s.work.capacity();
                assert!(work > 0, "the round ran in another set");
                assert!(
                    work <= bound,
                    "d = {dim}, α = {alpha}: {work} > {bound} f64"
                );
                let largest = s.largest_workspace();
                if dim > 4 * bound {
                    assert!(
                        largest < dim / 4,
                        "d = {dim}, α = {alpha}: a buffer of {largest} elements"
                    );
                }
            });
        }
    }

    #[test]
    fn buffers_survive_between_calls_and_nest_without_sharing() {
        let first = with_scratch(|s| {
            s.keys.extend([1, 2, 3]);
            s.keys.as_ptr()
        });
        // The same buffers come back; a strategy clears before use.
        with_scratch(|outer| {
            assert_eq!(outer.keys.as_ptr(), first);
            assert!(outer.keys.capacity() >= 3);
            // A nested call finds the cell empty and gets a set of its own.
            with_scratch(|inner| {
                assert_eq!(inner.keys.capacity(), 0);
                inner.keys.push(9);
            });
        });
        // The cell keeps whichever set came back first: the nested call's.
        with_scratch(|s| assert_eq!(s.keys, [9]));
    }

    #[test]
    fn a_worker_gets_its_own_set_back_whatever_the_others_do() {
        let turn = Barrier::new(2);
        std::thread::scope(|scope| {
            for id in [7u32, 9] {
                let turn = &turn;
                scope.spawn(move || {
                    with_scratch(|s| {
                        s.keys.clear();
                        s.keys.push(id);
                        // Both sets are out at once, and go back in either
                        // order; then both threads come for one again.
                        turn.wait();
                    });
                    turn.wait();
                    for _ in 0..4 {
                        with_scratch(|s| assert_eq!(s.keys, [id]));
                    }
                });
            }
        });
    }
}
