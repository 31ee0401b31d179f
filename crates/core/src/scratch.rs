//! Reusable buffers for the share path — one set per worker, none per node.
//!
//! Building and folding a message needs a transform workspace, an averager
//! (`num`/`den`), a TopK permutation buffer, coefficient-sized `f32`
//! temporaries and an encode buffer: several times the model size, live
//! only inside one `make_message` or `aggregate` call. Allocated per call
//! they cost a page fault per 4 KiB on every node every round; kept per
//! node they would multiply the resident set by the node count (a 16 384-
//! node run has 16 384 strategies and two workers). A worker runs one call
//! at a time, so one set per *concurrent call* is exactly enough.
//!
//! The sets live in a process-wide pool rather than in thread-locals:
//! [`with_scratch`] takes one out for the duration of a call and puts it
//! back. The barrier and event schedulers' workers are resident for a whole
//! run and would keep a thread-local warm, but the channel scheduler runs
//! one thread per *node*, each alive for one run — a thread-local set there
//! is the per-node multiplication all over again. A worker holds at most
//! one set at a time, so the pool never grows past the number of workers
//! that were ever inside a strategy at once; sets beyond one per core (the
//! channel backend again) are dropped on return instead of pooled. With
//! resident workers the same few sets simply circulate for the whole run.
//!
//! Nothing in a set outlives the call as *data*: every buffer is cleared or
//! overwritten before it is read, so which set a call gets cannot change a
//! result.

use crate::average::PartialAverager;
use std::sync::{Mutex, OnceLock, PoisonError};

/// One worker's buffers. Fields are independent; a strategy uses the ones
/// it needs.
#[derive(Debug, Default)]
pub(crate) struct ShareScratch {
    /// `Dwt::{forward,inverse}_into` workspace.
    pub work: Vec<f64>,
    /// The partial average being built in `aggregate`.
    pub averager: PartialAverager,
    /// Coefficient-domain temporary: a transform's output, then the
    /// finished average.
    pub coeffs: Vec<f32>,
    /// Parameter-domain temporary: model deltas, then gathered values.
    pub values: Vec<f32>,
    /// TopK's index permutation (`0..n` before selection).
    pub order: Vec<u32>,
    /// The wire image under construction; copied out at its exact size.
    pub wire: Vec<u8>,
}

static POOL: Mutex<Vec<ShareScratch>> = Mutex::new(Vec::new());

/// Most sets the pool keeps: one per core. Looked up once — the standard
/// library reads cgroup files for it, far too slow for every call.
fn pool_cap() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Runs `f` with a scratch set taken from the pool (or a new one) and
/// returns the set afterwards. Sets are not returned when `f` panics.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut ShareScratch) -> R) -> R {
    // A push or pop leaves the pool valid at every step, so a poisoned lock
    // (a panic elsewhere while holding it) loses nothing.
    let pool = || POOL.lock().unwrap_or_else(PoisonError::into_inner);
    let mut scratch = pool().pop().unwrap_or_default();
    let result = f(&mut scratch);
    let mut pool = pool();
    if pool.len() < pool_cap() {
        pool.push(scratch);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_survive_between_calls_and_nest_without_sharing() {
        with_scratch(|outer| {
            outer.wire.extend([1, 2, 3]);
            // A nested call (a second worker, in effect) gets another set.
            with_scratch(|inner| assert!(!std::ptr::eq(outer, inner)));
        });
        // Capacity is what persists; a strategy clears before use.
        let reused = (0..8).any(|_| with_scratch(|s| s.wire.capacity() >= 3));
        assert!(reused);
    }
}
