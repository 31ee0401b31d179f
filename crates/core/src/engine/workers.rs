//! Resident workers: the engine's one way to run node work in parallel.
//!
//! [`with_workers`] starts `count − 1` helper threads once, inside one
//! [`std::thread::scope`] around a whole barrier or event schedule, and the
//! calling thread is the remaining worker. [`Workers::batch`] then runs one
//! closure per `(node, item)` pair — the execute phase of an event batch, a
//! barrier phase, an evaluation — without creating a thread: the batch is cut
//! into chunks of `ceil(width / (4 · count))` items that workers *claim* off
//! a shared counter. The caller claims too, and starts at once, so a narrow
//! batch is finished before a helper has even woken, and a wide one balances
//! itself over uneven items; no width or cost threshold decides anything.
//!
//! # What a worker may touch
//!
//! Helpers outlive every batch, so a job cannot borrow anything created
//! after they started. That is enforced by the `'job` lifetime, not by
//! convention: a batch closure may capture run-long borrows (the
//! configuration, the transport, the test set), `Arc`s, and values moved
//! into it (a batch's resolved round contexts) — never a scheduler's
//! per-round locals. Node state reaches a worker only through the run's
//! [`Cell`]s: one mutex per node (the engine puts the node's training state
//! and its window of the parameter arena inside), built once per run. Batch
//! node ids are pairwise distinct (checked on every batch, in `O(width)`), so no cell is
//! ever contended; the lock is what lets safe Rust hand `&mut` state to a
//! thread that was not spawned for this batch. Sequential scheduler code
//! reaches node state through the same cells, between batches.
//!
//! What is needed per *concurrent item* rather than per node — the engine's
//! model instances — is a **workspace**: a batch takes one cell per worker,
//! and worker `w` holds `spaces[w]` for the length of each chunk it claims
//! (one uncontended lock per chunk, not per item). Which worker, and so
//! which workspace, serves an item is timing; a job must not let it show.
//!
//! # Order and failure
//!
//! Outputs come back in item order. Chunks are contiguous item ranges and
//! each stops at its first error, so the first `Err` *in item order* wins
//! whatever the thread timing — results and failures are both independent
//! of the worker count. A panic inside an item — on a helper or on the
//! caller — is caught with the chunk, carried back, and resumed on the
//! calling thread once the batch has drained, so it unwinds through
//! [`super::Trainer::run`]'s flight-recorder guard like any sequential panic
//! and can never leave the caller waiting on a dead helper.
//!
//! The module knows nothing about models or strategies — a cell holds any
//! `C` — and is public only so `micro_substrates` can time an empty
//! dispatch; the engine is its one real caller.

use crate::Result;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// One node's state behind its lock (see the module docs). `parking_lot`'s
/// mutex does not poison: a panicking item already takes the run down.
pub type Cell<C> = parking_lot::Mutex<C>;

/// Locks one of the pool's own mutexes. No item code runs under them and
/// nothing that can panic runs between two writes, so a poisoned lock still
/// guards valid data.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A posted batch, as helpers see it: claim chunks until none is left.
trait Job: Send + Sync {
    fn work(&self, worker: usize);
}

/// What helpers wait on: the posted job, if its batch is still running, and
/// how many have been posted so far.
struct Board<'job> {
    posted: u64,
    job: Option<Arc<dyn Job + 'job>>,
    closed: bool,
}

/// The run's worker pool: `count − 1` parked helpers plus the caller.
pub struct Workers<'job> {
    count: usize,
    board: Mutex<Board<'job>>,
    wake: Condvar,
    /// One bit per node, all clear between batches: the scratch of
    /// [`Workers::assert_distinct`].
    seen: Mutex<Vec<u64>>,
}

/// Runs `body` with a pool of `count` workers (clamped to at least one):
/// the calling thread plus `count − 1` helpers that live exactly as long as
/// `body` does. Everything a job borrows must outlive this call (`'job`).
pub fn with_workers<'job, R>(count: usize, body: impl FnOnce(&Workers<'job>) -> R) -> R {
    let workers = Workers {
        count: count.max(1),
        board: Mutex::new(Board {
            posted: 0,
            job: None,
            closed: false,
        }),
        wake: Condvar::new(),
        seen: Mutex::new(Vec::new()),
    };
    std::thread::scope(|scope| {
        let workers = &workers;
        for worker in 1..workers.count {
            scope.spawn(move || workers.help(worker));
        }
        // Dropped when `body` returns *or unwinds*: the scope joins the
        // helpers either way, so they must always be told to leave.
        let _close = CloseOnDrop(workers);
        body(workers)
    })
}

struct CloseOnDrop<'w, 'job>(&'w Workers<'job>);

impl Drop for CloseOnDrop<'_, '_> {
    fn drop(&mut self) {
        lock(&self.0.board).closed = true;
        self.0.wake.notify_all();
    }
}

impl<'job> Workers<'job> {
    /// A helper's whole life: sleep until a job newer than the last one it
    /// served is posted, claim chunks of it until none is left, repeat.
    /// `worker` is its index in `1..count`; the caller is worker 0.
    fn help(&self, worker: usize) {
        let mut served = 0;
        loop {
            let job = {
                let mut board = lock(&self.board);
                while board.posted == served && !board.closed {
                    board = self
                        .wake
                        .wait(board)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                if board.closed {
                    return;
                }
                served = board.posted;
                board.job.clone()
            };
            if let Some(job) = job {
                job.work(worker);
            }
        }
    }

    /// The distinct-node contract every batch rests on, checked in
    /// `O(width)` whatever the order of the ids: mark each id's bit, then
    /// wipe the marks.
    fn assert_distinct<T>(&self, cells: usize, items: &[(usize, T)]) {
        assert!(
            items.iter().all(|&(id, _)| id < cells),
            "batch nodes must have a cell"
        );
        let distinct = {
            let mut seen = lock(&self.seen);
            if seen.len() < cells.div_ceil(64) {
                seen.resize(cells.div_ceil(64), 0);
            }
            let mut distinct = true;
            for &(id, _) in items {
                let bit = 1u64 << (id % 64);
                distinct &= seen[id / 64] & bit == 0;
                seen[id / 64] |= bit;
            }
            for &(id, _) in items {
                seen[id / 64] = 0;
            }
            distinct
        };
        assert!(distinct, "batch nodes must be pairwise distinct");
    }

    fn post(&self, job: Arc<dyn Job + 'job>) {
        let mut board = lock(&self.board);
        board.posted += 1;
        board.job = Some(job);
        drop(board);
        self.wake.notify_all();
    }

    /// Executes `f` once per `(node, item)` pair with the content of the
    /// node's cell and the claiming worker's workspace, on every worker that
    /// claims a chunk in time. Outputs come back in item order, as the
    /// chunks produced them; the first error in item order wins.
    ///
    /// # Errors
    ///
    /// The first `Err` an item returned, in item order.
    ///
    /// # Panics
    ///
    /// Panics if two items name the same node or a node without a cell, if
    /// there are fewer workspaces than workers, and resumes on the caller a
    /// panic raised inside `f`. The first failing chunk in item order
    /// decides which it is: an `Err` there is returned even if a later
    /// chunk panicked.
    pub fn batch<C, S, T, P, F>(
        &self,
        cells: &'job [Cell<C>],
        spaces: &'job [Cell<S>],
        items: Vec<(usize, T)>,
        f: F,
    ) -> Result<Outputs<P>>
    where
        C: Send + 'job,
        S: Send + 'job,
        T: Send + 'job,
        P: Send + 'job,
        F: Fn(usize, &mut C, &mut S, T) -> Result<P> + Send + Sync + 'job,
    {
        assert!(spaces.len() >= self.count, "one workspace per worker");
        self.assert_distinct(cells.len(), &items);
        let width = items.len();
        let per_chunk = width.div_ceil(4 * self.count).max(1);
        let mut chunks = Vec::with_capacity(width.div_ceil(per_chunk));
        let mut items = items.into_iter();
        while items.len() > 0 {
            let chunk: Vec<(usize, T)> = items.by_ref().take(per_chunk).collect();
            chunks.push(Mutex::new(Chunk::Todo(chunk)));
        }
        // The emptied list still holds its buffer: free it before any item
        // runs, not when the batch returns.
        drop(items);
        let batch = Arc::new(Batch {
            cells,
            spaces,
            f,
            chunks,
            next: AtomicUsize::new(0),
            finished: Mutex::new(0),
            drained: Condvar::new(),
        });
        // A single chunk is the caller's by construction: nobody to wake.
        let shared = batch.chunks.len() > 1 && self.count > 1;
        if shared {
            self.post(Arc::clone(&batch) as Arc<dyn Job + 'job>);
        }
        batch.work(0);
        batch.wait();
        if shared {
            // Taken down at once, so what the job owns (a batch's round
            // contexts) lives no longer than the batch; a helper that wakes
            // only now finds nothing to do.
            lock(&self.board).job = None;
        }
        let mut out = Vec::with_capacity(batch.chunks.len());
        for chunk in &batch.chunks {
            match std::mem::replace(&mut *lock(chunk), Chunk::Claimed) {
                Chunk::Finished(Ok(outputs)) => out.push(outputs?),
                Chunk::Finished(Err(payload)) => resume_unwind(payload),
                Chunk::Todo(_) | Chunk::Claimed => unreachable!("the batch has drained"),
            }
        }
        Ok(Outputs { chunks: out })
    }
}

/// A batch's outputs in item order, kept in the vectors its chunks filled:
/// reading them never needs a second, concatenated copy.
#[derive(Debug)]
pub struct Outputs<P> {
    chunks: Vec<Vec<P>>,
}

impl<P> Outputs<P> {
    /// Number of outputs (one per item).
    pub fn len(&self) -> usize {
        self.chunks.iter().map(Vec::len).sum()
    }

    /// Whether the batch had no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The outputs in item order.
    pub fn iter(&self) -> impl Iterator<Item = &P> {
        self.chunks.iter().flatten()
    }
}

impl<P> IntoIterator for Outputs<P> {
    type Item = P;
    type IntoIter = std::iter::Flatten<std::vec::IntoIter<Vec<P>>>;

    fn into_iter(self) -> Self::IntoIter {
        self.chunks.into_iter().flatten()
    }
}

/// A contiguous run of a batch's items, from waiting to finished: its
/// outputs (up to its first error), or the payload of a panic inside it.
enum Chunk<T, P> {
    Todo(Vec<(usize, T)>),
    Claimed,
    Finished(std::thread::Result<Result<Vec<P>>>),
}

struct Batch<'job, C, S, T, P, F> {
    cells: &'job [Cell<C>],
    spaces: &'job [Cell<S>],
    f: F,
    chunks: Vec<Mutex<Chunk<T, P>>>,
    /// The next unclaimed chunk.
    next: AtomicUsize,
    finished: Mutex<usize>,
    drained: Condvar,
}

impl<C, S, T, P, F> Batch<'_, C, S, T, P, F>
where
    F: Fn(usize, &mut C, &mut S, T) -> Result<P>,
{
    /// Blocks until every chunk — whoever claimed it — has finished.
    fn wait(&self) {
        let mut finished = lock(&self.finished);
        while *finished < self.chunks.len() {
            finished = self
                .drained
                .wait(finished)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn run_chunk(&self, worker: usize, items: Vec<(usize, T)>) -> Result<Vec<P>> {
        let space = &mut *self.spaces[worker].lock();
        items
            .into_iter()
            .map(|(id, item)| (self.f)(id, &mut self.cells[id].lock(), space, item))
            .collect()
    }
}

impl<C, S, T, P, F> Job for Batch<'_, C, S, T, P, F>
where
    C: Send,
    S: Send,
    T: Send,
    P: Send,
    F: Fn(usize, &mut C, &mut S, T) -> Result<P> + Send + Sync,
{
    fn work(&self, worker: usize) {
        loop {
            // Relaxed: the counter only hands each index out once; the
            // chunk behind it is published by its own mutex.
            let claimed = self.next.fetch_add(1, Ordering::Relaxed);
            let Some(chunk) = self.chunks.get(claimed) else {
                return;
            };
            let Chunk::Todo(items) = std::mem::replace(&mut *lock(chunk), Chunk::Claimed) else {
                unreachable!("a chunk index is handed out once")
            };
            // Node state is not unwind-safe, and need not be: the payload
            // is resumed on the caller and the run ends with it.
            let outcome = catch_unwind(AssertUnwindSafe(|| self.run_chunk(worker, items)));
            *lock(chunk) = Chunk::Finished(outcome);
            let mut finished = lock(&self.finished);
            *finished += 1;
            if *finished == self.chunks.len() {
                self.drained.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::JwinsError;
    use std::sync::atomic::AtomicBool;
    use std::sync::{mpsc, Barrier};
    use std::thread::ThreadId;
    use std::time::Duration;

    const THREADS: [usize; 3] = [1, 2, 8];
    const WIDTHS: [usize; 5] = [1, 2, 3, 7, 64];

    /// 64 cells, cell `i` holding `100 · i`.
    fn cells() -> Vec<Cell<usize>> {
        (0..64).map(|i| Cell::new(100 * i)).collect()
    }

    /// One unit workspace per worker of the widest pool the tests start.
    fn spaces() -> Vec<Cell<()>> {
        (0..8).map(|_| Cell::new(())).collect()
    }

    /// `width` distinct ids in an order that is neither ascending nor
    /// descending (37 is coprime to 64), as a window's members arrive in
    /// queue order rather than node order.
    fn scattered(width: usize) -> Vec<(usize, usize)> {
        (0..width).map(|k| ((k * 37 + 5) % 64, k)).collect()
    }

    #[test]
    fn outputs_come_back_in_item_order_and_each_item_sees_its_own_cell() {
        let (cells, spaces) = (cells(), spaces());
        for threads in THREADS {
            with_workers(threads, |pool| {
                for width in WIDTHS {
                    for items in [(0..width).map(|k| (k, k)).collect(), scattered(width)] {
                        let expect: Vec<_> =
                            items.iter().map(|&(id, k)| (id, k, 100 * id)).collect();
                        let got = pool
                            .batch(&cells, &spaces, items, |id, cell, (), k| Ok((id, k, *cell)))
                            .unwrap();
                        assert!(got.iter().eq(&expect), "threads {threads}, width {width}");
                        let got: Vec<_> = got.into_iter().collect();
                        assert_eq!(got, expect, "threads {threads}, width {width}");
                    }
                }
            });
        }
    }

    /// Every item is served with a workspace, and a workspace only ever by
    /// one thread: worker `w`'s, however the chunks were claimed.
    #[test]
    fn a_workspace_belongs_to_one_worker_for_the_whole_run() {
        let cells = cells();
        for threads in THREADS {
            let spaces: Vec<Cell<Vec<ThreadId>>> = (0..threads).map(|_| Cell::default()).collect();
            with_workers(threads, |pool| {
                for _ in 0..20 {
                    let items = (0..64).map(|k| (k, ())).collect();
                    pool.batch(&cells, &spaces, items, |_, _, served, ()| {
                        served.push(std::thread::current().id());
                        Ok(())
                    })
                    .unwrap();
                }
            });
            let served: Vec<Vec<ThreadId>> = spaces.into_iter().map(Cell::into_inner).collect();
            assert_eq!(served.iter().map(Vec::len).sum::<usize>(), 20 * 64);
            for by in &served {
                assert!(by.windows(2).all(|w| w[0] == w[1]), "threads {threads}");
            }
            assert!(
                !served[0].is_empty(),
                "the caller is worker 0 and always claims"
            );
        }
    }

    #[test]
    fn the_earlier_failing_item_wins_whatever_the_order_of_ids() {
        let (cells, spaces) = (cells(), spaces());
        for threads in THREADS {
            with_workers(threads, |pool| {
                for width in [7, 64] {
                    let ascending: Vec<(usize, usize)> = (0..width).map(|k| (k, k)).collect();
                    let descending: Vec<_> = ascending.iter().rev().copied().collect();
                    for (items, first) in [(ascending, 2), (descending, 5)] {
                        let err = pool
                            .batch(&cells, &spaces, items, |id, _, (), _| match id {
                                2 | 5 => Err(JwinsError::InvalidConfig(format!("node {id}"))),
                                _ => Ok(()),
                            })
                            .unwrap_err();
                        assert_eq!(
                            err.to_string(),
                            format!("invalid configuration: node {first}"),
                            "threads {threads}, width {width}"
                        );
                    }
                }
            });
        }
    }

    #[test]
    #[should_panic(expected = "batch nodes must be pairwise distinct")]
    fn a_repeated_node_is_rejected_in_a_sorted_batch() {
        let (cells, spaces) = (cells(), spaces());
        let items = vec![(1, ()), (1, ())];
        with_workers(2, |pool| {
            pool.batch(&cells, &spaces, items, |_, _, (), ()| Ok(()))
        })
        .unwrap();
    }

    #[test]
    #[should_panic(expected = "batch nodes must be pairwise distinct")]
    fn a_repeated_node_is_rejected_in_an_unsorted_batch() {
        let (cells, spaces) = (cells(), spaces());
        let items = vec![(9, ()), (3, ()), (40, ()), (3, ())];
        with_workers(2, |pool| {
            pool.batch(&cells, &spaces, items, |_, _, (), ()| Ok(()))
        })
        .unwrap();
    }

    /// Runs `body` on its own thread and fails instead of hanging if it has
    /// not finished — normally or by panicking — within ten seconds.
    fn within_ten_seconds<R: Send + 'static>(body: impl FnOnce() -> R + Send + 'static) -> R {
        let (done, finished) = mpsc::channel();
        std::thread::spawn(move || {
            let outcome = catch_unwind(AssertUnwindSafe(body));
            let _ = done.send(outcome);
        });
        match finished.recv_timeout(Duration::from_secs(10)) {
            Ok(Ok(value)) => value,
            Ok(Err(payload)) => resume_unwind(payload),
            Err(_) => panic!("the dispatcher hung"),
        }
    }

    /// The item that panics is forced onto a *helper*: the caller's first
    /// item and the first item any other thread runs meet at a barrier, so
    /// the caller cannot drain the batch alone, and the helper panics right
    /// after. The panic must come out of `batch` on the calling thread.
    #[test]
    #[should_panic(expected = "boom on a helper")]
    fn a_panic_on_a_helper_resumes_on_the_caller_and_never_hangs() {
        within_ten_seconds(|| {
            let (cells, spaces) = (cells(), spaces());
            let caller: ThreadId = std::thread::current().id();
            let (caller_met, helper_met) = (AtomicBool::new(false), AtomicBool::new(false));
            let meet = Barrier::new(2);
            with_workers(2, |pool| {
                let items = (0..8).map(|k| (k, ())).collect();
                pool.batch(&cells, &spaces, items, |_, _, (), ()| {
                    let on_caller = std::thread::current().id() == caller;
                    let met = if on_caller { &caller_met } else { &helper_met };
                    if !met.swap(true, Ordering::SeqCst) {
                        meet.wait();
                        assert!(on_caller, "boom on a helper");
                    }
                    Ok(())
                })
            })
        })
        .unwrap();
    }

    #[test]
    fn the_pool_still_serves_a_batch_after_a_caught_panic() {
        within_ten_seconds(|| {
            let (cells, spaces) = (cells(), spaces());
            with_workers(2, |pool| {
                let all = || (0..64).map(|k| (k, ())).collect::<Vec<_>>();
                let panicked = catch_unwind(AssertUnwindSafe(|| {
                    pool.batch(&cells, &spaces, all(), |id, _, (), ()| {
                        assert_ne!(id, 40, "item 40");
                        Ok(())
                    })
                }));
                assert!(panicked.is_err());
                // Helpers caught their share of it and still serve.
                let sum: usize = pool
                    .batch(&cells, &spaces, all(), |_, cell, (), ()| Ok(*cell))
                    .unwrap()
                    .iter()
                    .sum();
                assert_eq!(sum, 100 * (0..64).sum::<usize>());
            });
        });
    }
}
