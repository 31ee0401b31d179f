//! One reusable `f32` buffer per thread for kernel temporaries.
//!
//! The vectorised kernels need short-lived workspaces — a transposed block
//! of the batch, a zero-padded image, transposed gradients — whose size
//! depends on the layer and the batch but which hold nothing between calls.
//! Kept per layer they would multiply by the number of resident models (a
//! 16 384-node run holds 16 384 of them); allocated per call they would cost
//! more than the arithmetic of the smallest models. A thread runs one kernel
//! at a time, so one buffer per thread is exactly enough. The barrier and
//! event schedulers' workers are resident for a whole run, so a worker grows
//! its buffer once and keeps it across every batch (the share path keeps its
//! larger buffer sets per thread the same way, in `jwins`'s own scratch).
//!
//! The buffer comes back with whatever the previous kernel left in it:
//! callers write every element before they read it, so which thread runs a
//! kernel cannot change a result.

use std::cell::Cell;

thread_local! {
    static BUFFER: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
}

/// Runs `f` with `len` floats of unspecified content.
pub(crate) fn with<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    // Taken out for the call rather than borrowed in place: a kernel that
    // panics loses the buffer instead of poisoning the thread's slot.
    let mut buffer = BUFFER.take();
    if buffer.len() < len {
        buffer.resize(len, 0.0);
    }
    let result = f(&mut buffer[..len]);
    BUFFER.set(buffer);
    result
}

/// Splits the first `len` floats off the front of `rest`.
pub(crate) fn carve<'a>(rest: &mut &'a mut [f32], len: usize) -> &'a mut [f32] {
    let (head, tail) = std::mem::take(rest).split_at_mut(len);
    *rest = tail;
    head
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_survives_between_calls_and_carving_tiles_the_buffer() {
        with(10, |buf| buf.fill(7.0));
        with(4, |buf| {
            assert_eq!(buf.len(), 4);
            let mut rest = buf;
            let a = carve(&mut rest, 3);
            a.fill(1.0);
            let b = carve(&mut rest, 1);
            b[0] = 2.0;
            assert!(rest.is_empty());
        });
        with(10, |buf| assert_eq!(buf[..4], [1.0, 1.0, 1.0, 2.0]));
    }
}
