//! Flat parameter storage for the whole cluster.
//!
//! At 10k+ nodes, per-node `Vec<f32>` parameter buffers scatter the hot
//! training state across the heap: every execute batch chases `n` separate
//! allocations and the allocator pays per-node bookkeeping. [`ParamArena`]
//! packs every node's flat parameter vector into one contiguous `Vec<f32>`
//! (CSR-style offsets, so heterogeneous model sizes still work) and hands
//! out disjoint `&mut [f32]` windows per node. The float values and their
//! operation order are exactly those of the per-node layout — the arena is
//! a storage change, not a numeric one — so runs stay bit-identical to the
//! pre-arena engine.
//!
//! Schedulers split the buffer into per-node `&mut` windows *once per run*
//! ([`ParamArena::slices_mut`]) and wrap each window in its node's cell (see
//! `engine::workers`). Nothing on a per-batch path walks the arena.

/// One flat buffer holding every node's parameters, indexed by node id.
#[derive(Debug, Clone)]
pub(crate) struct ParamArena {
    /// `offsets[i]..offsets[i + 1]` is node `i`'s window; `n + 1` entries.
    offsets: Vec<usize>,
    data: Vec<f32>,
}

impl ParamArena {
    /// An arena without nodes; [`Self::push`] appends them in node order.
    pub(crate) fn new() -> Self {
        Self {
            offsets: vec![0],
            data: Vec::new(),
        }
    }

    /// Appends the next node's window, holding `params`. `more` is how many
    /// equally sized nodes the caller knows will follow: the buffers are then
    /// allocated once, at their final size, instead of doubling their way
    /// there.
    pub(crate) fn push(&mut self, params: &[f32], more: usize) {
        self.offsets.reserve(1 + more);
        self.data.reserve(params.len() * (1 + more));
        self.data.extend_from_slice(params);
        self.offsets.push(self.data.len());
    }

    /// Copies node 0's window over every other node's (the common initial
    /// model). Panics if a window differs from node 0's in length.
    pub(crate) fn sync_to_first(&mut self) {
        let len = self.offsets[1];
        for w in self.offsets[1..].windows(2) {
            assert_eq!(w[1] - w[0], len, "all models must agree in size");
            self.data.copy_within(..len, w[0]);
        }
    }

    /// Number of nodes with a window in the arena.
    pub(crate) fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Node `i`'s parameters.
    pub(crate) fn node(&self, i: usize) -> &[f32] {
        &self.data[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Node `i`'s parameters, writable.
    pub(crate) fn node_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Splits the buffer into one disjoint `&mut` window per node, in node
    /// order. O(nodes): a scheduler calls it once per run, never per batch.
    pub(crate) fn slices_mut(&mut self) -> Vec<&mut [f32]> {
        let mut out = Vec::with_capacity(self.node_count());
        let mut rest: &mut [f32] = &mut self.data;
        for w in self.offsets.windows(2) {
            let (head, tail) = rest.split_at_mut(w[1] - w[0]);
            out.push(head);
            rest = tail;
        }
        out
    }
}

/// Copies a donor's window over a rejoiner's (donor re-sync on recovery).
/// Panics if the two windows differ in length.
pub(crate) fn copy_node(from: &[f32], to: &mut [f32]) {
    assert_eq!(
        from.len(),
        to.len(),
        "donor and rejoiner models must agree in size"
    );
    to.copy_from_slice(from);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arena(nodes: &[&[f32]]) -> ParamArena {
        let mut arena = ParamArena::new();
        nodes.iter().for_each(|params| arena.push(params, 0));
        arena
    }

    #[test]
    fn windows_are_contiguous_and_disjoint() {
        let mut arena = arena(&[&[1.0, 2.0], &[3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(arena.node_count(), 3);
        assert_eq!(arena.node(0), &[1.0, 2.0]);
        assert_eq!(arena.node(1), &[3.0]);
        assert_eq!(arena.node(2), &[4.0, 5.0, 6.0]);
        arena.node_mut(1)[0] = 9.0;
        assert_eq!(arena.node(1), &[9.0]);
        let slices = arena.slices_mut();
        assert_eq!(slices.len(), 3);
        assert_eq!(slices[2].len(), 3);
        slices.into_iter().for_each(|s| s.fill(0.0));
        assert_eq!(arena.node(0), &[0.0, 0.0]);
    }

    #[test]
    fn copy_node_resyncs_equal_sized_windows() {
        let mut arena = arena(&[&[1.0, 2.0], &[7.0, 8.0]]);
        let mut windows = arena.slices_mut();
        let (donor, rejoiner) = windows.split_at_mut(1);
        copy_node(donor[0], rejoiner[0]);
        assert_eq!(arena.node(1), &[1.0, 2.0]);
        assert_eq!(arena.node(0), &[1.0, 2.0], "donor untouched");
    }

    #[test]
    fn sync_to_first_broadcasts_node_zero() {
        let mut arena = arena(&[&[1.0, 2.0], &[7.0, 8.0], &[5.0, 6.0]]);
        arena.sync_to_first();
        for node in 0..3 {
            assert_eq!(arena.node(node), &[1.0, 2.0]);
        }
    }

    #[test]
    #[should_panic(expected = "agree in size")]
    fn copy_node_rejects_size_mismatch() {
        let mut arena = arena(&[&[1.0], &[2.0, 3.0]]);
        let mut windows = arena.slices_mut();
        let (donor, rejoiner) = windows.split_at_mut(1);
        copy_node(donor[0], rejoiner[0]);
    }
}
