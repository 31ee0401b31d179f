//! The multilevel transform a tile at a time: the bodies of
//! [`Dwt::forward_into`](crate::Dwt::forward_into) and
//! [`Dwt::inverse_into`](crate::Dwt::inverse_into).
//!
//! Level by level, a transform holds a level's whole output before the next
//! level reads it: on JWINS's d = 113 418 that is 56 709 `f64` of the
//! finest approximation band, and ¾ of the signal length over the two
//! regions the levels alternate between. Streamed, no level waits for
//! another to finish:
//!
//! - **Forward.** Level 1 computes at most [`TILE`] outputs at a time (half
//!   its band, if that is shorter) straight from the signal; each approximation
//!   chunk lands in level 2's window, which computes every output whose window
//!   has arrived, hands its approximation chunk on, and keeps only the `< taps`
//!   samples the next output reads. A level's last few outputs wrap round to
//!   its first `taps − 2` samples, which it keeps aside once its window has
//!   moved past them, and are computed when the level's input is complete.
//! - **Inverse.** Output pair `i` of a level gathers approximation pairs
//!   `i + 1 − taps/2 ..= i`, so a range of output samples needs a range of
//!   the approximation half as long plus `taps/2 − 1`: the signal is
//!   written [`TILE`] samples at a time (about half of it, if that is
//!   shorter), each level making the range of the finer level's
//!   approximation that the range below it reads (a few
//!   samples at each boundary are made twice). Each level's first
//!   `taps − 2` outputs also read its last coefficients, which would hold
//!   every coarser level back until its end: they are made first, coarsest
//!   level first, from the first and last few samples of each
//!   approximation. Levels whose output is shorter than `2·taps` are too
//!   short for those ranges to stay apart and run whole, as before.
//!
//! Every output is still computed by the one-level kernels
//! (`crate::transform`): the interior runs and their AVX2 twins on
//! sub-slices, the edge loops over the samples they read. Each output sums
//! the same terms in the same order, so the bits are those of the
//! level-by-level transform, which the tests keep as the oracle
//! ([`Dwt::forward_levels_into`](crate::Dwt::forward_levels_into) and
//! [`Dwt::inverse_levels_into`](crate::Dwt::inverse_levels_into)).
//!
//! `work` then holds one window per level, each about half the one before
//! it and never longer than the level's band: at most
//! `2·TILE + 3·levels·taps` `f64` forward and about half that inverse,
//! whatever the signal length, and within a few filter lengths per level
//! of the level-by-level transform's ¾ of it on short signals.

use crate::multilevel::CoeffLayout;
use crate::transform::{
    analysis_interior, analyze_edge, analyze_run, synthesize_edge, synthesize_into, synthesize_run,
    Real,
};
use crate::Wavelet;

/// Most outputs a level computes per step: level 1's outputs per forward
/// step, and the signal samples per inverse step.
pub const TILE: usize = 2_048;

/// More levels than any layout has: each one halves a length of at least 2.
const MAX_LEVELS: usize = usize::BITS as usize;

/// Longest built-in filter; `taps − 2` bounds an edge.
const MAX_TAPS: usize = 16;

/// Samples `base .. base + fill` of a level's input, in the level's window.
#[derive(Debug, Clone, Copy, Default)]
struct Window {
    base: usize,
    fill: usize,
}

/// The forward transform of `signal` into `out` (`layout.coeff_len()`
/// long, at least one level), streamed through `work`.
pub(crate) fn forward(
    wavelet: &Wavelet,
    signal: &[f32],
    layout: &CoeffLayout,
    work: &mut Vec<f64>,
    out: &mut [f32],
) {
    let levels = layout.levels();
    let taps = wavelet.filter_len();
    // Level 1 makes at most `step` outputs at a time: a TILE, or half of
    // its band when that is shorter. Region `r` takes what level `r + 1`
    // makes — about `step >> r` a step, plus the `< taps` samples a window
    // keeps and the `≤ taps/2` wrapped last outputs, and never more than
    // the whole band — then, but for the last, the head of level `r + 2`;
    // the last is the sink that narrows the coarsest approximation into
    // `out`.
    let step = TILE.min(layout.detail_lens[0].div_ceil(2));
    let (mut caps, mut starts) = ([0usize; MAX_LEVELS], [0usize; MAX_LEVELS + 1]);
    for r in 0..levels {
        caps[r] = layout.detail_lens[r].min((step >> r) + 2 * taps);
        let head = if r + 1 < levels { taps - 2 } else { 0 };
        starts[r + 1] = starts[r] + caps[r] + head;
    }
    if work.len() < starts[levels] {
        work.resize(starts[levels], 0.0);
    }
    let mut windows = [Window::default(); MAX_LEVELS];
    let mut next = [0usize; MAX_LEVELS];
    let approx = layout.approx_range();

    // The sink is complete once every level is.
    while windows[levels - 1].base < approx.len() {
        // Level 1 reads the signal itself, all of it already there.
        let dst = &mut windows[0];
        let mut made = level_step(
            wavelet,
            signal.len(),
            signal,
            0,
            &[],
            &mut next[0],
            step,
            &mut work[dst.fill..caps[0]],
            &mut out[layout.detail_range(1)],
        );
        dst.fill += made;
        for l in 2..=levels {
            let (before, after) = work.split_at_mut(starts[l - 1]);
            let (window, head) = before[starts[l - 2]..].split_at_mut(caps[l - 2]);
            let (src, dst) = windows[l - 2..].split_at_mut(1);
            let (src, dst) = (&mut src[0], &mut dst[0]);
            let len = layout.level_input_lens[l - 1];
            let n = level_step(
                wavelet,
                len,
                &window[..src.fill],
                src.base,
                head,
                &mut next[l - 1],
                usize::MAX,
                &mut after[dst.fill..caps[l - 1]],
                &mut out[layout.detail_range(l)],
            );
            dst.fill += n;
            made += n;
            // Keep what the next output reads; the head once it moves on.
            let keep = (2 * next[l - 1].min(analysis_interior(len, taps))).max(src.base);
            let drop = keep - src.base;
            if drop > 0 {
                if src.base == 0 {
                    let kept = head.len().min(src.fill);
                    head[..kept].copy_from_slice(&window[..kept]);
                }
                window.copy_within(drop..src.fill, 0);
                src.fill -= drop;
                src.base = keep;
            }
        }
        assert!(made > 0, "a streamed level stalled");
        let sink = &mut windows[levels - 1];
        let at = starts[levels - 1];
        let from = approx.start + sink.base;
        for (o, &a) in out[from..from + sink.fill]
            .iter_mut()
            .zip(&work[at..at + sink.fill])
        {
            *o = a as f32;
        }
        sink.base += sink.fill;
        sink.fill = 0;
    }
}

/// One step of an analysis level over `len` samples, of which `input`
/// holds those from `base` on (and `head` the first `taps − 2`, once
/// `base` has passed them): computes the outputs from `next` whose window
/// has arrived, at most `limit` and as many as `approx` has room for, and
/// once all of them have and the input is complete, the wrapped last
/// ones, if `approx` has room for them. Approximations go to `approx`
/// from its start, details to their place in the level's `detail` band.
/// Returns the number of outputs.
#[allow(clippy::too_many_arguments)]
fn level_step<I: Real>(
    wavelet: &Wavelet,
    len: usize,
    input: &[I],
    base: usize,
    head: &[f64],
    next: &mut usize,
    limit: usize,
    approx: &mut [f64],
    detail: &mut [f32],
) -> usize {
    let taps = wavelet.filter_len();
    let interior = analysis_interior(len, taps);
    let end = base + input.len();
    let ready = if end >= taps {
        ((end - taps) / 2 + 1).min(interior)
    } else {
        0
    };
    let k = *next;
    let n = ready.saturating_sub(k).min(limit).min(approx.len());
    if n > 0 {
        let from = 2 * k - base;
        analyze_run(
            wavelet,
            &input[from..from + 2 * (n - 1) + taps],
            &mut approx[..n],
            &mut detail[k..k + n],
        );
        *next += n;
    }
    let half = len.div_ceil(2);
    let wrapped = half - interior;
    if end < len || *next != interior || approx.len() < n + wrapped {
        return n;
    }
    let sample = |j: usize| {
        if j >= base {
            input[j - base].widen()
        } else {
            head[j]
        }
    };
    analyze_edge(
        wavelet,
        len,
        interior,
        sample,
        &mut approx[n..n + wrapped],
        &mut detail[interior..],
    );
    *next = half;
    n + wrapped
}

/// Where the coarsest streamed level reads its approximation: the
/// coefficients, or the output of the whole levels above it.
#[derive(Clone, Copy)]
enum Source<'a> {
    Coeffs(&'a [f32]),
    Whole(&'a [f64]),
}

impl Source<'_> {
    fn fetch(self, from: usize, into: &mut [f64]) {
        match self {
            Source::Coeffs(c) => {
                for (d, &s) in into.iter_mut().zip(&c[from..]) {
                    *d = f64::from(s);
                }
            }
            Source::Whole(a) => into.copy_from_slice(&a[from..from + into.len()]),
        }
    }
}

/// What the inverse's streamed levels `1..=streamed` share.
struct Inverse<'a> {
    wavelet: &'a Wavelet,
    layout: &'a CoeffLayout,
    coeffs: &'a [f32],
    /// Approximation of level `streamed`.
    source: Source<'a>,
    /// Levels `1..=streamed` are streamed, the rest run whole.
    streamed: usize,
    /// `taps − 2`: the leading outputs of a streamed level that wrap.
    edge: usize,
    /// Signal samples per step: a TILE, or about half the signal.
    step: usize,
}

/// The inverse transform of `coeffs` into `out` (the signal length, at
/// least one level), streamed through `work`.
pub(crate) fn inverse(
    wavelet: &Wavelet,
    coeffs: &[f32],
    layout: &CoeffLayout,
    work: &mut Vec<f64>,
    out: &mut [f32],
) {
    let levels = layout.levels();
    let taps = wavelet.filter_len();
    let reach = taps / 2;
    let lens = &layout.level_input_lens;
    let streamed = lens.iter().take_while(|&&n| n >= 2 * taps).count();
    let (whole, edge) = (2 * taps, taps - 2);
    let whole_len = if streamed < levels { 2 * whole } else { 0 };
    // Even, so a step never splits an output pair.
    let step = TILE.min(out.len().div_ceil(4) * 2);
    let slots_len: usize = (1..=streamed).map(|l| slot(layout, taps, step, l)).sum();
    let needed = whole_len + streamed * edge + reach + slots_len;
    if work.len() < needed {
        work.resize(needed, 0.0);
    }
    let (whole_region, rest) = work.split_at_mut(whole_len);
    let (edges, rest) = rest.split_at_mut(streamed * edge);
    let (head, slots) = rest.split_at_mut(reach);

    // The short coarse levels, whole, as the level-by-level transform runs
    // them.
    let approx = &coeffs[layout.approx_range()];
    let source = if streamed == levels {
        Source::Coeffs(approx)
    } else {
        let (mut src, mut dst) = whole_region.split_at_mut(whole);
        let mut cur = approx.len();
        for (s, &c) in src.iter_mut().zip(approx) {
            *s = f64::from(c);
        }
        for l in (streamed + 1..=levels).rev() {
            let detail = &coeffs[layout.detail_range(l)];
            if l == 1 {
                synthesize_into(wavelet, &src[..cur], detail, out);
                return;
            }
            synthesize_into(wavelet, &src[..cur], detail, &mut dst[..lens[l - 1]]);
            std::mem::swap(&mut src, &mut dst);
            cur = lens[l - 1];
        }
        Source::Whole(&src[..cur])
    };
    let inverse = Inverse {
        wavelet,
        layout,
        coeffs,
        source,
        streamed,
        edge,
        step,
    };

    // Each streamed level's wrapped leading outputs, coarsest first: they
    // read the first and last `reach` samples of its approximation, which
    // the levels above make from theirs.
    for l in (1..=streamed).rev().filter(|_| edge > 0) {
        let half = layout.detail_lens[l - 1];
        let high = half - reach;
        head.copy_from_slice(inverse.approx_window(l, 0, reach, slots, edges));
        let tail = inverse.approx_window(l, high, half, slots, edges);
        let detail = &coeffs[layout.detail_range(l)];
        let mut made = [0.0; MAX_TAPS];
        synthesize_edge(
            wavelet,
            half,
            (head, &detail[..reach]),
            (tail, &detail[high..]),
            &mut made[..edge],
        );
        edges[(l - 1) * edge..l * edge].copy_from_slice(&made[..edge]);
    }

    for start in (0..out.len()).step_by(step) {
        let end = (start + step).min(out.len());
        inverse.produce(1, start, end, &mut out[start..end], slots, edges);
    }
}

impl Inverse<'_> {
    /// Writes output samples `from..to` of streamed level `l` into `dest`:
    /// its precomputed edge, then the output pairs the interior kernel
    /// makes from the approximation window they read. `from` is even and
    /// `to` even or the level's output length, so pairs are never split.
    /// `slots` is the work of levels `l..=streamed`.
    fn produce<O: Real>(
        &self,
        l: usize,
        from: usize,
        to: usize,
        dest: &mut [O],
        slots: &mut [f64],
        edges: &[f64],
    ) {
        let edge = &edges[(l - 1) * self.edge..l * self.edge];
        let split = to.min(self.edge).max(from);
        if from < split {
            for (d, &e) in dest.iter_mut().zip(&edge[from..split]) {
                *d = O::narrow(e);
            }
        }
        if split == to {
            return;
        }
        let reach = self.wavelet.filter_len() / 2;
        let (first, end) = (split / 2, to.div_ceil(2));
        let start = first + 1 - reach;
        let approx = self.approx_window(l, start, end, slots, edges);
        let detail = &self.coeffs[self.layout.detail_range(l)][start..end];
        let (pairs, last) = dest[split - from..].as_chunks_mut::<2>();
        synthesize_run(
            self.wavelet,
            approx,
            detail,
            reach - 1,
            pairs,
            last.first_mut(),
        );
    }

    /// Approximation samples `from..to` of streamed level `l`, made in the
    /// first slot of `slots` by the level above (or read from the source).
    fn approx_window<'s>(
        &self,
        l: usize,
        from: usize,
        to: usize,
        slots: &'s mut [f64],
        edges: &[f64],
    ) -> &'s [f64] {
        let taps = self.wavelet.filter_len();
        let (mine, rest) = slots.split_at_mut(slot(self.layout, taps, self.step, l));
        if l == self.streamed {
            self.source.fetch(from, &mut mine[..to - from]);
            return &mine[..to - from];
        }
        // The level above writes whole pairs: widen the range to them.
        let half = self.layout.detail_lens[l - 1];
        let (lo, hi) = (from & !1, ((to + 1) & !1).min(half));
        self.produce(l + 1, lo, hi, &mut mine[..hi - lo], rest, edges);
        &mine[from - lo..to - lo]
    }
}

/// `f64`s of the inverse's `work` for streamed level `l`'s approximation
/// window. A step writes `step` signal samples; each level reads half the
/// range the one below it makes, plus `taps/2` and a sample at each end to
/// whole pairs, so level `l`'s window stays within `(step >> l) + taps + 4`
/// samples — and within its whole approximation.
fn slot(layout: &CoeffLayout, taps: usize, step: usize, l: usize) -> usize {
    layout.detail_lens[l - 1].min((step >> l) + taps + 4)
}
