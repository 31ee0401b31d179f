//! Single-level periodized analysis and synthesis.
//!
//! With periodization, a length-`N` (even) signal maps to `N/2` approximation
//! plus `N/2` detail coefficients — critically sampled, no growth. The
//! analysis operator with rows `{dec_lo, dec_hi}` shifted by two (indices
//! taken mod `N`) is *orthonormal* for the orthogonal families in
//! [`crate::family`], so synthesis is simply its transpose. Implementing the
//! inverse as the transpose sidesteps every filter-alignment convention
//! pitfall and is verified by exhaustive roundtrip tests.
//!
//! Both interior loops run under the crate's kernel sets (`crate::simd`):
//! an AVX2 + FMA twin where the CPU has both, else the portable body, with
//! the same bits either way. On the benchmark's d = 113 418 a four-level
//! `sym2` forward transform went from ≈ 300–320 to ≈ 170–185 µs. Synthesis
//! is a counted loop over output pairs, which the compiler vectorises
//! across pairs; a twin of the iterator-chained loop before it made the
//! inverse slower (407–755 µs against 337–421 µs), and the counted loop's
//! twin took it from ≈ 400 to ≈ 90–140 µs. The edge outputs, which wrap,
//! are a handful per level and stay portable.

use crate::family::Wavelet;
use crate::simd::{self, Kernel};

/// What a kernel reads or writes: `f64` between levels, `f32` at the two
/// ends of a multilevel transform, so the model is widened as it is read
/// and the coefficients are narrowed as they are written instead of in
/// passes of their own. Widening is exact, so a kernel computes the same
/// `f64`s whichever type it reads.
pub(crate) trait Real: Copy {
    fn widen(self) -> f64;
    fn narrow(value: f64) -> Self;
}

impl Real for f64 {
    #[inline(always)]
    fn widen(self) -> f64 {
        self
    }
    #[inline(always)]
    fn narrow(value: f64) -> Self {
        value
    }
}

impl Real for f32 {
    #[inline(always)]
    fn widen(self) -> f64 {
        f64::from(self)
    }
    #[inline(always)]
    fn narrow(value: f64) -> Self {
        value as f32
    }
}

/// Runs `$kernel::<TAPS>(h, g, ..)` with the filters as arrays, so the
/// per-output loops over the taps have a constant trip count and unroll.
macro_rules! with_taps {
    ($taps:expr, $kernel:ident($h:expr, $g:expr $(, $arg:expr)* $(,)?)) => {
        match $taps {
            2 => with_taps!(@call 2, $kernel, $h, $g $(, $arg)*),
            4 => with_taps!(@call 4, $kernel, $h, $g $(, $arg)*),
            6 => with_taps!(@call 6, $kernel, $h, $g $(, $arg)*),
            8 => with_taps!(@call 8, $kernel, $h, $g $(, $arg)*),
            10 => with_taps!(@call 10, $kernel, $h, $g $(, $arg)*),
            12 => with_taps!(@call 12, $kernel, $h, $g $(, $arg)*),
            14 => with_taps!(@call 14, $kernel, $h, $g $(, $arg)*),
            16 => with_taps!(@call 16, $kernel, $h, $g $(, $arg)*),
            other => unreachable!("no built-in filter bank has {other} taps"),
        }
    };
    (@call $n:literal, $kernel:ident, $h:expr, $g:expr $(, $arg:expr)*) => {
        $kernel::<$n, _, _>(
            $h.try_into().expect("length matched"),
            $g.try_into().expect("filters of one bank are equally long")
            $(, $arg)*
        )
    };
}

/// One analysis level: `signal` (even length `N`) → `(approx, detail)` of
/// length `N/2` each.
///
/// # Panics
///
/// Panics if `signal.len()` is odd or zero (callers pad first — see
/// [`crate::multilevel`]).
pub fn analyze(wavelet: &Wavelet, signal: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let n = signal.len();
    assert!(
        n > 0 && n.is_multiple_of(2),
        "analysis needs a nonzero even length"
    );
    let mut approx = vec![0.0; n / 2];
    let mut detail = vec![0.0; n / 2];
    analyze_into(wavelet, signal, &mut approx, &mut detail);
    (approx, detail)
}

/// One synthesis level: `(approx, detail)` of equal length `N/2` → signal of
/// length `N`. Exact inverse of [`analyze`] (transpose of an orthonormal
/// operator).
///
/// # Panics
///
/// Panics if the halves differ in length or are empty.
pub fn synthesize(wavelet: &Wavelet, approx: &[f64], detail: &[f64]) -> Vec<f64> {
    assert!(!approx.is_empty(), "synthesis needs nonempty coefficients");
    let mut signal = vec![0.0; approx.len() * 2];
    synthesize_into(wavelet, approx, detail, &mut signal);
    signal
}

/// Index `j ≥ 0` of the periodic extension of a length-`n` signal, without
/// a division: `j` is below `n + taps`, so the loop runs once unless the
/// signal is shorter than the filter.
#[inline]
fn wrap(mut j: usize, n: usize) -> usize {
    while j >= n {
        j -= n;
    }
    j
}

/// One analysis level into caller-owned halves. `input` is the level's
/// signal *before* padding: an odd length is extended by repeating the last
/// sample, exactly as [`crate::multilevel`] pads, without copying it.
///
/// Output `k` reads `input[2k .. 2k + taps]`. While that window lies inside
/// `input` it is a plain subslice; only the last `≤ taps/2` outputs, whose
/// window crosses the end, index through [`wrap`] and the pad rule. Every
/// output sums its taps in ascending order either way, so the split is
/// invisible in the result.
///
/// # Panics
///
/// Panics if `input` is shorter than 2 or the halves are not
/// `⌈input.len() / 2⌉` long.
pub(crate) fn analyze_into<I: Real, D: Real>(
    wavelet: &Wavelet,
    input: &[I],
    approx: &mut [f64],
    detail: &mut [D],
) {
    let len = input.len();
    let half = len.div_ceil(2);
    assert!(len >= 2, "analysis needs at least two samples");
    assert_eq!(approx.len(), half, "approx half has the wrong length");
    assert_eq!(detail.len(), half, "detail half has the wrong length");
    let interior = analysis_interior(len, wavelet.filter_len());
    analyze_run(
        wavelet,
        input,
        &mut approx[..interior],
        &mut detail[..interior],
    );
    analyze_edge(
        wavelet,
        len,
        interior,
        |j| input[j].widen(),
        &mut approx[interior..],
        &mut detail[interior..],
    );
}

/// How many outputs of an analysis level over `len` samples read a window
/// `input[2k .. 2k + taps]` that lies inside the input; the rest wrap.
pub(crate) fn analysis_interior(len: usize, taps: usize) -> usize {
    if len >= taps {
        (len - taps) / 2 + 1
    } else {
        0
    }
}

/// Analysis outputs `0..approx.len()` of `input`, output `p` reading
/// `input[2p .. 2p + taps]`, which must lie inside `input`: the interior
/// kernel under this thread's kernel set. A slice of a level's input gives
/// the slice of its outputs, each with the bits of the whole level's.
pub(crate) fn analyze_run<I: Real, D: Real>(
    wavelet: &Wavelet,
    input: &[I],
    approx: &mut [f64],
    detail: &mut [D],
) {
    let h = wavelet.dec_lo();
    let g = wavelet.dec_hi();
    with_taps!(h.len(), analyze_interior(h, g, input, approx, detail));
}

/// Analysis outputs `first..` of a level over `len` samples, as many as
/// `approx` holds: the ones whose window wraps, reading sample `j` of the
/// level's unpadded input as `sample(j)`. They read the last `< taps`
/// samples and, wrapped, the first `taps − 2`.
pub(crate) fn analyze_edge<D: Real>(
    wavelet: &Wavelet,
    len: usize,
    first: usize,
    sample: impl Fn(usize) -> f64,
    approx: &mut [f64],
    detail: &mut [D],
) {
    let h = wavelet.dec_lo();
    let g = wavelet.dec_hi();
    let n = 2 * len.div_ceil(2);
    for (k, (a_out, d_out)) in (first..).zip(approx.iter_mut().zip(detail)) {
        let mut a = 0.0;
        let mut d = 0.0;
        for m in 0..h.len() {
            let x = sample(wrap(2 * k + m, n).min(len - 1));
            a += h[m] * x;
            d += g[m] * x;
        }
        *a_out = a;
        *d_out = D::narrow(d);
    }
}

/// One synthesis level into a caller-owned signal of length `2·half` or
/// `2·half − 1` (the inverse of an odd level drops the pad sample, so it is
/// never computed).
///
/// The transpose scatters coefficient pair `k` onto `signal[2k .. 2k +
/// taps]`; this gathers instead, so every output is written once: output
/// pair `i` collects pairs `k = i − taps/2 + 1 ..= i` in ascending `k`, the
/// order in which the scatter reaches it. The first `taps/2 − 1` output
/// pairs also receive the wrapped tail of the last pairs; they replay the
/// scatter over the few pairs at either end that touch them.
///
/// # Panics
///
/// Panics if the halves differ in length or are empty, or `out` has neither
/// of the two lengths.
pub(crate) fn synthesize_into<D: Real, O: Real>(
    wavelet: &Wavelet,
    approx: &[f64],
    detail: &[D],
    out: &mut [O],
) {
    let half = approx.len();
    let n = 2 * half;
    assert_eq!(half, detail.len(), "halves must have equal length");
    assert!(half > 0, "synthesis needs nonempty coefficients");
    assert!(
        out.len() == n || out.len() == n - 1,
        "synthesis output has the wrong length"
    );
    let taps = wavelet.filter_len();
    let reach = taps / 2;
    let edge = synthesis_edge(half, taps);
    let low = reach.min(half);
    let high = half.saturating_sub(reach).max(low);
    let written = edge.min(out.len());
    synthesize_edge(
        wavelet,
        half,
        (&approx[..low], &detail[..low]),
        (&approx[high..], &detail[high..]),
        &mut out[..written],
    );
    let first_pair = edge / 2;
    let (pairs, last) = out.as_chunks_mut::<2>();
    let pairs = pairs.get_mut(first_pair..).unwrap_or_default();
    synthesize_run(wavelet, approx, detail, first_pair, pairs, last.first_mut());
}

/// How many leading outputs of a synthesis level over `half` coefficient
/// pairs mix wrapped contributions of the last pairs into unwrapped ones of
/// the first: [`synthesize_edge`] makes them, [`synthesize_run`] the rest.
pub(crate) fn synthesis_edge(half: usize, taps: usize) -> usize {
    (taps - 2).min(2 * half)
}

/// Synthesis outputs `0..out.len()` (at most [`synthesis_edge`]) of a level
/// over `half` pairs. Only pairs within `taps / 2` of either end reach
/// them: `head` holds the approximation and detail coefficients of the
/// first `min(taps / 2, half)` pairs, `tail` those from
/// `max(half − taps / 2, that)` to the end.
pub(crate) fn synthesize_edge<D: Real, O: Real>(
    wavelet: &Wavelet,
    half: usize,
    head: (&[f64], &[D]),
    tail: (&[f64], &[D]),
    out: &mut [O],
) {
    let h = wavelet.dec_lo();
    let g = wavelet.dec_hi();
    let taps = h.len();
    let n = 2 * half;
    let low = (taps / 2).min(half);
    let high = half - tail.0.len();
    for (j, o) in out.iter_mut().enumerate() {
        let mut acc = 0.0;
        for k in (0..low).chain(high..half) {
            let (a, d) = if k < low {
                (head.0[k], head.1[k].widen())
            } else {
                (tail.0[k - high], tail.1[k - high].widen())
            };
            for m in 0..taps {
                if wrap(2 * k + m, n) == j {
                    acc += h[m] * a + g[m] * d;
                }
            }
        }
        *o = O::narrow(acc);
    }
}

/// Synthesis output pairs from `first_pair` — none of them an edge output —
/// into `pairs`, plus the even half of the pair after them into `last`
/// when the level drops its pad sample: the interior kernel under this
/// thread's kernel set. Pair `i` gathers coefficient pairs
/// `i + 1 − taps/2 ..= i` of `approx` and `detail`, so a window of them
/// that starts at pair `w` serves output pairs from `w + taps/2 − 1`
/// (passed as `first_pair` relative to `w`) with the bits of the whole
/// level's.
pub(crate) fn synthesize_run<D: Real, O: Real>(
    wavelet: &Wavelet,
    approx: &[f64],
    detail: &[D],
    first_pair: usize,
    pairs: &mut [[O; 2]],
    last: Option<&mut O>,
) {
    let h = wavelet.dec_lo();
    let g = wavelet.dec_hi();
    with_taps!(
        h.len(),
        synthesize_interior(h, g, approx, detail, first_pair, pairs, last)
    );
}

/// Analysis outputs whose window `input[2k .. 2k + TAPS]` needs no
/// wrapping, under this thread's kernel set.
fn analyze_interior<const TAPS: usize, I: Real, D: Real>(
    h: &[f64; TAPS],
    g: &[f64; TAPS],
    input: &[I],
    approx: &mut [f64],
    detail: &mut [D],
) {
    simd::run(AnalyzeInterior {
        h,
        g,
        input,
        approx,
        detail,
    });
}

/// [`analyze_interior`]'s loop, one of the crate's two kernels with a twin.
struct AnalyzeInterior<'a, const TAPS: usize, I, D> {
    h: &'a [f64; TAPS],
    g: &'a [f64; TAPS],
    input: &'a [I],
    approx: &'a mut [f64],
    detail: &'a mut [D],
}

impl<const TAPS: usize, I: Real, D: Real> Kernel for AnalyzeInterior<'_, TAPS, I, D> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        let Self {
            h,
            g,
            input,
            approx,
            detail,
        } = self;
        let windows = input.windows(TAPS).step_by(2);
        for ((window, a_out), d_out) in windows.zip(approx).zip(detail) {
            let mut a = 0.0;
            let mut d = 0.0;
            for m in 0..TAPS {
                let x = window[m].widen();
                a += h[m] * x;
                d += g[m] * x;
            }
            *a_out = a;
            *d_out = D::narrow(d);
        }
    }
}

/// Synthesis output pairs `first_pair..` — those no wrapped contribution
/// reaches — plus the even half of the pair after them when the level drops
/// its pad sample (`last`), under this thread's kernel set.
fn synthesize_interior<const TAPS: usize, D: Real, O: Real>(
    h: &[f64; TAPS],
    g: &[f64; TAPS],
    approx: &[f64],
    detail: &[D],
    first_pair: usize,
    pairs: &mut [[O; 2]],
    last: Option<&mut O>,
) {
    // Output pair `i` gathers coefficient pairs `i − TAPS/2 + 1 ..= i`.
    let skip = (first_pair + 1).saturating_sub(TAPS / 2);
    simd::run(SynthesizeInterior {
        h,
        g,
        approx: &approx[skip..],
        detail: &detail[skip..],
        pairs,
        last,
    });
}

/// [`synthesize_interior`]'s loop, one of the crate's two kernels with a
/// twin. Output pair `p` gathers `approx[p .. p + TAPS/2]` and the same
/// window of `detail`.
struct SynthesizeInterior<'a, const TAPS: usize, D, O> {
    h: &'a [f64; TAPS],
    g: &'a [f64; TAPS],
    approx: &'a [f64],
    detail: &'a [D],
    pairs: &'a mut [[O; 2]],
    last: Option<&'a mut O>,
}

impl<const TAPS: usize, D: Real, O: Real> Kernel for SynthesizeInterior<'_, TAPS, D, O> {
    type Output = ();

    /// A counted loop over output pairs that reads each window by index:
    /// the compiler vectorises it across pairs — four pairs' even sums in
    /// one register, their odd sums in another, the two interleaved on the
    /// store. Each sum still adds its terms oldest pair first, the order in
    /// which the transpose's scatter reaches it, so no bit changes. The same
    /// pairs walked as `windows().zip()` did not vectorise: a twin of that
    /// loop ran slower than the portable one.
    #[inline(always)]
    fn run(self) {
        let Self {
            h,
            g,
            approx,
            detail,
            pairs,
            last,
        } = self;
        // Pairs with a whole window; `last` takes the one after them.
        let windows = (approx.len() + 1).saturating_sub(TAPS / 2);
        let count = pairs.len().min(windows);
        for (p, pair) in pairs[..count].iter_mut().enumerate() {
            let (even, odd) = gather(h, g, approx, detail, p);
            *pair = [O::narrow(even), O::narrow(odd)];
        }
        if let Some(last) = last.filter(|_| count < windows) {
            *last = O::narrow(gather(h, g, approx, detail, count).0);
        }
    }
}

/// Synthesis output pair `p` of [`SynthesizeInterior`]: the even and odd
/// sums over coefficient pairs `p .. p + TAPS/2`, oldest first. Inlined
/// always, so that it is compiled into the twin with the loop.
#[inline(always)]
fn gather<const TAPS: usize, D: Real>(
    h: &[f64; TAPS],
    g: &[f64; TAPS],
    approx: &[f64],
    detail: &[D],
    p: usize,
) -> (f64, f64) {
    let (a, d) = (&approx[p..p + TAPS / 2], &detail[p..p + TAPS / 2]);
    let mut even = 0.0;
    let mut odd = 0.0;
    for t in 0..TAPS / 2 {
        let (a, d) = (a[t], d[t].widen());
        let m = TAPS - 2 - 2 * t;
        even += h[m] * a + g[m] * d;
        odd += h[m + 1] * a + g[m + 1] * d;
    }
    (even, odd)
}

/// The `%`-indexed kernels the sliced ones replaced, kept as the oracle:
/// the new kernels must reproduce them bit for bit.
#[cfg(test)]
pub(crate) mod reference {
    use crate::family::Wavelet;

    pub(crate) fn analyze(wavelet: &Wavelet, signal: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let n = signal.len();
        let h = wavelet.dec_lo();
        let g = wavelet.dec_hi();
        let taps = h.len();
        let half = n / 2;
        let mut approx = vec![0.0; half];
        let mut detail = vec![0.0; half];
        for k in 0..half {
            let mut a = 0.0;
            let mut d = 0.0;
            let base = 2 * k;
            for m in 0..taps {
                let x = signal[(base + m) % n];
                a += h[m] * x;
                d += g[m] * x;
            }
            approx[k] = a;
            detail[k] = d;
        }
        (approx, detail)
    }

    pub(crate) fn synthesize(wavelet: &Wavelet, approx: &[f64], detail: &[f64]) -> Vec<f64> {
        let h = wavelet.dec_lo();
        let g = wavelet.dec_hi();
        let taps = h.len();
        let n = approx.len() * 2;
        let mut signal = vec![0.0; n];
        for k in 0..approx.len() {
            let base = 2 * k;
            let a = approx[k];
            let d = detail[k];
            for m in 0..taps {
                signal[(base + m) % n] += h[m] * a + g[m] * d;
            }
        }
        signal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn assert_close(a: &[f64], b: &[f64], tol: f64, what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < tol, "{what}[{i}]: {x} vs {y}");
        }
    }

    #[test]
    fn haar_known_values() {
        let w = Wavelet::haar();
        let x = [1.0, 1.0, -1.0, -1.0];
        let (a, d) = analyze(&w, &x);
        let s = std::f64::consts::SQRT_2;
        assert_close(&a, &[s, -s], 1e-12, "approx");
        assert_close(&d, &[0.0, 0.0], 1e-12, "detail");
    }

    #[test]
    fn haar_detail_captures_oscillation() {
        let w = Wavelet::haar();
        let x = [1.0, -1.0, 1.0, -1.0];
        let (a, d) = analyze(&w, &x);
        let s = std::f64::consts::SQRT_2;
        assert_close(&a, &[0.0, 0.0], 1e-12, "approx");
        // dec_hi = [-1/√2, 1/√2] under the QMF convention used here, so the
        // alternating signal lands on -√2 in every detail slot.
        assert_close(&d, &[-s, -s], 1e-12, "detail");
    }

    #[test]
    fn constant_signal_has_zero_details_for_all_wavelets() {
        for name in Wavelet::all_names() {
            let w = Wavelet::by_name(name).unwrap();
            let x = vec![3.5; 32];
            let (a, d) = analyze(&w, &x);
            for v in &d {
                assert!(v.abs() < 1e-9, "{name}: detail {v}");
            }
            // Approx coefficients carry the scaled constant.
            for v in &a {
                assert!((v - 3.5 * std::f64::consts::SQRT_2).abs() < 1e-9, "{name}");
            }
        }
    }

    #[test]
    fn roundtrip_every_wavelet_small_even_lengths() {
        for name in Wavelet::all_names() {
            let w = Wavelet::by_name(name).unwrap();
            for n in [2usize, 4, 6, 8, 10, 16, 30, 64] {
                let x: Vec<f64> = (0..n).map(|i| ((i * 37 + 11) % 17) as f64 - 8.0).collect();
                let (a, d) = analyze(&w, &x);
                assert_eq!(a.len(), n / 2);
                let y = synthesize(&w, &a, &d);
                assert_close(&x, &y, 1e-9, &format!("{name} n={n}"));
            }
        }
    }

    /// Orthonormality ⇒ energy preservation (Parseval).
    #[test]
    fn energy_is_preserved() {
        for name in ["haar", "db2", "db4", "sym4", "coif1"] {
            let w = Wavelet::by_name(name).unwrap();
            let x: Vec<f64> = (0..64).map(|i| (i as f64 * 0.3).sin() * 2.0).collect();
            let ex: f64 = x.iter().map(|v| v * v).sum();
            let (a, d) = analyze(&w, &x);
            let ec: f64 = a.iter().chain(&d).map(|v| v * v).sum();
            assert!((ex - ec).abs() < 1e-9 * ex, "{name}: {ex} vs {ec}");
        }
    }

    #[test]
    fn smooth_signals_compact_into_approx() {
        // db4 has 4 vanishing moments; a cubic (away from the wrap) should
        // put almost all energy into the approximation band.
        let w = Wavelet::daubechies(4).unwrap();
        let x: Vec<f64> = (0..128).map(|i| ((i as f64) * 0.05).sin()).collect();
        let (a, d) = analyze(&w, &x);
        let ea: f64 = a.iter().map(|v| v * v).sum();
        let ed: f64 = d.iter().map(|v| v * v).sum();
        assert!(ed < ea * 0.01, "detail energy {ed} vs approx {ea}");
    }

    fn noise(len: usize, seed: u64) -> Vec<f64> {
        let mut s = seed | 1;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                ((s >> 11) as f64 / (1u64 << 53) as f64) * 20.0 - 10.0
            })
            .collect()
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Every family × every length 2..=67 — shorter than the filter, equal
    /// to it, odd (padded) and even: the sliced kernels are the reference
    /// kernels, bit for bit, under both kernel sets.
    #[test]
    fn analysis_is_bit_identical_to_reference() {
        simd::both_sets(analysis_matches_reference);
    }

    fn analysis_matches_reference() {
        for name in Wavelet::all_names() {
            let w = Wavelet::by_name(name).unwrap();
            for len in 2usize..=67 {
                let x = noise(len, len as u64 * 977 + name.len() as u64);
                let mut padded = x.clone();
                if len % 2 == 1 {
                    padded.push(x[len - 1]);
                }
                let (ra, rd) = reference::analyze(&w, &padded);
                let half = padded.len() / 2;
                let mut a = vec![f64::NAN; half];
                let mut d = vec![f64::NAN; half];
                analyze_into(&w, &x, &mut a, &mut d);
                assert_eq!(bits(&a), bits(&ra), "{name} len={len} approx");
                assert_eq!(bits(&d), bits(&rd), "{name} len={len} detail");
            }
        }
    }

    /// Every family × every length 2..=99: shorter than the filter, odd
    /// (the pad sample is `last`), and interiors long enough to leave every
    /// remainder of a vectorised step of up to 16 pairs. Both output types —
    /// the last level narrows to `f32` and reads `f32` details — under both
    /// kernel sets.
    #[test]
    fn synthesis_is_bit_identical_to_reference() {
        simd::both_sets(synthesis_matches_reference);
    }

    fn synthesis_matches_reference() {
        for name in Wavelet::all_names() {
            let w = Wavelet::by_name(name).unwrap();
            for len in 2usize..=99 {
                let half = len.div_ceil(2);
                let a = noise(half, len as u64 * 31 + 7);
                let d = noise(half, len as u64 * 131 + 3);
                let mut expected = reference::synthesize(&w, &a, &d);
                expected.truncate(len);
                let mut out = vec![f64::NAN; len];
                synthesize_into(&w, &a, &d, &mut out);
                assert_eq!(bits(&out), bits(&expected), "{name} len={len}");

                let d32: Vec<f32> = d.iter().map(|&v| v as f32).collect();
                let wide: Vec<f64> = d32.iter().map(|&v| f64::from(v)).collect();
                let expected: Vec<u32> = reference::synthesize(&w, &a, &wide)[..len]
                    .iter()
                    .map(|&v| (v as f32).to_bits())
                    .collect();
                let mut out = vec![f32::NAN; len];
                synthesize_into(&w, &a, &d32, &mut out);
                let out: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
                assert_eq!(out, expected, "{name} len={len} f32");
            }
        }
    }

    proptest! {
        /// The same on random lengths and values, specials included (NaN
        /// payloads and signed zeros must survive the reordered loops too),
        /// under both kernel sets.
        #[test]
        fn kernels_are_bit_identical_to_reference_on_any_input(
            x in proptest::collection::vec(any::<f64>(), 2..140),
            widx in 0usize..18,
        ) {
            let w = Wavelet::by_name(Wavelet::all_names()[widx]).unwrap();
            let mut padded = x.clone();
            if x.len() % 2 == 1 {
                padded.push(x[x.len() - 1]);
            }
            let (ra, rd) = reference::analyze(&w, &padded);
            simd::both_sets(|| {
                let mut a = vec![0.0; ra.len()];
                let mut d = vec![0.0; rd.len()];
                analyze_into(&w, &x, &mut a, &mut d);
                prop_assert_eq!(bits(&a), bits(&ra));
                prop_assert_eq!(bits(&d), bits(&rd));

                let mut expected = reference::synthesize(&w, &ra, &rd);
                expected.truncate(x.len());
                let mut out = vec![0.0; x.len()];
                synthesize_into(&w, &a, &d, &mut out);
                prop_assert_eq!(bits(&out), bits(&expected));
            });
        }
    }

    #[test]
    #[should_panic(expected = "even length")]
    fn odd_length_panics() {
        let _ = analyze(&Wavelet::haar(), &[1.0, 2.0, 3.0]);
    }

    proptest! {
        #[test]
        fn roundtrip_random_signals(
            half_n in 1usize..100,
            seed in any::<u64>(),
            widx in 0usize..18,
        ) {
            let name = Wavelet::all_names()[widx];
            let w = Wavelet::by_name(name).unwrap();
            let n = half_n * 2;
            let mut s = seed | 1;
            let x: Vec<f64> = (0..n).map(|_| {
                s ^= s << 13; s ^= s >> 7; s ^= s << 17;
                ((s >> 16) as f64 / (1u64 << 48) as f64) * 20.0 - 10.0
            }).collect();
            let (a, d) = analyze(&w, &x);
            let y = synthesize(&w, &a, &d);
            for (u, v) in x.iter().zip(&y) {
                prop_assert!((u - v).abs() < 1e-8, "{} vs {}", u, v);
            }
        }
    }
}
