//! Multilevel DWT over arbitrary-length `f32` vectors.
//!
//! JWINS flattens an entire model into one parameter vector and transforms it
//! with a 4-level Symlet-2 decomposition. Model sizes are arbitrary, so each
//! level pads odd inputs by repeating the final sample (the same choice
//! PyWavelets makes in periodization mode); the [`CoeffLayout`] records the
//! true lengths so the inverse can truncate the padding away and recover the
//! input bit-for-bit (up to `f32` rounding).
//!
//! Coefficients are packed `[cA_J | cD_J | cD_{J-1} | … | cD_1]` — coarsest
//! first, matching `pywt.wavedec` — so a TopK sparsifier can treat the whole
//! transform as one flat vector while the layout stays recoverable.

use crate::family::Wavelet;
use crate::stream;
use crate::transform::{analyze_into, synthesize_into};
use crate::WaveletError;

/// Describes how a flat coefficient vector maps back onto decomposition
/// levels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoeffLayout {
    /// Original signal length.
    input_len: usize,
    /// Per level, from finest (level 1) to coarsest (level J): the length of
    /// the signal *entering* that level, pre-padding.
    pub(crate) level_input_lens: Vec<usize>,
    /// Length of the final approximation band.
    approx_len: usize,
    /// Detail band lengths, finest (level 1) first.
    pub(crate) detail_lens: Vec<usize>,
}

impl CoeffLayout {
    /// Computes the layout for a signal of `input_len` decomposed `levels`
    /// times. Levels stop early once the approximation shrinks to a single
    /// coefficient, mirroring `pywt.dwt_max_level` behaviour.
    pub fn plan(input_len: usize, levels: usize) -> Self {
        let mut level_input_lens = Vec::with_capacity(levels);
        let mut detail_lens = Vec::with_capacity(levels);
        let mut cur = input_len;
        for _ in 0..levels {
            if cur < 2 {
                break;
            }
            level_input_lens.push(cur);
            let padded = cur + cur % 2;
            detail_lens.push(padded / 2);
            cur = padded / 2;
        }
        Self {
            input_len,
            approx_len: cur,
            level_input_lens,
            detail_lens,
        }
    }

    /// Original signal length.
    pub fn input_len(&self) -> usize {
        self.input_len
    }

    /// Number of levels actually performed (may be less than requested for
    /// very short signals).
    pub fn levels(&self) -> usize {
        self.detail_lens.len()
    }

    /// Total number of coefficients in the flat packing.
    pub fn coeff_len(&self) -> usize {
        self.approx_len + self.detail_lens.iter().sum::<usize>()
    }

    /// Range of the final approximation band within the flat vector.
    pub fn approx_range(&self) -> std::ops::Range<usize> {
        0..self.approx_len
    }

    /// Range of the detail band for `level` (1 = finest) within the flat
    /// vector.
    ///
    /// # Panics
    ///
    /// Panics if `level` is 0 or exceeds [`Self::levels`].
    pub fn detail_range(&self, level: usize) -> std::ops::Range<usize> {
        assert!(
            (1..=self.levels()).contains(&level),
            "level {level} out of 1..={}",
            self.levels()
        );
        // Packing order: approx, then details coarsest→finest.
        let mut start = self.approx_len;
        for l in (level + 1..=self.levels()).rev() {
            start += self.detail_lens[l - 1];
        }
        start..start + self.detail_lens[level - 1]
    }
}

/// A flat coefficient vector plus the layout needed to invert it.
#[derive(Debug, Clone, PartialEq)]
pub struct WaveletCoeffs {
    /// The packed coefficients, `[cA_J | cD_J | … | cD_1]`.
    pub data: Vec<f32>,
    layout: CoeffLayout,
}

impl WaveletCoeffs {
    /// Wraps an externally produced coefficient vector (e.g. averaged
    /// coefficients received from neighbours) in a layout.
    ///
    /// # Errors
    ///
    /// Returns [`WaveletError::LayoutMismatch`] when lengths disagree.
    pub fn from_parts(data: Vec<f32>, layout: CoeffLayout) -> Result<Self, WaveletError> {
        if data.len() != layout.coeff_len() {
            return Err(WaveletError::LayoutMismatch {
                expected: layout.coeff_len(),
                actual: data.len(),
            });
        }
        Ok(Self { data, layout })
    }

    /// The layout describing this packing.
    pub fn layout(&self) -> &CoeffLayout {
        &self.layout
    }

    /// Number of coefficients.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether there are no coefficients.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// A multilevel DWT engine: a wavelet plus a level count.
///
/// JWINS's configuration is `Dwt::new(Wavelet::sym2(), 4)`.
#[derive(Debug, Clone)]
pub struct Dwt {
    wavelet: Wavelet,
    levels: usize,
}

impl Dwt {
    /// Creates a multilevel transform.
    ///
    /// # Errors
    ///
    /// Returns [`WaveletError::ZeroLevels`] when `levels == 0`.
    pub fn new(wavelet: Wavelet, levels: usize) -> Result<Self, WaveletError> {
        if levels == 0 {
            return Err(WaveletError::ZeroLevels);
        }
        Ok(Self { wavelet, levels })
    }

    /// The wavelet in use.
    pub fn wavelet(&self) -> &Wavelet {
        &self.wavelet
    }

    /// Requested decomposition depth.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Layout for a signal of the given length under this configuration.
    pub fn layout_for(&self, input_len: usize) -> CoeffLayout {
        CoeffLayout::plan(input_len, self.levels)
    }

    /// Forward transform: signal → packed coefficients.
    pub fn forward(&self, signal: &[f32]) -> WaveletCoeffs {
        let layout = self.layout_for(signal.len());
        let mut data = Vec::new();
        self.forward_into(signal, &layout, &mut Vec::new(), &mut data);
        WaveletCoeffs { data, layout }
    }

    /// [`Self::forward`] into caller-owned buffers: `out` is overwritten
    /// with the packed coefficients and `work` is scratch (any content, any
    /// length; it grows to a window per level, each about half the one before,
    /// `2·`[`TILE`](crate::TILE)` + 3·levels·taps` `f64` at most whatever the
    /// signal length, and is worth keeping between calls). Nothing else is allocated.
    ///
    /// The levels run a tile at a time (`crate::stream`): the first
    /// reads `signal` as it is, every level writes its detail band straight
    /// to its place in `out`, and each approximation chunk goes on to the
    /// next level as it is made. The coefficients are the bits
    /// [`Self::forward_levels_into`] computes.
    ///
    /// # Panics
    ///
    /// Panics if `layout` was planned for another signal length; it must be
    /// [`Self::layout_for`]`(signal.len())`.
    pub fn forward_into(
        &self,
        signal: &[f32],
        layout: &CoeffLayout,
        work: &mut Vec<f64>,
        out: &mut Vec<f32>,
    ) {
        if self.prepare_forward(signal, layout, out) {
            stream::forward(&self.wavelet, signal, layout, work, out);
        }
    }

    /// Checks `layout` against `signal` and sizes `out`; whether there is a
    /// level to run (else `out` is the signal).
    fn prepare_forward(&self, signal: &[f32], layout: &CoeffLayout, out: &mut Vec<f32>) -> bool {
        assert_eq!(
            layout.input_len,
            signal.len(),
            "layout was planned for another signal length"
        );
        debug_assert_eq!(layout, &self.layout_for(signal.len()));
        // Approximation and detail ranges tile `out`; every slot is written.
        out.resize(layout.coeff_len(), 0.0);
        if layout.levels() == 0 {
            out.copy_from_slice(signal);
        }
        layout.levels() > 0
    }

    /// [`Self::forward_into`] a whole level at a time, as it ran before it
    /// was streamed: the approximation bands live in `work`, two regions
    /// used alternately, about ¾ of the signal length. Kept as the oracle
    /// the streamed transform is tested and timed against.
    ///
    /// # Panics
    ///
    /// As [`Self::forward_into`].
    #[doc(hidden)]
    pub fn forward_levels_into(
        &self,
        signal: &[f32],
        layout: &CoeffLayout,
        work: &mut Vec<f64>,
        out: &mut Vec<f32>,
    ) {
        if !self.prepare_forward(signal, layout, out) {
            return;
        }
        let first_half = layout.detail_lens[0];
        let second_half = layout.detail_lens.get(1).copied().unwrap_or(0);
        let (mut src, mut dst) = ping_pong(work, first_half, second_half);
        analyze_into(
            &self.wavelet,
            signal,
            &mut src[..first_half],
            &mut out[layout.detail_range(1)],
        );
        for level in 2..=layout.levels() {
            let input_len = layout.level_input_lens[level - 1];
            let half = layout.detail_lens[level - 1];
            analyze_into(
                &self.wavelet,
                &src[..input_len],
                &mut dst[..half],
                &mut out[layout.detail_range(level)],
            );
            std::mem::swap(&mut src, &mut dst);
        }
        for (o, &a) in out[layout.approx_range()].iter_mut().zip(src.iter()) {
            *o = a as f32;
        }
    }

    /// Inverse transform: packed coefficients → signal.
    ///
    /// # Errors
    ///
    /// Returns [`WaveletError::LayoutMismatch`] if the coefficient vector was
    /// built for a different configuration (different length).
    pub fn inverse(&self, coeffs: &WaveletCoeffs) -> Result<Vec<f32>, WaveletError> {
        let mut signal = Vec::new();
        self.inverse_into(&coeffs.data, &coeffs.layout, &mut Vec::new(), &mut signal)?;
        Ok(signal)
    }

    /// [`Self::inverse`] into caller-owned buffers, the mirror image of
    /// [`Self::forward_into`]: detail bands are read from `coeffs` where they
    /// lie, the last level writes `out` a tile at a time, and `work` holds
    /// only the windows of the approximations in between (about half of
    /// what the forward transform keeps). The signal is the bits
    /// [`Self::inverse_levels_into`] computes.
    ///
    /// # Errors
    ///
    /// Returns [`WaveletError::LayoutMismatch`] if `coeffs` is not
    /// `layout.coeff_len()` long.
    pub fn inverse_into(
        &self,
        coeffs: &[f32],
        layout: &CoeffLayout,
        work: &mut Vec<f64>,
        out: &mut Vec<f32>,
    ) -> Result<(), WaveletError> {
        if self.prepare_inverse(coeffs, layout, out)? {
            stream::inverse(&self.wavelet, coeffs, layout, work, out);
        }
        Ok(())
    }

    /// Checks `coeffs` against `layout` and sizes `out`; whether there is a
    /// level to run (else `out` is the coefficients).
    fn prepare_inverse(
        &self,
        coeffs: &[f32],
        layout: &CoeffLayout,
        out: &mut Vec<f32>,
    ) -> Result<bool, WaveletError> {
        if coeffs.len() != layout.coeff_len() {
            return Err(WaveletError::LayoutMismatch {
                expected: layout.coeff_len(),
                actual: coeffs.len(),
            });
        }
        // Every sample is written by the last level (or the copy below).
        out.resize(layout.input_len, 0.0);
        if layout.levels() == 0 {
            out.copy_from_slice(coeffs);
        }
        Ok(layout.levels() > 0)
    }

    /// [`Self::inverse_into`] a whole level at a time, as it ran before it
    /// was streamed; the oracle, like [`Self::forward_levels_into`].
    ///
    /// # Errors
    ///
    /// As [`Self::inverse_into`].
    #[doc(hidden)]
    pub fn inverse_levels_into(
        &self,
        coeffs: &[f32],
        layout: &CoeffLayout,
        work: &mut Vec<f64>,
        out: &mut Vec<f32>,
    ) -> Result<(), WaveletError> {
        if !self.prepare_inverse(coeffs, layout, out)? {
            return Ok(());
        }
        // Level `l` reconstructs `level_input_lens[l - 1]` samples. Even
        // levels write one region and odd levels the other, so levels 2 and
        // 3 size them; the coarsest approximation starts in the region the
        // deepest level does not write.
        let lens = &layout.level_input_lens;
        let (even, odd) = ping_pong(
            work,
            lens.get(1).copied().unwrap_or(0).max(layout.approx_len),
            lens.get(2).copied().unwrap_or(0).max(layout.approx_len),
        );
        let (mut src, mut dst) = if layout.levels().is_multiple_of(2) {
            (odd, even)
        } else {
            (even, odd)
        };
        let mut cur_len = layout.approx_len;
        for (s, &c) in src.iter_mut().zip(&coeffs[layout.approx_range()]) {
            *s = f64::from(c);
        }
        for level in (2..=layout.levels()).rev() {
            let len = lens[level - 1];
            synthesize_into(
                &self.wavelet,
                &src[..cur_len],
                &coeffs[layout.detail_range(level)],
                &mut dst[..len],
            );
            std::mem::swap(&mut src, &mut dst);
            cur_len = len;
        }
        synthesize_into(
            &self.wavelet,
            &src[..cur_len],
            &coeffs[layout.detail_range(1)],
            &mut out[..],
        );
        Ok(())
    }
}

/// Sizes `work` for two regions and hands them out; levels alternate
/// between reading one and writing the other.
fn ping_pong(work: &mut Vec<f64>, first: usize, second: usize) -> (&mut [f64], &mut [f64]) {
    if work.len() < first + second {
        work.resize(first + second, 0.0);
    }
    let (a, rest) = work.split_at_mut(first);
    (a, &mut rest[..second])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::reference;
    use crate::TILE;
    use proptest::prelude::*;

    fn ramp(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| (i as f32 * 0.37).sin() * 3.0 + i as f32 * 0.01)
            .collect()
    }

    /// `Dwt::forward` as it was before the workspace: widen, pad a copy,
    /// fresh vectors per level — over the `%`-indexed reference kernels.
    fn reference_forward(dwt: &Dwt, signal: &[f32]) -> Vec<f32> {
        let layout = dwt.layout_for(signal.len());
        let mut cur: Vec<f64> = signal.iter().map(|&v| f64::from(v)).collect();
        let mut details: Vec<Vec<f64>> = Vec::new();
        for _ in 0..layout.levels() {
            if cur.len() % 2 == 1 {
                cur.push(cur[cur.len() - 1]);
            }
            let (approx, detail) = reference::analyze(&dwt.wavelet, &cur);
            details.push(detail);
            cur = approx;
        }
        let mut data: Vec<f32> = cur.iter().map(|&v| v as f32).collect();
        for detail in details.iter().rev() {
            data.extend(detail.iter().map(|&v| v as f32));
        }
        data
    }

    /// `Dwt::inverse` as it was, likewise.
    fn reference_inverse(dwt: &Dwt, coeffs: &WaveletCoeffs) -> Vec<f32> {
        let layout = &coeffs.layout;
        let widen = |r: std::ops::Range<usize>| -> Vec<f64> {
            coeffs.data[r].iter().map(|&v| f64::from(v)).collect()
        };
        let mut cur = widen(layout.approx_range());
        for level in (1..=layout.levels()).rev() {
            let detail = widen(layout.detail_range(level));
            cur = reference::synthesize(&dwt.wavelet, &cur, &detail);
            cur.truncate(layout.level_input_lens[level - 1]);
        }
        cur.iter().map(|&v| v as f32).collect()
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// The multilevel transform is the old one bit for bit — every family,
    /// depths past what short signals allow, lengths with odd levels
    /// anywhere in the chain — and a dirty, reused workspace changes nothing.
    #[test]
    fn transform_is_bit_identical_to_reference() {
        let mut work = vec![f64::NAN; 7];
        let mut out = vec![f32::NAN; 3];
        for name in Wavelet::all_names() {
            for levels in [1usize, 2, 3, 4, 7] {
                let dwt = Dwt::new(Wavelet::by_name(name).unwrap(), levels).unwrap();
                for n in (0usize..=67).chain([101, 257, 1000]) {
                    let x = ramp(n);
                    let coeffs = dwt.forward(&x);
                    assert_eq!(
                        bits(&coeffs.data),
                        bits(&reference_forward(&dwt, &x)),
                        "{name} levels={levels} n={n} forward"
                    );
                    dwt.forward_into(&x, coeffs.layout(), &mut work, &mut out);
                    assert_eq!(bits(&out), bits(&coeffs.data), "{name} n={n} reused");
                    let expected = reference_inverse(&dwt, &coeffs);
                    assert_eq!(
                        bits(&dwt.inverse(&coeffs).unwrap()),
                        bits(&expected),
                        "{name} levels={levels} n={n} inverse"
                    );
                    dwt.inverse_into(&coeffs.data, coeffs.layout(), &mut work, &mut out)
                        .unwrap();
                    assert_eq!(bits(&out), bits(&expected), "{name} n={n} reused inverse");
                }
            }
        }
    }

    /// A whole forward transform at JWINS's d = 113 418 and at lengths
    /// with an odd level, into a dirty workspace, is the reference under
    /// both kernel sets.
    #[test]
    fn forward_is_bit_identical_under_both_kernel_sets() {
        for (name, levels) in [("sym2", 4), ("db4", 3), ("haar", 5), ("sym8", 2)] {
            let dwt = Dwt::new(Wavelet::by_name(name).unwrap(), levels).unwrap();
            for n in [113_418usize, 99_999, 1_571, 33] {
                let x = ramp(n);
                let layout = dwt.layout_for(n);
                let expected = bits(&reference_forward(&dwt, &x));
                crate::simd::both_sets(|| {
                    let mut work = vec![f64::NAN; 5];
                    let mut out = vec![f32::NAN; 9];
                    dwt.forward_into(&x, &layout, &mut work, &mut out);
                    assert_eq!(bits(&out), expected, "{name} n={n}");
                });
            }
        }
    }

    /// The same for the inverse, whose interior has its own twin.
    #[test]
    fn inverse_is_bit_identical_under_both_kernel_sets() {
        for (name, levels) in [("sym2", 4), ("db4", 3), ("haar", 5), ("sym8", 2)] {
            let dwt = Dwt::new(Wavelet::by_name(name).unwrap(), levels).unwrap();
            for n in [113_418usize, 99_999, 1_571, 33] {
                let coeffs = dwt.forward(&ramp(n));
                let expected = bits(&reference_inverse(&dwt, &coeffs));
                crate::simd::both_sets(|| {
                    let mut work = vec![f64::NAN; 5];
                    let mut out = vec![f32::NAN; 9];
                    dwt.inverse_into(&coeffs.data, coeffs.layout(), &mut work, &mut out)
                        .unwrap();
                    assert_eq!(bits(&out), expected, "{name} n={n}");
                });
            }
        }
    }

    /// Signal lengths the streamed transforms cut differently: shorter than
    /// any filter, and either side of the forward's first-level steps
    /// (`TILE` outputs, `2·TILE` samples) and the inverse's (`TILE`
    /// samples).
    fn stream_len() -> impl Strategy<Value = usize> {
        prop_oneof![
            1usize..80,
            (1usize..=6, -20i64..=20).prop_map(|(k, d)| (k as i64 * TILE as i64 + d) as usize),
            (1usize..=3, -20i64..=20).prop_map(|(k, d)| (k as i64 * 2 * TILE as i64 + d) as usize),
            80usize..10_000,
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The streamed transforms are the level-by-level oracle bit for
        /// bit — every family, odd lengths, lengths under the filter and
        /// around step boundaries, depths the signal stops short of, any
        /// values — under both kernel sets, into dirty reused buffers; and
        /// a coefficient vector of the wrong length is the same error. The
        /// workspace stays within a few filter lengths per level of the
        /// oracle's, and of two tiles whatever the length.
        #[test]
        fn streamed_transforms_are_the_level_by_level_oracle(
            n in stream_len(),
            levels in 1usize..=12,
            widx in 0usize..18,
            seed in any::<u64>(),
        ) {
            let dwt = Dwt::new(Wavelet::by_name(Wavelet::all_names()[widx]).unwrap(), levels).unwrap();
            let layout = dwt.layout_for(n);
            let mut s = seed | 1;
            let mut noise = |len: usize| -> Vec<f32> {
                (0..len).map(|_| {
                    s ^= s << 13; s ^= s >> 7; s ^= s << 17;
                    ((s >> 16) as f32 / (1u64 << 48) as f32) * 8.0 - 4.0
                }).collect()
            };
            let x = noise(n);
            let coeffs = noise(layout.coeff_len());
            let mut oracle_work = Vec::new();
            let (mut expected_fwd, mut expected_inv) = (Vec::new(), Vec::new());
            dwt.forward_levels_into(&x, &layout, &mut oracle_work, &mut expected_fwd);
            dwt.inverse_levels_into(&coeffs, &layout, &mut oracle_work, &mut expected_inv).unwrap();
            let short = &coeffs[..coeffs.len() - 1];
            let slack = (3 * layout.levels() + 6) * dwt.wavelet().filter_len();
            let most = oracle_work.len().min(2 * TILE) + slack;
            let mut result = Ok(());
            crate::simd::both_sets(|| {
                if result.is_err() {
                    return;
                }
                let mut work = vec![f64::NAN; 3];
                let mut out = vec![f32::NAN; 5];
                dwt.forward_into(&x, &layout, &mut work, &mut out);
                let forward = bits(&out) == bits(&expected_fwd);
                dwt.inverse_into(&coeffs, &layout, &mut work, &mut out).unwrap();
                let inverse = bits(&out) == bits(&expected_inv);
                let fits = work.len() <= most;
                let error = dwt.inverse_into(short, &layout, &mut work, &mut out);
                let oracle_error = dwt.inverse_levels_into(short, &layout, &mut oracle_work, &mut out);
                result = if !forward {
                    Err("forward")
                } else if !inverse {
                    Err("inverse")
                } else if error != oracle_error || error.is_ok() {
                    Err("layout mismatch")
                } else if !fits {
                    Err("workspace")
                } else {
                    Ok(())
                };
            });
            prop_assert_eq!(result, Ok(()), "n={} levels={}", n, levels);
        }
    }

    #[test]
    fn zero_levels_rejected() {
        assert_eq!(
            Dwt::new(Wavelet::sym2(), 0).unwrap_err(),
            WaveletError::ZeroLevels
        );
    }

    #[test]
    fn layout_even_power_of_two() {
        let layout = CoeffLayout::plan(64, 4);
        assert_eq!(layout.levels(), 4);
        assert_eq!(layout.coeff_len(), 64); // critically sampled
        assert_eq!(layout.approx_range(), 0..4);
        assert_eq!(layout.detail_range(4), 4..8);
        assert_eq!(layout.detail_range(1), 32..64);
    }

    #[test]
    fn layout_odd_lengths_grow_minimally() {
        let layout = CoeffLayout::plan(101, 4);
        // 101 → pad 102 → 51 → pad 52 → 26 → 13 → pad 14 → 7
        assert_eq!(layout.levels(), 4);
        assert_eq!(layout.detail_lens, vec![51, 26, 13, 7]);
        assert_eq!(layout.approx_len, 7);
        assert_eq!(layout.coeff_len(), 104);
    }

    #[test]
    fn layout_stops_early_for_tiny_signals() {
        let layout = CoeffLayout::plan(3, 10);
        // 3 → pad 4 → 2 → 1, stop: only two levels possible.
        assert_eq!(layout.levels(), 2);
        assert_eq!(layout.approx_len, 1);
    }

    #[test]
    fn roundtrip_power_of_two() {
        let dwt = Dwt::new(Wavelet::sym2(), 4).unwrap();
        let x = ramp(256);
        let coeffs = dwt.forward(&x);
        assert_eq!(coeffs.len(), 256);
        let y = dwt.inverse(&coeffs).unwrap();
        for (a, b) in x.iter().zip(&y) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn roundtrip_awkward_lengths() {
        for n in [1usize, 2, 3, 5, 7, 9, 17, 33, 101, 1023, 4097] {
            for wname in ["haar", "sym2", "db4", "sym5"] {
                let dwt = Dwt::new(Wavelet::by_name(wname).unwrap(), 4).unwrap();
                let x = ramp(n);
                let coeffs = dwt.forward(&x);
                let y = dwt.inverse(&coeffs).unwrap();
                assert_eq!(y.len(), n, "{wname} n={n}");
                for (a, b) in x.iter().zip(&y) {
                    assert!((a - b).abs() < 1e-3, "{wname} n={n}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn coarse_coefficients_summarize_neighbourhoods() {
        // An impulse in the input influences only O(filter_len · 2^level)
        // coefficients per band, while a coarse coefficient flows back into a
        // whole neighbourhood — the locality JWINS exploits. Verify that
        // zeroing everything except the coarse band still reconstructs the
        // low-frequency trend: reconstruction error must be far below the
        // signal energy for a smooth signal.
        let dwt = Dwt::new(Wavelet::sym2(), 4).unwrap();
        let x: Vec<f32> = (0..512).map(|i| (i as f32 * 0.01).sin() * 5.0).collect();
        let mut coeffs = dwt.forward(&x);
        let keep = coeffs.layout().approx_range().end;
        for v in coeffs.data.iter_mut().skip(keep) {
            *v = 0.0;
        }
        let y = dwt.inverse(&coeffs).unwrap();
        let err: f32 = x.iter().zip(&y).map(|(a, b)| (a - b) * (a - b)).sum();
        let energy: f32 = x.iter().map(|a| a * a).sum();
        assert!(
            err < energy * 0.05,
            "coarse-only reconstruction error {err} vs energy {energy}"
        );
    }

    #[test]
    fn from_parts_validates_length() {
        let dwt = Dwt::new(Wavelet::sym2(), 4).unwrap();
        let layout = dwt.layout_for(100);
        assert!(WaveletCoeffs::from_parts(vec![0.0; 3], layout.clone()).is_err());
        assert!(WaveletCoeffs::from_parts(vec![0.0; layout.coeff_len()], layout).is_ok());
    }

    #[test]
    fn detail_ranges_partition_the_vector() {
        let layout = CoeffLayout::plan(777, 4);
        let mut covered = vec![false; layout.coeff_len()];
        for i in layout.approx_range() {
            covered[i] = true;
        }
        for level in 1..=layout.levels() {
            for i in layout.detail_range(level) {
                assert!(!covered[i], "overlap at {i} (level {level})");
                covered[i] = true;
            }
        }
        assert!(covered.iter().all(|&c| c), "gaps in coverage");
    }

    #[test]
    fn energy_preserved_on_even_chain() {
        // 256 halves evenly four times: the transform is exactly orthonormal.
        let dwt = Dwt::new(Wavelet::daubechies(3).unwrap(), 4).unwrap();
        let x = ramp(256);
        let coeffs = dwt.forward(&x);
        let ex: f64 = x.iter().map(|&v| f64::from(v) * f64::from(v)).sum();
        let ec: f64 = coeffs
            .data
            .iter()
            .map(|&v| f64::from(v) * f64::from(v))
            .sum();
        assert!((ex - ec).abs() < ex * 1e-5, "{ex} vs {ec}");
    }

    proptest! {
        #[test]
        fn roundtrip_any_length_any_wavelet(
            n in 1usize..600,
            levels in 1usize..6,
            widx in 0usize..18,
            seed in any::<u64>(),
        ) {
            let name = Wavelet::all_names()[widx];
            let dwt = Dwt::new(Wavelet::by_name(name).unwrap(), levels).unwrap();
            let mut s = seed | 1;
            let x: Vec<f32> = (0..n).map(|_| {
                s ^= s << 13; s ^= s >> 7; s ^= s << 17;
                ((s >> 16) as f32 / (1u64 << 48) as f32) * 4.0 - 2.0
            }).collect();
            let coeffs = dwt.forward(&x);
            let y = dwt.inverse(&coeffs).unwrap();
            prop_assert_eq!(y.len(), n);
            for (a, b) in x.iter().zip(&y) {
                prop_assert!((a - b).abs() < 1e-3, "{} vs {}", a, b);
            }
        }

        #[test]
        fn coeff_len_is_within_padding_bound(n in 1usize..5000, levels in 1usize..7) {
            let layout = CoeffLayout::plan(n, levels);
            // Each level adds at most one padding slot at that level's scale;
            // total overhead is bounded by the number of levels.
            prop_assert!(layout.coeff_len() >= n);
            prop_assert!(layout.coeff_len() <= n + layout.levels() * 2);
        }
    }
}
