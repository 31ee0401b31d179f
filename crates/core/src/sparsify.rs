//! TopK selection over importance scores.
//!
//! JWINS parameter selection (paper §III-B) takes the `K` coefficients with
//! the largest *absolute* accumulated score. [`top_k_into`] writes the
//! selection as a bitmap — bit `i % 64` of word `i / 64` for coefficient
//! `i` ([`jwins_codec::bitmap`]) — which `Jwins` keeps as its `sent` set,
//! gathers its values from ([`gather_into`]) and encodes its frame from
//! (`SparseVecCodec::encode_bitmap_into`): no index list is made on the way
//! to the wire. It finds the cut by threshold instead of ordering indices,
//! in four steps:
//!
//! 1. a strided sample of 2 048 keys brackets the `K`-th largest key;
//! 2. one pass counts the keys under the bracket and collects the bracket's
//!    own keys (a few percent of `d`; ≈ 12 % at α = 0.4);
//! 3. `select_nth_unstable` over those gives the cut `t`;
//! 4. one pass sets the bit of every index whose key is at least `t`.
//!
//! Both passes test 32 keys at a time into a bit mask without a branch; the
//! first then visits only the mask's set bits, the second stores the mask as
//! half a bitmap word. When exactly `K` keys reach `t` the selected set is
//! the unique top `K`, so it is the set any exact method picks. The sample
//! and the bracket's keys are all the threshold path keeps in its key
//! buffer.
//!
//! The partition it replaced stays as the fallback: `select_nth_unstable`
//! over a `0..d` permutation, O(d), made for the call and dropped after it,
//! so a rare fallback leaves no buffer of `d` behind. It runs in three
//! cases: the bracket misses the cut; more keys tie at `t` than the budget
//! takes, so the tie must be broken as the partition always broke it; or
//! there are fewer than 8 192 scores. (On wavelet-like scores the threshold
//! path is already 1.5–2.4× faster at d = 8 192 and about even at 4 096,
//! where the sample is half the input.)
//!
//! [`top_k_indices`] reads the same selection back as an ascending list,
//! for callers that want one (CHOCO, the figures).

use jwins_codec::bitmap;

/// Keys the threshold path samples to bracket the cut.
const SAMPLE: usize = 2_048;

/// Keys the threshold path's passes test at once, one bit each in a mask.
const BLOCK: usize = 32;

/// Shortest score vector the threshold path takes.
const THRESHOLD_MIN_LEN: usize = 4 * SAMPLE;

/// Returns the indices of the `k` largest `|scores[i]|`, sorted ascending
/// (the order the sparse codec requires): [`top_k_into`]'s selection as a
/// list.
///
/// Ties are broken arbitrarily but deterministically. A NaN score ranks
/// below every number. `k >= len` returns all indices.
pub fn top_k_indices(scores: &[f32], k: usize) -> Vec<u32> {
    let mut selected = vec![0; scores.len().div_ceil(64)];
    top_k_into(scores, k, &mut Vec::new(), &mut selected);
    let mut indices = Vec::with_capacity(k.min(scores.len()));
    indices.extend(bitmap::ones(&selected));
    indices
}

/// Writes the indices of the `k` largest `|scores[i]|` into `selected` as
/// a bitmap ([`jwins_codec::bitmap`]): their bits are set and every other
/// bit — those past `scores.len()` too — is cleared. Ties and NaN as
/// [`top_k_indices`]; `k >= len` selects every index.
///
/// `keys` is the threshold path's working buffer (any content, any length):
/// it holds the 2 048-key sample, then the bracket's keys — a few percent of
/// `scores.len()` — so it is worth keeping from one call to the next.
///
/// # Panics
///
/// Panics unless `selected` has `scores.len().div_ceil(64)` words.
pub fn top_k_into(scores: &[f32], k: usize, keys: &mut Vec<u32>, selected: &mut [u64]) {
    let n = scores.len();
    assert_eq!(
        selected.len(),
        n.div_ceil(64),
        "a bitmap word per 64 scores"
    );
    if k == 0 || k >= n {
        bitmap::set_prefix(selected, k.min(n));
        return;
    }
    if n < THRESHOLD_MIN_LEN || !threshold_select(scores, k, keys, selected) {
        partition_select(scores, k, selected);
    }
}

/// The exact top `k` (`0 < k < scores.len()`) by threshold, into
/// `selected`. Returns `false`, leaving `selected` and `keys` holding
/// anything, when the sampled bracket misses the cut or a tie at the cut
/// makes the set ambiguous.
///
/// `keys` holds the sample, then the bracket's keys.
fn threshold_select(scores: &[f32], k: usize, keys: &mut Vec<u32>, selected: &mut [u64]) -> bool {
    let n = scores.len();
    debug_assert!(n >= THRESHOLD_MIN_LEN && 0 < k && k < n);
    // The cut is the key at ascending position `below_cut`: that many keys
    // lie under it.
    let below_cut = n - k;

    // Bracket the cut with the sample's keys four standard deviations (plus
    // a constant) of its expected sample rank to either side.
    let stride = n / SAMPLE;
    let sample = scores.iter().step_by(stride).take(SAMPLE);
    keys.clear();
    keys.extend(sample.map(|&x| magnitude_key(x)));
    let expected = below_cut * SAMPLE / n;
    let p = below_cut as f64 / n as f64;
    let margin = (4.0 * (SAMPLE as f64 * p * (1.0 - p)).sqrt()) as usize + 32;
    let hi_pos = expected + margin;
    let hi = if hi_pos < SAMPLE {
        *keys.select_nth_unstable(hi_pos).1
    } else {
        u32::MAX
    };
    // Everything before `hi_pos` is now at most `hi`.
    let lo = match expected.checked_sub(margin) {
        Some(pos) => *keys[..hi_pos.min(SAMPLE)].select_nth_unstable(pos).1,
        None => 0,
    };

    // Count the keys under the bracket and collect the bracket's keys. A
    // block's two masks are built without a branch; only the bracket's few
    // keys are visited one by one.
    keys.clear();
    let width = hi - lo;
    let mut below = 0;
    let (blocks, tail) = scores.as_chunks::<BLOCK>();
    for block in blocks {
        let (mut under, mut within) = (0u32, 0u32);
        for (j, &x) in block.iter().enumerate() {
            let key = magnitude_key(x);
            under |= u32::from(key < lo) << j;
            within |= u32::from(key.wrapping_sub(lo) <= width) << j;
        }
        below += under.count_ones() as usize;
        while within != 0 {
            keys.push(magnitude_key(block[within.trailing_zeros() as usize]));
            within &= within - 1;
        }
    }
    for &x in tail {
        let key = magnitude_key(x);
        if key.wrapping_sub(lo) <= width {
            keys.push(key);
        }
        below += usize::from(key < lo);
    }
    if below_cut < below || below_cut >= below + keys.len() {
        return false;
    }
    let (under, &mut cut, _) = keys.select_nth_unstable(below_cut - below);
    // Exactly `k` keys are `>= cut` unless one below the cut's position
    // equals it.
    if under.contains(&cut) {
        return false;
    }

    // Set the bit of every index whose key reaches the cut: a block's mask
    // is half a bitmap word. Pairs of blocks fill whole words; what is left
    // — at most one block and the tail — fills the last.
    let reach = |run: &[f32]| -> u64 {
        let mut mask = 0u32;
        for (j, &x) in run.iter().enumerate() {
            mask |= u32::from(magnitude_key(x) >= cut) << j;
        }
        u64::from(mask)
    };
    let (pairs, odd) = blocks.as_chunks::<2>();
    let (words, last) = selected.split_at_mut(pairs.len());
    for (word, [low, high]) in words.iter_mut().zip(pairs) {
        *word = reach(low) | reach(high) << 32;
    }
    if let [word] = last {
        *word = match odd {
            [block] => reach(block) | reach(tail) << 32,
            _ => reach(tail),
        };
    }
    debug_assert_eq!(bitmap::count(selected), k);
    true
}

/// The top `k` (`0 < k < scores.len()`) by partitioning a `0..len`
/// permutation, into `selected` — any input, ties broken as the partition
/// falls. The permutation is the call's own: a fallback leaves nothing of
/// its size behind.
fn partition_select(scores: &[f32], k: usize, selected: &mut [u64]) {
    let mut order: Vec<u32> = (0..scores.len() as u32).collect();
    let rank = |i: u32| magnitude_key(scores[i as usize]);
    order.select_nth_unstable_by(k - 1, |&a, &b| rank(b).cmp(&rank(a)));
    selected.fill(0);
    for &i in &order[..k] {
        selected[i as usize / 64] |= 1 << (i % 64);
    }
}

/// `|x|` as a key with a total order: the magnitude order on numbers (±0
/// tie, ∞ on top) and NaN below every number, so a NaN score is picked only
/// when the budget exceeds the numbers. The bits of `|x|` order as its value
/// does, with the NaNs above ∞; adding 2³¹ + 2²³ − 1 moves ∞ to `u32::MAX`
/// and wraps exactly the NaNs round to the bottom. As cheap as the float
/// compare it replaced, which a bit test for NaN was not (≈ 1.2× the top-k
/// time). Both paths rank by it, and the threshold path keeps keys in its
/// `u32` key buffer.
#[inline]
fn magnitude_key(x: f32) -> u32 {
    (x.to_bits() & 0x7FFF_FFFF).wrapping_add(0x807F_FFFF)
}

/// Gathers `values[i]` for each selected index.
///
/// # Panics
///
/// Panics if an index is out of bounds.
pub fn gather(values: &[f32], indices: &[u32]) -> Vec<f32> {
    indices.iter().map(|&i| values[i as usize]).collect()
}

/// [`gather`] of the indices a bitmap selects ([`top_k_into`]'s output), in
/// ascending order, over a caller-owned buffer (any content, any length).
///
/// # Panics
///
/// Panics if a selected index is out of bounds.
pub fn gather_into(values: &[f32], selected: &[u64], out: &mut Vec<f32>) {
    out.clear();
    // Exact: a buffer one element short would otherwise double.
    out.reserve_exact(bitmap::count(selected));
    out.extend(bitmap::ones(selected).map(|i| values[i as usize]));
}

/// The ceiling of `fraction · len`, clamped to `[0, len]` — the budget `K`
/// for a sharing fraction α.
pub fn budget(len: usize, fraction: f64) -> usize {
    if fraction <= 0.0 {
        return 0;
    }
    (((len as f64) * fraction).ceil() as usize).min(len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn picks_largest_magnitudes() {
        let scores = [0.1f32, -5.0, 0.0, 3.0, -0.2];
        assert_eq!(top_k_indices(&scores, 2), vec![1, 3]);
        assert_eq!(top_k_indices(&scores, 1), vec![1]);
    }

    #[test]
    fn k_zero_and_k_full() {
        let scores = [1.0f32, 2.0];
        assert!(top_k_indices(&scores, 0).is_empty());
        assert_eq!(top_k_indices(&scores, 2), vec![0, 1]);
        assert_eq!(top_k_indices(&scores, 99), vec![0, 1]);
        assert!(top_k_indices(&[], 3).is_empty());
    }

    #[test]
    fn budget_math() {
        assert_eq!(budget(100, 0.1), 10);
        assert_eq!(budget(100, 0.101), 11);
        assert_eq!(budget(100, 1.0), 100);
        assert_eq!(budget(100, 2.0), 100);
        assert_eq!(budget(100, 0.0), 0);
        assert_eq!(budget(0, 0.5), 0);
        assert_eq!(budget(3, 0.37), 2);
    }

    #[test]
    fn gather_follows_indices() {
        let values = [10.0f32, 20.0, 30.0];
        assert_eq!(gather(&values, &[0, 2]), vec![10.0, 30.0]);
        let mut out = vec![1.0; 9];
        gather_into(&values, &[0b101], &mut out);
        assert_eq!(out, [10.0, 30.0]);
        gather_into(&values, &[0], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "a bitmap word per 64 scores")]
    fn a_bitmap_of_the_wrong_length_is_refused() {
        top_k_into(&[1.0; 65], 3, &mut Vec::new(), &mut [0]);
    }

    /// The comparator this module used before NaN was ranked: a partial
    /// order that calls NaN equal to everything.
    fn top_k_partial_cmp(scores: &[f32], k: usize) -> Vec<u32> {
        let mut indices: Vec<u32> = (0..scores.len() as u32).collect();
        if k == 0 {
            return Vec::new();
        }
        if k >= scores.len() {
            return indices;
        }
        indices.select_nth_unstable_by(k - 1, |&a, &b| {
            let fa = scores[a as usize].abs();
            let fb = scores[b as usize].abs();
            fb.partial_cmp(&fa).unwrap_or(std::cmp::Ordering::Equal)
        });
        indices.truncate(k);
        indices.sort_unstable();
        indices
    }

    #[test]
    fn nan_scores_rank_below_every_number() {
        let scores = [f32::NAN, 0.5, -f32::NAN, 0.0, 3.0, f32::NAN, -0.0];
        assert_eq!(top_k_indices(&scores, 2), vec![1, 4]);
        assert_eq!(top_k_indices(&scores, 4), vec![1, 3, 4, 6]);
        let five = top_k_indices(&scores, 5);
        assert_eq!(five.len(), 5);
        assert!([1, 3, 4, 6].iter().all(|i| five.contains(i)), "{five:?}");
    }

    /// Scores with ties, ±0, ±∞ and (in some cases) NaN, from a few bits.
    fn scores_from(bits: &[u8], nan: bool) -> Vec<f32> {
        bits.iter()
            .map(|&b| match b % 16 {
                0 if nan => f32::NAN,
                1 if nan => -f32::NAN,
                2 => f32::INFINITY,
                3 => f32::NEG_INFINITY,
                4 => -0.0,
                r => (f32::from(r) - 9.0) * 0.5 * if b >= 128 { 1.0 } else { -1.0 },
            })
            .collect()
    }

    /// The partition as it selected into a list — the `0..len`
    /// permutation partitioned, truncated to `k` and sorted — over any `k`:
    /// the oracle the bitmap selection must reproduce.
    fn partition_oracle(scores: &[f32], k: usize) -> Vec<u32> {
        let mut indices: Vec<u32> = (0..scores.len() as u32).collect();
        if 0 < k && k < scores.len() {
            let rank = |i: u32| magnitude_key(scores[i as usize]);
            indices.select_nth_unstable_by(k - 1, |&a, &b| rank(b).cmp(&rank(a)));
            indices.truncate(k);
            indices.sort_unstable();
        }
        indices.truncate(k);
        indices
    }

    /// `indices` (below `len`) as a bitmap of `len` bits.
    fn as_bitmap(indices: &[u32], len: usize) -> Vec<u64> {
        let mut words = vec![0; len.div_ceil(64)];
        for &i in indices {
            words[i as usize / 64] |= 1 << (i % 64);
        }
        words
    }

    /// `n` scores from `seed`: `kind` 0 is tie-heavy (a few distinct values,
    /// ±0, ±∞ and NaN), 1 is all distinct magnitudes, 2 is distinct with
    /// those specials sprinkled in.
    fn scores_of(kind: u8, n: usize, seed: u64) -> Vec<f32> {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let specials = [
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
        ];
        (0..n)
            .map(|_| {
                let r = next();
                let value = ((r >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 8.0;
                match kind {
                    0 => scores_from(&[(r >> 8) as u8], true)[0],
                    2 if r % 61 == 0 => specials[(r >> 3) as usize % specials.len()],
                    _ => value,
                }
            })
            .collect()
    }

    /// A model-like vector's DWT at JWINS's d: what `Jwins` ranks.
    fn wavelet_scores(seed: u64) -> Vec<f32> {
        let noise = scores_of(1, 113_418, seed);
        let model: Vec<f32> = noise
            .iter()
            .enumerate()
            .map(|(i, &e)| (i as f32 * 0.013).sin() * 0.3 + e * 0.01)
            .collect();
        let dwt = jwins_wavelet::Dwt::new(jwins_wavelet::Wavelet::sym2(), 4).unwrap();
        dwt.forward(&model).data
    }

    /// Which path runs is pinned, so a threshold path that always falls
    /// back cannot pass as correct: wavelet scores at every sub-full budget
    /// of the paper's cut-off list take the threshold path, a tie at the
    /// cut and a bracket the sample cannot see take the partition.
    #[test]
    fn the_path_taken_is_the_one_intended() {
        let run = |scores: &[f32], k: usize| {
            let n = scores.len();
            let (mut keys, mut selected) = (vec![7; 3], vec![u64::MAX; n.div_ceil(64)]);
            let threshold = threshold_select(scores, k, &mut keys, &mut selected);
            let expected = partition_oracle(scores, k);
            assert_eq!(top_k_indices(scores, k), expected, "k={k}");
            if threshold {
                assert_eq!(selected, as_bitmap(&expected, n), "k={k} threshold");
                // The sample and the bracket, not a key per score.
                let kept = keys.capacity();
                assert!(kept <= n / 4, "k={k}: {kept} keys for {n} scores");
            }
            threshold
        };
        let scores = wavelet_scores(42);
        for alpha in [0.10, 0.15, 0.20, 0.25, 0.30, 0.40] {
            assert!(run(&scores, budget(scores.len(), alpha)), "alpha={alpha}");
        }
        for k in [1, scores.len() - 1] {
            assert!(run(&scores, k), "k={k}");
        }

        // Five equal magnitudes straddle the cut of k = 100.
        let n = THRESHOLD_MIN_LEN + 100;
        let mut tie: Vec<f32> = (0..n).map(|i| i as f32).collect();
        for v in &mut tie[n - 103..n - 98] {
            *v = -((n - 100) as f32);
        }
        assert!(!run(&tie, 100));

        // The sampled positions hold the largest magnitudes, so the
        // bracket sits above the cut.
        let stride = n / SAMPLE;
        let blind: Vec<f32> = (0..n)
            .map(|i| {
                if i % stride == 0 {
                    1e6 + i as f32
                } else {
                    i as f32
                }
            })
            .collect();
        assert!(!run(&blind, n / 2));
    }

    proptest! {
        /// On NaN-free input the total order makes every comparison the
        /// partial one made, so the selection is the same, ties included.
        #[test]
        fn topk_without_nan_selects_as_the_partial_order_did(
            bits in proptest::collection::vec(any::<u8>(), 0..200),
            wide in proptest::collection::vec(-1e30f32..1e30, 0..200),
            k in 0usize..220,
        ) {
            let scores = scores_from(&bits, false);
            prop_assert_eq!(top_k_indices(&scores, k), top_k_partial_cmp(&scores, k));
            prop_assert_eq!(top_k_indices(&wide, k), top_k_partial_cmp(&wide, k));
        }

        /// With NaNs: every selected number's magnitude is at least every
        /// unselected one's, and a NaN is picked only when `k` exceeds the
        /// count of numbers.
        #[test]
        fn topk_with_nan_keeps_the_largest_numbers(
            bits in proptest::collection::vec(any::<u8>(), 1..200),
            k in 0usize..220,
        ) {
            let scores = scores_from(&bits, true);
            let got = top_k_indices(&scores, k);
            prop_assert_eq!(got.len(), k.min(scores.len()));
            let numbers = scores.iter().filter(|s| !s.is_nan()).count();
            let picked_nan = got.iter().filter(|&&i| scores[i as usize].is_nan()).count();
            prop_assert_eq!(picked_nan, k.min(scores.len()).saturating_sub(numbers));
            let selected: std::collections::HashSet<u32> = got.iter().copied().collect();
            let magnitude = |i: u32| scores[i as usize].abs();
            let min_selected = got
                .iter()
                .map(|&i| magnitude(i))
                .filter(|m| !m.is_nan())
                .fold(f32::INFINITY, f32::min);
            let max_unselected = (0..scores.len() as u32)
                .filter(|i| !selected.contains(i))
                .map(magnitude)
                .filter(|m| !m.is_nan())
                .fold(0.0f32, f32::max);
            prop_assert!(min_selected >= max_unselected, "{} < {}", min_selected, max_unselected);
        }

        /// The bitmap is the partition's selection, on either side of the
        /// threshold path's cut-over and around multiples of 32 and 64
        /// (a block and a bitmap word), for tie-heavy (ties at the cut, NaN,
        /// ±0, ±∞), distinct and special scores, at budgets 0, 1, n − 1, n
        /// and between, into key and bitmap buffers a longer and a shorter
        /// call left behind, and with every bit past n cleared.
        #[test]
        fn topk_selects_as_the_partition_does(
            kind in 0u8..3,
            shape in 0u8..3,
            extra in 0usize..3_000,
            seed in any::<u64>(),
            pick in 0usize..5,
            frac in 0.0f64..1.0,
        ) {
            let n = match shape {
                0 => 1 + extra % 200,
                1 => THRESHOLD_MIN_LEN - 3 + extra,
                _ => (32 * (1 + extra % 400) + seed as usize % 3).saturating_sub(1),
            };
            let scores = scores_of(kind, n, seed);
            let k = [0, 1, n.saturating_sub(1), n, 1 + (frac * n as f64) as usize][pick];
            let expected = partition_oracle(&scores, k);
            prop_assert_eq!(top_k_indices(&scores, k), expected.clone());
            for earlier in [n + 517, 10] {
                let mut keys = Vec::new();
                let mut old = vec![u64::MAX; earlier.div_ceil(64)];
                top_k_into(&scores_of(1, earlier, seed ^ 3), earlier / 3, &mut keys, &mut old);
                let mut selected = old;
                selected.resize(n.div_ceil(64), u64::MAX);
                top_k_into(&scores, k, &mut keys, &mut selected);
                prop_assert_eq!(&selected, &as_bitmap(&expected, n));
            }
        }

        #[test]
        fn topk_invariants(scores in proptest::collection::vec(-100.0f32..100.0, 1..200), k in 0usize..220) {
            let got = top_k_indices(&scores, k);
            // Size.
            prop_assert_eq!(got.len(), k.min(scores.len()));
            // Sorted and unique.
            prop_assert!(got.windows(2).all(|w| w[0] < w[1]));
            // Every selected magnitude >= every unselected magnitude.
            if !got.is_empty() && got.len() < scores.len() {
                let selected: std::collections::HashSet<u32> = got.iter().copied().collect();
                let min_sel = got.iter().map(|&i| scores[i as usize].abs()).fold(f32::INFINITY, f32::min);
                let max_unsel = (0..scores.len() as u32)
                    .filter(|i| !selected.contains(i))
                    .map(|i| scores[i as usize].abs())
                    .fold(0.0f32, f32::max);
                prop_assert!(min_sel >= max_unsel, "{} < {}", min_sel, max_unsel);
            }
        }
    }
}
