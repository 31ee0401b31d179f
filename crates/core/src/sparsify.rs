//! TopK selection over importance scores.
//!
//! JWINS parameter selection (paper §III-B) takes the `K` coefficients with
//! the largest *absolute* accumulated score. Selection is O(d) via
//! `select_nth_unstable` rather than a full sort, which matters at model
//! scale.

/// Returns the indices of the `k` largest `|scores[i]|`, sorted ascending
/// (the order the sparse codec requires).
///
/// Ties are broken arbitrarily but deterministically. A NaN score ranks
/// below every number. `k >= len` returns all indices.
pub fn top_k_indices(scores: &[f32], k: usize) -> Vec<u32> {
    let mut indices = Vec::new();
    top_k_into(scores, k, &mut indices);
    indices
}

/// [`top_k_indices`] into a caller-owned buffer: `indices` is overwritten
/// with the selection and doubles as the `0..len` permutation the selection
/// works on, so it grows to `scores.len()` once and is worth keeping.
pub fn top_k_into(scores: &[f32], k: usize, indices: &mut Vec<u32>) {
    let n = scores.len();
    indices.clear();
    if k == 0 {
        return;
    }
    indices.extend(0..n as u32);
    if k >= n {
        return;
    }
    let rank = |i: u32| magnitude_rank(scores[i as usize]);
    indices.select_nth_unstable_by(k - 1, |&a, &b| rank(b).cmp(&rank(a)));
    indices.truncate(k);
    indices.sort_unstable();
}

/// `|x|` as a key with a total order: the magnitude order on numbers (±0
/// tie, ∞ on top) and NaN below every number, so a NaN score is picked only
/// when the budget exceeds the numbers. The bits of `|x|` order as its value
/// does, with the NaNs above ∞; adding 2²³ − 1 moves ∞ to `i32::MAX` and
/// wraps exactly the NaNs into the negatives. As cheap as the float compare
/// it replaced, which a bit test for NaN was not (≈ 1.2× the top-k time).
#[inline]
fn magnitude_rank(x: f32) -> i32 {
    ((x.to_bits() & 0x7FFF_FFFF) + 0x007F_FFFF) as i32
}

/// Gathers `values[i]` for each selected index.
///
/// # Panics
///
/// Panics if an index is out of bounds.
pub fn gather(values: &[f32], indices: &[u32]) -> Vec<f32> {
    let mut out = Vec::new();
    gather_into(values, indices, &mut out);
    out
}

/// [`gather`] over a caller-owned buffer (any content, any length).
///
/// # Panics
///
/// Panics if an index is out of bounds.
pub fn gather_into(values: &[f32], indices: &[u32], out: &mut Vec<f32>) {
    out.clear();
    out.extend(indices.iter().map(|&i| values[i as usize]));
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
