//! TopK selection over importance scores.
//!
//! JWINS parameter selection (paper §III-B) takes the `K` coefficients with
//! the largest *absolute* accumulated score. Selection is O(d) via
//! `select_nth_unstable` rather than a full sort, which matters at model
//! scale.

/// Returns the indices of the `k` largest `|scores[i]|`, sorted ascending
/// (the order the sparse codec requires).
///
/// Ties are broken arbitrarily but deterministically. `k >= len` returns all
/// indices.
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
    indices.select_nth_unstable_by(k - 1, |&a, &b| {
        let fa = scores[a as usize].abs();
        let fb = scores[b as usize].abs();
        fb.partial_cmp(&fa).unwrap_or(std::cmp::Ordering::Equal)
    });
    indices.truncate(k);
    indices.sort_unstable();
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

    proptest! {
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
