//! Index sets as bitmaps: bit `i % 64` of word `i / 64` is set for each
//! index `i` of the set.
//!
//! JWINS's TopK (`jwins::sparsify`) writes its selection as one, a bit per
//! coefficient, and [`crate::sparse::SparseVecCodec::encode_bitmap_into`]
//! encodes a frame straight from it: the set's indices, read in ascending
//! order, are the list the frame carries.

/// The indices of the set, ascending.
pub fn ones(words: &[u64]) -> Ones<'_> {
    let (&word, words) = words.split_first().unwrap_or((&0, &[]));
    Ones {
        words,
        base: 0,
        word,
    }
}

/// How many indices the set holds.
pub fn count(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

/// Makes the set exactly `0..len`: bits `0..len` set, every other bit of
/// `words` cleared.
pub fn set_prefix(words: &mut [u64], len: usize) {
    for (w, word) in words.iter_mut().enumerate() {
        *word = prefix_word(len, w);
    }
}

/// Whether the set is exactly `0..count`, where `count` is its size.
pub fn is_prefix(words: &[u64], count: usize) -> bool {
    (words.iter().enumerate()).all(|(w, &word)| word == prefix_word(count, w))
}

/// Word `w` of the set `0..len`.
fn prefix_word(len: usize, w: usize) -> u64 {
    match len.saturating_sub(w * 64) {
        below if below >= 64 => u64::MAX,
        below => (1 << below) - 1,
    }
}

/// The iterator [`ones`] returns.
#[derive(Debug, Clone)]
pub struct Ones<'a> {
    /// The words not yet loaded.
    words: &'a [u64],
    /// The index of bit 0 of `word`.
    base: u32,
    /// The current word's bits not yet returned.
    word: u64,
}

impl Iterator for Ones<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        while self.word == 0 {
            let (&word, rest) = self.words.split_first()?;
            (self.words, self.word) = (rest, word);
            self.base += 64;
        }
        let index = self.base + self.word.trailing_zeros();
        self.word &= self.word - 1;
        Some(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ones_reads_the_set_in_ascending_order() {
        let words = [0b1001, 0, 1 << 63, u64::MAX];
        let got: Vec<u32> = ones(&words).collect();
        let mut expected = vec![0, 3, 191];
        expected.extend(192..256);
        assert_eq!(got, expected);
        assert_eq!(count(&words), expected.len());
        assert_eq!(ones(&[]).next(), None);
        assert_eq!(ones(&[0, 0]).next(), None);
    }

    #[test]
    fn prefixes_are_recognised_at_every_word_edge() {
        for len in [0usize, 1, 63, 64, 65, 127, 128, 129, 200] {
            let mut words = vec![u64::MAX; len.div_ceil(64) + 1];
            set_prefix(&mut words, len);
            assert_eq!(
                ones(&words).collect::<Vec<_>>(),
                (0..len as u32).collect::<Vec<_>>()
            );
            assert!(is_prefix(&words, len), "len {len}");
            assert!(!is_prefix(&words, len + 1), "len {len} + 1");
            let last = words.len() * 64 - 1;
            words[last / 64] |= 1 << (last % 64);
            assert!(!is_prefix(&words, len + 1), "len {len} with a far bit");
        }
    }

    proptest! {
        #[test]
        fn ones_is_every_set_bit(words in proptest::collection::vec(any::<u64>(), 0..12)) {
            let expected: Vec<u32> = (0..words.len() as u32 * 64)
                .filter(|&i| words[i as usize / 64] >> (i % 64) & 1 == 1)
                .collect();
            prop_assert_eq!(ones(&words).collect::<Vec<_>>(), expected.clone());
            prop_assert_eq!(count(&words), expected.len());
            let prefix = expected.iter().zip(0u32..).all(|(&i, j)| i == j);
            prop_assert_eq!(is_prefix(&words, expected.len()), prefix);
        }
    }
}
