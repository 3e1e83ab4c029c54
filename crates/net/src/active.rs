//! Fixed-capacity sets of small indices with ordered iteration, used by
//! the fabric's active-set cycle engine and the machine-level active-node
//! engine in `commloc-sim`.
//!
//! Every set is a plain bitmap: membership updates are O(1), and walking
//! the members always yields **ascending order** — the property the cycle
//! engine relies on, because fault-injection RNG rolls and round-robin
//! arbitration must replay in exactly the order the naive
//! all-nodes-ascending scan produced. A walk costs the bitmap size in
//! words plus the population, so visiting the active routers of a mostly
//! idle fabric costs a handful of word scans instead of a full
//! `nodes x ports x vcs` sweep. [`ActiveSet`] is one such set;
//! [`BitRows`] is a family of equal-width sets (one per router, or per
//! router output) in one allocation. Both walk their members with
//! [`SetBits`].

/// A set of indices in `0..capacity` backed by a bitmap.
#[derive(Debug, Clone)]
pub struct ActiveSet {
    words: Vec<u64>,
}

impl ActiveSet {
    /// Creates an empty set able to hold indices below `capacity`.
    pub fn new(capacity: usize) -> Self {
        Self {
            words: vec![0; capacity.div_ceil(64)],
        }
    }

    /// Adds `index` to the set.
    #[inline]
    pub fn insert(&mut self, index: usize) {
        self.words[index / 64] |= 1u64 << (index % 64);
    }

    /// Removes `index` from the set.
    #[inline]
    pub fn remove(&mut self, index: usize) {
        self.words[index / 64] &= !(1u64 << (index % 64));
    }

    /// Whether `index` is in the set.
    #[inline]
    pub fn contains(&self, index: usize) -> bool {
        self.words[index / 64] & (1u64 << (index % 64)) != 0
    }

    /// Whether the set has no members.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of members (one popcount per bitmap word).
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Removes every member.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Clears `out` and fills it with the members in ascending order.
    pub fn collect_into(&self, out: &mut Vec<u32>) {
        out.clear();
        out.extend(SetBits::new(&self.words, 0).map(|index| index as u32));
    }
}

/// The set bits of a bitmap at or after a start position, as ascending
/// bit indices (bit `i` of word `w` is index `64 * w + i`).
#[derive(Debug)]
pub(crate) struct SetBits<'a> {
    words: &'a [u64],
    /// Index of the word `bits` was taken from.
    word: usize,
    /// The not yet yielded set bits of that word.
    bits: u64,
}

impl<'a> SetBits<'a> {
    /// The set bits of `words` at index `from` or later; none when
    /// `from` lies past the bitmap.
    #[inline]
    pub(crate) fn new(words: &'a [u64], from: usize) -> Self {
        let word = from / 64;
        let bits = words
            .get(word)
            .map_or(0, |&w| w & (u64::MAX << (from % 64)));
        Self { words, word, bits }
    }
}

impl Iterator for SetBits<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            self.word += 1;
            self.bits = *self.words.get(self.word)?;
        }
        let bit = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(self.word * 64 + bit)
    }
}

/// `rows` sets of indices below a common width, stored back to back with
/// each row padded to whole 64-bit words. The width comes from the caller
/// (a router's VC count, its output count) and has no upper bound: a row
/// spans as many words as it needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BitRows {
    words: Vec<u64>,
    /// Words per row.
    row_words: usize,
}

impl BitRows {
    /// `rows` empty sets, each able to hold indices below `width`.
    pub(crate) fn new(rows: usize, width: usize) -> Self {
        let row_words = width.div_ceil(64);
        Self {
            words: vec![0; rows * row_words],
            row_words,
        }
    }

    /// Adds `index` to set `row`.
    #[inline]
    pub(crate) fn insert(&mut self, row: usize, index: usize) {
        self.words[row * self.row_words + index / 64] |= 1u64 << (index % 64);
    }

    /// Removes `index` from set `row`.
    #[inline]
    pub(crate) fn remove(&mut self, row: usize, index: usize) {
        self.words[row * self.row_words + index / 64] &= !(1u64 << (index % 64));
    }

    /// Whether set `row` has no members. One word when a row fits in
    /// 64 bits, as every torus and mesh router's does.
    #[inline]
    pub(crate) fn is_empty(&self, row: usize) -> bool {
        if self.row_words == 1 {
            return self.words[row] == 0;
        }
        self.row(row).iter().all(|&w| w == 0)
    }

    /// The smallest member of set `row` at or after `from`: one masked
    /// word when a row fits in 64 bits.
    #[inline]
    pub(crate) fn first_from(&self, row: usize, from: usize) -> Option<usize> {
        if self.row_words == 1 {
            let mask = u32::try_from(from)
                .ok()
                .and_then(|from| u64::MAX.checked_shl(from))
                .unwrap_or(0);
            let bits = self.words[row] & mask;
            return (bits != 0).then(|| bits.trailing_zeros() as usize);
        }
        SetBits::new(self.row(row), from).next()
    }

    /// Removes and returns the smallest member of set `row`.
    #[inline]
    pub(crate) fn pop_first(&mut self, row: usize) -> Option<usize> {
        let index = self.first_from(row, 0)?;
        self.remove(row, index);
        Some(index)
    }

    #[inline]
    fn row(&self, row: usize) -> &[u64] {
        &self.words[row * self.row_words..(row + 1) * self.row_words]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = ActiveSet::new(200);
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(199);
        assert!(s.contains(0) && s.contains(63) && s.contains(64) && s.contains(199));
        s.remove(63);
        assert!(!s.contains(63));
        // Re-inserting an existing member is a no-op.
        s.insert(0);
        let mut out = Vec::new();
        s.collect_into(&mut out);
        assert_eq!(out, vec![0, 64, 199]);
    }

    #[test]
    fn collection_is_ascending_and_reuses_buffer() {
        let mut s = ActiveSet::new(128);
        for i in [77usize, 3, 127, 64, 12] {
            s.insert(i);
        }
        let mut out = vec![999u32; 8]; // stale contents must be cleared
        s.collect_into(&mut out);
        assert_eq!(out, vec![3, 12, 64, 77, 127]);
    }

    #[test]
    fn empty_set_collects_nothing() {
        let s = ActiveSet::new(64);
        let mut out = vec![1u32];
        s.collect_into(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn clear_and_is_empty() {
        let mut s = ActiveSet::new(100);
        assert!(s.is_empty());
        s.insert(42);
        s.insert(99);
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
        let mut out = vec![7u32];
        s.collect_into(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn set_bits_start_inside_across_and_past_words() {
        let words = [1u64 << 5 | 1 << 63, 0, 1 << 1];
        let from = |start| SetBits::new(&words, start).collect::<Vec<_>>();
        assert_eq!(from(0), vec![5, 63, 129]);
        assert_eq!(from(6), vec![63, 129]);
        assert_eq!(from(64), vec![129]);
        assert_eq!(from(130), Vec::<usize>::new());
        assert_eq!(from(192), Vec::<usize>::new());
        assert_eq!(from(1_000), Vec::<usize>::new());
    }

    #[test]
    fn bit_rows_keep_multi_word_rows_apart() {
        // 73 bits a row: two words each, the second mostly padding.
        let mut rows = BitRows::new(3, 73);
        rows.insert(1, 72);
        rows.insert(1, 3);
        rows.insert(2, 0);
        assert!(rows.is_empty(0) && !rows.is_empty(1));
        assert_eq!(rows.first_from(1, 4), Some(72));
        assert_eq!(rows.first_from(1, 73), None);
        assert_eq!(rows.pop_first(1), Some(3));
        assert_eq!(rows.pop_first(1), Some(72));
        assert_eq!(rows.pop_first(1), None);
        assert_eq!(rows.first_from(2, 0), Some(0));
        rows.remove(2, 0);
        assert_eq!(rows, BitRows::new(3, 73));
    }

    #[test]
    fn bit_rows_of_one_word_answer_from_a_masked_word() {
        // 25 bits a row (a 2-D torus router with four VCs a port): one
        // word each, so lookups take the single-word path.
        let mut rows = BitRows::new(3, 25);
        rows.insert(1, 0);
        rows.insert(1, 24);
        rows.insert(2, 63);
        assert!(rows.is_empty(0) && !rows.is_empty(1) && !rows.is_empty(2));
        assert_eq!(rows.first_from(1, 0), Some(0));
        assert_eq!(rows.first_from(1, 1), Some(24));
        assert_eq!(rows.first_from(1, 25), None);
        assert_eq!(rows.first_from(2, 63), Some(63));
        // Starts at and past the word's end find nothing.
        assert_eq!(rows.first_from(2, 64), None);
        assert_eq!(rows.first_from(2, 1_000), None);
        assert_eq!(rows.first_from(0, 0), None);
        assert_eq!(rows.pop_first(1), Some(0));
        assert_eq!(rows.pop_first(1), Some(24));
        assert!(rows.is_empty(1));
    }
}
