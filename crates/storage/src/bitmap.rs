//! A dense bitmap over row positions.
//!
//! Scans produce qualifying rows either as a [`Bitmap`] (one bit per row of
//! the table) or as position lists; bitmaps compose across multi-column
//! conjunctions with word-at-a-time `AND`/`OR`.

/// A fixed-length bitmap addressing rows `0..len`.
///
/// ```
/// use ads_storage::Bitmap;
/// let mut bm = Bitmap::new(100);
/// bm.or_mask_at(10, 0b111);
/// bm.set(55);
/// assert_eq!(bm.count_ones(), 4);
/// assert_eq!(bm.to_positions(), vec![10, 11, 12, 55]);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// Creates a bitmap of `len` bits, all zero.
    pub fn new(len: usize) -> Self {
        Bitmap {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Creates a bitmap of `len` bits, all one.
    pub fn ones(len: usize) -> Self {
        let mut bm = Bitmap {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        bm.mask_tail();
        bm
    }

    /// Number of addressable bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the bitmap addresses zero rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(
            i < self.len,
            "bit {i} out of bounds for bitmap of {} bits",
            self.len
        );
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Clears bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        assert!(
            i < self.len,
            "bit {i} out of bounds for bitmap of {} bits",
            self.len
        );
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Returns bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "bit {i} out of bounds for bitmap of {} bits",
            self.len
        );
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The mask covering bits `first..=last` of one word.
    #[inline]
    fn word_mask(first_bit: usize, last_bit: usize) -> u64 {
        debug_assert!(first_bit <= last_bit && last_bit < 64);
        (u64::MAX << first_bit) & (u64::MAX >> (63 - last_bit))
    }

    /// ORs a whole 64-bit `mask` into word `word_idx` — the aligned fast
    /// path the block scan kernels use: one store per 64 rows.
    ///
    /// # Panics
    /// Panics if any set bit of `mask` addresses a bit at or past `len`.
    #[inline]
    fn or_word_at(&mut self, word_idx: usize, mask: u64) {
        let top = 64 * word_idx + (64 - mask.leading_zeros() as usize);
        assert!(
            mask == 0 || top <= self.len,
            "mask bit {} out of bounds for bitmap of {} bits",
            top - 1,
            self.len
        );
        if mask != 0 {
            self.words[word_idx] |= mask;
        }
    }

    /// ORs a 64-bit `mask` into the bitmap starting at bit `bit`: mask bit
    /// `i` lands on bitmap bit `bit + i`. Word-aligned calls take the
    /// single-store `or_word_at` path; unaligned calls split the
    /// mask across two adjacent words.
    ///
    /// # Panics
    /// Panics if any set bit of `mask` addresses a bit at or past `len`.
    #[inline]
    pub fn or_mask_at(&mut self, bit: usize, mask: u64) {
        let (word_idx, shift) = (bit / 64, bit % 64);
        if shift == 0 {
            self.or_word_at(word_idx, mask);
        } else {
            self.or_word_at(word_idx, mask << shift);
            self.or_word_at(word_idx + 1, mask >> (64 - shift));
        }
    }

    /// In-place word-wise intersection with `other`.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn intersect_with(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch in AND");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= *b;
        }
    }

    /// Reads the 64-bit window starting at bit `bit`: result bit `i` is
    /// bitmap bit `bit + i`, with bits at or past `len` reading as zero.
    /// The unaligned companion of [`Bitmap::or_mask_at`], used by the
    /// delete-vector masking path to cover one 64-row scan block in two
    /// word reads.
    #[inline]
    pub fn window_at(&self, bit: usize) -> u64 {
        if bit >= self.len {
            return 0;
        }
        let (word_idx, shift) = (bit / 64, bit % 64);
        let lo = self.words[word_idx] >> shift;
        let hi = if shift == 0 {
            0
        } else {
            self.words.get(word_idx + 1).copied().unwrap_or(0) << (64 - shift)
        };
        let mut window = lo | hi;
        // Bits past len read as zero even when the backing word has slack.
        let remaining = self.len - bit;
        if remaining < 64 {
            window &= u64::MAX >> (64 - remaining);
        }
        window
    }

    /// Number of set bits in `start..end`, computed word-at-a-time.
    ///
    /// # Panics
    /// Panics if `end > len` or `start > end`.
    pub fn count_ones_in_range(&self, start: usize, end: usize) -> usize {
        assert!(
            start <= end && end <= self.len,
            "range {start}..{end} out of bounds"
        );
        if start == end {
            return 0;
        }
        let (first_word, first_bit) = (start / 64, start % 64);
        let (last_word, last_bit) = ((end - 1) / 64, (end - 1) % 64);
        if first_word == last_word {
            return (self.words[first_word] & Self::word_mask(first_bit, last_bit)).count_ones()
                as usize;
        }
        let mut total =
            (self.words[first_word] & Self::word_mask(first_bit, 63)).count_ones() as usize;
        for w in &self.words[first_word + 1..last_word] {
            total += w.count_ones() as usize;
        }
        total + (self.words[last_word] & Self::word_mask(0, last_bit)).count_ones() as usize
    }

    /// Grows the bitmap to `new_len` bits; new bits are zero.
    ///
    /// # Panics
    /// Panics if `new_len < len` (bitmaps never shrink).
    pub fn grow(&mut self, new_len: usize) {
        assert!(new_len >= self.len, "bitmap cannot shrink");
        self.len = new_len;
        self.words.resize(new_len.div_ceil(64), 0);
    }

    /// Iterator over the non-zero words as `(word_idx, word)`, in
    /// increasing word order. The word-wise consumption primitive: callers
    /// decode set bits with a `trailing_zeros` loop and skip zero words
    /// (the common case after selective pruning) at 64 rows per test.
    pub fn iter_set_words(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.words
            .iter()
            .enumerate()
            .filter(|&(_, &w)| w != 0)
            .map(|(i, &w)| (i, w))
    }

    /// Collects the set-bit positions into a vector.
    ///
    /// # Panics
    /// Panics if the bitmap addresses rows past the `u32` position ceiling
    /// (see `scan::MAX_ADDRESSABLE_ROWS`).
    pub fn to_positions(&self) -> Vec<u32> {
        assert!(
            self.len <= u32::MAX as usize + 1,
            "bitmap of {} bits exceeds the u32 position ceiling",
            self.len
        );
        let mut v = Vec::with_capacity(self.count_ones());
        for (w, word) in self.iter_set_words() {
            let base = (w * 64) as u32;
            let mut m = word;
            while m != 0 {
                v.push(base + m.trailing_zeros());
                m &= m - 1; // clear lowest set bit
            }
        }
        v
    }

    /// Zeroes any bits past `len` in the final word so popcounts stay exact.
    fn mask_tail(&mut self) {
        let tail_bits = self.len % 64;
        if tail_bits != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= u64::MAX >> (64 - tail_bits);
            }
        }
    }
}

impl std::fmt::Debug for Bitmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bitmap(len={}, ones={})", self.len, self.count_ones())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A bitmap of `len` bits with `start..end` set.
    fn ranged(len: usize, start: usize, end: usize) -> Bitmap {
        let mut bm = Bitmap::new(len);
        (start..end).for_each(|i| bm.set(i));
        bm
    }

    #[test]
    fn new_is_all_zero() {
        let bm = Bitmap::new(100);
        assert_eq!(bm.len(), 100);
        assert_eq!(bm.count_ones(), 0);
        assert!(!bm.get(0));
        assert!(!bm.get(99));
    }

    #[test]
    fn ones_is_all_one_with_exact_count() {
        let bm = Bitmap::ones(100);
        assert_eq!(bm.count_ones(), 100);
        assert!(bm.get(99));
    }

    #[test]
    fn set_get_clear() {
        let mut bm = Bitmap::new(130);
        bm.set(0);
        bm.set(64);
        bm.set(129);
        assert!(bm.get(0) && bm.get(64) && bm.get(129));
        assert_eq!(bm.count_ones(), 3);
        bm.clear(64);
        assert!(!bm.get(64));
        assert_eq!(bm.count_ones(), 2);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        Bitmap::new(10).get(10);
    }

    #[test]
    fn intersect() {
        let mut and = ranged(70, 0, 40);
        and.intersect_with(&ranged(70, 30, 70));
        assert_eq!(and.count_ones(), 10);
    }

    #[test]
    fn ones_masks_tail_bits() {
        assert_eq!(Bitmap::ones(65).window_at(64), 1);
    }

    #[test]
    fn grow_keeps_existing_bits() {
        let mut bm = Bitmap::new(10);
        bm.set(9);
        bm.grow(200);
        assert_eq!(bm.len(), 200);
        assert!(bm.get(9));
        assert!(!bm.get(150));
        assert_eq!(bm.count_ones(), 1);
    }

    #[test]
    fn or_word_at_aligned() {
        let mut bm = Bitmap::new(200);
        bm.or_word_at(1, 0b1011);
        assert_eq!(bm.to_positions(), vec![64, 65, 67]);
        bm.or_word_at(0, 0); // no-op, in bounds by construction
        assert_eq!(bm.count_ones(), 3);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn or_word_at_rejects_mask_past_len() {
        let mut bm = Bitmap::new(70);
        bm.or_word_at(1, 1 << 10); // bit 74
    }

    #[test]
    fn or_mask_at_unaligned_splits_words() {
        let mut bm = Bitmap::new(200);
        bm.or_mask_at(60, 0b1_0011);
        assert_eq!(bm.to_positions(), vec![60, 61, 64]);
        // Equivalent to per-bit sets.
        let mut per_bit = Bitmap::new(200);
        for p in [60usize, 61, 64] {
            per_bit.set(p);
        }
        assert_eq!(bm, per_bit);
    }

    #[test]
    fn or_mask_at_matches_per_bit_everywhere() {
        for start in [0usize, 1, 63, 64, 65, 100] {
            let mask = 0x8000_0000_0000_0001u64; // bits 0 and 63
            let mut word_wise = Bitmap::new(256);
            word_wise.or_mask_at(start, mask);
            let mut per_bit = Bitmap::new(256);
            per_bit.set(start);
            per_bit.set(start + 63);
            assert_eq!(word_wise, per_bit, "start={start}");
        }
    }

    #[test]
    fn intersect_matches_per_bit_reference() {
        let mut a = Bitmap::new(150);
        let mut b = Bitmap::new(150);
        for i in (0..150).step_by(3) {
            a.set(i);
        }
        for i in (0..150).step_by(5) {
            b.set(i);
        }
        let mut inter = a.clone();
        inter.intersect_with(&b);
        for i in 0..150 {
            assert_eq!(inter.get(i), a.get(i) && b.get(i), "intersect bit {i}");
        }
    }

    #[test]
    fn iter_set_words_skips_zero_words() {
        let mut bm = Bitmap::new(300);
        bm.set(2);
        bm.set(130);
        let words: Vec<(usize, u64)> = bm.iter_set_words().collect();
        assert_eq!(words, vec![(0, 1 << 2), (2, 1 << 2)]);
    }

    #[test]
    fn window_at_matches_per_bit_reference() {
        let mut bm = Bitmap::new(150);
        for i in (0..150).step_by(7) {
            bm.set(i);
        }
        for start in [0usize, 1, 63, 64, 65, 100, 140, 149, 150, 200] {
            let window = bm.window_at(start);
            for i in 0..64 {
                let want = start + i < 150 && bm.get(start + i);
                assert_eq!((window >> i) & 1 == 1, want, "start={start} bit={i}");
            }
        }
    }

    #[test]
    fn window_at_zero_pads_past_len() {
        let bm = Bitmap::ones(70);
        assert_eq!(bm.window_at(64), u64::MAX >> 58); // 6 live bits
        assert_eq!(bm.window_at(70), 0);
        assert_eq!(bm.window_at(1000), 0);
    }

    #[test]
    fn count_ones_in_range_matches_reference() {
        let mut bm = Bitmap::new(300);
        for i in (0..300).step_by(3) {
            bm.set(i);
        }
        for (start, end) in [(0, 0), (0, 300), (5, 70), (63, 65), (64, 128), (297, 300)] {
            let want = (start..end).filter(|&i| bm.get(i)).count();
            assert_eq!(bm.count_ones_in_range(start, end), want, "{start}..{end}");
        }
    }
}
