//! Word-packed set sketches (plain bloom filters: each of a key's two
//! probes picks its own bit anywhere in the array, so they usually land
//! in different words) for equality-heavy zones.
//!
//! A [`BloomSketch`] summarises the *value set* of a contiguous row range
//! so an equality probe can prove "no row here equals `v`" without
//! touching a row. Min/max zone metadata cannot skip point predicates
//! that fall inside a wide `[min, max]` interval; a set sketch can.
//!
//! Soundness is one-sided by construction: a probe may report a value as
//! present when it is not (hash collision — the zone gets scanned and
//! the scan finds nothing), but can never report an inserted value as
//! absent. Keys come from [`DataValue::sketch_key`], which maps
//! total-order-equal values to equal keys, so a predicate bound equal to
//! a stored value always probes the bits that value set.

use crate::types::DataValue;
use std::sync::Arc;

/// Probes per key: two derived bit positions from one 64-bit mix.
const PROBES: usize = 2;

/// A fixed-size bloom filter over the values of one row range.
///
/// The bit array is the sketch's only field: an `Arc` slice whose length
/// is the word count, a power of two, so a probe position reduces with a
/// mask and a clone is one reference-count bump. A holder that keeps the
/// sketch by value reaches the words in one load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomSketch {
    /// Bit array, packed little-endian into 64-bit words.
    words: Arc<[u64]>,
}

impl BloomSketch {
    /// Builds a sketch over `data` with roughly `bits_per_row` filter
    /// bits per row, capped at `max_bytes` of bit array. The word count
    /// is rounded up to a power of two so probe positions reduce with a
    /// mask instead of a modulo.
    ///
    /// # Panics
    /// Panics when `bits_per_row == 0` or `max_bytes < 8`.
    pub fn build<T: DataValue>(data: &[T], bits_per_row: usize, max_bytes: usize) -> Self {
        assert!(bits_per_row > 0, "bits_per_row must be positive");
        assert!(max_bytes >= 8, "need at least one 64-bit word");
        let want_bits = data.len().saturating_mul(bits_per_row).max(64);
        let max_bits = max_bytes * 8;
        let len = (want_bits.min(max_bits).div_ceil(64)).next_power_of_two();
        let mut words = vec![0u64; len];
        let mask = (len * 64 - 1) as u64;
        for &v in data {
            for h in Self::probe_hashes(v) {
                let bit = h & mask;
                words[(bit / 64) as usize] |= 1u64 << (bit % 64);
            }
        }
        BloomSketch {
            words: words.into(),
        }
    }

    /// The probe hashes of `v`: a function of the value alone, so a
    /// caller testing one value against many sketches computes them once
    /// and asks each with [`BloomSketch::may_contain_hashed`].
    #[inline]
    pub fn probe_hashes<T: DataValue>(v: T) -> [u64; PROBES] {
        let first = splitmix64(v.sketch_key());
        [first, splitmix64(first)]
    }

    /// True when the value `hashes` came from may have been inserted;
    /// false proves it was not. Both words are read unconditionally, so
    /// a loop over many sketches issues independent loads.
    #[inline]
    pub fn may_contain_hashed(&self, hashes: &[u64; PROBES]) -> bool {
        // narrowing: the word count fits in u64 on every target.
        let mask = (self.words.len() * 64 - 1) as u64;
        hashes.iter().fold(true, |hit, &h| {
            let bit = h & mask;
            hit & (self.words[(bit / 64) as usize] >> (bit % 64) & 1 != 0)
        })
    }

    /// True when `v` may have been inserted; false proves it was not.
    #[inline]
    pub fn may_contain<T: DataValue>(&self, v: T) -> bool {
        self.may_contain_hashed(&Self::probe_hashes(v))
    }

    /// Heap bytes held by the bit array.
    pub fn metadata_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.words)
    }
}

/// The splitmix64 finaliser: a cheap, well-distributed 64-bit mix.
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_false_negative() {
        let data: Vec<i64> = (0..4096).map(|i| (i * 2654435761i64) % 100_000).collect();
        let sketch = BloomSketch::build(&data, 8, 1 << 20);
        for &v in &data {
            assert!(sketch.may_contain(v), "inserted {v} reported absent");
        }
    }

    #[test]
    fn mostly_rejects_absent_values() {
        let data: Vec<i64> = (0..1000).collect();
        let sketch = BloomSketch::build(&data, 8, 1 << 20);
        let misses = (1_000_000..1_001_000)
            .filter(|&v| !sketch.may_contain(v))
            .count();
        assert!(misses > 800, "false positive rate too high: {misses}/1000");
    }

    #[test]
    fn float_keys_respect_total_order_equality() {
        let data = [1.5f64, -0.0, f64::NAN];
        let sketch = BloomSketch::build(&data, 8, 1024);
        assert!(sketch.may_contain(1.5));
        assert!(sketch.may_contain(-0.0));
        assert!(sketch.may_contain(f64::NAN), "same-pattern NaN must hit");
    }

    #[test]
    fn size_cap_is_respected() {
        let data: Vec<i64> = (0..100_000).collect();
        let sketch = BloomSketch::build(&data, 8, 256);
        assert!(sketch.metadata_bytes() <= 256);
        // Saturated but still sound.
        for &v in &data[..1000] {
            assert!(sketch.may_contain(v));
        }
        let set: u32 = sketch.words.iter().map(|w| w.count_ones()).sum();
        assert!(
            set as f64 / (sketch.words.len() * 64) as f64 > 0.5,
            "saturated"
        );
    }

    #[test]
    fn empty_slice_rejects_everything_cheaply() {
        let sketch = BloomSketch::build(&[] as &[i64], 8, 1024);
        assert!(!sketch.may_contain(0i64));
        assert_eq!(sketch.metadata_bytes(), 8);
    }
}
