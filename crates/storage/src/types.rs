//! Value types storable in columns.
//!
//! The scan kernels and zonemap metadata are generic over [`DataValue`],
//! which provides a *total* order (needed so `f64` columns can carry
//! `(min, max)` zone metadata without `PartialOrd` edge cases) plus the
//! extreme values used to seed min/max folds.

use std::cmp::Ordering;
use std::fmt;

/// A primitive value that can be stored in a column and summarised by
/// zone metadata.
///
/// Implementations must provide a total order. For floats this is IEEE-754
/// `totalOrder` (via [`f64::total_cmp`]); NaNs sort after all numbers, so a
/// zone containing a NaN gets `max = NaN` and is never incorrectly skipped
/// by finite-range predicates that use `le_total`/`ge_total`.
pub trait DataValue: Copy + Send + Sync + fmt::Debug + fmt::Display + PartialEq + 'static {
    /// Smallest value of the type under [`DataValue::total_cmp`].
    const MIN_VALUE: Self;
    /// Largest value of the type under [`DataValue::total_cmp`].
    const MAX_VALUE: Self;
    /// Short type name used in error messages and reports.
    const TYPE_NAME: &'static str;

    /// A machine integer ordered like the values: the value itself for
    /// integers, the sign-magnitude transform `total_cmp` applies
    /// internally for floats.
    type Key: Copy + Ord + Send + Sync + fmt::Debug;

    /// Order-preserving map into [`Self::Key`]:
    /// `a.total_cmp(&b) == a.total_key().cmp(&b.total_key())`. The scan
    /// kernels fold MIN/MAX over keys — one integer compare-and-select
    /// per row, where folding floats directly would put the two-step
    /// `total_cmp` on the loop-carried value — and map the result back
    /// with [`Self::from_total_key`].
    fn total_key(self) -> Self::Key;

    /// Inverse of [`Self::total_key`].
    fn from_total_key(key: Self::Key) -> Self;

    /// Total-order comparison.
    fn total_cmp(&self, other: &Self) -> Ordering;

    /// Lossy conversion to `f64`, used by SUM/AVG aggregation. Exact for
    /// integers up to 2^53, which covers the workloads in this repository.
    fn to_f64(self) -> f64;

    /// Hash key for value sketches (bloom filters): values equal under
    /// [`DataValue::total_cmp`] must map to the same key, so a sketch
    /// probe keyed on a predicate bound can never miss an equal stored
    /// value. Distinct values may collide — collisions only over-admit.
    fn sketch_key(self) -> u64;

    /// `self == other` under the total order (for floats: bit equality
    /// modulo nothing — `totalOrder` distinguishes `-0.0` from `0.0` and
    /// NaN payloads from each other).
    #[inline]
    fn eq_total(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }

    /// `self <= other` under the total order.
    #[inline]
    fn le_total(&self, other: &Self) -> bool {
        self.total_cmp(other) != Ordering::Greater
    }

    /// `self >= other` under the total order.
    #[inline]
    fn ge_total(&self, other: &Self) -> bool {
        self.total_cmp(other) != Ordering::Less
    }

    /// `self < other` under the total order.
    #[inline]
    fn lt_total(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Less
    }

    /// `lo <= self <= hi` under the total order, for any `lo`, `hi`.
    #[inline]
    fn in_range_total(&self, lo: &Self, hi: &Self) -> bool {
        self.ge_total(lo) & self.le_total(hi)
    }

    /// [`Self::in_range_total`] for callers that know `lo <= hi`: a single
    /// unsigned compare of key offsets, `self - lo <= hi - lo` (wrapping;
    /// values below `lo` wrap past every in-range offset, and `hi - lo`
    /// is loop-invariant). This is the range test of the hot scan
    /// kernels, which check `lo <= hi` once per block; for `lo > hi` the
    /// result is meaningless.
    fn in_span_total(&self, lo: &Self, hi: &Self) -> bool;

    /// The smaller of two values under the total order.
    #[inline]
    fn min_total(self, other: Self) -> Self {
        if self.total_cmp(&other) == Ordering::Greater {
            other
        } else {
            self
        }
    }

    /// The larger of two values under the total order.
    #[inline]
    fn max_total(self, other: Self) -> Self {
        if self.total_cmp(&other) == Ordering::Less {
            other
        } else {
            self
        }
    }
}

macro_rules! impl_data_value_int {
    ($($t:ty => $u:ty),*) => {$(
        impl DataValue for $t {
            const MIN_VALUE: Self = <$t>::MIN;
            const MAX_VALUE: Self = <$t>::MAX;
            const TYPE_NAME: &'static str = stringify!($t);
            type Key = $t;

            #[inline]
            fn total_key(self) -> $t {
                self
            }

            #[inline]
            fn from_total_key(key: $t) -> Self {
                key
            }

            #[inline]
            fn in_span_total(&self, lo: &Self, hi: &Self) -> bool {
                (*self as $u).wrapping_sub(*lo as $u) <= (*hi as $u).wrapping_sub(*lo as $u)
            }

            #[inline]
            fn total_cmp(&self, other: &Self) -> Ordering {
                Ord::cmp(self, other)
            }

            #[inline]
            fn to_f64(self) -> f64 {
                self as f64
            }

            #[inline]
            fn sketch_key(self) -> u64 {
                // Sign-extending (or zero-extending) cast: equal integers
                // always produce equal keys, exactly as required.
                self as u64
            }

            #[inline]
            fn eq_total(&self, other: &Self) -> bool {
                *self == *other
            }

        }
    )*};
}

impl_data_value_int!(i8 => u8, i16 => u16, i32 => u32, i64 => u64, u8 => u8, u16 => u16, u32 => u32, u64 => u64);

impl DataValue for f64 {
    // f64::MIN/MAX are the finite extremes; under totalOrder the true
    // extremes are the infinities (and beyond them, NaNs). Using
    // -inf/+inf keeps `MIN_VALUE <= x <= MAX_VALUE` true for all
    // non-NaN data, which is what min/max folds need as identities.
    const MIN_VALUE: Self = f64::NEG_INFINITY;
    const MAX_VALUE: Self = f64::INFINITY;
    const TYPE_NAME: &'static str = "f64";
    type Key = i64;

    // Negative floats (sign bit set) flip their magnitude bits — the
    // sign-magnitude transform `f64::total_cmp` applies before comparing.
    // The mask never touches the sign bit, so the map is its own inverse.
    #[inline]
    fn total_key(self) -> i64 {
        let bits = self.to_bits() as i64;
        bits ^ (((bits >> 63) as u64) >> 1) as i64
    }

    #[inline]
    fn from_total_key(key: i64) -> Self {
        f64::from_bits((key ^ (((key >> 63) as u64) >> 1) as i64) as u64)
    }

    #[inline]
    fn in_span_total(&self, lo: &Self, hi: &Self) -> bool {
        self.total_key()
            .in_span_total(&lo.total_key(), &hi.total_key())
    }

    #[inline]
    fn total_cmp(&self, other: &Self) -> Ordering {
        f64::total_cmp(self, other)
    }

    #[inline]
    fn to_f64(self) -> f64 {
        self
    }

    #[inline]
    fn sketch_key(self) -> u64 {
        // Bit pattern: totalOrder-equal floats are bit-identical, so
        // equal values share a key; `-0.0` and `0.0` differ under
        // totalOrder and correctly get distinct keys.
        self.to_bits()
    }

    #[inline]
    fn eq_total(&self, other: &Self) -> bool {
        self.to_bits() == other.to_bits()
    }
}

impl DataValue for f32 {
    const MIN_VALUE: Self = f32::NEG_INFINITY;
    const MAX_VALUE: Self = f32::INFINITY;
    const TYPE_NAME: &'static str = "f32";
    type Key = i32;

    #[inline]
    fn total_key(self) -> i32 {
        let bits = self.to_bits() as i32;
        bits ^ (((bits >> 31) as u32) >> 1) as i32
    }

    #[inline]
    fn from_total_key(key: i32) -> Self {
        f32::from_bits((key ^ (((key >> 31) as u32) >> 1) as i32) as u32)
    }

    #[inline]
    fn in_span_total(&self, lo: &Self, hi: &Self) -> bool {
        self.total_key()
            .in_span_total(&lo.total_key(), &hi.total_key())
    }

    #[inline]
    fn total_cmp(&self, other: &Self) -> Ordering {
        f32::total_cmp(self, other)
    }

    #[inline]
    fn to_f64(self) -> f64 {
        self as f64
    }

    #[inline]
    fn sketch_key(self) -> u64 {
        self.to_bits() as u64
    }

    #[inline]
    fn eq_total(&self, other: &Self) -> bool {
        self.to_bits() == other.to_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_total_order_matches_ord() {
        assert_eq!(3i64.total_cmp(&5), Ordering::Less);
        assert_eq!(5i64.total_cmp(&5), Ordering::Equal);
        assert_eq!(7i64.total_cmp(&5), Ordering::Greater);
    }

    #[test]
    fn min_max_total_ints() {
        assert_eq!(3i64.min_total(5), 3);
        assert_eq!(3i64.max_total(5), 5);
        assert_eq!((-1i32).max_total(1), 1);
    }

    #[test]
    fn float_total_order_handles_nan() {
        let nan = f64::NAN;
        // NaN sorts after +inf under totalOrder.
        assert_eq!(nan.total_cmp(&f64::INFINITY), Ordering::Greater);
        assert_eq!(1.0f64.min_total(nan), 1.0);
        assert!(1.0f64.max_total(nan).is_nan());
    }

    #[test]
    fn float_extremes_bracket_all_finite() {
        for v in [-1e300, 0.0, 1e300] {
            assert!(f64::MIN_VALUE.le_total(&v));
            assert!(f64::MAX_VALUE.ge_total(&v));
        }
    }

    #[test]
    fn comparison_helpers() {
        assert!(2i64.le_total(&2));
        assert!(2i64.ge_total(&2));
        assert!(1i64.lt_total(&2));
        assert!(!2i64.lt_total(&2));
    }

    #[test]
    fn negative_zero_orders_before_positive_zero() {
        assert_eq!((-0.0f64).total_cmp(&0.0), Ordering::Less);
    }

    /// Checks the key laws on every pair/triple of `vals`.
    fn assert_key_laws<T: DataValue>(vals: &[T]) {
        for &a in vals {
            assert!(T::from_total_key(a.total_key()).eq_total(&a), "{a:?}");
            for &b in vals {
                assert_eq!(
                    a.total_cmp(&b),
                    a.total_key().cmp(&b.total_key()),
                    "{a:?} vs {b:?}"
                );
                if !a.le_total(&b) {
                    continue;
                }
                for &v in vals {
                    assert_eq!(
                        v.in_span_total(&a, &b),
                        v.in_range_total(&a, &b),
                        "v={v:?} in [{a:?}, {b:?}]"
                    );
                }
            }
        }
    }

    #[test]
    fn total_key_orders_and_inverts_and_spans_match_ranges() {
        assert_key_laws(&[i64::MIN, -3, 0, 1, 7, i64::MAX]);
        assert_key_laws(&[i8::MIN, -1, 0, 1, i8::MAX]);
        assert_key_laws(&[0u32, 1, 7, u32::MAX]);
        let floats = [
            -f64::NAN,
            f64::NEG_INFINITY,
            -1e300,
            -1.0,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            f64::INFINITY,
            f64::NAN,
        ];
        assert_key_laws(&floats);
        assert_key_laws(&floats.map(|v| v as f32));
    }

    #[test]
    fn eq_total_is_total_order_equality() {
        assert!(5i64.eq_total(&5));
        assert!(!5i64.eq_total(&6));
        assert!(f64::NAN.eq_total(&f64::NAN));
        assert!(!(-0.0f64).eq_total(&0.0), "totalOrder splits the zeros");
        assert!(
            !f64::NAN.eq_total(&-f64::NAN),
            "totalOrder splits NaN signs"
        );
        assert!(2.5f32.eq_total(&2.5));
    }

    #[test]
    fn sketch_key_agrees_with_eq_total() {
        // The soundness contract: eq_total values share a key.
        let floats = [0.0f64, -0.0, 1.5, f64::NAN, f64::INFINITY];
        for &a in &floats {
            for &b in &floats {
                if a.eq_total(&b) {
                    assert_eq!(a.sketch_key(), b.sketch_key());
                }
            }
        }
        assert_eq!((-3i8).sketch_key(), (-3i64).sketch_key());
        assert_ne!((-0.0f64).sketch_key(), 0.0f64.sketch_key());
    }

    #[test]
    fn type_names() {
        assert_eq!(<i64 as DataValue>::TYPE_NAME, "i64");
        assert_eq!(<u32 as DataValue>::TYPE_NAME, "u32");
        assert_eq!(<f64 as DataValue>::TYPE_NAME, "f64");
    }
}
