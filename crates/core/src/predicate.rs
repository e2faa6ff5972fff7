//! Range predicates — the filter shape zonemaps prune against.

use ads_storage::DataValue;

/// An inclusive range predicate `lo <= v <= hi`.
///
/// All comparison predicates used by the engine normalise to this shape:
/// `v = x` becomes `[x, x]`, `v <= x` becomes `[MIN_VALUE, x]`, and
/// `v >= x` becomes `[x, MAX_VALUE]`. Zone pruning then reduces to interval
/// arithmetic against zone `(min, max)` metadata.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RangePredicate<T: DataValue> {
    /// Inclusive lower bound.
    pub lo: T,
    /// Inclusive upper bound.
    pub hi: T,
}

impl<T: DataValue> RangePredicate<T> {
    /// `lo <= v <= hi`.
    ///
    /// # Panics
    /// Panics if `lo > hi` under the total order.
    pub fn between(lo: T, hi: T) -> Self {
        assert!(lo.le_total(&hi), "empty predicate: lo {lo:?} > hi {hi:?}");
        RangePredicate { lo, hi }
    }

    /// `v = x`.
    pub fn point(x: T) -> Self {
        RangePredicate { lo: x, hi: x }
    }

    /// `v >= x`.
    pub fn at_least(x: T) -> Self {
        RangePredicate {
            lo: x,
            hi: T::MAX_VALUE,
        }
    }

    /// The always-true predicate.
    pub fn all() -> Self {
        RangePredicate {
            lo: T::MIN_VALUE,
            hi: T::MAX_VALUE,
        }
    }

    /// True when the predicate selects exactly one value under the total
    /// order (`lo == hi` via [`DataValue::eq_total`]) — the shape bloom
    /// sketches can answer and the single-compare scan kernel serves.
    /// Note `[-0.0, 0.0]` is *not* a point: it spans two distinct values.
    #[inline]
    pub fn is_point(&self) -> bool {
        self.lo.eq_total(&self.hi)
    }

    /// True if value `v` satisfies the predicate.
    #[inline]
    pub fn matches(&self, v: T) -> bool {
        v.ge_total(&self.lo) && v.le_total(&self.hi)
    }

    /// True if a zone with value range `[min, max]` could contain a
    /// qualifying value — i.e. the intervals overlap. A pruner may skip
    /// the zone exactly when this is false.
    #[inline]
    pub fn overlaps(&self, min: T, max: T) -> bool {
        self.lo.le_total(&max) && self.hi.ge_total(&min)
    }

    /// True if *every* value in a zone with range `[min, max]` qualifies —
    /// the predicate interval contains the zone interval. Such zones need
    /// no scan for COUNT-style queries.
    #[inline]
    pub fn contains_zone(&self, min: T, max: T) -> bool {
        self.lo.le_total(&min) && self.hi.ge_total(&max)
    }
}

impl<T: DataValue> std::fmt::Display for RangePredicate<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{} , {}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let p = RangePredicate::between(3i64, 7);
        assert_eq!((p.lo, p.hi), (3, 7));
        assert_eq!(RangePredicate::point(5i64), RangePredicate::between(5, 5));
        assert_eq!(RangePredicate::at_least(9i64).hi, i64::MAX);
        let all = RangePredicate::<i64>::all();
        assert!(all.matches(i64::MIN) && all.matches(i64::MAX));
    }

    #[test]
    #[should_panic(expected = "empty predicate")]
    fn inverted_bounds_panic() {
        RangePredicate::between(7i64, 3);
    }

    #[test]
    fn matches_inclusive() {
        let p = RangePredicate::between(3i64, 7);
        assert!(p.matches(3) && p.matches(7) && p.matches(5));
        assert!(!p.matches(2) && !p.matches(8));
    }

    #[test]
    fn overlaps_interval_arithmetic() {
        let p = RangePredicate::between(10i64, 20);
        assert!(p.overlaps(0, 10)); // touch at lo
        assert!(p.overlaps(20, 30)); // touch at hi
        assert!(p.overlaps(12, 15)); // inside
        assert!(p.overlaps(0, 100)); // contains
        assert!(!p.overlaps(0, 9));
        assert!(!p.overlaps(21, 30));
    }

    #[test]
    fn contains_zone_semantics() {
        let p = RangePredicate::between(10i64, 20);
        assert!(p.contains_zone(10, 20));
        assert!(p.contains_zone(12, 18));
        assert!(!p.contains_zone(9, 20));
        assert!(!p.contains_zone(10, 21));
    }

    #[test]
    fn is_point_uses_total_order_equality() {
        assert!(RangePredicate::point(5i64).is_point());
        assert!(!RangePredicate::between(3i64, 7).is_point());
        assert!(RangePredicate::point(f64::NAN).is_point());
        assert!(RangePredicate::point(-0.0f64).is_point());
        // -0.0 and 0.0 are distinct under the total order: a two-value
        // interval, not a point.
        assert!(!RangePredicate::between(-0.0f64, 0.0).is_point());
    }

    #[test]
    fn float_predicate_with_nan_zone_max_not_skipped() {
        // A zone holding a NaN has max = NaN, which sorts above +inf;
        // overlap must still be detected for finite predicates whose lo
        // is below the zone's min.
        let p = RangePredicate::between(0.0f64, 10.0);
        assert!(p.overlaps(5.0, f64::NAN));
    }

    #[test]
    fn display() {
        assert_eq!(RangePredicate::between(1i64, 2).to_string(), "[1 , 2]");
    }
}
