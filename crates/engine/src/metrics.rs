//! Per-query and cumulative execution metrics.

/// What one query cost and what its pruning achieved.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QueryMetrics {
    /// Wall-clock nanoseconds for prune + scan + observe.
    pub wall_ns: u64,
    /// Zone-metadata entries examined.
    pub zones_probed: usize,
    /// Zones excluded by metadata.
    pub zones_skipped: usize,
    /// Rows the scan actually touched.
    pub rows_scanned: usize,
    /// The scanned rows that also paid for metadata construction (the
    /// index asked for bounds or bins there).
    pub rows_with_byproducts: usize,
    /// Rows answered from metadata alone (full-match ranges).
    pub rows_full_match: usize,
    /// Rows satisfying the predicate.
    pub rows_matched: u64,
    /// Adaptation events (build/split/merge/deactivate/revive or crack
    /// partitions) this query triggered.
    pub adapt_events: u64,
    /// Nanoseconds in the prune phase (metadata probes).
    pub prune_ns: u64,
    /// Nanoseconds in the scan phase (kernels + result merge).
    pub scan_ns: u64,
    /// Nanoseconds in the observe phase (feedback + adaptation).
    pub observe_ns: u64,
    /// Worker threads the scan phase used (1 = sequential).
    pub threads_used: usize,
    /// Conjuncts whose index was probed (0 for single-column queries or
    /// when the planner fell back to scan-and-filter).
    pub conjuncts_probed: usize,
    /// True when a conjunction query probed no index at all (the planner's
    /// scan-and-filter fallback).
    pub plan_fallback: bool,
}

impl QueryMetrics {
    /// Folds one part of a query (one range of a disjunction) into the
    /// whole: threads as a max, the fallback flag as an or, the rest
    /// summed.
    pub fn absorb(&mut self, part: &QueryMetrics) {
        self.wall_ns += part.wall_ns;
        self.zones_probed += part.zones_probed;
        self.zones_skipped += part.zones_skipped;
        self.rows_scanned += part.rows_scanned;
        self.rows_with_byproducts += part.rows_with_byproducts;
        self.rows_full_match += part.rows_full_match;
        self.rows_matched += part.rows_matched;
        self.adapt_events += part.adapt_events;
        self.prune_ns += part.prune_ns;
        self.scan_ns += part.scan_ns;
        self.observe_ns += part.observe_ns;
        self.threads_used = self.threads_used.max(part.threads_used);
        self.conjuncts_probed += part.conjuncts_probed;
        self.plan_fallback |= part.plan_fallback;
    }
}

/// Running totals over a query sequence.
#[derive(Debug, Clone, Copy, Default)]
pub struct CumulativeMetrics {
    /// Queries executed.
    pub queries: u64,
    /// Total wall nanoseconds across queries (excludes index build).
    pub wall_ns: u64,
    /// Nanoseconds spent building the initial index.
    pub build_ns: u64,
    /// Total rows scanned.
    pub rows_scanned: u64,
    /// Total scanned rows that also paid for metadata construction.
    pub rows_with_byproducts: u64,
    /// Total rows answered from metadata.
    pub rows_full_match: u64,
    /// Total metadata probes.
    pub zones_probed: u64,
    /// Total zones skipped.
    pub zones_skipped: u64,
    /// Total matching rows returned.
    pub rows_matched: u64,
    /// Total adaptation events.
    pub adapt_events: u64,
    /// Total nanoseconds pruning.
    pub prune_ns: u64,
    /// Total nanoseconds scanning.
    pub scan_ns: u64,
    /// Total nanoseconds observing.
    pub observe_ns: u64,
    /// Largest scan-phase thread count any query used.
    pub max_threads_used: usize,
    /// Queries that fell back to scan-and-filter without probing.
    pub plan_fallbacks: u64,
}

impl CumulativeMetrics {
    /// Folds one query's metrics in.
    pub fn absorb(&mut self, m: &QueryMetrics) {
        self.queries += 1;
        self.wall_ns += m.wall_ns;
        self.rows_scanned += m.rows_scanned as u64;
        self.rows_with_byproducts += m.rows_with_byproducts as u64;
        self.rows_full_match += m.rows_full_match as u64;
        self.zones_probed += m.zones_probed as u64;
        self.zones_skipped += m.zones_skipped as u64;
        self.rows_matched += m.rows_matched;
        self.adapt_events += m.adapt_events;
        self.prune_ns += m.prune_ns;
        self.scan_ns += m.scan_ns;
        self.observe_ns += m.observe_ns;
        self.max_threads_used = self.max_threads_used.max(m.threads_used);
        // narrowing: bool -> u64 is 0 or 1 by definition.
        self.plan_fallbacks += m.plan_fallback as u64;
    }

    /// Mean query latency in nanoseconds (0 when no queries ran).
    pub fn mean_latency_ns(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.wall_ns as f64 / self.queries as f64
        }
    }

    /// Share of the scanned rows that also paid for metadata construction
    /// — the paper's "metadata cost vs scan work" ratio on the scan side
    /// (0 when nothing was scanned).
    pub fn byproduct_share(&self) -> f64 {
        if self.rows_scanned == 0 {
            0.0
        } else {
            self.rows_with_byproducts as f64 / self.rows_scanned as f64
        }
    }

    /// Total wall time including the build, in nanoseconds.
    pub fn total_with_build_ns(&self) -> u64 {
        self.wall_ns + self.build_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_accumulates() {
        let mut c = CumulativeMetrics::default();
        let m = QueryMetrics {
            wall_ns: 100,
            zones_probed: 4,
            zones_skipped: 2,
            rows_scanned: 50,
            rows_with_byproducts: 20,
            rows_full_match: 10,
            rows_matched: 12,
            adapt_events: 1,
            prune_ns: 5,
            scan_ns: 80,
            observe_ns: 15,
            threads_used: 4,
            conjuncts_probed: 2,
            plan_fallback: true,
        };
        c.absorb(&m);
        c.absorb(&m);
        assert_eq!(c.queries, 2);
        assert_eq!(c.wall_ns, 200);
        assert_eq!(c.rows_scanned, 100);
        assert_eq!(c.rows_with_byproducts, 40);
        assert!((c.byproduct_share() - 0.4).abs() < 1e-12);
        assert_eq!(CumulativeMetrics::default().byproduct_share(), 0.0);
        assert_eq!(c.zones_probed, 8);
        assert_eq!(c.rows_matched, 24);
        assert_eq!(c.mean_latency_ns(), 100.0);
        assert_eq!((c.prune_ns, c.scan_ns, c.observe_ns), (10, 160, 30));
        assert_eq!(c.max_threads_used, 4);
        assert_eq!(c.plan_fallbacks, 2);
        c.absorb(&QueryMetrics::default());
        assert_eq!(c.max_threads_used, 4, "max, not last");
    }

    /// Every field is named and non-default here, so a field added to
    /// `QueryMetrics` fails to compile until it is given a value, and one
    /// left out of the fold fails `one part is the whole`.
    #[test]
    fn query_parts_fold_into_the_whole() {
        let part = QueryMetrics {
            wall_ns: 100,
            zones_probed: 4,
            zones_skipped: 2,
            rows_scanned: 50,
            rows_with_byproducts: 20,
            rows_full_match: 10,
            rows_matched: 12,
            adapt_events: 1,
            prune_ns: 5,
            scan_ns: 80,
            observe_ns: 15,
            threads_used: 4,
            conjuncts_probed: 2,
            plan_fallback: true,
        };
        let mut whole = QueryMetrics::default();
        whole.absorb(&part);
        assert_eq!(whole, part, "one part is the whole");
        whole.absorb(&QueryMetrics {
            threads_used: 1,
            plan_fallback: false,
            ..part
        });
        assert_eq!((whole.wall_ns, whole.rows_with_byproducts), (200, 40));
        assert_eq!(
            (whole.prune_ns, whole.scan_ns, whole.observe_ns),
            (10, 160, 30)
        );
        assert_eq!(whole.threads_used, 4, "max, not sum or last");
        assert!(whole.plan_fallback, "or, not last");
    }

    #[test]
    fn build_time_included_in_total() {
        let c = CumulativeMetrics {
            wall_ns: 10,
            build_ns: 5,
            ..Default::default()
        };
        assert_eq!(c.total_with_build_ns(), 15);
        assert_eq!(CumulativeMetrics::default().mean_latency_ns(), 0.0);
    }
}
