//! Sessions over dictionary-encoded string columns.
//!
//! String predicates (range, equality, prefix) are translated to inclusive
//! code ranges by the order-preserving dictionary, then answered by the
//! same skipping machinery as any integer column. Appends that introduce
//! unseen strings remap the code space; the session rebuilds its index and
//! reports the cost.

use crate::executor::{execute, AggKind};
use crate::metrics::{CumulativeMetrics, QueryMetrics};
use crate::strategy::Strategy;
use ads_core::{RangePredicate, SkippingIndex};
use ads_storage::{AppendEffect, DictColumn};
use std::time::Instant;

/// One dictionary-encoded string column + one skipping index over its
/// codes + running metrics.
pub struct StringColumnSession {
    column: DictColumn,
    strategy: Strategy,
    index: Box<dyn SkippingIndex<u32>>,
    totals: CumulativeMetrics,
    rebuilds: u32,
}

impl StringColumnSession {
    /// Builds the column and its index.
    pub fn new<S: AsRef<str>>(values: &[S], strategy: &Strategy) -> Self {
        let column = DictColumn::from_strings(values);
        let t0 = Instant::now();
        let index = strategy.build_index(column.codes().as_slice());
        StringColumnSession {
            column,
            strategy: strategy.clone(),
            index,
            totals: CumulativeMetrics {
                build_ns: t0.elapsed().as_nanos() as u64,
                ..Default::default()
            },
            rebuilds: 0,
        }
    }

    /// COUNT of rows whose code falls in the inclusive `range`.
    fn count(&mut self, range: Option<(u32, u32)>) -> (u64, QueryMetrics) {
        let Some((lo, hi)) = range else {
            // Dictionary miss: provably empty without touching data. The
            // dictionary acted as the (free) skipping metadata here.
            let metrics = QueryMetrics::default();
            self.totals.absorb(&metrics);
            return (0, metrics);
        };
        let (answer, metrics) = execute(
            self.column.codes().as_slice(),
            self.index.as_mut(),
            RangePredicate::between(lo, hi),
            AggKind::Count,
        );
        self.totals.absorb(&metrics);
        (answer.count, metrics)
    }

    /// COUNT of rows with `lo <= value <= hi` (string order).
    pub fn count_between(&mut self, lo: &str, hi: &str) -> (u64, QueryMetrics) {
        let range = self.column.code_range(lo, hi);
        self.count(range)
    }

    /// COUNT of rows equal to `s`.
    pub fn count_eq(&mut self, s: &str) -> (u64, QueryMetrics) {
        let range = self.column.code_of(s).map(|c| (c, c));
        self.count(range)
    }

    /// COUNT of rows starting with `prefix`.
    pub fn count_prefix(&mut self, prefix: &str) -> (u64, QueryMetrics) {
        let range = self.column.code_range_prefix(prefix);
        self.count(range)
    }

    /// Appends rows; rebuilds the index when the code space was remapped.
    /// Returns the append effect and the maintenance time in nanoseconds.
    pub fn append<S: AsRef<str>>(&mut self, values: &[S]) -> (AppendEffect, u64) {
        let old_rows = self.column.len();
        let t0 = Instant::now();
        let effect = self.column.append(values);
        match effect {
            AppendEffect::Extended => {
                let codes = self.column.codes().as_slice();
                self.index.on_append(&codes[old_rows..], codes);
            }
            AppendEffect::Remapped => {
                self.index = self.strategy.build_index(self.column.codes().as_slice());
                self.rebuilds += 1;
            }
        }
        (effect, t0.elapsed().as_nanos() as u64)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.column.len()
    }

    /// True when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.column.is_empty()
    }

    /// The string at `row`.
    pub fn value(&self, row: usize) -> &str {
        self.column.value(row)
    }

    /// Distinct values stored.
    pub fn cardinality(&self) -> usize {
        self.column.cardinality()
    }

    /// Index rebuilds forced by dictionary remaps.
    pub fn rebuilds(&self) -> u32 {
        self.rebuilds
    }

    /// Running totals.
    pub fn totals(&self) -> &CumulativeMetrics {
        &self.totals
    }

    /// The index's display name.
    pub fn index_name(&self) -> String {
        self.index.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ads_core::adaptive::AdaptiveConfig;

    fn countries(n: usize) -> Vec<String> {
        const POOL: [&str; 10] = [
            "argentina",
            "brazil",
            "canada",
            "denmark",
            "egypt",
            "france",
            "germany",
            "hungary",
            "india",
            "japan",
        ];
        (0..n)
            .map(|i| POOL[(i * 7) % POOL.len()].to_string())
            .collect()
    }

    fn strategies() -> Vec<Strategy> {
        vec![
            Strategy::FullScan,
            Strategy::StaticZonemap { zone_rows: 256 },
            Strategy::Adaptive(AdaptiveConfig::default()),
            Strategy::Imprints {
                values_per_line: 8,
                bins: 16,
            },
        ]
    }

    fn reference_count(values: &[String], f: impl Fn(&str) -> bool) -> u64 {
        values.iter().filter(|v| f(v)).count() as u64
    }

    #[test]
    fn range_eq_prefix_match_reference() {
        let values = countries(5000);
        for strategy in strategies() {
            let mut s = StringColumnSession::new(&values, &strategy);
            // Twice so adaptive structures reorganise between runs.
            for _ in 0..2 {
                let (c, _) = s.count_between("brazil", "france");
                assert_eq!(
                    c,
                    reference_count(&values, |v| ("brazil"..="france").contains(&v)),
                    "{} range",
                    s.index_name()
                );
                let (c, _) = s.count_eq("germany");
                assert_eq!(c, reference_count(&values, |v| v == "germany"));
                let (c, _) = s.count_prefix("ja");
                assert_eq!(c, reference_count(&values, |v| v.starts_with("ja")));
            }
        }
    }

    #[test]
    fn dictionary_miss_answers_without_scanning() {
        let values = countries(1000);
        let mut s = StringColumnSession::new(&values, &Strategy::FullScan);
        let (c, m) = s.count_eq("atlantis");
        assert_eq!(c, 0);
        assert_eq!(m.rows_scanned, 0);
        let (c2, _) = s.count_between("x", "z");
        assert_eq!(c2, 0);
        assert_eq!(s.count_prefix("zz").0, 0);
    }

    #[test]
    fn append_known_keeps_index_valid() {
        let values = countries(2000);
        let mut s = StringColumnSession::new(&values, &Strategy::StaticZonemap { zone_rows: 128 });
        let (c0, _) = s.count_eq("brazil");
        let (effect, _) = s.append(&["brazil".to_string(), "japan".to_string()]);
        assert_eq!(effect, AppendEffect::Extended);
        let (c1, _) = s.count_eq("brazil");
        assert_eq!(c1, c0 + 1);
        assert_eq!(s.rebuilds(), 0);
    }

    #[test]
    fn append_unseen_rebuilds_and_stays_correct() {
        let values = countries(2000);
        for strategy in strategies() {
            let mut s = StringColumnSession::new(&values, &strategy);
            s.count_prefix("a");
            let (effect, _) = s.append(&["aachen".to_string(), "zurich".to_string()]);
            assert_eq!(effect, AppendEffect::Remapped, "{}", s.index_name());
            assert_eq!(s.rebuilds(), 1);
            let (c, _) = s.count_prefix("a");
            let mut all = values.clone();
            all.push("aachen".into());
            all.push("zurich".into());
            assert_eq!(c, reference_count(&all, |v| v.starts_with('a')));
            assert_eq!(s.len(), 2002);
            assert!(s.cardinality() >= 12);
        }
    }

    #[test]
    fn adaptive_index_skips_after_warmup() {
        // Sorted-ish string stream: batches of identical values.
        let values: Vec<String> = (0..50_000).map(|i| format!("key{:05}", i / 100)).collect();
        let mut s =
            StringColumnSession::new(&values, &Strategy::Adaptive(AdaptiveConfig::default()));
        let (_, m1) = s.count_between("key00250", "key00260");
        let (_, m2) = s.count_between("key00250", "key00260");
        assert!(
            m2.rows_scanned < m1.rows_scanned / 5,
            "codes of clustered strings should skip: {} vs {}",
            m1.rows_scanned,
            m2.rows_scanned
        );
        assert_eq!(s.value(0), "key00000");
    }
}
