//! Column imprints (Sidirourgos & Kersten, SIGMOD 2013): cache-line-level
//! bit sketches over a value histogram.
//!
//! For every cache line of the column, an *imprint* records — as a
//! 64-bit mask — which histogram bins the line's values fall into. A
//! range predicate maps to a bin mask; lines whose imprint does not
//! intersect the mask are skipped, and lines composed purely of the
//! predicate's interior bins match in full without reading a row.
//! Consecutive identical imprints are run-length compressed, which both
//! shrinks metadata and lets pruning decide whole runs at once. Built
//! eagerly over the whole column, this is the main non-adaptive
//! alternative to zonemaps in the evaluation.

use ads_core::{PruneOutcome, RangePredicate, SkippingIndex};
use ads_storage::{DataValue, RowRange};

/// Maximum number of histogram bins (one bit each in a 64-bit imprint).
const MAX_BINS: usize = 64;

/// A run of consecutive cache lines sharing one imprint.
#[derive(Debug, Clone, Copy)]
struct ImprintRun {
    imprint: u64,
    lines: u32,
}

/// What an imprint run proves about a predicate, per run of lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunVerdict {
    /// No value of the run can satisfy the predicate.
    Skip,
    /// Every value of the run satisfies the predicate.
    FullMatch,
    /// The run may hold qualifying and non-qualifying values; scan it.
    Scan,
}

/// Column imprints over one column.
#[derive(Debug, Clone)]
pub struct ColumnImprints<T: DataValue> {
    /// Ascending bin boundaries; `boundaries.len() + 1` bins. Bin `k`
    /// holds values `v` with exactly `k` boundaries `<= v`.
    boundaries: Vec<T>,
    values_per_line: usize,
    runs: Vec<ImprintRun>,
    len: usize,
}

impl<T: DataValue> ColumnImprints<T> {
    /// Builds imprints over `data` with the given line width (rows per
    /// imprint; 8 matches one 64-byte cache line of `i64`) and bin count.
    ///
    /// # Panics
    /// Panics if `values_per_line == 0` or `num_bins` is not in `2..=64`.
    pub fn build(data: &[T], values_per_line: usize, num_bins: usize) -> Self {
        assert!(values_per_line > 0, "values_per_line must be positive");
        assert!(
            (2..=MAX_BINS).contains(&num_bins),
            "num_bins must be in 2..=64"
        );
        let boundaries = equi_depth_boundaries(data, num_bins);
        let mut imp = ColumnImprints {
            boundaries,
            values_per_line,
            runs: Vec::new(),
            len: 0,
        };
        imp.extend_lines_from(0, data);
        imp
    }

    /// Number of compressed imprint runs (probe cost per query).
    fn num_runs(&self) -> usize {
        self.runs.len()
    }

    /// Number of histogram bins actually in use.
    fn num_bins(&self) -> usize {
        self.boundaries.len() + 1
    }

    /// Bin index of a value: the number of boundaries `<= v`.
    fn bin_of(&self, v: T) -> usize {
        self.boundaries.partition_point(|b| b.le_total(&v))
    }

    /// Imprint of the rows in `[start, end)`.
    fn line_imprint(&self, data: &[T], start: usize, end: usize) -> u64 {
        let mut imp = 0u64;
        for &v in &data[start..end] {
            imp |= 1u64 << self.bin_of(v);
        }
        imp
    }

    /// Appends an imprint run for one line, RLE-merging with the tail.
    fn rle_push(&mut self, imprint: u64) {
        match self.runs.last_mut() {
            Some(run) if run.imprint == imprint && run.lines < u32::MAX => run.lines += 1,
            _ => self.runs.push(ImprintRun { imprint, lines: 1 }),
        }
    }

    /// Recomputes imprints for all lines from line `first_line` to the
    /// end of `base`, replacing whatever runs covered them.
    fn extend_lines_from(&mut self, first_line: usize, base: &[T]) {
        // Truncate runs down to exactly `first_line` lines.
        let mut kept_lines = 0usize;
        let mut kept_runs = 0usize;
        for run in &self.runs {
            if kept_lines + run.lines as usize <= first_line {
                kept_lines += run.lines as usize;
                kept_runs += 1;
            } else {
                break;
            }
        }
        self.runs.truncate(kept_runs);
        assert_eq!(
            kept_lines, first_line,
            "first_line must fall on a run boundary (callers split first)"
        );

        let vpl = self.values_per_line;
        let mut start = first_line * vpl;
        while start < base.len() {
            let end = (start + vpl).min(base.len());
            let imprint = self.line_imprint(base, start, end);
            self.rle_push(imprint);
            start = end;
        }
        self.len = base.len();
    }

    /// Re-covers an appended tail: `base` is the full column including new
    /// rows. The line containing the old tail may have been partial, so
    /// everything from that line onward is recomputed. Bin boundaries
    /// stay fixed — imprints do not adapt to domain drift, which E9
    /// reports honestly.
    fn extend(&mut self, base: &[T]) {
        let first_dirty_line = self.len / self.values_per_line;
        // extend_lines_from requires a run boundary at first_dirty_line;
        // ensure it by splitting the tail run if needed.
        self.split_runs_at_line(first_dirty_line);
        self.extend_lines_from(first_dirty_line, base);
    }

    /// Splits whichever run straddles `line` so that a run boundary
    /// exists exactly there.
    fn split_runs_at_line(&mut self, line: usize) {
        let mut acc = 0usize;
        for i in 0..self.runs.len() {
            let run_lines = self.runs[i].lines as usize;
            if acc + run_lines > line {
                // narrowing: line - acc < run_lines, which fits in u32.
                let before = (line - acc) as u32;
                if before > 0 {
                    let imprint = self.runs[i].imprint;
                    self.runs[i].lines -= before;
                    self.runs.insert(
                        i,
                        ImprintRun {
                            imprint,
                            lines: before,
                        },
                    );
                }
                return;
            }
            acc += run_lines;
        }
    }

    /// Bit mask with bits `a..=b` set.
    fn bits_between(a: usize, b: usize) -> u64 {
        debug_assert!(a <= b && b < 64);
        let width = b - a + 1;
        if width == 64 {
            u64::MAX
        } else {
            ((1u64 << width) - 1) << a
        }
    }

    /// Classifies every run against `[lo, hi]` (inclusive, total order),
    /// yielding `(range, verdict)` per run in ascending row order.
    /// Soundness: a `Skip` run provably holds no qualifying value; a
    /// `FullMatch` run provably holds only qualifying values.
    fn classify<F: FnMut(RowRange, RunVerdict)>(&self, lo: T, hi: T, mut f: F) {
        let lo_bin = self.bin_of(lo);
        let hi_bin = self.bin_of(hi);
        let mask = Self::bits_between(lo_bin, hi_bin);
        // Bins strictly between the predicate's edge bins hold only
        // qualifying values; lines composed purely of interior bins match
        // in full.
        let interior = if hi_bin >= lo_bin + 2 {
            Self::bits_between(lo_bin + 1, hi_bin - 1)
        } else {
            0
        };
        let vpl = self.values_per_line;
        let mut line = 0usize;
        for run in &self.runs {
            let start = (line * vpl).min(self.len);
            line += run.lines as usize;
            let end = (line * vpl).min(self.len);
            let verdict = if run.imprint & mask == 0 {
                RunVerdict::Skip
            } else if run.imprint & !interior == 0 {
                RunVerdict::FullMatch
            } else {
                RunVerdict::Scan
            };
            f(RowRange::new(start, end), verdict);
        }
    }
}

/// Approximate equi-depth bin boundaries from a (possibly sampled) copy
/// of the data. Returns strictly increasing boundaries, at most
/// `num_bins - 1`.
fn equi_depth_boundaries<T: DataValue>(data: &[T], num_bins: usize) -> Vec<T> {
    if data.is_empty() {
        return Vec::new();
    }
    const SAMPLE_CAP: usize = 8192;
    let step = data.len().div_ceil(SAMPLE_CAP).max(1);
    let mut sample: Vec<T> = data.iter().step_by(step).copied().collect();
    sample.sort_unstable_by(|a, b| a.total_cmp(b));
    let mut boundaries = Vec::with_capacity(num_bins - 1);
    for k in 1..num_bins {
        let idx = k * sample.len() / num_bins;
        let candidate = sample[idx.min(sample.len() - 1)];
        if boundaries
            .last()
            .is_none_or(|last: &T| last.lt_total(&candidate))
        {
            boundaries.push(candidate);
        }
    }
    boundaries
}

impl<T: DataValue> SkippingIndex<T> for ColumnImprints<T> {
    fn name(&self) -> String {
        format!("imprints({}x{})", self.values_per_line, self.num_bins())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn prune(&mut self, pred: &RangePredicate<T>) -> PruneOutcome {
        let mut out = PruneOutcome::for_prune();
        out.zones_probed = self.num_runs();
        self.classify(pred.lo, pred.hi, |range, verdict| match verdict {
            RunVerdict::Skip => out.zones_skipped += 1,
            RunVerdict::FullMatch => out.full_match.push_span(range.start, range.end),
            RunVerdict::Scan => out.push_scan(range.start, range.end),
        });
        out
    }

    fn on_append(&mut self, _appended: &[T], base: &[T]) {
        self.extend(base);
    }

    fn metadata_bytes(&self) -> usize {
        self.runs.capacity() * std::mem::size_of::<ImprintRun>()
            + self.boundaries.capacity() * std::mem::size_of::<T>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_sound(imp: &mut ColumnImprints<i64>, data: &[i64], pred: RangePredicate<i64>) {
        let out = imp.prune(&pred);
        let scanned = out.unit_set();
        for (i, &v) in data.iter().enumerate() {
            if pred.matches(v) {
                assert!(
                    scanned.contains(i) || out.full_match.contains(i),
                    "row {i} (value {v}) lost for {pred}"
                );
            }
        }
        // full_match ranges must contain only qualifying rows.
        for r in out.full_match.ranges() {
            for (i, &v) in data.iter().enumerate().take(r.end).skip(r.start) {
                assert!(pred.matches(v), "row {i} wrongly full-matched");
            }
        }
    }

    #[test]
    fn sound_on_sorted_data() {
        let data: Vec<i64> = (0..10_000).collect();
        let mut imp = ColumnImprints::build(&data, 8, MAX_BINS);
        for lo in [0i64, 100, 5000, 9990] {
            check_sound(&mut imp, &data, RangePredicate::between(lo, lo + 500));
        }
    }

    #[test]
    fn sound_on_random_data() {
        let data: Vec<i64> = (0..8192).map(|i| (i * 2654435761i64) % 10_000).collect();
        let mut imp = ColumnImprints::build(&data, 8, 64);
        for q in 0..30 {
            let lo = (q * 331) % 9000;
            check_sound(&mut imp, &data, RangePredicate::between(lo, lo + 400));
        }
    }

    #[test]
    fn skips_on_clustered_data() {
        let mut data = vec![10i64; 4096];
        data.extend(vec![10_000i64; 4096]);
        let mut imp = ColumnImprints::build(&data, 8, MAX_BINS);
        // With two distinct values the bins are (-inf,10), [10,10000),
        // [10000,inf): a predicate inside the top bin skips the low cluster.
        let out = imp.prune(&RangePredicate::between(10_000, 11_000));
        assert!(out.unit_set().covered_rows() + out.rows_full_match() <= 4096 + 8);
        assert!(out.zones_skipped > 0);
        check_sound(&mut imp, &data, RangePredicate::between(9_000, 11_000));
    }

    #[test]
    fn rle_compresses_constant_regions() {
        let data = vec![7i64; 64 * 100];
        let imp = ColumnImprints::build(&data, 8, MAX_BINS);
        assert_eq!(imp.num_runs(), 1);
    }

    #[test]
    fn full_match_on_interior_bins() {
        let data: Vec<i64> = (0..64_000).collect(); // sorted, wide domain
        let mut imp = ColumnImprints::build(&data, 8, MAX_BINS);
        let out = imp.prune(&RangePredicate::between(10_000, 50_000));
        assert!(
            out.rows_full_match() > 0,
            "wide predicates over sorted data should full-match interior lines"
        );
    }

    #[test]
    fn append_keeps_soundness() {
        let mut data: Vec<i64> = (0..1000).collect();
        let mut imp = ColumnImprints::build(&data, 8, 32);
        for batch in 0..7 {
            let newvals: Vec<i64> = (0..37).map(|i| 1000 + batch * 37 + i).collect();
            data.extend_from_slice(&newvals);
            imp.on_append(&newvals, &data);
            check_sound(&mut imp, &data, RangePredicate::between(980, 1100));
            check_sound(&mut imp, &data, RangePredicate::between(0, 10));
        }
    }

    #[test]
    fn append_into_rle_run_splits_correctly() {
        let mut data = vec![5i64; 100];
        let mut imp = ColumnImprints::build(&data, 8, 16);
        assert_eq!(imp.num_runs(), 1);
        let newvals = vec![999_999i64; 20];
        data.extend_from_slice(&newvals);
        imp.on_append(&newvals, &data);
        check_sound(&mut imp, &data, RangePredicate::between(900_000, 1_000_000));
        check_sound(&mut imp, &data, RangePredicate::point(5));
    }

    #[test]
    fn constant_column_single_bin() {
        let data = vec![42i64; 500];
        let mut imp = ColumnImprints::build(&data, 8, 64);
        check_sound(&mut imp, &data, RangePredicate::point(42));
        // The single boundary sits at 42, so everything below it skips;
        // ranges above 42 share the constant's bin and cannot skip.
        let out = imp.prune(&RangePredicate::between(10, 20));
        assert_eq!(out.unit_set().covered_rows() + out.rows_full_match(), 0);
    }

    #[test]
    fn name_and_metadata() {
        let imp = ColumnImprints::build(&(0..640i64).collect::<Vec<_>>(), 8, 64);
        assert!(SkippingIndex::name(&imp).starts_with("imprints"));
        assert!(SkippingIndex::metadata_bytes(&imp) > 0);
    }

    #[test]
    fn empty_column() {
        let mut imp = ColumnImprints::build(&[] as &[i64], 8, 8);
        let out = imp.prune(&RangePredicate::all());
        assert!(out.units.is_empty());
    }

    /// The run-level soundness suite: classify against a scalar oracle.
    mod runs {
        use super::super::*;

        /// Scalar oracle: classify must never Skip a qualifying row and never
        /// FullMatch a non-qualifying one.
        fn check_sound(imp: &ColumnImprints<i64>, data: &[i64], lo: i64, hi: i64) {
            imp.classify(lo, hi, |range, verdict| {
                for (i, &v) in data[range.start..range.end].iter().enumerate() {
                    let q = lo <= v && v <= hi;
                    match verdict {
                        RunVerdict::Skip => {
                            assert!(!q, "row {} (value {v}) lost by Skip", range.start + i)
                        }
                        RunVerdict::FullMatch => {
                            assert!(
                                q,
                                "row {} (value {v}) wrongly full-matched",
                                range.start + i
                            )
                        }
                        RunVerdict::Scan => {}
                    }
                }
            });
        }

        #[test]
        fn classify_covers_every_row_exactly_once() {
            let data: Vec<i64> = (0..10_000).map(|i| (i * 37) % 1000).collect();
            let imp = ColumnImprints::build(&data, 8, MAX_BINS);
            let mut covered = 0usize;
            imp.classify(100, 300, |range, _| {
                assert_eq!(range.start, covered, "gap or overlap");
                covered = range.end;
            });
            assert_eq!(covered, data.len());
        }

        #[test]
        fn classify_is_sound_on_varied_shapes() {
            let sorted: Vec<i64> = (0..8192).collect();
            let random: Vec<i64> = (0..8192).map(|i| (i * 2654435761i64) % 10_000).collect();
            let mut clustered = vec![10i64; 4096];
            clustered.extend(vec![10_000i64; 4096]);
            for data in [&sorted, &random, &clustered] {
                let imp = ColumnImprints::build(data, 8, MAX_BINS);
                for q in 0..20 {
                    let lo = (q * 331) % 9000;
                    check_sound(&imp, data, lo, lo + 400);
                }
            }
        }

        #[test]
        fn wide_predicate_full_matches_interior_lines() {
            let data: Vec<i64> = (0..64_000).collect();
            let imp = ColumnImprints::build(&data, 8, MAX_BINS);
            let mut full = 0usize;
            imp.classify(10_000, 50_000, |range, verdict| {
                if verdict == RunVerdict::FullMatch {
                    full += range.len();
                }
            });
            assert!(
                full > 0,
                "sorted data under a wide predicate must full-match"
            );
        }

        #[test]
        fn extend_keeps_soundness_and_splits_rle_runs() {
            let mut data = vec![5i64; 100];
            let mut imp = ColumnImprints::build(&data, 8, 16);
            assert_eq!(imp.num_runs(), 1);
            data.extend(vec![999_999i64; 20]);
            imp.extend(&data);
            assert_eq!(imp.len, 120);
            check_sound(&imp, &data, 900_000, 1_000_000);
            check_sound(&imp, &data, 5, 5);
        }

        #[test]
        fn accessors_and_empty() {
            let imp = ColumnImprints::build(&(0..640i64).collect::<Vec<_>>(), 8, 64);
            assert_eq!(imp.values_per_line, 8);
            assert!(imp.num_bins() <= 64 && imp.num_bins() >= 2);
            assert!(imp.metadata_bytes() > 0);
            assert_ne!(imp.len, 0);

            let empty = ColumnImprints::build(&[] as &[i64], 8, 8);
            assert_eq!(empty.len, 0);
            let mut calls = 0;
            empty.classify(0, 10, |_, _| calls += 1);
            assert_eq!(calls, 0);
        }

        #[test]
        fn floats_with_nan_never_lose_rows() {
            let mut data: Vec<f64> = (0..4096).map(|i| (i % 97) as f64 / 4.0).collect();
            data[100] = f64::NAN;
            data[2000] = f64::NEG_INFINITY;
            data[3000] = -0.0;
            let imp = ColumnImprints::build(&data, 8, MAX_BINS);
            for (lo, hi) in [(0.0, 5.0), (-1.0, 0.0), (20.0, 24.0)] {
                imp.classify(lo, hi, |range, verdict| {
                    for &v in &data[range.start..range.end] {
                        let q = v.ge_total(&lo) && v.le_total(&hi);
                        match verdict {
                            RunVerdict::Skip => assert!(!q, "lost {v}"),
                            RunVerdict::FullMatch => assert!(q, "bad full {v}"),
                            RunVerdict::Scan => {}
                        }
                    }
                });
            }
        }
    }
}
