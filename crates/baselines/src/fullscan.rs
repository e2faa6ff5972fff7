//! The no-index baseline: scan everything, always.

use ads_core::{PruneOutcome, RangePredicate, SkippingIndex};
use ads_storage::DataValue;

/// A "skipping index" that never skips: the plain fast-scan baseline every
/// speedup in the evaluation is measured against.
#[derive(Debug, Clone)]
pub struct FullScan {
    len: usize,
}

impl FullScan {
    /// Creates the baseline over a column of `len` rows.
    pub fn new(len: usize) -> Self {
        FullScan { len }
    }
}

impl<T: DataValue> SkippingIndex<T> for FullScan {
    fn name(&self) -> String {
        "full-scan".to_string()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn prune(&mut self, _pred: &RangePredicate<T>) -> PruneOutcome {
        PruneOutcome::scan_all(self.len)
    }

    fn on_append(&mut self, _appended: &[T], base: &[T]) {
        self.len = base.len();
    }

    fn metadata_bytes(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_scans_everything() {
        let mut fs = FullScan::new(1000);
        let out = SkippingIndex::<i64>::prune(&mut fs, &RangePredicate::between(5, 6));
        assert_eq!(out.must_scan.covered_rows(), 1000);
        assert_eq!(out.zones_probed, 0);
        assert_eq!(SkippingIndex::<i64>::metadata_bytes(&fs), 0);
    }

    #[test]
    fn append_tracks_length() {
        let mut fs = FullScan::new(3);
        let base = [1i64, 2, 3, 4, 5];
        fs.on_append(&base[3..], &base);
        let out = SkippingIndex::<i64>::prune(&mut fs, &RangePredicate::all());
        assert_eq!(out.must_scan.covered_rows(), 5);
    }
}
