//! The cost model trading metadata reads against scan work.
//!
//! The paper's core tension: a zonemap probe costs a metadata read; a skip
//! saves a zone's worth of scanning. Over data where skips never fire the
//! probes are pure loss. The model reduces both sides to one unit — "tuple
//! scan equivalents" — and answers the granularity questions adaptation
//! needs: how small may a zone be before probing it can never pay off
//! ([`CostModel::min_profitable_zone_rows`], which sizes the split floor),
//! and does refining this zone save more scanning than the probes it adds
//! ([`CostModel::split_benefit`], which gates every split).

/// Relative costs of the two primitive operations.
///
/// ```
/// use ads_core::CostModel;
/// let m = CostModel::new(8.0);
/// // Halving a 4096-row zone that one query in ten reads for nothing
/// // saves far more scanning than the probe each half adds:
/// assert!(m.split_benefit(4096, 2, 0.1) >= 0.0);
/// // One query in a thousand: the halves' probes cost every query more
/// // than the rare skipped half saves.
/// assert!(m.split_benefit(4096, 2, 0.001) < 0.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Cost of examining one zone's metadata, measured in tuple-scan
    /// equivalents. A probe touches one small metadata entry but is a
    /// dependent branch; 4–16 tuples is typical for tight i64 scan loops.
    pub probe_cost_tuples: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        // Conservative default; `calibrate` measures the real ratio.
        CostModel {
            probe_cost_tuples: 8.0,
        }
    }
}

impl CostModel {
    /// Builds a model with an explicit probe/scan cost ratio.
    ///
    /// # Panics
    /// Panics unless `probe_cost_tuples` is finite and positive.
    pub fn new(probe_cost_tuples: f64) -> Self {
        assert!(
            probe_cost_tuples.is_finite() && probe_cost_tuples > 0.0,
            "probe cost must be positive"
        );
        CostModel { probe_cost_tuples }
    }

    /// Measures the probe/scan ratio on this machine by timing the two
    /// primitive loops over synthetic data of `sample` tuples.
    pub fn calibrate(sample: usize) -> Self {
        use std::time::Instant;
        let sample = sample.max(1 << 16);
        let data: Vec<i64> = (0..sample as i64)
            .map(|i| i.wrapping_mul(2654435761))
            .collect();

        // Scan cost per tuple.
        let t0 = Instant::now();
        // live: synthetic calibration data generated just above — no
        // delete vector exists for it.
        let hits = ads_storage::scan::count_in_range(&data, 0, i64::MAX / 2);
        let scan_ns_per_tuple = t0.elapsed().as_nanos() as f64 / sample as f64;
        std::hint::black_box(hits);

        // Probe cost per zone: interval tests over a dense metadata array.
        let zones: Vec<(i64, i64)> = data
            .chunks(64)
            .map(|c| {
                // invariant: chunks() never yields an empty slice.
                // live: same synthetic delete-free calibration data.
                let (min, max) = ads_storage::scan::min_max(c).expect("non-empty chunk");
                (min, max)
            })
            .collect();
        let t1 = Instant::now();
        let mut skipped = 0usize;
        for &(min, max) in &zones {
            // narrowing: bool -> usize is 0 or 1 by definition.
            skipped += (max < 0 || min > i64::MAX / 2) as usize;
        }
        std::hint::black_box(skipped);
        let probe_ns = t1.elapsed().as_nanos() as f64 / zones.len() as f64;

        let ratio = (probe_ns / scan_ns_per_tuple.max(1e-3)).clamp(0.5, 64.0);
        CostModel {
            probe_cost_tuples: ratio,
        }
    }

    /// Smallest zone size for which a skip can ever repay its probe: a
    /// skipped zone saves `rows` tuple-scans and costs one probe, so zones
    /// below this row count are never worth probing.
    pub fn min_profitable_zone_rows(&self) -> usize {
        // narrowing: probe_cost_tuples is a small non-negative model
        // constant (row counts), far below 2^52.
        self.probe_cost_tuples.ceil() as usize
    }

    /// Net benefit per query, in tuple-scan equivalents, of each of the
    /// `parts` children a split of one `rows`-row zone would produce.
    /// `waste_rate` is the share of the zone's probes that ended in a
    /// low-yield scan — the queries a finer child could have been skipped
    /// for, each saving the child's `rows / parts` tuples — and the child
    /// costs every query one more probe:
    /// `waste_rate * rows / parts - probe_cost`. A split pays for the
    /// probes it adds exactly when this is non-negative. Since
    /// `waste_rate <= 1` and `parts >= 2`, that also implies children of
    /// at least [`CostModel::min_profitable_zone_rows`] rows.
    pub fn split_benefit(&self, rows: usize, parts: usize, waste_rate: f64) -> f64 {
        waste_rate * rows as f64 / parts as f64 - self.probe_cost_tuples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sane() {
        let m = CostModel::default();
        assert!(m.probe_cost_tuples > 0.0);
        assert!(m.min_profitable_zone_rows() >= 1);
    }

    #[test]
    #[should_panic(expected = "probe cost must be positive")]
    fn rejects_nonpositive() {
        CostModel::new(0.0);
    }

    #[test]
    fn split_benefit_signs() {
        let m = CostModel::new(8.0);
        assert!(m.split_benefit(4096, 2, 0.5) > 0.0);
        // Never read for nothing: the children's probes are pure loss.
        assert!(m.split_benefit(4096, 2, 0.0) < 0.0);
        // Tiny zone: probe cost dominates even when every probe is wasted.
        assert!(m.split_benefit(8, 2, 1.0) < 0.0);
    }

    #[test]
    fn split_benefit_is_zero_exactly_where_a_child_saves_one_probe() {
        let m = CostModel::new(8.0);
        for parts in [2usize, 8] {
            // 4096 / parts rows per child; the break-even rate is the one
            // at which a child saves `probe_cost_tuples` rows per query.
            let rows = 4096;
            let at = m.probe_cost_tuples * parts as f64 / rows as f64;
            assert_eq!(m.split_benefit(rows, parts, at), 0.0, "parts {parts}");
            assert!(m.split_benefit(rows, parts, at * 0.999) < 0.0);
            assert!(m.split_benefit(rows, parts, at * 1.001) > 0.0);
            // The same boundary approached through the zone size.
            let rate = 1.0 / 64.0;
            let rows_at = (m.probe_cost_tuples * parts as f64 / rate) as usize;
            assert_eq!(m.split_benefit(rows_at, parts, rate), 0.0);
            assert!(m.split_benefit(rows_at - 1, parts, rate) < 0.0);
        }
        // More parts means smaller children: the same zone and rate can
        // pay for two probes and not for eight.
        assert!(m.split_benefit(4096, 2, 0.01) >= 0.0);
        assert!(m.split_benefit(4096, 8, 0.01) < 0.0);
    }

    #[test]
    fn calibrate_produces_bounded_ratio() {
        let m = CostModel::calibrate(1 << 16);
        assert!(m.probe_cost_tuples >= 0.5 && m.probe_cost_tuples <= 64.0);
    }
}
