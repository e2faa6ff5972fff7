//! Shadow-oracle prune auditor (compiled only with the `audit` feature).
//!
//! Data skipping has one catastrophic failure mode: a **false skip** — a
//! zone excluded by metadata that actually holds a qualifying row. Every
//! other bug degrades performance; a false skip silently returns wrong
//! answers. Static analysis (ads-lint) proves the *protocols* around
//! metadata publication are followed; this module checks the *decisions*
//! themselves at runtime: after a prune, [`verify_outcome`] recomputes
//! ground truth row by row against the base data and panics the process
//! on the first qualifying live row the outcome excluded, reporting the
//! zone, the predicate, and the prune's per-zone decision trace.
//!
//! The trace side lives in [`PruneOutcome::audit_trace`]: every prune
//! path records one [`AuditDecision`] per zone it resolves (label
//! vocabulary: `skip:bounds`, `skip:mask`, `skip:bloom`, `scan`,
//! `scan:unbuilt`, `full:bounds`),
//! so a violation names the exact decision that excluded the row rather
//! than just the row. Without the feature both the field and the
//! recording calls compile to nothing.
//!
//! The auditor is wired into the one scan executor (per lane into
//! `scan_sharded`, the path every inline and every server query takes)
//! and the multi-column conjunction path,
//! so building the workspace with `--features audit` turns every
//! existing test — unit, property, and stress — into a false-skip hunt
//! at zero test-code cost. `ads-audit` (in `crates/engine`) sweeps
//! random seeds through the same hook.

use crate::outcome::PruneOutcome;
use crate::predicate::RangePredicate;
use ads_storage::{DataValue, DeleteVector, RangeSet, RowRange};

/// One per-zone prune decision, recorded for the auditor's diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditDecision {
    /// The zone's row range, in the outcome's scan coordinates.
    pub zone: RowRange,
    /// What the prune decided (`skip:bounds`, `scan`, `full:bounds`, …).
    pub action: &'static str,
}

/// Cross-checks one prune outcome against ground truth, panicking on any
/// soundness violation.
///
/// `target` is the column in the outcome's scan coordinates; `live`
/// masks tombstoned rows (`None` = all rows live); `within` restricts
/// the check to rows still in play (the conjunction path prunes within
/// the surviving candidate set — rows outside it are excluded by
/// *earlier* conjuncts, not by this outcome). `source` names the call
/// site for the abort message.
///
/// First the outcome's shape: its units are ascending, pairwise
/// disjoint and disjoint from `full_match`. Then two checks, both against
/// a per-row recompute:
///
/// 1. **No false skips**: every live in-scope row satisfying `pred`
///    lies in a unit or in `full_match`.
/// 2. **Full-match purity**: every live in-scope row of `full_match`
///    satisfies `pred`.
pub fn verify_outcome<T: DataValue>(
    target: &[T],
    live: Option<&DeleteVector>,
    pred: &RangePredicate<T>,
    outcome: &PruneOutcome,
    within: Option<&RangeSet>,
    source: &str,
) {
    let in_scope = |row: usize| within.is_none_or(|w| w.contains(row));
    let is_live = |row: usize| live.is_none_or(|dv| !dv.is_deleted(row));
    verify_shape(outcome, source);

    // Check 1: no false skips. Walk the complement of the outcome's
    // coverage; any live qualifying row there was wrongly excluded.
    let covered = outcome.unit_set().union(&outcome.full_match);
    for gap in covered.complement(target.len()).ranges() {
        for (off, &v) in target[gap.start..gap.end].iter().enumerate() {
            let row = gap.start + off;
            if in_scope(row) && is_live(row) && pred.matches(v) {
                abort_false_skip(outcome, pred, row, v, source);
            }
        }
    }

    // Check 2: full-match purity.
    for r in outcome.full_match.ranges() {
        for (off, &v) in target[r.start..r.end].iter().enumerate() {
            let row = r.start + off;
            if in_scope(row) && is_live(row) && !pred.matches(v) {
                panic!(
                    "shadow-oracle VIOLATION [{source}]: row {row} (value {v:?}) \
                     does not satisfy predicate [{:?}, {:?}] but lies in a \
                     full_match range — metadata over-claimed containment; \
                     {}",
                    pred.lo,
                    pred.hi,
                    trace_for(outcome, row)
                );
            }
        }
    }
}

/// Checks the shape of `outcome.units`, panicking on the first unit out
/// of order or overlapping its predecessor or `full_match`.
fn verify_shape(outcome: &PruneOutcome, source: &str) {
    let fm = outcome.full_match.ranges();
    let violation = format!("shadow-oracle VIOLATION [{source}]");
    for (i, unit) in outcome.units.iter().enumerate() {
        let r = unit.range;
        if let Some(prev) = i.checked_sub(1).map(|p| outcome.units[p].range) {
            assert!(
                prev.start <= r.start,
                "{violation}: unit {i} {r:?} starts before unit {prev:?} — units out of order"
            );
            assert!(
                prev.end <= r.start,
                "{violation}: unit {i} {r:?} overlaps the unit before it, {prev:?}"
            );
        }
        let f = fm.get(fm.partition_point(|f| f.end <= r.start));
        assert!(
            f.is_none_or(|f| r.end <= f.start),
            "{violation}: unit {i} {r:?} overlaps full_match range {f:?}"
        );
    }
}

/// The abort path of the auditor: a qualifying live row the prune
/// excluded. Reports the row, the predicate, and the decision that
/// covered (or failed to cover) the row's zone.
fn abort_false_skip<T: DataValue>(
    outcome: &PruneOutcome,
    pred: &RangePredicate<T>,
    row: usize,
    value: T,
    source: &str,
) -> ! {
    panic!(
        "shadow-oracle FALSE SKIP [{source}]: row {row} (value {value:?}) \
         satisfies predicate [{:?}, {:?}] but is covered by neither a \
         unit nor full_match; {}",
        pred.lo,
        pred.hi,
        trace_for(outcome, row)
    );
}

/// Renders the decision trace entry covering `row` (plus a count of all
/// traced decisions) for an abort message.
fn trace_for(outcome: &PruneOutcome, row: usize) -> String {
    let decisions = &outcome.audit_trace;
    match decisions.iter().find(|d| d.zone.contains(row)) {
        Some(d) => format!(
            "prune decision for zone [{}, {}): `{}` ({} decision(s) traced)",
            d.zone.start,
            d.zone.end,
            d.action,
            decisions.len()
        ),
        None if decisions.is_empty() => "no decision trace (index does not record one)".to_string(),
        None => format!(
            "no decision covers this row ({} decision(s) traced)",
            decisions.len()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::PruneOutcome;

    fn data() -> Vec<i64> {
        (0..100).collect()
    }

    #[test]
    fn complete_outcome_passes() {
        let d = data();
        let outcome = PruneOutcome::scan_all(d.len());
        verify_outcome(
            &d,
            None,
            &RangePredicate::between(10, 20),
            &outcome,
            None,
            "test",
        );
    }

    #[test]
    fn sound_skip_passes() {
        let d = data();
        let mut outcome = PruneOutcome::default();
        // Rows 0..50 scanned; 50..100 skipped — sound for pred <= 30.
        outcome.push_scan(0, 50);
        outcome.record_decision(RowRange::new(0, 50), "scan");
        outcome.record_decision(RowRange::new(50, 100), "skip:bounds");
        verify_outcome(
            &d,
            None,
            &RangePredicate::between(10, 30),
            &outcome,
            None,
            "test",
        );
    }

    #[test]
    #[should_panic(expected = "FALSE SKIP")]
    fn false_skip_aborts_with_decision() {
        let d = data();
        let mut outcome = PruneOutcome::default();
        // Rows 60..70 qualify but only 0..50 is covered.
        outcome.push_scan(0, 50);
        outcome.record_decision(RowRange::new(50, 100), "skip:bounds");
        verify_outcome(
            &d,
            None,
            &RangePredicate::between(60, 69),
            &outcome,
            None,
            "test",
        );
    }

    #[test]
    fn deleted_rows_may_be_skipped() {
        let d = data();
        let mut live = DeleteVector::new(d.len(), 0);
        for row in 60..70 {
            live.delete(row);
        }
        let mut outcome = PruneOutcome::default();
        outcome.push_scan(0, 50);
        // Qualifying rows 60..69 are all tombstoned: skipping them is sound.
        verify_outcome(
            &d,
            Some(&live),
            &RangePredicate::between(60, 69),
            &outcome,
            None,
            "test",
        );
    }

    #[test]
    fn out_of_scope_rows_may_be_skipped() {
        let d = data();
        let mut outcome = PruneOutcome::default();
        outcome.push_scan(0, 50);
        let mut within = RangeSet::new();
        within.push_span(0, 50);
        // Rows 60..69 qualify but earlier conjuncts already excluded them.
        verify_outcome(
            &d,
            None,
            &RangePredicate::between(60, 69),
            &outcome,
            Some(&within),
            "test",
        );
    }

    /// An outcome scanning `units` (each a plain unit, as written) over
    /// a column where every row qualifies for the audited predicate.
    fn shaped(units: &[(usize, usize)]) -> PruneOutcome {
        let mut outcome = PruneOutcome::default();
        for &(start, end) in units {
            outcome.push_unit(
                RowRange::new(start, end),
                crate::outcome::UnitRequest {
                    bounds: false,
                    bins: None,
                },
            );
        }
        outcome
    }

    #[test]
    #[should_panic(expected = "overlaps the unit before it")]
    fn overlapping_unit_aborts() {
        let d = data();
        let outcome = shaped(&[(0, 60), (50, 100)]);
        verify_outcome(&d, None, &RangePredicate::all(), &outcome, None, "test");
    }

    #[test]
    #[should_panic(expected = "units out of order")]
    fn out_of_order_unit_aborts() {
        let d = data();
        let outcome = shaped(&[(50, 100), (0, 50)]);
        verify_outcome(&d, None, &RangePredicate::all(), &outcome, None, "test");
    }

    #[test]
    #[should_panic(expected = "overlaps full_match")]
    fn unit_overlapping_full_match_aborts() {
        let d = data();
        let mut outcome = shaped(&[(0, 50)]);
        outcome.full_match.push_span(40, 100);
        verify_outcome(&d, None, &RangePredicate::all(), &outcome, None, "test");
    }

    #[test]
    #[should_panic(expected = "over-claimed containment")]
    fn impure_full_match_aborts() {
        let d = data();
        let mut outcome = PruneOutcome::default();
        outcome.full_match.push_span(0, 50);
        verify_outcome(
            &d,
            None,
            &RangePredicate::between(10, 20),
            &outcome,
            None,
            "test",
        );
    }
}
