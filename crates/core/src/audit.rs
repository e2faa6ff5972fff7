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
//! vocabulary: `skip:bounds`, `skip:mask`, `skip:bloom`, `skip:imprint`,
//! `tier-units`, `scan`, `scan:unbuilt`, `full:bounds`, `positional`),
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
use ads_storage::{DataValue, DeleteVector, RangeSet, ReorgZone, RowRange};

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
/// Three checks, all against a per-row recompute:
///
/// 1. **No false skips**: every live in-scope row satisfying `pred`
///    lies in `must_scan` ∪ `full_match` ∪ a reorg unit's zone.
/// 2. **Full-match purity**: every live in-scope row of `full_match`
///    satisfies `pred`.
/// 3. **Positional soundness**: within a reorg unit, every `full`-span
///    view position satisfies `pred`, and no live position outside
///    `full` ∪ `edges` does (those rows are claimed resolved without a
///    scan).
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

    // Check 1: no false skips. Walk the complement of the outcome's
    // coverage; any live qualifying row there was wrongly excluded.
    let mut covered = outcome.must_scan.union(&outcome.full_match);
    for ru in &outcome.reorg_units {
        let mut zone = RangeSet::new();
        zone.push_span(ru.zone.start, ru.zone.end);
        covered = covered.union(&zone);
    }
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

    // Check 3: positional soundness of reorg units.
    for ru in &outcome.reorg_units {
        let Some(payload) = ru.payload.downcast_ref::<ReorgZone<T>>() else {
            panic!(
                "shadow-oracle VIOLATION [{source}]: reorg unit over zone \
                 {:?} carries a payload of the wrong value type",
                ru.zone
            );
        };
        let values = payload.values();
        let rowids = payload.rowids();
        let in_edges = |pos: usize| ru.edges.iter().flatten().any(|e| e.contains(pos));
        for pos in 0..values.len() {
            // narrowing: rowids are u32 by column construction (rows <= u32::MAX).
            let base_row = rowids[pos] as usize;
            let qualifies = pred.matches(values[pos]);
            if ru.full.contains(pos) {
                if !qualifies {
                    panic!(
                        "shadow-oracle VIOLATION [{source}]: view position \
                         {pos} (base row {base_row}, value {:?}) lies in the \
                         positional full span of zone {:?} but does not \
                         satisfy predicate [{:?}, {:?}]",
                        values[pos], ru.zone, pred.lo, pred.hi
                    );
                }
            } else if !in_edges(pos) && qualifies && is_live(base_row) && in_scope(base_row) {
                abort_false_skip(outcome, pred, base_row, values[pos], source);
            }
        }
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
         satisfies predicate [{:?}, {:?}] but is covered by neither \
         must_scan, full_match, nor a reorg unit; {}",
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
        outcome.must_scan.push_span(0, 50);
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
        outcome.must_scan.push_span(0, 50);
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
        outcome.must_scan.push_span(0, 50);
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
        outcome.must_scan.push_span(0, 50);
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
