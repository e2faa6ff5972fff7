//! End-to-end shadow-oracle tests (run with `--features audit`).
//!
//! The auditor's value is negative evidence: an index that lies about
//! its coverage must crash the executor, not return a silently wrong
//! answer. These tests drive the real engine entry points — the same
//! hook every suite exercises when the feature is on — against both an
//! adversarial index and honest strategies under deletes.

#![cfg(feature = "audit")]

use ads_core::{PruneOutcome, RangePredicate, SkippingIndex};
use ads_engine::{
    execute, execute_disjunction, in_list, scan_sharded, AggKind, ExecPolicy, Lane, ShardScanInput,
    Strategy,
};
use ads_storage::{DeleteVector, RangeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// An index that silently drops the upper half of the column from its
/// candidates — the exact bug class the oracle exists to catch.
struct EvilIndex {
    rows: usize,
}

impl SkippingIndex<i64> for EvilIndex {
    fn name(&self) -> String {
        "evil".into()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn prune(&mut self, _pred: &RangePredicate<i64>) -> PruneOutcome {
        let mut out = PruneOutcome::default();
        out.must_scan.push_span(0, self.rows / 2);
        out.record_decision(ads_storage::RowRange::new(0, self.rows / 2), "scan");
        out.record_decision(
            ads_storage::RowRange::new(self.rows / 2, self.rows),
            "skip:bounds",
        );
        out
    }

    fn on_append(&mut self, _appended: &[i64], base: &[i64]) {
        self.rows = base.len();
    }

    fn metadata_bytes(&self) -> usize {
        0
    }
}

#[test]
fn executor_aborts_on_lying_index() {
    let data: Vec<i64> = (0..1000).collect();
    // Qualifying rows live in the dropped half. Every front door reaches
    // the oracle through `execute` -> `scan_sharded`; a disjunction is a
    // loop of `execute` calls and must abort there too.
    let entry_points: [(&str, fn(&[i64], &mut EvilIndex)); 2] = [
        ("execute", |data, idx| {
            let pred = RangePredicate::between(900, 950);
            execute(data, idx, pred, AggKind::Count);
        }),
        ("execute_disjunction", |data, idx| {
            execute_disjunction(data, idx, in_list(&[900, 950]), AggKind::Count);
        }),
    ];
    for (name, entry) in entry_points {
        let mut idx = EvilIndex { rows: data.len() };
        let err = catch_unwind(AssertUnwindSafe(|| entry(&data, &mut idx)))
            .expect_err("executor must abort on a false skip");
        let msg = err
            .downcast_ref::<String>()
            .expect("panic carries a message");
        assert!(
            msg.contains("FALSE SKIP"),
            "{name}: unexpected abort: {msg}"
        );
        assert!(
            msg.contains("scan_sharded"),
            "{name}: hook must name its site: {msg}"
        );
        assert!(
            msg.contains("skip:bounds"),
            "{name}: abort must surface the decision trace: {msg}"
        );
    }
}

/// The sharded scan is the path every server query takes: a lane whose
/// prune drops a zone holding a qualifying live row must abort there
/// too, and name the lane's site.
#[test]
fn sharded_scan_aborts_on_a_lane_that_lies() {
    let data: Vec<i64> = (0..2000).collect();
    let (left, right) = data.split_at(1000);
    let honest = PruneOutcome::scan_all(left.len());
    let lying = EvilIndex { rows: right.len() }.prune(&RangePredicate::all());
    // One tombstone in the honest lane puts it on the masked kernels; the
    // lying lane scans unmasked. Both must reach the oracle.
    let mut live = DeleteVector::new(left.len(), 1);
    live.delete(3);
    let inputs = || {
        [
            ShardScanInput {
                data: left,
                outcome: &honest,
                start: 0,
                live: Some(&live),
            },
            ShardScanInput {
                data: right,
                outcome: &lying,
                start: 1000,
                live: None,
            },
        ]
    };
    let policy = ExecPolicy::default();
    // Rows 1900..=1950 sit in the half the second lane dropped.
    let err = catch_unwind(AssertUnwindSafe(|| {
        scan_sharded(
            &inputs(),
            RangePredicate::between(1900, 1950),
            AggKind::Count,
            &policy,
        )
    }))
    .map(|_| ())
    .expect_err("sharded scan must abort on a false skip");
    let msg = err
        .downcast_ref::<String>()
        .expect("panic carries a message");
    assert!(msg.contains("FALSE SKIP"), "unexpected abort: {msg}");
    assert!(
        msg.contains("scan_sharded"),
        "hook must name its site: {msg}"
    );

    // The same lanes answer cleanly when the predicate misses the gap.
    let result = scan_sharded(
        &inputs(),
        RangePredicate::between(0, 1200),
        AggKind::Count,
        &policy,
    );
    assert_eq!(result.answer.count, 1200, "row 3 is tombstoned");
}

#[test]
fn executor_accepts_lying_index_when_predicate_misses_the_gap() {
    let data: Vec<i64> = (0..1000).collect();
    let mut idx = EvilIndex { rows: data.len() };
    // All qualifying rows sit in the half the index does admit, so the
    // (still unsound in general) outcome happens to be sound here.
    let (answer, _) = execute(
        &data,
        &mut idx,
        RangePredicate::between(100, 150),
        AggKind::Count,
    );
    assert_eq!(answer.count, 51);
}

#[test]
fn honest_strategies_sweep_clean_under_deletes() {
    let data: Vec<i64> = (0..20_000).map(|i| (i * 37) % 5000).collect();
    let mut live = DeleteVector::new(data.len(), 0);
    for row in (0..data.len()).step_by(13) {
        live.delete(row);
    }
    let policy = ExecPolicy::default();
    for strategy in [
        Strategy::StaticZonemap { zone_rows: 512 },
        Strategy::Adaptive(Default::default()),
        Strategy::Imprints {
            values_per_line: 8,
            bins: 64,
        },
    ] {
        let mut idx = strategy.build_index(&data);
        for q in 0..40i64 {
            let pred = RangePredicate::between(q * 100, q * 100 + 250);
            // The audit hook inside the scan cross-checks every decision.
            let lane = Lane {
                data: &data,
                index: idx.as_mut(),
                live: Some(&live),
                start: 0,
            };
            Lane::run(&mut [lane], pred, AggKind::Count, &policy);
        }
    }
}

#[test]
fn conjunction_path_audits_each_conjunct() {
    use ads_engine::{AnyPredicate, TableSession};
    use ads_storage::{Column, Table};

    let mut table = Table::new("t");
    let a: Vec<i64> = (0..10_000).collect();
    let b: Vec<i64> = (0..10_000).map(|i| (i * 7) % 1000).collect();
    table.add_column("a", Column::from_values(a)).unwrap();
    table.add_column("b", Column::from_values(b)).unwrap();
    let mut session =
        TableSession::new(table, &Strategy::Adaptive(Default::default()), &["a", "b"]).unwrap();
    // Restricted probes hand the auditor a non-trivial `within` set; a
    // pass here means no conjunct's outcome dropped surviving candidates.
    for q in 0..25i64 {
        let (count, _) = session
            .count_conjunction(&[
                (
                    "a",
                    AnyPredicate::I64(RangePredicate::between(q * 50, q * 50 + 2000)),
                ),
                ("b", AnyPredicate::I64(RangePredicate::between(0, 400))),
            ])
            .unwrap();
        let expected = (q * 50..=q * 50 + 2000)
            .filter(|&i| i < 10_000 && (i * 7) % 1000 <= 400)
            .count() as u64;
        assert_eq!(count, expected, "query {q}");
    }
}

/// The sound-skip direction: deleted rows are fair game to exclude, and
/// the oracle must not flag them.
#[test]
fn oracle_tolerates_skipping_tombstoned_rows() {
    let data: Vec<i64> = (0..1000).collect();
    let mut live = DeleteVector::new(data.len(), 0);
    for row in 500..1000 {
        live.delete(row);
    }
    let out = PruneOutcome {
        must_scan: RangeSet::full(500),
        ..Default::default()
    };
    let pred = RangePredicate::between(600, 700);
    let policy = ExecPolicy::default();
    let lane = ShardScanInput {
        data: &data,
        outcome: &out,
        start: 0,
        live: Some(&live),
    };
    let result = scan_sharded(&[lane], pred, AggKind::Count, &policy);
    assert_eq!(result.answer.count, 0);
}
