//! Failure injection: the observe channel is driven with degenerate,
//! misaligned, or stale feedback, and the indexes must stay sound; the
//! service's mutation path is driven through backpressure, deadline
//! expiry, barrier races, and shutdown, and must stay exact.
//!
//! The executor always feeds honest observations, but the framework's
//! public API cannot assume every caller does (the multi-column path
//! already produces non-zone-aligned ranges by design). These tests pin
//! the defensive behaviour: misaligned feedback is ignored, never
//! incorporated. The server-side cases pin the mutation contract under
//! duress: a shed or expired request never returns a wrong answer, a
//! flush barrier racing a compaction blocks both callers until exact
//! state is published, and every mutation batch is either acknowledged
//! (and visible) or reported lost — never silently dropped.

use adaptive_data_skipping::core::adaptive::{AdaptiveConfig, AdaptiveZonemap};
use adaptive_data_skipping::core::{
    PruneOutcome, RangeObservation, RangePredicate, ScanObservation, SkippingIndex,
};
use adaptive_data_skipping::engine::{execute, execute_reference, AggKind};
use adaptive_data_skipping::storage::RowRange;
use adaptive_data_skipping::workloads::data;
use ads_server::{
    AdaptationMode, Mutation, QueryService, Reply, Request, ServerConfig, SubmitError,
};
use std::time::Instant;

fn config() -> AdaptiveConfig {
    AdaptiveConfig {
        target_zone_rows: 256,
        min_zone_rows: 32,
        max_zone_rows: 2048,
        maintenance_every: 2,
        ..AdaptiveConfig::default()
    }
}

fn assert_sound(zm: &mut AdaptiveZonemap<i64>, column: &[i64]) {
    for q in 0..10 {
        let lo = (q * 997) % 40_000;
        let pred = RangePredicate::between(lo, lo + 2_000);
        let (got, _) = execute(column, zm, pred, AggKind::Count);
        let want = execute_reference(column, pred, AggKind::Count);
        assert_eq!(got.count, want.count);
    }
    zm.assert_invariants();
}

#[test]
fn misaligned_observations_are_ignored() {
    let column = data::uniform(10_000, 50_000, 1);
    let mut zm = AdaptiveZonemap::new(column.len(), config());
    let pred = RangePredicate::between(0, 1000);
    // Ranges that match no zone boundary, including out-of-phase and
    // overlapping ones. A naive implementation would install their
    // (min, max) as zone metadata and break soundness.
    let hostile = ScanObservation {
        predicate: pred,
        ranges: vec![
            RangeObservation::new(RowRange::new(13, 217), 0, 40_000, 40_001),
            RangeObservation::new(RowRange::new(100, 900), 0, 49_000, 49_001),
            RangeObservation::new(RowRange::new(0, column.len()), 0, 49_000, 49_001),
        ],
        walk: PruneOutcome::default(),
    };
    for _ in 0..5 {
        zm.observe(&hostile);
    }
    assert_eq!(zm.trace().totals().built, 0, "nothing zone-exact was fed");
    assert_sound(&mut zm, &column);
}

#[test]
fn empty_and_degenerate_observations() {
    let column = data::uniform(5_000, 50_000, 2);
    let mut zm = AdaptiveZonemap::new(column.len(), config());
    let pred = RangePredicate::all();
    zm.observe(&ScanObservation {
        predicate: pred,
        ranges: Vec::new(),
        walk: PruneOutcome::default(),
    });
    // Observation for a range beyond the column end: no zone starts there,
    // so it must be ignored rather than panic.
    zm.observe(&ScanObservation {
        predicate: pred,
        ranges: vec![RangeObservation::new(
            RowRange::new(column.len() + 10, column.len() + 20),
            0,
            0,
            0,
        )],
        walk: PruneOutcome::default(),
    });
    assert_sound(&mut zm, &column);
}

#[test]
fn stale_observations_after_structural_change_stay_sound() {
    // Capture a prune's units, reorganise the index via other queries,
    // then feed the stale observation. Ranges that no longer match a zone
    // exactly must be ignored; ranges that still match update metadata
    // with values that are exact for those rows (the data is immutable),
    // so soundness holds either way.
    let column = data::uniform(20_000, 50_000, 3);
    let mut zm = AdaptiveZonemap::new(column.len(), config());
    let pred = RangePredicate::between(0, 25_000);
    let out = zm.prune(&pred);
    let stale: Vec<RangeObservation<i64>> = out
        .units
        .iter()
        .map(|u| {
            let u = u.range;
            let (q, min, max) = adaptive_data_skipping::storage::scan::count_in_range_with_minmax(
                &column[u.start..u.end],
                pred.lo,
                pred.hi,
            );
            RangeObservation::new(u, q, min, max)
        })
        .collect();
    // Reorganise with live queries in between.
    for q in 0..30 {
        let lo = (q * 911) % 40_000;
        let p = RangePredicate::between(lo, lo + 1_000);
        let _ = execute(&column, &mut zm, p, AggKind::Count);
    }
    zm.observe(&ScanObservation {
        predicate: pred,
        ranges: stale,
        walk: out,
    });
    assert_sound(&mut zm, &column);
}

#[test]
fn observation_with_wrong_qualifying_count_cannot_break_answers() {
    // `qualifying` only drives *policy* (selectivity stats); lying about
    // it may cause bad adaptation decisions but never wrong answers.
    let column = data::sorted(10_000, 50_000);
    let mut zm = AdaptiveZonemap::new(column.len(), config());
    let pred = RangePredicate::between(10_000, 12_000);
    let out = zm.prune(&pred);
    let lying: Vec<RangeObservation<i64>> = out
        .units
        .iter()
        .map(|u| {
            let u = u.range;
            let (_, min, max) = adaptive_data_skipping::storage::scan::count_in_range_with_minmax(
                &column[u.start..u.end],
                pred.lo,
                pred.hi,
            );
            // Exaggerate wildly; min/max stay honest (they are the part
            // with soundness weight).
            RangeObservation::new(u, u.len(), min, max)
        })
        .collect();
    zm.observe(&ScanObservation {
        predicate: pred,
        ranges: lying,
        walk: out,
    });
    assert_sound(&mut zm, &column);
}

// --------------------------------------------------- server mutation path

/// Shed admission and deadline expiry during a delete storm: a request
/// is answered exactly, handed back as [`SubmitError::Shed`], or
/// replied [`Reply::DeadlineMissed`] — never answered wrongly, and the
/// storm's tombstones are never miscounted into any reply.
#[test]
fn shed_and_deadline_during_delete_storm() {
    let base = data::uniform(60_000, 50_000, 7);
    let svc = QueryService::start(
        base.clone(),
        ServerConfig {
            readers: 1,
            shards: 4,
            queue_capacity: 2,
            // Frozen: the zonemap never builds, every query is a full
            // scan — the slow-consumer regime where shedding happens.
            adaptation: AdaptationMode::Frozen,
            ..ServerConfig::default()
        },
    );
    let mut dead = vec![false; base.len()];
    let pred = RangePredicate::between(0i64, 25_000);
    let in_range = |v: i64| (0..=25_000).contains(&v);

    let mut answered = 0u64;
    let mut shed = 0u64;
    for round in 0..6usize {
        // One storm batch between bursts, acked before the next query is
        // submitted, so every answered burst query sees exactly it.
        let batch: Vec<Mutation<i64>> = (round * 600..round * 600 + 400)
            .map(Mutation::Delete)
            .collect();
        assert_eq!(svc.mutate(batch).expect("maintenance lives"), 400);
        for d in dead.iter_mut().skip(round * 600).take(400) {
            *d = true;
        }
        let want = base
            .iter()
            .zip(&dead)
            .filter(|&(&v, &d)| !d && in_range(v))
            .count() as u64;

        // A burst into a 2-slot queue with one slow reader: some of these
        // are shed; the rest must answer exactly.
        let mut tickets = Vec::new();
        for _ in 0..24 {
            match svc.submit(Request::new(pred, AggKind::Count)) {
                Ok(t) => tickets.push(t),
                Err(SubmitError::Shed(_)) => shed += 1,
                Err(SubmitError::ShuttingDown(_)) => panic!("not shutting down"),
            }
        }
        for t in tickets {
            match t.wait() {
                Reply::Answer { answer, .. } => {
                    assert_eq!(answer.count, want, "round {round}: storm miscounted");
                    answered += 1;
                }
                Reply::DeadlineMissed => panic!("no deadline set"),
            }
        }
    }
    assert!(answered > 0, "no burst query was ever answered");

    // An already-expired deadline is reported, not answered — and never
    // wrongly: the service keeps answering exactly afterwards.
    let expired = Request {
        predicate: pred,
        agg: AggKind::Count,
        deadline: Some(Instant::now()),
    };
    match svc.submit(expired).expect("queue is idle").wait() {
        Reply::DeadlineMissed => {}
        Reply::Answer { .. } => panic!("expired request was scanned anyway"),
    }
    let want = base
        .iter()
        .zip(&dead)
        .filter(|&(&v, &d)| !d && in_range(v))
        .count() as u64;
    let reply = svc.query(pred, AggKind::Count).expect("closed loop");
    assert_eq!(reply.answer().expect("no deadline").count, want);

    let stats = svc.shutdown();
    assert_eq!(stats.shed, shed, "every shed must be counted");
    assert!(stats.deadline_missed >= 1);
    assert_eq!(stats.deltas_pending, 0, "acked deltas left pending");
}

/// A flush barrier racing an explicit compaction: both block until
/// their state is published, queries concurrent with the race answer
/// exactly throughout (value aggregates are invariant under
/// compaction), and afterwards the store is fully reclaimed.
#[test]
fn flush_barrier_racing_compaction_stays_exact() {
    let base = data::sorted(40_000, 50_000);
    let svc = QueryService::start(
        base.clone(),
        ServerConfig {
            readers: 2,
            shards: 4,
            ..ServerConfig::default()
        },
    );
    // Tombstone a contiguous band, acked before the race starts.
    let batch: Vec<Mutation<i64>> = (1_000..3_000).map(Mutation::Delete).collect();
    assert_eq!(svc.mutate(batch).expect("maintenance lives"), 2_000);
    let pred = RangePredicate::between(0i64, 20_000);
    let want: u64 = base
        .iter()
        .enumerate()
        .filter(|&(i, &v)| !(1_000..3_000).contains(&i) && (0..=20_000).contains(&v))
        .count() as u64;

    std::thread::scope(|scope| {
        let compactor = scope.spawn(|| svc.compact().expect("maintenance lives"));
        let flusher = scope.spawn(|| svc.flush());
        // Queries racing both barriers: compaction moves rows, never
        // answers.
        for _ in 0..20 {
            let reply = svc.query(pred, AggKind::Count).expect("closed loop");
            assert_eq!(
                reply.answer().expect("no deadline").count,
                want,
                "answer drifted during the flush/compaction race"
            );
        }
        assert_eq!(compactor.join().expect("no panic"), 2_000);
        flusher.join().expect("no panic");
    });

    // The race settled into a fully-reclaimed store: nothing left to
    // compact, answers unchanged.
    assert_eq!(svc.compact().expect("maintenance lives"), 0);
    let reply = svc.query(pred, AggKind::Count).expect("closed loop");
    assert_eq!(reply.answer().expect("no deadline").count, want);
    let stats = svc.shutdown();
    assert_eq!(stats.rows_reclaimed, 2_000);
    assert_eq!(stats.deltas_pending, 0);
}

/// Shutdown after concurrent mutators: every batch a mutator submitted
/// was acknowledged with its exact applied count before `mutate`
/// returned — so at shutdown nothing is pending, nothing was silently
/// dropped, and the survivors are exactly the undeleted rows.
#[test]
fn shutdown_accounts_for_every_queued_mutation() {
    let base = data::uniform(30_000, 50_000, 11);
    let rows = base.len();
    let svc = QueryService::start(
        base,
        ServerConfig {
            readers: 2,
            shards: 8,
            ..ServerConfig::default()
        },
    );

    // Four mutators over disjoint rowid bands (so applied counts are
    // deterministic), racing a reader thread.
    std::thread::scope(|scope| {
        for t in 0..4usize {
            let svc = &svc;
            scope.spawn(move || {
                for chunk in 0..10 {
                    let start = t * 1_000 + chunk * 100;
                    let batch: Vec<Mutation<i64>> =
                        (start..start + 50).map(Mutation::Delete).collect();
                    // The ack-or-Lost contract: a live service always
                    // acks, and with the exact applied count.
                    assert_eq!(svc.mutate(batch).expect("maintenance lives"), 50);
                }
            });
        }
        let svc = &svc;
        scope.spawn(move || {
            for _ in 0..30 {
                let reply = svc
                    .query(RangePredicate::all(), AggKind::Count)
                    .expect("closed loop");
                // Racing deletes: the count is some prefix of the storm,
                // never more than the store or less than the survivors.
                let count = reply.answer().expect("no deadline").count;
                assert!(count <= rows as u64);
                assert!(count >= (rows - 2_000) as u64);
            }
        });
    });

    // All mutators acked: the survivors are exact.
    let reply = svc
        .query(RangePredicate::all(), AggKind::Count)
        .expect("closed loop");
    assert_eq!(
        reply.answer().expect("no deadline").count,
        (rows - 2_000) as u64
    );

    let stats = svc.shutdown();
    assert_eq!(stats.mutations_applied, 2_000);
    assert_eq!(stats.deltas_pending, 0, "unacked mutations at shutdown");
    assert_eq!(stats.tombstone_ppm, (2_000 * 1_000_000 / rows) as u64);
}
