//! Model-checked protocol suites: the concurrency protocols of the
//! server — snapshot publish/read, lane isolation, queue admission,
//! shutdown drain, stats, tier publication, mutation
//! (delta-publication and compaction), lane identity across a
//! compaction, and the scan helpers' job board — exhaustively verified
//! at small scale by `ads-check`.
//!
//! Built only under `--features check`, which swaps every primitive the
//! server imports through `src/sync.rs` for the recording shims — these
//! tests drive the *production* `SnapshotCell` / `ShardedCell` /
//! `Bounded` / `StatsCollector` / `Board` code, not models of it. Every
//! interleaving and every weak-memory-legal read visibility within the
//! configured bounds is explored; a single failing execution panics the
//! test with the violating trace.
//!
//! Two suites seed a known bug and assert the checker *finds* it — the
//! soundness witnesses for everything else: the generation read
//! downgraded to `Relaxed` (the shape PR 2's snapshot cache would have
//! had without its Acquire), and a job-board cursor whose claim is a
//! load and a store instead of one `fetch_add`.

#![cfg(feature = "check")]

use ads_check::sync::atomic::{AtomicU64, Ordering};
use ads_check::sync::{thread, Arc};
use ads_check::{model, try_model, Config};
use ads_core::adaptive::{AdaptiveConfig, AdaptiveZonemap};
use ads_core::{RangeObservation, RangePredicate, ScanObservation, SkippingIndex};
use ads_engine::{scan_sharded, AggKind, ExecPolicy, ShardScanInput};
use ads_server::{
    help_loop, Board, Bounded, Mutation, Owner, OwnerTotals, PushError, Runs, ShardSnapshot,
    ShardedCell, SnapshotCell, StatsCollector,
};
use ads_storage::{DeleteVector, SharedColumn};

// ------------------------------------------------- SnapshotCell publish/read

/// The publish/read protocol: a reader's cache never observes a
/// generation ahead of its snapshot payload. Payload u64 = publication
/// number, so the invariant is `*snap >= recorded generation`.
#[test]
fn snapshot_cell_reader_never_ahead_of_payload() {
    let explored = model(|| {
        let cell = Arc::new(SnapshotCell::new(0u64));
        let c2 = Arc::clone(&cell);
        let writer = thread::spawn(move || {
            c2.publish(1);
            c2.publish(2);
        });
        let mut cache = cell.cache();
        for _ in 0..2 {
            let v = **cache.refresh(&cell);
            let g = cache.generation();
            assert!(
                v >= g,
                "cache recorded generation {g} but payload is {v}: \
                 the Acquire/Release pair is broken"
            );
        }
        writer.join().unwrap();
        // After the join, everything is synchronized: the reader must
        // observe the final publication.
        assert_eq!(**cache.refresh(&cell), 2);
        assert_eq!(cell.generation(), 2);
    });
    assert!(explored.executions > 1, "explored {explored:?}");
}

/// Observed snapshot versions are monotone: a refresh never goes
/// backwards, no matter how publications interleave with it.
#[test]
fn snapshot_cell_refresh_is_monotone() {
    model(|| {
        let cell = Arc::new(SnapshotCell::new(0u64));
        let c2 = Arc::clone(&cell);
        let writer = thread::spawn(move || {
            c2.publish(1);
            c2.publish(2);
        });
        let mut cache = cell.cache();
        let mut last = **cache.current();
        for _ in 0..2 {
            let v = **cache.refresh(&cell);
            assert!(v >= last, "snapshot went backwards: {last} -> {v}");
            last = v;
        }
        writer.join().unwrap();
    });
}

/// Two concurrent readers each hold the invariant independently (reader
/// caches share no state).
#[test]
fn snapshot_cell_two_readers() {
    model(|| {
        let cell = Arc::new(SnapshotCell::new(0u64));
        let c2 = Arc::clone(&cell);
        let writer = thread::spawn(move || c2.publish(1));
        let c3 = Arc::clone(&cell);
        let reader = thread::spawn(move || {
            let mut cache = cell3_refresh_once(&c3);
            let v = **cache.refresh(&c3);
            assert!(v >= cache.generation());
        });
        let mut cache = cell.cache();
        let v = **cache.refresh(&cell);
        assert!(v >= cache.generation());
        writer.join().unwrap();
        reader.join().unwrap();
    });
}

/// Helper keeping the closure above readable: a fresh cache for `cell`.
fn cell3_refresh_once(cell: &SnapshotCell<u64>) -> ads_server::SnapshotCache<u64> {
    cell.cache()
}

// ----------------------------------------------- ShardedCell lane isolation

fn shard_snap(start: usize, rows: usize, version: u64) -> ShardSnapshot<i64> {
    ShardSnapshot {
        data: SharedColumn::new((0..rows as i64).collect()),
        delete: Arc::new(DeleteVector::new(rows, version)),
        zonemap: AdaptiveZonemap::new(rows, AdaptiveConfig::default()),
        start,
        version,
    }
}

/// Publishing into lane 1 never perturbs lane 0: under every
/// interleaving the untouched lane's generation stays 0 and a reader's
/// cached Arc for it stays the same allocation.
#[test]
fn sharded_cell_publish_isolates_lanes() {
    model(|| {
        let cell = Arc::new(ShardedCell::new(vec![
            shard_snap(0, 4, 0),
            shard_snap(4, 4, 0),
        ]));
        let mut cache = cell.cache();
        let lane0_before = std::sync::Arc::as_ptr(cache.lanes()[0].current());

        let c2 = Arc::clone(&cell);
        let writer = thread::spawn(move || c2.publish_shard(1, shard_snap(4, 4, 1)));

        cache.refresh(&cell);
        assert_eq!(
            std::sync::Arc::as_ptr(cache.lanes()[0].current()),
            lane0_before,
            "publishing lane 1 invalidated lane 0's cached Arc"
        );
        assert_eq!(cache.lanes()[0].generation(), 0);
        let lane1 = cache.lanes()[1].current();
        assert!(lane1.version <= 1);
        assert!(lane1.version as u64 >= cache.lanes()[1].generation());

        writer.join().unwrap();
        cache.refresh(&cell);
        assert_eq!(cache.lanes()[1].current().version, 1);
        assert_eq!(
            (cell.lane(0).generation(), cell.lane(1).generation()),
            (0, 1)
        );
    });
}

// ------------------------------------------------------ Bounded queue

/// Delivery: everything two concurrent producers push is popped exactly
/// once — no loss, no duplication — and the drain sum proves it.
#[test]
fn queue_no_lost_or_duplicated_items() {
    model(|| {
        let q = Arc::new(Bounded::new(2));
        let q1 = Arc::clone(&q);
        let p1 = thread::spawn(move || q1.try_push(1u64).is_ok());
        let q2 = Arc::clone(&q);
        let p2 = thread::spawn(move || q2.try_push(2u64).is_ok());
        let accepted = [p1.join().unwrap(), p2.join().unwrap()];
        // Capacity 2 and exactly 2 pushes: nothing can be shed.
        assert_eq!(accepted, [true, true]);
        let mut sum = 0u64;
        for _ in 0..2 {
            sum += q.pop().expect("accepted item lost");
        }
        assert_eq!(sum, 3, "items lost or duplicated");
        q.close();
        assert_eq!(q.pop(), None);
    });
}

/// Shedding: with capacity 1, two concurrent pushes admit at least one
/// item; a rejected push always reports Full (not a silent drop), and
/// exactly the accepted items come back out.
#[test]
fn queue_sheds_only_when_full() {
    model(|| {
        let q = Arc::new(Bounded::new(1));
        let q1 = Arc::clone(&q);
        let p1 = thread::spawn(move || match q1.try_push(1u64) {
            Ok(()) => 1u64,
            Err(PushError::Full(v)) => {
                assert_eq!(v, 1, "shed must hand the item back");
                0
            }
            Err(PushError::Closed(_)) => panic!("queue closed early"),
        });
        let q2 = Arc::clone(&q);
        let p2 = thread::spawn(move || match q2.try_push(2u64) {
            Ok(()) => 1u64,
            Err(PushError::Full(v)) => {
                assert_eq!(v, 2, "shed must hand the item back");
                0
            }
            Err(PushError::Closed(_)) => panic!("queue closed early"),
        });
        let accepted = p1.join().unwrap() + p2.join().unwrap();
        assert!(accepted >= 1, "capacity-1 queue shed both pushes");
        for _ in 0..accepted {
            assert!(q.pop().is_some(), "accepted item lost");
        }
        q.close();
        assert_eq!(q.pop(), None, "popped more than was accepted");
    });
}

/// FIFO: one producer's order is preserved through a concurrent
/// blocking consumer (exercises the condvar wait/notify path under all
/// interleavings).
#[test]
fn queue_fifo_through_blocking_consumer() {
    model(|| {
        let q = Arc::new(Bounded::new(2));
        let qc = Arc::clone(&q);
        let consumer = thread::spawn(move || {
            let a = qc.pop().expect("open queue returned None");
            let b = qc.pop().expect("open queue returned None");
            (a, b)
        });
        q.try_push(1u64).unwrap();
        q.try_push(2u64).unwrap();
        let (a, b) = consumer.join().unwrap();
        assert_eq!((a, b), (1, 2), "FIFO order violated");
    });
}

// ------------------------------------------------- graceful shutdown drain

/// The shutdown contract: close() concurrent with a draining consumer
/// never drops accepted work — the consumer receives every queued item
/// (in order) and then None, under every interleaving.
#[test]
fn shutdown_drains_accepted_work() {
    model(|| {
        let q = Arc::new(Bounded::new(4));
        q.try_push(1u64).unwrap();
        q.try_push(2u64).unwrap();
        let qc = Arc::clone(&q);
        let consumer = thread::spawn(move || {
            let mut got = Vec::new();
            while let Some(v) = qc.pop() {
                got.push(v);
            }
            got
        });
        q.close();
        let got = consumer.join().unwrap();
        assert_eq!(got, vec![1, 2], "close dropped accepted work");
        assert_eq!(q.pop(), None, "queue reopened after close");
    });
}

/// close() wakes every blocked consumer (notify_all): two consumers
/// parked on an empty queue both return None instead of deadlocking —
/// the checker reports a lost wakeup as a deadlock failure.
#[test]
fn shutdown_wakes_all_blocked_consumers() {
    model(|| {
        let q = Arc::new(Bounded::<u64>::new(2));
        let q1 = Arc::clone(&q);
        let c1 = thread::spawn(move || q1.pop());
        let q2 = Arc::clone(&q);
        let c2 = thread::spawn(move || q2.pop());
        q.close();
        assert_eq!(c1.join().unwrap(), None);
        assert_eq!(c2.join().unwrap(), None);
    });
}

// --------------------------------------------------- stats / adaptation lag

/// The queued/applied race, pinned: the worker records `queued` *after*
/// handing feedback to the channel, so the maintenance thread can
/// record `applied` first and a concurrent snapshot() can read
/// applied > queued. adaptation_lag must saturate to 0 in that case —
/// never wrap to a huge value.
#[test]
fn stats_adaptation_lag_never_negative() {
    model(|| {
        let stats = Arc::new(StatsCollector::new(1));
        let s1 = Arc::clone(&stats);
        let worker = thread::spawn(move || s1.record_feedback_queued());
        let s2 = Arc::clone(&stats);
        let maint = thread::spawn(move || s2.record_feedback_applied(1));
        let snap = stats.snapshot(0, OwnerTotals::default());
        assert!(
            snap.adaptation_lag <= 1,
            "lag wrapped: {} (queued/applied cut raced)",
            snap.adaptation_lag
        );
        worker.join().unwrap();
        maint.join().unwrap();
        let final_snap = stats.snapshot(0, OwnerTotals::default());
        assert_eq!(final_snap.adaptation_lag, 0);
        assert_eq!(final_snap.feedback_applied, 1);
    });
}

// ----------------------------------------------------------- seeded bug

/// The snapshot-cache shape with its Acquire generation load downgraded
/// to Relaxed — the bug the `ordering-comment` lint and these suites
/// exist to prevent. The checker MUST find the execution where the
/// reader sees the new generation but stale data; x86 TSO hardware
/// never exhibits it, which is exactly why it needs a model checker.
#[test]
fn seeded_relaxed_generation_read_is_caught() {
    let report = try_model(Config::default(), || {
        let generation = Arc::new(AtomicU64::new(0));
        let payload = Arc::new(AtomicU64::new(0));
        let (g, p) = (Arc::clone(&generation), Arc::clone(&payload));
        let writer = thread::spawn(move || {
            // ordering: Relaxed — publication payload; would be ordered
            // by the Release bump below, as in SnapshotCell::publish.
            p.store(1, Ordering::Relaxed);
            // ordering: Release — publishes the payload store.
            g.store(1, Ordering::Release);
        });
        // ordering: Relaxed — BUG under test: SnapshotCache::refresh
        // without its Acquire. Nothing synchronizes with the writer.
        if generation.load(Ordering::Relaxed) == 1 {
            // ordering: Relaxed — may legally observe the stale 0.
            assert_eq!(
                payload.load(Ordering::Relaxed),
                1,
                "generation visible but payload stale"
            );
        }
        writer.join().unwrap();
    })
    .expect_err("the Relaxed generation read must be caught");
    assert!(report.contains("panicked"), "unexpected report: {report}");
}

/// The corrected pairing (the shape SnapshotCell actually uses) passes
/// the identical harness — the seeded failure above is the ordering's
/// fault, not the harness's.
#[test]
fn corrected_acquire_generation_read_is_clean() {
    model(|| {
        let generation = Arc::new(AtomicU64::new(0));
        let payload = Arc::new(AtomicU64::new(0));
        let (g, p) = (Arc::clone(&generation), Arc::clone(&payload));
        let writer = thread::spawn(move || {
            // ordering: Relaxed — ordered by the Release bump below.
            p.store(1, Ordering::Relaxed);
            // ordering: Release — publishes the payload store.
            g.store(1, Ordering::Release);
        });
        // ordering: Acquire — pairs with the writer's Release, exactly
        // as SnapshotCache::refresh does.
        if generation.load(Ordering::Acquire) == 1 {
            // ordering: Relaxed — ordered by the Acquire load above.
            assert_eq!(payload.load(Ordering::Relaxed), 1);
        }
        writer.join().unwrap();
    });
}

// ------------------------------------------- Tier publication protocol

/// The 4-row column the lane-protocol snapshots below are built over.
fn four_rows() -> Vec<i64> {
    vec![3, 1, 2, 0]
}

/// A lane over [`four_rows`] whose single zone carries a bloom sketch
/// tier: one inline query earns the scan, `apply_tiers` builds the
/// sketch (both on the owner's side, before any publication). Value 7 is
/// absent from the data and verified rejected by the sketch, so a tier
/// probe for it must skip the zone.
fn tier_snap(version: u64) -> ShardSnapshot<i64> {
    let data = four_rows();
    let mut zm = AdaptiveZonemap::new(
        data.len(),
        AdaptiveConfig {
            tier_after_scans: 1,
            tier_drop_after: 1,
            ..AdaptiveConfig::with_tiers()
        },
    );
    let pred = RangePredicate::point(2);
    let outcome = SkippingIndex::prune(&mut zm, &pred);
    let ranges = outcome
        .units
        .iter()
        .map(|u| {
            let u = u.range;
            let (q, min, max) =
                ads_storage::scan::count_in_range_with_minmax(&data[u.start..u.end], 2, 2);
            RangeObservation::new(u, q, min, max)
        })
        .collect();
    zm.observe(&ScanObservation {
        predicate: pred,
        ranges,
        walk: outcome,
    });
    zm.apply_tiers(&data);
    assert_eq!(
        zm.trace().totals().tier_built,
        1,
        "setup must build the sketch"
    );
    ShardSnapshot {
        delete: Arc::new(DeleteVector::new(data.len(), 0)),
        data: SharedColumn::new(data),
        zonemap: zm,
        start: 0,
        version,
    }
}

/// Tier build publishes flag and sketch payload as ONE snapshot swap:
/// under every interleaving a refreshing reader sees either the old
/// untiered lane or the new lane whose sketch actually answers — never a
/// tier flag without its payload.
#[test]
fn tier_build_publishes_flag_and_sketch_atomically() {
    model(|| {
        let cell = Arc::new(ShardedCell::new(vec![shard_snap(0, 4, 0)]));
        let c2 = Arc::clone(&cell);
        let writer = thread::spawn(move || c2.publish_shard(0, tier_snap(1)));
        let mut cache = cell.cache();
        cache.refresh(&cell);
        let snap = cache.lanes()[0].current();
        if snap.version == 0 {
            assert_eq!(
                snap.zonemap.zones_tiered(),
                0,
                "pre-tier snapshot carries a tier flag"
            );
        } else {
            assert_eq!(
                snap.zonemap.zones_tiered(),
                1,
                "published lane lost its tier"
            );
            // The flag is backed by a live sketch: a shared prune for the
            // absent value 7 is excluded by the tier, not scanned (the
            // zone's [0, 3] bounds overlap the probe, so only the sketch
            // can have skipped it).
            let out = snap.zonemap.prune_shared(&RangePredicate::point(7));
            assert_eq!(out.zones_skipped, 1, "tier flag without a payload");
            assert!(out.units.is_empty(), "sketch present but not consulted");
        }
        writer.join().unwrap();
        cache.refresh(&cell);
        assert_eq!(cache.lanes()[0].current().zonemap.zones_tiered(), 1);
    });
}

/// Dropping a tier on the owner's authoritative copy cannot race a
/// reader's held snapshot: the sketch Arc is shared copy-on-write, so
/// the owner retiring its reference (and republishing an untiered lane)
/// leaves the reader's sketch fully usable under every interleaving.
#[test]
fn tier_drop_cannot_invalidate_a_held_snapshot() {
    model(|| {
        let snap = tier_snap(1);
        // The owner's authoritative copy shares the sketch Arc with the
        // snapshot about to be published.
        let owner_zm = snap.zonemap.clone();
        let cell = Arc::new(ShardedCell::new(vec![snap]));
        let mut cache = cell.cache();
        cache.refresh(&cell);
        let held = std::sync::Arc::clone(cache.lanes()[0].current());

        let c2 = Arc::clone(&cell);
        let writer = thread::spawn(move || {
            let mut zm = owner_zm;
            let data = four_rows();
            // A hitless consultation: value 3 is present, so the sketch
            // admits it and the zone scans anyway. The 1-probe drop
            // window then judges the tier useless and retires it.
            inline_query(&mut zm, &data, RangePredicate::point(3));
            let dropped = zm.trace().totals().tier_dropped;
            zm.apply_tiers(&data);
            assert_eq!(
                zm.trace().totals().tier_dropped - dropped,
                1,
                "owner must drop the hitless tier"
            );
            c2.publish_shard(
                0,
                ShardSnapshot {
                    delete: Arc::new(DeleteVector::new(data.len(), 0)),
                    data: SharedColumn::new(data),
                    zonemap: zm,
                    start: 0,
                    version: 2,
                },
            );
        });

        // Concurrent with the drop: the held snapshot keeps consulting
        // its sketch, still excluding the absent value.
        assert_eq!(held.zonemap.zones_tiered(), 1);
        let out = held.zonemap.prune_shared(&RangePredicate::point(7));
        assert_eq!(out.zones_skipped, 1);
        assert!(out.units.is_empty());

        writer.join().unwrap();
        cache.refresh(&cell);
        let fresh = cache.lanes()[0].current();
        assert_eq!(fresh.version, 2);
        assert_eq!(fresh.zonemap.zones_tiered(), 0, "drop published");
    });
}

// ------------------------------------------- Demand-driven feedback protocol

/// One zone over [`four_rows`] that deactivation retires after a single
/// fruitless probe and revival hands back, one query later, as one
/// unbuilt zone over the same four rows — so feedback from a reader that
/// pruned any earlier state still aligns with the zone.
fn revival_config() -> AdaptiveConfig {
    AdaptiveConfig {
        target_zone_rows: 4,
        min_zone_rows: 2,
        max_zone_rows: 4,
        enable_split: false,
        deactivate_after_probes: 1,
        maintenance_every: 1,
        revival_base_queries: Some(1),
        ..AdaptiveConfig::default()
    }
}

/// One inline query on the owner's side: prune, scan exactly what the
/// prune asked for, observe.
fn inline_query(zm: &mut AdaptiveZonemap<i64>, data: &[i64], pred: RangePredicate<i64>) {
    let outcome = SkippingIndex::prune(zm, &pred);
    let obs = scan_as_asked(data, &outcome, pred).1;
    zm.observe(&obs);
}

/// The production scan over one lane: `(count, feedback)`, the feedback
/// carrying only the by-products `outcome` requested.
fn scan_as_asked(
    data: &[i64],
    outcome: &ads_core::PruneOutcome,
    pred: RangePredicate<i64>,
) -> (u64, ScanObservation<i64>) {
    let lane = ShardScanInput {
        data,
        outcome,
        start: 0,
        live: None,
    };
    let mut result = scan_sharded(&[lane], pred, AggKind::Count, &ExecPolicy::sequential());
    let obs = result.observations.pop().expect("one lane, one batch");
    (result.answer.count, obs)
}

/// No zone is `Built` with bounds that do not cover its rows: whatever
/// the metadata says, a point probe for any value the column holds must
/// still reach that value's row.
fn assert_bounds_cover_rows(zm: &AdaptiveZonemap<i64>, data: &[i64], when: &str) {
    for (row, &v) in data.iter().enumerate() {
        let out = zm.prune_shared(&RangePredicate::point(v));
        assert!(
            out.unit_set().contains(row) || out.full_match.contains(row),
            "{when}: row {row} (value {v}) excluded by zone metadata {:?}",
            zm.zone_snapshot()
        );
    }
}

/// The stale-snapshot case of the demand-driven feedback protocol. The
/// maintenance thread builds the zone, retires it and revives it —
/// publishing after each step — and only then applies the reader's
/// feedback. The reader prunes whichever publication it happens to see
/// (unbuilt: bounds requested; exact or dead: nothing requested) and its
/// scan reports exactly that. Under every interleaving the late feedback
/// leaves sound metadata: bounds-less evidence never builds the revived
/// zone, bounds-carrying evidence builds it from real bounds.
#[test]
fn boundsless_feedback_across_revival_never_builds_unsound_bounds() {
    let explored = model(|| {
        let data = four_rows();
        let pred = RangePredicate::between(1, 2);
        let snap = |zm: &AdaptiveZonemap<i64>, version: u64| ShardSnapshot {
            delete: Arc::new(DeleteVector::new(4, 0)),
            data: SharedColumn::new(four_rows()),
            zonemap: zm.clone(),
            start: 0,
            version,
        };
        let mut zm = AdaptiveZonemap::new(data.len(), revival_config());
        let cell = Arc::new(ShardedCell::new(vec![snap(&zm, 0)]));
        let feedback = Arc::new(Bounded::new(1));

        let (c2, f2) = (Arc::clone(&cell), Arc::clone(&feedback));
        let maintenance = thread::spawn(move || {
            let data = four_rows();
            inline_query(&mut zm, &data, pred);
            assert_eq!(zm.zone_snapshot()[0].1, "built");
            c2.publish_shard(0, snap(&zm, 1));
            inline_query(&mut zm, &data, pred);
            assert_eq!(zm.zone_snapshot()[0].1, "dead");
            c2.publish_shard(0, snap(&zm, 2));
            assert!(zm.poll_revival(), "the dead zone is due");
            assert_eq!(zm.zone_snapshot()[0].1, "unbuilt");
            c2.publish_shard(0, snap(&zm, 3));

            let obs: ScanObservation<i64> = f2.pop().expect("reader always reports");
            let asked_bounds = obs.ranges[0].bounds.is_some();
            zm.apply_feedback(&obs);
            assert_bounds_cover_rows(&zm, &data, "after stale feedback");
            assert_eq!(
                zm.zone_snapshot()[0].1,
                if asked_bounds { "built" } else { "unbuilt" },
                "feedback with bounds: {asked_bounds}"
            );
            c2.publish_shard(0, snap(&zm, 4));
        });

        let mut cache = cell.cache();
        cache.refresh(&cell);
        let held = std::sync::Arc::clone(cache.lanes()[0].current());
        let outcome = held.zonemap.prune_shared(&pred);
        // Only a zone still unbuilt in the snapshot asks for its bounds.
        let unbuilt = matches!(held.version, 0 | 3);
        assert_eq!(outcome.units[0].request.bounds, unbuilt);
        let (count, obs) = scan_as_asked(held.data.as_slice(), &outcome, pred);
        assert_eq!(count, 2, "stale metadata changed an answer");
        assert_eq!(obs.ranges[0].bounds.is_some(), unbuilt);
        feedback.try_push(obs).expect("capacity for the one report");

        maintenance.join().unwrap();
        cache.refresh(&cell);
        let fin = cache.lanes()[0].current();
        assert_eq!(fin.version, 4);
        assert_bounds_cover_rows(&fin.zonemap, &data, "final publication");
    });
    assert!(explored.executions > 1, "explored {explored:?}");
}

// ------------------------------------------------ Mutation delta publication

/// Builds the post-mutation snapshot of the delta-publication protocol:
/// same four rows, row 1 tombstoned, delete vector stamped with mutation
/// epoch 1, column republished as version 1.
fn deleted_snap() -> ShardSnapshot<i64> {
    let mut dv = DeleteVector::new(4, 0);
    assert!(dv.delete(1));
    dv.set_epoch(1);
    ShardSnapshot {
        data: SharedColumn::new(vec![10, 11, 12, 13]),
        delete: Arc::new(dv),
        zonemap: AdaptiveZonemap::new(4, AdaptiveConfig::default()),
        start: 0,
        version: 1,
    }
}

/// The delta-publication protocol: data and tombstones travel in ONE
/// snapshot swap, so a reader never observes a delete without the
/// mutation epoch that explains it (or vice versa). Under every
/// interleaving the reader sees exactly the pre state (all live, epoch
/// 0) or exactly the post state (row 1 dead, epoch 1) — never a torn
/// mixture such as a tombstone still stamped epoch 0.
#[test]
fn mutation_delta_publishes_deletes_with_their_epoch() {
    let explored = model(|| {
        let cell = Arc::new(ShardedCell::new(vec![shard_snap(0, 4, 0)]));
        let c2 = Arc::clone(&cell);
        let writer = thread::spawn(move || c2.publish_shard(0, deleted_snap()));

        let mut cache = cell.cache();
        cache.refresh(&cell);
        let snap = cache.lanes()[0].current();
        if snap.version == 0 {
            assert_eq!(snap.delete.epoch(), 0, "pre snapshot with future epoch");
            assert!(!snap.delete.has_deletes(), "delete leaked into version 0");
            assert_eq!(snap.delete.live_count(), 4);
        } else {
            assert_eq!(snap.version, 1);
            assert_eq!(
                snap.delete.epoch(),
                1,
                "reader observed a delete batch without its epoch"
            );
            assert!(snap.delete.is_deleted(1), "epoch moved without its delete");
            assert_eq!(snap.delete.live_count(), 3);
        }
        // Either way the pair is internally consistent: the vector covers
        // exactly the rows of the column it was published with.
        assert_eq!(snap.delete.len(), snap.data.as_slice().len());

        writer.join().unwrap();
        cache.refresh(&cell);
        let fin = cache.lanes()[0].current();
        assert_eq!(fin.version, 1);
        assert_eq!(fin.delete.epoch(), 1);
        assert_eq!(fin.delete.live_count(), 3);
    });
    assert!(explored.executions > 1, "explored {explored:?}");
}

// ------------------------------------------------------ Compaction snapshots

/// The compaction protocol: compaction repacks live rows into a fresh
/// column + all-live delete vector and publishes the result as a new
/// snapshot; a reader holding the pre-compaction Arc keeps a fully
/// consistent view (4 rows, 1 tombstone, 3 live) under every
/// interleaving — compaction can never invalidate a held snapshot.
#[test]
fn compaction_cannot_invalidate_a_held_snapshot() {
    model(|| {
        let cell = Arc::new(ShardedCell::new(vec![deleted_snap()]));
        let mut cache = cell.cache();
        cache.refresh(&cell);
        let held = std::sync::Arc::clone(cache.lanes()[0].current());

        let c2 = Arc::clone(&cell);
        let writer = thread::spawn(move || {
            // Dense repack of the live rows; tombstones reset, epoch kept.
            let mut dv = DeleteVector::new(3, 2);
            dv.set_epoch(2);
            c2.publish_shard(
                0,
                ShardSnapshot {
                    data: SharedColumn::new(vec![10, 12, 13]),
                    delete: Arc::new(dv),
                    zonemap: AdaptiveZonemap::new(3, AdaptiveConfig::default()),
                    start: 0,
                    version: 2,
                },
            );
        });

        // Concurrent with compaction: the held snapshot still answers in
        // its own coordinate system, tombstone mask intact.
        assert_eq!(held.data.as_slice(), &[10, 11, 12, 13]);
        assert_eq!(held.delete.len(), 4);
        assert!(held.delete.is_deleted(1));
        assert_eq!(held.delete.live_count(), 3);
        let live: Vec<i64> = held
            .data
            .as_slice()
            .iter()
            .enumerate()
            .filter(|(i, _)| !held.delete.is_deleted(*i))
            .map(|(_, &v)| v)
            .collect();
        assert_eq!(live, vec![10, 12, 13]);

        writer.join().unwrap();
        cache.refresh(&cell);
        let fresh = cache.lanes()[0].current();
        assert_eq!(fresh.version, 2);
        assert_eq!(fresh.data.as_slice(), &[10, 12, 13]);
        assert!(!fresh.delete.has_deletes(), "compaction left tombstones");
        assert_eq!(fresh.delete.len(), 3);
        // The compacted live set is exactly the live set the held
        // snapshot answers with: compaction changed coordinates, not
        // content.
        assert_eq!(fresh.data.as_slice(), live.as_slice());
    });
}

// ------------------------------------------- Lane identity across compaction

/// The production [`Owner`] deletes row 0 of six, compacts — the rebuilt
/// lane cuts its two-row zones where the old one did, over rows that all
/// moved down by one — and publishes; only then does it apply what the
/// reader reports. The reader scans whichever publication it happens to
/// hold and sends the data version it scanned beside its observation.
/// Under every interleaving the late feedback leaves no zone excluding a
/// row it holds, and every point lookup on the final publication is
/// exact: the owner hears a reader of the rebuilt lane and refuses one of
/// the lane it replaced.
#[test]
fn late_feedback_across_compaction_never_teaches_the_rebuilt_lane() {
    let explored = model(|| {
        let config = AdaptiveConfig {
            target_zone_rows: 2,
            min_zone_rows: 2,
            max_zone_rows: 2,
            enable_split: false,
            ..AdaptiveConfig::default()
        };
        let all = RangePredicate::between(10, 15);
        let mut owner = Owner::new((10..16).collect(), 1, config);
        let publish = |owner: &Owner<i64>, version: u64| {
            owner.snapshot(0, Arc::new(owner.deletes(0).clone()), version)
        };
        let cell = Arc::new(ShardedCell::new(vec![publish(&owner, 0)]));
        let feedback = Arc::new(Bounded::new(1));

        let (c2, f2) = (Arc::clone(&cell), Arc::clone(&feedback));
        let maintenance = thread::spawn(move || {
            assert_eq!(owner.mutate(&[Mutation::Delete(0)]), Ok(1));
            assert_eq!(owner.compact(None), 1);
            c2.publish_shard(0, publish(&owner, 1));

            let report: (u64, ScanObservation<i64>) = f2.pop().expect("reader always reports");
            let stale = report.0 == 0;
            owner.feedback(&[report]);
            assert_bounds_cover_rows(owner.lane(0), &[11, 12, 13, 14, 15], "after late feedback");
            assert_eq!(owner.totals().feedback_stale, u64::from(stale));
            c2.publish_shard(0, publish(&owner, 2));
        });

        let mut cache = cell.cache();
        cache.refresh(&cell);
        let held = std::sync::Arc::clone(cache.lanes()[0].current());
        let outcome = held.zonemap.prune_shared(&all);
        let (count, obs) = scan_as_asked(held.data.as_slice(), &outcome, all);
        assert_eq!(count, if held.version == 0 { 6 } else { 5 });
        feedback
            .try_push((held.data.version(), obs))
            .expect("capacity for the one report");

        maintenance.join().unwrap();
        cache.refresh(&cell);
        let fin = cache.lanes()[0].current();
        assert_eq!(fin.version, 2);
        for v in 10..16 {
            let point = RangePredicate::point(v);
            let outcome = fin.zonemap.prune_shared(&point);
            let (count, _) = scan_as_asked(fin.data.as_slice(), &outcome, point);
            assert_eq!(count, u64::from(v != 10), "point lookup for {v}");
        }
    });
    assert!(explored.executions > 1, "explored {explored:?}");
}

// ------------------------------------------------- Scan-helper job board

/// A job of `runs` runs in which run `k` returns `k` and counts how often
/// it was executed.
struct Tally(Vec<AtomicU64>);

impl Runs for Tally {
    type Out = u64;

    fn runs(&self) -> usize {
        self.0.len()
    }

    fn run(&self, k: usize) -> u64 {
        // ordering: Relaxed — a tally read only after the slot lock (or a
        // join) has ordered this run before the read.
        self.0[k].fetch_add(1, Ordering::Relaxed);
        k as u64
    }
}

fn tally(runs: usize) -> Tally {
    Tally((0..runs).map(|_| AtomicU64::new(0)).collect())
}

/// Every run of `job` was executed exactly once.
fn assert_each_run_once(job: &Tally) {
    for (k, count) in job.0.iter().enumerate() {
        // ordering: Relaxed — ordered by the slot lock `finish` took
        // after the run stored its output (or by the joins).
        let n = count.load(Ordering::Relaxed);
        assert_eq!(n, 1, "run {k} executed {n} times");
    }
}

/// The production job board with one worker and one helper thread
/// racing on its claim cursor. Under every interleaving: every run is
/// executed exactly once; `finish` returns only once every run has
/// stored its output, in run order (it panics rather than read an empty
/// slot); and closing the board while a job is posted and unclaimed —
/// the shutdown race — neither hangs the helper (a hang is reported as a
/// deadlock) nor loses a run, because the posting worker executes
/// whatever no helper claimed.
#[test]
fn scan_helper_board_runs_every_run_once_and_closes_clean() {
    for runs in [2, 3] {
        let explored = model(move || {
            let board = Arc::new(Board::new());
            let b2 = Arc::clone(&board);
            let helper = thread::spawn(move || help_loop(&b2));
            let (job, outs) = board.run(tally(runs));
            assert_eq!(outs, (0..runs as u64).collect::<Vec<_>>());
            assert_each_run_once(job.work());
            board.close();
            helper.join().unwrap();
        });
        assert!(explored.executions > 1, "explored {explored:?}");
    }
    // The shutdown race: the board closes while the job is posted and
    // the helper may not have claimed anything yet.
    let explored = model(|| {
        let board = Arc::new(Board::new());
        let b2 = Arc::clone(&board);
        let helper = thread::spawn(move || help_loop(&b2));
        let job = board.post(tally(2));
        board.close();
        assert_eq!(job.finish(), vec![0, 1], "a run was lost to the close");
        assert_each_run_once(job.work());
        helper.join().unwrap();
    });
    assert!(explored.executions > 1, "explored {explored:?}");
}

/// `Fan::help` with its claim split into a load and a store — the bug a
/// hand-rolled cursor invites. The checker MUST find the interleaving in
/// which worker and helper both read the same cursor value and execute
/// one run twice.
#[test]
fn seeded_split_cursor_claim_is_caught() {
    fn racy_help(next: &AtomicU64, job: &Tally) {
        loop {
            // ordering: Relaxed — BUG under test: a claim that is not one
            // read-modify-write.
            let k = next.load(Ordering::Relaxed);
            // ordering: Relaxed — see above.
            next.store(k + 1, Ordering::Relaxed);
            if k as usize >= job.runs() {
                return;
            }
            job.run(k as usize);
        }
    }
    let report = try_model(Config::default(), || {
        let (next, job) = (Arc::new(AtomicU64::new(0)), Arc::new(tally(2)));
        let (n2, j2) = (Arc::clone(&next), Arc::clone(&job));
        let helper = thread::spawn(move || racy_help(&n2, &j2));
        racy_help(&next, &job);
        helper.join().unwrap();
        assert_each_run_once(&job);
    })
    .expect_err("the split claim must be caught");
    assert!(
        report.contains("executed 2 times"),
        "unexpected report: {report}"
    );
}
