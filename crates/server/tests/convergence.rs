//! Proof that asynchronous adaptation converges to the inline protocol.
//!
//! The service's claim is that deferring observe-side adaptation to a
//! maintenance thread changes *when* the zonemap reorganises, never *what
//! it converges to*. Serialized, that claim is exact: a single reader that
//! flushes after every query must drive the authoritative zonemap through
//! the identical state trajectory an inline executor produces on the same
//! query stream — same zone boundaries, same build/dead states, same skip
//! rates. These tests check that equivalence structurally (via
//! `zone_snapshot()`), answer-by-answer, and for the frozen mode's
//! contract (exact answers, no adaptation at all).

use ads_core::adaptive::{AdaptiveConfig, AdaptiveZonemap, ShardedZonemap, TierMode};
use ads_core::RangePredicate;
use ads_engine::{execute, execute_reference, execute_sharded, AggKind, ExecPolicy};
use ads_rng::StdRng;
use ads_server::{AdaptationMode, Mutation, QueryService, Reply, ServerConfig, ServerStats};
use ads_storage::ShardedColumn;
use ads_workloads::{data, queries};

const ROWS: usize = 40_000;
const DOMAIN: i64 = 10_000;
const QUERIES: usize = 150;

fn config(mode: AdaptationMode) -> ServerConfig {
    ServerConfig {
        readers: 1,
        queue_capacity: 64,
        feedback_capacity: 64,
        batch_max: 16,
        adaptation: mode,
        ..ServerConfig::default()
    }
}

/// Replays `queries` inline and returns (answers, final zonemap).
fn inline_replay(
    column: &[i64],
    adaptive: AdaptiveConfig,
    preds: &[queries::RangeQuery],
) -> (Vec<u64>, AdaptiveZonemap<i64>) {
    let mut zm = AdaptiveZonemap::new(column.len(), adaptive);
    let answers = preds
        .iter()
        .map(|q| {
            let pred = RangePredicate::between(q.lo, q.hi);
            let (ans, _) = execute(column, &mut zm, pred, AggKind::Count);
            ans.count
        })
        .collect();
    (answers, zm)
}

#[test]
fn async_single_reader_with_flush_matches_inline_exactly() {
    let column = data::clustered(ROWS, 80, 0.05, DOMAIN, 42);
    let preds = queries::hotspot_ranges(QUERIES, DOMAIN, 0.05, 0.3, 0.2, 7);
    let adaptive = AdaptiveConfig::default();

    let (inline_answers, mut inline_zm) = inline_replay(&column, adaptive.clone(), &preds);

    let svc = QueryService::start(
        column.clone(),
        ServerConfig {
            adaptive: adaptive.clone(),
            ..config(AdaptationMode::Async)
        },
    );
    let mut async_answers = Vec::with_capacity(preds.len());
    for q in &preds {
        let pred = RangePredicate::between(q.lo, q.hi);
        match svc.query(pred, AggKind::Count).expect("admitted") {
            Reply::Answer { answer, .. } => async_answers.push(answer.count),
            Reply::DeadlineMissed => panic!("no deadline configured"),
        }
        // The worker queues its observation before replying, so by channel
        // FIFO this flush applies exactly this query's feedback and
        // publishes — the next query reads fully up-to-date metadata,
        // making the replay serialized.
        svc.flush();
    }

    assert_eq!(async_answers, inline_answers, "answers diverged");

    // The maintenance thread ran the next query's revival poll at its last
    // publication; run it on the inline map too before comparing.
    inline_zm.poll_revival();
    assert_eq!(
        svc.zone_snapshot(),
        inline_zm.zone_snapshot(),
        "async adaptation reached a different zonemap state than inline"
    );

    let stats = svc.shutdown();
    assert_eq!(stats.queries, QUERIES as u64);
    assert_eq!(stats.feedback_applied, QUERIES as u64);
    assert_eq!(stats.feedback_dropped, 0);
    assert_eq!(stats.adaptation_lag, 0);
    assert!(stats.snapshots_published >= QUERIES as u64);
}

#[test]
fn point_lookups_on_almost_sorted_data_publish_a_zone_count_that_stops_growing() {
    // A bound on what the service publishes, not only on its answers:
    // every point lookup on ordered data is a low-yield scan of the zone
    // or two that may hold the value, and before splits were priced
    // against the probes they add that alone refined both lanes to the
    // row floor (978 zones -> 15 k here), every query walking all of
    // them. The feedback queue drops under this load, so trajectories are
    // not repeatable — but a zone one lookup in ~500 lands on never comes
    // near the rate a split has to pay for, however the drops fall.
    const POINT_ROWS: usize = 1_000_000;
    const POINT_DOMAIN: i64 = 250_000;
    const PER_SAMPLE: usize = 15_000;
    let column = data::almost_sorted(POINT_ROWS, POINT_DOMAIN, 0.05, 256, 42);
    let preds = queries::point_queries(3 * PER_SAMPLE, POINT_DOMAIN, 7);
    let mut copies = vec![0u64; POINT_DOMAIN as usize];
    for &v in &column {
        copies[v as usize] += 1;
    }
    let svc = QueryService::start(
        column.clone(),
        ServerConfig {
            shards: 2,
            adaptive: AdaptiveConfig {
                target_zone_rows: 1024,
                ..AdaptiveConfig::default()
            },
            ..config(AdaptationMode::Async)
        },
    );
    let initial = svc.zone_snapshot().len();
    let mut samples = Vec::new();
    for chunk in preds.chunks(PER_SAMPLE) {
        for q in chunk {
            let pred = RangePredicate::between(q.lo, q.hi);
            let reply = svc.query(pred, AggKind::Count).expect("admitted");
            assert_eq!(
                reply.answer().expect("no deadline").count,
                copies[q.lo as usize]
            );
        }
        svc.flush();
        samples.push(svc.zone_snapshot().len());
    }
    assert_eq!(
        samples[1], samples[2],
        "zone count still moving: {initial} -> {samples:?}"
    );
    assert!(samples[2] <= 4 * initial, "{initial} -> {samples:?}");
    let stats = svc.shutdown();
    assert!(stats.feedback_applied > 0, "{}", stats.summary());
}

#[test]
fn async_convergence_holds_on_adversarial_uniform_data() {
    // Uniform data drives the deactivate/revive machinery; the serialized
    // equivalence must survive zones dying and coming back.
    let column = data::uniform(ROWS, DOMAIN, 11);
    let preds = queries::uniform_ranges(QUERIES, DOMAIN, 0.02, 13);
    let adaptive = AdaptiveConfig::default();

    let (inline_answers, mut inline_zm) = inline_replay(&column, adaptive.clone(), &preds);

    let svc = QueryService::start(
        column.clone(),
        ServerConfig {
            adaptive,
            ..config(AdaptationMode::Async)
        },
    );
    for (i, q) in preds.iter().enumerate() {
        let pred = RangePredicate::between(q.lo, q.hi);
        let reply = svc.query(pred, AggKind::Count).expect("admitted");
        assert_eq!(
            reply.answer().expect("no deadline").count,
            inline_answers[i]
        );
        svc.flush();
    }

    inline_zm.poll_revival();
    assert_eq!(svc.zone_snapshot(), inline_zm.zone_snapshot());
    drop(svc);
}

#[test]
fn sharded_async_with_flush_matches_sharded_inline_replay() {
    // The sharded generalisation of the serialized-equivalence proof: at
    // four shards, a single reader flushing after every query must drive
    // every authoritative zonemap lane through the identical trajectory
    // the sharded executor produces inline on the same stream.
    const SHARDS: usize = 4;
    let column = data::clustered(ROWS, 80, 0.05, DOMAIN, 42);
    let preds = queries::hotspot_ranges(QUERIES, DOMAIN, 0.05, 0.3, 0.2, 7);
    let adaptive = AdaptiveConfig::default();

    let sharded = ShardedColumn::new(column.clone(), SHARDS);
    let mut inline_zm = ShardedZonemap::for_column(&sharded, adaptive.clone());
    let policy = ExecPolicy::sequential();
    let inline_answers: Vec<u64> = preds
        .iter()
        .map(|q| {
            let pred = RangePredicate::between(q.lo, q.hi);
            let (ans, _) = execute_sharded(
                &sharded,
                &mut inline_zm,
                None,
                pred,
                AggKind::Count,
                &policy,
            );
            ans.count
        })
        .collect();

    let svc = QueryService::start(
        column,
        ServerConfig {
            shards: SHARDS,
            adaptive,
            ..config(AdaptationMode::Async)
        },
    );
    for (i, q) in preds.iter().enumerate() {
        let pred = RangePredicate::between(q.lo, q.hi);
        let reply = svc.query(pred, AggKind::Count).expect("admitted");
        assert_eq!(
            reply.answer().expect("no deadline").count,
            inline_answers[i],
            "query {i} diverged"
        );
        svc.flush();
    }

    inline_zm.poll_revival();
    assert_eq!(
        svc.zone_snapshot(),
        inline_zm.zone_snapshot(),
        "sharded async adaptation reached a different state than inline"
    );

    let stats = svc.shutdown();
    assert_eq!(stats.feedback_applied, QUERIES as u64);
    assert_eq!(stats.adaptation_lag, 0);
    // Each flush force-publishes every lane, so the per-shard counters
    // must have seen at least SHARDS lanes per flush round.
    assert!(stats.shards_republished >= (SHARDS * QUERIES) as u64);
    assert!(stats.republish_bytes <= stats.whole_map_bytes);
}

#[test]
fn frozen_mode_answers_exactly_and_never_adapts() {
    let column = data::sorted(ROWS, DOMAIN);
    let preds = queries::uniform_ranges(60, DOMAIN, 0.05, 3);

    let svc = QueryService::start(column.clone(), config(AdaptationMode::Frozen));
    for q in &preds {
        let pred = RangePredicate::between(q.lo, q.hi);
        let reply = svc.query(pred, AggKind::Count).expect("admitted");
        let expected = execute_reference(&column, pred, AggKind::Count);
        assert_eq!(reply.answer().expect("no deadline").count, expected.count);
    }
    svc.flush();

    // No feedback ever flowed: every zone is still unbuilt.
    assert!(
        svc.zone_snapshot()
            .iter()
            .all(|(_, state, _)| *state == "unbuilt"),
        "frozen service adapted"
    );
    let stats = svc.shutdown();
    assert_eq!(stats.feedback_applied, 0);
    assert_eq!(stats.feedback_dropped, 0);
}

#[test]
fn inline_mode_matches_the_plain_executor() {
    // The inline service mode is the seed architecture behind a queue; a
    // single reader must reproduce the executor byte for byte, including
    // the final zonemap.
    let column = data::sawtooth(ROWS, 8, DOMAIN);
    let preds = queries::uniform_ranges(100, DOMAIN, 0.03, 99);
    let adaptive = AdaptiveConfig::default();

    let (inline_answers, inline_zm) = inline_replay(&column, adaptive.clone(), &preds);

    let svc = QueryService::start(
        column,
        ServerConfig {
            adaptive,
            ..config(AdaptationMode::Inline)
        },
    );
    for (i, q) in preds.iter().enumerate() {
        let pred = RangePredicate::between(q.lo, q.hi);
        let reply = svc.query(pred, AggKind::Count).expect("admitted");
        assert_eq!(
            reply.answer().expect("no deadline").count,
            inline_answers[i]
        );
    }
    assert_eq!(svc.zone_snapshot(), inline_zm.zone_snapshot());
    let stats = svc.shutdown();
    assert_eq!(stats.queries, 100);
    assert_eq!(stats.snapshots_published, 0, "inline mode never publishes");
}

#[test]
fn reorg_enabled_service_answers_exactly_and_counts_promotions() {
    // Hot clustered workload with reorganization on: both service modes
    // must produce exact answers while zones get promoted, and the stats
    // surface must report the promotions.
    let column = data::clustered(ROWS, 80, 0.05, DOMAIN, 42);
    let preds = queries::hotspot_ranges(QUERIES, DOMAIN, 0.05, 0.3, 0.2, 7);
    let adaptive = AdaptiveConfig {
        reorg_after_scans: 2,
        maintenance_every: 1,
        ..AdaptiveConfig::with_reorg()
    };
    let expected: Vec<u64> = preds
        .iter()
        .map(|q| column.iter().filter(|&&v| v >= q.lo && v <= q.hi).count() as u64)
        .collect();

    for mode in [AdaptationMode::Inline, AdaptationMode::Async] {
        let svc = QueryService::start(
            column.clone(),
            ServerConfig {
                adaptive: adaptive.clone(),
                ..config(mode)
            },
        );
        for (q, &want) in preds.iter().zip(&expected) {
            let pred = RangePredicate::between(q.lo, q.hi);
            let reply = svc.query(pred, AggKind::Count).expect("admitted");
            assert_eq!(
                reply.answer().expect("no deadline").count,
                want,
                "wrong count in {mode:?} mode"
            );
            if mode == AdaptationMode::Async {
                // Serialize so the maintenance thread's reorg pass runs
                // between queries and republishes promoted lanes.
                svc.flush();
            }
        }
        let stats = svc.shutdown();
        assert!(
            stats.zones_promoted > 0,
            "hot workload promoted no zones in {mode:?} mode"
        );
        assert!(
            stats.reorg_bytes_moved > 0,
            "promotion moved no bytes in {mode:?} mode"
        );
        assert!(
            stats.summary().contains("reorg_promoted="),
            "summary must surface reorg counters"
        );
    }
}

#[test]
fn steady_state_publishes_only_what_a_reader_would_decide_differently() {
    // Once every zone is built, a scan that re-observes what a zone
    // already knows changes nothing a reader reads, so it must not cost a
    // lane clone: a hotspot the zones have refined around publishes the
    // bursts of splits and masks at its edges and then goes quiet. (When
    // every scan of a built zone bumped the epoch this published ~2,000
    // times for 2,000 queries.)
    const STEADY_ROWS: usize = 200_000;
    const STEADY_QUERIES: usize = 2_000;
    let column = data::clustered(STEADY_ROWS, 80, 0.05, DOMAIN, 42);
    let mut sorted = column.clone();
    sorted.sort_unstable();
    let exact = |lo: i64, hi: i64| {
        (sorted.partition_point(|&v| v <= hi) - sorted.partition_point(|&v| v < lo)) as u64
    };
    let svc = QueryService::start(
        column,
        ServerConfig {
            shards: 2,
            ..config(AdaptationMode::Async)
        },
    );
    // One scan of everything builds every zone; the flush publishes it.
    let all = RangePredicate::between(0, DOMAIN);
    let reply = svc.query(all, AggKind::Count).expect("admitted");
    assert_eq!(
        reply.answer().expect("no deadline").count,
        STEADY_ROWS as u64
    );
    svc.flush();
    assert!(
        svc.zone_snapshot()
            .iter()
            .all(|(_, label, _)| *label != "unbuilt"),
        "warm-up left unbuilt zones"
    );

    let before = svc.stats();
    for q in queries::hotspot_ranges(STEADY_QUERIES, DOMAIN, 0.01, 0.3, 0.1, 7) {
        let pred = RangePredicate::between(q.lo, q.hi);
        let reply = svc.query(pred, AggKind::Count).expect("admitted");
        assert_eq!(
            reply.answer().expect("no deadline").count,
            exact(q.lo, q.hi),
            "wrong count for [{}, {}]",
            q.lo,
            q.hi
        );
    }
    let stats = svc.shutdown();
    assert_eq!(stats.feedback_dropped, 0);
    assert_eq!(
        stats.feedback_applied - before.feedback_applied,
        STEADY_QUERIES as u64,
        "every query's feedback reached the owner"
    );
    let published = stats.snapshots_published - before.snapshots_published;
    assert!(
        published <= STEADY_QUERIES as u64 / 10,
        "{published} publication rounds for {STEADY_QUERIES} steady-state queries"
    );
}

#[test]
fn a_zone_that_keeps_wasting_scans_gets_its_mask_without_a_flush() {
    // The one statistic a reader decides from is `wasted_scans`: its scan
    // collects a value mask only when the snapshot it pruned says the zone
    // keeps being read for nothing. If the owner's count crossed the
    // threshold without a publication, no reader would ever ask, no mask
    // would ever land, and merge and deactivation would retire the zones
    // instead (uniform data went from 493 zones to 4 that way). No flush
    // here: only epoch-driven publication may carry the news.
    let column = data::uniform(ROWS, DOMAIN, 21);
    let svc = QueryService::start(
        column.clone(),
        ServerConfig {
            shards: 2,
            adaptive: AdaptiveConfig {
                // Straight to masks, and nothing else restructures: what
                // is left to publish is the evidence alone.
                enable_split: false,
                enable_merge: false,
                enable_deactivate: false,
                ..AdaptiveConfig::default()
            },
            ..config(AdaptationMode::Async)
        },
    );
    let zones = svc.zone_snapshot().len() as u64;
    let masks_published = |svc: &QueryService<i64>| -> u64 {
        let lanes = svc.shard_snapshots().expect("async mode publishes");
        lanes
            .iter()
            .map(|lane| lane.zonemap.trace().totals().mask_built)
            .sum()
    };
    // Narrow ranges over uniform values: every zone's bounds admit them,
    // almost no row qualifies — each scan is a wasted one.
    let preds = queries::uniform_ranges(4_000, DOMAIN, 0.0005, 9);
    let mut asked = 0;
    for q in &preds {
        if masks_published(&svc) == zones {
            break;
        }
        let pred = RangePredicate::between(q.lo, q.hi);
        let reply = svc.query(pred, AggKind::Count).expect("admitted");
        let want = column.iter().filter(|&&v| v >= q.lo && v <= q.hi).count() as u64;
        assert_eq!(reply.answer().expect("no deadline").count, want);
        asked += 1;
    }
    assert_eq!(
        masks_published(&svc),
        zones,
        "after {asked} queries and no flush, not every zone has its mask"
    );
    assert!(svc.shutdown().snapshots_published > 0);
}

/// The totals every owner keeps, whoever holds it, by name; the last two
/// are gauges, the rest only ever grow. Left out: the publication counters
/// (inline never publishes) and `reorg_ns` (a wall time).
fn owner_totals(s: &ServerStats) -> [(&'static str, u64); 14] {
    [
        ("feedback_stale", s.feedback_stale),
        ("appends", s.appends),
        ("mutations_applied", s.mutations_applied),
        ("mutation_batches", s.mutation_batches),
        ("compactions_run", s.compactions_run),
        ("rows_reclaimed", s.rows_reclaimed),
        ("zones_promoted", s.zones_promoted),
        ("zones_demoted", s.zones_demoted),
        ("reorg_bytes_moved", s.reorg_bytes_moved),
        ("tiers_built", s.tiers_built),
        ("tiers_dropped", s.tiers_dropped),
        ("tier_skips", s.tier_skips),
        ("deltas_pending", s.deltas_pending),
        ("tombstone_ppm", s.tombstone_ppm),
    ]
}

#[test]
fn one_op_stream_drives_every_mode_s_owner_through_the_same_steps() {
    // One owner, three ways to hold it. Serialized — one reader, a flush
    // after every operation — the maintenance thread's owner must step
    // through the states the inline owner does, whatever the operation:
    // queries, appends, delete and update batches, explicit compactions,
    // and (second pass) compactions the tombstone ratio triggers by
    // itself; a frozen service, whose owner hears no feedback, must give
    // the same answers. Reorganization and tiers are on so that the lanes
    // compaction retires have counters to lose: no total may ever go
    // backwards, in any mode. Revival is off because the maintenance
    // thread runs the next query's revival check before it publishes and
    // the inline service cannot be asked for the same.
    const SHARDS: usize = 2;
    const STEPS: usize = 260;
    let column = data::clustered(ROWS, 80, 0.05, DOMAIN, 42);
    let adaptive = AdaptiveConfig {
        revival_base_queries: None,
        maintenance_every: 1,
        enable_reorg: true,
        reorg_after_scans: 2,
        tier_mode: TierMode::Adaptive,
        tier_after_scans: 2,
        ..AdaptiveConfig::default()
    };

    for ratio in [None, Some(0.002)] {
        let services = [
            AdaptationMode::Inline,
            AdaptationMode::Async,
            AdaptationMode::Frozen,
        ]
        .map(|mode| {
            QueryService::start(
                column.clone(),
                ServerConfig {
                    shards: SHARDS,
                    adaptive: adaptive.clone(),
                    compact_tombstone_ratio: ratio,
                    ..config(mode)
                },
            )
        });
        let mut rng = StdRng::seed_from_u64(2016);
        // Physical rows (what a rowid may address) and live rows.
        let (mut rows, mut live) = (ROWS, ROWS);
        let mut unasked = false;
        let mut before = services.each_ref().map(|svc| svc.stats());

        for step in 0..STEPS {
            let kind = rng.gen_range(0..20u32);
            let lo = rng.gen_range(0..DOMAIN);
            let pred = RangePredicate::between(lo, lo + DOMAIN / 25);
            let batch: Vec<usize> = (0..48).map(|_| rng.gen_range(0..rows)).collect();
            let after = services.each_ref().map(|svc| {
                // The answer of a query, or the count a mutation batch or
                // compaction was acknowledged with.
                let outcome = match kind {
                    0..=11 => {
                        let agg = [AggKind::Count, AggKind::Sum, AggKind::Positions][step % 3];
                        let reply = svc.query(pred, agg).expect("admitted");
                        (reply.answer().cloned(), 0)
                    }
                    12 | 13 => {
                        svc.append(batch.iter().map(|&r| r as i64 % DOMAIN).collect());
                        (None, 0)
                    }
                    14..=16 => {
                        let deletes = batch.iter().map(|&r| Mutation::Delete(r)).collect();
                        (None, svc.mutate(deletes).expect("acknowledged"))
                    }
                    17 | 18 => {
                        let updates = batch[..8].iter().map(|&r| Mutation::Update(r, lo));
                        (None, svc.mutate(updates.collect()).expect("acknowledged"))
                    }
                    _ => (None, svc.compact().expect("acknowledged")),
                };
                svc.flush();
                (outcome, svc.zone_snapshot(), svc.stats())
            });
            let at = format!("step {step} (kind {kind})");
            let [inline, served, frozen] = &after;
            assert_eq!(served.0, inline.0, "{at}: async outcome");
            assert_eq!(frozen.0, inline.0, "{at}: frozen outcome");
            assert_eq!(served.1, inline.1, "{at}: zones");
            assert_eq!(
                owner_totals(&served.2),
                owner_totals(&inline.2),
                "{at}: totals"
            );
            for (now, was) in after.iter().zip(&before) {
                let (now, was) = (owner_totals(&now.2), owner_totals(was));
                let counters = now.len() - 2; // the two gauges come last
                for ((name, now), (_, was)) in now.iter().zip(was).take(counters) {
                    assert!(*now >= was, "{at}: {name} went from {was} to {now}");
                }
            }

            // Follow the column's size so the next batch addresses it.
            let (_, acknowledged) = inline.0;
            match kind {
                12 | 13 => (rows, live) = (rows + batch.len(), live + batch.len()),
                14..=16 => live -= acknowledged,
                17 | 18 => rows += acknowledged,
                _ => {}
            }
            let reclaimed = inline.2.rows_reclaimed - before[0].rows_reclaimed;
            unasked |= reclaimed > 0 && kind < 19;
            rows -= reclaimed as usize;
            before = after.map(|(_, _, stats)| stats);
        }

        let [inline, ..] = &before;
        assert!(inline.compactions_run > 0, "the stream never compacted");
        assert_eq!(unasked, ratio.is_some(), "automatic compaction");
        assert!(
            inline.zones_promoted > 0 && inline.tiers_built > 0 && inline.tier_skips > 0,
            "nothing for a compaction to lose: {}",
            inline.summary()
        );
        for svc in &services {
            let everything = RangePredicate::between(0, DOMAIN);
            let reply = svc.query(everything, AggKind::Count).expect("admitted");
            assert_eq!(reply.answer().expect("no deadline").count, live as u64);
        }
    }
}
