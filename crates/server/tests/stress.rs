//! Concurrency stress: answers from the service must be exactly the
//! reference scan's answers, no matter how many readers race, how stale
//! their snapshots are, or how the maintenance thread interleaves
//! publications. (With integer data every aggregate — including SUM,
//! whose f64 accumulation is exact below 2^53 — admits bit-identical
//! comparison.)
//!
//! Iteration counts scale with `ADS_STRESS_ITERS` (default 1) so CI can
//! run an elevated pass without slowing the local suite.

use ads_core::RangePredicate;
use ads_engine::{execute_reference, AggKind};
use ads_server::{AdaptationMode, QueryService, Reply, Request, ServerConfig};
use ads_workloads::{data, queries};
use std::sync::Arc;
use std::time::{Duration, Instant};

const ROWS: usize = 30_000;
const DOMAIN: i64 = 10_000;

fn iters() -> usize {
    std::env::var("ADS_STRESS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

const AGGS: [AggKind; 5] = [
    AggKind::Count,
    AggKind::Sum,
    AggKind::Min,
    AggKind::Max,
    AggKind::Positions,
];

#[test]
fn concurrent_readers_answer_bit_identically_to_reference() {
    let column = data::uniform(ROWS, DOMAIN, 21);
    let svc = QueryService::start(
        column.clone(),
        ServerConfig {
            readers: 4,
            adaptation: AdaptationMode::Async,
            ..ServerConfig::default()
        },
    );

    let clients = 4;
    let per_client = 100 * iters();
    std::thread::scope(|scope| {
        let svc = &svc;
        let column = &column;
        for c in 0..clients {
            scope.spawn(move || {
                let preds = queries::uniform_ranges(per_client, DOMAIN, 0.04, 1000 + c as u64);
                for (i, q) in preds.iter().enumerate() {
                    let pred = RangePredicate::between(q.lo, q.hi);
                    let agg = AGGS[(c + i) % AGGS.len()];
                    let reply = svc.query(pred, agg).expect("admitted");
                    let got = reply.answer().expect("no deadline set");
                    let want = execute_reference(column, pred, agg);
                    assert_eq!(*got, want, "client {c} query {i} {agg:?}");
                }
            });
        }
    });

    let stats = svc.shutdown();
    assert_eq!(stats.queries, (clients * per_client) as u64);
    assert_eq!(stats.deadline_missed, 0);
    // All applied feedback is accounted for; whatever the channel shed
    // under load is explicitly counted, not silently lost.
    assert_eq!(
        stats.feedback_applied + stats.adaptation_lag + stats.feedback_dropped,
        stats.queries
    );
}

#[test]
fn appends_are_visible_once_acknowledged() {
    let mut mirror = data::sorted(5_000, DOMAIN);
    let svc = QueryService::start(
        mirror.clone(),
        ServerConfig {
            readers: 2,
            adaptation: AdaptationMode::Async,
            ..ServerConfig::default()
        },
    );

    for round in 0..10 * iters() {
        let batch = data::uniform(500, DOMAIN, 300 + round as u64);
        mirror.extend_from_slice(&batch);
        svc.append(batch);

        // append() acks only after the extended snapshot is published, so
        // these queries must see every appended row.
        let all = RangePredicate::between(0, DOMAIN);
        let reply = svc.query(all, AggKind::Count).expect("admitted");
        assert_eq!(
            reply.answer().expect("no deadline").count,
            mirror.len() as u64,
            "round {round}: appended rows invisible"
        );

        let q = queries::uniform_ranges(1, DOMAIN, 0.1, 900 + round as u64)[0];
        let pred = RangePredicate::between(q.lo, q.hi);
        let reply = svc.query(pred, AggKind::Sum).expect("admitted");
        let want = execute_reference(&mirror, pred, AggKind::Sum);
        assert_eq!(*reply.answer().expect("no deadline"), want);
    }

    let stats = svc.shutdown();
    assert_eq!(stats.appends, 10 * iters() as u64);
}

#[test]
fn sharded_async_mode_is_exact_under_racing_appends_and_flushes() {
    const SHARDS: usize = 8;
    let base = data::clustered(ROWS, 24, 0.05, DOMAIN, 9);
    let svc = QueryService::start(
        base.clone(),
        ServerConfig {
            readers: 4,
            shards: SHARDS,
            adaptation: AdaptationMode::Async,
            ..ServerConfig::default()
        },
    );
    assert_eq!(svc.num_shards(), SHARDS);

    let rounds = 6 * iters();
    let per_client = 80 * iters();
    std::thread::scope(|scope| {
        let svc = &svc;
        let base = &base;
        // Readers race queries strictly below DOMAIN. The writer's appends
        // only add values in [DOMAIN, 2*DOMAIN), so the reference answer
        // on the base column stays bit-exact no matter when an append
        // becomes visible to a given reader.
        for c in 0..3usize {
            scope.spawn(move || {
                let preds = queries::uniform_ranges(per_client, DOMAIN, 0.04, 4_000 + c as u64);
                for (i, q) in preds.iter().enumerate() {
                    let pred = RangePredicate::between(q.lo, q.hi);
                    let agg = AGGS[(c + i) % AGGS.len()];
                    let reply = svc.query(pred, agg).expect("admitted");
                    let got = reply.answer().expect("no deadline set");
                    let want = execute_reference(base, pred, agg);
                    assert_eq!(*got, want, "client {c} query {i} {agg:?}");
                }
            });
        }
        // One writer thread: appends and flush barriers racing the readers.
        scope.spawn(move || {
            for round in 0..rounds {
                let batch: Vec<i64> = (0..257)
                    .map(|i| DOMAIN + ((i as i64 * 31 + round as i64) % DOMAIN))
                    .collect();
                svc.append(batch);
                svc.flush();
            }
        });
    });

    // Every append was acked, so the full tail must be visible now.
    let total = (ROWS + rounds * 257) as u64;
    let all = RangePredicate::between(0, 2 * DOMAIN);
    let reply = svc.query(all, AggKind::Count).expect("admitted");
    assert_eq!(reply.answer().expect("no deadline").count, total);

    // Quiesce, then prove publication is per-shard: an append republishes
    // the tail lane only — every untouched lane keeps its exact Arc, so
    // reader caches for those shards are not invalidated.
    svc.flush();
    let snaps_before = svc.shard_snapshots();
    svc.append(vec![DOMAIN; 64]);
    let snaps_after = svc.shard_snapshots();
    for s in 0..SHARDS {
        if s == SHARDS - 1 {
            assert!(
                !Arc::ptr_eq(&snaps_before[s], &snaps_after[s]),
                "tail lane not republished"
            );
            assert_eq!(snaps_after[s].data.len(), snaps_before[s].data.len() + 64);
        } else {
            assert!(
                Arc::ptr_eq(&snaps_before[s], &snaps_after[s]),
                "lane {s} snapshot re-cloned on a tail-shard append"
            );
        }
    }

    let stats = svc.shutdown();
    assert_eq!(stats.appends, rounds as u64 + 1);
    assert!(stats.shards_republished >= stats.snapshots_published);
    // Epoch-diffed publication never pays more than the whole-map clone
    // the pre-sharding scheme would have.
    assert!(stats.republish_bytes <= stats.whole_map_bytes);
    assert_eq!(
        stats.feedback_applied + stats.adaptation_lag + stats.feedback_dropped,
        stats.queries
    );
}

#[test]
fn expired_deadlines_are_reported_not_executed() {
    let svc = QueryService::start(data::sorted(10_000, DOMAIN), ServerConfig::default());
    let request = Request {
        predicate: RangePredicate::between(0, DOMAIN),
        agg: AggKind::Count,
        deadline: Some(Instant::now() - Duration::from_millis(1)),
    };
    let reply = svc.submit(request).expect("admitted").wait();
    assert_eq!(reply, Reply::DeadlineMissed);
    let stats = svc.shutdown();
    assert_eq!(stats.deadline_missed, 1);
    assert_eq!(stats.queries, 0);
}

#[test]
fn burst_overload_sheds_explicitly_and_loses_nothing() {
    // A burst far beyond the queue bound: every submission must either be
    // admitted (and answered) or shed (and counted) — never block, never
    // vanish.
    let column = data::uniform(ROWS, DOMAIN, 77);
    let svc = QueryService::start(
        column.clone(),
        ServerConfig {
            readers: 2,
            queue_capacity: 4,
            adaptation: AdaptationMode::Async,
            ..ServerConfig::default()
        },
    );
    let pred = RangePredicate::between(100, 2_000);
    let want = execute_reference(&column, pred, AggKind::Count);

    let mut tickets = Vec::new();
    let mut shed = 0u64;
    for _ in 0..500 * iters() {
        match svc.submit(Request::new(pred, AggKind::Count)) {
            Ok(t) => tickets.push(t),
            Err(_) => shed += 1,
        }
    }
    let answered = tickets.len() as u64;
    for t in tickets {
        match t.wait() {
            Reply::Answer { answer, .. } => assert_eq!(answer.count, want.count),
            Reply::DeadlineMissed => panic!("no deadline set"),
        }
    }

    let stats = svc.shutdown();
    assert_eq!(stats.queries, answered);
    assert_eq!(stats.shed, shed);
    assert_eq!(answered + shed, 500 * iters() as u64);
}

#[test]
fn feedback_racing_a_compaction_never_costs_an_answer() {
    // A reader that pruned the pre-compaction snapshot reports after the
    // maintenance thread has repacked the shard and rebuilt its lane. The
    // rebuilt lane cuts its zones where the old one did, over rows that
    // all moved down by one, so the late observation aligns — and, were
    // it applied, would stamp zone k with the bounds of the rows that
    // used to be there, excluding the value 4096·k its last row now
    // holds. Each attempt lets the reader get a little further into its
    // scan before the compaction lands.
    let rows: usize = if cfg!(debug_assertions) {
        400_000
    } else {
        2_000_000
    };
    let mut stale = 0;
    for attempt in 0..12 {
        let svc = QueryService::start(
            (0..rows as i64).collect(),
            ServerConfig {
                readers: 1,
                adaptation: AdaptationMode::Async,
                ..ServerConfig::default()
            },
        );
        assert_eq!(svc.delete(0), Ok(1));
        let all = RangePredicate::between(0, rows as i64);
        let racing = svc
            .submit(Request::new(all, AggKind::Positions))
            .expect("admitted");
        std::thread::sleep(Duration::from_micros(150 * attempt));
        assert_eq!(svc.compact(), Ok(1));
        let reply = racing.wait();
        let answer = reply.answer().expect("no deadline set");
        assert_eq!(answer.count, rows as u64 - 1, "attempt {attempt}");
        svc.flush();

        let wrong: Vec<i64> = (1..rows as i64 / 4096)
            .map(|k| 4096 * k)
            .filter(|&v| {
                let reply = svc
                    .query(RangePredicate::point(v), AggKind::Count)
                    .expect("admitted");
                reply.answer().expect("no deadline set").count != 1
            })
            .collect();
        assert!(
            wrong.is_empty(),
            "attempt {attempt}: {} point lookups lost their row, first {:?}",
            wrong.len(),
            wrong.first()
        );
        stale += svc.shutdown().feedback_stale;
    }
    // Not every attempt has to lose the race, but a run in which none did
    // tested nothing.
    assert!(stale > 0, "no attempt raced the compaction");
}

/// Polls until `snaps` are their only holders; false if some other
/// holder keeps one for 5 s.
fn only_holders<T>(snaps: &[Arc<T>]) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    while snaps.iter().any(|snap| Arc::strong_count(snap) > 1) {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

#[test]
fn an_idle_worker_pins_no_snapshot() {
    // A frozen service publishes only on control messages, so a worker
    // that answered a query cached exactly the lanes taken below; the
    // flush then publishes new ones and leaves the test the only holder
    // of the old — unless an idle worker still caches them.
    let shapes = [
        (AdaptationMode::Frozen, 1),
        (AdaptationMode::Frozen, 4),
        (AdaptationMode::Async, 4),
    ];
    let column = data::uniform(ROWS, DOMAIN, 5);
    for round in 0..iters() {
        for (adaptation, readers) in shapes {
            let svc = QueryService::start(
                column.clone(),
                ServerConfig {
                    readers,
                    shards: 2,
                    adaptation,
                    ..ServerConfig::default()
                },
            );
            // One client per reader, all at once, then all stopped.
            std::thread::scope(|scope| {
                for c in 0..readers {
                    let svc = &svc;
                    scope.spawn(move || {
                        let seed = 100 * round as u64 + c as u64;
                        for q in queries::uniform_ranges(50, DOMAIN, 0.02, seed) {
                            let pred = RangePredicate::between(q.lo, q.hi);
                            svc.query(pred, AggKind::Count).expect("admitted");
                        }
                    });
                }
            });
            let held = svc.shard_snapshots();
            svc.flush();
            assert!(
                only_holders(&held),
                "{} with {readers} readers: an idle worker pins a lane, \
                 strong counts {:?}",
                adaptation.label(),
                held.iter().map(Arc::strong_count).collect::<Vec<_>>()
            );
            svc.shutdown();
        }
    }
}
