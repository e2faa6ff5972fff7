//! Scan helpers change who scans, never what a query answers or teaches.
//!
//! A one-reader service over a column large enough that its range scans
//! pass the two-thread floor (`2 × MIN_ROWS_PER_THREAD` rows) splits each
//! of those scans between its worker and the worker's helpers — when the
//! host leaves a core free for one. Serialized (a flush after every
//! operation), that service must answer a mixed stream of range queries,
//! mutation batches and compactions exactly as the inline service does,
//! f64 SUM bits and POSITIONS order included, and must leave exactly the
//! zones the inline service leaves.

use ads_core::adaptive::AdaptiveConfig;
use ads_core::RangePredicate;
use ads_engine::AggKind;
use ads_rng::StdRng;
use ads_server::{AdaptationMode, Mutation, QueryService, ServerConfig};
use ads_workloads::data;

/// Past the two-thread floor of 524,288 scanned rows with room to spare
/// after the stream's deletes.
const ROWS: usize = 1_200_000;
const DOMAIN: i64 = 1_000_000;

fn service(column: Vec<f64>, mode: AdaptationMode) -> QueryService<f64> {
    QueryService::start(
        column,
        ServerConfig {
            readers: 1,
            shards: 2,
            adaptation: mode,
            // Revival off: the maintenance thread runs the next query's
            // revival check before it publishes, and the inline service
            // cannot be asked for the same.
            adaptive: AdaptiveConfig {
                revival_base_queries: None,
                ..AdaptiveConfig::default()
            },
            ..ServerConfig::default()
        },
    )
}

#[test]
fn fanned_scans_answer_and_adapt_exactly_as_inline() {
    const STEPS: usize = 48;
    // Thirds are inexact in binary, so a SUM added in any other order
    // shows in its bits.
    let column: Vec<f64> = data::uniform(ROWS, DOMAIN, 7)
        .into_iter()
        .map(|v| v as f64 / 3.0)
        .collect();
    let top = DOMAIN as f64 / 3.0;
    let [inline, fanned] =
        [AdaptationMode::Inline, AdaptationMode::Async].map(|mode| service(column.clone(), mode));
    let mut rng = StdRng::seed_from_u64(27);
    let mut rows = ROWS;
    let aggs = [
        AggKind::Count,
        AggKind::Sum,
        AggKind::Min,
        AggKind::Max,
        AggKind::Positions,
    ];

    for step in 0..STEPS {
        let kind = rng.gen_range(0..12u32);
        // At least half the domain: every such scan is past the floor.
        let lo = rng.gen_range(0..DOMAIN / 2) as f64 / 3.0;
        let pred = RangePredicate::between(lo, lo + top / 2.0);
        let batch: Vec<usize> = (0..64).map(|_| rng.gen_range(0..rows)).collect();
        let [a, b] = [&inline, &fanned].map(|svc| {
            let outcome = match kind {
                0..=8 => {
                    let reply = svc.query(pred, aggs[step % aggs.len()]);
                    (reply.expect("admitted").answer().cloned(), 0)
                }
                9 | 10 => {
                    let mut muts: Vec<Mutation<f64>> =
                        batch.iter().map(|&r| Mutation::Delete(r)).collect();
                    muts.extend(batch[..8].iter().map(|&r| Mutation::Update(r, lo)));
                    (None, svc.mutate(muts).expect("acknowledged"))
                }
                _ => (None, svc.compact().expect("acknowledged")),
            };
            svc.flush();
            (outcome, svc.zone_snapshot())
        });
        let at = format!("step {step} (kind {kind})");
        if let (Some(x), Some(y)) = (&a.0 .0, &b.0 .0) {
            assert_eq!(
                x.sum.map(f64::to_bits),
                y.sum.map(f64::to_bits),
                "{at}: sum bits"
            );
        }
        assert_eq!(b.0, a.0, "{at}: outcome");
        assert_eq!(b.1, a.1, "{at}: zones");
        // Updates append to the tail; compaction reclaims.
        let stats = inline.stats();
        rows = ROWS + stats.mutations_applied as usize - stats.rows_reclaimed as usize;
    }

    let (a, b) = (inline.shutdown(), fanned.shutdown());
    assert!(a.compactions_run > 0, "the stream never compacted");
    assert_eq!(
        (a.scan_helpers, a.scans_fanned),
        (0, 0),
        "inline never fans"
    );
    if b.scan_helpers > 0 {
        assert!(b.scans_fanned > 0, "helpers ran but no scan fanned out");
    }
}

#[test]
fn point_lookups_stay_on_the_sequential_path() {
    let svc = QueryService::start(
        data::sorted(ROWS, DOMAIN),
        ServerConfig {
            readers: 1,
            adaptation: AdaptationMode::Async,
            ..ServerConfig::default()
        },
    );
    // The cold index scans everything once; its feedback builds every
    // zone, tight on sorted data.
    svc.query(RangePredicate::between(0, DOMAIN), AggKind::Count)
        .expect("admitted");
    svc.flush();
    let warm = svc.stats().scans_fanned;
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..500 {
        let v = rng.gen_range(0..DOMAIN);
        svc.query(RangePredicate::point(v), AggKind::Count)
            .expect("admitted");
    }
    let stats = svc.shutdown();
    assert_eq!(stats.scans_fanned, warm, "a point lookup fanned out");
    assert!(stats.scans_fanned <= 1);
}
