//! Cross-shard equivalence suite: the sharded execution path must be
//! answer-identical to the unsharded straight-scan reference on every
//! aggregate, data distribution, and shard count — including layouts that
//! stress the partition arithmetic (row counts not divisible by the shard
//! count, shards smaller than one zone, empty tail shards) — and, at one
//! shard, must reproduce the unsharded adaptive path *exactly*, zone
//! snapshot included.

use adaptive_data_skipping::core::adaptive::{AdaptiveConfig, AdaptiveZonemap, ShardedZonemap};
use adaptive_data_skipping::core::RangePredicate;
use adaptive_data_skipping::engine::{
    execute_reference, execute_sharded, execute_with_policy, AggKind, ExecPolicy, QueryAnswer,
};
use adaptive_data_skipping::storage::ShardedColumn;
use adaptive_data_skipping::workloads::{data, queries};

const AGGS: [AggKind; 5] = [
    AggKind::Count,
    AggKind::Sum,
    AggKind::Min,
    AggKind::Max,
    AggKind::Positions,
];

/// Small zones so structural adaptation (build/split/merge/deactivate)
/// happens at test scale.
fn test_config() -> AdaptiveConfig {
    AdaptiveConfig {
        target_zone_rows: 64,
        min_zone_rows: 8,
        max_zone_rows: 512,
        split_after_wasted: 1,
        merge_after_probes: 2,
        deactivate_after_probes: 4,
        maintenance_every: 2,
        revival_base_queries: Some(8),
        ..AdaptiveConfig::default()
    }
}

/// The three distributions the suite sweeps; domain chosen so i64 sums are
/// far below 2^53 and therefore exact in f64 at any association.
fn distributions(n: usize) -> Vec<(&'static str, Vec<i64>)> {
    const DOMAIN: i64 = 10_000;
    vec![
        ("sorted", data::sorted(n, DOMAIN)),
        ("clustered", data::clustered(n, 24, 0.05, DOMAIN, 0xC1)),
        ("uniform", data::uniform(n, DOMAIN, 0xC2)),
    ]
}

/// Answer equality with f64 sums compared by bit pattern: the sharded
/// merge must reassociate nothing.
fn assert_same_answer(got: &QueryAnswer<i64>, want: &QueryAnswer<i64>, ctx: &str) {
    assert_eq!(got.count, want.count, "count diverged: {ctx}");
    assert_eq!(
        got.sum.map(f64::to_bits),
        want.sum.map(f64::to_bits),
        "sum bits diverged: {ctx}"
    );
    assert_eq!(got.min, want.min, "min diverged: {ctx}");
    assert_eq!(got.max, want.max, "max diverged: {ctx}");
    assert_eq!(got.positions, want.positions, "positions diverged: {ctx}");
}

/// Runs `queries` through a fresh sharded column at each shard count and
/// checks every answer against the unsharded straight-scan reference.
fn check_against_reference(
    label: &str,
    rows: &[i64],
    shard_counts: &[usize],
    preds: &[RangePredicate<i64>],
) {
    for &shards in shard_counts {
        for policy in [
            ExecPolicy::sequential(),
            ExecPolicy {
                threads: 4,
                min_rows_per_thread: 1,
            },
        ] {
            let column = ShardedColumn::new(rows.to_vec(), shards);
            let mut zonemap = ShardedZonemap::for_column(&column, test_config());
            for (qi, pred) in preds.iter().enumerate() {
                let agg = AGGS[qi % AGGS.len()];
                let (got, metrics) =
                    execute_sharded(&column, &mut zonemap, None, *pred, agg, &policy);
                let want = execute_reference(rows, *pred, agg);
                let ctx = format!(
                    "{label} shards={shards} threads={} q{qi} {agg:?}",
                    policy.threads
                );
                assert_same_answer(&got, &want, &ctx);
                assert_eq!(metrics.shards.len(), shards, "lane metrics count: {ctx}");
                assert_eq!(
                    metrics.query.rows_matched, want.count,
                    "metrics rows_matched: {ctx}"
                );
            }
        }
    }
}

fn preds_for(n_queries: usize, seed: u64) -> Vec<RangePredicate<i64>> {
    queries::uniform_ranges(n_queries, 10_000, 0.05, seed)
        .into_iter()
        .map(|q| RangePredicate::between(q.lo, q.hi))
        .collect()
}

#[test]
fn sharded_answers_match_reference_across_distributions() {
    // 10_007 rows: prime, so not divisible by 3 or 8 — the tail shard is
    // shorter than the rest at every swept shard count.
    let preds = preds_for(25, 0xE401);
    for (label, rows) in distributions(10_007) {
        check_against_reference(label, &rows, &[1, 3, 8], &preds);
    }
}

#[test]
fn shards_smaller_than_one_zone_stay_exact() {
    // 100 rows over 8 shards: 13 rows per shard, far below the 64-row
    // target zone, so every lane runs on fractional-zone metadata.
    let preds = preds_for(20, 0xE402);
    for (label, rows) in distributions(100) {
        check_against_reference(label, &rows, &[3, 8], &preds);
    }
}

#[test]
fn empty_tail_shards_answer_exactly() {
    // 49 rows over 8 shards: ceil-chunking gives 7-row shards, so the
    // eighth shard holds zero rows; 5 rows over 8 shards leaves three
    // trailing shards empty. Both layouts must answer exactly.
    let preds = preds_for(15, 0xE403);
    for n in [49usize, 5] {
        for (label, rows) in distributions(n) {
            check_against_reference(&format!("{label} n={n}"), &rows, &[8], &preds);
        }
    }
}

#[test]
fn appends_into_the_tail_shard_stay_exact() {
    let preds = preds_for(30, 0xE404);
    for (label, seed_rows) in distributions(5_003) {
        for shards in [1usize, 3, 8] {
            let mut rows = seed_rows.clone();
            let mut column = ShardedColumn::new(rows.clone(), shards);
            let mut zonemap = ShardedZonemap::for_column(&column, test_config());
            let policy = ExecPolicy::sequential();
            for (qi, pred) in preds.iter().enumerate() {
                // Interleave an append every few queries; the batch routes
                // to the tail shard and its lane alone.
                if qi % 5 == 4 {
                    let batch: Vec<i64> = (0..137).map(|i| (i * 61) % 10_000).collect();
                    rows.extend_from_slice(&batch);
                    column = column.append(&batch, Vec::new());
                    let tail = column.num_shards() - 1;
                    zonemap.on_append_tail(&batch, column.shard(tail).as_slice());
                }
                let agg = AGGS[qi % AGGS.len()];
                let (got, _) = execute_sharded(&column, &mut zonemap, None, *pred, agg, &policy);
                let want = execute_reference(&rows, *pred, agg);
                assert_same_answer(
                    &got,
                    &want,
                    &format!("{label} shards={shards} q{qi} {agg:?} after appends"),
                );
            }
            assert_eq!(column.len(), rows.len());
        }
    }
}

/// The adaptation-equivalence guard: with one shard, the sharded path is
/// not merely answer-equal to the unsharded adaptive executor — it drives
/// the zonemap through the *identical* state trajectory. Any divergence in
/// zone boundaries, labels, or skip-rate stats fails here, pinning the
/// refactor to the pre-sharding behaviour.
#[test]
fn single_shard_path_reproduces_the_unsharded_zonemap_exactly() {
    let workloads: [(&str, Vec<i64>); 2] = [
        // Clustered: heavy build/split/tighten traffic.
        ("clustered", data::clustered(8_009, 24, 0.05, 10_000, 0xC1)),
        // Adversarial uniform: zones barely help, driving merge/deactivate
        // and revival — the maintenance-heavy trajectory.
        ("uniform", data::uniform(8_009, 10_000, 0xC2)),
    ];
    for (label, rows) in workloads {
        for policy in [
            ExecPolicy::sequential(),
            ExecPolicy {
                threads: 4,
                min_rows_per_thread: 1,
            },
        ] {
            let column = ShardedColumn::new(rows.clone(), 1);
            let mut sharded_zm = ShardedZonemap::for_column(&column, test_config());
            let mut plain_zm = AdaptiveZonemap::new(rows.len(), test_config());
            for (qi, pred) in preds_for(60, 0xE405).iter().enumerate() {
                let agg = AGGS[qi % AGGS.len()];
                let (sharded_ans, _) =
                    execute_sharded(&column, &mut sharded_zm, None, *pred, agg, &policy);
                let (plain_ans, _) = execute_with_policy(&rows, &mut plain_zm, *pred, agg, &policy);
                let ctx = format!("{label} threads={} q{qi} {agg:?}", policy.threads);
                assert_same_answer(&sharded_ans, &plain_ans, &ctx);
                assert_eq!(
                    sharded_zm.zone_snapshot(),
                    plain_zm.zone_snapshot(),
                    "zone trajectory diverged: {ctx}"
                );
            }
        }
    }
}
