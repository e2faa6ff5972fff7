//! Property suites for the zone-local reorganization layer.
//!
//! The layer's contract is purely physical: promoting a hot zone to the
//! sorted layout (or demoting it again) changes how the executor
//! finds qualifying rows, never which rows qualify or what any aggregate
//! over them returns — including the exact bit pattern of f64 SUMs, which
//! the positional path preserves by adding qualifying values in the same
//! ascending row order as the flat scan. Each test replays randomised
//! workloads across many deterministic seeds and checks the reorg-enabled
//! path against the flat path and the straight-scan reference.

use adaptive_data_skipping::core::adaptive::{AdaptiveConfig, AdaptiveZonemap, ShardedZonemap};
use adaptive_data_skipping::core::{RangePredicate, SkippingIndex};
use adaptive_data_skipping::engine::{
    execute_reference, execute_sharded, execute_with_policy, AggKind, ExecPolicy, QueryAnswer,
};
use adaptive_data_skipping::storage::{DataValue, ShardedColumn};
use ads_rng::StdRng;
use std::cmp::Ordering;

const CASES: u64 = 48;

const ALL_AGGS: [AggKind; 5] = [
    AggKind::Count,
    AggKind::Sum,
    AggKind::Min,
    AggKind::Max,
    AggKind::Positions,
];

/// Small zones so promotion/demotion churn happens at test scale. Splits
/// and merges stay enabled: structural adaptation must compose with
/// layout adaptation without changing answers.
fn base_config() -> AdaptiveConfig {
    AdaptiveConfig {
        target_zone_rows: 64,
        min_zone_rows: 8,
        max_zone_rows: 512,
        maintenance_every: 1,
        ..AdaptiveConfig::default()
    }
}

fn reorg_config() -> AdaptiveConfig {
    AdaptiveConfig {
        enable_reorg: true,
        reorg_after_scans: 1,
        reorg_demote_idle: 3,
        // Gate off: equivalence must hold under maximum layout churn,
        // including promotions a production policy would decline.
        reorg_hot_factor: 0.0,
        ..base_config()
    }
}

/// Lockstep variant for the bit-identity property: structural churn off,
/// so the flat and reorg maps keep identical zone partitions and the f64
/// SUM fold grouping is comparable group by group.
fn lockstep_config(reorg: bool) -> AdaptiveConfig {
    AdaptiveConfig {
        enable_split: false,
        enable_merge: false,
        enable_reorg: reorg,
        reorg_after_scans: 1,
        reorg_demote_idle: 3,
        reorg_hot_factor: 0.0,
        ..base_config()
    }
}

/// totalOrder equality — the only equality under which NaN extrema
/// compare equal to themselves.
fn same<T: DataValue>(a: T, b: T) -> bool {
    a.total_cmp(&b) == Ordering::Equal
}

/// Field-wise answer equality that is NaN-safe and bit-exact on sums.
fn assert_answers_identical<T: DataValue>(a: &QueryAnswer<T>, b: &QueryAnswer<T>, ctx: &str) {
    assert_eq!(a.count, b.count, "count {ctx}");
    match (a.sum, b.sum) {
        (None, None) => {}
        (Some(x), Some(y)) => {
            assert_eq!(x.to_bits(), y.to_bits(), "sum bits {ctx}: {x} vs {y}")
        }
        (x, y) => panic!("sum presence {ctx}: {x:?} vs {y:?}"),
    }
    for (got, want, which) in [(a.min, b.min, "min"), (a.max, b.max, "max")] {
        match (got, want) {
            (None, None) => {}
            (Some(x), Some(y)) => assert!(same(x, y), "{which} {ctx}"),
            _ => panic!("{which} presence {ctx}"),
        }
    }
    assert_eq!(a.positions, b.positions, "positions {ctx}");
}

fn gen_i64(rng: &mut StdRng, max_len: usize) -> Vec<i64> {
    let n = rng.gen_range(64..max_len);
    (0..n).map(|_| rng.gen_range(-1000i64..1000)).collect()
}

/// Hotspot-heavy predicate stream: most queries hit a narrow band so
/// zones actually get promoted, with occasional off-band queries so some
/// reorganized zones idle toward demotion.
fn gen_hot_preds(rng: &mut StdRng, n: usize) -> Vec<RangePredicate<i64>> {
    let center = rng.gen_range(-800i64..800);
    (0..n)
        .map(|_| {
            if rng.gen_range(0..5usize) == 0 {
                let lo = rng.gen_range(-1200i64..1200);
                RangePredicate::between(lo, lo + rng.gen_range(0i64..400))
            } else {
                let lo = center + rng.gen_range(-60i64..60);
                RangePredicate::between(lo, lo + rng.gen_range(10i64..120))
            }
        })
        .collect()
}

#[test]
fn reorg_matches_flat_and_reference_on_i64_workloads() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xE19_0001 ^ case);
        let data = gen_i64(&mut rng, 4000);
        let preds = gen_hot_preds(&mut rng, 24);
        for threads in [1usize, 8] {
            let policy = ExecPolicy {
                threads,
                min_rows_per_thread: 1,
            };
            let mut flat = AdaptiveZonemap::new(data.len(), base_config());
            let mut reorg = AdaptiveZonemap::new(data.len(), reorg_config());
            for (qi, pred) in preds.iter().enumerate() {
                let agg = ALL_AGGS[qi % ALL_AGGS.len()];
                let (f, _) = execute_with_policy(&data, &mut flat, *pred, agg, &policy);
                let (r, _) = execute_with_policy(&data, &mut reorg, *pred, agg, &policy);
                let want = execute_reference(&data, *pred, agg);
                let ctx = format!("case {case} t={threads} q{qi} {agg:?}");
                assert_answers_identical(&r, &f, &ctx);
                assert_answers_identical(&r, &want, &ctx);
            }
            // The workload was hot enough to exercise the layer at all.
            if threads == 1 && case % 8 == 0 {
                assert!(
                    reorg.reorg_stats().zones_promoted > 0,
                    "case {case}: hotspot workload never promoted a zone"
                );
            }
        }
    }
}

/// Edge values every float path must agree on: NaNs of both signs, both
/// zeros, both infinities, plus ordinary magnitudes whose sums are
/// sensitive to addition order.
fn gen_f64_edgy(rng: &mut StdRng, len: usize) -> Vec<f64> {
    const EDGES: [f64; 6] = [f64::NAN, 0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, 1.0];
    (0..len)
        .map(|_| {
            if rng.gen_range(0..4usize) == 0 {
                let e = EDGES[rng.gen_range(0..EDGES.len())];
                if rng.gen_range(0..2usize) == 0 {
                    -e
                } else {
                    e
                }
            } else {
                rng.gen_range(-1_000_000i64..1_000_000) as f64 / 64.0
            }
        })
        .collect()
}

#[test]
fn reorg_f64_answers_bit_identical_to_flat_including_nan_and_signed_zero() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xE19_0002 ^ case);
        let n = rng.gen_range(200..2500usize);
        let data = gen_f64_edgy(&mut rng, n);
        for threads in [1usize, 8] {
            let policy = ExecPolicy {
                threads,
                min_rows_per_thread: 1,
            };
            let mut flat = AdaptiveZonemap::new(data.len(), lockstep_config(false));
            let mut reorg = AdaptiveZonemap::new(data.len(), lockstep_config(true));
            for qi in 0..15 {
                // Bounds drawn from the edgy distribution too (ordered
                // under totalOrder, as `between` requires): NaN and
                // infinite bounds are valid equivalence cases.
                let b = gen_f64_edgy(&mut rng, 2);
                let (lo, hi) = if b[0].total_cmp(&b[1]) == Ordering::Greater {
                    (b[1], b[0])
                } else {
                    (b[0], b[1])
                };
                let pred = RangePredicate::between(lo, hi);
                let agg = ALL_AGGS[qi % ALL_AGGS.len()];
                let (f, _) = execute_with_policy(&data, &mut flat, pred, agg, &policy);
                let (r, _) = execute_with_policy(&data, &mut reorg, pred, agg, &policy);
                assert_answers_identical(
                    &r,
                    &f,
                    &format!("f64 case {case} t={threads} q{qi} {agg:?}"),
                );
            }
        }
    }
}

#[test]
fn reorg_sharded_answers_match_flat_at_any_shard_count() {
    for case in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0xE19_0003 ^ case);
        let data = gen_i64(&mut rng, 5000);
        let preds = gen_hot_preds(&mut rng, 16);
        for shards in [1usize, 8] {
            for threads in [1usize, 8] {
                let policy = ExecPolicy {
                    threads,
                    min_rows_per_thread: 1,
                };
                let column = ShardedColumn::new(data.clone(), shards);
                let mut flat = ShardedZonemap::for_column(&column, base_config());
                let mut reorg = ShardedZonemap::for_column(&column, reorg_config());
                for (qi, pred) in preds.iter().enumerate() {
                    let agg = ALL_AGGS[qi % ALL_AGGS.len()];
                    let (f, _) = execute_sharded(&column, &mut flat, None, *pred, agg, &policy);
                    let (r, _) = execute_sharded(&column, &mut reorg, None, *pred, agg, &policy);
                    let want = execute_reference(&data, *pred, agg);
                    let ctx = format!("case {case} s={shards} t={threads} q{qi} {agg:?}");
                    assert_answers_identical(&r, &f, &ctx);
                    assert_answers_identical(&r, &want, &ctx);
                }
            }
        }
    }
}

/// Structural soundness under the full lifecycle: promote zones with a
/// hotspot, append rows (which must land flat and never disturb a
/// reorganized zone's payload), move the hotspot so old zones idle into
/// demotion — and at every step `zone_snapshot()` stays a contiguous
/// partition whose "reorg" labels agree with the layout, while answers
/// stay exact.
#[test]
fn promote_append_demote_interleavings_keep_zone_snapshot_sound() {
    for case in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0xE19_0004 ^ case);
        let mut data = gen_i64(&mut rng, 3000);
        let mut zm = AdaptiveZonemap::new(data.len(), reorg_config());
        let mut center = rng.gen_range(-800i64..800);
        let steps = rng.gen_range(20..60usize);
        for step in 0..steps {
            match rng.gen_range(0..8usize) {
                // Append: new rows open flat zones at the tail.
                0 => {
                    let batch: Vec<i64> = (0..rng.gen_range(1..200usize))
                        .map(|_| rng.gen_range(-1000i64..1000))
                        .collect();
                    let old = data.len();
                    data.extend_from_slice(&batch);
                    zm.on_append(&data[old..], &data);
                }
                // Hotspot shift: previously hot zones start idling.
                1 => center = rng.gen_range(-800i64..800),
                // Query at the current hotspot.
                _ => {
                    let lo = center + rng.gen_range(-60i64..60);
                    let pred = RangePredicate::between(lo, lo + rng.gen_range(10i64..120));
                    let agg = ALL_AGGS[step % ALL_AGGS.len()];
                    let (got, _) =
                        execute_with_policy(&data, &mut zm, pred, agg, &ExecPolicy::sequential());
                    let want = execute_reference(&data, pred, agg);
                    assert_answers_identical(
                        &got,
                        &want,
                        &format!("case {case} step {step} {agg:?}"),
                    );
                }
            }
            // The snapshot is a contiguous partition of [0, len) and its
            // layout lane mirrors the zones' actual layouts.
            let snap = zm.zone_snapshot();
            let mut at = 0usize;
            let mut reorg_labels = 0usize;
            for (range, label, _) in &snap {
                assert_eq!(range.start, at, "case {case} step {step}: gap in snapshot");
                assert!(range.end > range.start);
                at = range.end;
                if *label == "reorg" {
                    reorg_labels += 1;
                }
            }
            assert_eq!(at, data.len(), "case {case} step {step}: snapshot short");
            assert_eq!(
                reorg_labels,
                zm.zones_reorganized(),
                "case {case} step {step}: layout lane out of sync"
            );
        }
        // The lifecycle actually ran: hotspot workloads promote, and over
        // enough steps with shifting hotspots some demotions happen too.
        let stats = zm.reorg_stats();
        if case == 0 {
            assert!(stats.zones_promoted > 0, "lifecycle never promoted");
        }
    }
}

/// The relative-hotness gate: a uniform workload over uniform data scans
/// every zone equally often, so under the default `reorg_hot_factor` no
/// zone ever stands out and promotion correctly never triggers — the
/// policy reorganizes hotspots, not maps that are merely warm all over.
#[test]
fn uniform_workload_never_promotes_under_default_hot_factor() {
    for case in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(0xE19_0005 ^ case);
        let data = gen_i64(&mut rng, 4000);
        let mut zm = AdaptiveZonemap::new(
            data.len(),
            AdaptiveConfig {
                enable_reorg: true,
                reorg_after_scans: 1,
                ..base_config()
            },
        );
        for qi in 0..40 {
            let lo = rng.gen_range(-1200i64..1200);
            let pred = RangePredicate::between(lo, lo + rng.gen_range(50i64..400));
            let agg = ALL_AGGS[qi % ALL_AGGS.len()];
            let (got, _) =
                execute_with_policy(&data, &mut zm, pred, agg, &ExecPolicy::sequential());
            assert_answers_identical(
                &got,
                &execute_reference(&data, pred, agg),
                &format!("case {case} q{qi} {agg:?}"),
            );
        }
        assert_eq!(
            zm.reorg_stats().zones_promoted,
            0,
            "case {case}: uniform workload must not promote"
        );
    }
}
