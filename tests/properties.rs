//! Property-style tests over the framework's core invariants.
//!
//! Each test replays the same randomised scenario across many
//! deterministic seeds (a lightweight substitute for an external
//! property-testing framework): random data, random predicate sequences,
//! every index structure, checked against a straight-scan reference.

use adaptive_data_skipping::baselines::{ColumnImprints, CrackerColumn, SortedOracle};
use adaptive_data_skipping::core::adaptive::ShardedZonemap;
use adaptive_data_skipping::core::adaptive::{
    AdaptiveConfig, AdaptiveZonemap, ReorgStats, TierStats,
};
use adaptive_data_skipping::core::{
    RangeObservation, RangePredicate, ScanObservation, SkippingIndex, StaticZonemap, UnitRequest,
    UnitWork,
};
use adaptive_data_skipping::engine::execute_sharded;
use adaptive_data_skipping::engine::{
    execute, execute_reference, execute_with_policy, AggKind, ExecPolicy, Strategy,
};
use adaptive_data_skipping::storage::scan::{
    AllLive, Bins, Bounds, ByProduct, Liveness, NoByProduct,
};
use adaptive_data_skipping::storage::{
    scan, Bitmap, DataValue, DeleteVector, RangeSet, ShardedColumn,
};
use ads_rng::StdRng;
use std::cmp::Ordering;

/// Cases per property — the budget an external framework would default to.
const CASES: u64 = 64;

/// Small adaptive config so structural churn happens at test scale.
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

fn gen_data(rng: &mut StdRng, max_len: usize) -> Vec<i64> {
    let n = rng.gen_range(0..max_len);
    (0..n).map(|_| rng.gen_range(-1000i64..1000)).collect()
}

fn gen_pred(rng: &mut StdRng) -> RangePredicate<i64> {
    let lo = rng.gen_range(-1200i64..1200);
    let w = rng.gen_range(0i64..500);
    RangePredicate::between(lo, lo + w)
}

fn gen_preds(rng: &mut StdRng, lo: usize, hi: usize) -> Vec<RangePredicate<i64>> {
    let n = rng.gen_range(lo..hi);
    (0..n).map(|_| gen_pred(rng)).collect()
}

/// Drives the prune/scan/observe loop once and checks soundness: every
/// qualifying row is covered by a unit or full_match, and full_match
/// ranges contain only qualifying rows.
fn check_soundness(index: &mut dyn SkippingIndex<i64>, data: &[i64], pred: RangePredicate<i64>) {
    let out = index.prune(&pred);
    let target: Vec<i64> = match index.view() {
        Some(v) => v.to_vec(),
        None => data.to_vec(),
    };
    let scanned = out.unit_set();
    for (i, &v) in target.iter().enumerate() {
        if pred.matches(v) {
            assert!(
                scanned.contains(i) || out.full_match.contains(i),
                "row {i} (value {v}) lost under {}",
                index.name()
            );
        }
    }
    for r in out.full_match.ranges() {
        for (i, &v) in target.iter().enumerate().take(r.end).skip(r.start) {
            assert!(
                pred.matches(v),
                "row {i} wrongly full-matched under {}",
                index.name()
            );
        }
    }
    // Feed honest observations so adaptive structures keep evolving.
    index.observe(&observe_units(&out, &target, pred));
}

#[test]
fn prune_soundness_all_indexes() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5001 ^ case);
        let data = gen_data(&mut rng, 2000);
        let preds = gen_preds(&mut rng, 1, 12);
        let mut indexes: Vec<Box<dyn SkippingIndex<i64>>> = vec![
            Box::new(StaticZonemap::build(&data, 37)),
            Box::new(AdaptiveZonemap::new(data.len(), test_config())),
            Box::new(ColumnImprints::build(&data, 8, 16)),
            Box::new(CrackerColumn::build(&data)),
            Box::new(SortedOracle::build(&data)),
        ];
        for pred in &preds {
            for index in &mut indexes {
                check_soundness(index.as_mut(), &data, *pred);
            }
        }
    }
}

#[test]
fn answers_match_reference_for_random_workloads() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5002 ^ case);
        let data = gen_data(&mut rng, 2000);
        let preds = gen_preds(&mut rng, 1, 10);
        for strategy in Strategy::roster() {
            let mut index = strategy.build_index(&data);
            for pred in &preds {
                let (got, _) = execute(&data, index.as_mut(), *pred, AggKind::Count);
                let want = execute_reference(&data, *pred, AggKind::Count);
                assert_eq!(got.count, want.count, "case {case}: {}", strategy.label());
            }
        }
    }
}

#[test]
fn positions_match_reference() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5003 ^ case);
        let data = gen_data(&mut rng, 2000);
        let pred = gen_pred(&mut rng);
        for strategy in Strategy::roster() {
            let mut index = strategy.build_index(&data);
            // Run twice: once to let adaptive structures reorganise, once
            // to answer from the reorganised state.
            let _ = execute(&data, index.as_mut(), pred, AggKind::Positions);
            let (got, _) = execute(&data, index.as_mut(), pred, AggKind::Positions);
            let want = execute_reference(&data, pred, AggKind::Positions);
            assert_eq!(
                got.positions,
                want.positions,
                "case {case}: {}",
                strategy.label()
            );
        }
    }
}

#[test]
fn parallel_execution_is_equivalent_to_sequential() {
    // The tentpole guarantee: thread count changes neither answers nor
    // adaptation. Replaying the same query sequence under every policy
    // must produce identical QueryAnswers for every aggregate kind AND
    // leave an adaptive zonemap in an identical structural state.
    const AGGS: [AggKind; 5] = [
        AggKind::Count,
        AggKind::Sum,
        AggKind::Min,
        AggKind::Max,
        AggKind::Positions,
    ];
    for case in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(0x5009 ^ case);
        let n = rng.gen_range(500..4000usize);
        let data: Vec<i64> = (0..n).map(|_| rng.gen_range(-1000i64..1000)).collect();
        let preds = gen_preds(&mut rng, 4, 10);
        for threads in [2usize, 3, 8] {
            // An eager policy so parallelism actually engages at this scale.
            let policy = ExecPolicy {
                threads,
                min_rows_per_thread: 1,
            };
            for strategy in Strategy::roster() {
                let mut seq_idx = strategy.build_index(&data);
                let mut par_idx = strategy.build_index(&data);
                for (qi, pred) in preds.iter().enumerate() {
                    let agg = AGGS[qi % AGGS.len()];
                    let (seq, _) = execute_with_policy(
                        &data,
                        seq_idx.as_mut(),
                        *pred,
                        agg,
                        &ExecPolicy::sequential(),
                    );
                    let (par, _) =
                        execute_with_policy(&data, par_idx.as_mut(), *pred, agg, &policy);
                    assert_eq!(
                        seq,
                        par,
                        "case {case} t={threads} q{qi} {agg:?}: {}",
                        strategy.label()
                    );
                }
            }
            // Same sequence against adaptive zonemaps directly: the
            // post-workload zone partition must be identical too.
            let mut seq_zm = AdaptiveZonemap::new(data.len(), test_config());
            let mut par_zm = AdaptiveZonemap::new(data.len(), test_config());
            for (qi, pred) in preds.iter().enumerate() {
                let agg = AGGS[qi % AGGS.len()];
                let _ =
                    execute_with_policy(&data, &mut seq_zm, *pred, agg, &ExecPolicy::sequential());
                let _ = execute_with_policy(&data, &mut par_zm, *pred, agg, &policy);
            }
            assert_eq!(
                seq_zm.zone_snapshot(),
                par_zm.zone_snapshot(),
                "case {case} t={threads}: adaptation diverged"
            );
        }
    }
}

#[test]
fn sharded_execution_matches_reference_on_random_workloads() {
    // Random data lengths (including lengths below the shard count and
    // zero), random predicates, every aggregate, shard counts {1, 3, 8},
    // sequential and parallel policies: the sharded path must agree with
    // the straight-scan reference everywhere, f64 sums bit-for-bit.
    const AGGS: [AggKind; 5] = [
        AggKind::Count,
        AggKind::Sum,
        AggKind::Min,
        AggKind::Max,
        AggKind::Positions,
    ];
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5AAD ^ case);
        let data = gen_data(&mut rng, 3000);
        let preds = gen_preds(&mut rng, 2, 10);
        for shards in [1usize, 3, 8] {
            let policy = ExecPolicy {
                threads: rng.gen_range(1..5usize),
                min_rows_per_thread: 1,
            };
            let column = ShardedColumn::new(data.clone(), shards);
            let mut zonemap = ShardedZonemap::for_column(&column, test_config());
            for (qi, pred) in preds.iter().enumerate() {
                let agg = AGGS[qi % AGGS.len()];
                let (got, _) = execute_sharded(&column, &mut zonemap, None, *pred, agg, &policy);
                let want = execute_reference(&data, *pred, agg);
                let ctx = format!("case {case} shards={shards} q{qi} {agg:?}");
                assert_eq!(got.count, want.count, "count {ctx}");
                assert_eq!(
                    got.sum.map(f64::to_bits),
                    want.sum.map(f64::to_bits),
                    "sum bits {ctx}"
                );
                assert_eq!(got.min, want.min, "min {ctx}");
                assert_eq!(got.max, want.max, "max {ctx}");
                assert_eq!(got.positions, want.positions, "positions {ctx}");
            }
        }
    }
}

#[test]
fn adaptive_zone_partition_survives_any_query_sequence() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5004 ^ case);
        let len = rng.gen_range(0..5000usize);
        let preds = gen_preds(&mut rng, 1, 30);
        let data: Vec<i64> = (0..len as i64).map(|i| (i * 37) % 997 - 500).collect();
        let mut zm = AdaptiveZonemap::new(len, test_config());
        for pred in preds {
            check_soundness(&mut zm, &data, pred);
            zm.assert_invariants();
        }
    }
}

#[test]
fn adaptive_soundness_under_interleaved_appends() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5005 ^ case);
        let mut data = gen_data(&mut rng, 2000);
        let pred = gen_pred(&mut rng);
        let n_batches = rng.gen_range(0..6usize);
        let mut zm = AdaptiveZonemap::new(data.len(), test_config());
        check_soundness(&mut zm, &data, pred);
        for _ in 0..n_batches {
            let batch = {
                let b = rng.gen_range(1..100usize);
                (0..b)
                    .map(|_| rng.gen_range(-1000i64..1000))
                    .collect::<Vec<_>>()
            };
            let old = data.len();
            data.extend_from_slice(&batch);
            zm.on_append(&data[old..], &data);
            zm.assert_invariants();
            check_soundness(&mut zm, &data, pred);
            let (got, _) = execute(&data, &mut zm, pred, AggKind::Count);
            let want = execute_reference(&data, pred, AggKind::Count);
            assert_eq!(got.count, want.count, "case {case}");
        }
    }
}

#[test]
fn cracking_preserves_multiset() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5006 ^ case);
        let data = gen_data(&mut rng, 2000);
        let preds = gen_preds(&mut rng, 1, 10);
        let mut cc = CrackerColumn::build(&data);
        for pred in &preds {
            let _ = cc.prune(pred);
        }
        let mut original = data.clone();
        let mut cracked = cc.view().expect("cracker exposes its view").to_vec();
        original.sort_unstable();
        cracked.sort_unstable();
        assert_eq!(original, cracked, "case {case}");
    }
}

#[test]
fn rangeset_complement_partitions() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5007 ^ case);
        let n = rng.gen_range(500..600usize);
        let n_spans = rng.gen_range(0..20usize);
        let mut spans: Vec<(usize, usize)> = (0..n_spans)
            .map(|_| (rng.gen_range(0..500usize), rng.gen_range(0..50usize)))
            .collect();
        spans.sort_unstable();
        let mut rs = RangeSet::new();
        for (start, w) in spans {
            let end = (start + w).min(n);
            if start < end {
                // push requires increasing starts; clamp overlaps are fine.
                if rs.ranges().last().is_none_or(|r| start >= r.start) {
                    rs.push_span(start, end);
                }
            }
        }
        let comp = rs.complement(n);
        assert_eq!(rs.covered_rows() + comp.covered_rows(), n, "case {case}");
        for row in 0..n {
            assert!(
                rs.contains(row) != comp.contains(row),
                "case {case} row {row}"
            );
        }
    }
}

/// totalOrder equality — the only equality under which NaN bounds compare
/// equal to themselves, which the float kernel properties need.
fn same<T: DataValue>(a: T, b: T) -> bool {
    a.total_cmp(&b) == Ordering::Equal
}

/// Asserts every block-vectorized kernel in `scan` agrees with its retained
/// scalar reference in `scan::scalar` on this exact input — counts and
/// positions exactly, min/max under totalOrder, float sums bit-for-bit.
fn assert_block_kernels_match_scalar<T: DataValue>(data: &[T], lo: T, hi: T, ctx: &str) {
    assert_eq!(
        scan::count_in_range(data, lo, hi),
        scan::scalar::count_in_range(data, lo, hi),
        "count_in_range {ctx}"
    );

    let (c1, mn1, mx1) = scan::count_in_range_with_minmax(data, lo, hi);
    let (c2, mn2, mx2) = scan::scalar::count_in_range_with_minmax(data, lo, hi);
    assert!(
        c1 == c2 && same(mn1, mn2) && same(mx1, mx2),
        "count_in_range_with_minmax {ctx}"
    );

    let (sc1, sum1) = scan::sum_in_range(data, lo, hi);
    let (sc2, sum2) = scan::scalar::sum_in_range(data, lo, hi);
    assert_eq!(sc1, sc2, "sum_in_range count {ctx}");
    assert_eq!(
        sum1.to_bits(),
        sum2.to_bits(),
        "sum_in_range bits {ctx}: {sum1} vs {sum2}"
    );

    // A non-zero base exercises the position-offset arithmetic too.
    let base = 3usize;
    let mut pos1 = Vec::new();
    let mut pos2 = Vec::new();
    scan::collect_in_range(data, base, lo, hi, &mut pos1);
    scan::scalar::collect_in_range(data, base, lo, hi, &mut pos2);
    assert_eq!(pos1, pos2, "collect_in_range {ctx}");

    let mut bm1 = Bitmap::new(base + data.len());
    let mut bm2 = Bitmap::new(base + data.len());
    scan::fill_bitmap_in_range(data, base, lo, hi, &mut bm1);
    scan::scalar::fill_bitmap_in_range(data, base, lo, hi, &mut bm2);
    assert_eq!(
        bm1.to_positions(),
        bm2.to_positions(),
        "fill_bitmap_in_range {ctx}"
    );

    let a1 = scan::aggregate_in_range(data, lo, hi);
    let a2 = scan::scalar::aggregate_in_range(data, lo, hi);
    assert!(
        a1.count == a2.count
            && a1.sum.to_bits() == a2.sum.to_bits()
            && same(a1.range_min, a2.range_min)
            && same(a1.range_max, a2.range_max)
            && same(a1.match_min, a2.match_min)
            && same(a1.match_max, a2.match_max),
        "aggregate_in_range {ctx}"
    );

    let mut cp1 = Vec::new();
    let mut cp2 = Vec::new();
    let (cc1, cmn1, cmx1) = scan::collect_in_range_with_minmax(data, base, lo, hi, &mut cp1);
    let (cc2, cmn2, cmx2) =
        scan::scalar::collect_in_range_with_minmax(data, base, lo, hi, &mut cp2);
    assert!(
        cc1 == cc2 && cp1 == cp2 && same(cmn1, cmn2) && same(cmx1, cmx2),
        "collect_in_range_with_minmax {ctx}"
    );

    let mut fb1 = Bitmap::new(base + data.len());
    let mut fb2 = Bitmap::new(base + data.len());
    let (fc1, fmn1, fmx1) = scan::fill_bitmap_in_range_with_minmax(data, base, lo, hi, &mut fb1);
    let (fc2, fmn2, fmx2) =
        scan::scalar::fill_bitmap_in_range_with_minmax(data, base, lo, hi, &mut fb2);
    assert!(
        fc1 == fc2 && same(fmn1, fmn2) && same(fmx1, fmx2),
        "fill_bitmap_in_range_with_minmax aggregates {ctx}"
    );
    assert_eq!(
        fb1.to_positions(),
        fb2.to_positions(),
        "fill_bitmap_in_range_with_minmax bits {ctx}"
    );

    match (
        scan::min_max_in_range(data, lo, hi),
        scan::scalar::min_max_in_range(data, lo, hi),
    ) {
        (None, None) => {}
        (Some((m1, x1)), Some((m2, x2))) => {
            assert!(same(m1, m2) && same(x1, x2), "min_max_in_range {ctx}")
        }
        _ => panic!("min_max_in_range presence mismatch {ctx}"),
    }
}

/// Lengths that straddle the 64-lane block boundary: empty, the scalar
/// tail alone, exact blocks, and ±1 around one and two blocks.
const LANE_EDGE_LENS: [usize; 9] = [0, 1, 63, 64, 65, 127, 128, 129, 200];

#[test]
fn block_kernels_match_scalar_reference_i64() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x500A ^ case);
        for &len in &LANE_EDGE_LENS {
            let mut data: Vec<i64> = (0..len).map(|_| rng.gen_range(-1000i64..1000)).collect();
            // Sprinkle type extremes so boundary predicates get exercised.
            if !data.is_empty() {
                let i = rng.gen_range(0..data.len());
                data[i] = *[i64::MIN, i64::MAX, 0].get(case as usize % 3).unwrap();
            }
            let pred = gen_pred(&mut rng);
            let ctx = format!("i64 case {case} len {len}");
            assert_block_kernels_match_scalar(&data, pred.lo, pred.hi, &ctx);
        }
        // One random length per case, away from the curated edges.
        let len = rng.gen_range(0..400usize);
        let data: Vec<i64> = (0..len).map(|_| rng.gen_range(-1000i64..1000)).collect();
        let pred = gen_pred(&mut rng);
        assert_block_kernels_match_scalar(
            &data,
            pred.lo,
            pred.hi,
            &format!("i64 case {case} len {len}"),
        );
    }
}

/// Edge values every float kernel must agree on: NaNs of both signs, both
/// zeros, both infinities.
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
fn block_kernels_match_scalar_reference_floats() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x500B ^ case);
        for &len in &LANE_EDGE_LENS {
            let data = gen_f64_edgy(&mut rng, len);
            // Predicate bounds drawn from the same edgy distribution, so
            // lo/hi themselves are sometimes NaN, ±0.0, or infinite (an
            // inverted or never-matching range is a valid equivalence
            // case, not an error).
            let bounds = gen_f64_edgy(&mut rng, 2);
            let (lo, hi) = (bounds[0], bounds[1]);
            let ctx = format!("f64 case {case} len {len}");
            assert_block_kernels_match_scalar(&data, lo, hi, &ctx);

            let data32: Vec<f32> = data.iter().map(|&v| v as f32).collect();
            let ctx32 = format!("f32 case {case} len {len}");
            assert_block_kernels_match_scalar(&data32, lo as f32, hi as f32, &ctx32);
        }
    }
}

/// What the scalar reference says about one slice: the answers over the
/// rows liveness keeps, and the by-products over every row.
struct Expected<T: DataValue> {
    /// Reference aggregates over the live rows only.
    live: scan::RangeAggregates<T>,
    /// Live qualifying positions, ascending.
    positions: Vec<u32>,
    /// `(min, max)` over all rows, dead ones included.
    bounds: (T, T),
    /// The [`BIN_LAYOUT`] mask over all rows, dead ones included.
    bins: u64,
}

/// Bin layout of the value-mask by-product in the kernel properties.
const BIN_LAYOUT: (f64, f64) = (-500.0, 500.0);

/// Runs the four answer kernels with one by-product choice and asserts
/// the answers — count, `f64` sum bit for bit, MIN/MAX of the matches,
/// positions — equal the reference whatever is collected on the side,
/// and that `check` accepts the by-product each pass leaves behind.
fn assert_answers_match_reference<T: DataValue, L: Liveness, B: ByProduct<T>>(
    data: &[T],
    (base, lo, hi): (usize, T, T),
    live: L,
    want: &Expected<T>,
    fresh: impl Fn() -> B,
    check: impl Fn(&B) -> bool,
    ctx: &str,
) {
    let mut by = fresh();
    let count = scan::count(data, lo, hi, live, base, &mut by);
    assert!(count == want.live.count && check(&by), "count {ctx}");

    let mut by = fresh();
    let (n, sum) = scan::sum(data, lo, hi, live, base, &mut by);
    assert!(
        n == want.live.count && sum.to_bits() == want.live.sum.to_bits() && check(&by),
        "sum {ctx}: {sum} vs {}",
        want.live.sum
    );

    let mut by = fresh();
    let got = scan::aggregate(data, lo, hi, live, base, &mut by);
    assert!(
        got.count == want.live.count
            && got.sum.to_bits() == want.live.sum.to_bits()
            && same(got.min, want.live.match_min)
            && same(got.max, want.live.match_max)
            && check(&by),
        "aggregate {ctx}: {got:?} vs {:?}",
        want.live
    );

    let mut by = fresh();
    let mut positions = vec![7u32]; // earlier content must survive
    let n = scan::collect(data, lo, hi, live, base, &mut positions, &mut by);
    assert!(
        n == want.positions.len()
            && positions[0] == 7
            && positions[1..] == want.positions
            && check(&by),
        "collect {ctx}"
    );
}

/// Asserts the generic kernels over `column[base..base + len]` with
/// liveness source `live` agree with the scalar reference run over the
/// rows `is_live` keeps, under every by-product choice: answers cover
/// live rows only and do not depend on what is collected beside them,
/// while the `(min, max)` and value-mask by-products cover every row of
/// the slice — dead rows still widen the bounds and set their bin.
fn assert_generic_kernels_match_reference<T: DataValue, L: Liveness>(
    column: &[T],
    (base, len): (usize, usize),
    (lo, hi): (T, T),
    live: L,
    is_live: impl Fn(usize) -> bool,
    ctx: &str,
) {
    let data = &column[base..base + len];
    let kept: Vec<T> = (0..len)
        .filter(|&i| is_live(base + i))
        .map(|i| data[i])
        .collect();
    let all = scan::scalar::aggregate_in_range(data, lo, hi);
    let scale = 64.0 / (BIN_LAYOUT.1 - BIN_LAYOUT.0);
    let want = Expected {
        live: scan::scalar::aggregate_in_range(&kept, lo, hi),
        positions: (0..len)
            .filter(|&i| is_live(base + i) && data[i].ge_total(&lo) && data[i].le_total(&hi))
            .map(|i| (base + i) as u32)
            .collect(),
        bounds: (all.range_min, all.range_max),
        bins: data.iter().fold(0u64, |m, v| {
            m | 1 << ((v.to_f64() - BIN_LAYOUT.0) * scale).clamp(0.0, 63.0) as u32
        }),
    };
    let bounds_ok = |b: &Bounds<T>| {
        let (min, max) = b.min_max();
        same(min, want.bounds.0) && same(max, want.bounds.1)
    };
    let bins_ok = |b: &Bins| b.mask() == want.bins;
    let new_bins = || Bins::new(BIN_LAYOUT.0, BIN_LAYOUT.1);
    let at = (base, lo, hi);

    assert_answers_match_reference(
        data,
        at,
        live,
        &want,
        || NoByProduct,
        |_| true,
        &format!("{ctx} lean"),
    );
    assert_answers_match_reference(
        data,
        at,
        live,
        &want,
        Bounds::new,
        bounds_ok,
        &format!("{ctx} +bounds"),
    );
    assert_answers_match_reference(
        data,
        at,
        live,
        &want,
        new_bins,
        bins_ok,
        &format!("{ctx} +bins"),
    );
    assert_answers_match_reference(
        data,
        at,
        live,
        &want,
        || (Bounds::new(), new_bins()),
        |by| bounds_ok(&by.0) && bins_ok(&by.1),
        &format!("{ctx} +bounds+bins"),
    );

    let (rows, sum) = scan::sum_rows(data, (T::MIN_VALUE, T::MAX_VALUE), live, base);
    let (_, want_sum) = scan::scalar::sum_in_range(&kept, T::MIN_VALUE, T::MAX_VALUE);
    let nan_free = kept
        .iter()
        .all(|v| v.ge_total(&T::MIN_VALUE) && v.le_total(&T::MAX_VALUE));
    assert_eq!(rows, kept.len(), "sum_rows count {ctx}");
    let kept_all = scan::scalar::aggregate_in_range(&kept, T::MIN_VALUE, T::MAX_VALUE);
    if nan_free {
        // `[MIN_VALUE, MAX_VALUE]` keeps every non-NaN value, so the
        // reference above summed exactly the live rows.
        assert_eq!(sum.to_bits(), want_sum.to_bits(), "sum_rows bits {ctx}");
        // Under the live rows' own bounds, as a full-match range gets
        // them: narrow enough for the integer lanes where they are small.
        let tight = (kept_all.match_min, kept_all.match_max);
        let (rows, sum) = scan::sum_rows(data, tight, live, base);
        assert_eq!(rows, kept.len(), "sum_rows tight count {ctx}");
        assert_eq!(
            sum.to_bits(),
            want_sum.to_bits(),
            "sum_rows tight bits {ctx}"
        );
    }

    match scan::min_max_rows(data, live, base) {
        None => assert!(kept.is_empty(), "min_max_rows none {ctx}"),
        Some((lmin, lmax)) => assert!(
            !kept.is_empty()
                && (!nan_free
                    || (same(lmin, kept_all.match_min) && same(lmax, kept_all.match_max))),
            "min_max_rows {ctx}"
        ),
    }

    let mut live_rows = Vec::new();
    scan::live_positions(live, base, base + len, &mut live_rows);
    let want_rows: Vec<u32> = (base..base + len)
        .filter(|&r| is_live(r))
        .map(|r| r as u32)
        .collect();
    assert_eq!(live_rows, want_rows, "live_positions {ctx}");
}

/// Lengths around one block, and around the 4096-row default zone.
const GENERIC_LENS: [usize; 8] = [0, 1, 63, 64, 65, 4095, 4096, 4097];

/// Runs [`assert_generic_kernels_match_reference`] over
/// `column[base..base + len]` under every liveness source: none (where an
/// all-live vector, no vector, and the scalar reference must all agree),
/// and tombstones on block edges, on whole blocks, and at random rows
/// drawn from `rng`.
fn assert_under_every_liveness<T: DataValue>(
    column: &[T],
    (base, len): (usize, usize),
    range: (T, T),
    rng: &mut StdRng,
    ctx: &str,
) {
    let rows = column.len();
    let all_live = DeleteVector::new(rows, 0);
    assert_generic_kernels_match_reference(
        column,
        (base, len),
        range,
        AllLive,
        |_| true,
        &format!("{ctx} no vector"),
    );
    assert_generic_kernels_match_reference(
        column,
        (base, len),
        range,
        &all_live,
        |_| true,
        &format!("{ctx} all-live vector"),
    );

    let edges = |r: usize| matches!((r - base.min(r)) % 64, 0 | 63);
    let dead_blocks = |r: usize| (r / 64) % 3 == 1;
    let random: Vec<bool> = (0..rows).map(|_| rng.gen_range(0..7usize) == 0).collect();
    let layouts: [(&str, &dyn Fn(usize) -> bool); 3] = [
        ("block edges", &edges),
        ("dead blocks", &dead_blocks),
        ("random", &|r| random[r]),
    ];
    for (name, is_dead) in layouts {
        let mut dv = DeleteVector::new(rows, 1);
        for r in (0..rows).filter(|&r| is_dead(r)) {
            dv.delete(r);
        }
        assert_generic_kernels_match_reference(
            column,
            (base, len),
            range,
            &dv,
            |r| !is_dead(r),
            &format!("{ctx} {name}"),
        );
    }
}

/// Runs [`assert_under_every_liveness`] over one typed column for every
/// length and two block-unaligned bases.
fn check_generic_kernels<T: DataValue>(
    ty: &str,
    gen: impl Fn(&mut StdRng) -> T,
    bounds: impl Fn(&mut StdRng) -> (T, T),
    seed: u64,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    for &len in &GENERIC_LENS {
        for base in [0usize, 5, 67] {
            let rows = base + len + 3;
            let column: Vec<T> = (0..rows).map(|_| gen(&mut rng)).collect();
            let range = bounds(&mut rng);
            let ctx = format!("{ty} len {len} base {base} [{:?}, {:?}]", range.0, range.1);
            assert_under_every_liveness(&column, (base, len), range, &mut rng, &ctx);
        }
    }
}

#[test]
fn generic_kernels_match_reference_under_every_byproduct_and_liveness_source() {
    for case in 0..8u64 {
        check_generic_kernels(
            "i64",
            |rng| match rng.gen_range(0..40usize) {
                0 => i64::MIN,
                1 => i64::MAX,
                _ => rng.gen_range(-1000i64..1000),
            },
            |rng| match rng.gen_range(0..6usize) {
                0 => (i64::MIN, i64::MAX),
                1 => (400, -400),   // inverted: empty
                2 => (-1000, 1000), // dense: every ordinary row
                _ => {
                    let p = gen_pred(rng);
                    (p.lo, p.hi)
                }
            },
            0x500D ^ case,
        );
        let edgy = |rng: &mut StdRng| gen_f64_edgy(rng, 1)[0];
        let edgy_bounds = |rng: &mut StdRng| match rng.gen_range(0..4usize) {
            0 => (f64::NEG_INFINITY, f64::INFINITY),
            1 => (f64::MIN, f64::MAX),
            _ => (edgy(rng), edgy(rng)),
        };
        check_generic_kernels("f64", edgy, edgy_bounds, 0x500E ^ case);
        check_generic_kernels(
            "f32",
            |rng| edgy(rng) as f32,
            |rng| {
                let (lo, hi) = edgy_bounds(rng);
                (lo as f32, hi as f32)
            },
            0x500F ^ case,
        );
    }
}

/// The exact integer SUM's guard: a slice of `rows` rows may be summed in
/// `i64` lanes when `max(|lo|, |hi|) · max(rows - 1, 1) <= 2^53`. The
/// largest magnitude that passes for `rows` rows.
fn guard_magnitude(rows: usize) -> i128 {
    (1i128 << 53) / rows.saturating_sub(1).max(1) as i128
}

/// Checks `sum`, `aggregate` (lean and with `Bounds`), their all-live
/// shorthands and `sum_rows` against the scalar `f64` fold, bit for bit,
/// over `data` under `[lo, hi]`, with no tombstones and with `dead`
/// tombstoned. `sum_rows` runs over the same slice with every row outside
/// the predicate tombstoned as well, under the predicate as its bound.
fn assert_sums_match_the_f64_fold<T: DataValue>(
    data: &[T],
    (lo, hi): (T, T),
    dead: &[usize],
    ctx: &str,
) {
    let inside = |v: &T| v.ge_total(&lo) && v.le_total(&hi);
    let mut dv = DeleteVector::new(data.len(), 1);
    for &r in dead {
        dv.delete(r);
    }
    let kept: Vec<T> = (0..data.len())
        .filter(|&r| !dv.is_deleted(r))
        .map(|r| data[r])
        .collect();
    let (want_all_n, want_all) = scan::scalar::sum_in_range(data, lo, hi);
    let (want_n, want) = scan::scalar::sum_in_range(&kept, lo, hi);
    let bits = |(n, s): (usize, f64)| (n, s.to_bits());

    assert_eq!(
        bits(scan::sum_in_range(data, lo, hi)),
        bits((want_all_n, want_all)),
        "sum_in_range {ctx}"
    );
    let a = scan::aggregate_in_range(data, lo, hi);
    assert_eq!(
        bits((a.count, a.sum)),
        bits((want_all_n, want_all)),
        "aggregate_in_range {ctx}"
    );
    let sum = scan::sum(data, lo, hi, &dv, 0, &mut NoByProduct);
    assert_eq!(bits(sum), bits((want_n, want)), "sum masked {ctx}");
    let sum = scan::sum(data, lo, hi, &dv, 0, &mut Bounds::new());
    assert_eq!(bits(sum), bits((want_n, want)), "sum masked +bounds {ctx}");
    let a = scan::aggregate(data, lo, hi, &dv, 0, &mut NoByProduct);
    assert_eq!(
        bits((a.count, a.sum)),
        bits((want_n, want)),
        "aggregate masked {ctx}"
    );

    for r in (0..data.len()).filter(|&r| !inside(&data[r])) {
        dv.delete(r);
    }
    let full: Vec<T> = kept.iter().copied().filter(inside).collect();
    let (_, want_full) = scan::scalar::sum_in_range(&full, lo, hi);
    assert_eq!(
        bits(scan::sum_rows(data, (lo, hi), &dv, 0)),
        bits((full.len(), want_full)),
        "sum_rows {ctx}"
    );
    if dead.is_empty() && full.len() == data.len() {
        assert_eq!(
            bits(scan::sum_rows(data, (lo, hi), AllLive, 0)),
            bits((full.len(), want_full)),
            "sum_rows all-live {ctx}"
        );
    }
}

/// An integer value as `i128`, through its `Display` form.
fn conv_back<T: DataValue>(v: T) -> i128 {
    v.to_string().parse().expect("an integer type")
}

/// The exactness checks of one integer type whose values `conv` makes
/// from `i128` (`None` outside the type), for slices of `rows` rows.
fn check_int_sum_exactness<T: DataValue>(
    ty: &str,
    conv: impl Fn(i128) -> Option<T>,
    rows: usize,
    rng: &mut StdRng,
) {
    let (min, max) = (conv_back(T::MIN_VALUE), conv_back(T::MAX_VALUE));
    let edge = guard_magnitude(rows);
    // Straddle the guard; types too narrow to reach it test the lanes.
    for m in [edge - 1, edge, edge + 1, 1000, max] {
        let m = m.clamp(1, max);
        let lo = (-m).max(min);
        let (t_lo, t_hi) = (conv(lo).unwrap(), conv(m).unwrap());
        let ctx = format!("{ty} rows {rows} [{lo}, {m}]");

        // The guard's own witness: `rows - 1` rows summing to 2^53 + 1,
        // which the f64 fold rounds to 2^53, then one more row of 1,
        // which the fold loses again and an integer total keeps. Each row
        // is at most `m`, so the fold is exact iff `m` passes the guard.
        if rows >= 2 && (m as u128) * (rows as u128 - 1) > 1u128 << 53 {
            let mut witness = vec![m; rows - 2];
            witness.push((1i128 << 53) + 1 - m * (rows as i128 - 2));
            witness.push(1);
            if witness.iter().all(|&v| (lo..=m).contains(&v)) {
                let col: Vec<T> = witness.iter().map(|&v| conv(v).unwrap()).collect();
                assert_sums_match_the_f64_fold(&col, (t_lo, t_hi), &[], &format!("{ctx} witness"));
            }
        }

        // Random columns: qualifying rows near ±m and anywhere between,
        // rows outside the predicate (the type's extremes, `u64` above
        // `i64::MAX` among them), tombstones on any of them.
        let pick = |rng: &mut StdRng| -> T {
            let v = match rng.gen_range(0..8u32) {
                0 => m,
                1 => lo,
                2 => max,
                3 => min,
                4 => m.saturating_add(1).min(max),
                _ => lo + (rng.gen_range(0..u64::MAX) as i128) % (m - lo + 1),
            };
            conv(v).unwrap()
        };
        let col: Vec<T> = (0..rows).map(|_| pick(rng)).collect();
        let dead: Vec<usize> = (0..rows).filter(|_| rng.gen_range(0..5u32) == 0).collect();
        assert_sums_match_the_f64_fold(&col, (t_lo, t_hi), &[], &format!("{ctx} random"));
        assert_sums_match_the_f64_fold(&col, (t_lo, t_hi), &dead, &format!("{ctx} random masked"));

        // A cancelling selection sums to +0.0, and so does an empty one.
        if lo == -m {
            let cancel: Vec<T> = (0..rows / 2 * 2)
                .map(|r| conv(if r % 2 == 0 { m } else { -m }).unwrap())
                .collect();
            assert_sums_match_the_f64_fold(
                &cancel,
                (t_lo, t_hi),
                &[],
                &format!("{ctx} cancelling"),
            );
            let (n, s) = scan::sum_in_range(&cancel, t_lo, t_hi);
            assert_eq!(
                (n, s.to_bits()),
                (cancel.len(), 0.0f64.to_bits()),
                "{ctx} cancelling"
            );
        }
        // Empty: a point no row holds (the integer lanes where `m`
        // passes the guard), and an inverted range (the fold).
        let none = vec![t_hi; rows];
        for (a, b) in [(t_lo, t_lo), (t_hi, t_lo)] {
            let (n, s) = scan::sum_in_range(&none, a, b);
            assert_eq!((n, s.to_bits()), (0, 0.0f64.to_bits()), "{ctx} empty");
        }
        // Open-ended, `lo = MIN`: the guard rejects it once `|MIN|` times
        // the rows passes 2^53, and the fold must still match.
        assert_sums_match_the_f64_fold(&col, (T::MIN_VALUE, t_hi), &dead, &format!("{ctx} open"));
    }
}

#[test]
fn integer_sum_kernels_are_exact_on_both_sides_of_the_guard() {
    let iters: u64 = std::env::var("ADS_STRESS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    for case in 0..4 * iters {
        let mut rng = StdRng::seed_from_u64(0x5100 ^ case);
        for rows in [1usize, 2, 3, 63, 64, 65, 129, 4097] {
            check_int_sum_exactness("i8", |v| i8::try_from(v).ok(), rows, &mut rng);
            check_int_sum_exactness("i32", |v| i32::try_from(v).ok(), rows, &mut rng);
            check_int_sum_exactness("i64", |v| i64::try_from(v).ok(), rows, &mut rng);
            check_int_sum_exactness("u64", |v| u64::try_from(v).ok(), rows, &mut rng);
        }
    }
}

/// A named column and the ranges it is checked under.
type RunCase = (String, Vec<i64>, Vec<(i64, i64)>);

/// Columns built from runs, each with the ranges that cut them where the
/// kernels switch shape: a predicate mask that is all hits, dense (at
/// least 7 of 8 rows), sparse or empty, a block that follows one of
/// another kind, a range that starts or ends mid-block or mid-stretch,
/// and every tail length. Random columns reach these transitions only by
/// chance; these reach each one on purpose.
fn run_structured_columns() -> Vec<RunCase> {
    let mut rng = StdRng::seed_from_u64(0x5010);
    let mut cases = Vec::new();

    // Sorted with duplicates, across three 4096-row stretches; the ranges
    // start and end mid-block, mid-stretch, and outside the column.
    let sorted: Vec<i64> = (0..9000).map(|r| r / 3).collect();
    let cuts = vec![
        (12, 33),
        (21, 42),
        (0, 1365),
        (1300, 1400),
        (1500, 3100),
        (-5, 5000),
    ];
    cases.push(("sorted".to_string(), sorted, cuts));

    // Clustered: alternating runs of hits (1..=3) and misses, the run
    // lengths straddling one block.
    for case in 0..6 {
        let mut column = Vec::new();
        let mut hit = case % 2 == 0;
        while column.len() < 1500 {
            let run = [1, 7, 56, 63, 64, 65, 130][rng.gen_range(0..7usize)];
            for _ in 0..run {
                column.push(if hit {
                    rng.gen_range(1i64..4)
                } else {
                    rng.gen_range(4i64..500)
                });
            }
            hit = !hit;
        }
        cases.push((
            format!("clustered {case}"),
            column,
            vec![(1, 3), (2, 2), (1, 499)],
        ));
    }

    // One hit moving through every lane: a block of misses, one with the
    // hit only, one all hits, one all hits but that lane, one with the
    // hit only again.
    for lane in 0..64 {
        let column: Vec<i64> = (0..5 * 64)
            .map(|r| {
                let (block, at) = (r / 64, r % 64 == lane);
                let hit = match block {
                    0 => false,
                    1 | 4 => at,
                    2 => true,
                    _ => !at,
                };
                if hit {
                    1
                } else {
                    7
                }
            })
            .collect();
        cases.push((format!("lane {lane}"), column, vec![(1, 1), (0, 7)]));
    }

    // Blocks holding 0..=16 evenly spread misses: across the line between
    // a dense mask and a sparse one.
    let holes: Vec<i64> = (0..17 * 64)
        .map(|r| {
            if (r % 64) * (r / 64) % 64 < r / 64 {
                9
            } else {
                2
            }
        })
        .collect();
    cases.push(("holes".to_string(), holes, vec![(2, 2), (0, 5)]));

    // Every tail length after one full block.
    for tail in 1..=64 {
        let column: Vec<i64> = (0..64 + tail).map(|_| rng.gen_range(0i64..8)).collect();
        cases.push((format!("tail {tail}"), column, vec![(0, 7), (3, 3), (2, 5)]));
    }
    cases
}

#[test]
fn generic_kernels_match_reference_on_run_structured_columns() {
    let mut rng = StdRng::seed_from_u64(0x5011);
    for (name, column, ranges) in run_structured_columns() {
        let bases: &[usize] = if name.starts_with("tail") {
            &[0]
        } else {
            &[0, 5]
        };
        for &base in bases {
            let len = column.len() - base;
            for &(lo, hi) in &ranges {
                let ctx = format!("{name} base {base} [{lo}, {hi}]");
                assert_under_every_liveness(
                    &column,
                    (base, len),
                    (lo, hi),
                    &mut rng,
                    &format!("i64 {ctx}"),
                );
                let floats: Vec<f64> = column.iter().map(|&v| v as f64).collect();
                let range = (lo as f64, hi as f64);
                assert_under_every_liveness(
                    &floats,
                    (base, len),
                    range,
                    &mut rng,
                    &format!("f64 {ctx}"),
                );
                let floats: Vec<f32> = column.iter().map(|&v| v as f32).collect();
                let range = (lo as f32, hi as f32);
                assert_under_every_liveness(
                    &floats,
                    (base, len),
                    range,
                    &mut rng,
                    &format!("f32 {ctx}"),
                );
            }
        }
    }
}

#[test]
fn soa_prune_plane_matches_aos_reference() {
    // The SoA prune plane is an acceleration structure, not a semantic
    // change: on any interleaving of queries, observations, structural
    // adaptation, and appends, the plane-driven `prune` must produce the
    // same `PruneOutcome` and leave the same observable zone state as the
    // retained AoS reference loop (`prune_via_zones`).
    //
    // With tiers on, the plane walk reads the bloom tiers of up to 64
    // zones at once before it classifies any of them, where the reference
    // asks each zone's tier in turn: columns long enough for one walk to
    // fill more than one batch, and points drawn from the column half the
    // time, so blooms both admit and exclude.
    let configs = [
        test_config(),
        AdaptiveConfig {
            enable_tiers: true,
            tier_after_scans: 1,
            tier_drop_after: 4,
            ..test_config()
        },
    ];
    // Tier-skipped zones, zones carrying both a mask and a tier (the mask
    // decides first), and point walks that left more than one batch of
    // zones.
    let mut reached = [0u64; 3];
    for (case, config) in (0..CASES).flat_map(|case| configs.iter().map(move |c| (case, c))) {
        let tiers = config.enable_tiers;
        let mut rng = StdRng::seed_from_u64(0x500C ^ case);
        let mut data = gen_data(&mut rng, if tiers { 12_000 } else { 3000 });
        let mut plane_zm = AdaptiveZonemap::new(data.len(), config.clone());
        let mut aos_zm = plane_zm.clone();
        let steps = rng.gen_range(6..30usize);
        for step in 0..steps {
            if rng.gen_range(0..6usize) == 0 {
                let batch: Vec<i64> = (0..rng.gen_range(1..150usize))
                    .map(|_| rng.gen_range(-1000i64..1000))
                    .collect();
                let old = data.len();
                data.extend_from_slice(&batch);
                plane_zm.on_append(&data[old..], &data);
                aos_zm.on_append(&data[old..], &data);
            } else {
                let mut pred = gen_pred(&mut rng);
                if tiers && !data.is_empty() && rng.gen_range(0..2usize) == 0 {
                    pred = RangePredicate::point(data[rng.gen_range(0..data.len())]);
                }
                let plane_out = plane_zm.prune(&pred);
                let aos_out = aos_zm.prune_via_zones(&pred);
                assert_eq!(
                    plane_out, aos_out,
                    "case {case} step {step}: prune outcomes diverged"
                );
                // Zones the bounds left a point to: at least one per unit
                // and per full-match span, and every zone a tier skipped.
                let tier_skipped = (plane_zm.zone_snapshot().iter())
                    .filter(|(zone, ..)| plane_out.tier_skips.covers_span(zone.start, zone.end))
                    .count();
                let left =
                    plane_out.units.len() + plane_out.full_match.ranges().len() + tier_skipped;
                reached[0] += tier_skipped as u64;
                reached[2] += u64::from(pred.is_point() && left > 64);
                // Feed both the same honest observation so adaptation
                // (splits, merges, deactivation, revival) stays in step.
                let mut obs = observe_units(&plane_out, &data, pred);
                if tiers {
                    // The value masks the scans were asked for, so zones
                    // get a mask beside their tier.
                    for (ro, unit) in obs.ranges.iter_mut().zip(&plane_out.units) {
                        if let UnitWork::Scan(UnitRequest {
                            bins: Some(layout), ..
                        }) = unit.work
                        {
                            let rows = &data[unit.range.start..unit.range.end];
                            ro.mask =
                                Some(rows.iter().fold(0, |m, &v| m | 1 << layout.bin(v as f64)));
                        }
                    }
                }
                plane_zm.observe(&obs);
                aos_zm.observe(&obs);
                plane_zm.maintain(&data);
                aos_zm.maintain(&data);
                if tiers {
                    let debug = format!("{plane_zm:?}");
                    reached[1] += debug
                        .split("AdaptiveZone {")
                        .filter(|zone| zone.contains("mask: Some(") && zone.contains("tier: Some("))
                        .count() as u64;
                }
            }
            plane_zm.assert_invariants();
            aos_zm.assert_invariants();
            assert_eq!(
                plane_zm.zone_snapshot(),
                aos_zm.zone_snapshot(),
                "case {case} step {step}: zone snapshots diverged"
            );
        }
        let counters = |zm: &AdaptiveZonemap<i64>| {
            let t = zm.tier_stats();
            (
                t.blooms_built,
                t.tiers_dropped,
                t.tier_skips,
                t.tier_rows_excluded,
            )
        };
        assert_eq!(
            counters(&plane_zm),
            counters(&aos_zm),
            "case {case}: tier counters diverged"
        );
    }
    assert!(
        reached.iter().all(|&n| n > 0),
        "tier-skipped zones / masked and tiered zones / multi-batch walks reached: {reached:?}"
    );
}

#[test]
fn static_zonemap_metadata_always_exact() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5008 ^ case);
        let data = gen_data(&mut rng, 2000);
        let zone_rows = rng.gen_range(1..200usize);
        let mut zm = StaticZonemap::build(&data, zone_rows);
        // Metadata truth implies soundness for every predicate; spot-check
        // with predicates derived from the data itself.
        if let Some((min, max)) = scan::min_max(&data) {
            for pred in [
                RangePredicate::point(min),
                RangePredicate::point(max),
                RangePredicate::between(min, max),
            ] {
                check_soundness(&mut zm, &data, pred);
            }
        }
    }
}

/// `Debug` of `zm` with its wall-clock fields (`*_ns`) zeroed.
fn untimed<T: DataValue>(zm: &AdaptiveZonemap<T>) -> String {
    let debug = format!("{zm:?}");
    let mut out = String::with_capacity(debug.len());
    let mut rest = debug.as_str();
    while let Some(at) = rest.find("_ns: ") {
        let (head, tail) = rest.split_at(at + "_ns: ".len());
        out.push_str(head);
        out.push('0');
        rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

#[test]
fn shared_prune_matches_mutable_prune_after_publication_poll() {
    // The concurrent read path (`prune_shared`) must convert predicates
    // into exactly the ranges the mutable `prune` would, given the state a
    // snapshot publisher hands out — i.e. after `poll_revival`, which is
    // what the service's maintenance thread runs before every publication.
    // This is the decision-identity the server's exactness rests on.
    //
    // And the owner must learn from a reader's walk what it learns from
    // its own: a twin that serves every query off a clone published at
    // its current epoch (`prune_shared`, then `apply_feedback` with the
    // walk in the observation) keeps every zone record — overlap and
    // visit counts, tier window, idle stamps — and the lifetime counters
    // equal to the inline map's (`prune`, then `observe`) after every
    // query, through splits, merges, deactivation, revival, tiers and
    // reorganization.
    let configs = [
        test_config(),
        AdaptiveConfig {
            enable_tiers: true,
            tier_after_scans: 1,
            tier_drop_after: 4,
            ..test_config()
        },
        AdaptiveConfig {
            enable_reorg: true,
            reorg_after_scans: 1,
            reorg_demote_idle: 2,
            reorg_hot_factor: 0.0,
            ..test_config()
        },
    ];
    let mut reached = [0u64; 6];
    for (case, config) in (0..CASES).flat_map(|case| configs.iter().map(move |c| (case, c))) {
        let mut rng = StdRng::seed_from_u64(0x5EA7 ^ case);
        let mut data = gen_data(&mut rng, 3000);
        if case % 2 == 1 {
            // Clustered, so bounds skip and zones split and merge.
            data.sort_unstable();
        }
        let mut zm = AdaptiveZonemap::new(data.len(), config.clone());
        let mut twin = zm.clone();
        let mut published = twin.clone_for_readers();
        let steps = rng.gen_range(10..40usize);
        for step in 0..steps {
            let ctx = format!("{} case {case} step {step}", zm.name());
            let pred = match rng.gen_range(0..3u32) {
                0 => RangePredicate::point(rng.gen_range(-1000i64..1000)),
                _ => gen_pred(&mut rng),
            };
            zm.poll_revival();
            let shared_out = zm.prune_shared(&pred);
            let mutable_out = zm.prune(&pred);
            assert_eq!(
                shared_out, mutable_out,
                "{ctx}: shared prune diverged from mutable prune"
            );
            // Honest observations keep splits/merges/deactivation moving so
            // the equivalence is exercised across structural change.
            zm.observe(&observe_units(&mutable_out, &data, pred));
            zm.maintain(&data);
            zm.assert_invariants();

            twin.poll_revival();
            if twin.mutation_epoch() != published.mutation_epoch() {
                published = twin.clone_for_readers();
            }
            let walked = published.prune_shared(&pred);
            // Debug, not `==`: the two maps built their payloads apart.
            assert_eq!(
                format!("{walked:?}"),
                format!("{mutable_out:?}"),
                "{ctx}: equal epochs decided apart"
            );
            twin.apply_feedback(&observe_units(&walked, &data, pred));
            twin.maintain(&data);
            // Every zone record, the plane, the clocks and the trace.
            assert_eq!(
                untimed(&twin),
                untimed(&zm),
                "{ctx}: feedback learned apart from the inline protocol"
            );
            assert_eq!(
                format!("{:?}", twin.index_stats()),
                format!("{:?}", zm.index_stats()),
                "{ctx}: lifetime counters"
            );
        }
        let totals = zm.trace().totals();
        let tiers = zm.tier_stats();
        for (n, event) in reached.iter_mut().zip([
            totals.split,
            totals.merged,
            totals.revived,
            totals.promoted,
            totals.tier_built,
            tiers.tier_skips,
        ]) {
            *n += event;
        }
    }
    assert!(
        reached.iter().all(|&n| n > 0),
        "splits/merges/revivals/promotions/tiers/tier skips reached: {reached:?}"
    );
}

#[test]
fn restricted_prune_asks_for_what_the_full_prune_would() {
    // The fourth prune path: `prune_within` over an alive set must scan
    // the units — and issue the per-unit by-product requests — that the
    // full `prune`, restricted afterwards, does. A zone asks for bounds
    // exactly while they are missing or conservative, and only of a
    // fragment that is the whole zone. And a zone probed is a zone probed:
    // when the alive set touches every zone, a map that only ever runs the
    // restricted prune must stay in step with one that runs the full prune
    // — tiers earned and dropped, zones promoted and demoted.
    let configs = [
        test_config(),
        AdaptiveConfig {
            enable_tiers: true,
            tier_after_scans: 1,
            tier_drop_after: 4,
            ..test_config()
        },
        AdaptiveConfig {
            enable_reorg: true,
            reorg_after_scans: 1,
            reorg_demote_idle: 2,
            reorg_hot_factor: 0.0,
            ..test_config()
        },
    ];
    // Tier skips, tiers dropped, payload bytes moved and zones demoted
    // over all cases: the extra configs must reach what they are here for.
    let mut reached = [0u64; 4];
    for (case, config) in (0..CASES).flat_map(|case| configs.iter().map(move |c| (case, c))) {
        let mut rng = StdRng::seed_from_u64(0x5EA8 ^ case);
        let data = gen_data(&mut rng, 3000);
        let mut zm = AdaptiveZonemap::new(data.len(), config.clone());
        let mut within_zm = zm.clone();
        let steps = rng.gen_range(10..40usize);
        for step in 0..steps {
            let mut pred = gen_pred(&mut rng);
            if rng.gen_range(0..4usize) == 0 {
                pred = RangePredicate::point(pred.lo);
            }
            let mut alive = RangeSet::new();
            let mut at = 0usize;
            while at < data.len() {
                let end = (at + rng.gen_range(1..300usize)).min(data.len());
                if rng.gen_range(0..3usize) > 0 {
                    alive.push_span(at, end);
                }
                at = end + rng.gen_range(0..2usize);
            }
            // A second alive set: some rows of every zone — of the zones
            // the prune will walk, so those due a revival get it first.
            zm.poll_revival();
            within_zm.poll_revival();
            let mut touching = RangeSet::new();
            for (zone, ..) in zm.zone_snapshot() {
                let from = rng.gen_range(zone.start..zone.end);
                touching.push_span(from, rng.gen_range(from..zone.end) + 1);
            }
            let within = zm.clone().prune_within(&pred, &alive);
            let within_touching = within_zm.prune_within(&pred, &touching);
            let full = zm.prune(&pred);
            let restricted = full.restrict_to(&alive);
            assert_eq!(
                (&within.units, &within.full_match),
                (&restricted.units, &restricted.full_match),
                "case {case} step {step}: restricted prune diverged"
            );
            assert_eq!(
                within_touching,
                full.restrict_to(&touching),
                "case {case} step {step}: restricted prune over every zone diverged"
            );
            let snapshot = zm.zone_snapshot();
            for unit in &full.units {
                let UnitWork::Scan(request) = unit.work else {
                    continue;
                };
                let label = snapshot
                    .iter()
                    .find(|(r, ..)| *r == unit.range)
                    .map(|z| z.1);
                assert_eq!(
                    request.bounds,
                    matches!(label, Some("unbuilt" | "built~")),
                    "case {case} step {step}: unit {unit:?} of a {label:?} zone"
                );
            }
            let mut obs = observe_units(&full, &data, pred);
            zm.observe(&obs);
            obs.walk = within_touching;
            within_zm.observe(&obs);
            for map in [&mut zm, &mut within_zm] {
                map.maintain(&data);
            }
            // Everything but the wall-clock fields, which no two maps share.
            let left_behind = |map: &AdaptiveZonemap<i64>| {
                let tiers = TierStats {
                    build_ns: 0,
                    ..map.tier_stats()
                };
                let reorg = ReorgStats {
                    reorg_ns: 0,
                    ..map.reorg_stats()
                };
                (map.zone_snapshot(), tiers, reorg)
            };
            assert_eq!(
                left_behind(&within_zm),
                left_behind(&zm),
                "case {case} step {step}: restricted prune left a different map behind"
            );
        }
        let (tiers, reorg) = (within_zm.tier_stats(), within_zm.reorg_stats());
        reached[0] += tiers.tier_skips;
        reached[1] += tiers.tiers_dropped;
        reached[2] += reorg.bytes_moved;
        reached[3] += reorg.zones_demoted;
    }
    assert!(reached.iter().all(|&n| n > 0), "unreached: {reached:?}");
}

/// One honest observation of every unit of `out`, as an executor's scan
/// of `data` reports it, carrying `out` as the walk it learns from.
fn observe_units<T: DataValue>(
    out: &adaptive_data_skipping::core::PruneOutcome,
    data: &[T],
    pred: RangePredicate<T>,
) -> ScanObservation<T> {
    let ranges = out
        .units
        .iter()
        .map(|unit| {
            let r = unit.range;
            let (q, min, max) =
                scan::count_in_range_with_minmax(&data[r.start..r.end], pred.lo, pred.hi);
            RangeObservation::new(r, q, min, max)
        })
        .collect();
    ScanObservation {
        predicate: pred,
        ranges,
        walk: out.clone(),
    }
}

/// A map built the way a compacted lane is rebuilt: fresh zones, every
/// one built by one full-range query.
fn rebuilt_map<T: DataValue>(data: &[T], config: AdaptiveConfig) -> AdaptiveZonemap<T> {
    let mut zm = AdaptiveZonemap::new(data.len(), config);
    if let Some(&first) = data.first() {
        let (lo, hi) = data.iter().fold((first, first), |(lo, hi), &v| {
            (lo.min_total(v), hi.max_total(v))
        });
        let pred = RangePredicate::between(lo, hi);
        let out = zm.prune(&pred);
        zm.observe(&observe_units(&out, data, pred));
    }
    zm
}

/// Drives the three prune paths over one column in lock step — the reader
/// (`prune_shared`) and the owner (`prune`) on the plane-backed map, the
/// array-of-structs reference (`prune_via_zones`) on its twin — through
/// queries, appends and compactions, and holds them equal after every
/// step: outcome (units, requests, full-match spans, probe and skip
/// counts), lifetime counters and `zone_snapshot()`.
fn check_prune_paths<T: DataValue>(
    case: u64,
    shape: &str,
    rng: &mut StdRng,
    value: &mut dyn FnMut(&mut StdRng, usize) -> T,
    gen_pred: &mut dyn FnMut(&mut StdRng, &[T]) -> RangePredicate<T>,
) {
    let len = rng.gen_range(200..3000usize);
    check_prune_paths_over(case, shape, rng, (len, test_config()), value, gen_pred);
}

/// [`check_prune_paths`] over a column of `len` rows under `config`. One
/// query in four observes only some of its units, which leaves the zones
/// of the others unbuilt between built ones.
fn check_prune_paths_over<T: DataValue>(
    case: u64,
    shape: &str,
    rng: &mut StdRng,
    (len, config): (usize, AdaptiveConfig),
    value: &mut dyn FnMut(&mut StdRng, usize) -> T,
    gen_pred: &mut dyn FnMut(&mut StdRng, &[T]) -> RangePredicate<T>,
) {
    let mut data: Vec<T> = (0..len).map(|row| value(rng, row)).collect();
    let mut next_row = len;
    let mut plane_zm = AdaptiveZonemap::new(data.len(), config.clone());
    let mut aos_zm = plane_zm.clone();
    for step in 0..rng.gen_range(20..60usize) {
        let ctx = format!("{shape} case {case} step {step}");
        match rng.gen_range(0..12usize) {
            0 => {
                let batch: Vec<T> = (0..rng.gen_range(1..200usize))
                    .map(|i| value(rng, next_row + i))
                    .collect();
                next_row += batch.len();
                let old = data.len();
                data.extend_from_slice(&batch);
                plane_zm.on_append(&data[old..], &data);
                aos_zm.on_append(&data[old..], &data);
            }
            1 => {
                // A compaction: some rows leave, the lane is rebuilt.
                let keep = rng.gen_range(2..10u64);
                let mut row = 0u64;
                data.retain(|_| {
                    row += 1;
                    !row.is_multiple_of(keep)
                });
                plane_zm = rebuilt_map(&data, config.clone());
                aos_zm = plane_zm.clone();
            }
            _ => {
                let pred = gen_pred(rng, &data);
                plane_zm.poll_revival();
                aos_zm.poll_revival();
                let shared = plane_zm.prune_shared(&pred);
                let owned = plane_zm.prune(&pred);
                let reference = aos_zm.prune_via_zones(&pred);
                // Debug, not `==`: a mask layout over NaN bounds holds a
                // NaN, which equals nothing.
                let [shared, owned_dbg, reference] =
                    [&shared, &owned, &reference].map(|out| format!("{out:?}"));
                assert_eq!(shared, owned_dbg, "{ctx}: reader diverged from owner");
                assert_eq!(
                    owned_dbg, reference,
                    "{ctx}: owner diverged from AoS reference"
                );
                let mut obs = observe_units(&owned, &data, pred);
                if rng.gen_range(0..4u32) == 0 {
                    let keep = rng.gen_range(2..5usize);
                    let mut unit = 0usize;
                    obs.ranges.retain(|_| {
                        unit += 1;
                        !unit.is_multiple_of(keep)
                    });
                }
                plane_zm.observe(&obs);
                aos_zm.observe(&obs);
            }
        }
        plane_zm.assert_invariants();
        assert_eq!(
            plane_zm.zone_snapshot(),
            aos_zm.zone_snapshot(),
            "{ctx}: zone snapshots diverged"
        );
        assert_eq!(
            format!("{:?}", plane_zm.index_stats()),
            format!("{:?}", aos_zm.index_stats()),
            "{ctx}: lifetime counters diverged"
        );
    }
}

#[test]
fn prune_paths_agree_on_ordered_and_unordered_columns() {
    // The plane's run index turns the walk over an ordered stretch of
    // zones into two binary searches; it must decide, count and adapt
    // exactly as the linear walk. Sorted and almost-sorted columns form
    // long runs, a sawtooth forms one per tooth, uniform data forms none,
    // and NaN (the top of the total order) pins runs' ends. Splits,
    // merges, deactivation and revival come from `test_config`.
    type Shape = fn(&mut StdRng, usize) -> i64;
    let int_shapes: [(&str, Shape); 4] = [
        ("sorted", |_, row| row as i64),
        ("almost-sorted", |rng, row| {
            if rng.gen_range(0..20u32) == 0 {
                rng.gen_range(0..4000i64)
            } else {
                row as i64 + rng.gen_range(0..8i64)
            }
        }),
        ("sawtooth", |_, row| (row % 700) as i64),
        ("uniform", |rng, _| rng.gen_range(0..4000i64)),
    ];
    for case in 0..CASES {
        for (shape, value) in int_shapes {
            let mut rng = StdRng::seed_from_u64(0x5EA9 ^ case);
            check_prune_paths(
                case,
                shape,
                &mut rng,
                &mut |rng, row| value(rng, row),
                &mut |rng, _| {
                    let lo = rng.gen_range(-100i64..4100);
                    match rng.gen_range(0..4u32) {
                        0 => RangePredicate::point(lo),
                        1 => RangePredicate::between(lo, lo + rng.gen_range(0..3000i64)),
                        _ => RangePredicate::between(lo, lo + rng.gen_range(0..300i64)),
                    }
                },
            );
        }
        let mut rng = StdRng::seed_from_u64(0x5EAA ^ case);
        check_prune_paths(
            case,
            "sorted-nan",
            &mut rng,
            &mut |rng, row| match rng.gen_range(0..100u32) {
                0 => f64::NAN,
                1 => -0.0,
                _ => row as f64 * 0.5,
            },
            &mut |rng, data| {
                let pick = |rng: &mut StdRng| data[rng.gen_range(0..data.len().max(1))];
                match (rng.gen_range(0..6u32), data.is_empty()) {
                    (_, true) | (0, _) => RangePredicate::point(f64::NAN),
                    (1, _) => RangePredicate::between(pick(rng), f64::NAN),
                    (2, _) => RangePredicate::point(pick(rng)),
                    _ => {
                        let lo = rng.gen_range(-10.0..1600.0);
                        RangePredicate::between(lo, lo + rng.gen_range(0.0..150.0))
                    }
                }
            },
        );
    }
}

#[test]
fn prune_paths_agree_at_the_word_edges_of_the_bounds_filter() {
    // The plane's walkers test zones 64 at a time against one word of the
    // built bitset; the reference probes them one by one. Start at zone
    // counts on either side of one and two words, with 16-row zones, and
    // walk shapes that put a bounds skip next to an unbuilt zone (units
    // left unobserved, appended tails), a dead zone (uniform stretches
    // deactivate) or the end of a run (sorted stretches followed by
    // shuffled ones), within a word and across words.
    let config = AdaptiveConfig {
        target_zone_rows: 16,
        min_zone_rows: 4,
        max_zone_rows: 128,
        ..test_config()
    };
    type Shape = fn(&mut StdRng, usize, usize) -> i64;
    let shapes: [(&str, Shape); 4] = [
        ("sorted", |_, row, _| row as i64),
        ("uniform", |rng, _, _| rng.gen_range(0..4000i64)),
        ("sorted-then-uniform", |rng, row, len| {
            if row < len / 2 {
                row as i64 * 4000 / len as i64
            } else {
                rng.gen_range(0..4000i64)
            }
        }),
        ("clustered", |rng, row, _| {
            (row as i64 / 48) * 50 % 4000 + rng.gen_range(0..40i64)
        }),
    ];
    for case in 0..CASES / 4 {
        for zones in [63usize, 64, 65, 129] {
            for (shape, value) in shapes {
                let mut rng = StdRng::seed_from_u64(0x5EAB ^ case ^ (zones as u64) << 8);
                let len = zones * config.target_zone_rows;
                check_prune_paths_over(
                    case,
                    &format!("{shape} {zones} zones"),
                    &mut rng,
                    (len, config.clone()),
                    &mut |rng, row| value(rng, row, len),
                    &mut |rng, _| {
                        let lo = rng.gen_range(-100i64..4100);
                        match rng.gen_range(0..4u32) {
                            0 => RangePredicate::point(lo),
                            1 => RangePredicate::between(lo, lo + rng.gen_range(0..3000i64)),
                            _ => RangePredicate::between(lo, lo + rng.gen_range(0..300i64)),
                        }
                    },
                );
            }
        }
    }
}
