//! Property-style tests over the framework's core invariants.
//!
//! Each test replays the same randomised scenario across many
//! deterministic seeds (a lightweight substitute for an external
//! property-testing framework): random data, random predicate sequences,
//! every index structure, checked against a straight-scan reference.

use adaptive_data_skipping::baselines::{ColumnImprints, CrackerColumn, SortedOracle};
use adaptive_data_skipping::core::adaptive::ShardedZonemap;
use adaptive_data_skipping::core::adaptive::{
    AdaptiveConfig, AdaptiveZonemap, ReorgStats, TierMode, TierStats,
};
use adaptive_data_skipping::core::{
    RangeObservation, RangePredicate, ScanObservation, SkippingIndex, StaticZonemap,
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
/// qualifying row is covered by must_scan or full_match, and full_match
/// ranges contain only qualifying rows.
fn check_soundness(index: &mut dyn SkippingIndex<i64>, data: &[i64], pred: RangePredicate<i64>) {
    let out = index.prune(&pred);
    let target: Vec<i64> = match index.view() {
        Some(v) => v.to_vec(),
        None => data.to_vec(),
    };
    for (i, &v) in target.iter().enumerate() {
        if pred.matches(v) {
            assert!(
                out.must_scan.contains(i) || out.full_match.contains(i),
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
    let mut ranges = Vec::new();
    for unit in out.units() {
        let (q, min, max) =
            scan::count_in_range_with_minmax(&target[unit.start..unit.end], pred.lo, pred.hi);
        ranges.push(RangeObservation::new(*unit, q, min, max));
    }
    index.observe(&ScanObservation {
        predicate: pred,
        ranges,
    });
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

    let (rows, sum) = scan::sum_rows(data, live, base);
    let (_, want_sum) = scan::scalar::sum_in_range(&kept, T::MIN_VALUE, T::MAX_VALUE);
    let nan_free = kept
        .iter()
        .all(|v| v.ge_total(&T::MIN_VALUE) && v.le_total(&T::MAX_VALUE));
    assert_eq!(rows, kept.len(), "sum_rows count {ctx}");
    if nan_free {
        // `[MIN_VALUE, MAX_VALUE]` keeps every non-NaN value, so the
        // reference above summed exactly the live rows.
        assert_eq!(sum.to_bits(), want_sum.to_bits(), "sum_rows bits {ctx}");
    }

    let kept_all = scan::scalar::aggregate_in_range(&kept, T::MIN_VALUE, T::MAX_VALUE);
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

/// Runs [`assert_generic_kernels_match_reference`] over one typed column
/// for every length, two block-unaligned bases, and four tombstone
/// layouts: none (where an all-live vector, no vector, and the scalar
/// reference must all agree), block edges, whole dead blocks, and random.
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

            let all_live = DeleteVector::new(rows, 0);
            assert_generic_kernels_match_reference(
                &column,
                (base, len),
                range,
                AllLive,
                |_| true,
                &format!("{ctx} no vector"),
            );
            assert_generic_kernels_match_reference(
                &column,
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
                    &column,
                    (base, len),
                    range,
                    &dv,
                    |r| !is_dead(r),
                    &format!("{ctx} {name}"),
                );
            }
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

#[test]
fn soa_prune_plane_matches_aos_reference() {
    // The SoA prune plane is an acceleration structure, not a semantic
    // change: on any interleaving of queries, observations, structural
    // adaptation, and appends, the plane-driven `prune` must produce the
    // same `PruneOutcome` and leave the same observable zone state as the
    // retained AoS reference loop (`prune_via_zones`).
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x500C ^ case);
        let mut data = gen_data(&mut rng, 3000);
        let mut plane_zm = AdaptiveZonemap::new(data.len(), test_config());
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
                let pred = gen_pred(&mut rng);
                let plane_out = plane_zm.prune(&pred);
                let aos_out = aos_zm.prune_via_zones(&pred);
                assert_eq!(
                    plane_out, aos_out,
                    "case {case} step {step}: prune outcomes diverged"
                );
                // Feed both the same honest observation so adaptation
                // (splits, merges, deactivation, revival) stays in step.
                let mut ranges = Vec::new();
                for unit in plane_out.units() {
                    let (q, min, max) = scan::count_in_range_with_minmax(
                        &data[unit.start..unit.end],
                        pred.lo,
                        pred.hi,
                    );
                    ranges.push(RangeObservation::new(*unit, q, min, max));
                }
                let obs = ScanObservation {
                    predicate: pred,
                    ranges,
                };
                plane_zm.observe(&obs);
                aos_zm.observe(&obs);
            }
            plane_zm.assert_invariants();
            aos_zm.assert_invariants();
            assert_eq!(
                plane_zm.zone_snapshot(),
                aos_zm.zone_snapshot(),
                "case {case} step {step}: zone snapshots diverged"
            );
        }
    }
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

#[test]
fn shared_prune_matches_mutable_prune_after_publication_poll() {
    // The concurrent read path (`prune_shared`) must convert predicates
    // into exactly the ranges the mutable `prune` would, given the state a
    // snapshot publisher hands out — i.e. after `poll_revival`, which is
    // what the service's maintenance thread runs before every publication.
    // This is the decision-identity the server's exactness rests on.
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5EA7 ^ case);
        let data = gen_data(&mut rng, 3000);
        let mut zm = AdaptiveZonemap::new(data.len(), test_config());
        let steps = rng.gen_range(10..40usize);
        for step in 0..steps {
            let pred = gen_pred(&mut rng);
            zm.poll_revival();
            let shared_out = zm.prune_shared(&pred);
            let mutable_out = zm.prune(&pred);
            assert_eq!(
                shared_out, mutable_out,
                "case {case} step {step}: shared prune diverged from mutable prune"
            );
            // Honest observations keep splits/merges/deactivation moving so
            // the equivalence is exercised across structural change.
            let mut ranges = Vec::new();
            for unit in mutable_out.units() {
                let (q, min, max) =
                    scan::count_in_range_with_minmax(&data[unit.start..unit.end], pred.lo, pred.hi);
                ranges.push(RangeObservation::new(*unit, q, min, max));
            }
            zm.observe(&ScanObservation {
                predicate: pred,
                ranges,
            });
            zm.assert_invariants();
        }
    }
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
    // — tiers earned and dropped, zones promoted, cracked and demoted.
    let configs = [
        test_config(),
        AdaptiveConfig {
            tier_mode: TierMode::Adaptive,
            tier_after_scans: 1,
            tier_drop_after: 4,
            tier_imprint_line_rows: 8,
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
                (
                    &within.must_scan,
                    &within.scan_units,
                    &within.unit_requests,
                    &within.full_match
                ),
                (
                    &restricted.must_scan,
                    &restricted.scan_units,
                    &restricted.unit_requests,
                    &restricted.full_match
                ),
                "case {case} step {step}: restricted prune diverged"
            );
            assert_eq!(
                within_touching,
                full.restrict_to(&touching),
                "case {case} step {step}: restricted prune over every zone diverged"
            );
            let snapshot = zm.zone_snapshot();
            for (unit, request) in full.units().iter().zip(&full.unit_requests) {
                let label = snapshot.iter().find(|(r, ..)| r == unit).map(|z| z.1);
                assert_eq!(
                    request.bounds,
                    matches!(label, Some("unbuilt" | "built~")),
                    "case {case} step {step}: unit {unit:?} of a {label:?} zone"
                );
            }
            let mut ranges = Vec::new();
            for unit in full.units() {
                let (q, min, max) =
                    scan::count_in_range_with_minmax(&data[unit.start..unit.end], pred.lo, pred.hi);
                ranges.push(RangeObservation::new(*unit, q, min, max));
            }
            let obs = ScanObservation {
                predicate: pred,
                ranges,
            };
            for map in [&mut zm, &mut within_zm] {
                map.observe(&obs);
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
