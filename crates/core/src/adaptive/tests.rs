//! Behavioural tests for the adaptive zonemap, driven through the same
//! prune → scan → observe loop the engine runs.

use crate::adaptive::{AdaptiveConfig, AdaptiveZonemap};
use crate::index::SkippingIndex;
use crate::outcome::{PruneOutcome, RangeObservation, ScanObservation, UnitRequest};
use crate::predicate::RangePredicate;
use ads_storage::scan::{self, AllLive, Bins, Bounds};

/// Scans unit `i` of `out` the way the engine does: the answer, plus
/// exactly the by-products the prune asked for — nothing it did not.
fn scan_unit(
    out: &PruneOutcome,
    i: usize,
    data: &[i64],
    pred: RangePredicate<i64>,
) -> RangeObservation<i64> {
    let unit = out.units()[i];
    let request = out.unit_request(i);
    let layout = request.bins.map_or((0.0, 0.0), |l| (l.lo_f, l.hi_f));
    let mut by = (Bounds::new(), Bins::new(layout.0, layout.1));
    let slice = &data[unit.start..unit.end];
    let q = scan::count(slice, pred.lo, pred.hi, AllLive, 0, &mut by);
    RangeObservation {
        range: unit,
        qualifying: q,
        bounds: request.bounds.then(|| by.0.min_max()),
        mask: request.bins.map(|_| by.1.mask()),
    }
}

/// Executes one query end-to-end against `data`, returning the exact
/// qualifying count and feeding the observation back into the index.
fn run_query(
    zm: &mut AdaptiveZonemap<i64>,
    data: &[i64],
    pred: RangePredicate<i64>,
) -> (usize, usize) {
    let out = zm.prune(&pred);
    let ranges: Vec<_> = (0..out.units().len())
        .map(|i| scan_unit(&out, i, data, pred))
        .collect();
    let count = out.rows_full_match() + ranges.iter().map(|o| o.qualifying).sum::<usize>();
    let scanned = out.rows_to_scan();
    zm.observe(&ScanObservation {
        predicate: pred,
        ranges,
    });
    zm.assert_invariants();
    (count, scanned)
}

fn small_config() -> AdaptiveConfig {
    AdaptiveConfig {
        target_zone_rows: 128,
        min_zone_rows: 16,
        max_zone_rows: 1024,
        maintenance_every: 2,
        revival_base_queries: Some(32),
        ..AdaptiveConfig::default()
    }
}

fn oracle(data: &[i64], pred: RangePredicate<i64>) -> usize {
    data.iter().filter(|&&v| pred.matches(v)).count()
}

#[test]
fn starts_fully_unbuilt_and_scans_everything_once() {
    let data: Vec<i64> = (0..1000).collect();
    let mut zm = AdaptiveZonemap::new(data.len(), small_config());
    let (unbuilt, built, dead) = zm.state_counts();
    assert_eq!((built, dead), (0, 0));
    assert!(unbuilt > 0);

    let pred = RangePredicate::between(100, 199);
    let (count, scanned) = run_query(&mut zm, &data, pred);
    assert_eq!(count, 100);
    assert_eq!(scanned, 1000, "first query pays the full scan");

    // Metadata materialised as a by-product.
    let (unbuilt, built, _) = zm.state_counts();
    assert_eq!(unbuilt, 0);
    assert!(built > 0);
    assert_eq!(zm.trace().totals().built as usize, built);
}

#[test]
fn second_query_skips_on_sorted_data() {
    let data: Vec<i64> = (0..10_000).collect();
    let mut zm = AdaptiveZonemap::new(data.len(), small_config());
    let pred = RangePredicate::between(2000, 2100);
    run_query(&mut zm, &data, pred);
    let (count, scanned) = run_query(&mut zm, &data, pred);
    assert_eq!(count, 101);
    assert!(
        scanned <= 3 * 128,
        "sorted data should skip almost everything, scanned {scanned}"
    );
}

#[test]
fn answers_always_match_oracle() {
    let data: Vec<i64> = (0..5000).map(|i| (i * 2654435761i64) % 1000).collect();
    let mut zm = AdaptiveZonemap::new(data.len(), small_config());
    for q in 0..60 {
        let lo = (q * 37) % 900;
        let pred = RangePredicate::between(lo, lo + 50);
        let (count, _) = run_query(&mut zm, &data, pred);
        assert_eq!(count, oracle(&data, pred), "query {q}");
    }
}

#[test]
fn random_data_converges_to_deactivated_metadata() {
    // Adversarial: every zone spans the whole domain, no (min,max) skip
    // ever fires. Masks are disabled here to test the merge/deactivate
    // ladder in isolation — with masks on, narrow predicates do land in
    // empty bins often enough that the metadata stops being useless (see
    // `masks_keep_paying_on_uniform_data_with_narrow_predicates`).
    let data: Vec<i64> = (0..20_000)
        .map(|i| (i * 2654435761i64).rem_euclid(1_000_000))
        .collect();
    let cfg = AdaptiveConfig {
        enable_mask: false,
        ..small_config()
    };
    let mut zm = AdaptiveZonemap::new(data.len(), cfg);
    let initial_zones = zm.num_zones();
    for q in 0..200 {
        let lo = (q * 9973) % 900_000;
        let pred = RangePredicate::between(lo, lo + 10_000);
        run_query(&mut zm, &data, pred);
    }
    let (_, _, dead) = zm.state_counts();
    assert!(dead > 0, "useless metadata should be deactivated");
    assert!(
        zm.num_zones() < initial_zones / 4,
        "merging + dead coalescing should shrink the entry count: {} -> {}",
        initial_zones,
        zm.num_zones()
    );
    assert!(zm.trace().totals().merged > 0);
    assert!(zm.trace().totals().deactivated > 0);
}

#[test]
fn clustered_data_splits_hot_boundary_zones() {
    // Two clusters meet mid-zone; queries on the boundary value range keep
    // scanning the straddling zone for tiny yield until it splits.
    let mut data = vec![100i64; 4096];
    data.extend(vec![900i64; 4096]);
    let cfg = AdaptiveConfig {
        target_zone_rows: 1024,
        min_zone_rows: 32,
        max_zone_rows: 8192,
        split_after_wasted: 2,
        maintenance_every: 1000, // isolate splitting from merging
        ..AdaptiveConfig::default()
    };
    let mut zm = AdaptiveZonemap::new(data.len(), cfg);
    let pred = RangePredicate::between(400, 600); // matches nothing
    for _ in 0..12 {
        let (count, _) = run_query(&mut zm, &data, pred);
        assert_eq!(count, 0);
    }
    // All zones are pure (single cluster) so after building, every zone is
    // skippable for this predicate; no splits should have been needed.
    assert_eq!(zm.trace().totals().split, 0);

    // Now a predicate overlapping the low cluster's value but matching few
    // rows in zones: zones are constant-valued, so scans are either full
    // matches or skips; craft mixed-value zones instead.
    let mut mixed: Vec<i64> = Vec::new();
    for i in 0..8192 {
        // Zone-sized stripes of slowly increasing values with occasional
        // outliers that widen zone ranges.
        mixed.push(if i % 512 == 0 { 5000 } else { (i / 64) as i64 });
    }
    let cfg2 = AdaptiveConfig {
        target_zone_rows: 1024,
        min_zone_rows: 32,
        max_zone_rows: 8192,
        split_after_wasted: 2,
        maintenance_every: 1000,
        ..AdaptiveConfig::default()
    };
    let mut zm2 = AdaptiveZonemap::new(mixed.len(), cfg2);
    let outlier_pred = RangePredicate::between(4900, 5100);
    for _ in 0..10 {
        run_query(&mut zm2, &mixed, outlier_pred);
    }
    assert!(
        zm2.trace().totals().split > 0,
        "low-yield scans should trigger refinement"
    );
}

#[test]
fn split_reduces_scanned_rows_for_outlier_queries() {
    // One outlier per 1024-row zone makes whole-zone metadata useless for
    // outlier-range queries; after splits, sub-zones without outliers skip.
    let n = 16_384usize;
    let data: Vec<i64> = (0..n)
        .map(|i| {
            if i % 1024 == 512 {
                10_000
            } else {
                (i % 64) as i64
            }
        })
        .collect();
    let cfg = AdaptiveConfig {
        target_zone_rows: 1024,
        min_zone_rows: 64,
        max_zone_rows: 8192,
        split_after_wasted: 1,
        maintenance_every: 1_000_000,
        ..AdaptiveConfig::default()
    };
    let mut zm = AdaptiveZonemap::new(n, cfg);
    let pred = RangePredicate::between(9_000, 11_000);
    let (_, first_scan) = run_query(&mut zm, &data, pred);
    assert_eq!(first_scan, n);
    let mut last_scan = usize::MAX;
    for _ in 0..20 {
        let (count, scanned) = run_query(&mut zm, &data, pred);
        assert_eq!(count, n / 1024);
        last_scan = scanned;
    }
    assert!(
        last_scan < n / 4,
        "refinement should localise outliers, still scanning {last_scan} of {n}"
    );
}

/// A seedable multiplicative walk: all the randomness these tests need.
struct Walk(u64);

impl Walk {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % n
    }
}

/// Uniform point values over `0..domain`, from a fixed seed.
fn uniform_points(domain: u64, n: usize) -> impl Iterator<Item = i64> {
    let mut walk = Walk(0x9E37_79B9_7F4A_7C15);
    (0..n).map(move |_| walk.below(domain) as i64)
}

#[test]
fn uniform_points_on_sorted_data_stop_splitting_once_probes_outweigh_skips() {
    // Every point lookup on ordered data is a "low yield" scan of the one
    // zone holding the value, so wasted-scan counting alone refines every
    // zone to the floor (489 zones -> 15 k) and each query then walks all
    // of them to keep one. The cost gate prices that walk: a child of a
    // zone 1 query in 489 lands on would save 1024 rows / 489 per query
    // and cost every query a probe worth 8. Only chance clusters of early
    // hits pass the gate (the rate is a ratio of small counts at first);
    // the true rate sits 4x under break-even, so that dies out within a
    // dozen scans per zone.
    let n = 1_000_000usize;
    let data: Vec<i64> = (0..n as i64).collect();
    let cfg = AdaptiveConfig {
        target_zone_rows: 2048,
        ..AdaptiveConfig::default()
    };
    let mut zm = AdaptiveZonemap::new(n, cfg);
    let initial = zm.num_zones();
    let mut points = uniform_points(n as u64, 100_000);
    for v in points.by_ref().take(50_000) {
        let (count, _) = run_query(&mut zm, &data, RangePredicate::between(v, v));
        assert_eq!(count, 1);
    }
    let halfway = zm.num_zones();
    for v in points {
        let (count, _) = run_query(&mut zm, &data, RangePredicate::between(v, v));
        assert_eq!(count, 1);
    }
    assert_eq!(
        zm.num_zones(),
        halfway,
        "zone count still moving after 50k queries"
    );
    assert!(
        halfway <= 4 * initial,
        "{initial} zones refined to {halfway}"
    );
}

#[test]
fn zone_hit_by_most_queries_for_nothing_still_splits_on_schedule() {
    // The dual: one misplaced value stretches a zone's bounds over most
    // of the domain, so most point lookups read all 4096 of its rows for
    // nothing. Its waste rate is near 1 and every level of its refinement
    // pays for the probe it adds — the gate must not slow it down.
    let n = 1_000_000usize;
    let mut data: Vec<i64> = (0..n as i64).collect();
    let cfg = AdaptiveConfig::default();
    let hot = 10 * cfg.target_zone_rows..11 * cfg.target_zone_rows;
    data[hot.start + 7] = 2 * n as i64;
    let mut zm = AdaptiveZonemap::new(n, cfg.clone());
    let in_hot = |zm: &AdaptiveZonemap<i64>| {
        zm.zone_snapshot()
            .iter()
            .filter(|(r, ..)| r.start >= hot.start && r.end <= hot.end)
            .map(|(r, ..)| r.len())
            .collect::<Vec<usize>>()
    };
    // Values above the hot zone's own: every one of them overlaps its
    // stretched bounds.
    let lookups: Vec<i64> = uniform_points((n - hot.end) as u64, 400)
        .map(|v| v + hot.end as i64)
        .collect();
    // Query 1 builds the zone (one wasted scan), query 2 is the second:
    // `split_after_wasted = 2` is met, and the split happens right there.
    for &v in &lookups[..2] {
        run_query(&mut zm, &data, RangePredicate::between(v, v));
    }
    assert_eq!(in_hot(&zm), vec![2048, 2048], "first split is late");
    for &v in &lookups[2..] {
        let (count, _) = run_query(&mut zm, &data, RangePredicate::between(v, v));
        assert_eq!(count, 1);
    }
    // Each generation doubles the evidence it asks for (2, 4, .. 64 wasted
    // scans: 126 in all), and the outlier's lineage goes all the way to
    // the row floor; the halves it sheds on the way tighten to their own
    // narrow bounds and stay whole.
    assert_eq!(in_hot(&zm), vec![64, 64, 128, 256, 512, 1024, 2048]);
}

#[test]
fn revival_after_backoff_lets_shifted_workload_reclaim_metadata() {
    // Phase 1: values in the first half are random (metadata dies there);
    // second half sorted. Queries hit the random half's domain.
    let n = 8192usize;
    let data: Vec<i64> = (0..n)
        .map(|i| {
            if i < n / 2 {
                ((i as i64) * 2654435761).rem_euclid(1000)
            } else {
                (i as i64) - (n as i64) / 2 + 2000 // sorted, far domain
            }
        })
        .collect();
    let cfg = AdaptiveConfig {
        target_zone_rows: 256,
        min_zone_rows: 32,
        max_zone_rows: 2048,
        maintenance_every: 2,
        merge_after_probes: 2,
        deactivate_after_probes: 4,
        revival_base_queries: Some(16),
        ..AdaptiveConfig::default()
    };
    let mut zm = AdaptiveZonemap::new(n, cfg);
    for q in 0..80 {
        let lo = (q * 31) % 900;
        run_query(&mut zm, &data, RangePredicate::between(lo, lo + 50));
    }
    let deact = zm.trace().totals().deactivated;
    assert!(deact > 0, "random half should deactivate");
    // Keep querying long past the backoff: revivals must occur, and since
    // the data is still random there, the region should die again.
    for q in 0..200 {
        let lo = (q * 17) % 900;
        run_query(&mut zm, &data, RangePredicate::between(lo, lo + 50));
    }
    assert!(zm.trace().totals().revived > 0, "backoff should revive");
    assert!(
        zm.trace().totals().deactivated > deact,
        "still-random region should re-deactivate after revival"
    );
}

#[test]
fn append_adds_unbuilt_zones_and_stays_sound() {
    let mut data: Vec<i64> = (0..1000).collect();
    let mut zm = AdaptiveZonemap::new(data.len(), small_config());
    run_query(&mut zm, &data, RangePredicate::between(0, 500));

    // Trickle appends, querying between them.
    for batch in 0..10 {
        let newvals: Vec<i64> = (0..77).map(|i| 1000 + batch * 77 + i).collect();
        data.extend_from_slice(&newvals);
        zm.on_append(&newvals, &data);
        let pred = RangePredicate::between(900, 1200);
        let (count, _) = run_query(&mut zm, &data, pred);
        assert_eq!(count, oracle(&data, pred), "batch {batch}");
    }
    assert_eq!(zm.len(), data.len());
}

#[test]
fn append_extends_trailing_unbuilt_zone() {
    let cfg = small_config();
    let target = cfg.target_zone_rows;
    let mut zm = AdaptiveZonemap::<i64>::new(100, cfg);
    assert_eq!(zm.num_zones(), 1);
    let base: Vec<i64> = (0..150).collect();
    zm.on_append(&base[100..], &base);
    // 150 <= target(128)? 150 > 128: first zone extended to 128, second zone opened.
    assert_eq!(target, 128);
    assert_eq!(zm.num_zones(), 2);
    zm.assert_invariants();
}

#[test]
fn full_match_zones_are_answered_without_scanning() {
    let data: Vec<i64> = (0..4096).collect();
    let mut zm = AdaptiveZonemap::new(data.len(), small_config());
    let pred = RangePredicate::between(0, 4095);
    run_query(&mut zm, &data, pred); // builds
    let out = zm.prune(&pred);
    assert_eq!(out.rows_full_match(), 4096);
    assert_eq!(out.rows_to_scan(), 0);
    zm.observe(&ScanObservation::empty(pred));
}

#[test]
fn name_reflects_enabled_components() {
    let zm = AdaptiveZonemap::<i64>::new(10, AdaptiveConfig::default());
    assert!(zm.name().contains("smd"));
    let lazy = AdaptiveZonemap::<i64>::new(10, AdaptiveConfig::lazy_only());
    assert!(lazy.name().contains("lazy"));
}

#[test]
fn lazy_only_never_reorganises() {
    let data: Vec<i64> = (0..8192).map(|i| (i * 37) % 100).collect();
    let mut zm = AdaptiveZonemap::new(
        data.len(),
        AdaptiveConfig {
            target_zone_rows: 512,
            ..AdaptiveConfig::lazy_only()
        },
    );
    for q in 0..50 {
        run_query(&mut zm, &data, RangePredicate::between(q % 90, q % 90 + 5));
    }
    let totals = zm.trace().totals();
    assert_eq!(totals.split, 0);
    assert_eq!(totals.merged, 0);
    assert_eq!(totals.deactivated, 0);
    assert!(totals.built > 0);
}

#[test]
fn empty_column() {
    let mut zm = AdaptiveZonemap::<i64>::new(0, small_config());
    assert!(zm.is_empty());
    let out = zm.prune(&RangePredicate::all());
    assert_eq!(out.rows_to_scan(), 0);
    assert_eq!(out.zones_probed, 0);
}

#[test]
fn metadata_bytes_shrinks_after_convergence_on_random_data() {
    let data: Vec<i64> = (0..32_768)
        .map(|i| (i * 2654435761i64).rem_euclid(1_000_000))
        .collect();
    let mut zm = AdaptiveZonemap::new(data.len(), small_config());
    for _ in 0..5 {
        run_query(&mut zm, &data, RangePredicate::between(0, 500_000));
    }
    let before = zm.num_zones();
    for q in 0..300 {
        let lo = (q * 7919) % 500_000;
        run_query(&mut zm, &data, RangePredicate::between(lo, lo + 100_000));
    }
    assert!(zm.num_zones() < before);
}

#[test]
fn conservative_bounds_after_split_never_lose_rows() {
    // Force splits, then check soundness against the oracle for many
    // predicates while halves still carry inherited (inexact) bounds.
    let data: Vec<i64> = (0..4096)
        .map(|i| {
            if i % 512 == 100 {
                9999
            } else {
                (i % 32) as i64
            }
        })
        .collect();
    let cfg = AdaptiveConfig {
        target_zone_rows: 512,
        min_zone_rows: 32,
        split_after_wasted: 1,
        maintenance_every: 1_000_000,
        ..AdaptiveConfig::default()
    };
    let mut zm = AdaptiveZonemap::new(data.len(), cfg);
    for q in 0..40 {
        let pred = if q % 2 == 0 {
            RangePredicate::between(9000, 10_000)
        } else {
            RangePredicate::between(q % 30, q % 30 + 3)
        };
        let (count, _) = run_query(&mut zm, &data, pred);
        assert_eq!(count, oracle(&data, pred), "query {q}");
    }
    // Splits definitely happened under this config.
    assert!(zm.trace().totals().split > 0);
}

#[test]
fn state_counts_sum_to_zone_count() {
    let data: Vec<i64> = (0..2048).collect();
    let mut zm = AdaptiveZonemap::new(data.len(), small_config());
    run_query(&mut zm, &data, RangePredicate::between(0, 100));
    let (u, b, d) = zm.state_counts();
    assert_eq!(u + b + d, zm.num_zones());
    let snap = zm.zone_snapshot();
    assert_eq!(snap.len(), zm.num_zones());
}

#[test]
fn zone_masks_rescue_outlier_pinned_zones() {
    // One huge outlier per zone pins every zone's (min, max) wide open;
    // zones cannot split (at the floor), so the mask is the only way to
    // skip mid-range queries that match nothing.
    let n = 8192usize;
    let zone = 256usize;
    let data: Vec<i64> = (0..n)
        .map(|i| {
            if i % zone == 13 {
                10_000
            } else {
                (i % 16) as i64
            }
        })
        .collect();
    let cfg = AdaptiveConfig {
        target_zone_rows: zone,
        min_zone_rows: zone, // splitting blocked: masks must carry the day
        max_zone_rows: 4096,
        split_after_wasted: 2,
        maintenance_every: 1_000_000, // no merging in this test
        ..AdaptiveConfig::default()
    };
    let mut zm = AdaptiveZonemap::new(n, cfg);
    let pred = RangePredicate::between(5_000, 6_000); // between base and outlier
    let mut last_scan = usize::MAX;
    for _ in 0..8 {
        let (count, scanned) = run_query(&mut zm, &data, pred);
        assert_eq!(count, 0);
        last_scan = scanned;
    }
    assert!(zm.trace().totals().mask_built > 0, "masks should be earned");
    assert_eq!(last_scan, 0, "masked zones should skip entirely");

    // Soundness: queries that include the outlier value still find it.
    let hit = RangePredicate::between(9_000, 11_000);
    let (count, _) = run_query(&mut zm, &data, hit);
    assert_eq!(count, n / zone);
    // And base-range queries still count correctly.
    let base = RangePredicate::between(0, 15);
    let (count, _) = run_query(&mut zm, &data, base);
    assert_eq!(count, n - n / zone);
}

#[test]
fn no_mask_preset_never_builds_masks() {
    let n = 4096usize;
    let data: Vec<i64> = (0..n)
        .map(|i| {
            if i % 256 == 13 {
                10_000
            } else {
                (i % 16) as i64
            }
        })
        .collect();
    let cfg = AdaptiveConfig {
        target_zone_rows: 256,
        min_zone_rows: 256,
        max_zone_rows: 4096,
        maintenance_every: 1_000_000,
        ..AdaptiveConfig::no_mask()
    };
    let mut zm = AdaptiveZonemap::new(n, cfg);
    let pred = RangePredicate::between(5_000, 6_000);
    for _ in 0..8 {
        run_query(&mut zm, &data, pred);
    }
    assert_eq!(zm.trace().totals().mask_built, 0);
}

#[test]
fn masks_are_dropped_on_merge() {
    // Build masks, then enable-merge pressure: merged zones must not carry
    // stale masks (they describe a different row range).
    let n = 4096usize;
    let data: Vec<i64> = (0..n)
        .map(|i| {
            if i % 256 == 13 {
                10_000
            } else {
                (i % 16) as i64
            }
        })
        .collect();
    let cfg = AdaptiveConfig {
        target_zone_rows: 256,
        min_zone_rows: 256,
        max_zone_rows: 1024,
        split_after_wasted: 1,
        merge_after_probes: 4,
        merge_max_skip_rate: 1.0, // merge aggressively regardless of skips
        maintenance_every: 2,
        ..AdaptiveConfig::default()
    };
    let mut zm = AdaptiveZonemap::new(n, cfg);
    for q in 0..30 {
        let lo = 4000 + (q % 5) * 100;
        let (count, _) = run_query(&mut zm, &data, RangePredicate::between(lo, lo + 50));
        assert_eq!(count, 0);
        zm.assert_invariants();
    }
    // Whatever merging happened, answers must stay exact for outlier hits.
    let (count, _) = run_query(&mut zm, &data, RangePredicate::point(10_000));
    assert_eq!(count, n / 256);
}

#[test]
fn masks_keep_paying_on_uniform_data_with_narrow_predicates() {
    // With masks enabled, uniform data is no longer fully adversarial for
    // narrow predicates: a 1-2 bin predicate misses every value of a small
    // zone reasonably often, so mask skips fire and the metadata survives.
    let data: Vec<i64> = (0..20_000)
        .map(|i| (i * 2654435761i64).rem_euclid(1_000_000))
        .collect();
    let mut zm = AdaptiveZonemap::new(data.len(), small_config());
    let mut total_skips = 0usize;
    for q in 0..150 {
        let lo = (q * 9973) % 990_000;
        let pred = RangePredicate::between(lo, lo + 5_000);
        let out_skips = {
            let out = zm.prune(&pred);
            // Complete the protocol manually for this inspection loop.
            let ranges = (0..out.units().len())
                .map(|i| scan_unit(&out, i, &data, pred))
                .collect();
            zm.observe(&ScanObservation {
                predicate: pred,
                ranges,
            });
            out.zones_skipped
        };
        if q > 50 {
            total_skips += out_skips;
        }
    }
    assert!(zm.trace().totals().mask_built > 0);
    assert!(
        total_skips > 0,
        "mask skips should fire on narrow predicates over uniform data"
    );
}

#[test]
fn bloom_tier_skips_point_misses_inside_wide_bounds() {
    use crate::adaptive::TierMode;
    // Even values scattered over the domain: every zone's (min, max)
    // spans nearly everything, so bounds can never skip a point probe —
    // exactly the gap a value-set sketch closes.
    let data: Vec<i64> = (0..2048)
        .map(|i| ((i * 2654435761i64) % 1000) * 2)
        .collect();
    let cfg = AdaptiveConfig {
        tier_mode: TierMode::Bloom,
        tier_after_scans: 1,
        // Splits and merges reset scan counters (and clear tiers); pin the
        // layout so the test exercises the tier lifecycle, not zone
        // adaptation.
        enable_split: false,
        enable_merge: false,
        enable_deactivate: false,
        ..small_config()
    };
    let mut zm = AdaptiveZonemap::new(data.len(), cfg);
    for v in [0i64, 400, 800, 1200] {
        run_query(&mut zm, &data, RangePredicate::point(v));
    }
    assert!(zm.apply_tiers(&data).built > 0, "tiers should amortise");
    assert!(zm.zones_tiered() > 0);
    assert!(zm.trace().totals().tier_built > 0);

    // Odd values are absent everywhere; the sketches should exclude
    // most zones despite overlapping bounds.
    let mut scanned_total = 0;
    for q in 0..30i64 {
        let pred = RangePredicate::point(q * 66 + 1);
        let (count, scanned) = run_query(&mut zm, &data, pred);
        assert_eq!(count, 0, "absent value produced rows");
        scanned_total += scanned;
    }
    assert!(zm.tier_stats().tier_skips > 0, "no bloom skip ever fired");
    assert!(
        scanned_total < 30 * data.len() / 2,
        "blooms should cut scans, scanned {scanned_total}"
    );
    assert!(zm.name().contains('t'));
}

#[test]
fn imprint_tier_fragments_zone_into_line_runs() {
    use crate::adaptive::TierMode;
    // Sorted data: within one zone, a narrow predicate touches only a
    // couple of imprint lines; the rest of the zone's lines miss the
    // predicate's bins and are excluded without scanning.
    let data: Vec<i64> = (0..1024).collect();
    let cfg = AdaptiveConfig {
        tier_mode: TierMode::Imprint,
        tier_imprint_line_rows: 16,
        target_zone_rows: 512,
        max_zone_rows: 512,
        enable_merge: false,
        enable_deactivate: false,
        ..small_config()
    };
    let mut zm = AdaptiveZonemap::new(data.len(), cfg);
    let pred = RangePredicate::between(100, 119);
    for _ in 0..4 {
        run_query(&mut zm, &data, pred);
    }
    assert!(zm.apply_tiers(&data).built > 0);

    let (count, scanned) = run_query(&mut zm, &data, pred);
    assert_eq!(count, 20);
    assert!(
        scanned < 512,
        "imprints should exclude line runs inside the zone, scanned {scanned}"
    );
    assert!(zm.tier_stats().tier_rows_excluded > 0);
}

#[test]
fn adaptive_chooser_matches_tier_to_predicate_shape() {
    use crate::adaptive::TierMode;
    let data: Vec<i64> = (0..2048)
        .map(|i| ((i * 2654435761i64) % 1000) * 2)
        .collect();

    // Point-heavy workload -> bloom sketches.
    let mut zm = AdaptiveZonemap::new(
        data.len(),
        AdaptiveConfig {
            tier_mode: TierMode::Adaptive,
            tier_after_scans: 1,
            enable_split: false,
            enable_merge: false,
            enable_deactivate: false,
            ..small_config()
        },
    );
    for v in 0..6i64 {
        run_query(&mut zm, &data, RangePredicate::point(v * 200));
    }
    zm.apply_tiers(&data);
    let stats = zm.tier_stats();
    assert!(stats.blooms_built > 0, "point workload should pick blooms");
    assert_eq!(stats.imprints_built, 0);

    // Range-heavy workload -> imprints.
    let mut zm = AdaptiveZonemap::new(
        data.len(),
        AdaptiveConfig {
            tier_mode: TierMode::Adaptive,
            tier_after_scans: 1,
            enable_split: false,
            enable_merge: false,
            enable_deactivate: false,
            ..small_config()
        },
    );
    for q in 0..6i64 {
        run_query(
            &mut zm,
            &data,
            RangePredicate::between(q * 100, q * 100 + 80),
        );
    }
    zm.apply_tiers(&data);
    let stats = zm.tier_stats();
    assert!(
        stats.imprints_built > 0,
        "range workload should pick imprints"
    );
    assert_eq!(stats.blooms_built, 0);
}

#[test]
fn useless_tier_is_dropped_with_rebuild_backoff() {
    use crate::adaptive::TierMode;
    let data: Vec<i64> = (0..1024).map(|i| (i * 2654435761i64) % 1000).collect();
    // Bloom sketches answer only point predicates; a pure range workload
    // consults them for nothing, so the drop window must retire them.
    let cfg = AdaptiveConfig {
        tier_mode: TierMode::Bloom,
        tier_after_scans: 1,
        tier_drop_after: 8,
        // Merges would clear the tier before its drop window is judged.
        enable_split: false,
        enable_merge: false,
        enable_deactivate: false,
        ..small_config()
    };
    let mut zm = AdaptiveZonemap::new(data.len(), cfg);
    let pred = RangePredicate::between(200, 400);
    for _ in 0..4 {
        run_query(&mut zm, &data, pred);
    }
    assert!(zm.apply_tiers(&data).built > 0);
    let epoch_after_build = zm.mutation_epoch();

    for _ in 0..8 {
        run_query(&mut zm, &data, pred);
    }
    let report = zm.apply_tiers(&data);
    assert!(report.dropped > 0, "hitless tier survived its window");
    assert_eq!(zm.zones_tiered(), 0);
    assert!(zm.trace().totals().tier_dropped > 0);
    assert!(
        zm.mutation_epoch() > epoch_after_build,
        "tier drop must be reader-visible"
    );

    // Backoff: the very next pass must not rebuild immediately.
    assert_eq!(zm.apply_tiers(&data).built, 0, "rebuild ignored backoff");
}

/// Seeded protocol bug: a bloom sketch built over the *wrong* value set
/// makes the tier exclude a zone that holds a qualifying row — the
/// classic widened-miss false skip. The shadow oracle must abort and
/// name the bloom decision that caused it.
#[cfg(feature = "audit")]
#[test]
fn audit_catches_seeded_bloom_false_skip() {
    use crate::adaptive::zone::ZoneTier;
    use crate::adaptive::TierMode;
    use ads_storage::BloomSketch;
    use std::sync::Arc;

    let data: Vec<i64> = (0..2048)
        .map(|i| ((i * 2654435761i64) % 1000) * 2)
        .collect();
    let cfg = AdaptiveConfig {
        tier_mode: TierMode::Bloom,
        tier_after_scans: 1,
        enable_split: false,
        enable_merge: false,
        enable_deactivate: false,
        enable_mask: false,
        ..small_config()
    };
    let mut zm = AdaptiveZonemap::new(data.len(), cfg);
    for v in [0i64, 400, 800, 1200] {
        run_query(&mut zm, &data, RangePredicate::point(v));
    }
    assert!(zm.apply_tiers(&data).built > 0, "tiers should amortise");

    // Sanity: with honest sketches, probing a present value never trips
    // the oracle.
    let present = data[17];
    let honest = zm.prune(&RangePredicate::point(present));
    crate::audit::verify_outcome(
        &data,
        None,
        &RangePredicate::point(present),
        &honest,
        None,
        "seeded-bloom",
    );

    // Seed the bug: every bloom tier is replaced by one built over a
    // disjoint value set, so present values now probe as absent.
    let wrong = [999_983i64];
    let mut swapped = 0;
    for z in zm.zones.iter_mut() {
        if matches!(z.tier, Some(ZoneTier::Bloom(_))) {
            z.tier = Some(ZoneTier::Bloom(Arc::new(BloomSketch::build(
                &wrong,
                8,
                1 << 16,
            ))));
            swapped += 1;
        }
    }
    assert!(swapped > 0, "no bloom tier to corrupt");

    let pred = RangePredicate::point(present);
    let outcome = zm.prune(&pred);
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        crate::audit::verify_outcome(&data, None, &pred, &outcome, None, "seeded-bloom");
    }))
    .expect_err("corrupted bloom sketch must be caught as a false skip");
    let msg = err
        .downcast_ref::<String>()
        .expect("panic carries a message");
    assert!(msg.contains("FALSE SKIP"), "unexpected abort: {msg}");
    assert!(
        msg.contains("skip:bloom"),
        "trace must name the bloom decision: {msg}"
    );
}

/// One 128-row zone that deactivation retires and revival hands back as a
/// single unbuilt zone over the same rows — the shape in which a stale
/// reader's feedback still aligns with the zone it no longer describes.
fn single_zone_config() -> AdaptiveConfig {
    AdaptiveConfig {
        target_zone_rows: 128,
        min_zone_rows: 16,
        max_zone_rows: 128,
        enable_split: false,
        deactivate_after_probes: 1,
        maintenance_every: 1,
        revival_base_queries: Some(1),
        ..AdaptiveConfig::default()
    }
}

#[test]
fn boundsless_feedback_never_builds_a_revived_zone() {
    // A reader prunes a snapshot in which the zone is exact (or dead), so
    // its scan is asked for no bounds; before the feedback lands,
    // maintenance retires the zone and revives it to `Unbuilt` over the
    // same row range. The stale observation still aligns with the zone —
    // it must count as evidence only and leave the zone unbuilt.
    let data: Vec<i64> = (0..128).map(|i| (i * 37) % 128).collect();
    let all = RangePredicate::between(10, 100);
    for reader_sees_dead in [false, true] {
        let mut zm = AdaptiveZonemap::new(data.len(), single_zone_config());
        run_query(&mut zm, &data, all);
        assert_eq!(zm.zone_snapshot()[0].1, "built");
        let stale = if reader_sees_dead {
            None
        } else {
            Some(zm.clone())
        };
        // One more non-skipping probe retires the zone.
        run_query(&mut zm, &data, all);
        assert_eq!(zm.zone_snapshot()[0].1, "dead");
        let stale = stale.unwrap_or_else(|| zm.clone());

        let out = stale.prune_shared(&all);
        assert_eq!(out.units().len(), 1);
        assert_eq!(out.unit_request(0), UnitRequest::NOTHING);
        let obs = ScanObservation {
            predicate: all,
            ranges: vec![scan_unit(&out, 0, &data, all)],
        };
        assert!(obs.ranges[0].bounds.is_none());

        assert!(zm.poll_revival(), "the dead zone is due");
        assert_eq!(zm.zone_snapshot()[0].1, "unbuilt");
        assert_eq!(zm.zone_snapshot()[0].0, out.units()[0], "same row range");
        zm.apply_feedback(&obs);
        zm.assert_invariants();
        assert_eq!(
            zm.zone_snapshot()[0].1,
            "unbuilt",
            "bounds-less feedback built a zone (reader saw dead: {reader_sees_dead})"
        );

        // The zone still answers, and the next honest scan builds it
        // from real bounds.
        let pred = RangePredicate::between(120, 127);
        assert_eq!(run_query(&mut zm, &data, pred).0, oracle(&data, pred));
        assert_eq!(zm.zone_snapshot()[0].1, "built");
        let miss = RangePredicate::between(500, 600);
        assert_eq!(run_query(&mut zm, &data, miss), (0, 0));
        assert_eq!(run_query(&mut zm, &data, all).0, oracle(&data, all));
    }
}

/// What a reader does with one query: prune `snapshot` read-only, scan
/// what it was told to, report what it was asked for.
fn read_through(
    snapshot: &AdaptiveZonemap<i64>,
    data: &[i64],
    pred: RangePredicate<i64>,
) -> ScanObservation<i64> {
    let out = snapshot.prune_shared(&pred);
    ScanObservation {
        predicate: pred,
        ranges: (0..out.units().len())
            .map(|i| scan_unit(&out, i, data, pred))
            .collect(),
    }
}

/// Everything the executor acts on in `out` (DESIGN.md "What a reader
/// reads off a snapshot"): the scan units with their by-product requests,
/// the full-match spans, the skip count and how each reorganized zone
/// resolved. (Reorg payloads compare by what the lookup returned, not by
/// pointer: the owner's copy-on-write crack may have cloned one.)
fn reader_decisions(out: &PruneOutcome) -> impl PartialEq + std::fmt::Debug {
    let positional: Vec<_> = out
        .reorg_units
        .iter()
        .map(|u| (u.zone, u.full, u.edges))
        .collect();
    (
        out.units().to_vec(),
        out.unit_requests.clone(),
        out.full_match.clone(),
        (out.zones_probed, out.zones_skipped),
        positional,
    )
}

/// `ADS_STRESS_ITERS`, as the server's stress suite reads it.
fn stress_iters() -> u64 {
    std::env::var("ADS_STRESS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

#[test]
fn equal_epochs_mean_identical_reader_decisions() {
    // The sentence in `mutation_epoch()`'s doc, as a property: a clone
    // taken when the epoch last moved prunes exactly as the live map does,
    // whatever stat drift the owner has absorbed since. Publication rests
    // on it — a lane is cloned for readers only when its epoch moves.
    // Small zones and eager tiers, reorg and revival, so every mechanism
    // fires within a couple of hundred queries over 2 k rows.
    let small = |base: AdaptiveConfig| AdaptiveConfig {
        revival_base_queries: Some(16),
        tier_after_scans: 1,
        tier_drop_after: 4,
        tier_imprint_line_rows: 8,
        reorg_after_scans: 1,
        reorg_demote_idle: 2,
        reorg_hot_factor: 0.0,
        target_zone_rows: 128,
        min_zone_rows: 16,
        max_zone_rows: 1024,
        maintenance_every: 2,
        ..base
    };
    let configs = [
        ("default", small(AdaptiveConfig::default())),
        ("tiers", small(AdaptiveConfig::with_tiers())),
        ("reorg", small(AdaptiveConfig::with_reorg())),
        (
            "masks-only",
            small(AdaptiveConfig {
                enable_split: false,
                ..AdaptiveConfig::default()
            }),
        ),
    ];
    const DOMAIN: u64 = 2_000;
    let fixed: Vec<RangePredicate<i64>> = (0..6)
        .flat_map(|k| {
            let lo = k * 330 + 17;
            [
                RangePredicate::point(lo),
                RangePredicate::between(lo, lo + 60),
            ]
        })
        .chain([RangePredicate::between(0, DOMAIN as i64)])
        .collect();

    // Steps that left the epoch alone, and what the streams reached:
    // masks, splits, tiers, promotions, revivals.
    let (mut quiet, mut steps_run) = (0u64, 0u64);
    let mut reached = [0u64; 5];
    for (seed, (name, config)) in
        (0..64 * stress_iters()).flat_map(|s| configs.iter().map(move |c| (s, c)))
    {
        let mut rng = Walk(0xE90C ^ (seed << 8));
        // Clustered values, uniform noise, or clusters whose zones an
        // outlier pair pins wide (the shape that earns masks).
        let shape = seed % 3;
        let value = |rng: &mut Walk, row: usize| -> i64 {
            let cluster = (row as u64 / 128 * 97) % DOMAIN;
            match shape {
                0 => (cluster + rng.below(40)) as i64,
                1 => rng.below(DOMAIN) as i64,
                _ if row.is_multiple_of(64) => [0, DOMAIN as i64][(row / 64) % 2],
                _ => (cluster + rng.below(8)) as i64,
            }
        };
        let mut data: Vec<i64> = (0..2_048).map(|row| value(&mut rng, row)).collect();
        let mut zm = AdaptiveZonemap::new(data.len(), config.clone());
        let mut published = zm.clone_for_readers();
        // A reader that refreshes late: its feedback describes an older
        // structure, as a busy service's does.
        let mut lagging = zm.clone_for_readers();

        for step in 0..160 {
            let hot = (step / 40 * 500) as u64 % DOMAIN;
            let lo = if rng.below(4) == 0 {
                rng.below(DOMAIN)
            } else {
                hot + rng.below(120)
            } as i64;
            let pred = match rng.below(3) {
                0 => RangePredicate::point(lo),
                _ => RangePredicate::between(lo, lo + rng.below(80) as i64),
            };
            match rng.below(16) {
                0 => {
                    let grown: Vec<i64> = (0..1 + rng.below(200) as usize)
                        .map(|i| value(&mut rng, data.len() + i))
                        .collect();
                    data.extend(&grown);
                    zm.on_append(&grown, &data);
                }
                1 | 2 => {
                    let _ = zm.apply_reorg(&data);
                    let _ = zm.apply_tiers(&data);
                    zm.poll_revival();
                }
                3 => zm.maintain(&data),
                4 => {
                    run_query(&mut zm, &data, pred);
                }
                5 | 6 => {
                    let obs = read_through(&lagging, &data[..lagging.len()], pred);
                    zm.apply_feedback(&obs);
                }
                _ => {
                    let obs = read_through(&published, &data[..published.len()], pred);
                    zm.apply_feedback(&obs);
                }
            }
            zm.assert_invariants();
            if step % 9 == 0 {
                lagging = zm.clone_for_readers();
            }
            steps_run += 1;
            if zm.mutation_epoch() != published.mutation_epoch() {
                published = zm.clone_for_readers();
                continue;
            }
            quiet += 1;
            for pred in &fixed {
                assert_eq!(
                    reader_decisions(&published.prune_shared(pred)),
                    reader_decisions(&zm.prune_shared(pred)),
                    "{name} seed {seed} step {step}: epoch {} stood still while the \
                     decision for {pred:?} moved",
                    zm.mutation_epoch()
                );
            }
        }
        let totals = zm.trace().totals();
        reached[0] += totals.mask_built;
        reached[1] += totals.split;
        reached[2] += totals.tier_built;
        reached[3] += totals.promoted;
        reached[4] += totals.revived;
    }
    assert!(
        reached.iter().all(|&n| n > 0),
        "masks/splits/tiers/promotions/revivals reached: {reached:?}"
    );
    // Vacuous if every step bumped, which is what the parent did for
    // every scan of a built zone.
    assert!(
        quiet * 3 >= steps_run,
        "only {quiet} of {steps_run} steps left the epoch alone"
    );
}

#[test]
fn epoch_moves_exactly_when_a_zone_starts_or_stops_wanting_a_mask() {
    // One zone at the split floor (it can refine no further), pinned wide
    // by two outliers: the reader's only statistic, `wasted_scans`
    // against `split_after_wasted`, decides whether its scans are asked
    // for a mask — so crossing that threshold must republish, in both
    // directions, and nothing else about a re-observed zone may.
    let mut data: Vec<i64> = (0..128).map(|i| 500 + i % 8).collect();
    (data[0], data[127]) = (0, 1_000);
    let config = AdaptiveConfig {
        // The mask itself would end the experiment; watch the request.
        max_zone_rows: 128,
        enable_merge: false,
        enable_deactivate: false,
        ..single_zone_config()
    };
    assert_eq!(config.split_after_wasted, 2);
    let mut zm = AdaptiveZonemap::new(data.len(), config);
    let wasted = RangePredicate::between(100, 200); // inside the bounds, hits nothing
    let productive = RangePredicate::between(400, 600);
    let asks_for_mask = |zm: &AdaptiveZonemap<i64>| {
        let out = zm.prune_shared(&wasted);
        out.unit_request(0).bins.is_some()
    };
    // A scan told to collect nothing beyond the answer, whatever the
    // snapshot it pruned said: the mask never lands, the evidence does.
    let scan_without_byproducts = |zm: &mut AdaptiveZonemap<i64>, pred: RangePredicate<i64>| {
        let epoch = zm.mutation_epoch();
        zm.apply_feedback(&ScanObservation {
            predicate: pred,
            ranges: vec![RangeObservation::answer_only(
                ads_storage::RowRange::new(0, 128),
                oracle(&data, pred),
            )],
        });
        zm.mutation_epoch() != epoch
    };

    run_query(&mut zm, &data, productive);
    assert_eq!(zm.zone_snapshot()[0].1, "built");
    assert!(!asks_for_mask(&zm));

    assert!(
        !scan_without_byproducts(&mut zm, wasted),
        "one wasted scan is below the threshold: no reader decides differently"
    );
    assert!(!asks_for_mask(&zm));
    assert!(
        scan_without_byproducts(&mut zm, wasted),
        "the second crosses it: readers must learn to ask for a mask"
    );
    assert!(asks_for_mask(&zm));
    assert!(
        !scan_without_byproducts(&mut zm, wasted),
        "a third changes nothing a reader reads"
    );
    assert!(asks_for_mask(&zm));
    assert!(
        scan_without_byproducts(&mut zm, productive),
        "a productive scan resets the streak: readers must stop asking"
    );
    assert!(!asks_for_mask(&zm));
    assert!(
        !scan_without_byproducts(&mut zm, productive),
        "and a second productive scan is stat drift"
    );

    // With the evidence back and an honest scan, the mask lands (one bump)
    // and the wasted predicate is skipped from then on, quietly.
    scan_without_byproducts(&mut zm, wasted);
    scan_without_byproducts(&mut zm, wasted);
    let epoch = zm.mutation_epoch();
    run_query(&mut zm, &data, wasted);
    assert_eq!(zm.trace().totals().mask_built, 1);
    assert_eq!(zm.mutation_epoch(), epoch + 1);
    assert_eq!(run_query(&mut zm, &data, wasted), (0, 0));
    assert_eq!(zm.mutation_epoch(), epoch + 1, "a skip publishes nothing");
}
