//! ads-audit — a seed-sweeping false-skip hunter.
//!
//! Drives randomized query/delete/append sequences through the executor
//! with the shadow oracle armed: every prune outcome the sweep produces
//! is cross-checked row by row against ground truth inside
//! `scan_sharded` (see `ads_core::audit`). The sweep itself
//! asserts nothing — a false skip aborts the process from inside the
//! executor with the zone, predicate, and decision trace; exiting 0
//! means every decision across every seed was sound. The sweep does
//! check that it reached the secondary prune paths: it prints the
//! adaptive strategy's tier skips and mask builds per seed and exits 1
//! when the whole sweep recorded no tier skip or built no mask, since
//! then no bloom or mask decision was audited.
//!
//! The configurations are deliberately hostile: tiny zones, hair-trigger
//! split/merge/deactivate/revival thresholds, masks, and metadata tiers,
//! so a sweep exercises every prune path (bounds, mask, bloom) orders of
//! magnitude more often than the defaults would.
//!
//! Usage: `ads-audit [SEEDS] [QUERIES_PER_SEED] [ROWS]`
//! (defaults: 16 seeds × 300 queries over 48k rows — a few seconds).

#![forbid(unsafe_code)]

use ads_core::adaptive::{AdaptiveConfig, AdaptiveZonemap};
use ads_core::{RangePredicate, ScanCoords};
use ads_engine::{AggKind, ExecPolicy, Lane, Strategy};
use ads_rng::StdRng;
use ads_storage::DeleteVector;

fn aggressive_adaptive() -> AdaptiveConfig {
    AdaptiveConfig {
        target_zone_rows: 512,
        min_zone_rows: 64,
        max_zone_rows: 4096,
        split_after_wasted: 1,
        merge_after_probes: 4,
        merge_max_skip_rate: 0.3,
        deactivate_after_probes: 8,
        deactivate_max_skip_rate: 0.1,
        maintenance_every: 4,
        revival_base_queries: Some(16),
        enable_tiers: true,
        tier_after_scans: 2,
        tier_drop_after: 8,
        ..AdaptiveConfig::default()
    }
}

fn roster() -> Vec<Strategy> {
    vec![
        Strategy::Adaptive(aggressive_adaptive()),
        Strategy::StaticZonemap { zone_rows: 1024 },
        Strategy::Imprints {
            values_per_line: 8,
            bins: 64,
        },
        Strategy::Cracking,
    ]
}

/// Synthesizes a column whose shape depends on the seed: interleaved
/// uniform noise, sorted runs (skippable), and heavy duplicates (bloom
/// fodder).
fn make_data(rng: &mut StdRng, rows: usize) -> Vec<i64> {
    let mut data = Vec::with_capacity(rows);
    while data.len() < rows {
        let run = rng.gen_range(256usize..2048).min(rows - data.len());
        match rng.gen_range(0u64..3) {
            0 => data.extend((0..run).map(|_| rng.gen_range(0i64..1_000_000))),
            1 => {
                let base = rng.gen_range(0i64..900_000);
                data.extend((0..run as i64).map(|i| base + i));
            }
            _ => {
                let v = rng.gen_range(0i64..1_000_000);
                data.extend(std::iter::repeat_n(v, run));
            }
        }
    }
    data
}

fn random_pred(rng: &mut StdRng) -> RangePredicate<i64> {
    if rng.gen_range(0u64..4) == 0 {
        // Point probes feed bloom tiers their reason to exist.
        RangePredicate::point(rng.gen_range(0i64..1_000_000))
    } else {
        let lo = rng.gen_range(0i64..1_000_000);
        let width = rng.gen_range(1i64..200_000);
        RangePredicate::between(lo, (lo + width).min(1_000_000))
    }
}

/// Runs one seed's query sequence against one strategy: one lane through
/// the inline protocol, carrying its delete vector so tombstones are in
/// play on base-coordinate strategies — the audit hook fires inside the
/// scan. Returns the strategy's tier skips and mask builds (both 0 for
/// every strategy but the adaptive zonemap).
fn sweep_strategy(strategy: &Strategy, data: &[i64], queries: usize, seed: u64) -> (u64, u64) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xAD17);
    let mut data = data.to_vec();
    let mut index = strategy.build_index(&data);
    let base_coords = index.scan_coords() == ScanCoords::Base;
    // View-coordinate strategies answer from their own copy; tombstones
    // would need coordinate translation, so the sweep keeps them
    // delete-free (the engine imposes the same restriction).
    let mut live = base_coords.then(|| DeleteVector::new(data.len(), 0));
    let policy = ExecPolicy::default();

    for q in 0..queries {
        // Mutation phases: occasional delete bursts and appends.
        if let Some(dv) = live.as_mut() {
            if q % 17 == 5 {
                for _ in 0..rng.gen_range(1usize..64) {
                    dv.delete(rng.gen_range(0usize..data.len()));
                }
            }
        }
        if base_coords && q % 41 == 13 {
            let old = data.len();
            let extra: Vec<i64> = (0..rng.gen_range(64usize..512))
                .map(|_| rng.gen_range(0i64..1_000_000))
                .collect();
            data.extend_from_slice(&extra);
            index.on_append(&data[old..], &data);
            if let Some(dv) = live.as_mut() {
                dv.grow(data.len());
            }
        }

        let pred = random_pred(&mut rng);
        let agg = match q % 3 {
            0 => AggKind::Count,
            1 => AggKind::Sum,
            _ => AggKind::Min,
        };
        // The shadow oracle fires inside this call (audit feature).
        let lane = Lane {
            data: &data,
            index: index.as_mut(),
            live: live.as_ref(),
            start: 0,
        };
        Lane::run(&mut [lane], pred, agg, &policy);
    }
    index
        .as_any()
        .downcast_ref::<AdaptiveZonemap<i64>>()
        .map_or((0, 0), |zm| {
            (zm.tier_stats().tier_skips, zm.trace().totals().mask_built)
        })
}

fn main() {
    let args: Vec<usize> = std::env::args()
        .skip(1)
        .map(|a| {
            // invariant: CLI entry point — aborting with usage on bad args is the contract.
            a.parse()
                .expect("usage: ads-audit [SEEDS] [QUERIES] [ROWS]")
        })
        .collect();
    let seeds = args.first().copied().unwrap_or(16);
    let queries = args.get(1).copied().unwrap_or(300);
    let rows = args.get(2).copied().unwrap_or(48 * 1024);

    let roster = roster();
    let (mut skips_total, mut masks_total) = (0, 0);
    for seed in 0..seeds as u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = make_data(&mut rng, rows);
        let (mut skips, mut masks) = (0, 0);
        for strategy in &roster {
            let (s, m) = sweep_strategy(strategy, &data, queries, seed);
            (skips, masks) = (skips + s, masks + m);
        }
        (skips_total, masks_total) = (skips_total + skips, masks_total + masks);
        println!(
            "seed {seed}: {} strategies x {queries} queries audited clean, \
             {skips} tier skip(s), {masks} mask(s) built",
            roster.len()
        );
    }
    if skips_total == 0 || masks_total == 0 {
        eprintln!(
            "ads-audit: {skips_total} tier skip(s), {masks_total} mask(s) built: \
             the bloom or mask path went unaudited"
        );
        std::process::exit(1);
    }
    println!(
        "ads-audit: {seeds} seed(s) swept, no false skips, {skips_total} tier skip(s), \
         {masks_total} mask(s) built"
    );
}
