//! E21 — per-zone metadata tiers: workload grid × tier policies.
//!
//! Bloom sketches and column imprints are built lazily per zone, chosen
//! from observed predicate shape, and dropped when hitless. The
//! measurement is the engine's inline loop (`runner::inline_loop`), so every
//! mode pays its tier builds, probes, and drops on the query path. Four
//! workload cells are each swept over four tier policies:
//!
//! * **points** — equality probes on uniform data: zone bounds are wide,
//!   so `(min, max)` never skips, but almost no zone actually holds the
//!   probed value. The bloom tier's home turf.
//! * **ranges-sawtooth** — mid-selectivity ranges on sawtooth data whose
//!   ascending runs are much shorter than a zone: zone bounds cover the
//!   whole domain, but per-cache-line bounds are tight. The imprint
//!   tier's home turf.
//! * **mixed** — points and ranges interleaved 3:2 on uniform data; the
//!   per-zone chooser must read the predicate shape and pick the paying
//!   tier.
//! * **ranges-uniform** — mid-selectivity ranges on uniform data: no
//!   sub-zone structure exists for any tier to exploit. The null cell —
//!   tiers must be dropped and the drop-side overhead must stay noise.
//!
//! Tier modes: `off` (plain adaptive zonemap), `bloom` / `imprint`
//! (forced single-tier ablations), and `adaptive` (the shipped
//! shape-driven chooser). Two things are under test. **Equivalence** —
//! per-cell answer checksums (counts plus exact sum bit patterns) must
//! be identical across all four modes; the run asserts it, so every
//! speedup is for proven-identical work. **The policy** — each tier must
//! win the cell built for it, the chooser must stay within a small
//! factor of the best forced mode everywhere, and the null cell must
//! drop its tiers.

use crate::report::{fmt_ms, Report};
use crate::runner::{cross_check, inline_loop, InlineRun, Scale};
use ads_core::adaptive::{AdaptiveConfig, AdaptiveZonemap, TierMode, TierStats};
use ads_workloads::{data, queries};

/// Tier policies each workload cell is swept over, `off` (the baseline of
/// `vs off`) first.
const MODES: &[&str] = &["off", "bloom", "imprint", "adaptive"];

/// Workload cell labels, in grid order.
const WORKLOADS: &[&str] = &["points", "ranges-sawtooth", "mixed", "ranges-uniform"];

/// One measured (workload, mode) cell.
struct Cell {
    workload: &'static str,
    mode: &'static str,
    queries: usize,
    run: InlineRun,
    tiers: TierStats,
    /// Zones still carrying a tier when the stream ended.
    zones_tiered_end: usize,
}

/// The four tier policies as zonemap configurations. Structural
/// adaptation (split / merge / deactivate) is pinned off in *every*
/// mode: these workloads are built so `(min, max)` bounds cannot skip,
/// which makes the structural policies churn the layout (merging
/// never-skipping zones, splitting without bound improvement) and clear
/// tiers mid-window — identically in all modes, but drowning the tier
/// signal the grid exists to measure. The tier × structural-adaptation
/// interplay is covered by `tests/metadata_tiers.rs`, which runs with
/// structural adaptation on.
fn mode_config(mode: &str) -> AdaptiveConfig {
    let tier_mode = match mode {
        "off" => TierMode::Off,
        "bloom" => TierMode::Bloom,
        "imprint" => TierMode::Imprint,
        "adaptive" => TierMode::Adaptive,
        other => unreachable!("unknown mode {other}"),
    };
    AdaptiveConfig {
        tier_mode,
        enable_split: false,
        enable_merge: false,
        enable_deactivate: false,
        ..AdaptiveConfig::default()
    }
}

/// The query stream for one workload cell.
fn stream_for(workload: &str, count: usize, domain: i64, seed: u64) -> Vec<queries::RangeQuery> {
    match workload {
        "points" => queries::point_queries(count, domain, seed),
        // Mid-selectivity ranges; zone bounds on sawtooth/uniform data
        // cover the whole domain, so skipping must come from tiers.
        "ranges-sawtooth" | "ranges-uniform" => queries::uniform_ranges(count, domain, 0.05, seed),
        // 3:2 points to ranges, so the per-zone point fraction sits
        // robustly above the chooser threshold where bloom pays.
        "mixed" => {
            let points = queries::point_queries(count, domain, seed);
            let ranges = queries::uniform_ranges(count, domain, 0.05, seed ^ 0x9E37);
            (0..count)
                .map(|i| if i % 5 < 3 { points[i] } else { ranges[i] })
                .collect()
        }
        other => unreachable!("unknown workload {other}"),
    }
}

/// The column for one workload cell.
fn data_for(workload: &str, rows: usize, domain: i64, seed: u64) -> Vec<i64> {
    match workload {
        // Ascending runs of ~400 rows: far shorter than a zone, far
        // longer than an imprint cache line — zone bounds are useless,
        // line bounds are tight.
        "ranges-sawtooth" => data::sawtooth(rows, (rows / 400).max(2), domain),
        "points" | "mixed" | "ranges-uniform" => data::uniform(rows, domain, seed),
        other => unreachable!("unknown workload {other}"),
    }
}

/// Runs [`WORKLOADS`] × [`MODES`], mode-major within each workload.
fn grid(scale: Scale) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &workload in WORKLOADS {
        let data = data_for(workload, scale.rows, scale.domain, scale.seed);
        let stream = stream_for(
            workload,
            scale.queries,
            scale.domain,
            scale.seed.wrapping_add(1),
        );
        let mut reference = Vec::new();
        for &mode in MODES {
            eprintln!("  e21: {workload} {mode}");
            let mut zm = AdaptiveZonemap::new(data.len(), mode_config(mode));
            let run = inline_loop(&data, &mut zm, &stream);
            cross_check(
                &mut reference,
                &[run.checksum],
                &format!("{workload}/{mode}"),
            );
            cells.push(Cell {
                workload,
                mode,
                queries: stream.len(),
                run,
                tiers: zm.tier_stats(),
                zones_tiered_end: zm.zones_tiered(),
            });
        }
    }
    cells
}

/// True when the forced `mode` is strictly faster than `off` and the
/// other forced tier on at least one workload — with the skip counters
/// showing the win came from the tier, not timing noise. The `adaptive`
/// chooser is excluded from the comparison: on a cell's home turf it
/// picks the same tier and does identical work, so forced-vs-adaptive
/// ordering is a coin flip.
fn wins_some_cell(cells: &[Cell], mode: &str) -> bool {
    cells.chunks(MODES.len()).any(|group| {
        let elapsed = |c: &Cell| c.run.elapsed_ns;
        let rivals = || {
            group
                .iter()
                .filter(|c| c.mode != mode && c.mode != "adaptive")
        };
        group
            .iter()
            .filter(|c| c.mode == mode && c.tiers.tier_skips > 0)
            .any(|c| rivals().all(|other| elapsed(c) < elapsed(other)))
    })
}

/// Runs the experiment.
pub fn run(scale: Scale) -> Report {
    let mut report = Report::new(
        "e21",
        "per-zone metadata tiers: bloom and imprint sketches, adaptively chosen",
        &[
            "workload",
            "mode",
            "queries",
            "total ms",
            "vs off",
            "rows scanned",
            "built (b/i)",
            "dropped",
            "tier skips",
            "rows excluded",
            "tiered at end",
            "checksum",
        ],
    );
    report.note(format!(
        "{} rows, {} alternating COUNT/SUM queries/cell; checksums asserted equal across modes",
        scale.rows, scale.queries
    ));

    let cells = grid(Scale {
        seed: scale.seed ^ 0xE21,
        ..scale
    });
    let (mut chooser_tracks_best, mut null_cell_drops) = (true, true);
    for group in cells.chunks(MODES.len()) {
        let off_ns = group[0].run.elapsed_ns;
        let best_ns = group.iter().map(|c| c.run.elapsed_ns).min().unwrap_or(0);
        for c in group {
            chooser_tracks_best &=
                c.mode != "adaptive" || c.run.elapsed_ns as f64 <= 1.25 * best_ns as f64;
            null_cell_drops &=
                c.workload != "ranges-uniform" || c.mode == "off" || c.tiers.tiers_dropped > 0;
            report.row(vec![
                c.workload.to_string(),
                c.mode.to_string(),
                c.queries.to_string(),
                fmt_ms(c.run.elapsed_ns),
                format!("{:.2}x", off_ns as f64 / c.run.elapsed_ns.max(1) as f64),
                c.run.rows_scanned.to_string(),
                format!("{}/{}", c.tiers.blooms_built, c.tiers.imprints_built),
                c.tiers.tiers_dropped.to_string(),
                c.tiers.tier_skips.to_string(),
                c.tiers.tier_rows_excluded.to_string(),
                c.zones_tiered_end.to_string(),
                c.run.checksum.to_string(),
            ]);
        }
    }
    report.verdict(
        wins_some_cell(&cells, "bloom"),
        "the bloom tier wins its home cell outright",
        "the bloom tier won no cell on this host",
    );
    report.verdict(
        wins_some_cell(&cells, "imprint"),
        "the imprint tier wins its home cell outright",
        "the imprint tier won no cell on this host",
    );
    report.verdict(
        chooser_tracks_best,
        "the adaptive chooser stays within 1.25x of the best policy in every cell",
        "the adaptive chooser exceeded 1.25x the per-cell best",
    );
    report.verdict(
        null_cell_drops,
        "the null cell dropped every tier it built",
        "useless tiers survived the null cell",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_grid_builds_only_the_tiers_its_mode_allows() {
        let cells = grid(Scale {
            rows: 40_000,
            queries: 24,
            domain: 10_000,
            seed: 7,
        });
        assert_eq!(cells.len(), WORKLOADS.len() * MODES.len());
        for group in cells.chunks(MODES.len()) {
            assert!(group
                .iter()
                .all(|c| c.run.checksum == group[0].run.checksum));
        }
        for c in &cells {
            assert_eq!(c.queries, 24);
            assert!(c.run.elapsed_ns > 0);
            let (blooms, imprints) = (c.tiers.blooms_built, c.tiers.imprints_built);
            match c.mode {
                "off" => {
                    assert_eq!(blooms + imprints, 0, "off mode built a tier");
                    assert_eq!(c.tiers.tier_skips, 0);
                }
                "bloom" => assert_eq!(imprints, 0, "forced bloom built an imprint"),
                "imprint" => assert_eq!(blooms, 0, "forced imprint built a bloom"),
                _ => {}
            }
        }
    }
}
