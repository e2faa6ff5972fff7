//! E21 — per-zone metadata tiers: workload grid × tiers off/on.
//!
//! Bloom sketches are built lazily per zone once its scans amortise the
//! build, and dropped (with quadrupling rebuild backoff) when a
//! consultation window shows no hits. The measurement is the engine's
//! inline loop (`runner::inline_loop`), so the `tiers` mode pays its tier
//! builds, probes, and drops on the query path. Four workload cells:
//!
//! * **points** — equality probes on uniform data: zone bounds are wide,
//!   so `(min, max)` never skips, but almost no zone actually holds the
//!   probed value. The bloom tier's home turf.
//! * **ranges-sawtooth** — mid-selectivity ranges on sawtooth data whose
//!   ascending runs are much shorter than a zone: zone bounds cover the
//!   whole domain. A value-set sketch cannot answer a range, so every
//!   tier built here is judged hitless and dropped.
//! * **mixed** — points and ranges interleaved 3:2 on uniform data: the
//!   points keep each zone's sketch paying through the ranges.
//! * **ranges-uniform** — mid-selectivity ranges on uniform data. The
//!   null cell — tiers must be dropped and the drop-side overhead must
//!   stay noise.
//!
//! Two things are under test. **Equivalence** — per-cell answer
//! checksums (counts plus exact sum bit patterns) must be identical with
//! tiers off and on; the run asserts it, so every speedup is for
//! proven-identical work. **The policy** — the tier must win the cell
//! built for it, and the null cell must drop every tier it built.
//!
//! An imprint tier and a shape-driven chooser between it and the bloom
//! once ran here too; the imprint lost every cell (EXPERIMENTS.md E21)
//! and both were deleted.

use crate::report::{fmt_ms, Report};
use crate::runner::{cross_check, inline_loop, InlineRun, Scale};
use ads_core::adaptive::{AdaptiveConfig, AdaptiveZonemap, TierStats};
use ads_workloads::{data, queries};

/// Tier modes each workload cell is swept over, `off` (the baseline of
/// `vs off`) first.
const MODES: &[&str] = &["off", "tiers"];

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

/// Tiers off or on as zonemap configurations. Structural adaptation
/// (split / merge / deactivate) is pinned off in *both* modes: these
/// workloads are built so `(min, max)` bounds cannot skip, which makes
/// the structural policies churn the layout (merging never-skipping
/// zones, splitting without bound improvement) and clear tiers
/// mid-window — identically in both modes, but drowning the tier signal
/// the grid exists to measure. The tier × structural-adaptation interplay
/// is covered by `tests/metadata_tiers.rs`, which runs with structural
/// adaptation on.
fn mode_config(mode: &str) -> AdaptiveConfig {
    AdaptiveConfig {
        enable_tiers: mode == "tiers",
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
        // 3:2 points to ranges, so each zone's sketch sees enough point
        // misses to pay through the ranges it cannot answer.
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
        // Ascending runs of ~400 rows: far shorter than a zone, so zone
        // bounds are useless.
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

/// True when `tiers` is strictly faster than `off` on at least one
/// workload — with the skip counters showing the win came from the tier,
/// not timing noise.
fn tiers_win_some_cell(cells: &[Cell]) -> bool {
    cells.chunks(MODES.len()).any(|group| {
        let (off, tiers) = (&group[0], &group[1]);
        tiers.tiers.tier_skips > 0 && tiers.run.elapsed_ns < off.run.elapsed_ns
    })
}

/// Runs the experiment.
pub fn run(scale: Scale) -> Report {
    let mut report = Report::new(
        "e21",
        "per-zone metadata tiers: bloom sketches, built and dropped by feedback",
        &[
            "workload",
            "mode",
            "queries",
            "total ms",
            "vs off",
            "rows scanned",
            "built",
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
    let mut null_cell_drops = true;
    for group in cells.chunks(MODES.len()) {
        let off_ns = group[0].run.elapsed_ns;
        for c in group {
            null_cell_drops &=
                c.workload != "ranges-uniform" || c.mode == "off" || c.tiers.tiers_dropped > 0;
            report.row(vec![
                c.workload.to_string(),
                c.mode.to_string(),
                c.queries.to_string(),
                fmt_ms(c.run.elapsed_ns),
                format!("{:.2}x", off_ns as f64 / c.run.elapsed_ns.max(1) as f64),
                c.run.rows_scanned.to_string(),
                c.tiers.tiers_built().to_string(),
                c.tiers.tiers_dropped.to_string(),
                c.tiers.tier_skips.to_string(),
                c.tiers.tier_rows_excluded.to_string(),
                c.zones_tiered_end.to_string(),
                c.run.checksum.to_string(),
            ]);
        }
    }
    report.verdict(
        tiers_win_some_cell(&cells),
        "the bloom tier wins its home cell outright",
        "the bloom tier won no cell on this host",
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
    fn tiny_grid_builds_tiers_only_when_on() {
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
            if c.mode == "off" {
                assert_eq!(c.tiers.tiers_built(), 0, "off mode built a tier");
                assert_eq!(c.tiers.tier_skips, 0);
            }
        }
    }
}
