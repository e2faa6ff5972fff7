//! E19 — zone-local adaptive reorganization: flat vs always vs adaptive.
//!
//! Hot zones may be copied and sorted for positional skipping; the
//! relative-hotness gate decides per zone. The measurement is the
//! engine's inline loop (`runner::inline_loop`), so each mode pays its
//! adaptation — including promotion build copies — on the query path.
//! Three layout policies run the same column and query stream:
//!
//! * **flat** — metadata-only adaptation (`enable_reorg: false`), the
//!   paper's baseline;
//! * **always** — the relative-hotness gate disabled
//!   (`reorg_hot_factor: 0.0`, one scan suffices): every built zone is
//!   promoted, the over-eager ablation;
//! * **adaptive** — the shipped policy (`AdaptiveConfig::with_reorg()`):
//!   promotion requires amortized scan volume *and* a scan rate that
//!   stands out against the map-wide mean.
//!
//! Two things are under test. **Equivalence** — per-cell answer checksums
//! (counts plus exact i64-sum bit patterns) must be identical across the
//! three modes of a (distribution, drift) pair; the run asserts it, so
//! all speedups are for identical work. **The gate** — on clustered data
//! with a hot zone, adaptive must convert repeated partial scans into
//! positional lookups and beat flat on total query time; on uniform data
//! nothing stands out, promotion must never trigger, and adaptive must
//! stay within noise of flat.

use crate::report::{fmt_ms, Report};
use crate::runner::{cross_check, inline_loop, InlineRun, Scale};
use ads_core::adaptive::{AdaptiveConfig, AdaptiveZonemap, ReorgStats};
use ads_workloads::{queries, DataSpec};

/// Layout policies each (distribution, drift) pair is swept over, `flat`
/// (the baseline of `vs flat`) first.
const MODES: &[&str] = &["flat", "always", "adaptive"];

/// Hotspot drift patterns: a stationary hot zone and one that jumps
/// between four phase centres (the workload-shift scenario).
const DRIFTS: &[&str] = &["stable", "shifting"];

/// One measured (distribution, drift, mode) cell.
struct Cell {
    dist: String,
    drift: &'static str,
    mode: &'static str,
    queries: usize,
    run: InlineRun,
    reorg: ReorgStats,
}

/// The three layout policies as zonemap configurations.
fn mode_config(mode: &str) -> AdaptiveConfig {
    match mode {
        "flat" => AdaptiveConfig::default(),
        "always" => AdaptiveConfig {
            enable_reorg: true,
            reorg_after_scans: 1,
            reorg_hot_factor: 0.0,
            ..AdaptiveConfig::default()
        },
        "adaptive" => AdaptiveConfig::with_reorg(),
        other => unreachable!("unknown mode {other}"),
    }
}

/// Runs {clustered, zipf, uniform} × [`DRIFTS`] × [`MODES`], mode-major
/// within each (distribution, drift).
fn grid(scale: Scale) -> Vec<Cell> {
    let Scale {
        rows,
        queries: n,
        domain,
        seed,
    } = scale;
    let mut cells = Vec::new();
    for spec in [
        DataSpec::Clustered { clusters: 64 },
        DataSpec::Zipf { theta: 0.99 },
        DataSpec::Uniform,
    ] {
        let data = spec.generate(rows, domain, seed);
        let dist = spec.label();
        for &drift in DRIFTS {
            let stream = match drift {
                "stable" => queries::hotspot_ranges(n, domain, 0.02, 0.3, 0.1, seed),
                _ => queries::shifting_hotspot(n, domain, 0.02, 4, 0.1, seed),
            };
            let mut reference = Vec::new();
            for &mode in MODES {
                eprintln!("  e19: {dist} {drift} {mode}");
                let mut zm = AdaptiveZonemap::new(data.len(), mode_config(mode));
                let run = inline_loop(&data, &mut zm, &stream);
                let ctx = format!("{dist}/{drift}/{mode}");
                cross_check(&mut reference, &[run.checksum], &ctx);
                cells.push(Cell {
                    dist: dist.clone(),
                    drift,
                    mode,
                    queries: stream.len(),
                    run,
                    reorg: zm.reorg_stats(),
                });
            }
        }
    }
    cells
}

/// Runs the experiment.
pub fn run(scale: Scale) -> Report {
    let mut report = Report::new(
        "e19",
        "adaptive reorganization: hot zones sort in place for positional skipping",
        &[
            "distribution",
            "drift",
            "mode",
            "queries",
            "total ms",
            "vs flat",
            "rows scanned",
            "promoted",
            "demoted",
            "bytes moved",
            "reorg ms",
            "checksum",
        ],
    );
    report.note(format!(
        "{} rows, {} alternating COUNT/SUM queries/cell; checksums asserted equal across modes",
        scale.rows, scale.queries
    ));

    let cells = grid(Scale {
        seed: scale.seed ^ 0xE19,
        ..scale
    });
    let (mut beats_flat_on_hot, mut uniform_promoted, mut uniform_in_noise) = (false, 0, true);
    for group in cells.chunks(MODES.len()) {
        let flat_ns = group[0].run.elapsed_ns;
        for c in group {
            if c.mode == "adaptive" && c.dist == "uniform" {
                uniform_promoted += c.reorg.zones_promoted;
                uniform_in_noise &= c.run.elapsed_ns as f64 <= 1.25 * flat_ns as f64;
            } else if c.mode == "adaptive" {
                beats_flat_on_hot |= c.reorg.zones_promoted > 0 && c.run.elapsed_ns < flat_ns;
            }
            report.row(vec![
                c.dist.clone(),
                c.drift.to_string(),
                c.mode.to_string(),
                c.queries.to_string(),
                fmt_ms(c.run.elapsed_ns),
                format!("{:.2}x", flat_ns as f64 / c.run.elapsed_ns.max(1) as f64),
                c.run.rows_scanned.to_string(),
                c.reorg.zones_promoted.to_string(),
                c.reorg.zones_demoted.to_string(),
                c.reorg.bytes_moved.to_string(),
                fmt_ms(c.reorg.reorg_ns),
                c.run.checksum.to_string(),
            ]);
        }
    }
    report.verdict(
        beats_flat_on_hot,
        "adaptive reorganization beats flat skipping on a hot-zone cell",
        "adaptive reorganization did not beat flat on this host",
    );
    report.verdict(
        uniform_promoted == 0,
        "the hotness gate promoted nothing on uniform data",
        "the hotness gate promoted zones on uniform data",
    );
    report.verdict(
        uniform_in_noise,
        "adaptive stays within 1.25x of flat on uniform data",
        "adaptive exceeded 1.25x flat on uniform data",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_grid_gates_promotion() {
        // Multi-zone even at the default 4096-row zone target: single-zone
        // maps bypass the relative-hotness gate by design.
        let cells = grid(Scale {
            rows: 40_000,
            queries: 16,
            domain: 10_000,
            seed: 7,
        });
        assert_eq!(cells.len(), 3 * DRIFTS.len() * MODES.len());
        for group in cells.chunks(MODES.len()) {
            assert!(group
                .iter()
                .all(|c| c.run.checksum == group[0].run.checksum));
        }
        for c in &cells {
            assert_eq!(c.queries, 16);
            assert!(c.run.elapsed_ns > 0);
            if c.mode == "flat" {
                assert_eq!(c.reorg.zones_promoted, 0, "flat mode must never promote");
                assert_eq!(c.reorg.bytes_moved, 0);
            }
            if c.mode == "adaptive" && c.dist == "uniform" {
                assert_eq!(
                    c.reorg.zones_promoted, 0,
                    "gate must decline on uniform data even at tiny scale"
                );
            }
        }
    }
}
