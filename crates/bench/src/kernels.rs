//! The kernel benchmark behind `results/BENCH_kernels.json`.
//!
//! Measures the production scan kernels of `ads_storage::scan` against
//! their per-row references (`scan::scalar`) across value type ×
//! selectivity, the liveness-generic kernels over a `DeleteVector` at 0 %,
//! 0.1 % and 5 % tombstones — lean and with the bounds by-product —
//! against the same (unmasked) references, and
//! the SoA prune plane of `AdaptiveZonemap` against its retained
//! array-of-structs loop ([`AdaptiveZonemap::prune_via_zones`]) on an
//! all-built zone map. The report renders as machine-readable JSON (the
//! repo's perf-trajectory format, schema `ads-kernel-bench/v2`) and as the
//! markdown table embedded in the README. A production cell slower than
//! [`GATE`] times its reference — a scan kernel against its scalar twin,
//! the prune plane against the array-of-structs walk — is a regression:
//! `kernels_json` exits non-zero on it.
//!
//! Run via:
//!
//! ```text
//! cargo run -p ads-bench --release --bin kernels_json
//! cargo run -p ads-bench --release --bin kernels_json -- --rows 4096 --out results/BENCH_kernels.json
//! ```

use crate::microbench::{bench, black_box, section};
use ads_core::adaptive::{AdaptiveConfig, AdaptiveZonemap};
use ads_core::{RangeObservation, RangePredicate, ScanObservation, SkippingIndex};
use ads_rng::StdRng;
use ads_storage::scan::{self, Bounds, NoByProduct};
use ads_storage::{Bitmap, DataValue, DeleteVector, RowRange};
use std::fmt::Write as _;

/// Value domain the generated columns draw from; selectivity percentages
/// translate to predicate widths against this.
const DOMAIN: i64 = 1_000_000;

/// Selectivities measured, in percent of the domain.
const SELECTIVITIES: [u32; 4] = [1, 10, 50, 100];

/// Tombstone densities of the masked rows, in percent of the rows.
const TOMBSTONES: [f64; 3] = [0.0, 0.1, 5.0];

/// Selectivity of the masked rows: the repo benchmark's predicate width,
/// where its mutation workload runs.
const MASKED_SELECTIVITY: u32 = 1;

/// The least reference-over-production time ratio a cell may show.
pub const GATE: f64 = 0.9;

/// One kernel × type × selectivity measurement.
#[derive(Debug, Clone)]
pub struct KernelRow {
    /// Kernel name (`count_in_range`, `sum_in_range`, ...).
    pub kernel: &'static str,
    /// Element type name (`i64`, `f64`, `f32`).
    pub ty: &'static str,
    /// Predicate selectivity in percent of the domain.
    pub selectivity_pct: u32,
    /// Tombstoned rows in percent, for a masked row (production ran over
    /// a `DeleteVector`, the reference unmasked); `None` for all-live.
    pub tombstone_pct: Option<f64>,
    /// Rows scanned per call.
    pub rows: usize,
    /// Best-of-samples per-row time of the production kernel.
    pub production_ns_per_row: f64,
    /// Best-of-samples per-row time of the scalar reference.
    pub reference_ns_per_row: f64,
}

impl KernelRow {
    /// Reference-over-production time ratio (>1 means production is
    /// faster).
    pub fn speedup(&self) -> f64 {
        self.reference_ns_per_row / self.production_ns_per_row
    }
}

/// One prune-loop measurement.
#[derive(Debug, Clone)]
pub struct PruneRow {
    /// `soa_plane` or `aos_reference`.
    pub impl_name: &'static str,
    /// Zones probed per prune call.
    pub zones: usize,
    /// Best-of-samples per-zone probe time.
    pub ns_per_zone: f64,
}

/// The full benchmark report.
#[derive(Debug, Clone)]
pub struct KernelReport {
    /// Rows per scanned column.
    pub rows: usize,
    /// Scan-kernel measurements.
    pub kernels: Vec<KernelRow>,
    /// Prune-loop measurements.
    pub prune: Vec<PruneRow>,
}

/// Formats an `f64` for JSON: finite, fixed precision, never NaN/inf
/// (which JSON cannot represent).
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.4}")
    } else {
        "null".to_string()
    }
}

impl KernelReport {
    /// Reference-over-plane per-zone time ratio of the prune walk (>1
    /// means the plane is faster); `None` unless both were measured.
    fn prune_speedup(&self) -> Option<f64> {
        let ns_per_zone = |name| {
            let row = self.prune.iter().find(|p| p.impl_name == name)?;
            Some(row.ns_per_zone)
        };
        Some(ns_per_zone("aos_reference")? / ns_per_zone("soa_plane")?)
    }

    /// One line per cell whose production side is slower than [`GATE`]
    /// times its reference: scan kernels, then the prune plane.
    pub fn below_gate(&self) -> Vec<String> {
        let kernels = self.kernels.iter().filter(|k| k.speedup() < GATE).map(|k| {
            format!(
                "{} {} @ {}% ({} tombstones): production {:.3} ns/row vs reference {:.3} ({:.2}x < {GATE}x)",
                k.kernel,
                k.ty,
                k.selectivity_pct,
                k.tombstone_pct.map_or("no".to_string(), |t| format!("{t}%")),
                k.production_ns_per_row,
                k.reference_ns_per_row,
                k.speedup(),
            )
        });
        let prune = self
            .prune_speedup()
            .filter(|&speedup| speedup < GATE)
            .map(|speedup| format!("prune: soa_plane at {speedup:.2}x aos_reference (< {GATE}x)"));
        kernels.chain(prune).collect()
    }

    /// Renders the report as the `ads-kernel-bench/v2` JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\n");
        s.push_str("  \"schema\": \"ads-kernel-bench/v2\",\n");
        let _ = writeln!(s, "  \"rows\": {},", self.rows);
        let _ = writeln!(s, "  \"gate\": {},", json_num(GATE));
        let _ = writeln!(s, "  \"below_gate\": {},", self.below_gate().len());
        s.push_str("  \"kernels\": [\n");
        for (i, k) in self.kernels.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"kernel\": \"{}\", \"type\": \"{}\", \"selectivity_pct\": {}, \"tombstone_pct\": {}, \"rows\": {}, \"production_ns_per_row\": {}, \"reference_ns_per_row\": {}, \"speedup\": {}}}",
                k.kernel,
                k.ty,
                k.selectivity_pct,
                k.tombstone_pct.map_or("null".to_string(), json_num),
                k.rows,
                json_num(k.production_ns_per_row),
                json_num(k.reference_ns_per_row),
                json_num(k.speedup()),
            );
            s.push_str(if i + 1 < self.kernels.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ],\n");
        s.push_str("  \"prune\": [\n");
        for (i, p) in self.prune.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"impl\": \"{}\", \"zones\": {}, \"ns_per_zone\": {}}}",
                p.impl_name,
                p.zones,
                json_num(p.ns_per_zone),
            );
            s.push_str(if i + 1 < self.prune.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Renders the README's kernel-performance table: the all-live rows
    /// at 10% selectivity, the masked rows, and the prune-loop comparison.
    pub fn to_markdown(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "| Kernel | Type | Tombstones | Production ns/row | Reference ns/row | Speedup |"
        );
        let _ = writeln!(s, "|---|---|---:|---:|---:|---:|");
        let shown = |k: &&KernelRow| k.tombstone_pct.is_some() || k.selectivity_pct == 10;
        for k in self.kernels.iter().filter(shown) {
            let _ = writeln!(
                s,
                "| `{}` @ {}% | {} | {} | {:.3} | {:.3} | {:.2}x |",
                k.kernel,
                k.selectivity_pct,
                k.ty,
                k.tombstone_pct.map_or("-".to_string(), |t| format!("{t}%")),
                k.production_ns_per_row,
                k.reference_ns_per_row,
                k.speedup()
            );
        }
        let _ = writeln!(s);
        let _ = writeln!(s, "| Prune loop | Zones | ns/zone probe |");
        let _ = writeln!(s, "|---|---:|---:|");
        for p in &self.prune {
            let _ = writeln!(
                s,
                "| {} | {} | {:.2} |",
                p.impl_name, p.zones, p.ns_per_zone
            );
        }
        s
    }
}

/// A column of `rows` values drawn uniformly from `[0, DOMAIN)`.
fn gen_column(rows: usize, seed: u64) -> Vec<i64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..rows).map(|_| rng.gen_range(0..DOMAIN)).collect()
}

/// The inclusive predicate bound selecting ~`pct`% of `[0, DOMAIN)`.
fn sel_bound(pct: u32) -> i64 {
    (DOMAIN * pct as i64) / 100 - 1
}

/// A delete vector over `rows` rows with `pct` percent of them tombstoned,
/// evenly spread.
fn tombstones(rows: usize, pct: f64) -> DeleteVector {
    let mut live = DeleteVector::new(rows, 0);
    if pct > 0.0 {
        // narrowing: a stride of at least one row.
        let stride = (100.0 / pct).round().max(1.0) as usize;
        for row in (0..rows).step_by(stride) {
            live.delete(row);
        }
    }
    live
}

/// Measures every kernel over one typed column; `cast` maps the canonical
/// integer column into the measured type.
fn bench_type<T: DataValue>(
    ty: &'static str,
    base: &[i64],
    cast: impl Fn(i64) -> T,
    out: &mut Vec<KernelRow>,
) {
    let data: Vec<T> = base.iter().map(|&v| cast(v)).collect();
    let rows = data.len();
    // Opaque bounds: a constant range would let the compiler specialise
    // the reference loops in a way no query ever sees.
    let lo = black_box(cast(0));
    let mut positions = Vec::with_capacity(rows);
    let mut bm = Bitmap::new(rows);
    let mut push_row =
        |kernel, selectivity_pct, tombstone_pct, production_ns: f64, reference_ns: f64| {
            out.push(KernelRow {
                kernel,
                ty,
                selectivity_pct,
                tombstone_pct,
                rows,
                production_ns_per_row: production_ns / rows as f64,
                reference_ns_per_row: reference_ns / rows as f64,
            });
        };
    for pct in SELECTIVITIES {
        let hi = black_box(cast(sel_bound(pct)));
        section(&format!("{ty} @ {pct}% selectivity ({rows} rows)"));
        let mut push = |kernel, production_ns, reference_ns| {
            push_row(kernel, pct, None, production_ns, reference_ns)
        };

        let p = bench("count_in_range/production", || {
            scan::count_in_range(black_box(&data), lo, hi)
        });
        let r = bench("count_in_range/reference", || {
            scan::scalar::count_in_range(black_box(&data), lo, hi)
        });
        push("count_in_range", p.best_ns, r.best_ns);

        let p = bench("count_with_minmax/production", || {
            scan::count_in_range_with_minmax(black_box(&data), lo, hi)
        });
        let r = bench("count_with_minmax/reference", || {
            scan::scalar::count_in_range_with_minmax(black_box(&data), lo, hi)
        });
        push("count_in_range_with_minmax", p.best_ns, r.best_ns);

        let p = bench("sum_in_range/production", || {
            scan::sum_in_range(black_box(&data), lo, hi)
        });
        let r = bench("sum_in_range/reference", || {
            scan::scalar::sum_in_range(black_box(&data), lo, hi)
        });
        push("sum_in_range", p.best_ns, r.best_ns);

        let p = bench("aggregate_in_range/production", || {
            scan::aggregate_in_range(black_box(&data), lo, hi)
        });
        let r = bench("aggregate_in_range/reference", || {
            scan::scalar::aggregate_in_range(black_box(&data), lo, hi)
        });
        push("aggregate_in_range", p.best_ns, r.best_ns);

        let p = bench("collect_in_range/production", || {
            positions.clear();
            scan::collect_in_range(black_box(&data), 0, lo, hi, &mut positions);
            positions.len()
        });
        let r = bench("collect_in_range/reference", || {
            positions.clear();
            scan::scalar::collect_in_range(black_box(&data), 0, lo, hi, &mut positions);
            positions.len()
        });
        push("collect_in_range", p.best_ns, r.best_ns);

        let p = bench("collect_with_minmax/production", || {
            positions.clear();
            scan::collect_in_range_with_minmax(black_box(&data), 0, lo, hi, &mut positions)
        });
        let r = bench("collect_with_minmax/reference", || {
            positions.clear();
            scan::scalar::collect_in_range_with_minmax(black_box(&data), 0, lo, hi, &mut positions)
        });
        push("collect_in_range_with_minmax", p.best_ns, r.best_ns);

        let p = bench("fill_bitmap_in_range/production", || {
            scan::fill_bitmap_in_range(black_box(&data), 0, lo, hi, &mut bm);
            bm.len()
        });
        let r = bench("fill_bitmap_in_range/reference", || {
            scan::scalar::fill_bitmap_in_range(black_box(&data), 0, lo, hi, &mut bm);
            bm.len()
        });
        push("fill_bitmap_in_range", p.best_ns, r.best_ns);

        let p = bench("fill_bitmap_with_minmax/production", || {
            scan::fill_bitmap_in_range_with_minmax(black_box(&data), 0, lo, hi, &mut bm)
        });
        let r = bench("fill_bitmap_with_minmax/reference", || {
            scan::scalar::fill_bitmap_in_range_with_minmax(black_box(&data), 0, lo, hi, &mut bm)
        });
        push("fill_bitmap_in_range_with_minmax", p.best_ns, r.best_ns);

        let p = bench("min_max_in_range/production", || {
            scan::min_max_in_range(black_box(&data), lo, hi)
        });
        let r = bench("min_max_in_range/reference", || {
            scan::scalar::min_max_in_range(black_box(&data), lo, hi)
        });
        push("min_max_in_range", p.best_ns, r.best_ns);
    }

    // Masked rows: the kernels a scan unit runs under deletes, over a
    // delete vector, against the references' unmasked pass — with the
    // bounds by-product (`*_minmax`, `aggregate`) and lean, as a unit the
    // index asked nothing of runs them (`count`, `sum`).
    let hi = black_box(cast(sel_bound(MASKED_SELECTIVITY)));
    let count_ref = bench("count/reference", || {
        scan::scalar::count_in_range(black_box(&data), lo, hi)
    });
    let sum_ref = bench("sum/reference", || {
        scan::scalar::sum_in_range(black_box(&data), lo, hi)
    });
    let count_minmax_ref = bench("count_minmax/reference", || {
        scan::scalar::count_in_range_with_minmax(black_box(&data), lo, hi)
    });
    let aggregate_ref = bench("aggregate/reference", || {
        scan::scalar::aggregate_in_range(black_box(&data), lo, hi)
    });
    let collect_ref = bench("collect_minmax/reference", || {
        positions.clear();
        scan::scalar::collect_in_range_with_minmax(black_box(&data), 0, lo, hi, &mut positions)
    });
    for dead_pct in TOMBSTONES {
        section(&format!(
            "{ty} masked, {dead_pct}% tombstones ({rows} rows)"
        ));
        let live = tombstones(rows, dead_pct);
        let mut push = |kernel, production_ns, reference_ns| {
            let dead = Some(dead_pct);
            push_row(
                kernel,
                MASKED_SELECTIVITY,
                dead,
                production_ns,
                reference_ns,
            )
        };
        let p = bench("count/masked", || {
            scan::count(black_box(&data), lo, hi, &live, 0, &mut NoByProduct)
        });
        push("count", p.best_ns, count_ref.best_ns);
        let p = bench("sum/masked", || {
            scan::sum(black_box(&data), lo, hi, &live, 0, &mut NoByProduct)
        });
        push("sum", p.best_ns, sum_ref.best_ns);
        let p = bench("count_minmax/masked", || {
            let mut bounds = Bounds::new();
            let count = scan::count(black_box(&data), lo, hi, &live, 0, &mut bounds);
            (count, bounds.min_max())
        });
        push("count_minmax", p.best_ns, count_minmax_ref.best_ns);
        let p = bench("aggregate/masked", || {
            let mut bounds = Bounds::new();
            let matches = scan::aggregate(black_box(&data), lo, hi, &live, 0, &mut bounds);
            (matches, bounds.min_max())
        });
        push("aggregate", p.best_ns, aggregate_ref.best_ns);
        let p = bench("collect_minmax/masked", || {
            positions.clear();
            let mut bounds = Bounds::new();
            let hits = scan::collect(
                black_box(&data),
                lo,
                hi,
                &live,
                0,
                &mut positions,
                &mut bounds,
            );
            (hits, bounds.min_max())
        });
        push("collect_minmax", p.best_ns, collect_ref.best_ns);
    }
}

/// Builds an adaptive zonemap over a sorted column with every zone Built —
/// the steady state the prune loop is measured in.
fn all_built_zonemap(zones: usize, rows_per_zone: usize) -> AdaptiveZonemap<i64> {
    let len = zones * rows_per_zone;
    let config = AdaptiveConfig {
        target_zone_rows: rows_per_zone,
        min_zone_rows: 2,
        max_zone_rows: rows_per_zone.max(2),
        revival_base_queries: None,
        ..AdaptiveConfig::lazy_only()
    };
    let mut zm = AdaptiveZonemap::new(len, config);
    // Sorted column: zone z covers values [z*rows_per_zone, (z+1)*rows_per_zone).
    let pred = RangePredicate::all();
    let out = zm.prune(&pred);
    let ranges = out
        .units()
        .iter()
        .map(|u| {
            RangeObservation::new(
                RowRange::new(u.start, u.end),
                u.len(),
                u.start as i64,
                (u.end - 1) as i64,
            )
        })
        .collect();
    zm.observe(&ScanObservation {
        predicate: pred,
        ranges,
    });
    zm
}

/// Measures the SoA plane prune against the retained AoS loop.
fn bench_prune(zones: usize, rows_per_zone: usize, out: &mut Vec<PruneRow>) {
    section(&format!("prune: {zones} built zones (sorted column)"));
    let zm = all_built_zonemap(zones, rows_per_zone);
    // ~1% of zones overlap this predicate; the rest exercise the
    // bounds-exclusion fast path, which is where the layouts differ.
    let pred = RangePredicate::between(0, (zones as i64 * rows_per_zone as i64) / 100);

    let mut plane_zm = zm.clone();
    let b = bench("prune/soa_plane", || {
        black_box(plane_zm.prune(black_box(&pred))).zones_probed
    });
    out.push(PruneRow {
        impl_name: "soa_plane",
        zones,
        ns_per_zone: b.best_ns / zones as f64,
    });

    let mut aos_zm = zm;
    let r = bench("prune/aos_reference", || {
        black_box(aos_zm.prune_via_zones(black_box(&pred))).zones_probed
    });
    out.push(PruneRow {
        impl_name: "aos_reference",
        zones,
        ns_per_zone: r.best_ns / zones as f64,
    });
}

/// Runs the full kernel benchmark at `rows` rows per column and
/// `prune_zones` zones in the prune comparison.
pub fn run(rows: usize, prune_zones: usize) -> KernelReport {
    let base = gen_column(rows, 0xAD50_0001);
    let mut kernels = Vec::new();
    bench_type("i64", &base, |v| v, &mut kernels);
    bench_type("f64", &base, |v| v as f64, &mut kernels);
    bench_type("f32", &base, |v| v as f32, &mut kernels);

    let mut prune = Vec::new();
    // 16 rows per zone keeps the map metadata-bound: the point is to time
    // the probe loop, not the scans it saves.
    bench_prune(prune_zones, 16, &mut prune);

    KernelReport {
        rows,
        kernels,
        prune,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_built_zonemap_is_fully_built() {
        let zm = all_built_zonemap(64, 16);
        let (unbuilt, built, dead) = zm.state_counts();
        assert_eq!((unbuilt, built, dead), (0, 64, 0));
        assert_eq!(zm.num_zones(), 64);
    }

    #[test]
    fn json_report_shape() {
        let report = KernelReport {
            rows: 128,
            kernels: vec![KernelRow {
                kernel: "count_in_range",
                ty: "i64",
                selectivity_pct: 10,
                tombstone_pct: None,
                rows: 128,
                production_ns_per_row: 0.5,
                reference_ns_per_row: 1.0,
            }],
            prune: vec![PruneRow {
                impl_name: "soa_plane",
                zones: 64,
                ns_per_zone: 0.75,
            }],
        };
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"ads-kernel-bench/v2\""));
        assert!(json.contains("\"tombstone_pct\": null"));
        assert!(json.contains("\"below_gate\": 0"));
        assert!(json.contains("\"speedup\": 2.0000"));
        assert!(json.contains("\"ns_per_zone\": 0.7500"));
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced JSON"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        let md = report.to_markdown();
        assert!(md.contains("| `count_in_range` @ 10% | i64 | - |"));
        assert!(md.contains("soa_plane"));
    }

    #[test]
    fn gate_flags_cells_slower_than_their_reference() {
        let row = |kernel, production_ns_per_row| KernelRow {
            kernel,
            ty: "i64",
            selectivity_pct: 1,
            tombstone_pct: Some(5.0),
            rows: 128,
            production_ns_per_row,
            reference_ns_per_row: 1.0,
        };
        let report = KernelReport {
            rows: 128,
            kernels: vec![row("aggregate", 1.05), row("count_minmax", 1.2)],
            prune: Vec::new(),
        };
        let below = report.below_gate();
        assert_eq!(below.len(), 1, "0.95x passes, 0.83x does not");
        assert!(below[0].starts_with("count_minmax i64"), "{below:?}");
        assert!(report.to_json().contains("\"below_gate\": 1"));
        // The prune plane is a cell like any other.
        let prune = |plane_ns, reference_ns| {
            let row = |impl_name, ns_per_zone| PruneRow {
                impl_name,
                zones: 64,
                ns_per_zone,
            };
            KernelReport {
                prune: vec![
                    row("soa_plane", plane_ns),
                    row("aos_reference", reference_ns),
                ],
                ..report.clone()
            }
        };
        assert_eq!(prune(1.05, 1.0).below_gate().len(), 1);
        let behind = prune(9.04, 7.04);
        assert!(behind.below_gate()[1].starts_with("prune: soa_plane at 0.78x"));
        assert!(behind.to_json().contains("\"below_gate\": 2"));
        assert!(report.to_json().contains("\"tombstone_pct\": 5.0000"));
        assert!(tombstones(1000, 0.0).deleted_count() == 0);
        assert_eq!(tombstones(1000, 0.1).deleted_count(), 1);
        assert_eq!(tombstones(1000, 5.0).deleted_count(), 50);
    }

    #[test]
    fn json_num_never_emits_nonfinite() {
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_num(f64::INFINITY), "null");
        assert_eq!(json_num(1.25), "1.2500");
    }
}
