//! The kernel benchmark behind `results/BENCH_kernels.json`.
//!
//! Measures the production scan kernels of `ads_storage::scan` against
//! their per-row references (`scan::scalar`) across value type ×
//! selectivity, the liveness-generic kernels over a `DeleteVector` at 0 %,
//! 0.1 % and 5 % tombstones — lean and with the bounds by-product — and
//! the masked aggregate over blocks both densely qualifying and
//! tombstoned (100 %, 5 %), against per-row references that test each
//! row's tombstone as well as its range (`masked`), and
//! the SoA prune plane of `AdaptiveZonemap` against its retained
//! array-of-structs loop ([`AdaptiveZonemap::prune_via_zones`]) on an
//! all-built zone map of a shuffled column, which forms no ordered runs,
//! and the reader's walk beside them ([`AdaptiveZonemap::prune_shared`]),
//! then the plane's walk over a sorted column, one run crossed with two
//! binary searches, at 4 k zones and at the prune row's count, then the
//! plane walk against the same reference on point predicates over a map
//! whose bounds admit every zone and whose bloom tiers decide (reported,
//! not gated: a survivor's price). The report renders as JSON (the
//! repo's perf-trajectory format, schema `ads-kernel-bench/v4`, which names
//! the instruction-set extensions the kernels were compiled for) and as the
//! markdown table embedded in the README. A production cell slower than
//! `GATE` times its reference — a scan kernel against its scalar twin,
//! the prune plane against the array-of-structs walk — is a regression:
//! `kernels_json` exits non-zero on it. The two sides of a cell are timed
//! in alternating batches ([`bench_pair`]), so a slow stretch of a shared
//! host cannot land on one side only.
//!
//! Run via:
//!
//! ```text
//! cargo run -p ads-bench --release --bin kernels_json
//! cargo run -p ads-bench --release --bin kernels_json -- --rows 4096 --out results/BENCH_kernels.json
//! ```

use crate::microbench::{bench, bench_pair, black_box, section};
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
const GATE: f64 = 0.9;

/// Zones of the smaller run-walk row; the larger has the prune row's.
const RUN_WALK_ZONES: usize = 4096;

/// One kernel × type × selectivity measurement.
#[derive(Debug, Clone)]
pub struct KernelRow {
    /// Kernel name (`count_in_range`, `sum_in_range`, ...).
    pub kernel: &'static str,
    /// Element type name (`i64`, `f64`, `f32`).
    pub ty: &'static str,
    /// Predicate selectivity in percent of the domain.
    pub selectivity_pct: u32,
    /// Tombstoned rows in percent, for a masked row (both sides ran over
    /// the same `DeleteVector`); `None` for all-live.
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
    fn speedup(&self) -> f64 {
        self.reference_ns_per_row / self.production_ns_per_row
    }
}

/// One prune-loop measurement.
#[derive(Debug, Clone)]
pub struct PruneRow {
    /// `soa_plane`, `aos_reference`, `reader` or `run_walk`.
    pub impl_name: &'static str,
    /// The map walked: `shuffled` (zone order with no runs), `sorted`
    /// (one run), or `tier_point` (bounds admit every zone; point
    /// predicates, decided by bloom tiers).
    pub column: &'static str,
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
    /// The instruction-set extensions the kernels were compiled for.
    pub target_features: Vec<&'static str>,
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
    /// Reference-over-plane per-zone time ratio of the prune walk over
    /// the shuffled column (>1 means the plane is faster); `None` unless
    /// both were measured. The `tier_point` pair is reported, not gated:
    /// there every zone survives the bounds, and the plane's batched tier
    /// reads pay off only where the survivors' tiers miss the cache.
    fn prune_speedup(&self) -> Option<f64> {
        let ns_per_zone = |name| {
            let row =
                (self.prune.iter()).find(|p| p.column == "shuffled" && p.impl_name == name)?;
            Some(row.ns_per_zone)
        };
        Some(ns_per_zone("aos_reference")? / ns_per_zone("soa_plane")?)
    }

    /// One line per cell whose production side is slower than `GATE`
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

    /// Renders the report as the `ads-kernel-bench/v4` JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\n");
        s.push_str("  \"schema\": \"ads-kernel-bench/v4\",\n");
        let features: Vec<String> = self
            .target_features
            .iter()
            .map(|f| format!("\"{f}\""))
            .collect();
        let _ = writeln!(s, "  \"target_features\": [{}],", features.join(", "));
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
                "    {{\"impl\": \"{}\", \"column\": \"{}\", \"zones\": {}, \"ns_per_zone\": {}}}",
                p.impl_name,
                p.column,
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
        let _ = writeln!(s, "| Prune loop | Column | Zones | ns/zone |");
        let _ = writeln!(s, "|---|---|---:|---:|");
        for p in &self.prune {
            let _ = writeln!(
                s,
                "| {} | {} | {} | {:.2} |",
                p.impl_name, p.column, p.zones, p.ns_per_zone
            );
        }
        s
    }
}

/// The instruction-set extensions this binary was compiled for, of those
/// that decide the shape of a scan loop: a figure measured under one set
/// says nothing about another.
fn target_features() -> Vec<&'static str> {
    [
        ("sse2", cfg!(target_feature = "sse2")),
        ("sse4.2", cfg!(target_feature = "sse4.2")),
        ("avx", cfg!(target_feature = "avx")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("bmi2", cfg!(target_feature = "bmi2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
        ("neon", cfg!(target_feature = "neon")),
    ]
    .into_iter()
    .filter_map(|(name, on)| on.then_some(name))
    .collect()
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
    // Each side of a pair writes its own buffers: the two closures are
    // alive at once.
    let (mut positions, mut ref_positions) = (Vec::with_capacity(rows), Vec::with_capacity(rows));
    let (mut bm, mut ref_bm) = (Bitmap::new(rows), Bitmap::new(rows));
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

        let (p, r) = bench_pair(
            "count_in_range",
            || scan::count_in_range(black_box(&data), lo, hi),
            || scan::scalar::count_in_range(black_box(&data), lo, hi),
        );
        push("count_in_range", p.best_ns, r.best_ns);

        let (p, r) = bench_pair(
            "count_in_range_with_minmax",
            || scan::count_in_range_with_minmax(black_box(&data), lo, hi),
            || scan::scalar::count_in_range_with_minmax(black_box(&data), lo, hi),
        );
        push("count_in_range_with_minmax", p.best_ns, r.best_ns);

        let (p, r) = bench_pair(
            "sum_in_range",
            || scan::sum_in_range(black_box(&data), lo, hi),
            || scan::scalar::sum_in_range(black_box(&data), lo, hi),
        );
        push("sum_in_range", p.best_ns, r.best_ns);

        let (p, r) = bench_pair(
            "aggregate_in_range",
            || scan::aggregate_in_range(black_box(&data), lo, hi),
            || scan::scalar::aggregate_in_range(black_box(&data), lo, hi),
        );
        push("aggregate_in_range", p.best_ns, r.best_ns);

        let (p, r) = bench_pair(
            "collect_in_range",
            || {
                positions.clear();
                scan::collect_in_range(black_box(&data), 0, lo, hi, &mut positions);
                positions.len()
            },
            || {
                ref_positions.clear();
                scan::scalar::collect_in_range(black_box(&data), 0, lo, hi, &mut ref_positions);
                ref_positions.len()
            },
        );
        push("collect_in_range", p.best_ns, r.best_ns);

        let (p, r) = bench_pair(
            "collect_in_range_with_minmax",
            || {
                positions.clear();
                scan::collect_in_range_with_minmax(black_box(&data), 0, lo, hi, &mut positions)
            },
            || {
                ref_positions.clear();
                scan::scalar::collect_in_range_with_minmax(
                    black_box(&data),
                    0,
                    lo,
                    hi,
                    &mut ref_positions,
                )
            },
        );
        push("collect_in_range_with_minmax", p.best_ns, r.best_ns);

        let (p, r) = bench_pair(
            "fill_bitmap_in_range",
            || {
                scan::fill_bitmap_in_range(black_box(&data), 0, lo, hi, &mut bm);
                bm.len()
            },
            || {
                scan::scalar::fill_bitmap_in_range(black_box(&data), 0, lo, hi, &mut ref_bm);
                ref_bm.len()
            },
        );
        push("fill_bitmap_in_range", p.best_ns, r.best_ns);

        let (p, r) = bench_pair(
            "fill_bitmap_in_range_with_minmax",
            || scan::fill_bitmap_in_range_with_minmax(black_box(&data), 0, lo, hi, &mut bm),
            || {
                scan::scalar::fill_bitmap_in_range_with_minmax(
                    black_box(&data),
                    0,
                    lo,
                    hi,
                    &mut ref_bm,
                )
            },
        );
        push("fill_bitmap_in_range_with_minmax", p.best_ns, r.best_ns);

        let (p, r) = bench_pair(
            "min_max_in_range",
            || scan::min_max_in_range(black_box(&data), lo, hi),
            || scan::scalar::min_max_in_range(black_box(&data), lo, hi),
        );
        push("min_max_in_range", p.best_ns, r.best_ns);
    }

    // Masked rows: the kernels a scan unit runs under deletes, over a
    // delete vector, against the masked per-row references — with the
    // bounds by-product (`*_minmax`, `aggregate`) and lean, as a unit the
    // index asked nothing of runs them (`count`, `sum`).
    let hi = black_box(cast(sel_bound(MASKED_SELECTIVITY)));
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
        let (p, r) = bench_pair(
            "count",
            || scan::count(black_box(&data), lo, hi, &live, 0, &mut NoByProduct),
            || masked::count((black_box(&data), lo, hi, &live)),
        );
        push("count", p.best_ns, r.best_ns);
        let (p, r) = bench_pair(
            "sum",
            || scan::sum(black_box(&data), lo, hi, &live, 0, &mut NoByProduct),
            || masked::sum((black_box(&data), lo, hi, &live)),
        );
        push("sum", p.best_ns, r.best_ns);
        let (p, r) = bench_pair(
            "count_minmax",
            || {
                let mut bounds = Bounds::new();
                let count = scan::count(black_box(&data), lo, hi, &live, 0, &mut bounds);
                (count, bounds.min_max())
            },
            || masked::count_minmax((black_box(&data), lo, hi, &live)),
        );
        push("count_minmax", p.best_ns, r.best_ns);
        let (p, r) = bench_pair(
            "aggregate",
            || {
                let mut bounds = Bounds::new();
                let matches = scan::aggregate(black_box(&data), lo, hi, &live, 0, &mut bounds);
                (matches, bounds.min_max())
            },
            || masked::aggregate((black_box(&data), lo, hi, &live)),
        );
        push("aggregate", p.best_ns, r.best_ns);
        let (p, r) = bench_pair(
            "collect_minmax",
            || {
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
            },
            || {
                ref_positions.clear();
                masked::collect_minmax((black_box(&data), lo, hi, &live), &mut ref_positions)
            },
        );
        push("collect_minmax", p.best_ns, r.best_ns);
    }

    // The aggregate over blocks that are both densely qualifying and
    // tombstoned: nearly every row is a hit, and the mask has holes.
    let (pct, dead_pct) = (100, 5.0);
    let hi = black_box(cast(sel_bound(pct)));
    section(&format!(
        "{ty} masked @ {pct}%, {dead_pct}% tombstones ({rows} rows)"
    ));
    let live = tombstones(rows, dead_pct);
    let (p, r) = bench_pair(
        "aggregate",
        || {
            let mut bounds = Bounds::new();
            let matches = scan::aggregate(black_box(&data), lo, hi, &live, 0, &mut bounds);
            (matches, bounds.min_max())
        },
        || masked::aggregate((black_box(&data), lo, hi, &live)),
    );
    push_row("aggregate", pct, Some(dead_pct), p.best_ns, r.best_ns);
}

/// Per-row references of the masked cells, shaped like the engine's
/// `execute_reference_with_deletes`: a row is a hit when it is live and
/// in `[lo, hi]`. The `(min, max)` by-product folds every row, live or
/// not, as the production kernels' [`Bounds`] does.
mod masked {
    use ads_storage::scan::RangeAggregates;
    use ads_storage::{DataValue, DeleteVector};

    /// A masked cell's input: the column, `lo`, `hi` and its tombstones.
    pub(super) type Cell<'a, T> = (&'a [T], T, T, &'a DeleteVector);

    /// Feeds every row to `all` and every hit, with its row, to `hit`;
    /// returns the hits.
    #[inline(always)]
    fn fold<T: DataValue>(
        (data, lo, hi, live): Cell<'_, T>,
        mut all: impl FnMut(T),
        mut hit: impl FnMut(usize, T),
    ) -> usize {
        let mut count = 0;
        for (i, &v) in data.iter().enumerate() {
            all(v);
            if live.is_deleted(i) || !(v.ge_total(&lo) && v.le_total(&hi)) {
                continue;
            }
            count += 1;
            hit(i, v);
        }
        count
    }

    pub(super) fn count<T: DataValue>(cell: Cell<'_, T>) -> usize {
        fold(cell, |_| {}, |_, _| {})
    }

    pub(super) fn sum<T: DataValue>(cell: Cell<'_, T>) -> (usize, f64) {
        let mut sum = 0.0;
        (fold(cell, |_| {}, |_, v| sum += v.to_f64()), sum)
    }

    pub(super) fn count_minmax<T: DataValue>(cell: Cell<'_, T>) -> (usize, T, T) {
        let (mut min, mut max) = (T::MAX_VALUE, T::MIN_VALUE);
        let all = |v: T| (min, max) = (min.min_total(v), max.max_total(v));
        (fold(cell, all, |_, _| {}), min, max)
    }

    pub(super) fn aggregate<T: DataValue>(cell: Cell<'_, T>) -> RangeAggregates<T> {
        let (mut range_min, mut range_max) = (T::MAX_VALUE, T::MIN_VALUE);
        let (mut sum, mut match_min, mut match_max) = (0.0, T::MAX_VALUE, T::MIN_VALUE);
        let count = fold(
            cell,
            |v| (range_min, range_max) = (range_min.min_total(v), range_max.max_total(v)),
            |_, v| {
                sum += v.to_f64();
                (match_min, match_max) = (match_min.min_total(v), match_max.max_total(v));
            },
        );
        RangeAggregates {
            count,
            sum,
            range_min,
            range_max,
            match_min,
            match_max,
        }
    }

    pub(super) fn collect_minmax<T: DataValue>(
        cell: Cell<'_, T>,
        out: &mut Vec<u32>,
    ) -> (usize, T, T) {
        let (mut min, mut max) = (T::MAX_VALUE, T::MIN_VALUE);
        let all = |v: T| (min, max) = (min.min_total(v), max.max_total(v));
        // narrowing: row ids are u32 by the storage-wide contract.
        (fold(cell, all, |i, _| out.push(i as u32)), min, max)
    }
}

/// The lazy-only config of the prune maps: zones of `rows_per_zone`
/// rows that never split, merge or retire.
fn prune_config(rows_per_zone: usize) -> AdaptiveConfig {
    AdaptiveConfig {
        target_zone_rows: rows_per_zone,
        min_zone_rows: 2,
        max_zone_rows: rows_per_zone.max(2),
        revival_base_queries: None,
        ..AdaptiveConfig::lazy_only()
    }
}

/// Builds every zone of `zm` — the steady state the prune loop is
/// measured in — with one scan of the whole column, whose zone over
/// `rows` holds values from `bounds(rows)`. That scan also derives the
/// plane's ordered runs.
fn build_every_zone(zm: &mut AdaptiveZonemap<i64>, bounds: impl Fn(RowRange) -> (i64, i64)) {
    let pred = RangePredicate::all();
    let out = zm.prune(&pred);
    let ranges = out
        .units
        .iter()
        .map(|u| {
            let (min, max) = bounds(u.range);
            RangeObservation::new(u.range, u.range.len(), min, max)
        })
        .collect();
    zm.observe(&ScanObservation {
        predicate: pred,
        ranges,
        walk: out,
    });
}

/// An adaptive zonemap with every zone Built over a column whose zone `z`
/// holds the values `[order[z] * rows_per_zone, (order[z] + 1) *
/// rows_per_zone)`.
fn built_zonemap(order: &[usize], rows_per_zone: usize) -> AdaptiveZonemap<i64> {
    let mut zm = AdaptiveZonemap::new(order.len() * rows_per_zone, prune_config(rows_per_zone));
    build_every_zone(&mut zm, |rows| {
        let base = (order[rows.start / rows_per_zone] * rows_per_zone) as i64;
        (base, base + rows_per_zone as i64 - 1)
    });
    zm
}

/// An adaptive zonemap over a column whose zone `z` holds the values `z,
/// z + zones, z + 2 * zones, ...`, every zone Built and carrying a bloom
/// tier: the bounds of each zone span nearly the whole column and admit a
/// point in its middle, so only the tiers tell the zones apart.
fn tiered_zonemap(zones: usize, rows_per_zone: usize) -> AdaptiveZonemap<i64> {
    let data: Vec<i64> = (0..zones * rows_per_zone)
        .map(|row| ((row % rows_per_zone) * zones + row / rows_per_zone) as i64)
        .collect();
    let config = AdaptiveConfig {
        enable_tiers: true,
        tier_after_scans: 1,
        maintenance_every: 1,
        ..prune_config(rows_per_zone)
    };
    let mut zm = AdaptiveZonemap::new(data.len(), config);
    build_every_zone(&mut zm, |rows| {
        let z = (rows.start / rows_per_zone) as i64;
        (z, z + ((rows_per_zone - 1) * zones) as i64)
    });
    // The one scan is a round's worth of queries: every zone earns a tier.
    zm.maintain(&data);
    zm
}

/// Sixteen points in the middle of the tiered column, each a value of
/// one zone: the bounds admit every zone for each.
fn tier_points(zones: usize, rows_per_zone: usize) -> Vec<RangePredicate<i64>> {
    (0..16)
        .map(|k| RangePredicate::point((rows_per_zone / 2 * zones + k * zones / 16) as i64))
        .collect()
}

/// The zone order of a sorted column.
fn sorted_order(zones: usize) -> Vec<usize> {
    (0..zones).collect()
}

/// A shuffled zone order: no stretch of it is long and ordered enough to
/// form a run, so the plane is walked zone by zone.
fn shuffled_order(zones: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(0xAD50_0002);
    let mut order = sorted_order(zones);
    for i in (1..zones).rev() {
        order.swap(i, rng.gen_range(0..i + 1));
    }
    order
}

/// ~1% of the values of a `zones`-zone column: the predicate overlaps ~1%
/// of the zones, and the rest exercise the bounds-exclusion path, which
/// is where the layouts differ.
fn one_percent(zones: usize, rows_per_zone: usize) -> RangePredicate<i64> {
    RangePredicate::between(0, (zones as i64 * rows_per_zone as i64) / 100)
}

/// Measures the SoA plane prune against the retained AoS loop, and the
/// read-only reader walk beside them, over a shuffled column: the plane
/// has no runs, so both walk every zone.
fn bench_prune(zones: usize, rows_per_zone: usize, out: &mut Vec<PruneRow>) {
    section(&format!("prune: {zones} built zones (shuffled column)"));
    let zm = built_zonemap(&shuffled_order(zones), rows_per_zone);
    let pred = one_percent(zones, rows_per_zone);
    let mut row = |impl_name, best_ns: f64| {
        out.push(PruneRow {
            impl_name,
            column: "shuffled",
            zones,
            ns_per_zone: best_ns / zones as f64,
        })
    };

    let (mut plane_zm, mut aos_zm) = (zm.clone(), zm.clone());
    let (b, r) = bench_pair(
        "prune/soa_plane-vs-aos",
        || black_box(plane_zm.prune(black_box(&pred))).zones_probed,
        || black_box(aos_zm.prune_via_zones(black_box(&pred))).zones_probed,
    );
    row("soa_plane", b.best_ns);
    row("aos_reference", r.best_ns);

    let s = bench("prune/reader", || {
        black_box(zm.prune_shared(black_box(&pred))).zones_probed
    });
    row("reader", s.best_ns);
}

/// Measures the plane prune against the AoS reference on point
/// predicates over the tiered map: every zone survives the bounds, and
/// the plane walk reads its tiers a batch at a time where the reference
/// reads them zone by zone. The points rotate, so no branch learns one.
fn bench_tier_point(zones: usize, rows_per_zone: usize, out: &mut Vec<PruneRow>) {
    section(&format!("prune: {zones} tiered zones (point predicates)"));
    let zm = tiered_zonemap(zones, rows_per_zone);
    let points = tier_points(zones, rows_per_zone);
    let (mut plane_zm, mut aos_zm) = (zm.clone(), zm);
    let (mut p, mut r) = (0, 0);
    let (b, a) = bench_pair(
        "prune/tier_point",
        || {
            p = (p + 1) % points.len();
            black_box(plane_zm.prune(black_box(&points[p]))).zones_probed
        },
        || {
            r = (r + 1) % points.len();
            black_box(aos_zm.prune_via_zones(black_box(&points[r]))).zones_probed
        },
    );
    for (impl_name, best_ns) in [("soa_plane", b.best_ns), ("aos_reference", a.best_ns)] {
        out.push(PruneRow {
            impl_name,
            column: "tier_point",
            zones,
            ns_per_zone: best_ns / zones as f64,
        });
    }
}

/// Measures the plane prune over a sorted column, whose zones form one
/// run: two binary searches, then a probe of each zone the predicate
/// overlaps.
fn bench_run_walk(zones: usize, rows_per_zone: usize, out: &mut Vec<PruneRow>) {
    section(&format!("prune: {zones} built zones (sorted column)"));
    let mut zm = built_zonemap(&sorted_order(zones), rows_per_zone);
    let pred = one_percent(zones, rows_per_zone);
    let b = bench("prune/run_walk", || {
        black_box(zm.prune(black_box(&pred))).zones_probed
    });
    out.push(PruneRow {
        impl_name: "run_walk",
        column: "sorted",
        zones,
        ns_per_zone: b.best_ns / zones as f64,
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
    let mut run_walk_zones = vec![RUN_WALK_ZONES, prune_zones];
    run_walk_zones.dedup();
    for zones in run_walk_zones {
        bench_run_walk(zones, 16, &mut prune);
    }
    bench_tier_point(prune_zones, 16, &mut prune);

    KernelReport {
        rows,
        target_features: target_features(),
        kernels,
        prune,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masked_references_answer_as_the_kernels_do() {
        fn check<T: DataValue>(data: &[T], lo: T, hi: T, live: &DeleteVector) {
            let by = |f: &dyn Fn(&mut Bounds<T>) -> usize| {
                let mut bounds = Bounds::new();
                let n = f(&mut bounds);
                let (min, max) = bounds.min_max();
                (n, min, max)
            };
            assert_eq!(
                masked::count((data, lo, hi, live)),
                scan::count(data, lo, hi, live, 0, &mut NoByProduct)
            );
            assert_eq!(
                masked::sum((data, lo, hi, live)),
                scan::sum(data, lo, hi, live, 0, &mut NoByProduct)
            );
            assert_eq!(
                masked::count_minmax((data, lo, hi, live)),
                by(&|b| scan::count(data, lo, hi, live, 0, b))
            );
            let reference = masked::aggregate((data, lo, hi, live));
            let mut bounds = Bounds::new();
            let m = scan::aggregate(data, lo, hi, live, 0, &mut bounds);
            assert_eq!(
                (m.count, m.sum, m.min, m.max, bounds.min_max()),
                (
                    reference.count,
                    reference.sum,
                    reference.match_min,
                    reference.match_max,
                    (reference.range_min, reference.range_max)
                )
            );
            let (mut positions, mut ref_positions) = (Vec::new(), Vec::new());
            let mut bounds = Bounds::new();
            let hits = scan::collect(data, lo, hi, live, 0, &mut positions, &mut bounds);
            let (min, max) = bounds.min_max();
            assert_eq!(
                masked::collect_minmax((data, lo, hi, live), &mut ref_positions),
                (hits, min, max)
            );
            assert_eq!(positions, ref_positions);
        }
        let base = gen_column(5000, 11);
        for dead_pct in TOMBSTONES {
            let live = tombstones(base.len(), dead_pct);
            for pct in [MASKED_SELECTIVITY, 100] {
                let hi = sel_bound(pct);
                check(&base, 0, hi, &live);
                let floats: Vec<f64> = base.iter().map(|&v| v as f64 * 0.5).collect();
                check(&floats, 0.0, hi as f64 * 0.5, &live);
            }
        }
    }

    #[test]
    fn built_zonemaps_are_fully_built_and_decide_as_the_reference() {
        for order in [sorted_order(64), shuffled_order(64)] {
            let zm = built_zonemap(&order, 16);
            let (unbuilt, built, dead) = zm.state_counts();
            assert_eq!((unbuilt, built, dead), (0, 64, 0));
            // The sorted map forms a run, the shuffled one none; both
            // decide as the reference walk.
            let pred = one_percent(64, 16);
            let mut reference = zm.clone();
            assert_eq!(zm.prune_shared(&pred), reference.prune_via_zones(&pred));
        }
        let mut order = shuffled_order(4096);
        order.sort_unstable();
        assert_eq!(order, sorted_order(4096), "a permutation");
    }

    #[test]
    fn the_tiered_map_admits_every_zone_by_bounds_and_decides_as_the_reference() {
        let zm = tiered_zonemap(256, 16);
        assert_eq!(zm.state_counts(), (0, 256, 0));
        assert_eq!(zm.zones_tiered(), 256);
        let mut reference = zm.clone();
        for pred in tier_points(256, 16) {
            let out = zm.prune_shared(&pred);
            // One zone holds the point; the tiers exclude most others,
            // and the bounds none.
            assert!(out.units.len() < 64, "{} zones scanned", out.units.len());
            assert_eq!(out.zones_skipped, 256 - out.units.len());
            assert_eq!(out.tier_skips.covered_rows(), out.zones_skipped * 16);
            assert_eq!(out, reference.prune_via_zones(&pred));
        }
    }

    #[test]
    fn json_report_shape() {
        let report = KernelReport {
            rows: 128,
            target_features: vec!["sse2", "avx2"],
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
                column: "shuffled",
                zones: 64,
                ns_per_zone: 0.75,
            }],
        };
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"ads-kernel-bench/v4\""));
        assert!(json.contains("\"target_features\": [\"sse2\", \"avx2\"],"));
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
            target_features: Vec::new(),
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
                column: "shuffled",
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
