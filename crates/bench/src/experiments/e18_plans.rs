//! E18 — conjunction probe planning: planned vs fixed order vs oracle.
//!
//! Each cell is a two-column conjunction workload (data shape × per-column
//! selectivity, with the *caller* order fixed by the cell definition) run
//! under three plan modes over fresh sessions:
//!
//! * **planned** — the cost-based planner: estimate-ordered, restricted,
//!   gated probes;
//! * **fixed** — the legacy behaviour: caller order, full-map probes,
//!   no gating;
//! * **oracle** — the best [`PlanMode::ForcedOrder`] permutation by
//!   deterministic model cost, found by exhaustive search over fresh
//!   sessions (the planner's upper bound for *ordering* decisions; it
//!   cannot express gating, so planned may beat it on fallback-heavy
//!   cells).
//!
//! The planner must match the fixed order where the caller order was
//! already right, flip it where it was wrong, and stop probing entirely
//! where metadata cannot skip. Wall time is reported but the comparison
//! metric is the deterministic **model cost** `probe_cost_tuples x
//! zones_probed + rows_scanned`, accumulated over the query stream —
//! machine-independent and free of timer noise. Answers (checksums) must
//! be identical across modes; the run asserts it.
//!
//! The grid runs over **static** zonemaps deliberately: adaptive
//! structures already self-deactivate unprofitable zones (E10), which
//! hides the ordering/gating decision this experiment isolates. Static
//! metadata cannot self-regulate — every probe the plan requests is paid
//! in full — so the planner's effect is visible and exactly reproducible.

use crate::report::Report;
use crate::runner::{cross_check, Scale};
use ads_core::{CostModel, RangePredicate};
use ads_engine::{AnyPredicate, CumulativeMetrics, PlanMode, Strategy, TableSession};
use ads_storage::{Column, Table};
use ads_workloads::{data, queries};

/// One conjunction workload: data shapes, selectivities, caller order.
struct CellSpec {
    label: &'static str,
    dist_a: &'static str,
    dist_b: &'static str,
    sel_a: f64,
    sel_b: f64,
}

const CELLS: &[CellSpec] = &[
    // Sorted first column at moderate selectivity, uniform second: the
    // classic case where the first conjunct does all the work.
    CellSpec {
        label: "sorted-first",
        dist_a: "sorted",
        dist_b: "uniform",
        sel_a: 0.2,
        sel_b: 0.02,
    },
    // Clustered first column: skippable but less cleanly than sorted.
    CellSpec {
        label: "clustered-first",
        dist_a: "clustered",
        dist_b: "uniform",
        sel_a: 0.2,
        sel_b: 0.02,
    },
    // Both columns uniform at moderate selectivity: zonemaps cannot skip,
    // so the only right plan is to stop probing (fallback).
    CellSpec {
        label: "uniform-both",
        dist_a: "uniform",
        dist_b: "uniform",
        sel_a: 0.2,
        sel_b: 0.2,
    },
    // Adversarial caller order: a useless wide conjunct first, the highly
    // selective sorted conjunct second — exactly where a fixed order pays
    // a full probe sweep for nothing and the planner should flip it.
    CellSpec {
        label: "adversarial",
        dist_a: "uniform",
        dist_b: "sorted",
        sel_a: 0.5,
        sel_b: 0.01,
    },
];

/// One measured (cell, plan mode).
struct ModeRun {
    cell: &'static str,
    /// `planned`, `fixed`, or `oracle`.
    mode: &'static str,
    /// The winning probe order, as conjunct indices (oracle rows only).
    order: Option<Vec<usize>>,
    totals: CumulativeMetrics,
    /// Deterministic cost: `probe_cost_tuples * zones_probed + rows_scanned`.
    model_cost: f64,
    /// Answer checksum (asserted equal across the modes of a cell).
    checksum: u64,
}

type Conjunction = (RangePredicate<i64>, RangePredicate<i64>);

fn gen_column(dist: &str, rows: usize, domain: i64, seed: u64) -> Vec<i64> {
    match dist {
        "sorted" => data::sorted(rows, domain),
        "clustered" => data::clustered(rows, 64, 0.02, domain, seed),
        _ => data::uniform(rows, domain, seed),
    }
}

/// Runs one (cell, mode) measurement over a fresh session.
fn run_mode(
    table: &Table,
    cell: &'static str,
    mode: &'static str,
    plan: PlanMode,
    qs: &[Conjunction],
) -> ModeRun {
    let order = match &plan {
        PlanMode::ForcedOrder(order) => Some(order.clone()),
        _ => None,
    };
    let mut ts = TableSession::new(
        table.clone(),
        &Strategy::StaticZonemap { zone_rows: 4096 },
        &["a", "b"],
    )
    .expect("base-coordinate strategy");
    ts.set_plan_mode(plan);
    let mut checksum = 0u64;
    for (pa, pb) in qs {
        let conjuncts = [("a", AnyPredicate::I64(*pa)), ("b", AnyPredicate::I64(*pb))];
        let (count, _) = ts.count_conjunction(&conjuncts).expect("valid conjunction");
        checksum = checksum.wrapping_add(count);
    }
    let totals = *ts.totals();
    ModeRun {
        cell,
        mode,
        order,
        totals,
        model_cost: CostModel::default().probe_cost_tuples * totals.zones_probed as f64
            + totals.rows_scanned as f64,
        checksum,
    }
}

/// Runs [`CELLS`] × {planned, fixed, oracle}, three rows per cell in that
/// order.
fn grid(scale: Scale) -> Vec<ModeRun> {
    let Scale {
        rows,
        queries: n,
        domain,
        seed,
    } = scale;
    let mut runs = Vec::new();
    for spec in CELLS {
        eprintln!("  e18: {} cell", spec.label);
        let mut table = Table::new("t");
        for (name, dist, seed) in [("a", spec.dist_a, seed), ("b", spec.dist_b, seed ^ 0xB)] {
            table
                .add_column(
                    name,
                    Column::from_values(gen_column(dist, rows, domain, seed)),
                )
                .expect("fresh column");
        }
        let qa = queries::uniform_ranges(n, domain, spec.sel_a, seed ^ 0xA1);
        let qb = queries::uniform_ranges(n, domain, spec.sel_b, seed ^ 0xB2);
        let between = |q: &queries::RangeQuery| RangePredicate::between(q.lo, q.hi);
        let qs: Vec<Conjunction> = qa.iter().map(between).zip(qb.iter().map(between)).collect();

        let planned = run_mode(&table, spec.label, "planned", PlanMode::Planned, &qs);
        let fixed = run_mode(&table, spec.label, "fixed", PlanMode::FixedOrder, &qs);
        // Oracle: exhaustive forced-order search by model cost. Two
        // conjuncts, two permutations; every candidate gets a fresh
        // session so adaptation history cannot leak between orders.
        let oracle = [vec![0usize, 1], vec![1usize, 0]]
            .into_iter()
            .map(|ord| {
                run_mode(
                    &table,
                    spec.label,
                    "oracle",
                    PlanMode::ForcedOrder(ord),
                    &qs,
                )
            })
            .min_by(|x, y| x.model_cost.total_cmp(&y.model_cost))
            .expect("two permutations");

        let mut reference = Vec::new();
        for run in [planned, fixed, oracle] {
            let ctx = format!("{}/{}", spec.label, run.mode);
            cross_check(&mut reference, &[run.checksum], &ctx);
            runs.push(run);
        }
    }
    runs
}

/// Runs the experiment.
pub fn run(scale: Scale) -> Report {
    let mut report = Report::new(
        "e18",
        "conjunction probe planning: planned vs fixed order vs oracle",
        &[
            "cell",
            "mode",
            "total ms",
            "zones probed",
            "rows scanned",
            "fallbacks",
            "model cost",
            "vs fixed",
            "checksum",
        ],
    );
    report.note(format!(
        "{} rows x 2 columns, {} conjunctive COUNT queries per mode; model cost = \
         {} x zones_probed + rows_scanned",
        scale.rows,
        scale.queries,
        CostModel::default().probe_cost_tuples
    ));

    let runs = grid(scale);
    let mut oracle_orders = Vec::new();
    // The three headline checks, over each cell's [planned, fixed, oracle].
    let (mut never_worse, mut adversarial_beaten, mut uniform_falls_back) = (true, true, true);
    for cell in runs.chunks(3) {
        let (planned, fixed) = (&cell[0], &cell[1]);
        let cost_ratio = planned.model_cost / fixed.model_cost.max(1.0);
        // 2% tolerance for adaptation divergence.
        never_worse &= cost_ratio <= 1.02;
        match planned.cell {
            // Scan work is identical here by construction — every sound
            // plan converges on the same candidate rows — so the ordering
            // decision shows up purely in zones probed.
            "adversarial" => {
                let probes = planned.totals.zones_probed as f64;
                adversarial_beaten &=
                    cost_ratio <= 1.0 && probes <= 0.9 * fixed.totals.zones_probed.max(1) as f64;
            }
            "uniform-both" => uniform_falls_back &= planned.totals.plan_fallbacks > 0,
            _ => {}
        }
        for m in cell {
            if let Some(order) = &m.order {
                oracle_orders.push(format!("{} {order:?}", m.cell));
            }
            report.row(vec![
                m.cell.to_string(),
                m.mode.to_string(),
                format!("{:.1}", m.totals.wall_ns as f64 / 1e6),
                m.totals.zones_probed.to_string(),
                m.totals.rows_scanned.to_string(),
                m.totals.plan_fallbacks.to_string(),
                format!("{:.0}", m.model_cost),
                format!("{:.2}", m.model_cost / fixed.model_cost.max(1.0)),
                m.checksum.to_string(),
            ]);
        }
    }
    report.note(format!("oracle orders: {}", oracle_orders.join(", ")));
    report.note(format!(
        "planned never worse than fixed: {never_worse}; adversarial cell beaten: \
         {adversarial_beaten}; fallback on uniform: {uniform_falls_back}"
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_grid_agrees_on_answers_across_modes() {
        let runs = grid(Scale {
            rows: 20_000,
            queries: 12,
            domain: 100_000,
            seed: 42,
        });
        assert_eq!(runs.len(), 3 * CELLS.len());
        for cell in runs.chunks(3) {
            let modes: Vec<_> = cell.iter().map(|m| m.mode).collect();
            assert_eq!(modes, ["planned", "fixed", "oracle"]);
            assert!(cell.iter().all(|m| m.checksum == cell[1].checksum));
            assert!(cell[1].model_cost > 0.0);
        }
    }
}
