//! The demo-paper view: watch an adaptive zonemap's structure evolve.
//!
//! The SIGMOD 2016 demo visualised zone boundaries changing as queries
//! arrived. This example prints the same story as ASCII: one character per
//! region of the column (`.` unbuilt, `#` built, `~` inherited bounds,
//! `x` dead), sampled after selected queries, plus the event log totals.
//!
//! ```text
//! cargo run --release --example adaptation_trace
//! ```

use adaptive_data_skipping::core::adaptive::{AdaptiveConfig, AdaptiveZonemap};
use adaptive_data_skipping::core::{
    RangeObservation, RangePredicate, ScanObservation, SkippingIndex,
};
use adaptive_data_skipping::storage::scan;
use adaptive_data_skipping::workloads::data;

const WIDTH: usize = 96;

fn strip(zm: &AdaptiveZonemap<i64>, len: usize) -> String {
    let mut chars = vec!['.'; WIDTH];
    for (range, label, _) in zm.zone_snapshot() {
        let a = range.start * WIDTH / len;
        let b = ((range.end * WIDTH).div_ceil(len)).min(WIDTH);
        let c = match label {
            "unbuilt" => '.',
            "built" => '#',
            "built~" => '~',
            _ => 'x',
        };
        for slot in &mut chars[a..b] {
            *slot = c;
        }
    }
    chars.into_iter().collect()
}

fn run_query(zm: &mut AdaptiveZonemap<i64>, data: &[i64], pred: RangePredicate<i64>) -> usize {
    let out = zm.prune(&pred);
    let mut observations = Vec::new();
    let mut count = out.rows_full_match();
    for unit in &out.units {
        let r = unit.range;
        let (q, min, max) =
            scan::count_in_range_with_minmax(&data[r.start..r.end], pred.lo, pred.hi);
        count += q;
        observations.push(RangeObservation::new(r, q, min, max));
    }
    zm.observe(&ScanObservation {
        predicate: pred,
        ranges: observations,
        walk: out,
    });
    count
}

fn main() {
    // First half: random values (metadata will die there for these
    // queries). Second half: sorted (metadata thrives).
    let n = 1_000_000usize;
    let domain = 1_000_000i64;
    let mut column = data::uniform(n / 2, domain / 2, 21);
    column.extend(
        data::sorted(n / 2, domain / 2)
            .iter()
            .map(|v| v + domain / 2),
    );

    let cfg = AdaptiveConfig {
        target_zone_rows: 8192,
        merge_after_probes: 4,
        deactivate_after_probes: 8,
        maintenance_every: 4,
        revival_base_queries: None, // keep the picture stable
        ..AdaptiveConfig::default()
    };
    let mut zm = AdaptiveZonemap::new(n, cfg);

    println!(
        "column: rows 0..{} uniform-random, rows {}..{} sorted",
        n / 2,
        n / 2,
        n
    );
    println!("legend: . unbuilt   # built(exact)   ~ built(inherited)   x dead\n");
    println!("query    zones  structure");
    println!("{:>5}  {:>7}  {}", 0, zm.num_zones(), strip(&zm, n));

    // Queries land across the whole value domain.
    let preds: Vec<RangePredicate<i64>> = (0..400)
        .map(|q| {
            let lo = (q * 7919) % (domain - 10_000);
            RangePredicate::between(lo, lo + 10_000)
        })
        .collect();

    let checkpoints = [1usize, 2, 4, 8, 16, 32, 64, 128, 256, 400];
    for (i, pred) in preds.iter().enumerate() {
        run_query(&mut zm, &column, *pred);
        if checkpoints.contains(&(i + 1)) {
            println!("{:>5}  {:>7}  {}", i + 1, zm.num_zones(), strip(&zm, n));
        }
    }

    let totals = zm.trace().totals();
    println!("\nadaptation events: {totals}");
    let (unbuilt, built, dead) = zm.state_counts();
    println!("final zone states: {unbuilt} unbuilt, {built} built, {dead} dead");
    println!(
        "lifetime skip rate: {:.1}% of {} probes",
        zm.index_stats().skip_rate() * 100.0,
        zm.index_stats().total_probes
    );
    println!("\nrecent events:");
    for (seq, event) in zm.trace().recent().iter().rev().take(8) {
        println!("  query {seq:>4}: {event:?}");
    }
}
