//! The experiment harness CLI.
//!
//! ```text
//! harness all                  # every experiment at default scale
//! harness e3 e4                # selected experiments
//! harness e3 --rows 10000000   # override sizing
//! harness all --quick          # smoke-scale run
//! harness calibrate            # print the measured cost model
//! harness --out results        # also write CSVs (default: results/)
//! ```

#![forbid(unsafe_code)]

use ads_bench::experiments;
use ads_bench::runner::Scale;
use std::path::PathBuf;
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage: harness <e1..e11|e13..e18|e20..e22|all|calibrate>... [--rows N] [--queries N] [--domain N] [--seed N] [--quick] [--out DIR] [--no-csv]"
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ids: Vec<String> = Vec::new();
    let mut scale = Scale::default();
    let mut out_dir = PathBuf::from("results");
    let mut write_csv = true;
    let mut calibrate = false;

    let mut i = 0;
    while i < args.len() {
        let arg = args[i].clone();
        let take_value = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match arg.as_str() {
            "--rows" => scale.rows = take_value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--queries" => scale.queries = take_value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--domain" => scale.domain = take_value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--seed" => scale.seed = take_value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--quick" => {
                let q = Scale::quick();
                scale.rows = q.rows;
                scale.queries = q.queries;
            }
            "--out" => out_dir = PathBuf::from(take_value(&mut i)),
            "--no-csv" => write_csv = false,
            "all" => ids.extend(experiments::ALL.iter().map(|s| s.to_string())),
            "calibrate" => calibrate = true,
            id if experiments::ALL.contains(&id) => ids.push(id.to_string()),
            _ => usage(),
        }
        i += 1;
    }
    if ids.is_empty() && !calibrate {
        usage();
    }

    if calibrate {
        let model = ads_core::CostModel::calibrate(1 << 22);
        println!(
            "cost model: one zone probe ~= {:.1} tuple scans (min profitable zone: {} rows)",
            model.probe_cost_tuples,
            model.min_profitable_zone_rows()
        );
    }

    // Keep the first occurrence of each id: `all e16` must not run (and
    // overwrite the CSV of) E16 twice.
    let mut seen = std::collections::HashSet::new();
    ids.retain(|id| seen.insert(id.clone()));
    if !ids.is_empty() {
        println!(
            "scale: {} rows, {} queries, domain {}, seed {}\n",
            scale.rows, scale.queries, scale.domain, scale.seed
        );
    }
    for id in &ids {
        let t0 = Instant::now();
        let report = experiments::run(id, scale).unwrap_or_else(|| usage());
        print!("{}", report.render());
        println!("  [{id} completed in {:.1}s]\n", t0.elapsed().as_secs_f64());
        if write_csv {
            if let Err(e) = report.write_csv(&out_dir) {
                eprintln!("warning: could not write {id}.csv: {e}");
            }
        }
    }
}
