//! Emits the machine-readable kernel benchmark baseline.
//!
//! ```text
//! kernels_json                                   # 1M rows, 64k zones -> results/BENCH_kernels.json
//! kernels_json --rows 4096 --zones 1024          # smoke scale
//! kernels_json --out path.json --markdown        # custom path + README table on stdout
//! ```
//!
//! Exits 1 when any production kernel measured slower than
//! `kernels::GATE` (0.9x) of its scalar reference, or the prune plane
//! slower than 0.9x of the array-of-structs walk.

#![forbid(unsafe_code)]

use ads_bench::kernels;
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!("usage: kernels_json [--rows N] [--zones N] [--out PATH] [--markdown]");
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut rows: usize = 1 << 20;
    let mut zones: usize = 1 << 16;
    let mut out_path = PathBuf::from("results/BENCH_kernels.json");
    let mut markdown = false;

    let mut i = 0;
    while i < args.len() {
        let take_value = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match args[i].as_str() {
            "--rows" => rows = take_value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--zones" => zones = take_value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--out" => out_path = PathBuf::from(take_value(&mut i)),
            "--markdown" => markdown = true,
            _ => usage(),
        }
        i += 1;
    }
    if rows == 0 || zones == 0 {
        usage();
    }

    let report = kernels::run(rows, zones);

    if let Some(dir) = out_path.parent() {
        if !dir.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("error: could not create {}: {e}", dir.display());
                std::process::exit(1);
            }
        }
    }
    if let Err(e) = std::fs::write(&out_path, report.to_json()) {
        eprintln!("error: could not write {}: {e}", out_path.display());
        std::process::exit(1);
    }
    println!("\nwrote {}", out_path.display());

    if markdown {
        println!("\n{}", report.to_markdown());
    }

    let below = report.below_gate();
    for cell in &below {
        eprintln!("below gate: {cell}");
    }
    if !below.is_empty() {
        std::process::exit(1);
    }
}
