//! Command line of the repo benchmark.
//!
//! ```text
//! ads-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run of one workload; the last stdout line is the result object
//! ads-benchmark [--seed <n>] [--seconds <s>] [--runs <r>] [--out <file>]
//!     every workload, tracing-off then traced, each run in its own process
//! ads-benchmark compare <a.json> <b.json>
//!     medians, ratio and within/worse/unresolved per workload and metric
//! ```
//! `--smoke` (200 k rows, a tenth of the fixed operation counts) and
//! `--out-dir <dir>` apply to both run forms; `--timed-only` /
//! `--traced-only` to the second.

use ads_benchmark::json::Json;
use ads_benchmark::spec::{Scale, Workload, WORKLOADS};
use ads_benchmark::{compare, default_out_dir, report, result_path, run_one, RunOptions};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// Window length when `--seconds` is absent; `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;

#[derive(Debug)]
struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
    runs: u64,
    timed_only: bool,
    traced_only: bool,
    out_dir: PathBuf,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 42,
        seconds: None,
        traced: false,
        smoke: false,
        runs: 1,
        timed_only: false,
        traced_only: false,
        out_dir: default_out_dir(),
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &String| format!("bad value `{v}` for {flag}");
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                parsed.workload = Some(Workload::by_name(v).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{v}`; one of {}", names.join(", "))
                })?);
            }
            "--seed" => parsed.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| bad(v))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad(v));
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                parsed.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--runs" => parsed.runs = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--out-dir" => parsed.out_dir = PathBuf::from(value()?),
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            "--smoke" => parsed.smoke = true,
            "--timed-only" => parsed.timed_only = true,
            "--traced-only" => parsed.traced_only = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

impl Args {
    fn scale(&self) -> Scale {
        if self.smoke {
            Scale::SMOKE
        } else {
            Scale::FULL
        }
    }

    fn seconds(&self) -> f64 {
        self.seconds
            .unwrap_or(if self.smoke { 5.0 } else { DEFAULT_SECONDS })
    }
}

/// One run in this process; prints the metric table to stderr and the
/// contract's result object as the last stdout line.
fn single(args: &Args, workload: &'static Workload) -> Result<ExitCode, String> {
    let record = run_one(&RunOptions {
        workload,
        scale: args.scale(),
        seed: args.seed,
        seconds: args.seconds(),
        traced: args.traced,
        out_dir: args.out_dir.clone(),
    })
    .map_err(|e| format!("cannot write results: {e}"))?;
    eprint!("{}", record.table());
    println!("{}", record.result_line());
    Ok(ExitCode::SUCCESS)
}

/// Every workload, each run in a child process of its own so allocator and
/// page-cache state never carry over from one run to the next.
fn all(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut runs = Vec::new();
    let mut all_correct = true;
    for w in &WORKLOADS {
        for r in 0..args.runs {
            for traced in [false, true] {
                if (traced && args.timed_only) || (!traced && args.traced_only) {
                    continue;
                }
                let mut cmd = Command::new(&exe);
                cmd.args(["--workload", w.name])
                    .args(["--seed", &(args.seed + r).to_string()])
                    .args(["--seconds", &args.seconds().to_string()])
                    .args(["--trace", if traced { "1" } else { "0" }])
                    .arg("--out-dir")
                    .arg(&args.out_dir)
                    .stdin(Stdio::null())
                    .stdout(Stdio::null());
                if args.smoke {
                    cmd.arg("--smoke");
                }
                // `status` waits for the child to end; the child's result
                // file holds the run with its sample counts.
                let status = cmd
                    .status()
                    .map_err(|e| format!("cannot start a run: {e}"))?;
                let record = std::fs::read_to_string(result_path(&args.out_dir, w.name, traced))
                    .ok()
                    .filter(|_| status.success())
                    .and_then(|text| Json::parse(&text).ok())
                    .and_then(|doc| doc.get("runs")?.as_arr()?.first().cloned())
                    .ok_or_else(|| format!("run of {} ended without a result", w.name))?;
                all_correct &= record.get("correct") == Some(&Json::Bool(true));
                runs.push(record);
            }
        }
    }
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| args.out_dir.join("results.json"));
    report::write_result_file(
        &path,
        report::envelope(args.seed, args.scale().rows, args.seconds()),
        runs,
    )
    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("results: {}", path.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("at least one run reported failed operations");
        ExitCode::FAILURE
    })
}

fn compare_files(paths: &[String]) -> Result<ExitCode, String> {
    let [a, b] = paths else {
        return Err("usage: compare <a.json> <b.json>".into());
    };
    let load = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let (report, any_worse) = compare::compare(&load(a)?, &load(b)?);
    print!("{report}");
    Ok(if any_worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if argv.first().map(String::as_str) == Some("compare") {
        compare_files(&argv[1..])
    } else {
        parse_args(&argv).and_then(|args| match args.workload {
            Some(w) => single(&args, w),
            None => all(&args),
        })
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("ads-benchmark: {message}");
        ExitCode::from(2)
    })
}
