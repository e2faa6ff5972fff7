//! The repo benchmark: five service workloads driven through
//! `ads_server::QueryService` from outside, five end-to-end metrics from
//! tracing-off runs, and a per-layer breakdown from a separate traced run.
//! See `README.md` beside this crate for what each workload is for and how
//! the metrics are expected to interact.
//!
//! `unsafe` is confined to [`heap`], whose allocator wrapper cannot be
//! written without it.

#![warn(missing_docs)]

pub mod compare;
pub mod driver;
pub mod heap;
pub mod json;
pub mod library;
pub mod oracle;
pub mod report;
pub mod spec;
pub mod stats;
pub mod trace;

use report::RunRecord;

/// Every allocation of the process goes through the counting allocator, so
/// `peak_heap_mb` sees the service's threads too.
#[global_allocator]
static ALLOCATOR: heap::CountingAlloc = heap::CountingAlloc;

use spec::{Scale, Workload};
use std::path::{Path, PathBuf};
use trace::Tracer;

/// One run of one workload.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// The workload.
    pub workload: &'static Workload,
    /// Input sizes.
    pub scale: Scale,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// `false`: end-to-end metrics, tracing off. `true`: per-layer metrics.
    pub traced: bool,
    /// Where the result file and the trace go.
    pub out_dir: PathBuf,
}

/// `benchmark/out`, beside this crate's manifest.
pub fn default_out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Where a run of `workload` leaves its result file in `out_dir`.
pub fn result_path(out_dir: &Path, workload: &str, traced: bool) -> PathBuf {
    out_dir.join(format!("result-{workload}-trace{}.json", u8::from(traced)))
}

/// Runs one workload once, writes its result file (and, traced,
/// `trace-<workload>.jsonl`) into the output directory, and returns the
/// record.
pub fn run_one(opts: &RunOptions) -> std::io::Result<RunRecord> {
    let p = driver::prepare(opts.workload, opts.scale, opts.seed);
    std::fs::create_dir_all(&opts.out_dir)?;
    let name = opts.workload.name;
    let record = if opts.traced {
        let mut tracer = Tracer::new();
        let service = driver::run_service_pass(&p, opts.seconds, &mut tracer);
        let library =
            library::run_library_pass(&p, opts.scale.library_ops(opts.workload), &mut tracer);
        let kernel = library::kernel_ns_per_row(&p.data());
        tracer.write_jsonl(&opts.out_dir.join(format!("trace-{name}.jsonl")))?;
        report::traced_record(&p, &service, &library, kernel, &tracer)
    } else {
        report::timed_record(&p, &driver::run_timed(&p, opts.seconds))
    };
    report::write_result_file(
        &result_path(&opts.out_dir, name, opts.traced),
        report::envelope(opts.seed, opts.scale.rows, opts.seconds),
        vec![record.to_json()],
    )?;
    Ok(record)
}
