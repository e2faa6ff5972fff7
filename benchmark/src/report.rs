//! Turning what the runs measured into named metrics, the result line the
//! contract asks for, and result files with an envelope.

use crate::driver::{Prepared, Repetition, ServicePass, TimedRun, Window};
use crate::json::Json;
use crate::library::LibraryPass;
use crate::spec::{Better, MetricDef, END_TO_END, KERNEL_PASSES, PER_LAYER, REPS, SLICES};
use crate::stats::{median, percentile, trimmed_mean};
use crate::trace::Tracer;
use std::path::Path;

/// Schema of the result files; bump when a field changes meaning.
pub const SCHEMA: &str = "ads-benchmark/1";

/// One finished run of one workload, in the shape it is printed and stored.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Workload name.
    pub workload: &'static str,
    /// The seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Every answer and ack was right (and, traced, spans tile the query).
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Every metric of the run's table with its value, in table order.
    pub metrics: Vec<(&'static MetricDef, f64)>,
    /// How many samples stand behind the metrics.
    pub samples: Json,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Orders `values` like `defs`; a metric without a value is a bug here.
fn in_table_order(
    defs: &'static [MetricDef],
    values: &[(&'static str, f64)],
) -> Vec<(&'static MetricDef, f64)> {
    defs.iter()
        .map(|d| {
            let (_, v) = values
                .iter()
                .find(|(name, _)| *name == d.name)
                // invariant: the match arms below name every table entry;
                // tests/selftest.rs runs both tables end to end.
                .unwrap_or_else(|| panic!("metric {} was not computed", d.name));
            (d, *v)
        })
        .collect()
}

/// One time metric of a tracing-off run. At each slice position the
/// repetitions' values are ranked and the mean of the `keep` best is taken:
/// interference on a shared host is one-sided — a neighbour only ever slows
/// a slice down — so the most-disturbed repetition says least about what
/// the code does over that stretch of a service's life. The run's value is
/// the mean over positions **without the highest and the lowest**: the
/// services are not stationary, so positions differ and a median would read
/// one of them alone, but a position at which every repetition was disturbed
/// (or the first, where a service may still be building) must not drag the
/// result with it.
fn steady(reps: &[Repetition], value: fn(&Window) -> f64, better: Better, keep: usize) -> f64 {
    let per_position: Vec<f64> = (0..SLICES)
        .map(|k| {
            let mut ranked: Vec<f64> = reps.iter().map(|r| value(&r.slices[k])).collect();
            ranked.sort_by(f64::total_cmp);
            if better == Better::Higher {
                ranked.reverse();
            }
            ranked.truncate(keep);
            ranked.iter().sum::<f64>() / ranked.len() as f64
        })
        .collect();
    trimmed_mean(&per_position)
}

/// The tracing-off run as end-to-end metrics. Throughput and p50 keep the
/// best two of the three repetitions at each position: besides interference
/// they carry a two-sided difference between starts (an async adaptation
/// trajectory is drawn once per service, and `sawtooth-point-tiers` now and
/// then draws one a third faster), which only averaging tames. The tail is
/// what interference inflates most, so p95 keeps the best one; so does
/// `setup_s`, the shortest of the set-ups. Memory moves both ways from start
/// to start (how many tiers a trajectory builds), so `peak_heap_mb` is the
/// median. `CALIBRATION.md` has the same runs summarised each way.
pub fn timed_record(p: &Prepared, run: &TimedRun) -> RunRecord {
    let reps = &run.reps;
    let values = [
        (
            "setup_s",
            reps.iter().map(|r| r.setup_s).fold(f64::INFINITY, f64::min),
        ),
        ("throughput_qps", steady(reps, |w| w.qps, Better::Higher, 2)),
        (
            "latency_p50_us",
            steady(reps, |w| w.p50_us, Better::Lower, 2),
        ),
        (
            "latency_p95_us",
            steady(reps, |w| w.p95_us, Better::Lower, 1),
        ),
        (
            "peak_heap_mb",
            median(&reps.iter().map(|r| r.peak_heap_mb).collect::<Vec<_>>()),
        ),
    ];
    // Per repetition: one number, or one per slice.
    let per_rep = |f: &dyn Fn(&Repetition) -> Json| Json::Arr(reps.iter().map(f).collect());
    let per_slice = |f: fn(&Window) -> f64| {
        per_rep(&|r| Json::Arr(r.slices.iter().map(|w| Json::num(f(w))).collect()))
    };
    RunRecord {
        workload: p.workload.name,
        seed: p.seed,
        traced: false,
        correct: run.tally.failed == 0,
        attempted: run.tally.attempted,
        failed: run.tally.failed,
        metrics: in_table_order(&END_TO_END, &values),
        samples: Json::obj([
            ("repetitions", Json::num(REPS as f64)),
            ("slices", Json::num(SLICES as f64)),
            ("setup_s", per_rep(&|r| Json::num(r.setup_s))),
            ("throughput_qps", per_slice(|w| w.qps)),
            ("latency_p50_us", per_slice(|w| w.p50_us)),
            ("latency_p95_us", per_slice(|w| w.p95_us)),
            (
                "latency_samples",
                per_slice(|w| w.latencies_ns.len() as f64),
            ),
            ("peak_heap_mb", per_rep(&|r| Json::num(r.peak_heap_mb))),
            ("vm_hwm_mb", Json::num(run.vm_hwm_mb)),
            (
                "window_compactions",
                Json::num(run.window_compactions as f64),
            ),
            ("zones_at_end", Json::num(run.zones_at_end as f64)),
            ("server_queries", Json::num(run.stats.queries as f64)),
            (
                "server_feedback_dropped",
                Json::num(run.stats.feedback_dropped as f64),
            ),
            (
                "server_snapshots_published",
                Json::num(run.stats.snapshots_published as f64),
            ),
        ]),
    }
}

/// The traced run as per-layer metrics. Service-pass numbers come from
/// client-side spans and `ServerStats`; library-pass times are means per
/// query; counts are totals over the pass.
pub fn traced_record(
    p: &Prepared,
    service: &ServicePass,
    library: &LibraryPass,
    kernel_ns_per_row: f64,
    tracer: &Tracer,
) -> RunRecord {
    let ops = library.ops as f64;
    let c = &library.counters;
    let mean_ns = |name: &str| ratio(tracer.durations(name).iter().sum::<u64>() as f64, ops);
    let p50 = |name: &str| {
        let mut d = tracer.durations(name);
        d.sort_unstable();
        percentile(&d, 0.5) as f64
    };
    let scan_ns = mean_ns("engine.scan");
    let (query_ns, child_ns) = tracer.coverage("query");
    let coverage = ratio(child_ns as f64, query_ns as f64);
    let stats = &service.stats;
    let dropped = stats.feedback_dropped as f64;
    let values = [
        ("storage.kernel_ns_per_row", kernel_ns_per_row),
        ("storage.rows_scanned", c.rows_scanned as f64),
        ("engine.scan_ns", scan_ns),
        (
            "engine.scan_overhead_ns",
            scan_ns - ratio(c.rows_scanned as f64, ops) * kernel_ns_per_row,
        ),
        ("engine.rows_full_match", c.rows_full_match as f64),
        ("core.prune_ns", mean_ns("core.prune")),
        ("core.zones_probed", c.zones_probed as f64),
        ("core.zones_skipped", c.zones_skipped as f64),
        (
            "core.skip_ratio",
            1.0 - ratio(c.rows_scanned as f64, ops * library.rows as f64),
        ),
        ("core.feedback_ns", mean_ns("core.feedback")),
        ("core.reorg_ns", mean_ns("core.reorg")),
        ("core.tiers_ns", mean_ns("core.tiers")),
        ("core.revival_ns", mean_ns("core.revival")),
        ("core.adapt_events", c.adapt_events as f64),
        ("core.zones", c.zones as f64),
        ("core.metadata_bytes", c.metadata_bytes as f64),
        ("core.tiers_built", c.tiers_built as f64),
        ("core.tiers_dropped", c.tiers_dropped as f64),
        ("core.tier_skips", c.tier_skips as f64),
        ("server.request_p50_us", p50("client.request") / 1e3),
        ("server.exec_p50_us", p50("server.exec") / 1e3),
        ("server.queue_wait_p50_us", p50("server.queue_wait") / 1e3),
        (
            "server.latency_p99_us",
            percentile(&service.latencies_ns, 0.99) as f64 / 1e3,
        ),
        (
            "server.latency_p999_us",
            percentile(&service.latencies_ns, 0.999) as f64 / 1e3,
        ),
        ("server.publish_ns", mean_ns("server.publish")),
        ("server.feedback_applied", stats.feedback_applied as f64),
        ("server.feedback_dropped", dropped),
        (
            "server.feedback_drop_ratio",
            ratio(dropped, dropped + stats.feedback_applied as f64),
        ),
        ("server.adaptation_lag", service.adaptation_lag as f64),
        (
            "server.snapshots_published",
            stats.snapshots_published as f64,
        ),
        ("server.shards_republished", stats.shards_republished as f64),
        ("server.republish_bytes", stats.republish_bytes as f64),
        ("server.mutation_ack_p50_us", p50("server.mutate") / 1e3),
        ("server.compact_ack_p50_ms", p50("server.compact") / 1e6),
        ("server.mutations_applied", stats.mutations_applied as f64),
        ("server.rows_reclaimed", stats.rows_reclaimed as f64),
        (
            "server.trace_overhead_pct",
            100.0 * (1.0 - ratio(service.qps_traced, service.qps_untraced)),
        ),
        ("library.query_ns", ratio(query_ns as f64, ops)),
        ("library.span_coverage", coverage),
        ("workloads.gen_s", p.gen_s),
    ];
    let failed = service.tally.failed + library.wrong;
    RunRecord {
        workload: p.workload.name,
        seed: p.seed,
        traced: true,
        // Children must account for the query span, or the per-layer
        // numbers do not sum to the whole and mean nothing.
        correct: failed == 0 && coverage >= 0.95,
        attempted: service.tally.attempted + library.ops,
        failed,
        metrics: in_table_order(&PER_LAYER, &values),
        samples: Json::obj([
            (
                "traced_latency_samples",
                Json::num(service.latencies_ns.len() as f64),
            ),
            ("library_ops", Json::num(ops)),
            (
                "library_checksum",
                Json::str(format!("{:016x}", c.checksum)),
            ),
            ("kernel_passes", Json::num(KERNEL_PASSES as f64)),
            ("spans", Json::num(tracer.spans().len() as f64)),
            ("qps_untraced", Json::num(service.qps_untraced)),
            ("qps_traced", Json::num(service.qps_traced)),
        ]),
    }
}

impl RunRecord {
    /// The contract's result object: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> Json {
        let metrics = self.metrics.iter().map(|(def, value)| {
            (
                def.name,
                Json::obj([("value", Json::num(*value)), ("unit", Json::str(def.unit))]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::num(self.attempted.max(1) as f64)),
            ("failed", Json::num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// The result object plus what identifies the run, for result files.
    pub fn to_json(&self) -> Json {
        let Json::Obj(mut pairs) = self.result_line() else {
            unreachable!("result_line builds an object")
        };
        pairs.splice(
            0..0,
            [
                ("workload".to_string(), Json::str(self.workload)),
                ("seed".to_string(), Json::num(self.seed as f64)),
                (
                    "trace".to_string(),
                    Json::num(f64::from(u8::from(self.traced))),
                ),
            ],
        );
        pairs.push(("samples".to_string(), self.samples.clone()));
        Json::Obj(pairs)
    }

    /// One line per metric: name, value, unit.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (def, value) in &self.metrics {
            out.push_str(&format!(
                "{:<22} {:<28} {:>16.4} {}\n",
                self.workload, def.name, value, def.unit
            ));
        }
        out
    }
}

/// The revision of the checkout the benchmark was built in, read from
/// `.git` beside the benchmark's directory; `unknown` outside a git
/// checkout (the driver's checkouts are not repositories).
fn git_rev() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |rel: &str| std::fs::read_to_string(git.join(rel)).ok();
    let rev = read("HEAD").and_then(|head| match head.trim().strip_prefix("ref: ") {
        None => Some(head.trim().to_string()),
        Some(reference) => read(reference).map(|r| r.trim().to_string()).or_else(|| {
            read("packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
        }),
    });
    rev.map_or_else(|| "unknown".into(), |r| r.chars().take(12).collect())
}

fn metric_defs(defs: &[MetricDef]) -> Json {
    Json::Arr(
        defs.iter()
            .map(|d| {
                let mut pairs = vec![
                    ("name", Json::str(d.name)),
                    ("unit", Json::str(d.unit)),
                    ("better", Json::str(d.better.label())),
                ];
                if let Some(bound) = d.bound {
                    pairs.push(("bound", Json::num(bound)));
                }
                Json::obj(pairs)
            })
            .collect(),
    )
}

/// What every result file starts with: where, when and how the numbers
/// were taken, and what each metric means.
pub fn envelope(seed: u64, rows: usize, seconds: f64) -> Json {
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    Json::obj([
        ("schema", Json::str(SCHEMA)),
        ("git_rev", Json::str(git_rev())),
        ("rustc", Json::str(env!("ADS_BENCH_RUSTC"))),
        ("host_cores", Json::num(cores as f64)),
        ("seed", Json::num(seed as f64)),
        ("rows", Json::num(rows as f64)),
        ("window_s", Json::num(seconds)),
        ("repetitions", Json::num(REPS as f64)),
        ("slices", Json::num(SLICES as f64)),
        ("slice_s", Json::num(seconds / (REPS * SLICES) as f64)),
        ("end_to_end", metric_defs(&END_TO_END)),
        ("per_layer", metric_defs(&PER_LAYER)),
    ])
}

/// Writes `{"envelope": …, "runs": […]}` to `path`.
pub fn write_result_file(path: &Path, envelope: Json, runs: Vec<Json>) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let doc = Json::obj([("envelope", envelope), ("runs", Json::Arr(runs))]);
    std::fs::write(path, format!("{doc}\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Repetition `r` reads `base[r] + 100 k` at slice position `k`.
    fn reps(base: [f64; 3]) -> Vec<Repetition> {
        base.iter()
            .map(|b| Repetition {
                setup_s: 1.0,
                slices: (0..SLICES)
                    .map(|k| Window {
                        qps: b + 100.0 * k as f64,
                        p50_us: b + 100.0 * k as f64,
                        p95_us: b + 100.0 * k as f64,
                        latencies_ns: Vec::new(),
                    })
                    .collect(),
                peak_heap_mb: 1.0,
            })
            .collect()
    }

    #[test]
    fn steady_ranks_per_position_and_trims_positions() {
        let mut r = reps([10.0, 30.0, 20.0]);
        // Positions read b, b+100, …, b+400: the trimmed mean is b+200.
        assert_eq!(steady(&r, |w| w.qps, Better::Higher, 2), 225.0);
        assert_eq!(steady(&r, |w| w.p50_us, Better::Lower, 2), 215.0);
        assert_eq!(steady(&r, |w| w.p95_us, Better::Lower, 1), 210.0);
        // A position at which every repetition was disturbed is the one
        // dropped: the result stays among the undisturbed positions.
        for rep in &mut r {
            rep.slices[2].p95_us = 1e9;
        }
        let kept = (110.0 + 310.0 + 410.0) / 3.0;
        assert_eq!(steady(&r, |w| w.p95_us, Better::Lower, 1), kept);
    }
}
