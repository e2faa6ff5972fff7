//! What the benchmark runs and what it reports: the five workloads, the
//! fixed load shape, and the metric tables. `tests/selftest.rs` holds these
//! tables equal to `BENCHMARK.json`, both directions.

use ads_core::adaptive::AdaptiveConfig;
use ads_core::RangePredicate;
use ads_engine::AggKind;
use ads_server::{AdaptationMode, ServerConfig};
use ads_workloads::{DataSpec, QuerySpec};

/// Value domain of the one `i64` column.
pub const DOMAIN: i64 = 1_000_000;
/// Predicates generated per workload; requests cycle through them.
pub const POOL: usize = 8_192;
/// Shards of the service (and of the library pass that mirrors it).
pub const SHARDS: usize = 2;
/// Repetitions (fresh service, timed set-up, window) of a tracing-off run.
pub const REPS: usize = 3;
/// Consecutive slices a repetition's window is cut into. A time metric is
/// taken per slice, the best of the repetitions is kept at each slice
/// position, and the run reports the median over positions
/// (`report::timed_record`).
pub const SLICES: usize = 5;
/// Whole-column passes per kernel in the raw-kernel calibration.
pub const KERNEL_PASSES: usize = 5;
/// On `mixed-churn`: a mutation batch follows every this-many queries.
pub const CHURN_EVERY: usize = 25;
/// Mutations per batch, alternating `Delete` / `Update`.
pub const CHURN_BATCH: usize = 256;
/// `compact()` follows every this-many batches.
pub const COMPACT_EVERY: u64 = 32;
/// On `mixed-churn`, one reply in this many is kept and replayed against
/// the mirror after the window.
pub const SAMPLE_EVERY: usize = 64;
/// Queries checked against the mirror after the final `flush()`.
pub const POST_FLUSH_QUERIES: usize = 64;

/// The aggregate of request `i`: COUNT, COUNT, COUNT, SUM, cycled.
pub fn agg_of(i: usize) -> AggKind {
    if i % 4 == 3 {
        AggKind::Sum
    } else {
        AggKind::Count
    }
}

/// One benchmark workload. `why` is the one-line reason in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Fixed name; later issues refer to it.
    pub name: &'static str,
    /// Why it exists: which layer it loads or bypasses.
    pub why: &'static str,
    /// Data distribution.
    pub data: DataSpec,
    /// Query distribution.
    pub queries: QuerySpec,
    /// `AdaptiveConfig::with_tiers()` instead of the default config.
    pub tiers: bool,
    /// Mutation batches and compactions ride beside the queries.
    pub churn: bool,
    /// Operations of the cold warm-up that `setup_s` times after `start`.
    pub warmup_ops: usize,
    /// Queries of the single-threaded library pass of the traced run.
    pub library_ops: usize,
}

/// The five workloads, in the order `setup_s` warm-up counts are listed.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "clustered-hotspot",
        why: "clustered data, 1% shifting hotspot: bounds skip most zones, split/merge and publication never go quiet (core+server)",
        // 256 clusters and 64 phases (not 64 and 8): cost is then a mean
        // over thousands of cluster/hotspot overlaps, so it barely moves
        // with the seed. With 8 hotspot centres it moved by ~20 %.
        data: DataSpec::Clustered { clusters: 256 },
        queries: QuerySpec::ShiftingHotspot {
            selectivity: 0.01,
            phases: 64,
        },
        tiers: false,
        churn: false,
        warmup_ops: 8_192,
        library_ops: 4_000,
    },
    Workload {
        name: "uniform-scan",
        why: "uniform data, 1% ranges: nothing can be skipped, every query scans the column; kernels do the work, metadata must switch off",
        data: DataSpec::Uniform,
        queries: QuerySpec::UniformRandom { selectivity: 0.01 },
        tiers: false,
        churn: false,
        warmup_ops: 512,
        library_ops: 400,
    },
    Workload {
        name: "sorted-point",
        why: "almost-sorted data, point lookups: tiny queries, time is request hand-off, prune and feedback; storage is bypassed",
        data: DataSpec::AlmostSorted { noise: 0.05 },
        queries: QuerySpec::Points,
        tiers: false,
        churn: false,
        warmup_ops: 65_536,
        library_ops: 20_000,
    },
    Workload {
        name: "sawtooth-point-tiers",
        why: "sawtooth data, point lookups, tiers on: bounds exclude nothing, the bloom tier does the skipping (tier build and consult)",
        data: DataSpec::Sawtooth { periods: 64 },
        queries: QuerySpec::Points,
        tiers: true,
        churn: false,
        warmup_ops: 8_192,
        library_ops: 20_000,
    },
    Workload {
        name: "mixed-churn",
        why: "mixed regions, 1% ranges beside delete/update batches and compactions: a read-path gain that costs the write path shows",
        data: DataSpec::MixedRegions,
        queries: QuerySpec::UniformRandom { selectivity: 0.01 },
        tiers: false,
        churn: true,
        warmup_ops: 1_024,
        library_ops: 400,
    },
];

impl Workload {
    /// The workload called `name`.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The service configuration every workload shares: one reader, two
    /// shards, async adaptation — at most two busy threads on the 2-core
    /// host. Only the adaptive config differs (tiers on one workload).
    pub fn server_config(&self) -> ServerConfig {
        ServerConfig {
            readers: 1,
            shards: SHARDS,
            adaptation: AdaptationMode::Async,
            adaptive: self.adaptive_config(),
            compact_tombstone_ratio: None,
            ..ServerConfig::default()
        }
    }

    /// The zonemap configuration.
    pub fn adaptive_config(&self) -> AdaptiveConfig {
        if self.tiers {
            AdaptiveConfig::with_tiers()
        } else {
            AdaptiveConfig::default()
        }
    }
}

/// Input sizes: full scale, or the `--smoke` scale the self-tests use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Rows of the column.
    pub rows: usize,
    /// Divisor applied to warm-up and library-pass operation counts.
    pub ops_div: usize,
}

impl Scale {
    /// 4,000,000 rows (32 MB: larger than the last-level cache).
    pub const FULL: Scale = Scale {
        rows: 4_000_000,
        ops_div: 1,
    };
    /// 200,000 rows, a tenth of the operations.
    pub const SMOKE: Scale = Scale {
        rows: 200_000,
        ops_div: 10,
    };

    /// Warm-up operations of `w` at this scale.
    pub fn warmup_ops(&self, w: &Workload) -> usize {
        w.warmup_ops / self.ops_div
    }

    /// Library-pass queries of `w` at this scale.
    pub fn library_ops(&self, w: &Workload) -> usize {
        w.library_ops / self.ops_div
    }
}

/// The predicate of a generated range query.
pub fn predicate(q: &ads_workloads::RangeQuery) -> RangePredicate<i64> {
    RangePredicate::between(q.lo, q.hi)
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn label(&self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// it is a regression; end-to-end metrics only.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the service sees; printed by a `--trace 0` run.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("throughput_qps", "1/s", Higher, 0.25),
    e2e("latency_p50_us", "us", Lower, 0.25),
    e2e("latency_p95_us", "us", Lower, 0.25),
    e2e("peak_heap_mb", "MB", Lower, 0.15),
];

/// Single-layer numbers; printed by a `--trace 1` run. Prefix = crate.
/// Every `*_ns` from the library pass is a mean per query.
pub const PER_LAYER: [MetricDef; 40] = [
    layer("storage.kernel_ns_per_row", "ns/row", Lower),
    layer("storage.rows_scanned", "count", Lower),
    layer("engine.scan_ns", "ns", Lower),
    layer("engine.scan_overhead_ns", "ns", Lower),
    layer("engine.rows_full_match", "count", Higher),
    layer("core.prune_ns", "ns", Lower),
    layer("core.zones_probed", "count", Lower),
    layer("core.zones_skipped", "count", Higher),
    layer("core.skip_ratio", "ratio", Higher),
    layer("core.feedback_ns", "ns", Lower),
    layer("core.reorg_ns", "ns", Lower),
    layer("core.tiers_ns", "ns", Lower),
    layer("core.revival_ns", "ns", Lower),
    layer("core.adapt_events", "count", Lower),
    layer("core.zones", "count", Lower),
    layer("core.metadata_bytes", "bytes", Lower),
    layer("core.tiers_built", "count", Lower),
    layer("core.tiers_dropped", "count", Lower),
    layer("core.tier_skips", "count", Higher),
    layer("server.request_p50_us", "us", Lower),
    layer("server.exec_p50_us", "us", Lower),
    layer("server.queue_wait_p50_us", "us", Lower),
    layer("server.latency_p99_us", "us", Lower),
    layer("server.latency_p999_us", "us", Lower),
    layer("server.publish_ns", "ns", Lower),
    layer("server.feedback_applied", "count", Higher),
    layer("server.feedback_dropped", "count", Lower),
    layer("server.feedback_drop_ratio", "ratio", Lower),
    layer("server.adaptation_lag", "count", Lower),
    layer("server.snapshots_published", "count", Lower),
    layer("server.shards_republished", "count", Lower),
    layer("server.republish_bytes", "bytes", Lower),
    layer("server.mutation_ack_p50_us", "us", Lower),
    layer("server.compact_ack_p50_ms", "ms", Lower),
    layer("server.mutations_applied", "count", Higher),
    layer("server.rows_reclaimed", "count", Higher),
    layer("server.trace_overhead_pct", "%", Lower),
    layer("library.query_ns", "ns", Lower),
    layer("library.span_coverage", "ratio", Higher),
    layer("workloads.gen_s", "s", Lower),
];
