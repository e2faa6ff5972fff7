//! Common experiment machinery: replay one query workload against one
//! strategy and collect everything the reports need (E1–E15), the
//! closed-loop client driver of the service experiments (E16, E17, E22), the
//! engine's inline loop over one zonemap (E19, E21), and the checksum
//! cross-check every grid uses to prove its cells did identical work.

use ads_core::adaptive::AdaptiveZonemap;
use ads_core::RangePredicate;
use ads_engine::{
    execute_with_policy, AggKind, ColumnSession, CumulativeMetrics, ExecPolicy, QueryMetrics,
    Strategy,
};
use ads_server::QueryService;
use ads_workloads::{queries, RangeQuery};
use std::time::Instant;

/// Experiment sizing, overridable from the harness command line.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Rows per column.
    pub rows: usize,
    /// Queries per workload.
    pub queries: usize,
    /// Value domain `[0, domain)`.
    pub domain: i64,
    /// Workload seed.
    pub seed: u64,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            rows: 2_000_000,
            queries: 300,
            domain: 1_000_000,
            seed: 42,
        }
    }
}

impl Scale {
    /// A fast configuration for smoke runs (`harness --quick`).
    pub fn quick() -> Self {
        Scale {
            rows: 200_000,
            queries: 60,
            ..Scale::default()
        }
    }
}

/// Everything one strategy replay produced.
#[derive(Debug, Clone)]
pub struct ReplayResult {
    /// The built index's display name.
    pub label: String,
    /// Cumulative metrics over the whole sequence.
    pub totals: CumulativeMetrics,
    /// Per-query metrics in order.
    pub history: Vec<QueryMetrics>,
    /// Metadata bytes at the end of the run.
    pub metadata_bytes: usize,
    /// Data-copy bytes at the end of the run.
    pub data_copy_bytes: usize,
    /// Sum of all query counts — equal across strategies on the same
    /// workload, which every experiment asserts as a built-in soundness
    /// check.
    pub answer_checksum: u64,
}

impl ReplayResult {
    /// Mean per-query latency in nanoseconds.
    pub fn mean_ns(&self) -> f64 {
        self.totals.mean_latency_ns()
    }

    /// Speedup of this replay relative to `baseline` on query time only.
    pub fn speedup_vs(&self, baseline: &ReplayResult) -> f64 {
        baseline.totals.wall_ns as f64 / self.totals.wall_ns.max(1) as f64
    }

    /// Speedup including index build time.
    pub fn speedup_with_build_vs(&self, baseline: &ReplayResult) -> f64 {
        baseline.totals.total_with_build_ns() as f64
            / self.totals.total_with_build_ns().max(1) as f64
    }
}

/// Replays `queries` (as COUNT aggregates) over `data` with `strategy`.
pub fn replay(data: &[i64], queries: &[RangeQuery], strategy: &Strategy) -> ReplayResult {
    replay_with_policy(
        data,
        queries,
        strategy,
        AggKind::Count,
        ExecPolicy::default(),
    )
}

/// Replays with an explicit aggregate kind and execution policy (E15).
pub fn replay_with_policy(
    data: &[i64],
    queries: &[RangeQuery],
    strategy: &Strategy,
    agg: AggKind,
    policy: ExecPolicy,
) -> ReplayResult {
    let mut session = ColumnSession::new(data.to_vec(), strategy)
        .record_history(true)
        .with_exec_policy(policy);
    let mut checksum = 0u64;
    for q in queries {
        let (answer, _) = session.query(RangePredicate::between(q.lo, q.hi), agg);
        checksum = checksum.wrapping_add(answer.count);
    }
    let (metadata_bytes, data_copy_bytes) = session.index_bytes();
    ReplayResult {
        label: session.label().to_string(),
        totals: *session.totals(),
        history: session.history().to_vec(),
        metadata_bytes,
        data_copy_bytes,
        answer_checksum: checksum,
    }
}

/// Asserts that every replay answered the workload identically.
///
/// # Panics
/// Panics when two strategies disagree — a soundness bug, not a
/// performance artifact, so experiments refuse to report.
pub fn assert_same_answers(results: &[ReplayResult]) {
    let mut reference = Vec::new();
    for r in results {
        cross_check(&mut reference, &[r.answer_checksum], &r.label);
    }
}

/// Host cores — context for every number that depends on threads.
pub(crate) fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The query streams of E16/E17's closed-loop clients: `scale.queries`
/// ranges (5 % of the value domain) each. A client's stream depends only
/// on its index, so the same client asks the same questions of every
/// service configuration.
pub(crate) fn client_streams(clients: usize, scale: Scale) -> Vec<Vec<RangeQuery>> {
    (0..clients)
        .map(|client| {
            let seed = scale.seed ^ (client as u64).wrapping_mul(0x9E37_79B9);
            queries::uniform_ranges(scale.queries, scale.domain, 0.05, seed)
        })
        .collect()
}

/// The closed-loop client driver: one thread per stream, each submitting
/// its queries as COUNTs back-to-back through [`QueryService::query`]. A
/// stream is pulled one query at a time from its client's thread, so it
/// may be a fixed list (E16, E17) or decide from the clock when to end
/// (E22). Returns the wall time of the loop and the per-client answer
/// checksums.
pub(crate) fn closed_loop<I>(svc: &QueryService<i64>, streams: Vec<I>) -> (u64, Vec<u64>)
where
    I: IntoIterator<Item = RangeQuery> + Send,
{
    let t0 = Instant::now();
    let checksums = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .map(|stream| {
                scope.spawn(move || {
                    let mut checksum = 0u64;
                    for q in stream {
                        let pred = RangePredicate::between(q.lo, q.hi);
                        let reply = svc.query(pred, AggKind::Count).expect("closed loop");
                        checksum =
                            checksum.wrapping_add(reply.answer().expect("no deadline").count);
                    }
                    checksum
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    (t0.elapsed().as_nanos() as u64, checksums)
}

/// The checksum cross-check: `sums[i]` (client `i`'s answers, or a
/// single-stream cell's one checksum) must equal what the first cell that
/// ran stream `i` recorded in `reference`.
///
/// # Panics
/// Panics when two configurations answered the same stream differently —
/// a soundness bug, so the experiment refuses to report.
pub(crate) fn cross_check(reference: &mut Vec<u64>, sums: &[u64], ctx: &str) {
    for (i, &sum) in sums.iter().enumerate() {
        match reference.get(i) {
            Some(&want) => assert_eq!(
                sum, want,
                "{ctx}: answers to stream {i} disagree with the first configuration that ran it"
            ),
            None => reference.push(sum),
        }
    }
}

/// What one pass of [`inline_loop`] measured.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InlineRun {
    /// Wall time of the query loop, adaptation included.
    pub elapsed_ns: u64,
    /// Rows the scan phase touched across all queries (full-match and
    /// positional-match rows excluded).
    pub rows_scanned: u64,
    /// Order-sensitive fold of every answer (counts plus exact sum bit
    /// patterns).
    pub checksum: u64,
}

/// Runs `stream` through the engine's inline loop (prune → scan → observe
/// → maintain) over `zm`, so the zonemap pays its adaptation on the query
/// path, exactly where the paper charges it. COUNT and SUM alternate, so
/// both the count path and the order-sensitive aggregation path run.
pub(crate) fn inline_loop(
    data: &[i64],
    zm: &mut AdaptiveZonemap<i64>,
    stream: &[RangeQuery],
) -> InlineRun {
    let policy = ExecPolicy::sequential();
    let mut run = InlineRun {
        elapsed_ns: 0,
        rows_scanned: 0,
        checksum: 0,
    };
    let t0 = Instant::now();
    for (i, q) in stream.iter().enumerate() {
        let agg = [AggKind::Count, AggKind::Sum][i % 2];
        let pred = RangePredicate::between(q.lo, q.hi);
        let (ans, m) = execute_with_policy(data, zm, pred, agg, &policy);
        run.checksum = run
            .checksum
            .wrapping_mul(0x0100_0000_01B3)
            .wrapping_add(ans.count)
            .wrapping_add(ans.sum.map_or(0, f64::to_bits));
        run.rows_scanned += m.rows_scanned as u64;
    }
    run.elapsed_ns = t0.elapsed().as_nanos() as u64;
    run
}

/// Mean latency (ns) of a window `[from, to)` of the per-query history.
pub fn window_mean_ns(history: &[QueryMetrics], from: usize, to: usize) -> f64 {
    let to = to.min(history.len());
    if from >= to {
        return 0.0;
    }
    history[from..to].iter().map(|m| m.wall_ns).sum::<u64>() as f64 / (to - from) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ads_workloads::{DataSpec, QuerySpec};

    #[test]
    fn replay_is_reproducible_and_consistent() {
        let scale = Scale {
            rows: 20_000,
            queries: 30,
            ..Scale::default()
        };
        let data = DataSpec::AlmostSorted { noise: 0.05 }.generate(scale.rows, scale.domain, 1);
        let qs =
            QuerySpec::UniformRandom { selectivity: 0.01 }.generate(scale.queries, scale.domain, 2);
        let results: Vec<ReplayResult> = Strategy::roster()
            .iter()
            .map(|s| replay(&data, &qs, s))
            .collect();
        assert_same_answers(&results);
        for r in &results {
            assert_eq!(r.history.len(), 30);
            assert_eq!(r.totals.queries, 30);
            assert!(r.mean_ns() > 0.0);
        }
    }

    #[test]
    fn speedup_is_relative() {
        let data = DataSpec::Sorted.generate(100_000, 1_000_000, 1);
        let qs = QuerySpec::UniformRandom { selectivity: 0.001 }.generate(50, 1_000_000, 2);
        let slow = replay(&data, &qs, &Strategy::FullScan);
        let fast = replay(&data, &qs, &Strategy::StaticZonemap { zone_rows: 4096 });
        assert!(
            fast.speedup_vs(&slow) > 1.0,
            "zonemap should win on sorted data"
        );
        assert!((slow.speedup_vs(&slow) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn window_mean() {
        let h = vec![
            QueryMetrics {
                wall_ns: 10,
                ..Default::default()
            },
            QueryMetrics {
                wall_ns: 30,
                ..Default::default()
            },
        ];
        assert_eq!(window_mean_ns(&h, 0, 2), 20.0);
        assert_eq!(window_mean_ns(&h, 1, 2), 30.0);
        assert_eq!(window_mean_ns(&h, 2, 2), 0.0);
        assert_eq!(window_mean_ns(&h, 0, 100), 20.0);
    }

    #[test]
    #[should_panic(expected = "disagree")]
    fn mismatched_answers_panic() {
        let a = ReplayResult {
            label: "a".into(),
            totals: CumulativeMetrics::default(),
            history: vec![],
            metadata_bytes: 0,
            data_copy_bytes: 0,
            answer_checksum: 1,
        };
        let mut b = a.clone();
        b.label = "b".into();
        b.answer_checksum = 2;
        assert_same_answers(&[a, b]);
    }
}
