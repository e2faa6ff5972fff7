//! The demo shell's command interpreter, separated from stdin handling so
//! every command is unit-testable.

use ads_core::adaptive::{AdaptiveConfig, AdaptiveZonemap};
use ads_core::RangePredicate;
use ads_engine::{
    AggKind, AnyPredicate, ColumnSession, ExecPolicy, PlanMode, Strategy, TableSession,
};
use ads_server::{AdaptationMode, QueryService, ServerConfig};
use ads_storage::{Column, Table};
use ads_workloads::{DataSpec, QuerySpec};
use std::fmt::Write as _;

/// Interpreter state: one loaded column, one strategy, one session.
pub struct Repl {
    session: Option<ColumnSession<i64>>,
    /// Two-column companion session for `explain`, built lazily from the
    /// loaded data and dropped whenever data or strategy changes.
    table_session: Option<TableSession>,
    data_label: String,
    strategy: Strategy,
    domain: i64,
    seed: u64,
    policy: ExecPolicy,
}

impl Default for Repl {
    fn default() -> Self {
        Repl {
            session: None,
            table_session: None,
            data_label: String::new(),
            strategy: Strategy::Adaptive(AdaptiveConfig::default()),
            domain: 1_000_000,
            seed: 42,
            policy: ExecPolicy::default(),
        }
    }
}

const HELP: &str = "\
commands:
  load <dist> <rows>         load a column: sorted | semi | clustered | uniform |
                             zipf | sawtooth | mixed
  strategy <name> [param]    fullscan | static [zone_rows] | adaptive | tiers |
                             lazy | imprints | cracking | oracle
  count <lo> <hi>            COUNT rows with lo <= v <= hi
  sum <lo> <hi>              SUM of qualifying values
  workload <kind> <n> <sel%> replay n queries: uniform | hotspot | shift | sweep
  explain <lo_a> <hi_a> <lo_b> <hi_b> [planned|fixed|reversed|fallback]
                             run a two-column conjunction (a = loaded data,
                             b = clustered companion) and show the probe plan
  zones                      show adaptive zonemap structure (adaptive strategy only)
  trace                      recent adaptation events (adaptive strategy only)
  stats                      session totals (with phase breakdown)
  threads <n>                scan-phase worker threads (1 = sequential)
  append <rows>              append a fresh batch to the column
  compare <n> <sel%>         replay a workload across all strategies
  serve <dist> <rows> <readers> <n> [async|frozen]
                             stress the concurrent query service: <readers>
                             closed-loop clients x <n> queries each
  help                       this text
  quit                       exit";

impl Repl {
    /// Creates a fresh interpreter.
    pub fn new() -> Self {
        Repl::default()
    }

    fn parse_dist(name: &str) -> Option<DataSpec> {
        Some(match name {
            "sorted" => DataSpec::Sorted,
            "semi" | "semi-sorted" => DataSpec::AlmostSorted { noise: 0.05 },
            "clustered" => DataSpec::Clustered { clusters: 64 },
            "uniform" | "random" => DataSpec::Uniform,
            "zipf" => DataSpec::Zipf { theta: 0.99 },
            "sawtooth" => DataSpec::Sawtooth { periods: 32 },
            "mixed" => DataSpec::MixedRegions,
            _ => return None,
        })
    }

    fn parse_strategy(words: &[&str]) -> Option<Strategy> {
        let zone_rows = words.get(1).and_then(|w| w.parse().ok()).unwrap_or(4096);
        Some(match words[0] {
            "fullscan" | "none" => Strategy::FullScan,
            "static" => Strategy::StaticZonemap { zone_rows },
            "adaptive" => Strategy::Adaptive(AdaptiveConfig::default()),
            "tiers" => Strategy::Adaptive(AdaptiveConfig::with_tiers()),
            "lazy" => Strategy::Adaptive(AdaptiveConfig::lazy_only()),
            "imprints" => Strategy::Imprints {
                values_per_line: 8,
                bins: 64,
            },
            "cracking" => Strategy::Cracking,
            "oracle" | "sorted" => Strategy::SortedOracle,
            _ => return None,
        })
    }

    fn session(&mut self) -> Result<&mut ColumnSession<i64>, String> {
        self.session
            .as_mut()
            .ok_or_else(|| "no column loaded — try: load mixed 1000000".to_string())
    }

    fn rebuild_session(&mut self, data: Vec<i64>, label: String) {
        self.data_label = label;
        self.table_session = None;
        self.session = Some(
            ColumnSession::new(data, &self.strategy)
                .record_history(true)
                .with_exec_policy(self.policy),
        );
    }

    /// The lazily-built companion table session for `explain`: column `a`
    /// is the loaded data, column `b` a clustered companion of equal
    /// length, both indexed under the current strategy.
    fn table_session(&mut self) -> Result<&mut TableSession, String> {
        if self.table_session.is_none() {
            let data = self.session()?.data().to_vec();
            let b = ads_workloads::data::clustered(data.len(), 64, 0.02, self.domain, self.seed);
            let mut t = Table::new("repl");
            t.add_column("a", Column::from_values(data))
                .map_err(|e| e.to_string())?;
            t.add_column("b", Column::from_values(b))
                .map_err(|e| e.to_string())?;
            let ts = TableSession::new(t, &self.strategy, &["a", "b"])
                .map_err(|e| format!("explain: {e}"))?;
            self.table_session = Some(ts);
        }
        // invariant: the branch above just filled the option.
        Ok(self.table_session.as_mut().expect("just built"))
    }

    fn zones_strip(&self) -> Option<String> {
        let session = self.session.as_ref()?;
        let zm = session
            .index()
            .as_any()
            .downcast_ref::<AdaptiveZonemap<i64>>()?;
        const WIDTH: usize = 72;
        let len = session.len().max(1);
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
        let (u, b, d) = zm.state_counts();
        Some(format!(
            "[{}]\nzones: {} total — {u} unbuilt, {b} built, {d} dead   (. unbuilt  # built  ~ inherited  x dead)",
            chars.into_iter().collect::<String>(),
            zm.num_zones()
        ))
    }

    /// Executes one command line, returning the text to print.
    pub fn handle(&mut self, line: &str) -> Result<String, String> {
        let words: Vec<&str> = line.split_whitespace().collect();
        let Some(&cmd) = words.first() else {
            return Ok(String::new());
        };
        match cmd {
            "help" | "?" => Ok(HELP.to_string()),
            "load" => {
                let (Some(dist), Some(rows)) = (
                    words.get(1).and_then(|w| Self::parse_dist(w)),
                    words.get(2).and_then(|w| w.parse::<usize>().ok()),
                ) else {
                    return Err("usage: load <dist> <rows>".into());
                };
                let data = dist.generate(rows, self.domain, self.seed);
                self.rebuild_session(data, dist.label());
                // invariant: rebuild_session always sets self.session.
                let session = self.session.as_ref().expect("just built");
                Ok(format!(
                    "loaded {} rows of {} data; index: {} (built in {:.2}ms)",
                    rows,
                    self.data_label,
                    session.label(),
                    session.totals().build_ns as f64 / 1e6
                ))
            }
            "strategy" => {
                let Some(strategy) = words.get(1).and_then(|_| Self::parse_strategy(&words[1..]))
                else {
                    return Err("usage: strategy <fullscan|static|adaptive|tiers|lazy|imprints|cracking|oracle> [zone_rows]".into());
                };
                self.strategy = strategy;
                if let Some(session) = self.session.take() {
                    // Rebuild over the same data.
                    let data = session.data().to_vec();
                    let label = self.data_label.clone();
                    self.rebuild_session(data, label);
                }
                Ok(format!("strategy set to {}", self.strategy.label()))
            }
            "count" | "sum" => {
                let (Some(lo), Some(hi)) = (
                    words.get(1).and_then(|w| w.parse::<i64>().ok()),
                    words.get(2).and_then(|w| w.parse::<i64>().ok()),
                ) else {
                    return Err(format!("usage: {cmd} <lo> <hi>"));
                };
                if lo > hi {
                    return Err("lo must be <= hi".into());
                }
                let agg = if cmd == "count" {
                    AggKind::Count
                } else {
                    AggKind::Sum
                };
                let session = self.session()?;
                let (answer, m) = session.query(RangePredicate::between(lo, hi), agg);
                let mut out = String::new();
                match agg {
                    AggKind::Count => {
                        let _ = write!(out, "count = {}", answer.count);
                    }
                    _ => {
                        let _ = write!(
                            out,
                            "sum = {:.0} over {} rows",
                            answer.sum.unwrap_or(0.0),
                            answer.count
                        );
                    }
                }
                let _ = write!(
                    out,
                    "   [{:.3}ms, scanned {} rows, probed {} zones, skipped {}]",
                    m.wall_ns as f64 / 1e6,
                    m.rows_scanned,
                    m.zones_probed,
                    m.zones_skipped
                );
                Ok(out)
            }
            "workload" => {
                let (Some(kind), Some(n), Some(sel)) = (
                    words.get(1).copied(),
                    words.get(2).and_then(|w| w.parse::<usize>().ok()),
                    words.get(3).and_then(|w| w.parse::<f64>().ok()),
                ) else {
                    return Err("usage: workload <uniform|hotspot|shift|sweep> <n> <sel%>".into());
                };
                let selectivity = sel / 100.0;
                let spec = match kind {
                    "uniform" => QuerySpec::UniformRandom { selectivity },
                    "hotspot" => QuerySpec::Hotspot {
                        selectivity,
                        center: 0.5,
                    },
                    "shift" => QuerySpec::ShiftingHotspot {
                        selectivity,
                        phases: 3,
                    },
                    "sweep" => QuerySpec::Sweep { selectivity },
                    _ => return Err("unknown workload kind".into()),
                };
                let queries = spec.generate(n, self.domain, self.seed ^ 0x77);
                let session = self.session()?;
                let start = session.history().len();
                let mut matched = 0u64;
                for q in &queries {
                    matched += session.count(RangePredicate::between(q.lo, q.hi));
                }
                let history = &session.history()[start..];
                let first = history.first().map_or(0, |m| m.wall_ns);
                let last10: u64 = history
                    .iter()
                    .rev()
                    .take(10)
                    .map(|m| m.wall_ns)
                    .sum::<u64>()
                    / history.len().clamp(1, 10) as u64;
                let total: u64 = history.iter().map(|m| m.wall_ns).sum();
                Ok(format!(
                    "{} queries ({}), {} total matches\n  total {:.1}ms | first query {:.3}ms | mean of last 10 {:.3}ms",
                    n,
                    spec.label(),
                    matched,
                    total as f64 / 1e6,
                    first as f64 / 1e6,
                    last10 as f64 / 1e6
                ))
            }
            "explain" => {
                let parsed: Vec<i64> = words
                    .iter()
                    .skip(1)
                    .take(4)
                    .filter_map(|w| w.parse().ok())
                    .collect();
                let [lo_a, hi_a, lo_b, hi_b] = parsed[..] else {
                    return Err(
                        "usage: explain <lo_a> <hi_a> <lo_b> <hi_b> [planned|fixed|reversed|fallback]"
                            .into(),
                    );
                };
                if lo_a > hi_a || lo_b > hi_b {
                    return Err("lo must be <= hi".into());
                }
                let mode = match words.get(5).copied().unwrap_or("planned") {
                    "planned" => PlanMode::Planned,
                    "fixed" => PlanMode::FixedOrder,
                    "reversed" => PlanMode::Reversed,
                    "fallback" => PlanMode::ForcedFallback,
                    other => return Err(format!("unknown plan mode: {other}")),
                };
                let ts = self.table_session()?;
                ts.set_plan_mode(mode.clone());
                let conjuncts = [
                    ("a", AnyPredicate::I64(RangePredicate::between(lo_a, hi_a))),
                    ("b", AnyPredicate::I64(RangePredicate::between(lo_b, hi_b))),
                ];
                let (count, m) = ts
                    .count_conjunction(&conjuncts)
                    .map_err(|e| e.to_string())?;
                let trace = ts.last_plan().cloned().unwrap_or_default();
                let mut out = format!(
                    "plan ({mode:?}): {} conjunct(s), {} probed",
                    trace.steps.len(),
                    trace.conjuncts_probed()
                );
                for (i, s) in trace.steps.iter().enumerate() {
                    let est = s
                        .est_skip_fraction
                        .map_or("  --".to_string(), |e| format!("{e:.2}"));
                    if s.probed {
                        let _ = write!(
                            out,
                            "\n  {}. {}  probed   est skip {est} | actual {:.2} | zones {} probed / {} skipped | alive {} -> {}",
                            i + 1,
                            s.column,
                            s.actual_skip_fraction(),
                            s.zones_probed,
                            s.zones_skipped,
                            s.alive_before,
                            s.alive_after
                        );
                    } else {
                        let _ = write!(
                            out,
                            "\n  {}. {}  skipped  est skip {est} | benefit {:.0} tuples | alive {}",
                            i + 1,
                            s.column,
                            s.est_benefit,
                            s.alive_before
                        );
                    }
                }
                if let Some(reason) = trace.fallback {
                    let _ = write!(out, "\n  fallback: {reason:?} — scan-and-filter only");
                }
                let _ = write!(
                    out,
                    "\ncount = {count}   [{:.3}ms, scanned {} rows, {} full-match]",
                    m.wall_ns as f64 / 1e6,
                    m.rows_scanned,
                    m.rows_full_match
                );
                Ok(out)
            }
            "zones" => {
                self.session()?;
                self.zones_strip()
                    .ok_or_else(|| "zones view needs the adaptive strategy".into())
            }
            "trace" => {
                let session = self.session()?;
                let Some(zm) = session
                    .index()
                    .as_any()
                    .downcast_ref::<AdaptiveZonemap<i64>>()
                else {
                    return Err("trace needs the adaptive strategy".into());
                };
                let mut out = format!("totals: {}\nrecent:", zm.trace().totals());
                for (seq, event) in zm.trace().recent().iter().rev().take(10) {
                    let _ = write!(out, "\n  q{seq:>5}: {} {:?}", event.kind(), event);
                }
                Ok(out)
            }
            "stats" => {
                let data_label = self.data_label.clone();
                let session = self.session()?;
                let t = session.totals();
                let (meta, copy) = session.index_bytes();
                let mut out = format!(
                    "column: {} rows of {}\nindex:  {} ({} metadata B, {} copied B)\nqueries: {} | total {:.1}ms | mean {:.3}ms | build {:.2}ms\nscanned {} rows ({:.1}% also built metadata) | probed {} zones | skipped {} | adapt events {}\nphases: prune {:.2}ms | scan {:.2}ms | observe {:.2}ms | max threads {}",
                    session.len(),
                    data_label,
                    session.label(),
                    meta,
                    copy,
                    t.queries,
                    t.wall_ns as f64 / 1e6,
                    t.mean_latency_ns() / 1e6,
                    t.build_ns as f64 / 1e6,
                    t.rows_scanned,
                    100.0 * t.byproduct_share(),
                    t.zones_probed,
                    t.zones_skipped,
                    t.adapt_events,
                    t.prune_ns as f64 / 1e6,
                    t.scan_ns as f64 / 1e6,
                    t.observe_ns as f64 / 1e6,
                    t.max_threads_used
                );
                if let Some(zm) = session
                    .index()
                    .as_any()
                    .downcast_ref::<AdaptiveZonemap<i64>>()
                {
                    let t = zm.tier_stats();
                    let _ = write!(
                        out,
                        "\ntiers:  built {} | dropped {} | tiered now {} | skips {} | rows excluded {}",
                        t.tiers_built(),
                        t.tiers_dropped,
                        zm.zones_tiered(),
                        t.tier_skips,
                        t.tier_rows_excluded
                    );
                }
                Ok(out)
            }
            "threads" => {
                let Some(n) = words.get(1).and_then(|w| w.parse::<usize>().ok()) else {
                    return Err("usage: threads <n>".into());
                };
                self.policy = ExecPolicy::parallel(n.max(1));
                if let Some(session) = self.session.as_mut() {
                    session.set_exec_policy(self.policy);
                }
                Ok(format!(
                    "scan phase will use up to {} thread{} (small scans stay sequential)",
                    n.max(1),
                    if n.max(1) == 1 { "" } else { "s" }
                ))
            }
            "append" => {
                let Some(n) = words.get(1).and_then(|w| w.parse::<usize>().ok()) else {
                    return Err("usage: append <rows>".into());
                };
                let domain = self.domain;
                let seed = self.seed;
                self.table_session = None;
                let session = self.session()?;
                let fresh = ads_workloads::data::uniform(n, domain, seed ^ session.len() as u64);
                let ns = session.append(&fresh);
                Ok(format!(
                    "appended {n} rows (now {}), index maintenance {:.3}ms",
                    session.len(),
                    ns as f64 / 1e6
                ))
            }
            "compare" => {
                let (Some(n), Some(sel)) = (
                    words.get(1).and_then(|w| w.parse::<usize>().ok()),
                    words.get(2).and_then(|w| w.parse::<f64>().ok()),
                ) else {
                    return Err("usage: compare <n> <sel%>".into());
                };
                let data = self.session()?.data().to_vec();
                let queries = QuerySpec::UniformRandom {
                    selectivity: sel / 100.0,
                }
                .generate(n, self.domain, self.seed ^ 0x99);
                let mut out = format!(
                    "{:<30} {:>10} {:>12} {:>10}\n",
                    "strategy", "total ms", "mean µs", "checksum"
                );
                for strategy in Strategy::roster() {
                    let mut s = ColumnSession::new(data.clone(), &strategy);
                    let mut checksum = 0u64;
                    for q in &queries {
                        checksum =
                            checksum.wrapping_add(s.count(RangePredicate::between(q.lo, q.hi)));
                    }
                    let t = s.totals();
                    let _ = writeln!(
                        out,
                        "{:<30} {:>10.1} {:>12.1} {:>10}",
                        s.label(),
                        t.wall_ns as f64 / 1e6,
                        t.mean_latency_ns() / 1e3,
                        checksum
                    );
                }
                Ok(out.trim_end().to_string())
            }
            "serve" => {
                let (Some(spec), Some(rows), Some(readers), Some(per_client)) = (
                    words.get(1).and_then(|w| Self::parse_dist(w)),
                    words.get(2).and_then(|w| w.parse::<usize>().ok()),
                    words.get(3).and_then(|w| w.parse::<usize>().ok()),
                    words.get(4).and_then(|w| w.parse::<usize>().ok()),
                ) else {
                    return Err("usage: serve <dist> <rows> <readers> <n> [async|frozen]".into());
                };
                if readers == 0 || rows == 0 {
                    return Err("rows and readers must be >= 1".into());
                }
                let mode = match words.get(5).copied().unwrap_or("async") {
                    "async" => AdaptationMode::Async,
                    "frozen" => AdaptationMode::Frozen,
                    other => return Err(format!("unknown mode: {other}")),
                };
                let data = spec.generate(rows, self.domain, self.seed);
                let svc = QueryService::start(
                    data,
                    ServerConfig {
                        readers,
                        adaptation: mode,
                        ..ServerConfig::default()
                    },
                );
                let domain = self.domain;
                let seed = self.seed;
                let t0 = std::time::Instant::now();
                std::thread::scope(|scope| {
                    let svc = &svc;
                    for client in 0..readers {
                        scope.spawn(move || {
                            let preds = QuerySpec::UniformRandom { selectivity: 0.05 }.generate(
                                per_client,
                                domain,
                                seed ^ client as u64,
                            );
                            for q in preds {
                                let _ =
                                    svc.query(RangePredicate::between(q.lo, q.hi), AggKind::Count);
                            }
                        });
                    }
                });
                let elapsed = t0.elapsed();
                let stats = svc.shutdown();
                Ok(format!(
                    "{} mode, {readers} reader(s) x {per_client} queries in {:.1}ms\n\
                     throughput {:.1} kq/s | p50 {:.0}µs p95 {:.0}µs p99 {:.0}µs\n{}",
                    mode.label(),
                    elapsed.as_secs_f64() * 1e3,
                    stats.throughput_qps(elapsed) / 1e3,
                    stats.latency.p50_ns() as f64 / 1e3,
                    stats.latency.p95_ns() as f64 / 1e3,
                    stats.latency.p99_ns() as f64 / 1e3,
                    stats.summary()
                ))
            }
            "quit" | "exit" => Ok("bye".to_string()),
            other => Err(format!("unknown command: {other} (try `help`)")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loaded() -> Repl {
        let mut r = Repl::new();
        r.handle("load sorted 100000").expect("load works");
        r
    }

    #[test]
    fn help_lists_commands() {
        let mut r = Repl::new();
        let out = r.handle("help").expect("help works");
        for cmd in ["load", "strategy", "count", "zones", "compare"] {
            assert!(out.contains(cmd), "missing {cmd}");
        }
    }

    #[test]
    fn load_and_count() {
        let mut r = loaded();
        let out = r.handle("count 1000 1999").expect("count works");
        assert!(out.contains("count = 100"), "{out}");
    }

    #[test]
    fn query_before_load_errors() {
        let mut r = Repl::new();
        assert!(r.handle("count 0 10").is_err());
        assert!(r.handle("stats").is_err());
    }

    #[test]
    fn strategy_switch_rebuilds() {
        let mut r = loaded();
        let out = r.handle("strategy static 1024").expect("strategy works");
        assert!(out.contains("static-zonemap(1024)"));
        let out = r.handle("count 0 999").expect("count works");
        assert!(out.contains("count = 100"), "{out}");
    }

    #[test]
    fn zones_requires_adaptive() {
        let mut r = loaded();
        // Default strategy is adaptive: run a query to build zones.
        r.handle("count 0 9999").expect("count works");
        let strip = r.handle("zones").expect("zones works");
        assert!(strip.contains('#'), "{strip}");
        r.handle("strategy fullscan").expect("strategy works");
        assert!(r.handle("zones").is_err());
    }

    #[test]
    fn trace_shows_events() {
        let mut r = loaded();
        r.handle("count 0 9999").expect("count works");
        let out = r.handle("trace").expect("trace works");
        assert!(out.contains("built="), "{out}");
    }

    #[test]
    fn workload_runs_and_reports() {
        let mut r = loaded();
        let out = r.handle("workload uniform 20 1").expect("workload works");
        assert!(out.contains("20 queries"), "{out}");
    }

    #[test]
    fn sum_and_stats() {
        let mut r = loaded();
        let out = r.handle("sum 0 99").expect("sum works");
        assert!(out.contains("sum ="), "{out}");
        let stats = r.handle("stats").expect("stats works");
        assert!(stats.contains("queries: 1"), "{stats}");
        // The first scan of an unbuilt column pays for metadata on every
        // row; the zones the repeat still has to scan are exact by then.
        assert!(stats.contains("(100.0% also built metadata)"), "{stats}");
        r.handle("sum 0 99").expect("sum works");
        let stats = r.handle("stats").expect("stats works");
        assert!(!stats.contains("(100.0% also built metadata)"), "{stats}");
    }

    #[test]
    fn tiers_strategy_builds_and_stats_reports_it() {
        let mut r = Repl::new();
        r.handle("load clustered 100000").expect("load works");
        r.handle("strategy tiers").expect("strategy works");
        // A hot-zone workload keeps rescanning the same zones until their
        // scan volume amortises a tier build.
        let out = r.handle("workload hotspot 64 2").expect("workload works");
        assert!(out.contains("64 queries"), "{out}");
        let stats = r.handle("stats").expect("stats works");
        assert!(stats.contains("tiers:  built"), "{stats}");
        let built: u64 = stats
            .split("tiers:  built ")
            .nth(1)
            .and_then(|s| s.split_whitespace().next())
            .and_then(|s| s.parse().ok())
            .expect("stats must carry a tier build count");
        assert!(built > 0, "hot workload must earn tiers: {stats}");
        // The plain adaptive strategy reports the counters too — at zero.
        r.handle("strategy adaptive").expect("strategy works");
        r.handle("count 0 9999").expect("count works");
        let stats = r.handle("stats").expect("stats works");
        assert!(stats.contains("tiers:  built 0"), "{stats}");
    }

    #[test]
    fn threads_command_sets_policy_and_keeps_answers() {
        let mut r = loaded();
        let seq = r.handle("count 1000 1999").expect("count works");
        let out = r.handle("threads 4").expect("threads works");
        assert!(out.contains("4 threads"), "{out}");
        let par = r.handle("count 1000 1999").expect("count works");
        assert_eq!(
            seq.split("   [").next(),
            par.split("   [").next(),
            "answers must not depend on thread count"
        );
        let stats = r.handle("stats").expect("stats works");
        assert!(stats.contains("phases: prune"), "{stats}");
        assert!(r.handle("threads x").is_err());
    }

    #[test]
    fn append_grows_column() {
        let mut r = loaded();
        let out = r.handle("append 500").expect("append works");
        assert!(out.contains("now 100500"), "{out}");
    }

    #[test]
    fn compare_prints_roster() {
        let mut r = loaded();
        let out = r.handle("compare 5 1").expect("compare works");
        assert!(out.contains("cracking"));
        assert!(out.contains("sorted-oracle"));
    }

    #[test]
    fn serve_runs_a_stress_round_in_every_mode() {
        let mut r = Repl::new();
        for mode in ["async", "frozen"] {
            let out = r
                .handle(&format!("serve uniform 20000 2 10 {mode}"))
                .expect("serve works");
            assert!(out.contains("throughput"), "{out}");
            assert!(out.contains("queries=20"), "{out}");
        }
        assert!(r.handle("serve uniform 1000 2 10 warpmode").is_err());
        assert!(r.handle("serve uniform 1000 2 10 inline").is_err());
        assert!(r.handle("serve nope 1000 2 10").is_err());
        assert!(r.handle("serve uniform 1000 0 10").is_err());
    }

    #[test]
    fn explain_shows_plan_and_count() {
        let mut r = loaded();
        let out = r.handle("explain 0 99999 0 99999").expect("explain works");
        assert!(out.contains("plan (Planned)"), "{out}");
        assert!(out.contains("count ="), "{out}");
        assert!(out.contains("1. "), "{out}");
        // Every mode runs and fallback announces itself.
        for mode in ["fixed", "reversed", "fallback"] {
            let out = r
                .handle(&format!("explain 0 9999 0 9999 {mode}"))
                .expect("explain mode works");
            assert!(out.contains("count ="), "{mode}: {out}");
            if mode == "fallback" {
                assert!(out.contains("scan-and-filter"), "{out}");
            }
        }
        assert!(r.handle("explain 0 1").is_err());
        assert!(r.handle("explain 5 0 0 9").is_err());
        assert!(r.handle("explain 0 9 0 9 warp").is_err());
    }

    #[test]
    fn explain_rejects_view_strategies_and_survives_rebuilds() {
        let mut r = loaded();
        r.handle("strategy cracking").expect("strategy works");
        assert!(r.handle("explain 0 9 0 9").is_err());
        r.handle("strategy static 1024").expect("strategy works");
        let out = r.handle("explain 0 99999 0 99999").expect("explain works");
        assert!(out.contains("count ="), "{out}");
        // Append invalidates the companion session; explain rebuilds it.
        r.handle("append 500").expect("append works");
        let out = r.handle("explain 0 99999 0 99999").expect("explain works");
        assert!(out.contains("count ="), "{out}");
    }

    #[test]
    fn bad_inputs_error_cleanly() {
        let mut r = loaded();
        assert!(r.handle("load nope 100").is_err());
        assert!(r.handle("count 10 0").is_err());
        assert!(r.handle("count x y").is_err());
        assert!(r.handle("strategy warpdrive").is_err());
        assert!(r.handle("frobnicate").is_err());
        assert_eq!(r.handle("").expect("empty ok"), "");
    }
}
