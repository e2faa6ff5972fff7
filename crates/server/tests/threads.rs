//! No thread is born per query: a service's scan helpers are spawned at
//! start and joined at shutdown, so the process's thread count after 200
//! fanned queries is the count right after `start`.
//!
//! The only test in its binary, so no other test's threads come and go
//! while it counts.

#![cfg(target_os = "linux")]

use ads_core::RangePredicate;
use ads_engine::AggKind;
use ads_server::{AdaptationMode, QueryService, ServerConfig};
use ads_workloads::data;

/// Threads of this process, as the kernel lists them.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs is mounted")
        .count()
}

#[test]
fn fanned_queries_start_no_thread() {
    const ROWS: usize = 600_000;
    const DOMAIN: i64 = 1_000_000;
    let column = data::uniform(ROWS, DOMAIN, 3);
    // Half the domain: every zone straddles the bound, so no zone ever
    // answers from metadata alone and every query scans every row.
    let pred = RangePredicate::between(0, DOMAIN / 2);
    let want = column.iter().filter(|&&v| pred.matches(v)).count() as u64;
    let svc = QueryService::start(
        column,
        ServerConfig {
            readers: 1,
            // Two lanes: a scan is cut at item boundaries, and once the
            // index has learnt that nothing skips, one lane is one item.
            shards: 2,
            adaptation: AdaptationMode::Async,
            ..ServerConfig::default()
        },
    );
    let started = threads();
    for _ in 0..200 {
        let reply = svc.query(pred, AggKind::Count);
        let count = reply.expect("admitted").answer().map(|a| a.count);
        assert_eq!(count, Some(want));
    }
    assert_eq!(threads(), started, "a query left a thread behind");
    let stats = svc.shutdown();
    // Every query scans all 600,000 rows, past the two-thread floor.
    assert_eq!(stats.rows_scanned, 200 * ROWS as u64);
    let fanned = if stats.scan_helpers > 0 { 200 } else { 0 };
    assert_eq!(stats.scans_fanned, fanned, "{}", stats.summary());
}
