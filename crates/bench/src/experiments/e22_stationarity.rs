//! E22 — is a point-lookup service stationary over a long window?
//!
//! Every 15 s benchmark window and every count-bounded experiment above
//! reads a service while it is still adapting. This one keeps a single
//! closed-loop client on an `Async` two-shard service for a minute and
//! reads it slice by slice: requests answered, throughput, the zone count
//! and the metadata bytes of the published lanes. Two cells, both point
//! lookups, both the kind of workload on which every scan is "low yield"
//! by construction and wasted-scan counting alone splits without end:
//!
//! * **almost-sorted(5 %) + points** — bounds do the skipping; what can
//!   grow is the number of zones a query walks to keep one.
//! * **sawtooth(64) + points + tiers** — bounds exclude nothing, the
//!   bloom tier does the skipping; what can grow is zones *and* the
//!   sketches built over them.
//!
//! The claim under test: since splits are priced against the probes they
//! add ([`ads_core::CostModel::split_benefit`]), throughput at the end of
//! the window is what it was at the start and the zone count settles.
//! The answers of a window are summed and checked against a per-value
//! count of the column, so a stationary wrong answer cannot pass.

use crate::report::{fmt_bytes, fmt_kqps, Report};
use crate::runner::{closed_loop, host_cores, Scale};
use ads_core::adaptive::AdaptiveConfig;
use ads_core::SkippingIndex;
use ads_server::{AdaptationMode, QueryService, ServerConfig};
use ads_workloads::{queries, DataSpec};
use std::time::Instant;

/// Slices per cell; the verdict compares the first third with the last.
const SLICES: usize = 12;

/// Queries between two looks at the clock: a slice ends at the first
/// chunk boundary past its length.
const CHUNK: usize = 1024;

/// Distinct point predicates, cycled.
const POOL: usize = 8192;

/// One slice of one cell's window.
#[derive(Debug, Clone, Copy)]
struct Slice {
    queries: u64,
    elapsed_ns: u64,
    /// Zones across the published lanes when the slice ended.
    zones: usize,
    /// Their metadata bytes.
    metadata_bytes: usize,
}

impl Slice {
    fn qps(&self) -> f64 {
        self.queries as f64 / (self.elapsed_ns.max(1) as f64 / 1e9)
    }
}

/// Slice length: 5 s at the default scale, shrinking with `rows x
/// queries` (0.1 s at `--quick`).
fn slice_ns(scale: Scale) -> u64 {
    (scale.rows as u64).saturating_mul(scale.queries as u64) * 25 / 3
}

/// Runs one cell: [`SLICES`] consecutive slices of closed-loop point
/// lookups over `data`, one client, `Async`, two shards.
fn run_cell(data: Vec<i64>, adaptive: AdaptiveConfig, scale: Scale) -> Vec<Slice> {
    let mut copies = vec![0u64; scale.domain as usize];
    for &v in &data {
        copies[v as usize] += 1;
    }
    let pool = queries::point_queries(POOL, scale.domain, scale.seed ^ 0xE22);
    let svc = QueryService::start(
        data,
        ServerConfig {
            readers: 1,
            shards: 2,
            adaptation: AdaptationMode::Async,
            adaptive,
            ..ServerConfig::default()
        },
    );
    let mut slices = Vec::with_capacity(SLICES);
    // What the answers handed out so far must add up to.
    let mut want = 0u64;
    let (mut next, mut asked, mut slice_start) = (0usize, 0u64, Instant::now());
    // The client's stream: the pool, cycled, until the last slice closes.
    // The clock is read at chunk boundaries, before the next query goes
    // out, so a slice's span covers exactly the answers it counts.
    let stream = std::iter::from_fn(|| {
        if asked > 0 && asked % CHUNK as u64 == 0 {
            let elapsed_ns = slice_start.elapsed().as_nanos() as u64;
            if elapsed_ns >= slice_ns(scale) {
                // invariant: an Async service always has published lanes.
                let lanes = svc.shard_snapshots().expect("snapshot mode");
                slices.push(Slice {
                    queries: asked,
                    elapsed_ns,
                    zones: lanes.iter().map(|l| l.zonemap.num_zones()).sum(),
                    metadata_bytes: lanes.iter().map(|l| l.zonemap.metadata_bytes()).sum(),
                });
                if slices.len() == SLICES {
                    return None;
                }
                (asked, slice_start) = (0, Instant::now());
            }
        }
        let q = pool[next % POOL];
        (next, asked) = (next + 1, asked + 1);
        want += copies[q.lo as usize];
        Some(q)
    });
    let (_, sums) = closed_loop(&svc, vec![stream]);
    assert_eq!(sums, [want], "point lookups were answered wrong");
    svc.shutdown();
    slices
}

/// Median throughput of `slices`, queries per second. The window's ends
/// are each read through a third of the slices: on a shared host a 5 s
/// slice moves by a quarter on its own, and one disturbed slice must not
/// decide the verdict.
fn median_qps(slices: &[Slice]) -> f64 {
    let mut qps: Vec<f64> = slices.iter().map(Slice::qps).collect();
    qps.sort_by(f64::total_cmp);
    (qps[(qps.len() - 1) / 2] + qps[qps.len() / 2]) / 2.0
}

/// The window's first and last thirds.
fn ends(slices: &[Slice]) -> (&[Slice], &[Slice]) {
    let third = slices.len() / 3;
    (&slices[..third], &slices[slices.len() - third..])
}

/// Throughput held (the last third at least 0.8x the first) and the zone
/// count constant over the last third of the window.
fn stationary(slices: &[Slice]) -> bool {
    let (head, tail) = ends(slices);
    median_qps(tail) >= 0.8 * median_qps(head) && tail.iter().all(|s| s.zones == tail[0].zones)
}

/// Runs the experiment.
pub fn run(scale: Scale) -> Report {
    let mut report = Report::new(
        "e22",
        "long-window stationarity: point lookups through the async service",
        &["cell", "slice", "queries", "kq/s", "zones", "metadata"],
    );
    report.note(format!(
        "{} rows, {SLICES} slices of {:.1} s, 1 closed-loop client, async, 2 shards; host has {} core(s)",
        scale.rows,
        slice_ns(scale) as f64 / 1e9,
        host_cores()
    ));
    let cells = [
        (
            DataSpec::AlmostSorted { noise: 0.05 },
            "points",
            AdaptiveConfig::default(),
        ),
        (
            DataSpec::Sawtooth { periods: 64 },
            "points+tiers",
            AdaptiveConfig::with_tiers(),
        ),
    ];
    for (spec, queries, adaptive) in cells {
        let name = format!("{} {queries}", spec.label());
        eprintln!("  e22: {name}");
        let data = spec.generate(scale.rows, scale.domain, scale.seed);
        let slices = run_cell(data, adaptive, scale);
        for (i, s) in slices.iter().enumerate() {
            report.row(vec![
                name.clone(),
                (i + 1).to_string(),
                s.queries.to_string(),
                fmt_kqps(s.queries, s.elapsed_ns),
                s.zones.to_string(),
                fmt_bytes(s.metadata_bytes),
            ]);
        }
        let (head, tail) = ends(&slices);
        let summary = format!(
            "{name}: {:.1} -> {:.1} kq/s ({:.2}x; medians of the first and last {} slices), zones {} -> {}",
            median_qps(head) / 1e3,
            median_qps(tail) / 1e3,
            median_qps(tail) / median_qps(head),
            head.len(),
            slices[0].zones,
            slices[SLICES - 1].zones
        );
        report.verdict(
            stationary(&slices),
            &format!("held — {summary}"),
            &format!("failed, the service is not stationary — {summary}"),
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slice(queries: u64, zones: usize) -> Slice {
        Slice {
            queries,
            elapsed_ns: 1_000_000_000,
            zones,
            metadata_bytes: 0,
        }
    }

    #[test]
    fn verdict_reads_throughput_ends_and_the_zone_tail() {
        let flat: Vec<Slice> = (0..12).map(|_| slice(1000, 50)).collect();
        assert!(stationary(&flat));
        // Early growth is adaptation, not drift.
        let mut settled = flat.clone();
        settled[0].zones = 25;
        settled[7].zones = 49;
        assert!(stationary(&settled));
        // Zones still moving inside the last third.
        let mut growing = flat.clone();
        growing[9].zones = 49;
        assert!(!stationary(&growing));
        // One disturbed slice at either end decides nothing …
        let mut disturbed = flat.clone();
        disturbed[11].queries = 500;
        disturbed[0].queries = 1500;
        assert!(stationary(&disturbed));
        // … a last third that lost more than a fifth does.
        let mut decayed = flat.clone();
        for s in &mut decayed[8..] {
            s.queries = 790;
        }
        assert!(!stationary(&decayed));
    }

    #[test]
    fn tiny_cell_answers_every_slice() {
        let scale = Scale {
            rows: 8_000,
            queries: 10,
            domain: 10_000,
            seed: 7,
        };
        let data = DataSpec::Sawtooth { periods: 4 }.generate(scale.rows, scale.domain, 7);
        let slices = run_cell(data, AdaptiveConfig::with_tiers(), scale);
        assert_eq!(slices.len(), SLICES);
        for s in &slices {
            assert!(s.queries >= CHUNK as u64 && s.zones > 0 && s.metadata_bytes > 0);
        }
    }
}
