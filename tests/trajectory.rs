//! Golden trajectories: the service's authoritative state, step by step,
//! held equal to a committed file.
//!
//! One `ads_server::Owner` per stream is driven on one thread through the
//! transitions the service runs — a served query (`snapshot` →
//! `prune_shared` → `scan_sharded` → `feedback` → `maintain`), a mutation
//! batch (`mutate` → `maintain`) and a compaction (`compact` →
//! `maintain`) — over five seeded, fixed-count streams shaped like the
//! benchmark workloads. Every [`EVERY`] operations the zone snapshot, the
//! owner totals (wall-clock fields zeroed) and every answer since the last
//! line are folded into one hash line. A refactor that moves no decision
//! leaves `tests/golden/trajectory.txt` byte-identical.
//!
//! `ADS_BLESS=1 cargo test --test trajectory` rewrites the golden file.

use adaptive_data_skipping::core::adaptive::AdaptiveConfig;
use adaptive_data_skipping::core::RangePredicate;
use adaptive_data_skipping::engine::{scan_sharded, AggKind, ExecPolicy, ShardScanInput};
use adaptive_data_skipping::workloads::{DataSpec, QuerySpec};
use ads_rng::StdRng;
use ads_server::{Mutation, Owner, ShardSnapshot};
use std::fmt::Write as _;
use std::sync::Arc;

const DOMAIN: i64 = 1_000_000;
const ROWS: usize = 40_000;
const SHARDS: usize = 2;
const OPS: usize = 800;
/// Operations between two golden lines.
const EVERY: usize = 80;
/// On the churn stream: a mutation batch after every this-many queries, a
/// compaction after every this-many batches.
const CHURN_EVERY: usize = 8;
const COMPACT_EVERY: usize = 4;
const CHURN_BATCH: usize = 48;
const GOLDEN: &str = "tests/golden/trajectory.txt";

struct Stream {
    name: &'static str,
    data: DataSpec,
    queries: QuerySpec,
    tiers: bool,
    churn: bool,
}

const STREAMS: [Stream; 5] = [
    Stream {
        name: "clustered-hotspot",
        data: DataSpec::Clustered { clusters: 64 },
        queries: QuerySpec::ShiftingHotspot {
            selectivity: 0.01,
            phases: 8,
        },
        tiers: false,
        churn: false,
    },
    Stream {
        name: "uniform-scan",
        data: DataSpec::Uniform,
        queries: QuerySpec::UniformRandom { selectivity: 0.01 },
        tiers: false,
        churn: false,
    },
    Stream {
        name: "sorted-point",
        data: DataSpec::AlmostSorted { noise: 0.05 },
        queries: QuerySpec::Points,
        tiers: false,
        churn: false,
    },
    Stream {
        name: "sawtooth-point-tiers",
        data: DataSpec::Sawtooth { periods: 16 },
        queries: QuerySpec::Points,
        tiers: true,
        churn: false,
    },
    Stream {
        name: "mixed-churn",
        data: DataSpec::MixedRegions,
        queries: QuerySpec::UniformRandom { selectivity: 0.01 },
        tiers: false,
        churn: true,
    },
];

/// FNV-1a: stable across toolchains, unlike `DefaultHasher`.
fn fnv(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// One served query: readers prune and scan the owner's frozen lanes, the
/// owner hears their feedback, then runs its maintenance pass.
fn serve(owner: &mut Owner<i64>, pred: RangePredicate<i64>, agg: AggKind) -> String {
    let snaps: Vec<ShardSnapshot<i64>> = (0..owner.num_shards())
        .map(|s| owner.snapshot(s, Arc::new(owner.deletes(s).clone()), 0))
        .collect();
    let outcomes: Vec<_> = snaps
        .iter()
        .map(|snap| snap.zonemap.prune_shared(&pred))
        .collect();
    let inputs: Vec<ShardScanInput<'_, i64>> = snaps
        .iter()
        .zip(&outcomes)
        .map(|(snap, outcome)| ShardScanInput {
            data: snap.data.as_slice(),
            outcome,
            start: snap.start,
            live: Some(snap.delete.as_ref()),
        })
        .collect();
    let result = scan_sharded(&inputs, pred, agg, &ExecPolicy::sequential());
    let seen = snaps.iter().map(|snap| snap.data.version());
    let observations: Vec<_> = seen.zip(result.observations).collect();
    owner.feedback(&observations);
    owner.maintain();
    format!("{:?}", result.answer)
}

/// A mutation batch alternating deletes and updates over the rows the
/// owner holds now.
fn churn(owner: &mut Owner<i64>, rng: &mut StdRng) -> String {
    let rows: usize = (0..owner.num_shards())
        .map(|s| owner.deletes(s).len())
        .sum();
    let batch: Vec<Mutation<i64>> = (0..CHURN_BATCH)
        .map(|i| {
            let row = rng.gen_range(0..rows);
            if i % 2 == 0 {
                Mutation::Delete(row)
            } else {
                Mutation::Update(row, rng.gen_range(0..DOMAIN))
            }
        })
        .collect();
    let applied = owner.mutate(&batch);
    owner.maintain();
    format!("mutated {applied}")
}

fn state_line(name: &str, op: usize, owner: &Owner<i64>, answers: u64) -> String {
    let mut totals = owner.totals();
    totals.reorg.reorg_ns = 0;
    totals.tiers.build_ns = 0;
    let zones = owner.zone_snapshot();
    let state = format!("{zones:?}|{totals:?}");
    let h = fnv(state.as_bytes(), answers);
    format!("{name} op {op:>4}: {:>3} zones {h:016x}", zones.len())
}

fn trajectory(stream: &Stream) -> Vec<String> {
    let data = stream.data.generate(ROWS, DOMAIN, 42);
    let queries = stream.queries.generate(OPS, DOMAIN, 43);
    let config = if stream.tiers {
        AdaptiveConfig::with_tiers()
    } else {
        AdaptiveConfig::default()
    };
    let mut owner = Owner::new(data, SHARDS, config);
    let mut rng = StdRng::seed_from_u64(44);
    let mut answers = 0xcbf2_9ce4_8422_2325u64;
    let mut lines = Vec::new();
    let mut batches = 0usize;
    for (i, q) in queries.iter().enumerate() {
        let agg = if i % 4 == 3 {
            AggKind::Sum
        } else {
            AggKind::Count
        };
        let mut out = serve(&mut owner, RangePredicate::between(q.lo, q.hi), agg);
        if stream.churn && (i + 1).is_multiple_of(CHURN_EVERY) {
            out += &churn(&mut owner, &mut rng);
            batches += 1;
            if batches.is_multiple_of(COMPACT_EVERY) {
                let reclaimed = owner.compact(None);
                owner.maintain();
                let _ = write!(out, "compacted {reclaimed}");
            }
        }
        answers = fnv(out.as_bytes(), answers);
        if (i + 1).is_multiple_of(EVERY) {
            lines.push(state_line(stream.name, i + 1, &owner, answers));
        }
    }
    let totals = owner.totals();
    assert!(
        !stream.tiers || totals.tiers.tier_skips > 0,
        "no tier skipped"
    );
    assert!(
        !stream.churn || totals.rows_reclaimed > 0,
        "nothing compacted"
    );
    lines
}

#[test]
fn owner_trajectories_match_the_golden_file() {
    let mut got = String::new();
    for stream in &STREAMS {
        for line in trajectory(stream) {
            got.push_str(&line);
            got.push('\n');
        }
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    if std::env::var("ADS_BLESS").is_ok_and(|v| v == "1") {
        std::fs::write(&path, &got).expect("write the golden file");
        return;
    }
    let want = std::fs::read_to_string(&path).expect("golden file (bless with ADS_BLESS=1)");
    for (k, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "trajectory diverges at golden line {}", k + 1);
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "golden line count"
    );
}
