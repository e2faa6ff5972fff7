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
//! line are folded into one hash line. A last stream drives a two-column
//! `TableSession`, whose later conjuncts prune restricted to the rows the
//! earlier ones left alive; its lines hash the answers, the plan traces and
//! the session totals. A refactor that moves no decision leaves
//! `tests/golden/trajectory.txt` byte-identical.
//!
//! `ADS_BLESS=1 cargo test --test trajectory` rewrites the golden file.

use adaptive_data_skipping::core::adaptive::AdaptiveConfig;
use adaptive_data_skipping::core::RangePredicate;
use adaptive_data_skipping::engine::{
    scan_sharded, AggKind, AnyPredicate, ExecPolicy, ShardScanInput, Strategy, TableSession,
};
use adaptive_data_skipping::storage::{Column, Table};
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
    config: fn() -> AdaptiveConfig,
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
        config: AdaptiveConfig::default,
        churn: false,
    },
    Stream {
        name: "uniform-scan",
        data: DataSpec::Uniform,
        queries: QuerySpec::UniformRandom { selectivity: 0.01 },
        config: AdaptiveConfig::default,
        churn: false,
    },
    Stream {
        name: "sorted-point",
        data: DataSpec::AlmostSorted { noise: 0.05 },
        queries: QuerySpec::Points,
        config: AdaptiveConfig::default,
        churn: false,
    },
    Stream {
        name: "sawtooth-point-tiers",
        data: DataSpec::Sawtooth { periods: 16 },
        queries: QuerySpec::Points,
        config: AdaptiveConfig::with_tiers,
        churn: false,
    },
    Stream {
        name: "mixed-churn",
        data: DataSpec::MixedRegions,
        queries: QuerySpec::UniformRandom { selectivity: 0.01 },
        config: AdaptiveConfig::default,
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
    let applied = owner.mutate(&batch).expect("rowids drawn below the length");
    owner.maintain();
    format!("mutated {applied}")
}

/// The block the owner totals printed before zone-local reorganization
/// was deleted, all zeros on every stream here. It stays in the hashed
/// text, so the lines blessed with it still hold.
const DELETED_REORG: &str =
    "reorg: ReorgStats { zones_promoted: 0, zones_demoted: 0, bytes_moved: 0, reorg_ns: 0 }, ";

fn state_line(name: &str, op: usize, owner: &Owner<i64>, answers: u64) -> String {
    let mut totals = owner.totals();
    totals.tiers.build_ns = 0;
    let zones = owner.zone_snapshot();
    let totals = format!("{totals:?}").replacen("tiers: ", &format!("{DELETED_REORG}tiers: "), 1);
    let state = format!("{zones:?}|{totals}");
    let h = fnv(state.as_bytes(), answers);
    format!("{name} op {op:>4}: {:>3} zones {h:016x}", zones.len())
}

fn trajectory(stream: &Stream) -> Vec<String> {
    let data = stream.data.generate(ROWS, DOMAIN, 42);
    let queries = stream.queries.generate(OPS, DOMAIN, 43);
    let config = (stream.config)();
    let tiers = config.enable_tiers;
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
    assert!(!tiers || totals.tiers.tier_skips > 0, "no tier skipped");
    assert!(
        !stream.churn || totals.rows_reclaimed > 0,
        "nothing compacted"
    );
    lines
}

/// Two adaptive columns queried together: the planner orders the probes
/// and gates them on the indexes' skip estimates, and a probe after the
/// first runs restricted to the rows still alive.
fn conjunction_trajectory() -> Vec<String> {
    let name = "conjunction";
    let a = DataSpec::Clustered { clusters: 64 }.generate(ROWS, DOMAIN, 42);
    let b = DataSpec::AlmostSorted { noise: 0.05 }.generate(ROWS, DOMAIN, 45);
    let mut table = Table::new("t");
    table
        .add_column("a", Column::from_values(a))
        .expect("fresh");
    table
        .add_column("b", Column::from_values(b))
        .expect("fresh");
    let config = AdaptiveConfig {
        target_zone_rows: 512,
        min_zone_rows: 64,
        max_zone_rows: 8192,
        maintenance_every: 4,
        ..AdaptiveConfig::default()
    };
    let mut session =
        TableSession::new(table, &Strategy::Adaptive(config), &["a", "b"]).expect("session");
    let hot = QuerySpec::ShiftingHotspot {
        selectivity: 0.05,
        phases: 8,
    }
    .generate(OPS, DOMAIN, 43);
    let wide = QuerySpec::UniformRandom { selectivity: 0.3 }.generate(OPS, DOMAIN, 46);
    let mut answers = 0xcbf2_9ce4_8422_2325u64;
    let mut lines = Vec::new();
    for (i, (qa, qb)) in hot.iter().zip(&wide).enumerate() {
        let conjuncts = [
            (
                "a",
                AnyPredicate::I64(RangePredicate::between(qa.lo, qa.hi)),
            ),
            (
                "b",
                AnyPredicate::I64(RangePredicate::between(qb.lo, qb.hi)),
            ),
        ];
        let (count, sum) = if i % 4 == 3 {
            let (count, sum, _) = session.sum_conjunction(&conjuncts, "b").expect("query");
            (count, sum)
        } else {
            (session.count_conjunction(&conjuncts).expect("query").0, 0.0)
        };
        let plan = session.last_plan().expect("a plan");
        let out = format!("{count} {sum:?} {plan:?}");
        answers = fnv(out.as_bytes(), answers);
        if (i + 1).is_multiple_of(EVERY) {
            let mut totals = *session.totals();
            totals.wall_ns = 0;
            totals.build_ns = 0;
            totals.prune_ns = 0;
            totals.scan_ns = 0;
            totals.observe_ns = 0;
            let h = fnv(format!("{totals:?}").as_bytes(), answers);
            lines.push(format!("{name} op {:>4}: {h:016x}", i + 1));
        }
    }
    lines
}

#[test]
fn owner_trajectories_match_the_golden_file() {
    let mut got = String::new();
    let owners = STREAMS.iter().flat_map(trajectory);
    for line in owners.chain(conjunction_trajectory()) {
        got.push_str(&line);
        got.push('\n');
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
