//! Mutation-path equivalence suite: a store under randomized
//! delete/update/append/query interleavings must answer every aggregate
//! bit-identically (f64 SUM compared by bit pattern, POSITIONS by exact
//! rowid list) to a naive `Vec` recompute — at every shard count, every
//! reader count, in async and frozen modes, and both before and after
//! compaction physically reclaims the tombstones.
//!
//! The driver is sequential and every mutation blocks for its
//! publication ack, so each query observes exactly the mutations issued
//! before it: the answer stream is deterministic per seed and must also
//! agree *across* the service shapes (asserted via checksum).
//!
//! The mid-stream variant also compacts between mutations, so appends
//! and updates land on a freshly repacked tail shard. Its seed count
//! scales with `ADS_STRESS_ITERS` (default 1), as the server's stress
//! suite reads it.

use adaptive_data_skipping::core::adaptive::AdaptiveConfig;
use adaptive_data_skipping::core::RangePredicate;
use adaptive_data_skipping::engine::AggKind;
use adaptive_data_skipping::workloads::data;
use ads_rng::StdRng;
use ads_server::{AdaptationMode, Mutation, MutationError, QueryService, ServerConfig};

const DOMAIN: i64 = 10_000;

fn iters() -> u64 {
    std::env::var("ADS_STRESS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

const AGGS: [AggKind; 5] = [
    AggKind::Count,
    AggKind::Sum,
    AggKind::Min,
    AggKind::Max,
    AggKind::Positions,
];

/// The (mode, shards, readers) shapes every seed is replayed over.
const SHAPES: [(AdaptationMode, usize, usize); 5] = [
    (AdaptationMode::Async, 1, 1),
    (AdaptationMode::Async, 1, 4),
    (AdaptationMode::Async, 8, 1),
    (AdaptationMode::Async, 8, 4),
    (AdaptationMode::Frozen, 8, 4),
];

/// Small zones so structural adaptation happens at test scale.
fn test_config() -> AdaptiveConfig {
    AdaptiveConfig {
        target_zone_rows: 64,
        min_zone_rows: 8,
        max_zone_rows: 512,
        maintenance_every: 2,
        ..AdaptiveConfig::default()
    }
}

/// The naive mirror: service semantics on a plain `Vec`. Out-of-place
/// exactly like the store — update tombstones the old row and appends
/// the new value — so global rowids stay aligned until both compact.
struct Model {
    rows: Vec<i64>,
    dead: Vec<bool>,
    dead_count: usize,
}

impl Model {
    fn new(data: &[i64]) -> Self {
        Model {
            rows: data.to_vec(),
            dead: vec![false; data.len()],
            dead_count: 0,
        }
    }

    fn apply(&mut self, m: Mutation<i64>) -> bool {
        match m {
            Mutation::Delete(row) => {
                if self.dead[row] {
                    return false;
                }
                self.dead[row] = true;
                self.dead_count += 1;
                true
            }
            Mutation::Update(row, v) => {
                if self.dead[row] {
                    return false;
                }
                self.dead[row] = true;
                self.dead_count += 1;
                self.rows.push(v);
                self.dead.push(false);
                true
            }
        }
    }

    fn append(&mut self, vals: &[i64]) {
        self.rows.extend_from_slice(vals);
        self.dead.resize(self.rows.len(), false);
    }

    fn compact(&mut self) {
        let mut keep = Vec::with_capacity(self.rows.len() - self.dead_count);
        for (i, &v) in self.rows.iter().enumerate() {
            if !self.dead[i] {
                keep.push(v);
            }
        }
        self.rows = keep;
        self.dead = vec![false; self.rows.len()];
        self.dead_count = 0;
    }

    /// Live qualifying rows of `[lo, hi]` in rowid order.
    fn matches(&self, lo: i64, hi: i64) -> Vec<(usize, i64)> {
        self.rows
            .iter()
            .enumerate()
            .filter(|&(i, &v)| !self.dead[i] && v >= lo && v <= hi)
            .map(|(i, &v)| (i, v))
            .collect()
    }
}

/// Asks the service one aggregate and asserts it bit-identical to the
/// naive recompute; returns a fold of the answer for cross-shape
/// comparison.
fn verify(
    svc: &QueryService<i64>,
    model: &Model,
    lo: i64,
    hi: i64,
    agg: AggKind,
    ctx: &str,
) -> u64 {
    let rows = model.matches(lo, hi);
    let reply = svc
        .query(RangePredicate::between(lo, hi), agg)
        .expect("closed loop");
    let ans = reply.answer().expect("no deadline set");
    assert_eq!(ans.count, rows.len() as u64, "{ctx}: COUNT [{lo},{hi}]");
    let mut fold = ans.count;
    match agg {
        AggKind::Count => {}
        AggKind::Sum => {
            // Exact integer partials far below 2^53: bit-compare is fair.
            // Explicit +0.0 fold identity: `Iterator::sum` seeds with
            // -0.0, but the service answers an empty result set +0.0.
            let want: f64 = rows.iter().map(|&(_, v)| v as f64).fold(0.0, |a, b| a + b);
            let got = ans.sum.expect("sum aggregate carries a sum");
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{ctx}: SUM [{lo},{hi}] ({got} vs {want})"
            );
            fold = fold.wrapping_add(got.to_bits());
        }
        AggKind::Min => {
            let want = rows.iter().map(|&(_, v)| v).min();
            assert_eq!(ans.min, want, "{ctx}: MIN [{lo},{hi}]");
            fold = fold.wrapping_add(want.unwrap_or(-1) as u64);
        }
        AggKind::Max => {
            let want = rows.iter().map(|&(_, v)| v).max();
            assert_eq!(ans.max, want, "{ctx}: MAX [{lo},{hi}]");
            fold = fold.wrapping_add(want.unwrap_or(-1) as u64);
        }
        AggKind::Positions => {
            let want: Vec<u32> = rows.iter().map(|&(i, _)| i as u32).collect();
            let got = ans.positions.as_ref().expect("positions carried");
            assert_eq!(got, &want, "{ctx}: POSITIONS [{lo},{hi}]");
            fold = want
                .iter()
                .fold(fold, |f, &p| f.rotate_left(1).wrapping_add(p as u64));
        }
    }
    fold
}

/// One randomized interleaving: ~90 steps mixing queries over all five
/// aggregates with delete/update/append batches, a periodic flush
/// barrier — and, when `mid_stream` is set, compactions — then the
/// compaction epilogue. Returns the answer checksum.
fn run_interleaving(
    seed: u64,
    mode: AdaptationMode,
    shards: usize,
    readers: usize,
    mid_stream: bool,
) -> u64 {
    let base = data::uniform(1_200, DOMAIN, 0x5EED ^ seed);
    let svc = QueryService::start(
        base.clone(),
        ServerConfig {
            readers,
            shards,
            adaptation: mode,
            adaptive: test_config(),
            compact_tombstone_ratio: None,
            ..ServerConfig::default()
        },
    );
    let mut model = Model::new(&base);
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
    let ctx = format!("seed {seed} {} s{shards} r{readers}", mode.label());
    let mut checksum = 0u64;

    let arms: u32 = if mid_stream { 12 } else { 10 };
    for step in 0..90 {
        match rng.gen_range(0..arms) {
            // Queries dominate the mix so every aggregate meets every
            // mutation pattern many times per seed.
            0..=5 => {
                let lo = rng.gen_range(0..DOMAIN);
                let hi = (lo + rng.gen_range(0..DOMAIN / 4)).min(DOMAIN - 1);
                let agg = AGGS[rng.gen_range(0..AGGS.len())];
                checksum = checksum
                    .rotate_left(9)
                    .wrapping_add(verify(&svc, &model, lo, hi, agg, &ctx));
            }
            6 | 7 => {
                let batch: Vec<Mutation<i64>> = (0..rng.gen_range(1..5usize))
                    .map(|_| {
                        let row = rng.gen_range(0..model.rows.len());
                        if rng.gen_range(0..2u32) == 0 {
                            Mutation::Delete(row)
                        } else {
                            Mutation::Update(row, rng.gen_range(0..DOMAIN))
                        }
                    })
                    .collect();
                let want: usize = batch.iter().map(|&m| usize::from(model.apply(m))).sum();
                let applied = svc.mutate(batch).expect("maintenance thread lives");
                assert_eq!(applied, want, "{ctx}: applied count at step {step}");
            }
            8 => {
                let rows: Vec<i64> = (0..rng.gen_range(1..20usize))
                    .map(|_| rng.gen_range(0..DOMAIN))
                    .collect();
                model.append(&rows);
                svc.append(rows);
            }
            9 => svc.flush(),
            // Mid-stream only: every tombstoned shard repacks, the tail
            // among them once it holds a dead row, and the steps after
            // append and update onto the repacked rows.
            _ => {
                let reclaimed = svc.compact().expect("maintenance thread lives");
                assert_eq!(
                    reclaimed, model.dead_count,
                    "{ctx}: reclaimed at step {step}"
                );
                model.compact();
            }
        }
    }

    // Compaction epilogue: the same probes over all five aggregates must
    // answer identically before and after tombstones are reclaimed
    // (POSITIONS excepted — compaction renumbers rowids, so it is
    // checked against the compacted mirror instead).
    let probes: Vec<(i64, i64)> = (0..8)
        .map(|_| {
            let lo = rng.gen_range(0..DOMAIN);
            (lo, (lo + DOMAIN / 5).min(DOMAIN - 1))
        })
        .collect();
    let mut pre = Vec::new();
    for &(lo, hi) in &probes {
        for agg in AGGS {
            pre.push(verify(&svc, &model, lo, hi, agg, &ctx));
        }
    }
    let reclaimed = svc.compact().expect("maintenance thread lives");
    assert_eq!(reclaimed, model.dead_count, "{ctx}: rows reclaimed");
    model.compact();
    for (k, &(lo, hi)) in probes.iter().enumerate() {
        for (j, agg) in AGGS.into_iter().enumerate() {
            let post = verify(&svc, &model, lo, hi, agg, &ctx);
            if agg != AggKind::Positions {
                assert_eq!(
                    post,
                    pre[k * AGGS.len() + j],
                    "{ctx}: {agg:?} moved across compaction on [{lo},{hi}]"
                );
            }
            // Post-compaction POSITIONS folds renumbered rowids; every
            // shape compacts to the same live order, so the fold still
            // agrees across shapes.
            checksum = checksum.rotate_left(9).wrapping_add(post);
        }
    }

    let stats = svc.shutdown();
    assert!(
        stats.mutations_applied > 0,
        "{ctx}: interleaving applied no mutations"
    );
    assert_eq!(stats.deltas_pending, 0, "{ctx}: acked deltas left pending");
    checksum
}

/// Every seed × every service shape, cross-checked.
fn interleavings_agree(seeds: std::ops::Range<u64>, mid_stream: bool) {
    for seed in seeds {
        let mut reference: Option<u64> = None;
        for (mode, shards, readers) in SHAPES {
            let sum = run_interleaving(seed, mode, shards, readers, mid_stream);
            match reference {
                Some(want) => assert_eq!(
                    sum,
                    want,
                    "seed {seed}: answers diverged across service shapes \
                     ({} s{shards} r{readers})",
                    mode.label()
                ),
                None => reference = Some(sum),
            }
        }
    }
}

/// The suite: compaction only in the epilogue.
#[test]
fn randomized_interleavings_match_naive_recompute_everywhere() {
    interleavings_agree(0..5, false);
}

/// Compactions mid-stream: appends and updates after a repack of the
/// tail shard must extend the repacked rows, never an older tail version.
#[test]
fn appends_and_updates_after_mid_stream_compactions_match_naive_recompute() {
    interleavings_agree(100..100 + 4 * iters(), true);
}

/// A batch naming a rowid past the end is refused whole, with the row
/// and the length, and the service carries on: the next valid mutation
/// applies and a flush returns — in every mode.
#[test]
fn an_out_of_range_batch_is_refused_and_the_service_lives_on() {
    for mode in [AdaptationMode::Async, AdaptationMode::Frozen] {
        let base = data::uniform(10_000, DOMAIN, 0xBAD);
        let svc = QueryService::start(
            base.clone(),
            ServerConfig {
                shards: 2,
                adaptation: mode,
                ..ServerConfig::default()
            },
        );
        let mut model = Model::new(&base);
        let ctx = format!("out-of-range {}", mode.label());
        assert_eq!(
            svc.delete(20_000),
            Err(MutationError::OutOfRange {
                row: 20_000,
                rows: 10_000
            }),
            "{ctx}"
        );
        let refused = vec![Mutation::Delete(7), Mutation::Update(10_000, 1)];
        assert_eq!(
            svc.mutate(refused),
            Err(MutationError::OutOfRange {
                row: 10_000,
                rows: 10_000
            }),
            "{ctx}: the first rowid past the end is named"
        );
        verify(&svc, &model, 0, DOMAIN - 1, AggKind::Positions, &ctx);
        assert_eq!(svc.delete(5), Ok(1), "{ctx}");
        assert!(model.apply(Mutation::Delete(5)));
        svc.flush();
        for agg in AGGS {
            verify(&svc, &model, 0, DOMAIN - 1, agg, &ctx);
        }
        let stats = svc.shutdown();
        assert_eq!(
            stats.deltas_pending, 0,
            "{ctx}: refused batches left pending"
        );
    }
}

/// Deleting then re-deleting, updating dead rows, and compacting an
/// already-compact store are all counted-out no-ops with stable answers.
#[test]
fn idempotent_edges_hold() {
    let base = data::sorted(600, DOMAIN);
    let svc = QueryService::start(
        base.clone(),
        ServerConfig {
            shards: 3,
            adaptive: test_config(),
            ..ServerConfig::default()
        },
    );
    let mut model = Model::new(&base);

    assert_eq!(svc.delete(10).expect("live"), 1);
    assert!(model.apply(Mutation::Delete(10)));
    assert_eq!(svc.delete(10).expect("live"), 0, "re-delete must no-op");
    assert!(!model.apply(Mutation::Delete(10)));
    assert_eq!(
        svc.update(10, 99).expect("live"),
        0,
        "update of a dead row must no-op"
    );
    verify(
        &svc,
        &model,
        0,
        DOMAIN - 1,
        AggKind::Sum,
        "idempotent-edges",
    );
    verify(
        &svc,
        &model,
        0,
        DOMAIN - 1,
        AggKind::Positions,
        "idempotent-edges",
    );

    assert_eq!(svc.compact().expect("live"), 1);
    model.compact();
    assert_eq!(svc.compact().expect("live"), 0, "second compact reclaims 0");
    for agg in AGGS {
        verify(&svc, &model, 0, DOMAIN - 1, agg, "idempotent-edges post");
    }
}

/// Updates land at fresh tail rowids: POSITIONS sees the new row at the
/// end of the store, not in place.
#[test]
fn updates_are_out_of_place() {
    let base = data::sorted(100, 1_000);
    let n = base.len();
    let svc = QueryService::start(base.clone(), ServerConfig::default());
    let mut model = Model::new(&base);

    let applied = svc.update(0, 500).expect("live");
    assert_eq!(applied, 1);
    assert!(model.apply(Mutation::Update(0, 500)));
    let fold = verify(&svc, &model, 500, 500, AggKind::Positions, "out-of-place");
    assert!(fold > 0);
    let reply = svc
        .query(RangePredicate::between(500, 500), AggKind::Positions)
        .expect("closed loop");
    let positions = reply
        .answer()
        .expect("no deadline")
        .positions
        .clone()
        .expect("positions carried");
    assert!(
        positions.contains(&(n as u32)),
        "updated value must live at the tail rowid, got {positions:?}"
    );
}
