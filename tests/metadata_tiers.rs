//! Equivalence suites for the per-zone metadata tier layer.
//!
//! The layer's contract is purely advisory: a bloom sketch tier may
//! exclude zones that the `(min, max)` bounds cannot, but it never
//! changes which rows qualify or what any aggregate over them returns.
//! Each test replays randomised workloads across many deterministic
//! seeds and checks tiers off and on against each other and a
//! straight-scan reference, at shard counts {1, 8} and thread counts
//! {1, 8}.
//!
//! f64 SUMs are compared by bit pattern. The data generator keeps every
//! finite sum exactly representable (dyadic values, well under 2^53) and
//! never mixes data NaNs with inf + -inf indefinites in one column — the
//! propagated NaN payload of such a mix is fold-order-dependent by IEEE
//! semantics, an artifact no skipping layer can (or should) mask.

use adaptive_data_skipping::core::adaptive::{AdaptiveConfig, AdaptiveZonemap, ShardedZonemap};
use adaptive_data_skipping::core::RangePredicate;
use adaptive_data_skipping::engine::{
    execute_reference, execute_sharded, execute_with_policy, AggKind, ExecPolicy, QueryAnswer,
};
use adaptive_data_skipping::storage::{DataValue, ShardedColumn};
use ads_rng::StdRng;
use ads_server::{Mutation, Owner, QueryService, ServerConfig};
use std::cmp::Ordering;

const CASES: u64 = 32;

const ALL_AGGS: [AggKind; 5] = [
    AggKind::Count,
    AggKind::Sum,
    AggKind::Min,
    AggKind::Max,
    AggKind::Positions,
];

/// Tiers off, then on.
const TIER_MODES: [bool; 2] = [false, true];

/// Small zones and eager tier policy so builds, drops, and tier probes
/// all happen at test scale, composed with full structural adaptation
/// (splits, merges, deactivation stay on: tier clearing on every
/// structural change is part of what these suites exercise).
fn tier_config(tiers: bool) -> AdaptiveConfig {
    AdaptiveConfig {
        target_zone_rows: 64,
        min_zone_rows: 8,
        max_zone_rows: 512,
        maintenance_every: 1,
        enable_tiers: tiers,
        tier_after_scans: 1,
        tier_drop_after: 8,
        ..AdaptiveConfig::default()
    }
}

/// totalOrder equality — the only equality under which NaN extrema
/// compare equal to themselves.
fn same<T: DataValue>(a: T, b: T) -> bool {
    a.total_cmp(&b) == Ordering::Equal
}

/// Field-wise answer equality that is NaN-safe and bit-exact on sums.
fn assert_answers_identical<T: DataValue>(a: &QueryAnswer<T>, b: &QueryAnswer<T>, ctx: &str) {
    assert_eq!(a.count, b.count, "count {ctx}");
    match (a.sum, b.sum) {
        (None, None) => {}
        (Some(x), Some(y)) => {
            assert_eq!(x.to_bits(), y.to_bits(), "sum bits {ctx}: {x} vs {y}")
        }
        (x, y) => panic!("sum presence {ctx}: {x:?} vs {y:?}"),
    }
    for (got, want, which) in [(a.min, b.min, "min"), (a.max, b.max, "max")] {
        match (got, want) {
            (None, None) => {}
            (Some(x), Some(y)) => assert!(same(x, y), "{which} {ctx}"),
            _ => panic!("{which} presence {ctx}"),
        }
    }
    assert_eq!(a.positions, b.positions, "positions {ctx}");
}

fn gen_i64(rng: &mut StdRng, max_len: usize) -> Vec<i64> {
    let n = rng.gen_range(256..max_len);
    (0..n).map(|_| rng.gen_range(-1000i64..1000)).collect()
}

/// Point-and-range mix so tiers are both built and dropped: half the
/// probes are equality predicates, many on absent values — the case
/// bounds cannot skip but a sketch can.
fn gen_mixed_preds(rng: &mut StdRng, n: usize) -> Vec<RangePredicate<i64>> {
    (0..n)
        .map(|_| {
            if rng.gen_range(0..2u32) == 0 {
                RangePredicate::point(rng.gen_range(-1100i64..1100))
            } else {
                let lo = rng.gen_range(-1200i64..1200);
                RangePredicate::between(lo, lo + rng.gen_range(0i64..400))
            }
        })
        .collect()
}

#[test]
fn tiered_answers_match_untiered_and_reference_on_i64_workloads() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xE21_0001 ^ case);
        let data = gen_i64(&mut rng, 4000);
        let preds = gen_mixed_preds(&mut rng, 24);
        for threads in [1usize, 8] {
            let policy = ExecPolicy {
                threads,
                min_rows_per_thread: 1,
            };
            let mut maps: Vec<AdaptiveZonemap<i64>> = TIER_MODES
                .iter()
                .map(|&tiers| AdaptiveZonemap::new(data.len(), tier_config(tiers)))
                .collect();
            for (qi, pred) in preds.iter().enumerate() {
                let agg = ALL_AGGS[qi % ALL_AGGS.len()];
                let want = execute_reference(&data, *pred, agg);
                let mut baseline: Option<QueryAnswer<i64>> = None;
                for (tiers, zm) in TIER_MODES.iter().zip(&mut maps) {
                    let (ans, _) = execute_with_policy(&data, zm, *pred, agg, &policy);
                    let ctx = format!("case {case} t={threads} q{qi} {agg:?} tiers={tiers}");
                    assert_answers_identical(&ans, &want, &ctx);
                    match &baseline {
                        Some(b) => assert_answers_identical(&ans, b, &ctx),
                        None => baseline = Some(ans),
                    }
                }
            }
            // The workload was tier-heavy enough to exercise the layer:
            // the tiered map must actually have built sketches.
            if threads == 1 && case % 8 == 0 {
                for zm in maps.iter().skip(1) {
                    assert!(
                        zm.tier_stats().tiers_built() > 0,
                        "case {case}: the tiered map never built a tier"
                    );
                }
            }
        }
    }
}

/// Edge values every float path must agree on. `nan_pool` draws data
/// NaNs (one canonical pattern, so whichever one a fold propagates
/// first, the bits agree); the alternative draws both infinities, whose
/// inf + -inf indefinite is likewise a single pattern. The two are never
/// mixed in one column — see the module doc.
fn gen_f64_edgy(rng: &mut StdRng, len: usize, nan_pool: bool) -> Vec<f64> {
    let edges: [f64; 4] = if nan_pool {
        [f64::NAN, 0.0, -0.0, 1.0]
    } else {
        [f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0]
    };
    (0..len)
        .map(|_| {
            if rng.gen_range(0..4usize) == 0 {
                edges[rng.gen_range(0..edges.len())]
            } else {
                rng.gen_range(-1_000_000i64..1_000_000) as f64 / 64.0
            }
        })
        .collect()
}

#[test]
fn tiered_f64_answers_bit_identical_including_nan_and_signed_zero() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xE21_0002 ^ case);
        let n = rng.gen_range(300..2500usize);
        let nan_pool = case % 2 == 0;
        let data = gen_f64_edgy(&mut rng, n, nan_pool);
        for threads in [1usize, 8] {
            let policy = ExecPolicy {
                threads,
                min_rows_per_thread: 1,
            };
            let mut maps: Vec<AdaptiveZonemap<f64>> = TIER_MODES
                .iter()
                .map(|&tiers| AdaptiveZonemap::new(data.len(), tier_config(tiers)))
                .collect();
            for qi in 0..15 {
                // Bounds drawn from the same edgy distribution (ordered
                // under totalOrder, as `between` requires): NaN and
                // infinite bounds are valid equivalence cases, and an
                // occasional coincident pair exercises point sketches.
                let b = gen_f64_edgy(&mut rng, 2, nan_pool);
                let (lo, hi) = if b[0].total_cmp(&b[1]) == Ordering::Greater {
                    (b[1], b[0])
                } else {
                    (b[0], b[1])
                };
                let pred = if qi % 5 == 4 {
                    RangePredicate::point(lo)
                } else {
                    RangePredicate::between(lo, hi)
                };
                let agg = ALL_AGGS[qi % ALL_AGGS.len()];
                let want = execute_reference(&data, pred, agg);
                let mut baseline: Option<QueryAnswer<f64>> = None;
                for (tiers, zm) in TIER_MODES.iter().zip(&mut maps) {
                    let (ans, _) = execute_with_policy(&data, zm, pred, agg, &policy);
                    let ctx = format!("f64 case {case} t={threads} q{qi} {agg:?} tiers={tiers}");
                    assert_answers_identical(&ans, &want, &ctx);
                    match &baseline {
                        Some(b) => assert_answers_identical(&ans, b, &ctx),
                        None => baseline = Some(ans),
                    }
                }
            }
        }
    }
}

#[test]
fn tiered_sharded_answers_match_at_any_shard_count() {
    for case in 0..16u64 {
        let mut rng = StdRng::seed_from_u64(0xE21_0003 ^ case);
        let data = gen_i64(&mut rng, 5000);
        let preds = gen_mixed_preds(&mut rng, 16);
        for shards in [1usize, 8] {
            for threads in [1usize, 8] {
                let policy = ExecPolicy {
                    threads,
                    min_rows_per_thread: 1,
                };
                let column = ShardedColumn::new(data.clone(), shards);
                let mut maps: Vec<ShardedZonemap<i64>> = TIER_MODES
                    .iter()
                    .map(|&tiers| ShardedZonemap::for_column(&column, tier_config(tiers)))
                    .collect();
                for (qi, pred) in preds.iter().enumerate() {
                    let agg = ALL_AGGS[qi % ALL_AGGS.len()];
                    let want = execute_reference(&data, *pred, agg);
                    let mut baseline: Option<QueryAnswer<i64>> = None;
                    for (tiers, zm) in TIER_MODES.iter().zip(&mut maps) {
                        let (ans, _) = execute_sharded(&column, zm, None, *pred, agg, &policy);
                        let ctx = format!(
                            "case {case} s={shards} t={threads} q{qi} {agg:?} tiers={tiers}"
                        );
                        assert_answers_identical(&ans, &want, &ctx);
                        match &baseline {
                            Some(b) => assert_answers_identical(&ans, b, &ctx),
                            None => baseline = Some(ans),
                        }
                    }
                }
            }
        }
    }
}

// --------------------------------------------- churn: never a false negative

const DOMAIN: i64 = 10_000;

/// The naive mirror of the service's out-of-place mutation semantics
/// (same shape as the mutation suite's model).
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
        self.rows = self
            .rows
            .iter()
            .zip(&self.dead)
            .filter(|&(_, &d)| !d)
            .map(|(&v, _)| v)
            .collect();
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
/// naive recompute — a tier that over-skipped (false negative) fails
/// here as a lost row. Returns a fold for cross-mode comparison.
fn verify(store: &mut Store, model: &Model, lo: i64, hi: i64, agg: AggKind, ctx: &str) -> u64 {
    let rows = model.matches(lo, hi);
    let ans = &store.query(RangePredicate::between(lo, hi), agg);
    assert_eq!(ans.count, rows.len() as u64, "{ctx}: COUNT [{lo},{hi}]");
    let mut fold = ans.count;
    match agg {
        AggKind::Count => {}
        AggKind::Sum => {
            // Exact integer partials far below 2^53: bit-compare is
            // fair. Explicit +0.0 fold identity: `Iterator::sum` seeds
            // with -0.0, but the scan kernels (and an empty result set)
            // answer +0.0.
            let want: f64 = rows.iter().map(|&(_, v)| v as f64).fold(0.0, |a, b| a + b);
            let got = ans.sum.expect("sum aggregate carries a sum");
            assert_eq!(got.to_bits(), want.to_bits(), "{ctx}: SUM [{lo},{hi}]");
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

/// Where a churn run's operations go: the async service, or an [`Owner`]
/// driven on the test thread — the inline protocol — with each operation
/// followed by the `maintain()` the service's maintenance round runs (no
/// compaction ratio is set, so the round compacts only on request).
enum Store {
    Service(QueryService<i64>),
    Owner(Box<Owner<i64>>),
}

impl Store {
    fn query(&mut self, pred: RangePredicate<i64>, agg: AggKind) -> QueryAnswer<i64> {
        match self {
            Store::Service(svc) => {
                let reply = svc.query(pred, agg).expect("closed loop");
                reply.answer().expect("no deadline set").clone()
            }
            Store::Owner(owner) => {
                let (answer, _) = owner.execute(pred, agg);
                owner.maintain();
                answer
            }
        }
    }

    fn mutate(&mut self, batch: Vec<Mutation<i64>>) -> usize {
        match self {
            Store::Service(svc) => svc.mutate(batch).expect("maintenance thread lives"),
            Store::Owner(owner) => {
                let applied = owner.mutate(&batch).expect("rowids in range");
                owner.maintain();
                applied
            }
        }
    }

    fn append(&mut self, rows: Vec<i64>) {
        match self {
            Store::Service(svc) => svc.append(rows),
            Store::Owner(owner) => {
                owner.append(&rows);
                owner.maintain();
            }
        }
    }

    fn compact(&mut self) -> usize {
        match self {
            Store::Service(svc) => svc.compact().expect("maintenance thread lives"),
            Store::Owner(owner) => {
                let reclaimed = owner.compact(None);
                owner.maintain();
                reclaimed
            }
        }
    }

    /// The service's barrier; the owner has nothing deferred.
    fn flush(&mut self) {
        if let Store::Service(svc) = self {
            svc.flush();
        }
    }
}

/// One randomized interleaving of queries, point probes, delete/update
/// batches, appends, and a compaction epilogue against a tier-enabled
/// store — the service when `served`, else the owner. Returns the answer
/// checksum.
fn run_churn(seed: u64, tiers: bool, served: bool) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(3));
    let base: Vec<i64> = (0..1_200).map(|_| rng.gen_range(0..DOMAIN)).collect();
    let config = ServerConfig {
        readers: 1,
        shards: 8,
        adaptive: tier_config(tiers),
        compact_tombstone_ratio: None,
        ..ServerConfig::default()
    };
    let mut store = if served {
        Store::Service(QueryService::start(base.clone(), config))
    } else {
        Store::Owner(Box::new(Owner::new(
            base.clone(),
            config.shards,
            config.adaptive,
        )))
    };
    let mut model = Model::new(&base);
    let ctx = format!(
        "seed {seed} tiers={tiers} {}",
        if served { "service" } else { "owner" }
    );
    let mut checksum = 0u64;

    for step in 0..70 {
        match rng.gen_range(0..10u32) {
            0..=4 => {
                // Range and point probes; points on possibly-absent
                // values are the bloom tier's skip case, so deletes and
                // appends must keep the sketches conservative.
                let lo = rng.gen_range(0..DOMAIN);
                let hi = if rng.gen_range(0..3u32) == 0 {
                    lo
                } else {
                    (lo + rng.gen_range(0..DOMAIN / 4)).min(DOMAIN - 1)
                };
                let agg = ALL_AGGS[rng.gen_range(0..ALL_AGGS.len())];
                checksum = checksum
                    .rotate_left(9)
                    .wrapping_add(verify(&mut store, &model, lo, hi, agg, &ctx));
            }
            5 | 6 => {
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
                let applied = store.mutate(batch);
                assert_eq!(applied, want, "{ctx}: applied count at step {step}");
            }
            7 | 8 => {
                let rows: Vec<i64> = (0..rng.gen_range(1..20usize))
                    .map(|_| rng.gen_range(0..DOMAIN))
                    .collect();
                model.append(&rows);
                store.append(rows);
            }
            _ => store.flush(),
        }
    }

    // Compaction epilogue: tiers were built over the pre-compaction row
    // layout; compaction rebuilds zones, so stale sketches must be gone
    // and answers unchanged.
    let reclaimed = store.compact();
    assert_eq!(reclaimed, model.dead_count, "{ctx}: rows reclaimed");
    model.compact();
    for _ in 0..8 {
        let lo = rng.gen_range(0..DOMAIN);
        let hi = (lo + DOMAIN / 5).min(DOMAIN - 1);
        for agg in ALL_AGGS {
            checksum = checksum
                .rotate_left(9)
                .wrapping_add(verify(&mut store, &model, lo, hi, agg, &ctx));
        }
    }
    checksum
}

/// The tier lifecycle never produces a false negative under mutation
/// churn, and the answer stream is identical with tiers off or on, from
/// the service and from an owner driven on the test thread.
#[test]
fn tier_lifecycle_never_false_negative_under_churn() {
    for seed in 0..3u64 {
        let mut reference: Option<u64> = None;
        for served in [true, false] {
            for tiers in TIER_MODES {
                let sum = run_churn(seed, tiers, served);
                match reference {
                    Some(want) => assert_eq!(
                        sum, want,
                        "seed {seed}: answers diverged under tiers={tiers} served={served}"
                    ),
                    None => reference = Some(sum),
                }
            }
        }
    }
}
