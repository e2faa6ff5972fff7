//! Property-style tests for the conjunction probe planner: whatever the
//! planner decides — cost-based order, the legacy fixed order, reversed
//! order, or no probes at all — the *answer* must be bit-identical.
//!
//! Each case replays one randomised scenario across many deterministic
//! seeds (the repo's lightweight property-testing idiom, see
//! `tests/properties.rs`): random data shape (sorted / clustered /
//! uniform), 2–3 conjuncts including a `u64` column whose values exceed
//! 2^53 (where an `f64` bounds round-trip would corrupt metadata), and a
//! shared query sequence driven through twin sessions per plan mode.
//!
//! The aggregate column holds small integers so every partial SUM is an
//! exactly-representable f64 — summation order is immaterial and the f64
//! results can be compared with `==` across modes.
//!
//! Determinism is additionally asserted *within* a mode: two fresh
//! sessions fed the same queries must produce identical plan traces,
//! pruning metrics, and metadata footprints. (Cross-mode metadata
//! equality is deliberately NOT asserted: different probe orders feed
//! adaptive structures different observations, so their zone layouts
//! legitimately diverge — only answers must agree.)

use adaptive_data_skipping::core::adaptive::AdaptiveConfig;
use adaptive_data_skipping::core::RangePredicate;
use adaptive_data_skipping::engine::{AnyPredicate, PlanMode, Strategy, TableSession};
use adaptive_data_skipping::storage::{Column, ColumnAccess, Table};
use adaptive_data_skipping::workloads::data;
use ads_rng::StdRng;

/// Cases per property — the budget an external framework would default to.
const CASES: u64 = 64;

/// Values on the far side of f64 integer exactness.
const P53: u64 = 1 << 53;

const DOMAIN: i64 = 100_000;

/// Column `name` of `t` with its stored type.
fn typed<'t, T: ColumnAccess>(t: &'t Table, name: &str) -> &'t Column<T> {
    T::from_any(t.column(name).expect("column exists")).expect("column type")
}

/// Small adaptive config so structural churn happens at test scale.
fn test_config() -> AdaptiveConfig {
    AdaptiveConfig {
        target_zone_rows: 64,
        min_zone_rows: 8,
        max_zone_rows: 512,
        split_after_wasted: 1,
        merge_after_probes: 2,
        deactivate_after_probes: 4,
        maintenance_every: 2,
        revival_base_queries: Some(8),
        ..AdaptiveConfig::default()
    }
}

fn make_table(case: u64, rng: &mut StdRng) -> Table {
    let n = rng.gen_range(1000usize..4000);
    let a: Vec<i64> = match case % 3 {
        0 => data::sorted(n, DOMAIN),
        1 => data::clustered(n, 8, 0.05, DOMAIN, case),
        _ => data::uniform(n, DOMAIN, case),
    };
    let b = data::uniform(n, DOMAIN, case.wrapping_mul(31).wrapping_add(7));
    // u64 column straddling 2^53: odd offsets at this magnitude are not
    // representable as f64 (spacing is 2), so any f64 round-trip of scan
    // bounds would visibly corrupt zone metadata.
    let u: Vec<u64> = data::uniform(n, DOMAIN, case.wrapping_mul(17).wrapping_add(3))
        .into_iter()
        // narrowing: uniform() yields values in 0..DOMAIN, all non-negative.
        .map(|v| P53 + v as u64)
        .collect();
    // Small-integer aggregate column: partial sums stay far below 2^53,
    // so f64 summation is exact in any order.
    let s = data::uniform(n, 1000, case.wrapping_mul(101).wrapping_add(13));
    let mut t = Table::new("t");
    t.add_column("a", Column::from_values(a)).expect("fresh");
    t.add_column("b", Column::from_values(b)).expect("fresh");
    t.add_column("u", Column::from_values(u)).expect("fresh");
    t.add_column("s", Column::from_values(s)).expect("fresh");
    t
}

fn gen_i64_pred(rng: &mut StdRng) -> RangePredicate<i64> {
    let lo = rng.gen_range(0..DOMAIN);
    let w = rng.gen_range(0..DOMAIN / 2);
    RangePredicate::between(lo, (lo + w).min(DOMAIN))
}

fn gen_u64_pred(rng: &mut StdRng) -> RangePredicate<u64> {
    let lo = rng.gen_range(0..DOMAIN);
    let w = rng.gen_range(0..DOMAIN / 2);
    // narrowing: lo and lo + w are in 0..=3*DOMAIN/2, non-negative.
    RangePredicate::between(P53 + lo as u64, P53 + (lo + w) as u64)
}

/// One query: conjuncts over a subset of {a, u, b}, always ≥ 2 of them.
fn gen_conjuncts(rng: &mut StdRng) -> Vec<(&'static str, AnyPredicate)> {
    let mut c: Vec<(&'static str, AnyPredicate)> = vec![
        ("a", AnyPredicate::I64(gen_i64_pred(rng))),
        ("u", AnyPredicate::U64(gen_u64_pred(rng))),
    ];
    if rng.gen_range(0..2) == 1 {
        c.push(("b", AnyPredicate::I64(gen_i64_pred(rng))));
    }
    c
}

fn reference(t: &Table, conjuncts: &[(&str, AnyPredicate)]) -> (u64, f64) {
    let s = typed::<i64>(t, "s");
    let mut count = 0u64;
    let mut sum = 0.0f64;
    for i in 0..t.num_rows() {
        let ok = conjuncts.iter().all(|(name, p)| match p {
            AnyPredicate::I64(p) => p.matches(typed::<i64>(t, name).value(i)),
            AnyPredicate::U64(p) => p.matches(typed::<u64>(t, name).value(i)),
            _ => unreachable!("test uses i64/u64 predicates only"),
        });
        if ok {
            count += 1;
            sum += s.value(i) as f64;
        }
    }
    (count, sum)
}

fn session(t: &Table, mode: PlanMode) -> TableSession {
    let mut ts = TableSession::new(
        t.clone(),
        &Strategy::Adaptive(test_config()),
        &["a", "b", "u"],
    )
    .expect("base-coordinate strategy");
    ts.set_plan_mode(mode);
    ts
}

#[test]
fn all_plan_modes_agree_with_reference() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5007 ^ case);
        let t = make_table(case, &mut rng);
        let queries: Vec<Vec<(&str, AnyPredicate)>> =
            (0..6).map(|_| gen_conjuncts(&mut rng)).collect();
        let mut sessions = [
            ("planned", session(&t, PlanMode::Planned)),
            ("fixed", session(&t, PlanMode::FixedOrder)),
            ("reversed", session(&t, PlanMode::Reversed)),
            ("fallback", session(&t, PlanMode::ForcedFallback)),
        ];
        for (qi, q) in queries.iter().enumerate() {
            let (ref_count, ref_sum) = reference(&t, q);
            for (label, ts) in &mut sessions {
                let (count, sum, _) = ts.sum_conjunction(q, "s").expect("valid conjunction");
                assert_eq!(count, ref_count, "case {case} query {qi} mode {label}");
                // Exact: every partial sum of small integers is an exactly
                // representable f64, so order cannot perturb the result.
                assert_eq!(sum, ref_sum, "case {case} query {qi} mode {label}");
            }
        }
        // The fallback session must never have probed anything.
        let (_, fb) = &sessions[3];
        assert_eq!(fb.totals().zones_probed, 0, "case {case}");
        assert_eq!(fb.totals().plan_fallbacks, queries.len() as u64);
    }
}

#[test]
fn planned_mode_is_deterministic() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5008 ^ case);
        let t = make_table(case, &mut rng);
        let queries: Vec<Vec<(&str, AnyPredicate)>> =
            (0..6).map(|_| gen_conjuncts(&mut rng)).collect();
        let mut one = session(&t, PlanMode::Planned);
        let mut two = session(&t, PlanMode::Planned);
        for (qi, q) in queries.iter().enumerate() {
            let (c1, s1, m1) = one.sum_conjunction(q, "s").expect("valid conjunction");
            let (c2, s2, m2) = two.sum_conjunction(q, "s").expect("valid conjunction");
            assert_eq!((c1, s1), (c2, s2), "case {case} query {qi}");
            // Deterministic metric fields (timings excluded by design).
            assert_eq!(
                (m1.zones_probed, m1.zones_skipped, m1.rows_scanned),
                (m2.zones_probed, m2.zones_skipped, m2.rows_scanned),
                "case {case} query {qi}"
            );
            assert_eq!(
                (m1.rows_full_match, m1.conjuncts_probed, m1.plan_fallback),
                (m2.rows_full_match, m2.conjuncts_probed, m2.plan_fallback),
                "case {case} query {qi}"
            );
            // Adaptation after the scan: same splits, merges and masks.
            assert_eq!(m1.adapt_events, m2.adapt_events, "case {case} query {qi}");
            assert_eq!(one.last_plan(), two.last_plan(), "case {case} query {qi}");
        }
        let deterministic = |ts: &TableSession| {
            let t = ts.totals();
            (
                (t.queries, t.rows_scanned, t.rows_full_match, t.rows_matched),
                (t.zones_probed, t.zones_skipped, t.adapt_events),
                (t.rows_with_byproducts, t.plan_fallbacks, t.max_threads_used),
            )
        };
        assert_eq!(deterministic(&one), deterministic(&two), "case {case}");
    }
}

#[test]
fn planned_never_probes_more_zones_than_fixed_on_static_metadata() {
    // With a static zonemap the metadata never changes, so this IS a
    // theorem: the fixed order probes every zone of every conjunct, while
    // the planner probes a subset of zones (restriction) of a subset of
    // conjuncts (gating). Rows scanned may legitimately *rise* when a
    // probe is gated off — that is the trade the cost model prices — so
    // only probe work is bounded here; the scan/probe balance itself is
    // measured empirically by experiment E18.
    for case in 0..8 {
        let mut rng = StdRng::seed_from_u64(0x5009 ^ case);
        let t = make_table(case, &mut rng);
        let q = gen_conjuncts(&mut rng);
        let strat = Strategy::StaticZonemap { zone_rows: 128 };
        let mut planned =
            TableSession::new(t.clone(), &strat, &["a", "b", "u"]).expect("base coords");
        let mut fixed =
            TableSession::new(t.clone(), &strat, &["a", "b", "u"]).expect("base coords");
        fixed.set_plan_mode(PlanMode::FixedOrder);
        for round in 0..8 {
            let (cp, mp) = planned.count_conjunction(&q).expect("valid conjunction");
            let (cf, mf) = fixed.count_conjunction(&q).expect("valid conjunction");
            assert_eq!(cp, cf, "case {case} round {round}");
            assert!(
                mp.zones_probed <= mf.zones_probed,
                "case {case} round {round}: planned probed {} zones vs fixed {}",
                mp.zones_probed,
                mf.zones_probed
            );
        }
    }
}
