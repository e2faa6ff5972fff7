//! Cross-crate correctness: every strategy must produce identical answers
//! for every aggregate on every distribution.

use adaptive_data_skipping::core::RangePredicate;
use adaptive_data_skipping::engine::{execute_reference, AggKind, ColumnSession, Strategy};
use adaptive_data_skipping::workloads::{DataSpec, QuerySpec};

const N: usize = 50_000;
const DOMAIN: i64 = 100_000;

fn distributions() -> Vec<DataSpec> {
    vec![
        DataSpec::Sorted,
        DataSpec::ReverseSorted,
        DataSpec::AlmostSorted { noise: 0.1 },
        DataSpec::Clustered { clusters: 16 },
        DataSpec::Uniform,
        DataSpec::Zipf { theta: 0.99 },
        DataSpec::Sawtooth { periods: 8 },
        DataSpec::MixedRegions,
    ]
}

#[test]
fn count_equivalence_across_all_strategies_and_distributions() {
    let queries = QuerySpec::UniformRandom { selectivity: 0.02 }.generate(40, DOMAIN, 7);
    for spec in distributions() {
        let data = spec.generate(N, DOMAIN, 3);
        for strategy in Strategy::roster() {
            let mut session = ColumnSession::new(data.clone(), &strategy);
            for (qi, q) in queries.iter().enumerate() {
                let pred = RangePredicate::between(q.lo, q.hi);
                let expected = execute_reference(&data, pred, AggKind::Count).count;
                assert_eq!(
                    session.count(pred),
                    expected,
                    "{} on {} query {qi}",
                    strategy.label(),
                    spec.label()
                );
            }
        }
    }
}

#[test]
fn all_aggregates_equivalent_on_mixed_data() {
    let data = DataSpec::MixedRegions.generate(N, DOMAIN, 5);
    let queries = QuerySpec::UniformRandom { selectivity: 0.05 }.generate(12, DOMAIN, 9);
    for strategy in Strategy::roster() {
        let mut session = ColumnSession::new(data.clone(), &strategy);
        for q in &queries {
            let pred = RangePredicate::between(q.lo, q.hi);
            for agg in [
                AggKind::Count,
                AggKind::Sum,
                AggKind::Min,
                AggKind::Max,
                AggKind::Positions,
            ] {
                let (got, _) = session.query(pred, agg);
                let want = execute_reference(&data, pred, agg);
                assert_eq!(
                    got.count,
                    want.count,
                    "{} count ({agg:?})",
                    strategy.label()
                );
                match agg {
                    AggKind::Sum => {
                        let (a, b) = (got.sum.unwrap(), want.sum.unwrap());
                        assert!((a - b).abs() < 1e-6, "{} sum: {a} vs {b}", strategy.label());
                    }
                    AggKind::Min => assert_eq!(got.min, want.min, "{} min", strategy.label()),
                    AggKind::Max => assert_eq!(got.max, want.max, "{} max", strategy.label()),
                    AggKind::Positions => {
                        assert_eq!(
                            got.positions,
                            want.positions,
                            "{} positions",
                            strategy.label()
                        )
                    }
                    AggKind::Count => {}
                }
            }
        }
    }
}

#[test]
fn point_and_boundary_predicates() {
    let data = DataSpec::Clustered { clusters: 8 }.generate(N, DOMAIN, 13);
    let (dmin, dmax) = (
        *data.iter().min().expect("non-empty"),
        *data.iter().max().expect("non-empty"),
    );
    let preds = [
        RangePredicate::point(dmin),
        RangePredicate::point(dmax),
        RangePredicate::point((dmin + dmax) / 2),
        RangePredicate::between(dmin, dmax),
        RangePredicate::between(i64::MIN, dmin),
        RangePredicate::at_least(dmax),
        RangePredicate::all(),
        RangePredicate::between(dmax + 1, i64::MAX), // empty result
    ];
    for strategy in Strategy::roster() {
        let mut session = ColumnSession::new(data.clone(), &strategy);
        for pred in preds {
            let expected = execute_reference(&data, pred, AggKind::Count).count;
            assert_eq!(session.count(pred), expected, "{} {pred}", strategy.label());
        }
    }
}

#[test]
fn repeated_identical_queries_stay_correct_while_adapting() {
    // Adaptation mutates structure between identical queries; answers must
    // never drift.
    let data = DataSpec::Uniform.generate(N, DOMAIN, 17);
    let pred = RangePredicate::between(DOMAIN / 4, DOMAIN / 2);
    let expected = execute_reference(&data, pred, AggKind::Count).count;
    for strategy in Strategy::roster() {
        let mut session = ColumnSession::new(data.clone(), &strategy);
        for i in 0..50 {
            assert_eq!(
                session.count(pred),
                expected,
                "{} iter {i}",
                strategy.label()
            );
        }
    }
}

#[test]
fn tiny_and_empty_columns() {
    for n in [0usize, 1, 2, 63, 64, 65] {
        let data: Vec<i64> = (0..n as i64).collect();
        for strategy in Strategy::roster() {
            let mut session = ColumnSession::new(data.clone(), &strategy);
            let pred = RangePredicate::between(0, 10);
            let expected = execute_reference(&data, pred, AggKind::Count).count;
            assert_eq!(session.count(pred), expected, "{} n={n}", strategy.label());
        }
    }
}
