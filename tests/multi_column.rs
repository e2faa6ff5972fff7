//! Multi-column conjunction correctness across strategies and shapes.

use adaptive_data_skipping::core::adaptive::AdaptiveConfig;
use adaptive_data_skipping::core::RangePredicate;
use adaptive_data_skipping::engine::{AnyPredicate, Strategy, TableSession};
use adaptive_data_skipping::storage::{Column, ColumnAccess, Table};
use adaptive_data_skipping::workloads::data;

const N: usize = 30_000;
const DOMAIN: i64 = 100_000;

/// Column `name` of `t` with its stored type.
fn typed<'t, T: ColumnAccess>(t: &'t Table, name: &str) -> &'t Column<T> {
    T::from_any(t.column(name).expect("column exists")).expect("column type")
}

fn table() -> Table {
    let mut t = Table::new("t");
    t.add_column("a", Column::from_values(data::sorted(N, DOMAIN)))
        .expect("fresh column");
    t.add_column("b", Column::from_values(data::uniform(N, DOMAIN, 1)))
        .expect("fresh column");
    t.add_column(
        "c",
        Column::from_values(data::clustered(N, 16, 0.02, DOMAIN, 2)),
    )
    .expect("fresh column");
    t.add_column(
        "f",
        Column::from_values(
            data::uniform(N, 1000, 3)
                .into_iter()
                .map(|v| v as f64 / 10.0)
                .collect::<Vec<f64>>(),
        ),
    )
    .expect("fresh column");
    t
}

fn base_strategies() -> Vec<Strategy> {
    vec![
        Strategy::FullScan,
        Strategy::StaticZonemap { zone_rows: 1024 },
        Strategy::Adaptive(AdaptiveConfig::default()),
        Strategy::Imprints {
            values_per_line: 8,
            bins: 32,
        },
    ]
}

fn reference(t: &Table, preds: &[(&str, AnyPredicate)]) -> u64 {
    (0..t.num_rows())
        .filter(|&i| {
            preds.iter().all(|(name, p)| match p {
                AnyPredicate::I64(p) => p.matches(typed::<i64>(t, name).value(i)),
                AnyPredicate::F64(p) => p.matches(typed::<f64>(t, name).value(i)),
                _ => unreachable!("test uses i64/f64 only"),
            })
        })
        .count() as u64
}

#[test]
fn two_and_three_way_conjunctions_match_reference() {
    let t = table();
    let shapes: Vec<Vec<(&str, AnyPredicate)>> = vec![
        vec![
            (
                "a",
                AnyPredicate::I64(RangePredicate::between(10_000, 30_000)),
            ),
            ("b", AnyPredicate::I64(RangePredicate::between(0, 50_000))),
        ],
        vec![
            ("a", AnyPredicate::I64(RangePredicate::between(0, 99_999))),
            (
                "b",
                AnyPredicate::I64(RangePredicate::between(40_000, 41_000)),
            ),
            ("c", AnyPredicate::I64(RangePredicate::between(0, 60_000))),
        ],
        vec![
            ("a", AnyPredicate::I64(RangePredicate::at_least(90_000))),
            ("f", AnyPredicate::F64(RangePredicate::between(25.0, 75.0))),
        ],
    ];
    for strategy in base_strategies() {
        let mut ts = TableSession::new(t.clone(), &strategy, &["a", "b", "c", "f"])
            .expect("base-coordinate strategy");
        for (si, shape) in shapes.iter().enumerate() {
            let expected = reference(&t, shape);
            // Twice: adaptive structures reorganise between runs.
            for round in 0..2 {
                let (count, _) = ts.count_conjunction(shape).expect("valid conjunction");
                assert_eq!(
                    count,
                    expected,
                    "{} shape {si} round {round}",
                    strategy.label()
                );
            }
        }
    }
}

#[test]
fn empty_and_full_conjunctions() {
    let t = table();
    for strategy in base_strategies() {
        let mut ts =
            TableSession::new(t.clone(), &strategy, &["a", "b"]).expect("base-coordinate strategy");
        // Contradictory conjunction: a high AND a low.
        let (count, _) = ts
            .count_conjunction(&[
                ("a", AnyPredicate::I64(RangePredicate::at_least(90_000))),
                (
                    "a",
                    AnyPredicate::I64(RangePredicate::between(i64::MIN, 10_000)),
                ),
            ])
            .expect("valid conjunction");
        assert_eq!(count, 0, "{}", strategy.label());
        // All-pass conjunction.
        let (count, _) = ts
            .count_conjunction(&[
                ("a", AnyPredicate::I64(RangePredicate::all())),
                ("b", AnyPredicate::I64(RangePredicate::all())),
            ])
            .expect("valid conjunction");
        assert_eq!(count, N as u64, "{}", strategy.label());
    }
}

#[test]
fn sum_conjunction_over_unfiltered_column() {
    let t = table();
    let shape = [("a", AnyPredicate::I64(RangePredicate::between(0, 49_999)))];
    let expected_count = reference(&t, &shape);
    let expected_sum: f64 = {
        let a = typed::<i64>(&t, "a");
        let f = typed::<f64>(&t, "f");
        (0..t.num_rows())
            .filter(|&i| (0..=49_999).contains(&a.value(i)))
            .map(|i| f.value(i))
            .sum()
    };
    for strategy in base_strategies() {
        let mut ts =
            TableSession::new(t.clone(), &strategy, &["a"]).expect("base-coordinate strategy");
        let (count, sum, _) = ts.sum_conjunction(&shape, "f").expect("valid sum");
        assert_eq!(count, expected_count, "{}", strategy.label());
        assert!(
            (sum - expected_sum).abs() < 1e-6,
            "{}: {sum} vs {expected_sum}",
            strategy.label()
        );
    }
}

#[test]
fn adaptive_indexes_do_adapt_through_table_sessions() {
    // Regression test: multi-column scans must produce zone-aligned
    // observations so adaptive zonemaps build metadata and start skipping.
    let t = table();
    let mut ts = TableSession::new(
        t,
        &Strategy::Adaptive(AdaptiveConfig::default()),
        &["a", "b"],
    )
    .expect("base-coordinate strategy");
    let shape = [
        (
            "a",
            AnyPredicate::I64(RangePredicate::between(10_000, 11_000)),
        ),
        ("b", AnyPredicate::I64(RangePredicate::all())),
    ];
    let (_, first) = ts.count_conjunction(&shape).expect("valid conjunction");
    let mut last = first;
    for _ in 0..4 {
        let (_, m) = ts.count_conjunction(&shape).expect("valid conjunction");
        last = m;
    }
    assert!(
        last.rows_scanned < first.rows_scanned / 2,
        "adaptation through table sessions: first {} vs later {}",
        first.rows_scanned,
        last.rows_scanned
    );
}
