//! Integration tests for the framework extensions: string skipping and
//! disjunctions — exercised together with appends and strategy switches.

use adaptive_data_skipping::core::adaptive::AdaptiveConfig;
use adaptive_data_skipping::core::RangePredicate;
use adaptive_data_skipping::engine::{
    execute_disjunction, execute_reference, in_list, AggKind, Strategy, StringColumnSession,
};
use adaptive_data_skipping::workloads::{data, DataSpec};

fn string_stream(n: usize) -> Vec<String> {
    // Skewed, batched keys with a long tail.
    (0..n)
        .map(|i| {
            if i % 97 == 0 {
                format!("tail{:04}", i % 1000)
            } else {
                format!("hot{:02}", (i / 1000) % 20)
            }
        })
        .collect()
}

#[test]
fn string_sessions_survive_mixed_append_and_query_storms() {
    let full = string_stream(40_000);
    let initial = 20_000usize;
    for strategy in [
        Strategy::FullScan,
        Strategy::StaticZonemap { zone_rows: 512 },
        Strategy::Adaptive(AdaptiveConfig::default()),
    ] {
        let mut s = StringColumnSession::new(&full[..initial], &strategy);
        let mut grown = initial;
        while grown < full.len() {
            let next = (grown + 4000).min(full.len());
            s.append(&full[grown..next]);
            grown = next;
            for probe in ["hot05", "hot19", "tail0097", "absent"] {
                let expected = full[..grown].iter().filter(|v| v.as_str() == probe).count() as u64;
                let (got, _) = s.count_eq(probe);
                assert_eq!(got, expected, "{} eq {probe} at {grown}", s.index_name());
            }
            let expected_prefix = full[..grown]
                .iter()
                .filter(|v| v.starts_with("tail"))
                .count() as u64;
            let (got, _) = s.count_prefix("tail");
            assert_eq!(got, expected_prefix, "{} prefix", s.index_name());
        }
    }
}

#[test]
fn string_positions_round_trip_rows() {
    let values = string_stream(5000);
    let mut s = StringColumnSession::new(&values, &Strategy::StaticZonemap { zone_rows: 256 });
    let (positions, _) = s.positions_prefix("hot01");
    assert!(!positions.is_empty());
    for &p in &positions {
        assert!(s.value(p as usize).starts_with("hot01"));
    }
    assert!(positions.windows(2).all(|w| w[0] < w[1]), "sorted, unique");
}

#[test]
fn disjunctions_match_reference_across_distributions_and_appends() {
    for spec in [DataSpec::Sorted, DataSpec::Uniform, DataSpec::MixedRegions] {
        let mut column = spec.generate(30_000, 50_000, 3);
        for strategy in Strategy::roster() {
            let mut idx = strategy.build_index(&column);
            let preds = vec![
                RangePredicate::between(100i64, 900),
                RangePredicate::between(25_000, 26_000),
                RangePredicate::point(49_999),
            ];
            let (got, _) =
                execute_disjunction(&column, idx.as_mut(), preds.clone(), AggKind::Count);
            let expected: u64 = preds
                .iter()
                .map(|p| execute_reference(&column, *p, AggKind::Count).count)
                .sum();
            assert_eq!(
                got.count,
                expected,
                "{} on {}",
                strategy.label(),
                spec.label()
            );

            // Append and re-ask.
            let extra = data::uniform(2_000, 50_000, 9);
            let old = column.len();
            column.extend_from_slice(&extra);
            idx.on_append(&column[old..], &column);
            let (got2, _) =
                execute_disjunction(&column, idx.as_mut(), preds.clone(), AggKind::Count);
            let expected2: u64 = preds
                .iter()
                .map(|p| execute_reference(&column, *p, AggKind::Count).count)
                .sum();
            assert_eq!(got2.count, expected2, "{} post-append", strategy.label());
            column.truncate(old);
        }
    }
}

#[test]
fn in_list_skipping_on_session_data() {
    let column: Vec<i64> = (0..50_000).collect();
    let mut idx = Strategy::Adaptive(AdaptiveConfig::default()).build_index(&column);
    let preds = in_list(&[7i64, 7, 25_000, 49_999, 60_000]);
    // Warm up (adaptive builds metadata), then expect localized scans.
    let _ = execute_disjunction(&column, idx.as_mut(), preds.clone(), AggKind::Count);
    let (got, m) = execute_disjunction(&column, idx.as_mut(), preds, AggKind::Count);
    assert_eq!(got.count, 3);
    assert!(
        m.rows_scanned < 50_000 / 2,
        "IN-list should not scan the world: {}",
        m.rows_scanned
    );
}

#[test]
fn generic_value_types_work_end_to_end() {
    // The whole stack is generic over DataValue; exercise u64 and f64.
    let u_data: Vec<u64> = (0..20_000u64).map(|i| (i * 2654435761) % 100_000).collect();
    for strategy in Strategy::roster() {
        let mut idx = strategy.build_index(&u_data);
        let pred = RangePredicate::between(10_000u64, 20_000);
        let got =
            adaptive_data_skipping::engine::execute(&u_data, idx.as_mut(), pred, AggKind::Count);
        let want = execute_reference(&u_data, pred, AggKind::Count);
        assert_eq!(got.0.count, want.count, "{} u64", strategy.label());
    }

    let f_data: Vec<f64> = (0..20_000)
        .map(|i| ((i * 37) % 1000) as f64 / 7.0)
        .collect();
    for strategy in Strategy::roster() {
        let mut idx = strategy.build_index(&f_data);
        let pred = RangePredicate::between(10.0, 100.0);
        let got =
            adaptive_data_skipping::engine::execute(&f_data, idx.as_mut(), pred, AggKind::Sum);
        let want = execute_reference(&f_data, pred, AggKind::Sum);
        assert_eq!(got.0.count, want.count, "{} f64", strategy.label());
        let (a, b) = (got.0.sum.unwrap(), want.sum.unwrap());
        assert!((a - b).abs() < 1e-6, "{} f64 sum", strategy.label());
    }
}

#[test]
fn f64_columns_with_nan_stay_sound() {
    let mut f_data: Vec<f64> = (0..5000).map(|i| (i % 100) as f64).collect();
    f_data[777] = f64::NAN;
    f_data[4001] = f64::NEG_INFINITY;
    for strategy in [
        Strategy::StaticZonemap { zone_rows: 256 },
        Strategy::Adaptive(AdaptiveConfig::default()),
        Strategy::FullScan,
    ] {
        let mut idx = strategy.build_index(&f_data);
        for _ in 0..3 {
            let pred = RangePredicate::between(10.0, 20.0);
            let (got, _) = adaptive_data_skipping::engine::execute(
                &f_data,
                idx.as_mut(),
                pred,
                AggKind::Count,
            );
            let want = execute_reference(&f_data, pred, AggKind::Count);
            assert_eq!(got.count, want.count, "{}", strategy.label());
        }
        // Predicates that include the infinities. NaN sorts above +inf
        // under IEEE totalOrder, so it matches no numeric range — the
        // same "comparisons with NaN are false" semantics SQL uses.
        let wide = RangePredicate::between(f64::NEG_INFINITY, f64::INFINITY);
        let (got, _) =
            adaptive_data_skipping::engine::execute(&f_data, idx.as_mut(), wide, AggKind::Count);
        assert_eq!(
            got.count,
            4999,
            "{} wide excludes the NaN row",
            strategy.label()
        );
        // RangePredicate::all() uses MAX_VALUE = +inf for f64, same story.
        let all = RangePredicate::<f64>::all();
        let (got, _) =
            adaptive_data_skipping::engine::execute(&f_data, idx.as_mut(), all, AggKind::Count);
        assert_eq!(got.count, 4999, "{}", strategy.label());
    }
}
