//! Property suite backfilling `ColumnImprints` coverage against the
//! sorted-oracle baseline: for seed-looped random columns and predicate
//! streams, the rows the imprints admit (full-match plus candidates that
//! actually qualify) must equal exactly the qualifying set the sorted
//! oracle identifies — imprints may over-admit, never lose a row, and
//! never full-match a non-qualifying one.

use ads_baselines::{ColumnImprints, SortedOracle};
use ads_core::{RangePredicate, SkippingIndex};

/// Deterministic splitmix64 stream — keeps the suite dependency-free.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Column shapes the suite sweeps: sorted, random, clustered, heavy
/// duplicates.
fn column(shape: usize, rows: usize, domain: i64, rng: &mut Mix) -> Vec<i64> {
    match shape % 4 {
        0 => (0..rows as i64).map(|i| i * domain / rows as i64).collect(),
        1 => (0..rows).map(|_| rng.below(domain as u64) as i64).collect(),
        2 => {
            // 8 positionally contiguous value clusters.
            let per = rows.div_ceil(8);
            (0..rows)
                .map(|i| {
                    let center = ((i / per) as i64 * domain / 8) + domain / 16;
                    center + rng.below(1 + domain as u64 / 64) as i64
                })
                .collect()
        }
        _ => (0..rows).map(|_| rng.below(16) as i64 * 100).collect(),
    }
}

#[test]
fn imprint_admission_matches_sorted_oracle_exactly() {
    const DOMAIN: i64 = 100_000;
    for seed in 0..24u64 {
        let mut rng = Mix(seed.wrapping_mul(0x9E37_79B9) + 1);
        let rows = 1_000 + (seed as usize % 5) * 700;
        let data = column(seed as usize, rows, DOMAIN, &mut rng);
        let mut imp = ColumnImprints::build(
            &data,
            1 + (seed as usize % 3) * 7,
            [2, 16, 64][seed as usize % 3],
        );
        let mut oracle = SortedOracle::build(&data);

        for _ in 0..16 {
            let lo = rng.below(DOMAIN as u64) as i64;
            let width = rng.below(1 + DOMAIN as u64 / 4) as i64;
            let pred = RangePredicate::between(lo, (lo + width).min(DOMAIN));

            // Ground truth from the oracle (view coordinates, exact).
            let want = oracle.prune(&pred).rows_full_match();

            let out = imp.prune(&pred);
            // Never-false-negative + exact-full-match: filtering the
            // candidates recovers exactly the oracle's qualifying count.
            let mut got = out.rows_full_match();
            for r in out.units.iter().map(|u| u.range) {
                got += data[r.start..r.end]
                    .iter()
                    .filter(|&&v| pred.matches(v))
                    .count();
            }
            assert_eq!(
                got, want,
                "seed {seed} {pred}: imprints admitted {got}, oracle says {want}"
            );
            for r in out.full_match.ranges() {
                assert!(
                    data[r.start..r.end].iter().all(|&v| pred.matches(v)),
                    "seed {seed} {pred}: full-match range {r:?} holds a non-qualifying row"
                );
            }
        }
    }
}

#[test]
fn imprint_admission_matches_oracle_through_appends() {
    const DOMAIN: i64 = 10_000;
    let mut rng = Mix(77);
    let mut data = column(1, 800, DOMAIN, &mut rng);
    let mut imp = ColumnImprints::build(&data, 8, 32);
    let mut oracle = SortedOracle::build(&data);
    for batch in 0..6 {
        let fresh: Vec<i64> = (0..45 + batch * 13)
            .map(|_| rng.below(DOMAIN as u64) as i64)
            .collect();
        data.extend_from_slice(&fresh);
        imp.on_append(&fresh, &data);
        oracle.on_append(&fresh, &data);
        for _ in 0..8 {
            let lo = rng.below(DOMAIN as u64) as i64;
            let pred = RangePredicate::between(lo, (lo + 500).min(DOMAIN));
            let want = oracle.prune(&pred).rows_full_match();
            let out = imp.prune(&pred);
            let mut got = out.rows_full_match();
            for r in out.units.iter().map(|u| u.range) {
                got += data[r.start..r.end]
                    .iter()
                    .filter(|&&v| pred.matches(v))
                    .count();
            }
            assert_eq!(got, want, "batch {batch} {pred}");
        }
    }
}
