//! Query workload generators: sequences of range predicates.
//!
//! Selectivity here is *value-domain* selectivity — the predicate covers
//! `selectivity * domain` of the value space. The row selectivity this
//! induces depends on the data distribution (uniform data makes the two
//! coincide), which the experiment write-ups note where it matters.

use ads_rng::StdRng;

/// One range query `[lo, hi]` (inclusive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangeQuery {
    /// Inclusive lower bound.
    pub lo: i64,
    /// Inclusive upper bound.
    pub hi: i64,
}

impl RangeQuery {
    /// Width of the queried value interval.
    pub fn width(&self) -> i64 {
        self.hi - self.lo
    }
}

/// Width of a predicate covering `selectivity` of `[0, domain)`.
fn width_for(domain: i64, selectivity: f64) -> i64 {
    ((domain as f64 * selectivity) as i64).clamp(0, domain - 1)
}

/// A query with lower bound `lo`, clamped into the domain.
fn query_at(lo: i64, width: i64, domain: i64) -> RangeQuery {
    let lo = lo.clamp(0, domain - 1 - width);
    RangeQuery { lo, hi: lo + width }
}

/// Ranges with uniformly random positions and fixed selectivity.
pub fn uniform_ranges(count: usize, domain: i64, selectivity: f64, seed: u64) -> Vec<RangeQuery> {
    let width = width_for(domain, selectivity);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| query_at(rng.gen_range(0..domain), width, domain))
        .collect()
}

/// Point (equality) queries at uniformly random values.
pub fn point_queries(count: usize, domain: i64, seed: u64) -> Vec<RangeQuery> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let v = rng.gen_range(0..domain);
            RangeQuery { lo: v, hi: v }
        })
        .collect()
}

/// Ranges concentrated in a hotspot: positions are drawn from
/// `[center - hw, center + hw)` where `hw = hotspot_width_fraction * domain / 2`.
pub fn hotspot_ranges(
    count: usize,
    domain: i64,
    selectivity: f64,
    center_fraction: f64,
    hotspot_width_fraction: f64,
    seed: u64,
) -> Vec<RangeQuery> {
    let width = width_for(domain, selectivity);
    let center = (domain as f64 * center_fraction) as i64;
    let hw = ((domain as f64 * hotspot_width_fraction) as i64 / 2).max(1);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| query_at(center + rng.gen_range(-hw..hw), width, domain))
        .collect()
}

/// A workload whose hotspot jumps to a new random centre every
/// `count / phases` queries — the workload-shift scenario (E7).
pub fn shifting_hotspot(
    count: usize,
    domain: i64,
    selectivity: f64,
    phases: usize,
    hotspot_width_fraction: f64,
    seed: u64,
) -> Vec<RangeQuery> {
    assert!(phases > 0, "need at least one phase");
    let per_phase = count.div_ceil(phases);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(count);
    for p in 0..phases {
        let center_fraction = rng.gen_range(0.1..0.9);
        let take = per_phase.min(count - out.len());
        out.extend(hotspot_ranges(
            take,
            domain,
            selectivity,
            center_fraction,
            hotspot_width_fraction,
            seed ^ (p as u64 + 1),
        ));
    }
    out
}

/// A deterministic window sweeping the domain left to right, wrapping —
/// the dashboard-refresh pattern.
pub fn sweep(count: usize, domain: i64, selectivity: f64) -> Vec<RangeQuery> {
    let width = width_for(domain, selectivity);
    let step = (domain / count.max(1) as i64).max(1);
    (0..count)
        .map(|i| query_at((i as i64 * step) % domain, width, domain))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOMAIN: i64 = 1_000_000;

    fn all_valid(qs: &[RangeQuery]) {
        for q in qs {
            assert!(q.lo <= q.hi, "{q:?}");
            assert!(q.lo >= 0 && q.hi < DOMAIN, "{q:?}");
        }
    }

    #[test]
    fn uniform_ranges_have_requested_width() {
        let qs = uniform_ranges(100, DOMAIN, 0.01, 1);
        all_valid(&qs);
        assert!(qs.iter().all(|q| q.width() == DOMAIN / 100));
        assert_eq!(qs, uniform_ranges(100, DOMAIN, 0.01, 1), "deterministic");
    }

    #[test]
    fn point_queries_are_points() {
        let qs = point_queries(50, DOMAIN, 2);
        all_valid(&qs);
        assert!(qs.iter().all(|q| q.width() == 0));
    }

    #[test]
    fn hotspot_stays_in_hotspot() {
        let qs = hotspot_ranges(200, DOMAIN, 0.001, 0.5, 0.1, 3);
        all_valid(&qs);
        let center = DOMAIN / 2;
        for q in &qs {
            assert!(
                (q.lo - center).abs() < DOMAIN / 10,
                "{q:?} far from hotspot"
            );
        }
    }

    #[test]
    fn shifting_hotspot_changes_phase_centres() {
        let qs = shifting_hotspot(300, DOMAIN, 0.001, 3, 0.05, 4);
        assert_eq!(qs.len(), 300);
        all_valid(&qs);
        let mean = |s: &[RangeQuery]| s.iter().map(|q| q.lo).sum::<i64>() / s.len() as i64;
        let (m1, m2, m3) = (mean(&qs[..100]), mean(&qs[100..200]), mean(&qs[200..]));
        assert!(
            (m1 - m2).abs() > DOMAIN / 20 || (m2 - m3).abs() > DOMAIN / 20,
            "phases should move: {m1} {m2} {m3}"
        );
    }

    #[test]
    fn sweep_covers_domain_monotonically() {
        let qs = sweep(100, DOMAIN, 0.005);
        all_valid(&qs);
        assert!(qs.windows(2).take(98).all(|w| w[0].lo <= w[1].lo));
        assert!(qs.last().unwrap().lo > DOMAIN / 2);
    }

    #[test]
    fn zero_count() {
        assert!(uniform_ranges(0, DOMAIN, 0.1, 1).is_empty());
        assert!(sweep(0, DOMAIN, 0.1).is_empty());
    }
}
