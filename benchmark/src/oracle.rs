//! Answer checking that stays out of the timed window.
//!
//! Read-only workloads: a sorted copy and its prefix sums give the exact
//! COUNT and SUM of every pool predicate before the service starts, so a
//! reply is checked with two integer compares. `mixed-churn`: a mirror of
//! the column (values + liveness) follows every mutation batch and
//! compaction; it predicts every ack, and sampled replies are replayed
//! against it after the window.

use crate::spec::{agg_of, CHURN_BATCH, DOMAIN};
use ads_engine::{AggKind, QueryAnswer};
use ads_rng::StdRng;
use ads_server::Mutation;
use ads_workloads::RangeQuery;

/// The exact answer to one pool predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    /// Qualifying rows.
    pub count: u64,
    /// Sum of qualifying values.
    pub sum: i64,
}

impl Expected {
    /// True when `answer` (computed for aggregate `agg`) is exactly right.
    /// SUM travels as `f64`; every partial sum here is an integer below
    /// 2^53, so the comparison is exact.
    pub fn matches(&self, agg: AggKind, answer: &QueryAnswer<i64>) -> bool {
        answer.count == self.count && (agg != AggKind::Sum || answer.sum == Some(self.sum as f64))
    }
}

/// Precomputed answers for the whole predicate pool.
#[derive(Debug, Clone)]
pub struct Oracle {
    expected: Vec<Expected>,
}

impl Oracle {
    /// Answers every query of `pool` over `values` (taken by value: the
    /// copy is sorted in place and dropped).
    pub fn build(mut values: Vec<i64>, pool: &[RangeQuery]) -> Oracle {
        values.sort_unstable();
        let mut prefix = Vec::with_capacity(values.len() + 1);
        let mut running = 0i64;
        prefix.push(0);
        for &v in &values {
            running += v;
            prefix.push(running);
        }
        let expected = pool
            .iter()
            .map(|q| {
                let lo = values.partition_point(|&v| v < q.lo);
                let hi = values.partition_point(|&v| v <= q.hi);
                Expected {
                    count: (hi - lo) as u64,
                    sum: prefix[hi] - prefix[lo],
                }
            })
            .collect();
        Oracle { expected }
    }

    /// The expected answer of request `i` (requests cycle the pool).
    pub fn expected(&self, i: usize) -> Expected {
        self.expected[i % self.expected.len()]
    }

    /// True when `answer` is the right reply to request `i`.
    pub fn check(&self, i: usize, answer: &QueryAnswer<i64>) -> bool {
        self.expected(i).matches(agg_of(i), answer)
    }

    /// Deliberately breaks the entry of pool slot `slot`; the self-tests
    /// use it to prove a wrong answer is reported as a failed operation.
    pub fn corrupt(&mut self, slot: usize) {
        self.expected[slot].count += 1;
    }
}

/// Which rows of the mirrored column are live. Row ids are positions in
/// the current (uncompacted) column, exactly the service's rowid space.
#[derive(Debug, Clone)]
pub struct Liveness {
    live: Vec<bool>,
}

impl Liveness {
    /// `rows` rows, all live.
    pub fn new(rows: usize) -> Liveness {
        Liveness {
            live: vec![true; rows],
        }
    }

    /// Current row count, tombstoned rows included.
    pub fn rows(&self) -> usize {
        self.live.len()
    }

    /// Applies one batch the way the service does: a delete or update of
    /// a live row tombstones it, an update also appends its new value
    /// after the batch; dead rows are no-ops. Returns how many mutations
    /// took effect — the expected `mutate()` ack — and the appended values.
    pub fn apply(&mut self, batch: &[Mutation<i64>]) -> (usize, Vec<i64>) {
        let mut appended = Vec::new();
        let mut applied = 0;
        for m in batch {
            let (row, update) = match *m {
                Mutation::Delete(row) => (row, None),
                Mutation::Update(row, v) => (row, Some(v)),
            };
            if std::mem::replace(&mut self.live[row], false) {
                applied += 1;
                appended.extend(update);
            }
        }
        self.live.resize(self.live.len() + appended.len(), true);
        (applied, appended)
    }

    /// Drops every tombstoned row; returns how many — the expected
    /// `compact()` ack.
    pub fn compact(&mut self) -> usize {
        let live = self.live.iter().filter(|&&l| l).count();
        let reclaimed = self.live.len() - live;
        self.live.clear();
        self.live.resize(live, true);
        reclaimed
    }
}

/// The full mirror: values beside liveness.
#[derive(Debug, Clone)]
pub struct Mirror {
    values: Vec<i64>,
    liveness: Liveness,
}

impl Mirror {
    /// A mirror of `values`, all live.
    pub fn new(values: Vec<i64>) -> Mirror {
        let liveness = Liveness::new(values.len());
        Mirror { values, liveness }
    }

    /// Current row count, tombstoned rows included.
    pub fn rows(&self) -> usize {
        self.values.len()
    }

    /// Every row's value, tombstoned rows included.
    pub fn values(&self) -> &[i64] {
        &self.values
    }

    /// Every row's liveness, in row order.
    pub fn live(&self) -> &[bool] {
        &self.liveness.live
    }

    /// The live values, in row order.
    pub fn live_values(&self) -> Vec<i64> {
        self.values
            .iter()
            .zip(&self.liveness.live)
            .filter_map(|(&v, &l)| l.then_some(v))
            .collect()
    }

    /// Applies one mutation batch; returns how many mutations took effect.
    pub fn apply(&mut self, batch: &[Mutation<i64>]) -> usize {
        let (applied, appended) = self.liveness.apply(batch);
        self.values.extend(appended);
        applied
    }

    /// Retains the live rows; returns the rows reclaimed.
    pub fn compact(&mut self) -> usize {
        self.values = self.live_values();
        self.liveness.compact()
    }

    /// The exact answer to `q` over the live rows.
    pub fn answer(&self, q: &RangeQuery) -> Expected {
        let mut out = Expected { count: 0, sum: 0 };
        for (&v, &l) in self.values.iter().zip(&self.liveness.live) {
            if l && v >= q.lo && v <= q.hi {
                out.count += 1;
                out.sum += v;
            }
        }
        out
    }
}

/// The deterministic mutation stream of `mixed-churn`: 256 ops per batch,
/// alternating `Delete` / `Update`, row ids drawn below the *current* row
/// count so no id is ever out of range (an out-of-range id panics the
/// service's maintenance thread; the benchmark must not trigger that).
#[derive(Debug, Clone)]
pub struct ChurnStream {
    rng: StdRng,
}

impl ChurnStream {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> ChurnStream {
        ChurnStream {
            rng: StdRng::seed_from_u64(seed ^ 0xC0FF_EE00_D15E_A5E5),
        }
    }

    /// The next batch, addressed into a column of `rows` rows.
    pub fn next_batch(&mut self, rows: usize) -> Vec<Mutation<i64>> {
        (0..CHURN_BATCH)
            .map(|j| {
                let row = self.rng.gen_range(0..rows);
                if j % 2 == 0 {
                    Mutation::Delete(row)
                } else {
                    Mutation::Update(row, self.rng.gen_range(0..DOMAIN))
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_matches_naive_mirror() {
        let values: Vec<i64> = (0..1000).map(|i| (i * 37) % 101).collect();
        let pool = [
            RangeQuery { lo: 10, hi: 20 },
            RangeQuery { lo: 0, hi: 100 },
            RangeQuery { lo: 55, hi: 55 },
            RangeQuery { lo: 200, hi: 300 },
        ];
        let oracle = Oracle::build(values.clone(), &pool);
        let mirror = Mirror::new(values);
        for (i, q) in pool.iter().enumerate() {
            assert_eq!(oracle.expected(i), mirror.answer(q));
        }
    }

    #[test]
    fn mirror_follows_service_mutation_semantics() {
        let mut m = Mirror::new(vec![1, 2, 3, 4]);
        // Second delete of row 0 and the update of dead row 0 are no-ops.
        let applied = m.apply(&[
            Mutation::Delete(0),
            Mutation::Delete(0),
            Mutation::Update(0, 9),
            Mutation::Update(2, 7),
        ]);
        assert_eq!(applied, 2);
        assert_eq!(m.rows(), 5);
        assert_eq!(m.live_values(), vec![2, 4, 7]);
        assert_eq!(m.compact(), 2);
        assert_eq!(m.values(), &[2, 4, 7]);
        assert_eq!(
            m.answer(&RangeQuery { lo: 3, hi: 8 }),
            Expected { count: 2, sum: 11 }
        );
    }

    #[test]
    fn churn_stream_is_deterministic_and_in_range() {
        let a = ChurnStream::new(5).next_batch(100);
        assert_eq!(a, ChurnStream::new(5).next_batch(100));
        assert_ne!(a, ChurnStream::new(6).next_batch(100));
        assert!(a.iter().all(|m| match m {
            Mutation::Delete(r) | Mutation::Update(r, _) => *r < 100,
        }));
    }
}
