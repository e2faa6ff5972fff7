//! The inline query protocol, written once.
//!
//! The paper's framework is a two-step contract around every scan: the
//! index *prunes* before it and *learns* from it after (`observe`, then
//! its periodic `maintain` slot), with adaptation charged to the query
//! that caused it. A [`Lane`] is one column's side of a query and owns
//! those two steps; [`Lane::run`] drives any number of lanes through
//! prune → [`scan_sharded`] → learn, and `Protocol` is the only place a
//! [`QueryMetrics`] is assembled. Every inline front door — `execute*`,
//! `execute_sharded`, the sessions, `ads-audit`, the multi-column
//! conjunction — is a caller of these, so none of them can skip a step.

use crate::exec_policy::ExecPolicy;
use crate::executor::{AggKind, QueryAnswer, ScanPhase};
use crate::metrics::QueryMetrics;
use crate::sharded_exec::{scan_sharded, ShardScanInput, ShardedQueryMetrics};
use ads_core::{PruneOutcome, RangePredicate, ScanCoords, ScanObservation, SkippingIndex};
use ads_storage::{DataValue, DeleteVector, RangeSet};
use std::time::Instant;

/// What the protocol steps of one query have cost so far. Started before
/// the first prune, added to by every lane's steps, closed into the
/// query's [`QueryMetrics`] after the last learn.
pub(crate) struct Protocol {
    t0: Instant,
    zones_probed: usize,
    zones_skipped: usize,
    adapt_events: u64,
    prune_ns: u64,
    observe_ns: u64,
}

impl Protocol {
    pub(crate) fn start() -> Self {
        Protocol {
            t0: Instant::now(),
            zones_probed: 0,
            zones_skipped: 0,
            adapt_events: 0,
            prune_ns: 0,
            observe_ns: 0,
        }
    }

    /// Closes the query: the steps' costs, the scan phase between them,
    /// and what the answer turned out to be.
    pub(crate) fn finish(
        self,
        phase: ScanPhase,
        rows_full_match: usize,
        rows_matched: u64,
    ) -> QueryMetrics {
        QueryMetrics {
            wall_ns: self.t0.elapsed().as_nanos() as u64,
            zones_probed: self.zones_probed,
            zones_skipped: self.zones_skipped,
            rows_scanned: phase.rows_scanned,
            rows_with_byproducts: phase.rows_with_byproducts,
            rows_full_match,
            rows_matched,
            adapt_events: self.adapt_events,
            prune_ns: self.prune_ns,
            scan_ns: phase.scan_ns,
            observe_ns: self.observe_ns,
            threads_used: phase.threads_used,
            conjuncts_probed: 0,
            plan_fallback: false,
        }
    }
}

/// One column's side of a query: its rows, the index that prunes them,
/// the tombstones that mask them, and where they sit in the global row
/// space. A sharded column is one lane per shard; an unsharded one is a
/// single lane starting at row 0.
pub struct Lane<'a, T: DataValue> {
    /// The lane's base rows.
    pub data: &'a [T],
    /// The index over exactly those rows.
    pub index: &'a mut dyn SkippingIndex<T>,
    /// The lane's tombstones, in lane-local coordinates; `None` (or an
    /// all-live vector) scans unmasked.
    pub live: Option<&'a DeleteVector>,
    /// Global row id of the lane's first row (offsets POSITIONS output).
    pub start: usize,
}

impl<'a, T: DataValue> Lane<'a, T> {
    /// An unsharded, delete-free lane.
    pub fn new(data: &'a [T], index: &'a mut dyn SkippingIndex<T>) -> Self {
        Lane {
            data,
            index,
            live: None,
            start: 0,
        }
    }

    /// Protocol step one: asks the index what to scan — among the rows
    /// still `alive` after earlier conjuncts, when given. It is the walk
    /// the lane learns the query from, so the step runs every query, even
    /// for a lane the predicate skips entirely.
    pub(crate) fn prune(
        &mut self,
        pred: &RangePredicate<T>,
        alive: Option<&RangeSet>,
        protocol: &mut Protocol,
    ) -> PruneOutcome {
        let t = Instant::now();
        // Cracking reorganises inside its prune: events count from here.
        let events_before = self.index.adapt_events();
        let outcome = match alive {
            Some(alive) => self.index.prune_within(pred, alive),
            None => self.index.prune(pred),
        };
        protocol.adapt_events += self.index.adapt_events() - events_before;
        protocol.zones_probed += outcome.zones_probed;
        protocol.zones_skipped += outcome.zones_skipped;
        protocol.prune_ns += t.elapsed().as_nanos() as u64;
        outcome
    }

    /// Protocol step two: applies the scan's feedback and the walk it
    /// carries (the index's clocks advance here), then gives the index its
    /// periodic self-maintenance slot (zone promotion and demotion,
    /// metadata tiers) — adaptation is paid on the query path, exactly
    /// where the paper charges it.
    pub(crate) fn learn(&mut self, observation: &ScanObservation<T>, protocol: &mut Protocol) {
        let t = Instant::now();
        let events_before = self.index.adapt_events();
        self.index.observe(observation);
        self.index.maintain(self.data);
        protocol.adapt_events += self.index.adapt_events() - events_before;
        protocol.observe_ns += t.elapsed().as_nanos() as u64;
    }

    /// Runs one query over `lanes` with inline adaptation: every lane
    /// prunes, the scan phase is fused across lanes ([`scan_sharded`]),
    /// every lane learns. Answers and post-query index state are
    /// identical under every policy; only latency (and `threads_used`)
    /// differ.
    ///
    /// With tombstones, answers cover live rows only while the `(min,
    /// max)` a lane learns still covers all its rows — deleted rows keep
    /// zone bounds conservative until compaction rebuilds them.
    ///
    /// # Panics
    /// Panics when a delete vector does not cover its lane's rows, and
    /// when a view-coordinate index (cracking, the sorted oracle) is not
    /// alone and delete-free: such an index scans its own reorganised
    /// copy, whose row order neither another lane's global offsets nor a
    /// base-coordinate delete vector can address.
    pub fn run(
        lanes: &mut [Lane<'_, T>],
        pred: RangePredicate<T>,
        agg: AggKind,
        policy: &ExecPolicy,
    ) -> (QueryAnswer<T>, ShardedQueryMetrics) {
        let mut protocol = Protocol::start();
        let outcomes: Vec<PruneOutcome> = lanes
            .iter_mut()
            .map(|lane| lane.prune(&pred, None, &mut protocol))
            .collect();

        let view = lanes
            .iter()
            .any(|lane| lane.index.scan_coords() == ScanCoords::View);
        assert!(
            !view || (lanes.len() == 1 && lanes[0].live.is_none()),
            "a view-coordinate index is a one-lane, delete-free affair"
        );
        let inputs: Vec<ShardScanInput<'_, T>> = lanes
            .iter()
            .zip(&outcomes)
            .map(|(lane, outcome)| {
                assert!(
                    lane.live.is_none_or(|dv| dv.len() == lane.data.len()),
                    "delete vector must cover the lane's rows"
                );
                ShardScanInput {
                    data: if view {
                        // invariant: ScanCoords::View is only reported by
                        // indexes that expose a view (checked by the
                        // SkippingIndex contract tests).
                        (lane.index.view()).expect("view-coordinate index must expose a view")
                    } else {
                        lane.data
                    },
                    outcome,
                    start: lane.start,
                    live: lane.live,
                }
            })
            .collect();
        let mut result = scan_sharded(&inputs, pred, agg, policy);
        drop(inputs);
        if let (true, Some(positions)) = (view, result.answer.positions.as_mut()) {
            lanes[0].index.translate_positions(positions);
            positions.sort_unstable();
        }

        for (lane, observation) in lanes.iter_mut().zip(&result.observations) {
            lane.learn(observation, &mut protocol);
        }
        let query = protocol.finish(
            result.phase,
            result.lanes.iter().map(|l| l.rows_full_match).sum(),
            result.answer.count,
        );
        (
            result.answer,
            ShardedQueryMetrics {
                query,
                shards: result.lanes,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{execute_reference, execute_reference_with_deletes};
    use crate::strategy::Strategy;

    const ALL_AGGS: [AggKind; 5] = [
        AggKind::Count,
        AggKind::Sum,
        AggKind::Min,
        AggKind::Max,
        AggKind::Positions,
    ];

    fn data() -> Vec<i64> {
        (0..6000).map(|i| (i * 2654435761i64) % 4000).collect()
    }

    fn assert_bit_identical(got: &QueryAnswer<i64>, want: &QueryAnswer<i64>, ctx: &str) {
        assert_eq!(got.count, want.count, "{ctx}");
        assert_eq!(
            got.sum.map(f64::to_bits),
            want.sum.map(f64::to_bits),
            "{ctx}"
        );
        assert_eq!(got.min, want.min, "{ctx}");
        assert_eq!(got.max, want.max, "{ctx}");
        assert_eq!(got.positions, want.positions, "{ctx}");
    }

    /// Deletes and a non-adaptive index through the unsharded door: no
    /// entry point could take a `dyn SkippingIndex` *and* a delete vector
    /// before the lane carried both.
    #[test]
    fn one_lane_with_deletes_matches_the_masked_reference_for_static_indexes() {
        let data = data();
        let mut live = DeleteVector::new(data.len(), 1);
        for row in (0..data.len()).step_by(5) {
            live.delete(row);
        }
        let imprints = Strategy::Imprints {
            values_per_line: 8,
            bins: 32,
        };
        for strategy in [Strategy::StaticZonemap { zone_rows: 300 }, imprints] {
            let mut index = strategy.build_index(&data);
            for (q, agg) in (0..15).zip(ALL_AGGS.iter().cycle()) {
                let lo = q * 307 % 3500;
                let pred = RangePredicate::between(lo, lo + 500);
                let lane = Lane {
                    data: &data,
                    index: index.as_mut(),
                    live: Some(&live),
                    start: 0,
                };
                let (got, m) = Lane::run(&mut [lane], pred, *agg, &ExecPolicy::sequential());
                let want = execute_reference_with_deletes(&data, &live, pred, *agg);
                assert_bit_identical(&got, &want, &format!("{} q{q} {agg:?}", strategy.label()));
                assert_eq!(m.query.rows_matched, want.count);
            }
        }
    }

    /// The lane is the unit, not `ShardedZonemap`: two lanes of different
    /// index types answer one query.
    #[test]
    fn lanes_of_different_index_types_match_the_reference() {
        let data = data();
        let (left, right) = data.split_at(2500);
        let mut fixed = Strategy::StaticZonemap { zone_rows: 256 }.build_index(left);
        let mut adaptive = Strategy::Adaptive(Default::default()).build_index(right);
        for (q, agg) in (0..20).zip(ALL_AGGS.iter().cycle()) {
            let lo = q * 211 % 3500;
            let pred = RangePredicate::between(lo, lo + 400);
            let mut lanes = [
                Lane::new(left, fixed.as_mut()),
                Lane {
                    start: left.len(),
                    ..Lane::new(right, adaptive.as_mut())
                },
            ];
            let (got, m) = Lane::run(&mut lanes, pred, *agg, &ExecPolicy::sequential());
            let want = execute_reference(&data, pred, *agg);
            assert_bit_identical(&got, &want, &format!("q{q} {agg:?}"));
            assert_eq!(m.shards.len(), 2);
            assert_eq!(
                m.query.zones_probed,
                m.shards.iter().map(|l| l.zones_probed).sum::<usize>()
            );
        }
        assert!(adaptive.adapt_events() > 0, "the adaptive lane learnt");
    }

    #[test]
    #[should_panic(expected = "a view-coordinate index is a one-lane, delete-free affair")]
    fn a_view_coordinate_index_cannot_share_a_query() {
        let data = data();
        let (left, right) = data.split_at(3000);
        let mut cracker = Strategy::Cracking.build_index(left);
        let mut fixed = Strategy::StaticZonemap { zone_rows: 256 }.build_index(right);
        let mut lanes = [
            Lane::new(left, cracker.as_mut()),
            Lane {
                start: left.len(),
                ..Lane::new(right, fixed.as_mut())
            },
        ];
        Lane::run(
            &mut lanes,
            RangePredicate::between(10, 90),
            AggKind::Count,
            &ExecPolicy::sequential(),
        );
    }
}
