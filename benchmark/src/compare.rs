//! `compare <a.json> <b.json>`: two sets of runs, metric by metric.

use crate::json::Json;
use crate::spec::{Better, END_TO_END, WORKLOADS};
use crate::stats::{median, quartile_spread};

/// How `b` stands against `a` on one workload × end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b`'s median is no worse than `a`'s by more than the bound.
    Within,
    /// `b`'s median is worse by more than the bound.
    Worse,
    /// A set's own quartile spread is wider than the bound, so the
    /// medians cannot be told apart at that resolution.
    Unresolved,
    /// One of the files has no tracing-off run of the workload.
    Missing,
}

impl Verdict {
    fn label(&self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "missing",
        }
    }
}

/// The values of `metric` over the tracing-off runs of `workload` in a
/// result file.
fn values_of(doc: &Json, workload: &str, metric: &str) -> Vec<f64> {
    let runs = doc.get("runs").and_then(Json::as_arr).unwrap_or(&[]);
    runs.iter()
        .filter(|r| {
            r.get("workload").and_then(Json::as_str) == Some(workload)
                && r.get("trace").and_then(Json::as_f64) == Some(0.0)
        })
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Compares two result documents; returns the report (a markdown table)
/// and whether any row is `worse`.
pub fn compare(a: &Json, b: &Json) -> (String, bool) {
    let mut out = String::from(
        "| workload | metric | runs a/b | median a | median b | b/a | spread a | spread b | bound | verdict |\n\
         |---|---|---|---|---|---|---|---|---|---|\n",
    );
    let mut any_worse = false;
    for w in &WORKLOADS {
        for m in &END_TO_END {
            // invariant: every end-to-end metric carries a bound.
            let bound = m.bound.expect("end-to-end metrics are bounded");
            let (va, vb) = (values_of(a, w.name, m.name), values_of(b, w.name, m.name));
            let (ma, mb) = (median(&va), median(&vb));
            let (sa, sb) = (quartile_spread(&va), quartile_spread(&vb));
            let worsening = match m.better {
                Better::Lower => (mb - ma) / ma,
                Better::Higher => (ma - mb) / ma,
            };
            let verdict = if va.is_empty() || vb.is_empty() {
                Verdict::Missing
            } else if sa > bound || sb > bound {
                Verdict::Unresolved
            } else if worsening > bound {
                Verdict::Worse
            } else {
                Verdict::Within
            };
            any_worse |= verdict == Verdict::Worse;
            out.push_str(&format!(
                "| {} | {} ({}, {} is better) | {}/{} | {:.4} | {:.4} | {:.4} | {:.2}% | {:.2}% | {:.0}% | {} |\n",
                w.name,
                m.name,
                m.unit,
                m.better.label(),
                va.len(),
                vb.len(),
                ma,
                mb,
                mb / ma,
                100.0 * sa,
                100.0 * sb,
                100.0 * bound,
                verdict.label(),
            ));
        }
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(qps: &[f64]) -> Json {
        let runs = qps
            .iter()
            .map(|&v| {
                Json::obj([
                    ("workload", Json::str("uniform-scan")),
                    ("trace", Json::num(0.0)),
                    (
                        "metrics",
                        Json::obj([("throughput_qps", Json::obj([("value", Json::num(v))]))]),
                    ),
                ])
            })
            .collect();
        Json::obj([("runs", Json::Arr(runs))])
    }

    fn verdict_of(a: &[f64], b: &[f64]) -> (String, bool) {
        let (report, worse) = compare(&doc(a), &doc(b));
        let row = report
            .lines()
            .find(|l| l.contains("uniform-scan | throughput_qps"))
            .unwrap()
            .to_string();
        (row, worse)
    }

    #[test]
    fn flags_worse_within_and_unresolved() {
        let bound = END_TO_END
            .iter()
            .find(|m| m.name == "throughput_qps")
            .and_then(|m| m.bound)
            .unwrap();
        let a = [100.0, 101.0, 99.0];
        let shifted = |by: f64| a.map(|v| v * (1.0 + by));
        let (row, worse) = verdict_of(&a, &shifted(-(bound + 0.05)));
        assert!(row.ends_with("| worse |") && worse, "{row}");
        let (row, worse) = verdict_of(&a, &shifted(-bound / 2.0));
        assert!(row.ends_with("| within |") && !worse, "{row}");
        // Higher throughput is never worse, however large the change.
        let (row, worse) = verdict_of(&a, &shifted(0.5));
        assert!(row.ends_with("| within |") && !worse, "{row}");
        // A set whose own quartiles lie further apart than the bound
        // resolves nothing, whatever the medians say.
        let wide = [100.0, 100.0 * (1.0 + bound), 100.0 / (1.0 + bound)];
        let (row, worse) = verdict_of(&wide, &shifted(-(bound + 0.05)));
        assert!(row.ends_with("| unresolved |") && !worse, "{row}");
    }
}
