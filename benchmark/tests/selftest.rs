//! Self-tests of the benchmark at `--smoke` scale (200 k rows, 1 s slices).

use ads_benchmark::driver::{prepare, run_fixed, run_timed};
use ads_benchmark::json::Json;
use ads_benchmark::library::run_library_pass;
use ads_benchmark::report::timed_record;
use ads_benchmark::spec::{Scale, Workload, END_TO_END, PER_LAYER, WORKLOADS};
use ads_benchmark::trace::Tracer;
use std::path::Path;
use std::process::Command;

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json beside benchmark/"))
        .expect("BENCHMARK.json parses")
}

fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry.get(key).and_then(Json::as_str).unwrap_or("")
}

/// `(name, unit, better, bound)` of every entry of a metric list.
fn metric_rows(list: &Json) -> Vec<(String, String, String, Option<f64>)> {
    list.as_arr()
        .expect("a metric list")
        .iter()
        .map(|m| {
            (
                field(m, "name").to_string(),
                field(m, "unit").to_string(),
                field(m, "better").to_string(),
                m.get("bound").and_then(Json::as_f64),
            )
        })
        .collect()
}

#[test]
fn tables_equal_benchmark_json_both_directions() {
    let doc = benchmark_json();
    let workloads: Vec<(String, String)> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| (field(w, "name").to_string(), field(w, "why").to_string()))
        .collect();
    let ours: Vec<(String, String)> = WORKLOADS
        .iter()
        .map(|w| (w.name.to_string(), w.why.to_string()))
        .collect();
    assert_eq!(workloads, ours);
    for (name, why) in &workloads {
        assert!(Workload::by_name(name).is_some());
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "{name}: why too long"
        );
    }

    let table = |defs: &[ads_benchmark::spec::MetricDef]| {
        defs.iter()
            .map(|d| {
                (
                    d.name.to_string(),
                    d.unit.to_string(),
                    d.better.label().to_string(),
                    d.bound,
                )
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(
        metric_rows(doc.get("end_to_end").unwrap()),
        table(&END_TO_END)
    );
    assert_eq!(
        metric_rows(doc.get("per_layer").unwrap()),
        table(&PER_LAYER)
    );
}

/// Runs the binary the way the driver does and returns the result object
/// of its last stdout line.
fn run_binary(workload: &str, trace: &str) -> Json {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("out-{workload}-{trace}"));
    let out = Command::new(env!("CARGO_BIN_EXE_ads-benchmark"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "5"])
        .args(["--trace", trace, "--smoke", "--out-dir"])
        .arg(&out_dir)
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    if trace == "1" {
        assert!(out_dir.join(format!("trace-{workload}.jsonl")).exists());
    }
    let stdout = String::from_utf8(out.stdout).unwrap();
    Json::parse(stdout.lines().last().expect("a result line")).expect("result line parses")
}

#[test]
fn printed_metrics_equal_benchmark_json_both_directions() {
    let doc = benchmark_json();
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let result = run_binary("mixed-churn", trace);
        let keys: Vec<&str> = result
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
        assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        let printed: Vec<(String, String)> = result
            .get("metrics")
            .and_then(Json::as_obj)
            .unwrap()
            .iter()
            .map(|(name, m)| {
                assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
                (name.clone(), field(m, "unit").to_string())
            })
            .collect();
        let declared: Vec<(String, String)> = metric_rows(doc.get(list).unwrap())
            .into_iter()
            .map(|(name, unit, _, _)| (name, unit))
            .collect();
        assert_eq!(printed, declared, "--trace {trace}");
    }
}

#[test]
fn library_counters_repeat_per_seed_and_spans_cover_the_query() {
    for w in &WORKLOADS {
        let ops = Scale::SMOKE.library_ops(w);
        let pass = |seed| {
            let p = prepare(w, Scale::SMOKE, seed);
            let mut tracer = Tracer::new();
            let pass = run_library_pass(&p, ops, &mut tracer);
            assert_eq!(
                pass.wrong, 0,
                "{}: wrong answers in the library pass",
                w.name
            );
            let (query_ns, child_ns) = tracer.coverage("query");
            assert!(
                child_ns as f64 >= 0.95 * query_ns as f64,
                "{}: children cover {child_ns} of {query_ns} ns",
                w.name
            );
            assert_eq!(tracer.durations("query").len(), ops);
            pass.counters
        };
        let (a, b, other) = (pass(7), pass(7), pass(8));
        assert_eq!(a, b, "{}: same seed, different counters", w.name);
        assert_ne!(a, other, "{}: counters ignore the seed", w.name);
        assert!(
            a.zones_probed > 0 && a.zones > 0 && a.metadata_bytes > 0,
            "{}",
            w.name
        );
    }
}

#[test]
fn corrupted_oracle_entry_is_reported_as_failed_operations() {
    let w = Workload::by_name("uniform-scan").unwrap();
    let mut p = prepare(w, Scale::SMOKE, 7);
    let clean = run_timed(&p, 1.0);
    assert_eq!(clean.tally.failed, 0);
    assert!(timed_record(&p, &clean).correct);

    p.oracle.as_mut().unwrap().corrupt(3);
    let broken = run_timed(&p, 1.0);
    assert!(broken.tally.failed > 0);
    assert!(broken.tally.failed < broken.tally.attempted);
    assert!(!timed_record(&p, &broken).correct);
}

#[test]
fn churn_acks_and_sampled_replies_agree_with_the_mirror() {
    let w = Workload::by_name("mixed-churn").unwrap();
    let p = prepare(w, Scale::SMOKE, 7);
    // 2,000 requests = 80 mutation batches = 2 compactions, whatever the
    // host's speed.
    let (tally, compactions, stats) = run_fixed(&p, 2_000);
    assert_eq!(tally.failed, 0);
    assert_eq!(compactions, 2);
    assert_eq!(stats.mutation_batches, 80);
    assert!(stats.rows_reclaimed > 0 && stats.mutations_applied >= stats.rows_reclaimed);
    // queries + post-flush queries + batches + compactions
    assert_eq!(tally.attempted, 2_000 + 64 + 80 + 2);
}
