//! Self-tests of the benchmark itself.
//!
//! The engine promises bit-identical reports at every thread count, so every
//! count the benchmark reports — messages, rounds, each per-phase cost,
//! repair work — must not depend on the engine threads. A change that moves
//! one of them changes behaviour; it is not a pure speed-up.

use symbreak_perfbench::run::{traced, untraced};
use symbreak_perfbench::trace::Tracer;
use symbreak_perfbench::workloads::{run_job, setup, Record, Spec, NAMES};
use symbreak_perfbench::{per_layer, END_TO_END};

/// Setup plus one fully verified job of the reduced workload `name`.
fn counts(name: &str, threads: usize) -> Record {
    let spec = Spec::reduced(name)
        .expect("every listed workload has a reduced size")
        .with_threads(threads);
    let mut off = Tracer::new(false);
    let state = setup(&spec, 7, &mut off);
    let mut rec = state.setup.clone();
    rec.merge(&run_job(&spec, &state, 7, true, &mut off));
    rec
}

#[test]
fn counts_are_identical_at_one_and_two_engine_threads() {
    for name in NAMES {
        let one = counts(name, 1);
        let two = counts(name, 2);
        for rec in [&one, &two] {
            assert_eq!(rec.failed, 0, "{name}: {:?}", rec.failed_by_layer);
            assert!(rec.attempted > 0, "{name}: no ops ran");
        }
        for key in ["simulated_messages", "charged_messages", "rounds"] {
            assert!(one.count(key) > 0, "{name}: end-to-end count {key} is 0");
        }
        assert!(
            !one.tally.keys().any(|k| k.contains(".other_")),
            "{name}: a cost phase label has no metric name: {:?}",
            one.tally.keys().collect::<Vec<_>>()
        );
        assert_eq!(one.tally, two.tally, "{name}: counts moved with threads");
    }
}

#[test]
fn both_modes_verify_and_report_every_metric() {
    for name in NAMES {
        let spec = Spec::reduced(name).expect("every listed workload has a reduced size");
        let e2e = untraced(&spec, 3, 0.01);
        assert!(e2e.correct(), "{name}: {:?}", e2e.total.failed_by_layer);
        let names: Vec<&str> = e2e.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|&(n, _)| n).collect();
        assert_eq!(names, expected, "{name}");
        for (metric, value, _) in &e2e.metrics {
            assert!(*value > 0.0, "{name}: end-to-end {metric} is {value}");
        }

        let layers = traced(&spec, 3, 0.01);
        assert!(
            layers.correct(),
            "{name}: {:?}",
            layers.total.failed_by_layer
        );
        let names: Vec<String> = layers.metrics.iter().map(|(n, _, _)| n.clone()).collect();
        let expected: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, expected, "{name}");
        assert!(
            layers.spans.is_some_and(|s| !s.is_empty()),
            "{name}: no spans"
        );
    }
}

/// `(name, unit)` pairs of every `{"name": …, "unit": …}` object in `text`.
fn declared(text: &str) -> Vec<(String, String)> {
    let field = |s: &str, key: &str| {
        let rest = s.split_once(&format!("\"{key}\": \""))?.1;
        Some(rest.split('"').next()?.to_string())
    };
    text.split('{')
        .filter_map(|obj| Some((field(obj, "name")?, field(obj, "unit")?)))
        .collect()
}

#[test]
fn benchmark_json_declares_exactly_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let (head, layers) = text
        .split_once("\"per_layer\"")
        .expect("per_layer follows end_to_end");
    let (workloads, e2e) = head
        .split_once("\"end_to_end\"")
        .expect("end_to_end follows workloads");

    let e2e_expected: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(declared(e2e), e2e_expected);
    let layers_expected: Vec<(String, String)> = per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(declared(layers), layers_expected);
    for name in NAMES {
        assert!(
            workloads.contains(&format!("\"name\": \"{name}\"")),
            "{name} missing from BENCHMARK.json"
        );
    }
}
