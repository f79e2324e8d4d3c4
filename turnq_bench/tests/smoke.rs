//! Every workload, untraced and traced, over every queue in short cells:
//! the run must be correct, and the metrics it emits must be exactly the
//! ones `BENCHMARK.json` declares, with the same units.

use std::collections::BTreeSet;

use turnq_bench::json::{self, Value};
use turnq_bench::{run, Config, Workload};

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(list: &str) -> BTreeSet<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text =
        std::fs::read_to_string(path).expect("BENCHMARK.json sits beside the benchmark directory");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list} list"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit are strings")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn every_workload_emits_exactly_the_declared_metrics() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for w in Workload::ALL {
        for trace in [false, true] {
            let report = run(&Config::smoke(w, 3, trace));
            let ctx = format!("{} trace={trace}", w.name());
            assert_eq!(report.failed, 0, "{ctx}: {}", report.table());
            assert_eq!(report.exit_code(), 0, "{ctx}");
            let emitted: BTreeSet<(String, String)> = report
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect();
            assert_eq!(
                emitted.len(),
                report.metrics.len(),
                "{ctx}: a metric name repeats"
            );
            for (name, _) in &emitted {
                assert!(valid_name(name), "{ctx}: bad metric name {name:?}");
            }
            let want = if trace { &per_layer } else { &end_to_end };
            let missing: Vec<_> = want.difference(&emitted).collect();
            let undeclared: Vec<_> = emitted.difference(want).collect();
            assert!(
                missing.is_empty(),
                "{ctx}: declared but not emitted: {missing:?}"
            );
            assert!(
                undeclared.is_empty(),
                "{ctx}: emitted but not declared: {undeclared:?}"
            );
            let line = json::parse(&report.result_line()).expect("the result line is JSON");
            assert_eq!(line.get("correct"), Some(&Value::Bool(true)), "{ctx}");
        }
    }
}
