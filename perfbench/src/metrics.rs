//! The benchmark's metric catalogue: every name it prints, with its
//! unit. `BENCHMARK.json` at the repository root declares the same
//! names; a test keeps the two in step.

use crate::ops::OPS;
use crate::serve::MIX;
use gunrock_engine::json::JsonBuilder;
use std::collections::BTreeMap;

/// A declared metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: &'static str,
}

fn m(name: impl Into<String>, unit: &'static str) -> Metric {
    Metric { name: name.into(), unit }
}

/// The end-to-end metrics, printed by an untraced run.
pub fn end_to_end() -> Vec<Metric> {
    let mut out = vec![m("setup_s", "s")];
    out.extend(OPS.iter().map(|op| m(format!("{}_ms", op.name()), "ms")));
    out.extend([m("serve_qps", "1/s"), m("serve_p50_ms", "ms"), m("serve_tail_ms", "ms")]);
    out
}

/// The per-layer metrics, printed by a traced run.
pub fn per_layer() -> Vec<Metric> {
    let mut out = vec![
        m("graph.generate_s", "s"),
        m("graph.build_s", "s"),
        m("graph.vertices", "count"),
        m("graph.edges", "count"),
    ];
    let per_op: [(&str, &'static str); 14] = [
        ("engine.pool_allocations", "count"),
        ("engine.pool_checkouts", "count"),
        ("engine.pool_high_water_bytes", "bytes"),
        ("core.advance_ms", "ms"),
        ("core.filter_ms", "ms"),
        ("core.compute_ms", "ms"),
        ("core.iterations", "count"),
        ("core.edges_examined", "count"),
        ("core.pull_iterations", "count"),
        ("core.loop_overhead_ms", "ms"),
        ("algos.threads1_ms", "ms"),
        ("algos.cold_ms", "ms"),
        ("algos.mteps", "MTEPS"),
        ("trace.overhead_ms", "ms"),
    ];
    for (prefix, unit) in per_op {
        out.extend(OPS.iter().map(|op| m(format!("{prefix}.{}", op.name()), unit)));
    }
    for prefix in [
        "server.roundtrip_ms",
        "server.handle_ms",
        "server.run_ms",
        "server.transport_ms",
        "server.admit_encode_ms",
    ] {
        out.extend(MIX.iter().map(|(prim, _)| m(format!("{prefix}.{prim}"), "ms")));
    }
    out.extend([m("server.received", "count"), m("server.rejected", "count")]);
    out
}

/// The result line for the `declared` metrics and the exit code that
/// goes with it: 0 when every operation checked out, 1 otherwise.
///
/// A run with failures still gets its line, with `"correct": false`; a
/// metric its failures left without a finite value (a failed request's
/// latency counts as infinite) is left out of it. A declared metric
/// without a finite value in a run where every operation checked out is
/// a harness error.
pub fn result_line(
    declared: &[Metric],
    values: &BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
) -> Result<(String, i32), String> {
    let mut b = JsonBuilder::new();
    b.begin_object();
    b.field_bool("correct", failed == 0);
    b.field_u64("attempted", attempted);
    b.field_u64("failed", failed);
    b.key("metrics");
    b.begin_object();
    for m in declared {
        let v = values.get(&m.name).copied().unwrap_or(f64::NAN);
        if !v.is_finite() {
            if failed == 0 {
                return Err(format!("metric {} was not measured", m.name));
            }
            continue;
        }
        b.key(&m.name);
        b.begin_object();
        b.field_f64("value", v);
        b.field_str("unit", m.unit);
        b.end_object();
    }
    b.end_object();
    b.end_object();
    Ok((b.finish(), if failed == 0 { 0 } else { 1 }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gunrock_engine::json::JsonValue;
    use std::collections::HashSet;

    /// A legal metric name starts with a letter or digit and has at
    /// most 64 characters of `[A-Za-z0-9_.-]`.
    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        name.len() <= 64
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = JsonValue::parse(&text).expect("BENCHMARK.json parses");
        doc.get(section)
            .and_then(JsonValue::as_array)
            .expect("section is an array")
            .iter()
            .map(|e| {
                let s =
                    |k| e.get(k).and_then(JsonValue::as_str).unwrap_or_default().to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    fn printed(ms: Vec<Metric>) -> Vec<(String, String)> {
        ms.into_iter().map(|x| (x.name, x.unit.to_string())).collect()
    }

    #[test]
    fn printed_names_match_benchmark_json() {
        assert_eq!(printed(end_to_end()), declared("end_to_end"));
        assert_eq!(printed(per_layer()), declared("per_layer"));
    }

    #[test]
    fn names_are_legal_and_unique() {
        let all: Vec<Metric> = end_to_end().into_iter().chain(per_layer()).collect();
        assert!(all.len() <= 16 + 128);
        assert!(per_layer().len() <= 128 && end_to_end().len() <= 16);
        let mut seen = HashSet::new();
        for x in &all {
            assert!(valid_name(&x.name), "{}", x.name);
            assert!(seen.insert(x.name.clone()), "duplicate {}", x.name);
            let unit_ok =
                |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
            assert!(x.unit.len() <= 16 && x.unit.chars().all(unit_ok), "{}", x.unit);
        }
        assert!(!valid_name("_lead") && !valid_name("a b") && !valid_name(&"x".repeat(65)));
    }

    fn serve_values(p50: f64) -> BTreeMap<String, f64> {
        [("serve_qps", 19.5), ("serve_p50_ms", p50)]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect()
    }

    fn serve_metrics() -> Vec<Metric> {
        vec![m("serve_qps", "1/s"), m("serve_p50_ms", "ms")]
    }

    #[test]
    fn a_clean_run_prints_every_metric_and_exits_0() {
        let (line, code) = result_line(&serve_metrics(), &serve_values(100.0), 10, 0).unwrap();
        assert_eq!(code, 0);
        let doc = JsonValue::parse(&line).unwrap();
        assert!(matches!(doc.get("correct"), Some(JsonValue::Bool(true))));
        let p50 = doc.get("metrics").and_then(|m| m.get("serve_p50_ms"));
        assert_eq!(p50.and_then(|v| v.get("value")).and_then(JsonValue::as_f64), Some(100.0));
    }

    #[test]
    fn failed_requests_print_a_result_and_exit_1() {
        // most requests failed, so the median latency is infinite
        let values = serve_values(f64::INFINITY);
        let (line, code) = result_line(&serve_metrics(), &values, 10, 6).unwrap();
        assert_eq!(code, 1);
        let doc = JsonValue::parse(&line).unwrap();
        assert!(matches!(doc.get("correct"), Some(JsonValue::Bool(false))));
        assert_eq!(doc.get("attempted").and_then(JsonValue::as_u64), Some(10));
        assert_eq!(doc.get("failed").and_then(JsonValue::as_u64), Some(6));
        let metrics = doc.get("metrics").unwrap();
        assert!(metrics.get("serve_qps").is_some());
        assert!(metrics.get("serve_p50_ms").is_none());
    }

    #[test]
    fn an_unmeasured_metric_in_a_clean_run_is_a_harness_error() {
        let err = result_line(&serve_metrics(), &serve_values(f64::NAN), 10, 0).unwrap_err();
        assert!(err.contains("serve_p50_ms"), "{err}");
    }

    #[test]
    fn setup_s_is_declared_as_the_contract_requires() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = JsonValue::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let e2e = doc.get("end_to_end").and_then(JsonValue::as_array).unwrap();
        let setup =
            e2e.iter().find(|e| e.get("name").and_then(JsonValue::as_str) == Some("setup_s"));
        let setup = setup.expect("setup_s declared");
        assert_eq!(setup.get("better").and_then(JsonValue::as_str), Some("lower"));
        let top = e2e.iter().filter_map(|e| e.get("bound").and_then(JsonValue::as_f64));
        let largest = top.fold(0.0, f64::max);
        assert_eq!(setup.get("bound").and_then(JsonValue::as_f64), Some(largest));
    }
}
