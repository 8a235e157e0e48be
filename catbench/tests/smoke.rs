//! The benchmark itself, at tiny sizes and a fraction of a second per
//! phase: every workload must finish with no failed operation and emit
//! exactly the metrics `BENCHMARK.json` names, end-to-end metrics in a
//! plain run and per-layer metrics in a traced one.

use catbench::{Options, Report, Scale, Workload};

/// Metric names listed under `section` ("end_to_end" or "per_layer") of
/// the repository's `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

fn run(workload: Workload, trace: bool) -> Report {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "smoke-{}-{}",
        workload.name(),
        u8::from(trace)
    ));
    catbench::run(&Options {
        workload,
        seed: 7,
        seconds: 0.3,
        trace,
        scale: Scale::Tiny,
        run_dir: dir,
    })
}

fn check(workload: Workload, trace: bool) {
    let report = run(workload, trace);
    let what = format!("{} trace={trace}\n{}", workload.name(), report.summary());
    eprintln!("{what}");
    assert!(report.attempted > 0, "{what}");
    assert_eq!(report.failed, 0, "{what}");
    assert!(report.correct(), "{what}");
    let mut emitted: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
    let mut want = declared(if trace { "per_layer" } else { "end_to_end" });
    emitted.sort_unstable();
    want.sort_unstable();
    assert_eq!(emitted, want, "{what}");
    for m in &report.metrics {
        assert!(m.value.is_finite(), "{} is {}\n{what}", m.name, m.value);
    }
    if !trace {
        for m in &report.metrics {
            assert!(
                m.value > 0.0,
                "end-to-end metric {} is {}\n{what}",
                m.name,
                m.value
            );
        }
        let tails: Vec<&str> = report.info.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            tails,
            ["simple_p99_us", "complex_p99_us", "add_p99_us"],
            "{what}"
        );
    }
}

#[test]
fn discover_end_to_end() {
    check(Workload::Discover, false);
}

#[test]
fn discover_traced() {
    check(Workload::Discover, true);
}

#[test]
fn publish_end_to_end() {
    check(Workload::Publish, false);
}

#[test]
fn publish_traced() {
    check(Workload::Publish, true);
}

#[test]
fn soap_mixed_end_to_end() {
    check(Workload::SoapMixed, false);
}

#[test]
fn soap_mixed_traced() {
    check(Workload::SoapMixed, true);
}
