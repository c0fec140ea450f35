//! Smoke tests: every workload at seconds scale, through the same code
//! the benchmark runs.

use sb_serve::ServeConfig;
use sbbench::serve::{self, Kind};
use sbbench::{run, RunSpec, Scale, Workload, END_TO_END, PER_LAYER};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// One test runs every workload in turn: the eval grid switches the
/// process-wide `sb-obs` mode for one pass, so workloads must not
/// overlap.
#[test]
fn every_workload_runs_correctly_at_smoke_size_with_nested_spans() {
    let mut layers_emitted = HashSet::new();
    for workload in Workload::ALL {
        let t0 = Instant::now();
        let out = run(&RunSpec {
            workload,
            seed: 7,
            window: Duration::from_millis(200),
            trace: true,
            scale: Scale::Smoke,
        });
        let took = t0.elapsed();
        let name = workload.name();
        // Each workload takes under 10 s on an idle two-core machine; the
        // margin keeps a busy shared host, which can run at half speed,
        // from failing the test.
        assert!(took < Duration::from_secs(20), "{name} took {took:?}");
        assert!(out.attempted > 0, "{name} checked nothing");
        assert_eq!(out.failed, 0, "{name}: error rate must be 0");
        assert!(out.correct(), "{name}: {:?}", out.problems);
        for m in END_TO_END {
            let v = out.metrics.get(m.name);
            assert!(v.is_some_and(|v| *v > 0.0), "{name}: {} is {v:?}", m.name);
        }
        layers_emitted.extend(out.metrics.keys().copied());
        for traced in [false, true] {
            sb_obs::json::validate(&out.result_json(traced))
                .unwrap_or_else(|e| panic!("{name}: bad result JSON: {e}"));
        }
        let trace = out.trace.as_ref().expect("traced run keeps its spans");
        assert!(!trace.spans.is_empty(), "{name}: no spans");
        trace
            .check_nesting()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        sb_obs::json::validate(&trace.to_json(name, 10))
            .unwrap_or_else(|e| panic!("{name}: bad trace JSON: {e}"));
    }
    for m in PER_LAYER {
        assert!(
            layers_emitted.contains(m.name),
            "no workload emits per-layer metric {}",
            m.name
        );
    }
}

#[test]
fn a_corrupted_oracle_byte_is_counted_as_a_failure() {
    let inputs = serve::plan_hot_inputs(11, 600);
    let dbs = serve::build_snapshots(Kind::PlanHot, Scale::Smoke);
    let svc = serve::service(&dbs, ServeConfig::default());
    let window = serve::measure(&svc, &inputs, 2);
    let mut oracle = serve::oracle(&dbs, &inputs, &vec![true; inputs.stmts.len()]);
    assert_eq!(serve::verify(&window, &inputs, &oracle), 0);

    // Flip one byte of the oracle's answer to the statement of request 0.
    let stmt = inputs.stmt_of(0);
    let mut json = serve::oracle_json(&dbs, &inputs, stmt).into_bytes();
    let at = json.len() - 2;
    json[at] ^= 1;
    let corrupted = String::from_utf8(json).expect("ASCII stays ASCII");
    oracle[stmt as usize] = Some(serve::body_fingerprint(&corrupted));
    let uses = (0..window.samples.iter().map(Vec::len).sum::<usize>() as u64)
        .filter(|&i| inputs.stmt_of(i) == stmt)
        .count() as u64;
    assert!(uses >= 1);
    assert_eq!(serve::verify(&window, &inputs, &oracle), uses);
}

#[test]
fn benchmark_json_declares_the_metrics_and_workloads_the_code_emits() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    sb_obs::json::validate(&text).expect("BENCHMARK.json is valid JSON");
    for m in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!(
            "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            m.name, m.unit, m.better
        );
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in Workload::ALL {
        assert!(text.contains(&format!("\"name\": \"{}\"", w.name())));
    }
    assert_eq!(
        text.matches("\"name\": ").count(),
        END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len(),
        "BENCHMARK.json declares something the code does not"
    );
}
