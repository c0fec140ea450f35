//! Metric names emitted at runtime must all appear in the
//! `crates/obs/NAMES.md` registry.
//!
//! Runs the exact `profile_run --quick` scenario (via the shared
//! `sb_bench::profiling` library path) for one domain, then a short
//! replay of the serve load workload with profiling sampled and the
//! slow log armed, and checks every counter and span name
//! the `sb-obs` registry collected against the names registered in the
//! markdown tables.
//!
//! Both scenarios run inside one test: the `sb-obs` registry is global,
//! so parallel test threads would trample each other's snapshots.
//!
//! The reverse direction is checked for the engine: every `engine.*`
//! row of the registry must be a counter the engine still writes, so a
//! removed counter cannot leave a stale row behind.

use sb_bench::profiling::{profile_domain, quick_profile_config};
use sb_core::SpiderPairs;
use sb_data::{Domain, SizeClass};
use sb_nl2sql::Pair;
use sb_serve::loadgen::workload_sql;
use sb_serve::{LoadConfig, QueryRequest, QueryService, ServeConfig, SlowLogConfig};
use std::path::Path;
use std::sync::Arc;

/// Every backticked name in a table row of `crates/obs/NAMES.md`.
fn registry() -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../obs/NAMES.md");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let mut names = Vec::new();
    for line in text.lines() {
        let Some(rest) = line.strip_prefix("| `") else {
            continue;
        };
        if let Some(end) = rest.find('`') {
            names.push(rest[..end].to_string());
        }
    }
    assert!(
        names.len() > 20,
        "registry parse collapsed — NAMES.md format drifted?"
    );
    names
}

fn is_registered(name: &str, registry: &[String]) -> bool {
    registry.iter().any(|r| r == name)
}

fn assert_all_registered(report: &sb_obs::Report, registry: &[String], scenario: &str) {
    for (kind, names) in [
        (
            "counter",
            report.counters.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        ),
        ("span", report.spans.iter().map(|(n, _)| n).collect()),
    ] {
        for name in names {
            assert!(
                is_registered(name, registry),
                "{scenario}: unregistered {kind} `{name}` — add it to crates/obs/NAMES.md"
            );
        }
    }
}

/// The one engine counter written directly rather than folded from
/// statement profiles: a subquery memo event, which has no operator slot.
const DIRECT_ENGINE_COUNTER: &str = "engine.compile.subquery_exec";

#[test]
fn every_registered_engine_counter_is_written() {
    let reg = registry();
    let folded: Vec<&str> = sb_obs::ENGINE_COUNTERS.iter().map(|(n, _)| *n).collect();
    for name in reg.iter().filter(|n| n.starts_with("engine.")) {
        assert!(
            folded.contains(&name.as_str()) || name == DIRECT_ENGINE_COUNTER,
            "crates/obs/NAMES.md registers `{name}`, which the engine no longer writes"
        );
    }
    for name in folded {
        assert!(
            is_registered(name, &reg),
            "folded counter `{name}` is missing from crates/obs/NAMES.md"
        );
    }
}

#[test]
fn every_emitted_metric_name_is_registered() {
    let reg = registry();
    assert!(!is_registered("engine.scan.rowz", &reg));

    if sb_obs::mode() == sb_obs::Mode::Off {
        sb_obs::set_mode(sb_obs::Mode::Summary);
    }

    // Scenario 1: the profile_run --quick cell (pipeline + grid cell).
    let cfg = quick_profile_config();
    let spider = SpiderPairs::build(&cfg.spider);
    let spider_train: Vec<Pair> = spider
        .train
        .iter()
        .map(|p| Pair::new(p.question.clone(), p.sql.clone(), p.db.clone()))
        .collect();
    let cell = profile_domain(Domain::Sdss, &cfg, &spider, &spider_train);
    assert!(
        !cell.obs.counters.is_empty(),
        "profile cell collected nothing — is sb-obs off?"
    );
    assert_all_registered(&cell.obs, &reg, "profile_run --quick");

    // Scenario 2: the serve load workload through a service with every
    // 4th request profiled and the slow log armed at threshold 0, so the
    // tracing-path counters fire too.
    sb_obs::reset();
    let db = Arc::new(Domain::Sdss.build(SizeClass::Tiny).db);
    let service = QueryService::new(ServeConfig {
        slow_log: SlowLogConfig {
            enabled: true,
            threshold_us: 0,
        },
        ..ServeConfig::default()
    })
    .with_snapshot("sdss", Arc::clone(&db));
    let load = LoadConfig::default();
    for index in 0..40u64 {
        let mut req = QueryRequest::new(index, "sdss", &workload_sql(&db, &load, index));
        req.profile = index.is_multiple_of(4);
        service.handle(&req);
    }
    let serve_report = sb_obs::snapshot();
    assert!(serve_report.counter("serve.slow_logged") > 0);
    assert_all_registered(&serve_report, &reg, "serve load");
}
