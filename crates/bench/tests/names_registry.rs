//! Metric names emitted at runtime must all appear in the
//! `crates/obs/NAMES.md` registry.
//!
//! Runs the exact `profile_run --quick` scenario (via the shared
//! `sb_bench::profiling` library path) for one domain, then a small
//! serve load run with profiling and the slow log armed, and checks
//! every counter, span and histogram name the `sb-obs` registry
//! collected against the names registered in the markdown tables. A
//! `<placeholder>` segment in a registered name matches exactly one
//! dynamic segment (`serve.latency_us.<domain>` ⇒
//! `serve.latency_us.sdss`).
//!
//! Both scenarios run inside one test: the `sb-obs` registry is global,
//! so parallel test threads would trample each other's snapshots.
//!
//! The reverse direction is checked for the engine: every `engine.*`
//! row of the registry must be a counter the engine still writes, so a
//! removed counter cannot leave a stale row behind.

use sb_bench::profiling::{profile_domain, quick_profile_config};
use sb_core::SpiderPairs;
use sb_data::Domain;
use sb_nl2sql::Pair;
use sb_serve::{run_domain_load, LoadConfig};
use std::path::Path;

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
    registry.iter().any(|r| {
        if r == name {
            return true;
        }
        if !r.contains('<') {
            return false;
        }
        let rsegs: Vec<&str> = r.split('.').collect();
        let nsegs: Vec<&str> = name.split('.').collect();
        rsegs.len() == nsegs.len()
            && rsegs
                .iter()
                .zip(&nsegs)
                .all(|(r, n)| (r.starts_with('<') && r.ends_with('>')) || r == n)
    })
}

fn assert_all_registered(report: &sb_obs::Report, registry: &[String], scenario: &str) {
    for (kind, names) in [
        (
            "counter",
            report.counters.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        ),
        ("span", report.spans.iter().map(|(n, _)| n).collect()),
        ("hist", report.hists.iter().map(|(n, _)| n).collect()),
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
    assert!(is_registered("serve.latency_us.sdss", &reg));
    assert!(!is_registered("serve.latency_us.a.b", &reg));
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

    // Scenario 2: a serve load run with profiling sampled and the slow
    // log armed, so the tracing-path counters fire too.
    let _ = run_domain_load(
        Domain::Sdss,
        &LoadConfig {
            clients: 2,
            requests: 40,
            profile_sample: 4,
            slow_log_threshold_us: Some(0),
            ..LoadConfig::default()
        },
    );
    let serve_report = sb_obs::snapshot();
    assert!(
        serve_report
            .hists
            .iter()
            .any(|(n, _)| n == "serve.latency_us.sdss"),
        "load run recorded no latency histogram"
    );
    assert!(serve_report.counter("serve.slow_logged") > 0);
    assert_all_registered(&serve_report, &reg, "serve load");
}
