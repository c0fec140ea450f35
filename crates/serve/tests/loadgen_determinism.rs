//! Load-generator determinism: the workload is a pure function of
//! `(snapshot, seed, index)`, so replaying it at any client count
//! produces the identical request stream — and a real mini load run
//! emits a `BENCH_serve.json` document that validates.

use sb_data::Domain;
use sb_serve::loadgen::workload_sql;
use sb_serve::{
    render_bench_json, run_domain_load, validate_bench_json, LoadConfig, QueryRequest,
    QueryService, ServeConfig, SlowLogConfig,
};
use std::sync::Arc;

/// The request stream exactly as `run_domain_load`'s clients generate
/// it: client `c` of `n` walks indices `c, c + n, c + 2n, ...`. Streams
/// are reassembled by index so the comparison covers both the statement
/// bytes and the index → client assignment.
fn workload_at(clients: usize, requests: usize, load: &LoadConfig) -> Vec<String> {
    let db = sb_fuzz::fuzz_database(Domain::Sdss);
    let mut by_index = vec![String::new(); requests];
    for client in 0..clients {
        let mut index = client as u64;
        while (index as usize) < requests {
            by_index[index as usize] = workload_sql(&db, load, index);
            index += clients as u64;
        }
    }
    assert!(
        by_index.iter().all(|s| !s.is_empty()),
        "round-robin partitioning must cover every index exactly once"
    );
    by_index
}

#[test]
fn workload_bytes_are_identical_at_1_4_and_16_clients() {
    let load = LoadConfig::default();
    let requests = 256;
    let single = workload_at(1, requests, &load);
    assert_eq!(
        single,
        workload_at(4, requests, &load),
        "4-client workload diverged from single-client"
    );
    assert_eq!(
        single,
        workload_at(16, requests, &load),
        "16-client workload diverged from single-client"
    );
    // The hot-set mix must actually mix: repeats for the cache AND a
    // cold tail of distinct statements.
    let distinct: std::collections::HashSet<&String> = single.iter().collect();
    assert!(distinct.len() < requests, "hot set must repeat statements");
    assert!(
        distinct.len() > load.hot_set,
        "cold tail must add fresh statements"
    );
}

/// Profiling is side-band only: replaying the exact loadgen workload
/// against a fully-instrumented service (slow log armed at threshold 0,
/// every request opting into `profile`) produces byte-identical wire
/// responses to a plain service — the profile field rides outside
/// `to_json()` and never perturbs execution.
#[test]
fn profiling_does_not_perturb_workload_response_bytes() {
    let db = Arc::new(sb_fuzz::fuzz_database(Domain::Sdss));
    let load = LoadConfig::default();
    let plain = QueryService::new(ServeConfig::default()).with_snapshot("sdss", Arc::clone(&db));
    let instrumented = QueryService::new(ServeConfig {
        slow_log: SlowLogConfig {
            enabled: true,
            threshold_us: 0,
        },
        ..ServeConfig::default()
    })
    .with_snapshot("sdss", Arc::clone(&db));

    let mut executed = 0;
    for index in 0..128u64 {
        let sql = workload_sql(&db, &load, index);
        let req = QueryRequest::new(index, "sdss", &sql);
        let mut profiled_req = QueryRequest::new(index, "sdss", &sql);
        profiled_req.profile = true;

        let a = plain.handle(&req);
        let b = instrumented.handle(&profiled_req);
        assert_eq!(
            a.to_json(),
            b.to_json(),
            "request {index}: profiling changed the wire response for: {sql}"
        );
        assert!(a.profile.is_none(), "plain service must not profile");
        assert!(b.profile.is_some(), "instrumented service must profile");
        // Anything past the guardrail and prepare reaches execution and
        // is slow-logged at threshold 0 — errors included.
        if !matches!(
            a.code.as_str(),
            "invalid_request" | "not_read_only" | "parse_error"
        ) {
            executed += 1;
        }
    }
    assert!(executed > 0, "workload produced no executable statements");
    assert_eq!(
        instrumented.drain_slow_log().len(),
        executed,
        "threshold-0 slow log must record every executed request"
    );
}

/// The same property through `run_domain_load` itself: sampling
/// profiles and arming the slow log must not change what the service
/// answers, only add side-band reporting.
#[test]
fn sampled_profiling_run_matches_plain_run_outcomes() {
    let base = LoadConfig {
        clients: 2,
        requests: 60,
        ..LoadConfig::default()
    };
    let plain = run_domain_load(Domain::Sdss, &base);
    let instrumented = run_domain_load(
        Domain::Sdss,
        &LoadConfig {
            profile_sample: 7,
            slow_log_threshold_us: Some(0),
            ..base
        },
    );
    assert_eq!(plain.ok, instrumented.ok);
    assert_eq!(plain.errors_by_code, instrumented.errors_by_code);
    assert_eq!(plain.cache.misses, instrumented.cache.misses);
    assert!(plain.slow_log_lines.is_empty());
    assert_eq!(
        instrumented.slow_log_lines.len(),
        instrumented.ok + instrumented.errors
            - instrumented
                .errors_by_code
                .iter()
                .filter(|(c, _)| matches!(*c, "invalid_request" | "not_read_only" | "parse_error"))
                .map(|(_, n)| n)
                .sum::<usize>(),
        "slow log records exactly the requests that reached execution"
    );
    for line in &instrumented.slow_log_lines {
        sb_obs::json::validate(line).unwrap_or_else(|e| panic!("bad slow-log JSON ({e}): {line}"));
    }
}

#[test]
fn mini_load_run_emits_a_validating_bench_document() {
    let load = LoadConfig {
        clients: 4,
        requests: 120,
        ..LoadConfig::default()
    };
    let reports: Vec<_> = Domain::ALL
        .into_iter()
        .map(|d| run_domain_load(d, &load))
        .collect();
    for r in &reports {
        assert_eq!(
            r.ok + r.errors,
            r.requests,
            "{}: every request answered",
            r.domain
        );
        // The fuzzer deliberately generates a slice of erroring
        // statements (the differential oracle checks error parity), so
        // a healthy run answers mostly-ok, not all-ok.
        assert!(
            r.errors < r.requests / 5,
            "{}: error responses dominate the workload ({}/{})",
            r.domain,
            r.errors,
            r.requests
        );
        assert!(
            r.cache.hits > 0,
            "{}: hot set must hit the plan cache",
            r.domain
        );
        assert!(r.qps > 0.0 && r.p50_us <= r.p95_us && r.p95_us <= r.p99_us);
    }
    let doc = render_bench_json(&load, &reports);
    validate_bench_json(&doc).expect("load run must emit a valid BENCH_serve document");
    for domain in Domain::ALL {
        assert!(
            doc.contains(&format!("\"domain\": \"{}\"", domain.name())),
            "document must carry a section for {}",
            domain.name()
        );
    }
}
