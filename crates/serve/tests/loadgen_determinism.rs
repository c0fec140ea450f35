//! Load-workload determinism: the workload is a pure function of
//! `(snapshot, seed, index)`, so replaying it at any client count
//! produces the identical request stream, and profiling a replay does
//! not change a response byte.

use sb_data::Domain;
use sb_serve::loadgen::workload_sql;
use sb_serve::{LoadConfig, QueryRequest, QueryService, ServeConfig, SlowLogConfig};
use std::sync::Arc;

/// The request stream as `n` closed-loop clients generate it: client
/// `c` of `n` walks indices `c, c + n, c + 2n, ...`. Streams are
/// reassembled by index so the comparison covers both the statement
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
