//! Concurrency correctness: N threads hammering one shared snapshot
//! through one service must produce responses byte-identical to a
//! single-threaded replay of the same workload.
//!
//! This is the serving layer's core guarantee made testable: snapshots
//! are immutable, execution is deterministic, and the only shared
//! mutable state (plan cache, admission counters, slow log) must never
//! leak into response bytes. The matrix covers the plan cache on/off
//! and the columnar engine on/off, so cache first-touch races and the
//! batch fallback path are both exercised under real contention. In the
//! cached columnar cell the concurrent service also traces: the slow
//! log is armed at threshold 0 and every 16th request asks for a
//! profile, so tracing under load must stay invisible on the wire.
//! Byte identity also means no `timeout` or `overloaded` response:
//! a deterministic run must not shed load.
//!
//! `SB_SERVE_COUNT` overrides the per-domain request count.

use sb_data::Domain;
use sb_engine::ExecOptions;
use sb_serve::{
    ErrorCode, LoadConfig, QueryRequest, QueryResponse, QueryService, ServeConfig, SlowLogConfig,
};
use std::sync::Arc;

const THREADS: usize = 8;

/// In the tracing cell, every `PROFILE_EVERY`-th request sets
/// `profile`.
const PROFILE_EVERY: u64 = 16;

fn request_count() -> usize {
    std::env::var("SB_SERVE_COUNT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200)
}

/// Replay the whole workload on one thread. With `profile_every > 0`,
/// every `profile_every`-th request sets `profile`; every request sets
/// `row_cap`.
fn replay(
    service: &QueryService,
    domain: Domain,
    sqls: &[String],
    profile_every: u64,
    row_cap: Option<usize>,
) -> Vec<QueryResponse> {
    sqls.iter()
        .enumerate()
        .map(|(i, sql)| {
            let mut req = QueryRequest::new(i as u64, domain.name(), sql);
            req.profile = profile_every > 0 && (i as u64).is_multiple_of(profile_every);
            req.row_cap = row_cap;
            service.handle(&req)
        })
        .collect()
}

/// The workload's statements for one domain's fuzz snapshot.
fn workload(db: &sb_engine::Database) -> Vec<String> {
    let load = LoadConfig::default();
    (0..request_count() as u64)
        .map(|i| sb_serve::loadgen::workload_sql(db, &load, i))
        .collect()
}

fn check_domain(domain: Domain, plan_cache: bool, columnar: bool) {
    let db = Arc::new(sb_fuzz::fuzz_database(domain));
    let count = request_count();
    let sqls = workload(&db);

    let cfg = ServeConfig {
        // Every thread replays the full workload concurrently; size
        // admission so correctness runs never shed load.
        max_in_flight: THREADS * 2,
        exec: ExecOptions {
            columnar,
            ..ExecOptions::default()
        },
        plan_cache,
        ..ServeConfig::default()
    };
    let traced = plan_cache && columnar;

    let baseline = {
        let service = QueryService::new(cfg).with_snapshot(domain.name(), Arc::clone(&db));
        replay(&service, domain, &sqls, 0, None)
    };
    let baseline_json: Vec<String> = baseline.iter().map(|r| r.to_json()).collect();
    // The fuzzer generates a slice of erroring statements on purpose
    // (its oracle checks error parity), so a healthy workload answers
    // mostly, not only, `ok`.
    let errors = baseline.iter().filter(|r| r.code != ErrorCode::Ok).count();
    assert!(
        errors < count / 5,
        "{}: error responses dominate the workload ({errors}/{count})",
        domain.name()
    );

    // Fresh service, so concurrent threads also race on cache
    // first-touch rather than finding it pre-warmed.
    let concurrent_cfg = ServeConfig {
        slow_log: SlowLogConfig {
            enabled: traced,
            threshold_us: 0,
        },
        ..cfg
    };
    let profile_every = if traced { PROFILE_EVERY } else { 0 };
    let service = QueryService::new(concurrent_cfg).with_snapshot(domain.name(), Arc::clone(&db));
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| s.spawn(|| replay(&service, domain, &sqls, profile_every, None)))
            .collect();
        for (t, handle) in handles.into_iter().enumerate() {
            let got = handle.join().expect("client thread panicked");
            for (i, (g, want)) in got.iter().zip(&baseline_json).enumerate() {
                assert_eq!(
                    &g.to_json(),
                    want,
                    "{} thread {t} request {i} diverged from the single-threaded \
                     baseline (plan_cache={plan_cache}, columnar={columnar}, \
                     traced={traced})\nsql: {}",
                    domain.name(),
                    sqls[i]
                );
            }
        }
    });

    if plan_cache {
        let hits = service.cache_stats().hits;
        assert!(
            hits > 0,
            "{}: concurrent replay of a hot-set workload must hit the plan cache",
            domain.name()
        );
    }

    let lines = service.drain_slow_log();
    if !traced {
        assert!(lines.is_empty(), "slow log must stay off unless armed");
        return;
    }
    // Requests stopped before execution (guardrail, unknown snapshot,
    // parse) leave no slow-log line; every other one does at
    // threshold 0, errors included.
    let before_execution = [
        ErrorCode::InvalidRequest,
        ErrorCode::NotReadOnly,
        ErrorCode::ParseError,
    ];
    let executed = baseline
        .iter()
        .filter(|r| !before_execution.contains(&r.code))
        .count();
    assert!(executed > 0, "{}: workload executed nothing", domain.name());
    assert_eq!(
        lines.len(),
        executed * THREADS,
        "{}: threshold-0 slow log must record every executed request",
        domain.name()
    );
    for line in &lines {
        sb_obs::json::validate(line).unwrap_or_else(|e| panic!("bad slow-log JSON ({e}): {line}"));
        assert!(
            line.contains("\"trace_id\""),
            "slow-log line without a trace id: {line}"
        );
    }
    assert!(
        lines
            .iter()
            .any(|l| l.contains("Scan") || l.contains("HashJoin")),
        "{}: slow log carries no analyzed plan",
        domain.name()
    );
}

#[test]
fn concurrent_replay_is_byte_identical_cached_columnar() {
    for domain in Domain::ALL {
        check_domain(domain, true, true);
    }
}

#[test]
fn concurrent_replay_is_byte_identical_cached_row_engine() {
    for domain in Domain::ALL {
        check_domain(domain, true, false);
    }
}

#[test]
fn concurrent_replay_is_byte_identical_uncached_columnar() {
    for domain in Domain::ALL {
        check_domain(domain, false, true);
    }
}

#[test]
fn concurrent_replay_is_byte_identical_uncached_row_engine() {
    for domain in Domain::ALL {
        check_domain(domain, false, false);
    }
}

/// Truncation under concurrency: with every request capped at
/// `CAP` rows, the 8-thread responses are byte-identical to a
/// single-threaded replay, and each response holds the first `CAP` rows
/// and the full row count of the uncapped service's response.
#[test]
fn concurrent_capped_replay_is_byte_identical_and_a_prefix() {
    const CAP: usize = 3;
    for domain in Domain::ALL {
        let db = Arc::new(sb_fuzz::fuzz_database(domain));
        let sqls = workload(&db);
        let cfg = ServeConfig {
            max_in_flight: THREADS * 2,
            ..ServeConfig::default()
        };
        let service = || QueryService::new(cfg).with_snapshot(domain.name(), Arc::clone(&db));

        let uncapped = replay(&service(), domain, &sqls, 0, None);
        let baseline = replay(&service(), domain, &sqls, 0, Some(CAP));
        let mut truncated = 0;
        for (i, (capped, full)) in baseline.iter().zip(&uncapped).enumerate() {
            let want = &full.rows[..full.rows.len().min(CAP)];
            assert!(
                capped.code == full.code
                    && capped.error == full.error
                    && capped.columns == full.columns
                    && format!("{:?}", capped.rows) == format!("{want:?}")
                    && capped.total_rows == full.total_rows
                    && capped.truncated == (full.total_rows > CAP),
                "{} request {i}: capped response is not the uncapped prefix\n\
                 sql: {}\ncapped:   {}\nuncapped: {}",
                domain.name(),
                sqls[i],
                capped.to_json(),
                full.to_json()
            );
            truncated += capped.truncated as usize;
        }
        assert!(
            truncated > 0,
            "{}: no response exceeded {CAP} rows, so nothing was truncated",
            domain.name()
        );

        let baseline_json: Vec<String> = baseline.iter().map(|r| r.to_json()).collect();
        let service = service();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| s.spawn(|| replay(&service, domain, &sqls, 0, Some(CAP))))
                .collect();
            for (t, handle) in handles.into_iter().enumerate() {
                let got = handle.join().expect("client thread panicked");
                for (i, (g, want)) in got.iter().zip(&baseline_json).enumerate() {
                    assert_eq!(
                        &g.to_json(),
                        want,
                        "{} thread {t} request {i} diverged from the capped single-threaded \
                         baseline\nsql: {}",
                        domain.name(),
                        sqls[i]
                    );
                }
            }
        });
    }
}
