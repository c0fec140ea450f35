//! Concurrency correctness: N threads hammering one shared snapshot
//! through one service must produce responses byte-identical to a
//! single-threaded replay of the same workload.
//!
//! This is the serving layer's core guarantee made testable: snapshots
//! are immutable, execution is deterministic, and the only shared
//! mutable state (plan cache, admission counters) must never leak into
//! response bytes. The matrix covers the plan cache on/off and the
//! columnar engine on/off, so cache first-touch races and the batch
//! fallback path are both exercised under real contention.
//!
//! `SB_SERVE_COUNT` overrides the per-domain request count.

use sb_data::Domain;
use sb_engine::ExecOptions;
use sb_serve::{LoadConfig, QueryRequest, QueryService, ServeConfig};
use std::sync::Arc;

const THREADS: usize = 8;

fn request_count() -> usize {
    std::env::var("SB_SERVE_COUNT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200)
}

/// Replay the whole workload on one thread, collecting response JSON.
fn replay(service: &QueryService, domain: Domain, sqls: &[String]) -> Vec<String> {
    sqls.iter()
        .enumerate()
        .map(|(i, sql)| {
            service
                .handle(&QueryRequest::new(i as u64, domain.name(), sql))
                .to_json()
        })
        .collect()
}

fn check_domain(domain: Domain, plan_cache: bool, columnar: bool) {
    let db = Arc::new(sb_fuzz::fuzz_database(domain));
    let count = request_count();
    let load = LoadConfig::default();
    let sqls: Vec<String> = (0..count as u64)
        .map(|i| sb_serve::loadgen::workload_sql(&db, &load, i))
        .collect();

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

    let baseline = {
        let service = QueryService::new(cfg).with_snapshot(domain.name(), Arc::clone(&db));
        replay(&service, domain, &sqls)
    };

    // Fresh service, so concurrent threads also race on cache
    // first-touch rather than finding it pre-warmed.
    let service = QueryService::new(cfg).with_snapshot(domain.name(), Arc::clone(&db));
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| s.spawn(|| replay(&service, domain, &sqls)))
            .collect();
        for (t, handle) in handles.into_iter().enumerate() {
            let got = handle.join().expect("client thread panicked");
            for (i, (g, want)) in got.iter().zip(&baseline).enumerate() {
                assert_eq!(
                    g,
                    want,
                    "{} thread {t} request {i} diverged from the single-threaded \
                     baseline (plan_cache={plan_cache}, columnar={columnar})\nsql: {}",
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
