//! Plan-cache equivalence: for thousands of fuzzer statements per
//! domain, the cached path must be indistinguishable — byte for byte,
//! errors included — from planning every request from scratch.
//!
//! Three executions per statement:
//!
//! - **plain** — service with the plan cache disabled (parse + plan per
//!   request, the pre-serving behavior),
//! - **cold**  — cache-enabled service, first touch (parse + plan +
//!   store),
//! - **warm**  — cache-enabled service, repeat (the cached
//!   `PlannedSelect` borrowed and executed).
//!
//! All three responses must serialize identically. Error parity rides
//! along for free: the envelope JSON embeds the error code and message,
//! so a statement that fails must fail the same way on every path.
//!
//! `SB_SERVE_FUZZ_COUNT` overrides the per-domain statement count
//! (default 2000, matching the differential fuzzer's default budget).

use sb_data::Domain;
use sb_serve::{QueryRequest, QueryService, ServeConfig};
use std::sync::Arc;

fn fuzz_count() -> usize {
    std::env::var("SB_SERVE_FUZZ_COUNT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2000)
}

#[test]
fn cold_warm_and_uncached_responses_are_byte_identical() {
    // No more statements than the cache holds, so nothing is evicted
    // and every repeat hits.
    let count = fuzz_count().min(sb_serve::cache::DEFAULT_CAPACITY);
    for domain in Domain::ALL {
        let db = Arc::new(sb_fuzz::fuzz_database(domain));
        let cached =
            QueryService::new(ServeConfig::default()).with_snapshot(domain.name(), Arc::clone(&db));
        let plain = QueryService::new(ServeConfig {
            plan_cache: false,
            ..ServeConfig::default()
        })
        .with_snapshot(domain.name(), Arc::clone(&db));

        // Distinct statement texts seen so far: the generator can
        // reproduce a simple statement from two different per-index
        // seeds, and a repeat is legitimately a cache hit even on its
        // "cold" pass.
        let mut seen = std::collections::HashSet::new();
        for i in 0..count as u64 {
            let sql = sb_fuzz::workload_query(&db, 0xC0FFEE, i).to_string();
            let req = QueryRequest::new(i, domain.name(), &sql);
            let from_plain = plain.handle(&req);
            let cold = cached.handle(&req);
            let warm = cached.handle(&req);
            let first = seen.insert(sql.clone());
            assert_eq!(
                cold.cache_hit, !first,
                "cold pass must miss exactly on first touch: {sql}"
            );
            assert!(warm.cache_hit, "repeat must hit the raw layer: {sql}");
            assert_eq!(
                cold.to_json(),
                from_plain.to_json(),
                "{}: cold cached response diverged from the uncached service\nsql: {sql}",
                domain.name()
            );
            assert_eq!(
                warm.to_json(),
                from_plain.to_json(),
                "{}: warm cached response diverged from the uncached service\nsql: {sql}",
                domain.name()
            );
        }
        let stats = cached.cache_stats();
        let (hits, misses) = (stats.hits, stats.misses);
        assert_eq!(
            misses,
            seen.len() as u64,
            "{}: one miss per distinct statement",
            domain.name()
        );
        assert_eq!(
            hits,
            2 * count as u64 - seen.len() as u64,
            "{}: every non-first touch is a hit",
            domain.name()
        );
    }
}

/// The same equivalence swept across the full `ExecOptions` matrix the
/// differential fuzzer uses (3 configurations), at a reduced statement
/// budget, for each statement and its nested-loop twin: the captured
/// plan must reproduce fresh planning under every execution engine and
/// both join algorithms.
#[test]
fn cache_equivalence_holds_across_the_exec_options_matrix() {
    let count = (fuzz_count() / 50).max(10);
    for domain in Domain::ALL {
        let db = Arc::new(sb_fuzz::fuzz_database(domain));
        let sqls: Vec<String> = (0..count as u64)
            .flat_map(|i| {
                let q = sb_fuzz::workload_query(&db, 0xBEEF, i);
                let twin = sb_fuzz::nested_loop_twin(&q);
                std::iter::once(q).chain(twin).map(|q| q.to_string())
            })
            .collect();
        for (name, exec) in sb_fuzz::exec_matrix() {
            let cached = QueryService::new(ServeConfig {
                exec,
                ..ServeConfig::default()
            })
            .with_snapshot(domain.name(), Arc::clone(&db));
            let plain = QueryService::new(ServeConfig {
                exec,
                plan_cache: false,
                ..ServeConfig::default()
            })
            .with_snapshot(domain.name(), Arc::clone(&db));
            for (i, sql) in sqls.iter().enumerate() {
                let req = QueryRequest::new(i as u64, domain.name(), sql);
                let want = plain.handle(&req).to_json();
                let cold = cached.handle(&req).to_json();
                let warm = cached.handle(&req).to_json();
                assert_eq!(
                    cold,
                    want,
                    "{} [{name}] cold response diverged\nsql: {sql}",
                    domain.name()
                );
                assert_eq!(
                    warm,
                    want,
                    "{} [{name}] warm response diverged\nsql: {sql}",
                    domain.name()
                );
            }
        }
    }
}
