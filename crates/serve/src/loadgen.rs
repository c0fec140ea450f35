//! Closed-loop load generator: N simulated clients replaying the fuzzer
//! workload against one [`QueryService`], measuring latency through
//! `sb-obs` histograms.
//!
//! ## Closed loop
//!
//! Each client issues a request, waits for the response, and
//! immediately issues the next — no think time, no open-loop arrival
//! schedule. Offered load therefore adapts to service capacity, which
//! is the right shape for measuring an in-process service: the numbers
//! report what the service *can do*, not how a queue melts down.
//!
//! ## Workload determinism
//!
//! The workload is a pure function of `(snapshot, seed, request
//! index)`, never of the client count:
//!
//! - request `i`'s statement comes from
//!   [`sb_fuzz::workload_query`] via [`workload_sql`], which mixes a
//!   small *hot set* (three out of four requests replay one of
//!   [`LoadConfig::hot_set`] statements, exercising the plan cache the
//!   way real templated traffic does) with a cold tail of fresh
//!   statements;
//! - client `c` of `n` handles exactly the indices `i % n == c`.
//!
//! Re-running at any client count generates the identical multiset of
//! requests — `tests/loadgen_determinism.rs` pins the workload bytes at
//! 1, 4 and 16 clients. Latency and throughput stay wall-clock
//! measurements, of course; only the *workload* and the response
//! bodies are deterministic.

use crate::{ErrorCode, PlanCacheStats, QueryRequest, QueryService, ServeConfig, SlowLogConfig};
use sb_data::Domain;
use sb_engine::Database;
use sb_obs::{json, HistStat};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Load-generator knobs. [`Default`] is the full benchmark shape;
/// `serve_load --quick` shrinks it to a seconds-scale smoke run.
#[derive(Debug, Clone, Copy)]
pub struct LoadConfig {
    /// Simulated closed-loop clients.
    pub clients: usize,
    /// Total requests per domain (split round-robin across clients).
    pub requests: usize,
    /// Workload seed.
    pub seed: u64,
    /// Size of the hot statement set (indices `0..hot_set` of the
    /// workload stream double as the hot statements).
    pub hot_set: usize,
    /// Every `hot_every`-th request is a cold (fresh) statement; the
    /// rest replay the hot set.
    pub hot_every: usize,
    /// Request every `profile_sample`-th request (by workload index)
    /// with `profile = true`, exercising the tracing path under load.
    /// `0` disables sampling. Profiling never changes response bytes
    /// (pinned by `tests/loadgen_determinism.rs`), only adds the
    /// side-band [`crate::RequestProfile`].
    pub profile_sample: usize,
    /// Arm the service's slow-query log at this threshold (µs); the
    /// drained lines come back in
    /// [`DomainLoadReport::slow_log_lines`]. `None` leaves the log off.
    pub slow_log_threshold_us: Option<u64>,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            clients: 8,
            requests: 2_000,
            seed: 0xC0FFEE,
            hot_set: 16,
            hot_every: 4,
            profile_sample: 0,
            slow_log_threshold_us: None,
        }
    }
}

/// The statement for request `index`: hot-set replay or cold tail, a
/// pure function of `(db, cfg.seed, index)`.
pub fn workload_sql(db: &Database, cfg: &LoadConfig, index: u64) -> String {
    let effective =
        if cfg.hot_every > 0 && !index.is_multiple_of(cfg.hot_every as u64) && cfg.hot_set > 0 {
            index % cfg.hot_set as u64
        } else {
            index
        };
    sb_fuzz::workload_query(db, cfg.seed, effective).to_string()
}

/// What one domain's load run measured.
#[derive(Debug, Clone)]
pub struct DomainLoadReport {
    /// Domain name (`cordis` / `sdss` / `oncomx`).
    pub domain: String,
    /// Clients that ran.
    pub clients: usize,
    /// Requests issued.
    pub requests: usize,
    /// Responses with [`ErrorCode::Ok`].
    pub ok: usize,
    /// Responses with any error code. The fuzzer deliberately
    /// generates a small slice of erroring statements (its oracle
    /// checks error parity), so this is nonzero on a healthy run.
    pub errors: usize,
    /// The same errors split by [`ErrorCode`] wire string, in taxonomy
    /// order and with zero entries kept — so a report always shows the
    /// full shape and "which errors?" never requires a re-run. On a
    /// healthy deterministic run every error is a workload property
    /// (`parse_error` / `bind_error` / `exec_error`); `timeout` and
    /// `overloaded` are load artifacts and stay zero.
    pub errors_by_code: Vec<(&'static str, usize)>,
    /// Plan-cache counters and sizes at the end of the run.
    pub cache: PlanCacheStats,
    /// Closed-loop throughput over the whole run (wall clock).
    pub qps: f64,
    /// Latency quantiles in microseconds, from the `sb-obs` histogram.
    pub p50_us: f64,
    /// 95th percentile latency (µs).
    pub p95_us: f64,
    /// 99th percentile latency (µs).
    pub p99_us: f64,
    /// Mean latency (µs).
    pub mean_us: f64,
    /// Maximum latency (µs).
    pub max_us: f64,
    /// Latency histogram per [`ErrorCode`] wire string, in taxonomy
    /// order with empty histograms kept — "are errors fast or slow?"
    /// never requires a re-run. Built from per-client shards merged at
    /// the end (order-independent), so any client count reports the
    /// same counts. Surfaced in `serve_load`'s text output; the
    /// `BENCH_serve.json` document format is unchanged.
    pub latency_by_code: Vec<(&'static str, HistStat)>,
    /// Slow-query log lines drained from the service after the run
    /// (empty unless [`LoadConfig::slow_log_threshold_us`] armed it).
    pub slow_log_lines: Vec<String>,
}

impl DomainLoadReport {
    /// Errors caused by load shedding rather than the workload itself:
    /// `timeout` + `overloaded`. A deterministic closed-loop run (the
    /// check.sh quick smoke) must report zero here — anything else
    /// means admission or deadlines fired nondeterministically.
    pub fn transient_errors(&self) -> usize {
        self.errors_by_code
            .iter()
            .filter(|(code, _)| *code == "timeout" || *code == "overloaded")
            .map(|(_, n)| n)
            .sum()
    }
}

/// The per-domain latency histogram name. `sb-obs` metric names are
/// `&'static str` by design, hence the explicit match.
fn latency_metric(domain: Domain) -> &'static str {
    match domain {
        Domain::Cordis => "serve.latency_us.cordis",
        Domain::Sdss => "serve.latency_us.sdss",
        Domain::OncoMx => "serve.latency_us.oncomx",
    }
}

/// Run one domain's closed-loop load: build the fuzz-sized snapshot,
/// stand up a service with the plan cache on, replay
/// [`LoadConfig::requests`] statements from [`LoadConfig::clients`]
/// threads, and distill the `sb-obs` histogram into a
/// [`DomainLoadReport`].
///
/// Forces `sb-obs` collection on for the duration (restoring `Off`
/// afterwards) and calls `sb_obs::reset()` so each domain reports from
/// a clean registry — don't interleave with other metric consumers.
pub fn run_domain_load(domain: Domain, load: &LoadConfig) -> DomainLoadReport {
    let prev_mode = sb_obs::mode();
    if prev_mode == sb_obs::Mode::Off {
        sb_obs::set_mode(sb_obs::Mode::Summary);
    }
    sb_obs::reset();

    let db = Arc::new(sb_fuzz::fuzz_database(domain));
    let service = QueryService::new(ServeConfig {
        // The load generator itself is the concurrency bound; admission
        // is sized so a healthy run never sheds.
        max_in_flight: load.clients.max(1) * 2,
        slow_log: SlowLogConfig {
            enabled: load.slow_log_threshold_us.is_some(),
            threshold_us: load.slow_log_threshold_us.unwrap_or_default(),
        },
        ..ServeConfig::default()
    })
    .with_snapshot(domain.name(), Arc::clone(&db));

    let metric = latency_metric(domain);
    let clients = load.clients.max(1);
    let ok = AtomicUsize::new(0);
    // One counter per taxonomy code, indexed by position in
    // `ErrorCode::ALL` (slot 0 — Ok — stays unused).
    let by_code: Vec<AtomicUsize> = ErrorCode::ALL.iter().map(|_| AtomicUsize::new(0)).collect();
    // Per-code latency: each client shards into a local array and
    // merges once at exit — no lock on the hot path, and HistStat
    // merges are order-independent so the totals don't depend on which
    // client finishes first.
    let code_hists: Mutex<[HistStat; 8]> = Mutex::new([HistStat::default(); 8]);
    let started = Instant::now();
    std::thread::scope(|s| {
        for client in 0..clients {
            let service = &service;
            let db = &db;
            let ok = &ok;
            let by_code = &by_code;
            let code_hists = &code_hists;
            s.spawn(move || {
                let mut local = [HistStat::default(); 8];
                let mut index = client as u64;
                while (index as usize) < load.requests {
                    let sql = workload_sql(db, load, index);
                    let mut req = QueryRequest::new(index, domain.name(), &sql);
                    req.profile =
                        load.profile_sample > 0 && index.is_multiple_of(load.profile_sample as u64);
                    let t0 = Instant::now();
                    let resp = service.handle(&req);
                    let us = t0.elapsed().as_secs_f64() * 1e6;
                    sb_obs::observe(metric, us);
                    let slot = ErrorCode::ALL
                        .iter()
                        .position(|c| *c == resp.code)
                        .expect("response code outside the taxonomy");
                    local[slot].observe(us);
                    if resp.code == ErrorCode::Ok {
                        ok.fetch_add(1, Ordering::Relaxed);
                    } else {
                        by_code[slot].fetch_add(1, Ordering::Relaxed);
                    }
                    index += clients as u64;
                }
                let mut merged = code_hists.lock().unwrap();
                for (m, l) in merged.iter_mut().zip(&local) {
                    m.merge(l);
                }
            });
        }
    });
    let elapsed = started.elapsed().as_secs_f64().max(1e-9);

    let report = sb_obs::snapshot();
    let hist = report
        .hists
        .iter()
        .find(|(name, _)| name == metric)
        .map(|(_, h)| *h)
        .unwrap_or_default();
    if prev_mode == sb_obs::Mode::Off {
        sb_obs::set_mode(sb_obs::Mode::Off);
    }
    let errors_by_code: Vec<(&'static str, usize)> = ErrorCode::ALL
        .iter()
        .zip(&by_code)
        .filter(|(c, _)| **c != ErrorCode::Ok)
        .map(|(c, n)| (c.as_str(), n.load(Ordering::Relaxed)))
        .collect();
    let errors = errors_by_code.iter().map(|(_, n)| n).sum();
    let latency_by_code: Vec<(&'static str, HistStat)> = ErrorCode::ALL
        .iter()
        .zip(code_hists.into_inner().unwrap())
        .map(|(c, h)| (c.as_str(), h))
        .collect();
    let slow_log_lines = service.drain_slow_log();
    DomainLoadReport {
        domain: domain.name().to_string(),
        clients,
        requests: load.requests,
        ok: ok.into_inner(),
        errors,
        errors_by_code,
        cache: service.cache_stats(),
        qps: load.requests as f64 / elapsed,
        p50_us: hist.quantile(0.50),
        p95_us: hist.quantile(0.95),
        p99_us: hist.quantile(0.99),
        mean_us: if hist.count > 0 {
            hist.sum / hist.count as f64
        } else {
            0.0
        },
        max_us: hist.max,
        latency_by_code,
        slow_log_lines,
    }
}

/// Render domain reports as the `BENCH_serve.json` document.
pub fn render_bench_json(load: &LoadConfig, reports: &[DomainLoadReport]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"benchmark\": \"sb-serve closed-loop load\",");
    let _ = writeln!(out, "  \"clients\": {},", load.clients.max(1));
    let _ = writeln!(out, "  \"requests_per_domain\": {},", load.requests);
    let _ = writeln!(out, "  \"seed\": {},", load.seed);
    out.push_str("  \"domains\": [");
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {\n");
        let _ = writeln!(out, "      \"domain\": \"{}\",", json::escape(&r.domain));
        let _ = writeln!(
            out,
            "      \"requests\": {}, \"ok\": {}, \"errors\": {},",
            r.requests, r.ok, r.errors
        );
        let codes: Vec<String> = r
            .errors_by_code
            .iter()
            .map(|(code, n)| format!("\"{code}\": {n}"))
            .collect();
        let _ = writeln!(out, "      \"errors_by_code\": {{{}}},", codes.join(", "));
        let c = &r.cache;
        let _ = writeln!(
            out,
            "      \"cache\": {{\"hits\": {}, \"misses\": {}, \"entries\": {}, \"capacity\": {}, \"evictions\": {}}},",
            c.hits, c.misses, c.entries, c.capacity, c.evictions
        );
        let _ = writeln!(out, "      \"qps\": {},", json::number(r.qps));
        let _ = writeln!(
            out,
            "      \"latency_us\": {{\"p50\": {}, \"p95\": {}, \"p99\": {}, \"mean\": {}, \"max\": {}}}",
            json::number(r.p50_us),
            json::number(r.p95_us),
            json::number(r.p99_us),
            json::number(r.mean_us),
            json::number(r.max_us)
        );
        out.push_str("    }");
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Validate a `BENCH_serve.json` document: well-formed JSON (via the
/// `sb-obs` validator) carrying every required key. Returns a
/// human-readable complaint on failure.
pub fn validate_bench_json(content: &str) -> Result<(), String> {
    json::validate(content)?;
    const REQUIRED: &[&str] = &[
        "\"benchmark\"",
        "\"clients\"",
        "\"requests_per_domain\"",
        "\"domains\"",
        "\"qps\"",
        "\"latency_us\"",
        "\"p50\"",
        "\"p95\"",
        "\"p99\"",
        "\"cache\"",
        "\"errors_by_code\"",
    ];
    for key in REQUIRED {
        if !content.contains(key) {
            return Err(format!("missing required key {key}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_json_renders_valid_and_validates() {
        let load = LoadConfig {
            clients: 2,
            requests: 4,
            ..LoadConfig::default()
        };
        let report = DomainLoadReport {
            domain: "sdss".to_string(),
            clients: 2,
            requests: 4,
            ok: 4,
            errors: 0,
            errors_by_code: ErrorCode::ALL
                .iter()
                .filter(|c| **c != ErrorCode::Ok)
                .map(|c| (c.as_str(), 0))
                .collect(),
            cache: PlanCacheStats {
                hits: 3,
                misses: 1,
                ..PlanCacheStats::default()
            },
            qps: 1234.5,
            p50_us: 10.0,
            p95_us: 20.0,
            p99_us: 30.0,
            mean_us: 12.0,
            max_us: 31.0,
            latency_by_code: ErrorCode::ALL
                .iter()
                .map(|c| (c.as_str(), HistStat::default()))
                .collect(),
            slow_log_lines: Vec::new(),
        };
        let doc = render_bench_json(&load, &[report]);
        validate_bench_json(&doc).expect("rendered document must validate");
        assert!(validate_bench_json("{}").is_err(), "missing keys must fail");
        assert!(
            validate_bench_json("{\"benchmark\": ").is_err(),
            "malformed JSON must fail"
        );
    }

    #[test]
    fn small_run_splits_errors_by_code_with_no_transients() {
        let load = LoadConfig {
            clients: 2,
            requests: 40,
            ..LoadConfig::default()
        };
        let r = run_domain_load(Domain::Sdss, &load);
        assert_eq!(r.ok + r.errors, r.requests);
        assert_eq!(
            r.errors,
            r.errors_by_code.iter().map(|(_, n)| n).sum::<usize>(),
            "per-code counters must account for every error"
        );
        assert_eq!(
            r.errors_by_code.len(),
            ErrorCode::ALL.len() - 1,
            "every non-Ok code appears, zeros included"
        );
        assert_eq!(
            r.transient_errors(),
            0,
            "deterministic closed-loop run shed load: {:?}",
            r.errors_by_code
        );
        // The per-code latency shards must account for every request...
        let hist_total: u64 = r.latency_by_code.iter().map(|(_, h)| h.count).sum();
        assert_eq!(hist_total as usize, r.requests);
        // ...and agree with the scalar counters, code by code.
        for (code, h) in &r.latency_by_code {
            let n = if *code == "ok" {
                r.ok
            } else {
                r.errors_by_code
                    .iter()
                    .find(|(c, _)| c == code)
                    .map(|(_, n)| *n)
                    .unwrap()
            };
            assert_eq!(h.count as usize, n, "{code}: histogram/counter mismatch");
        }
        assert!(
            r.slow_log_lines.is_empty(),
            "slow log must stay off unless armed"
        );
    }

    #[test]
    fn hot_set_mixing_is_a_pure_function_of_the_index() {
        let db = sb_fuzz::fuzz_database(Domain::Sdss);
        let cfg = LoadConfig {
            hot_set: 4,
            hot_every: 4,
            ..LoadConfig::default()
        };
        // Indices 1..4 replay hot statements 1..3; index 5 maps to hot
        // statement 1 again; multiples of `hot_every` stay cold.
        assert_eq!(workload_sql(&db, &cfg, 5), workload_sql(&db, &cfg, 1));
        assert_ne!(workload_sql(&db, &cfg, 0), workload_sql(&db, &cfg, 4));
    }
}
