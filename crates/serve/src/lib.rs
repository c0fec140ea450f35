//! # sb-serve — concurrent query service over immutable snapshots
//!
//! The serving layer of the reproduction: a long-running, thread-safe
//! query service that answers the `sb-sql` dialect against shared
//! [`Arc<Database>`] snapshots. This is the substrate the benchmark's
//! interactive consumers (NL-to-SQL demos, execution-accuracy scoring
//! farms, data-profiling dashboards) would sit on in production, where
//! one process serves many concurrent clients from one in-memory copy
//! of each domain database.
//!
//! The pieces, each its own module:
//!
//! - [`envelope`] — structured [`QueryRequest`] / [`QueryResponse`]
//!   envelopes, a stable [`ErrorCode`] taxonomy, per-request row caps,
//!   and the read-only guardrail that rejects anything but a single
//!   `SELECT` before it reaches the parser. The row cap applies inside
//!   the engine ([`sb_engine::execute_capped`]), before rows are built:
//!   a response never materializes the rows it drops, yet still reports
//!   the full count in `total_rows`.
//! - [`cache`] — the prepared-plan cache: parse → plan once per
//!   request text, execute the cached [`sb_opt::PlannedSelect`] on every
//!   repeat; bounded by CLOCK eviction.
//! - [`admission`] — bounded in-flight admission with explicit
//!   `overloaded` rejection; the service never queues.
//! - [`loadgen`] — the deterministic request mix (fuzzer statements
//!   with a hot set) that the serve tests and the benchmark's serve
//!   workloads replay; load itself is measured by `sbbench`.
//!
//! ## Concurrency model
//!
//! Snapshots are immutable and shared (`Arc<Database>`); a request
//! borrows one for its lifetime and never copies it. All mutable
//! service state is the plan cache (read-mostly `RwLock`) and two
//! atomics (admission gate, cache counters). There are no locks held
//! across execution, so request handling scales with cores — and
//! because execution on an immutable snapshot is deterministic, N
//! threads hammering one service produce byte-identical responses to a
//! single-threaded replay (pinned by `tests/concurrency.rs`).
//!
//! ## Timeout semantics
//!
//! Timeouts are **cooperative and coarse**: the deadline is checked at
//! admission and at completion, never mid-operator, so a response is
//! either a complete result or a clean `timeout` — never a torn one.
//! `timeout_ms = 0` expires at admission deterministically, which is
//! how the envelope goldens pin the timeout response without a race.

pub mod admission;
pub mod cache;
pub mod envelope;
pub mod loadgen;

pub use admission::{AdmissionGate, Permit};
pub use cache::{PlanCache, PlanCacheStats, Prepared};
pub use envelope::{
    trace_id, validate_read_only_sql, ErrorCode, QueryRequest, QueryResponse, RequestProfile,
};
pub use loadgen::LoadConfig;

use sb_engine::{Database, ExecOptions};
use sb_obs::QueryProfile;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Slow-query log configuration. When enabled, every request whose
/// total wall time reaches `threshold_us` appends one JSON line —
/// trace id, phase breakdown and the EXPLAIN ANALYZE plan rendered from
/// the profile the request already recorded — to the service's
/// in-memory slow log (drained via [`QueryService::drain_slow_log`]).
#[derive(Debug, Clone, Copy)]
pub struct SlowLogConfig {
    /// Arm the slow log (and with it, per-request engine profiling).
    pub enabled: bool,
    /// Minimum total request wall time, in microseconds, for a request
    /// to be logged. `0` logs every request — how tests exercise the
    /// path deterministically.
    pub threshold_us: u64,
}

impl Default for SlowLogConfig {
    fn default() -> Self {
        SlowLogConfig {
            enabled: false,
            threshold_us: 10_000,
        }
    }
}

/// Service-wide configuration. Per-request envelope fields can lower
/// (but not raise) the row cap and timeout.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Admission bound: concurrent requests beyond this are rejected
    /// with [`ErrorCode::Overloaded`]. `0` rejects everything (used to
    /// pin the overload golden).
    pub max_in_flight: usize,
    /// Default cap on returned rows when the request does not set one.
    /// The engine applies the cap before it builds result rows, so rows
    /// past it cost no materialization.
    pub default_row_cap: usize,
    /// Default per-request deadline when the request does not set one.
    pub default_timeout_ms: u64,
    /// Executor configuration every request runs under.
    pub exec: ExecOptions,
    /// Whether to prepare statements through the [`PlanCache`]. Off,
    /// every request parses and plans from scratch — the equivalence
    /// suites run both ways and demand identical responses.
    pub plan_cache: bool,
    /// Slow-query logging (off by default).
    pub slow_log: SlowLogConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_in_flight: 64,
            default_row_cap: 10_000,
            default_timeout_ms: 5_000,
            exec: ExecOptions::default(),
            plan_cache: true,
            slow_log: SlowLogConfig::default(),
        }
    }
}

/// A running query service: named immutable snapshots plus the shared
/// plan cache and admission gate. Cheap to share by reference across
/// client threads (`QueryService: Sync`).
#[derive(Debug)]
pub struct QueryService {
    cfg: ServeConfig,
    /// Registration order is kept for deterministic introspection.
    snapshots: Vec<(String, Arc<Database>)>,
    cache: PlanCache,
    gate: AdmissionGate,
    /// Buffered slow-query log lines (JSON, one request per line).
    /// In-memory so the service stays filesystem-free; callers drain
    /// it with [`QueryService::drain_slow_log`].
    slow_log: Mutex<Vec<String>>,
}

impl QueryService {
    /// A service with no snapshots yet.
    pub fn new(cfg: ServeConfig) -> QueryService {
        QueryService {
            cfg,
            snapshots: Vec::new(),
            cache: PlanCache::new(),
            gate: AdmissionGate::new(cfg.max_in_flight),
            slow_log: Mutex::new(Vec::new()),
        }
    }

    /// Register (or replace) a named snapshot. Builder-style so test
    /// setup reads as one expression.
    pub fn with_snapshot(mut self, name: &str, db: Arc<Database>) -> QueryService {
        match self
            .snapshots
            .iter_mut()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
        {
            Some(slot) => slot.1 = db,
            None => self.snapshots.push((name.to_string(), db)),
        }
        self
    }

    /// The service configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Registered snapshot names, in registration order.
    pub fn snapshot_names(&self) -> Vec<&str> {
        self.snapshots.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Plan-cache counters and sizes.
    pub fn cache_stats(&self) -> PlanCacheStats {
        self.cache.stats()
    }

    fn snapshot(&self, name: &str) -> Option<&Arc<Database>> {
        self.snapshots
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, db)| db)
    }

    /// Drain buffered slow-query log lines (oldest first), leaving the
    /// buffer empty. Each line is one self-contained JSON object.
    pub fn drain_slow_log(&self) -> Vec<String> {
        std::mem::take(&mut *self.slow_log.lock().unwrap())
    }

    /// Handle one request end to end: admission → deadline → guardrail
    /// → prepare (cached or fresh) → execute under the row cap. Every exit path
    /// produces a well-formed [`QueryResponse`] with a stable
    /// [`ErrorCode`]; this function never panics on user input.
    ///
    /// When the request opts into `profile` (or the slow log is armed),
    /// the engine records a [`QueryProfile`] during execution and the
    /// response carries a [`RequestProfile`]: the deterministic trace
    /// id plus the admission / parse / plan / execute / serialize phase
    /// breakdown. Early-exit errors stamp only the phases they reached.
    /// Profiling off is the exact pre-profiling code path — the
    /// equivalence suites pin byte-identical responses either way.
    pub fn handle(&self, req: &QueryRequest) -> QueryResponse {
        let _span = sb_obs::span("serve.request");
        let profiling = req.profile || self.cfg.slow_log.enabled;
        let t_start = Instant::now();
        let mut rp = profiling.then(|| RequestProfile {
            trace_id: trace_id(req),
            ..RequestProfile::default()
        });
        let us = |since: Instant| since.elapsed().as_micros() as u64;

        let Some(_permit) = self.gate.try_acquire() else {
            sb_obs::count("serve.rejected.overload", 1);
            let mut resp = QueryResponse::error(
                req.id,
                ErrorCode::Overloaded,
                format!("too many requests in flight (max {})", self.gate.capacity()),
            );
            if let Some(rp) = rp.as_mut() {
                rp.admission_us = us(t_start);
            }
            resp.profile = rp;
            return resp;
        };

        // Envelope fields can only lower the service's limits.
        let timeout_ms = req.timeout_ms.map_or(self.cfg.default_timeout_ms, |t| {
            t.min(self.cfg.default_timeout_ms)
        });
        let deadline = Instant::now() + Duration::from_millis(timeout_ms);
        let timed_out = |stage: &str| {
            sb_obs::count("serve.rejected.timeout", 1);
            QueryResponse::error(
                req.id,
                ErrorCode::Timeout,
                format!("deadline exceeded {stage} (timeout_ms={timeout_ms})"),
            )
        };
        // Cooperative deadline check #1: at admission. A zero timeout
        // expires here, deterministically.
        if timeout_ms == 0 {
            let mut resp = timed_out("at admission");
            if let Some(rp) = rp.as_mut() {
                rp.admission_us = us(t_start);
            }
            resp.profile = rp;
            return resp;
        }

        let Some(db) = self.snapshot(&req.db) else {
            let mut resp = QueryResponse::error(
                req.id,
                ErrorCode::InvalidRequest,
                format!("unknown snapshot `{}`", req.db),
            );
            if let Some(rp) = rp.as_mut() {
                rp.admission_us = us(t_start);
            }
            resp.profile = rp;
            return resp;
        };
        let t_parse = Instant::now();
        if let Some(rp) = rp.as_mut() {
            rp.admission_us = (t_parse - t_start).as_micros() as u64;
        }
        if let Err((code, detail)) = validate_read_only_sql(&req.sql) {
            sb_obs::count("serve.rejected.guardrail", 1);
            let mut resp = QueryResponse::error(req.id, code, detail);
            if let Some(rp) = rp.as_mut() {
                rp.parse_us = us(t_parse);
            }
            resp.profile = rp;
            return resp;
        }

        // Prepare: through the cache, or parse-and-plan per request
        // when the cache is disabled. Both paths produce the same
        // statement and (deterministic) plan, so responses match. The
        // cache path does lookup+parse+plan as one unit; it is
        // attributed entirely to the plan phase (the guardrail above is
        // the parse phase's floor), while the cache-off path splits
        // parse and plan at the real boundary.
        let t_plan;
        let (prepared, cache_hit) = if self.cfg.plan_cache {
            t_plan = Instant::now();
            if let Some(rp) = rp.as_mut() {
                rp.parse_us = (t_plan - t_parse).as_micros() as u64;
            }
            match self.cache.prepare(&req.db, db, &req.sql, self.cfg.exec) {
                (Ok(p), hit) => (p, hit),
                (Err(e), _) => {
                    let mut resp = QueryResponse::error(req.id, ErrorCode::ParseError, e);
                    if let Some(rp) = rp.as_mut() {
                        rp.plan_us = us(t_plan);
                    }
                    resp.profile = rp;
                    return resp;
                }
            }
        } else {
            match sb_sql::parse(&req.sql) {
                Ok(query) => {
                    t_plan = Instant::now();
                    if let Some(rp) = rp.as_mut() {
                        rp.parse_us = (t_plan - t_parse).as_micros() as u64;
                    }
                    let plan = sb_engine::plan_top_select(db, &query, self.cfg.exec);
                    (Arc::new(Prepared { query, plan }), false)
                }
                Err(e) => {
                    let mut resp =
                        QueryResponse::error(req.id, ErrorCode::ParseError, e.to_string());
                    if let Some(rp) = rp.as_mut() {
                        rp.parse_us = us(t_parse);
                    }
                    resp.profile = rp;
                    return resp;
                }
            }
        };
        let t_exec = Instant::now();
        if let Some(rp) = rp.as_mut() {
            rp.plan_us = (t_exec - t_plan).as_micros() as u64;
        }

        // Admission-aware fan-out: divide the session's worker budget
        // by the live in-flight count, so intra-query parallelism and
        // request concurrency compose instead of multiplying. Planning
        // above used the uncapped options — worker count never affects
        // plans or results, only scheduling, so cached plans stay
        // shareable across load levels.
        let exec = self.cfg.exec.capped_workers(self.gate.in_flight());
        let prof = profiling.then(QueryProfile::new);
        let row_cap = req.row_cap.map_or(self.cfg.default_row_cap, |c| {
            c.min(self.cfg.default_row_cap)
        });
        let result = sb_engine::execute_capped(
            db,
            &prepared.query,
            exec,
            prepared.plan.as_ref(),
            prof.as_ref(),
            row_cap,
        );
        let t_serialize = Instant::now();
        if let Some(rp) = rp.as_mut() {
            rp.execute_us = (t_serialize - t_exec).as_micros() as u64;
        }
        // Cooperative deadline check #2: at completion. The result of
        // an overdue request is discarded whole — never truncated to
        // whatever was done by the deadline.
        if Instant::now() > deadline {
            let mut resp = timed_out("during execution");
            resp.profile = rp;
            return resp;
        }

        let mut resp = match result {
            Ok((rs, total_rows)) => {
                let truncated = total_rows > row_cap;
                if truncated {
                    sb_obs::count("serve.truncated", 1);
                }
                sb_obs::count("serve.ok", 1);
                QueryResponse {
                    id: req.id,
                    code: ErrorCode::Ok,
                    error: None,
                    columns: rs.columns,
                    rows: rs.rows,
                    total_rows,
                    truncated,
                    cache_hit,
                    profile: None,
                }
            }
            Err(e) => {
                sb_obs::count("serve.exec_error", 1);
                let mut resp =
                    QueryResponse::error(req.id, ErrorCode::from_engine(&e), e.to_string());
                resp.cache_hit = cache_hit;
                resp
            }
        };
        if let Some(rp) = rp.as_mut() {
            rp.serialize_us = us(t_serialize);
        }

        // Slow log: fires only for requests that reached execution —
        // the analyzed plan is rendered from the profile the request
        // already recorded, with timings. It re-executes nothing a
        // request ran: planning needs each derived table's row count,
        // which the enclosing SELECT's scan slot holds. Only a request
        // that failed before scanning a derived table leaves the slot
        // empty, and rendering then runs that derived query once.
        if self.cfg.slow_log.enabled {
            let elapsed_us = us(t_start);
            if elapsed_us >= self.cfg.slow_log.threshold_us {
                if let (Some(rp), Some(prof)) = (rp.as_ref(), prof.as_ref()) {
                    let plan =
                        sb_engine::explain_with_profile(db, &prepared.query, exec, prof, true)
                            .unwrap_or_else(|e| format!("explain failed: {e}"));
                    let line = format!(
                        "{{\"id\": {}, \"db\": \"{}\", \"sql\": \"{}\", \"code\": \"{}\", \
                         \"elapsed_us\": {}, \"profile\": {}, \"plan\": \"{}\"}}",
                        req.id,
                        sb_obs::json::escape(&req.db),
                        sb_obs::json::escape(&req.sql),
                        resp.code.as_str(),
                        elapsed_us,
                        rp.to_json(),
                        sb_obs::json::escape(&plan),
                    );
                    self.slow_log.lock().unwrap().push(line);
                    sb_obs::count("serve.slow_logged", 1);
                }
            }
        }
        resp.profile = rp;
        resp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_data::{Domain, SizeClass};

    fn sdss_service(cfg: ServeConfig) -> QueryService {
        let db = Arc::new(Domain::Sdss.build(SizeClass::Tiny).db);
        QueryService::new(cfg).with_snapshot("sdss", db)
    }

    /// A service whose plan cache holds at most `capacity` entries.
    fn small_cache_service(cfg: ServeConfig, capacity: usize) -> QueryService {
        QueryService {
            cache: PlanCache::with_capacity(capacity),
            ..QueryService::new(cfg)
        }
    }

    /// Response JSON for each statement, requested in order.
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

    fn load_mix(db: &Database, requests: u64) -> Vec<String> {
        let load = LoadConfig::default();
        (0..requests)
            .map(|i| loadgen::workload_sql(db, &load, i))
            .collect()
    }

    /// The load workload's hot-and-fresh mix through caches of 1 to 64
    /// entries: every response matches the uncached service, the cache
    /// stays within its bound and evicts, and a cache with room for the
    /// hot set keeps it however many one-off statements pass through.
    #[test]
    fn bounded_caches_answer_like_the_uncached_service() {
        let requests = 1000;
        for domain in Domain::ALL {
            let db = Arc::new(sb_fuzz::fuzz_database(domain));
            let sqls = load_mix(&db, requests);
            let plain = QueryService::new(ServeConfig {
                plan_cache: false,
                ..ServeConfig::default()
            })
            .with_snapshot(domain.name(), Arc::clone(&db));
            let want = replay(&plain, domain, &sqls);
            for capacity in [1, 7, 64] {
                let cached = small_cache_service(ServeConfig::default(), capacity)
                    .with_snapshot(domain.name(), Arc::clone(&db));
                let got = replay(&cached, domain, &sqls);
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        g,
                        w,
                        "{} capacity {capacity}: response diverged\nsql: {}",
                        domain.name(),
                        sqls[i]
                    );
                }
                let stats = cached.cache_stats();
                assert!(
                    stats.entries <= capacity && stats.evictions > 0,
                    "{stats:?}"
                );
                if capacity >= LoadConfig::default().hot_set {
                    assert!(stats.hits * 10 >= requests * 7, "{stats:?}");
                }
                cached
                    .cache
                    .check_invariants()
                    .unwrap_or_else(|e| panic!("{} capacity {capacity}: {e}", domain.name()));
            }
        }
    }

    /// Eight threads through a 4-entry cache: eviction races with hits
    /// and first-touch inserts, and every response still matches a
    /// single-threaded replay.
    #[test]
    fn concurrent_replay_is_byte_identical_under_eviction() {
        const THREADS: usize = 8;
        let cfg = ServeConfig {
            max_in_flight: THREADS * 2,
            ..ServeConfig::default()
        };
        for domain in Domain::ALL {
            let db = Arc::new(sb_fuzz::fuzz_database(domain));
            let sqls = load_mix(&db, 200);
            let baseline = replay(
                &small_cache_service(cfg, 4).with_snapshot(domain.name(), Arc::clone(&db)),
                domain,
                &sqls,
            );
            let service = small_cache_service(cfg, 4).with_snapshot(domain.name(), db);
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
                            "{} thread {t} request {i} diverged\nsql: {}",
                            domain.name(),
                            sqls[i]
                        );
                    }
                }
            });
            let stats = service.cache_stats();
            assert!(stats.hits > 0 && stats.entries <= 4, "{stats:?}");
            service
                .cache
                .check_invariants()
                .unwrap_or_else(|e| panic!("{}: {e}", domain.name()));
        }
    }

    #[test]
    fn handle_answers_a_select_and_reports_cache_hits() {
        let svc = sdss_service(ServeConfig::default());
        let req = QueryRequest::new(1, "sdss", "SELECT s.class FROM specobj AS s LIMIT 3");
        let cold = svc.handle(&req);
        assert_eq!(cold.code, ErrorCode::Ok);
        assert!(!cold.cache_hit);
        assert_eq!(cold.rows.len(), 3);
        let warm = svc.handle(&req);
        assert!(warm.cache_hit);
        assert_eq!(cold.to_json(), warm.to_json());
        let stats = svc.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    /// A request's row cap cannot raise the service's.
    #[test]
    fn request_row_cap_cannot_raise_the_default() {
        let svc = sdss_service(ServeConfig {
            default_row_cap: 3,
            ..ServeConfig::default()
        });
        let mut req = QueryRequest::new(1, "sdss", "SELECT s.class FROM specobj AS s");
        req.row_cap = Some(usize::MAX);
        let resp = svc.handle(&req);
        assert_eq!(resp.code, ErrorCode::Ok);
        assert_eq!(resp.rows.len(), 3);
        assert!(resp.truncated);
    }

    /// A request's timeout cannot raise the service's: a zero default
    /// expires every request at admission.
    #[test]
    fn request_timeout_cannot_raise_the_default() {
        let svc = sdss_service(ServeConfig {
            default_timeout_ms: 0,
            ..ServeConfig::default()
        });
        let mut req = QueryRequest::new(1, "sdss", "SELECT s.class FROM specobj AS s");
        req.timeout_ms = Some(60_000);
        let resp = svc.handle(&req);
        assert_eq!(resp.code, ErrorCode::Timeout);
        let error = resp.error.expect("timeout carries a message");
        assert!(error.contains("at admission"), "{error}");
    }

    #[test]
    fn unknown_snapshot_is_invalid_request() {
        let svc = sdss_service(ServeConfig::default());
        let resp = svc.handle(&QueryRequest::new(7, "nope", "SELECT 1"));
        assert_eq!(resp.code, ErrorCode::InvalidRequest);
    }

    #[test]
    fn profile_opt_in_attaches_trace_and_leaves_wire_bytes_alone() {
        let svc = sdss_service(ServeConfig::default());
        let sql = "SELECT s.class FROM specobj AS s LIMIT 2";
        let mut req = QueryRequest::new(3, "sdss", sql);
        req.profile = true;
        let resp = svc.handle(&req);
        assert_eq!(resp.code, ErrorCode::Ok);
        let rp = resp.profile.as_ref().expect("profile requested");
        assert_eq!(rp.trace_id, trace_id(&req));
        assert_eq!(rp.trace_id.len(), 16);
        // The plain wire form never mentions the profile; the profiled
        // form appends exactly one extra field.
        assert!(!resp.to_json().contains("trace_id"));
        assert!(resp.to_json_with_profile().contains(&rp.trace_id));
        assert!(sb_obs::json::validate(&resp.to_json_with_profile()).is_ok());

        // Same request without profiling: byte-identical response.
        let plain = svc.handle(&QueryRequest::new(3, "sdss", sql));
        assert!(plain.profile.is_none());
        assert_eq!(plain.to_json(), resp.to_json());
        assert_eq!(plain.to_json(), plain.to_json_with_profile());
    }

    #[test]
    fn trace_ids_are_deterministic_per_request() {
        let req = QueryRequest::new(5, "sdss", "SELECT 1");
        assert_eq!(trace_id(&req), trace_id(&req));
        assert_ne!(
            trace_id(&req),
            trace_id(&QueryRequest::new(6, "sdss", "SELECT 1"))
        );
    }

    #[test]
    fn slow_log_records_trace_id_and_analyzed_plan() {
        let cfg = ServeConfig {
            slow_log: SlowLogConfig {
                enabled: true,
                threshold_us: 0,
            },
            ..ServeConfig::default()
        };
        let svc = sdss_service(cfg);
        let req = QueryRequest::new(
            9,
            "sdss",
            "SELECT s.class FROM specobj AS s WHERE s.z > 0.5",
        );
        assert_eq!(svc.handle(&req).code, ErrorCode::Ok);
        // Guardrail rejections never reach execution, so never log.
        assert_ne!(
            svc.handle(&QueryRequest::new(10, "sdss", "DROP TABLE specobj"))
                .code,
            ErrorCode::Ok
        );

        let lines = svc.drain_slow_log();
        assert_eq!(lines.len(), 1, "exactly the executed request logs");
        let line = &lines[0];
        sb_obs::json::validate(line).unwrap_or_else(|e| panic!("bad slow-log JSON ({e}): {line}"));
        assert!(line.contains(&trace_id(&req)), "trace id missing: {line}");
        assert!(line.contains("Scan"), "analyzed plan missing: {line}");
        assert!(
            line.contains("time="),
            "slow-log plans keep timings: {line}"
        );
        assert!(svc.drain_slow_log().is_empty(), "drain empties the buffer");
    }

    #[test]
    fn snapshot_names_are_case_insensitive_and_replaceable() {
        let db = Arc::new(Domain::Sdss.build(SizeClass::Tiny).db);
        let svc = QueryService::new(ServeConfig::default())
            .with_snapshot("SDSS", Arc::clone(&db))
            .with_snapshot("sdss", db);
        assert_eq!(svc.snapshot_names(), vec!["SDSS"]);
        let resp = svc.handle(&QueryRequest::new(
            1,
            "Sdss",
            "SELECT s.class FROM specobj AS s LIMIT 1",
        ));
        assert_eq!(resp.code, ErrorCode::Ok);
    }
}
