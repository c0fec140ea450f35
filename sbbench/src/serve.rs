//! The serve workloads: closed-loop clients against one
//! [`QueryService`] that holds all three domains, with requests
//! round-robin across domains.
//!
//! The loop is closed because the service's real callers (scoring-farm
//! workers) wait for each reply, and because the service sheds load
//! instead of queueing it: an open-loop rate sweep would only measure
//! shedding.
//!
//! - `serve_plan_hot` replays the `sb-serve` load-generator mix over
//!   24-row fuzz snapshots: three requests in four repeat a hot
//!   statement, the rest are fresh fuzzer statements. Per-request fixed
//!   cost dominates: guardrail, plan-cache hits beside cache writes for
//!   the cold quarter, parse and plan, and the envelope.
//! - `serve_exec_full` replays a pool of seed patterns and `sb-gen`
//!   statements over Full-size snapshots. Set-up runs the whole pool
//!   once, so every request hits the plan cache and engine execution
//!   over large column images dominates.
//!
//! Statement costs are heavy-tailed (a few fuzzer and generator
//! statements run hundreds of times longer than the median), so the
//! parts of a workload that few statements make up are fixed rather
//! than drawn from the seed: the hot set is the load generator's own,
//! and the execution pool is generated from [`POOL_SEED`]. The seed
//! draws the fresh statements and the order of the pool passes.

use crate::stats::{fingerprint, mix, peak_rss_mb, percentile};
use crate::trace::{SpanBuf, Trace};
use crate::{clients, repeat_setup, set_sliced, Outcome, RunSpec, Scale, Slice, DEFAULT_SEED};
use rayon::prelude::*;
use sb_core::{Pipeline, PipelineConfig};
use sb_data::{Domain, SizeClass};
use sb_engine::{Database, ExecOptions};
use sb_gen::{GenOptions, Generator};
use sb_obs::{ProfileSnapshot, QueryProfile};
use sb_serve::loadgen::{workload_sql, LoadConfig};
use sb_serve::{
    validate_read_only_sql, AdmissionGate, ErrorCode, PlanCache, QueryRequest, QueryResponse,
    QueryService, ServeConfig,
};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Seed of the `serve_exec_full` statement pool.
pub const POOL_SEED: u64 = DEFAULT_SEED;

/// Length of the time slices a run is cut into; the latency and
/// throughput metrics come from the best quartile of them.
const SLICE: Duration = Duration::from_millis(500);

/// Which serve workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PlanHot,
    ExecFull,
}

impl Kind {
    /// Requests per run: about the run's seconds of work on two cores
    /// (`serve_plan_hot` less, so that the plan cache stays under
    /// about 600 MB).
    fn requests(&self, spec: &RunSpec) -> usize {
        let (per_s, smoke) = match self {
            Kind::PlanHot => (30_000.0, 3_000),
            Kind::ExecFull => (4_000.0, 600),
        };
        match spec.scale {
            Scale::Bench => (per_s * spec.window.as_secs_f64()).ceil().max(1.0) as usize,
            Scale::Smoke => smoke,
        }
    }
}

/// One distinct statement of a workload.
pub struct Stmt {
    pub domain: usize,
    pub sql: String,
}

/// A workload's requests, generated before set-up.
pub struct Inputs {
    pub stmts: Vec<Stmt>,
    /// Request `i` runs `stmts[schedule[i]]`.
    pub schedule: Vec<u32>,
    /// Statements set-up runs once, so measurement starts warm.
    pub warm: Vec<u32>,
}

impl Inputs {
    pub fn stmt_of(&self, request: u64) -> u32 {
        self.schedule[request as usize]
    }

    fn request(&self, stmt: u32, id: u64) -> QueryRequest {
        let s = &self.stmts[stmt as usize];
        QueryRequest::new(id, Domain::ALL[s.domain].name(), &s.sql)
    }
}

/// The `sb-serve` load-generator mix: request `i` goes to domain
/// `i % 3`; per domain, three requests in four repeat one of the load
/// generator's hot statements and the fourth is a fresh fuzzer
/// statement drawn from `seed`.
pub fn plan_hot_inputs(seed: u64, requests: usize) -> Inputs {
    let dbs: Vec<Database> = Domain::ALL
        .iter()
        .map(|d| sb_fuzz::fuzz_database(*d))
        .collect();
    let hot = LoadConfig::default();
    let cold = LoadConfig { seed, ..hot };
    let (hot_set, hot_every) = (hot.hot_set as u64, hot.hot_every as u64);
    // `workload_sql` maps a per-domain index to its effective statement
    // index the same way; distinct effective indices are distinct
    // statements, generated once each.
    let is_hot = |eff: u64| eff < hot_set && !eff.is_multiple_of(hot_every);
    let mut ids: HashMap<(usize, u64), u32> = HashMap::new();
    let mut keys: Vec<(usize, u64)> = Vec::new();
    let schedule = (0..requests)
        .map(|i| {
            let (d, j) = (i % 3, (i / 3) as u64);
            let eff = if !j.is_multiple_of(hot_every) {
                j % hot_set
            } else {
                j
            };
            *ids.entry((d, eff)).or_insert_with(|| {
                keys.push((d, eff));
                (keys.len() - 1) as u32
            })
        })
        .collect();
    let stmts: Vec<Stmt> = keys
        .par_iter()
        .map(|&(domain, eff)| Stmt {
            domain,
            sql: workload_sql(&dbs[domain], if is_hot(eff) { &hot } else { &cold }, eff),
        })
        .collect();
    let warm = keys
        .iter()
        .enumerate()
        .filter(|(_, (_, eff))| is_hot(*eff))
        .map(|(id, _)| id as u32)
        .collect();
    Inputs {
        stmts,
        schedule,
        warm,
    }
}

/// Per domain, a pool of the seed patterns plus statements from
/// `sb_gen::Generator::generate` over the patterns' templates. Each
/// domain's requests walk the pool in passes, every pass a `seed`-drawn
/// permutation, so every statement runs equally often.
pub fn exec_full_inputs(seed: u64, requests: usize, scale: Scale) -> Inputs {
    let (size, generated) = match scale {
        Scale::Bench => (SizeClass::Full, 200),
        Scale::Smoke => (SizeClass::Tiny, 20),
    };
    let mut stmts = Vec::new();
    let mut pools: Vec<Vec<u32>> = Vec::new();
    for (d, domain) in Domain::ALL.iter().enumerate() {
        let data = domain.build(size);
        let templates =
            Pipeline::new(&data, PipelineConfig::default()).seeding_phase(&data.seed_patterns);
        let mut gen = Generator::new(&data.db, &data.enhanced, mix(POOL_SEED, d as u64));
        let (queries, _) = gen.generate(&templates, generated, &GenOptions::default());
        let sqls = data
            .seed_patterns
            .iter()
            .cloned()
            .chain(queries.iter().map(|q| q.query.to_string()));
        let mut pool = Vec::new();
        for sql in sqls {
            pool.push(stmts.len() as u32);
            stmts.push(Stmt { domain: d, sql });
        }
        pools.push(pool);
    }
    let mut passes: Vec<Vec<u32>> = vec![Vec::new(); 3];
    let schedule = (0..requests)
        .map(|i| {
            let d = i % 3;
            if passes[d].is_empty() {
                passes[d] = pools[d].clone();
                shuffle(&mut passes[d], mix(seed, i as u64));
            }
            passes[d].pop().expect("refilled above")
        })
        .collect();
    let warm = (0..stmts.len() as u32).collect();
    Inputs {
        stmts,
        schedule,
        warm,
    }
}

/// Fisher–Yates with a SplitMix64 stream.
fn shuffle(v: &mut [u32], seed: u64) {
    for i in (1..v.len()).rev() {
        let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
}

/// The snapshots set-up builds: 24-row fuzz databases for the plan-hot
/// mix, Full-size domains for the execution pool.
pub fn build_snapshots(kind: Kind, scale: Scale) -> Vec<Arc<Database>> {
    Domain::ALL
        .iter()
        .map(|d| {
            Arc::new(match (kind, scale) {
                (Kind::PlanHot, _) => sb_fuzz::fuzz_database(*d),
                (Kind::ExecFull, Scale::Bench) => d.build(SizeClass::Full).db,
                (Kind::ExecFull, Scale::Smoke) => d.build(SizeClass::Tiny).db,
            })
        })
        .collect()
}

/// A service holding the three domain snapshots under their names.
pub fn service(dbs: &[Arc<Database>], cfg: ServeConfig) -> QueryService {
    Domain::ALL
        .iter()
        .zip(dbs)
        .fold(QueryService::new(cfg), |svc, (d, db)| {
            svc.with_snapshot(d.name(), Arc::clone(db))
        })
}

/// One request's record: latency of `handle()` plus `to_json()`, when
/// it completed, the response fingerprint, and its code (index into
/// `ErrorCode::ALL`).
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub lat_ns: u64,
    /// Completion time since the start of the run.
    pub end_ns: u64,
    pub fp: u64,
    pub code: u8,
}

/// `Sample::code` of a request whose handler panicked.
pub const PANICKED: u8 = u8::MAX;

fn code_index(code: ErrorCode) -> u8 {
    ErrorCode::ALL
        .iter()
        .position(|c| *c == code)
        .expect("code in the taxonomy") as u8
}

/// Fingerprint of a response's JSON without its leading `"id"` field.
/// The id echoes the request index; everything after it depends on the
/// statement alone, which is what the oracle computes once per
/// statement.
pub fn body_fingerprint(json: &str) -> u64 {
    fingerprint(
        json.split_once(',')
            .map_or(json, |(_, rest)| rest)
            .as_bytes(),
    )
}

/// One measured run: per-client samples (client `c`'s `k`-th sample is
/// request `c + k * clients`) and its wall time.
pub struct Window {
    pub samples: Vec<Vec<Sample>>,
    pub wall_ns: u64,
}

impl Window {
    fn requests(&self) -> impl Iterator<Item = (u64, &Sample)> {
        let clients = self.samples.len();
        self.samples.iter().enumerate().flat_map(move |(c, s)| {
            s.iter()
                .enumerate()
                .map(move |(k, x)| ((c + k * clients) as u64, x))
        })
    }

    fn len(&self) -> usize {
        self.samples.iter().map(Vec::len).sum()
    }

    /// The run cut into equal time slices of about [`SLICE`], by
    /// completion time.
    fn slices(&self) -> Vec<Slice> {
        let count = ((self.wall_ns as f64 / SLICE.as_nanos() as f64).round() as usize).max(1);
        let width = self.wall_ns.max(1) as f64 / count as f64;
        let mut slices: Vec<Slice> = (0..count)
            .map(|_| Slice {
                ops: 0.0,
                secs: width / 1e9,
                lat_ns: Vec::new(),
            })
            .collect();
        for (_, s) in self.requests() {
            let slice = &mut slices[((s.end_ns as f64 / width) as usize).min(count - 1)];
            slice.ops += 1.0;
            slice.lat_ns.push(s.lat_ns);
        }
        slices
    }
}

/// Run `per_client(c)` on `clients` threads released together;
/// client `c` issues requests `c, c + clients, ..`. Returns each
/// client's output and the wall time from the release to the last
/// client's finish.
fn closed_loop<T: Send>(clients: usize, per_client: impl Fn(usize) -> T + Sync) -> (Vec<T>, u64) {
    let barrier = Barrier::new(clients + 1);
    let (outs, start) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (barrier, per_client) = (&barrier, &per_client);
                s.spawn(move || {
                    barrier.wait();
                    per_client(c)
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let outs: Vec<T> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        (outs, start)
    });
    (outs, start.elapsed().as_nanos() as u64)
}

/// The untraced run: every request goes through `handle()`.
pub fn measure(svc: &QueryService, inputs: &Inputs, clients: usize) -> Window {
    let n = inputs.schedule.len() as u64;
    let epoch = Instant::now();
    let (samples, wall_ns) = closed_loop(clients, |c| {
        let mut samples = Vec::with_capacity(inputs.schedule.len() / clients + 1);
        let mut i = c as u64;
        while i < n {
            let req = inputs.request(inputs.stmt_of(i), i);
            let t0 = Instant::now();
            let out = catch_unwind(AssertUnwindSafe(|| {
                let resp = svc.handle(&req);
                (resp.code, resp.to_json())
            }));
            let t1 = Instant::now();
            let (fp, code) = match out {
                Ok((code, json)) => (body_fingerprint(&json), code_index(code)),
                Err(_) => (0, PANICKED),
            };
            samples.push(Sample {
                lat_ns: (t1 - t0).as_nanos() as u64,
                end_ns: (t1 - epoch).as_nanos() as u64,
                fp,
                code,
            });
            i += clients as u64;
        }
        samples
    });
    Window { samples, wall_ns }
}

/// The oracle service: no plan cache, row-path serial execution.
fn oracle_service(dbs: &[Arc<Database>]) -> QueryService {
    service(
        dbs,
        ServeConfig {
            plan_cache: false,
            exec: ExecOptions {
                columnar: false,
                parallel: false,
                ..ExecOptions::default()
            },
            ..ServeConfig::default()
        },
    )
}

/// Oracle response body fingerprints of `wanted` statements, indexed by
/// statement id (`None` where not wanted).
pub fn oracle(dbs: &[Arc<Database>], inputs: &Inputs, wanted: &[bool]) -> Vec<Option<u64>> {
    let svc = oracle_service(dbs);
    let ids: Vec<u32> = (0..inputs.stmts.len() as u32)
        .filter(|&id| wanted[id as usize])
        .collect();
    let fps: Vec<u64> = ids
        .par_iter()
        .map(|&id| body_fingerprint(&svc.handle(&inputs.request(id, 0)).to_json()))
        .collect();
    let mut out = vec![None; inputs.stmts.len()];
    for (id, fp) in ids.into_iter().zip(fps) {
        out[id as usize] = Some(fp);
    }
    out
}

/// The oracle's response to one statement, as JSON.
pub fn oracle_json(dbs: &[Arc<Database>], inputs: &Inputs, stmt: u32) -> String {
    oracle_service(dbs)
        .handle(&inputs.request(stmt, 0))
        .to_json()
}

/// Count failed requests: shed or timed out, panicked, or answered with
/// bytes other than the oracle's. A workload error whose bytes match
/// the oracle (a statement the engine rejects) is a correct answer.
pub fn verify(w: &Window, inputs: &Inputs, oracle: &[Option<u64>]) -> u64 {
    let transient = [
        PANICKED,
        code_index(ErrorCode::Timeout),
        code_index(ErrorCode::Overloaded),
    ];
    w.requests()
        .filter(|(i, s)| {
            transient.contains(&s.code) || oracle[inputs.stmt_of(*i) as usize] != Some(s.fp)
        })
        .count() as u64
}

/// Run one serve workload.
pub fn run(kind: Kind, spec: &RunSpec) -> Outcome {
    let mut out = Outcome::default();
    let n = kind.requests(spec);
    let inputs = match kind {
        Kind::PlanHot => plan_hot_inputs(spec.seed, n),
        Kind::ExecFull => exec_full_inputs(spec.seed, n, spec.scale),
    };
    let ((svc, dbs), setup_s, build_s) = repeat_setup(spec.setup_reps(), || {
        let t0 = Instant::now();
        let dbs = build_snapshots(kind, spec.scale);
        let build = t0.elapsed();
        let svc = service(&dbs, ServeConfig::default());
        for &id in &inputs.warm {
            svc.handle(&inputs.request(id, 0));
        }
        ((svc, dbs), build)
    });

    let clients = clients();
    let window = measure(&svc, &inputs, clients);
    // Before the oracle and the replay, so it is the measured run's peak.
    let peak_rss = peak_rss_mb();
    drop(svc);
    set_sliced(&mut out, &window.slices());
    out.set("setup_s", setup_s);

    let mut wanted = vec![false; inputs.stmts.len()];
    for (i, _) in window.requests() {
        wanted[inputs.stmt_of(i) as usize] = true;
    }
    let replay = spec.trace.then(|| {
        out.set("data.build_s", build_s);
        traced_replay(&dbs, &inputs, clients)
    });

    let oracle = oracle(&dbs, &inputs, &wanted);
    out.attempted = window.len() as u64;
    out.failed = verify(&window, &inputs, &oracle);
    if let Some(r) = replay {
        out.attempted += r.fps.len() as u64;
        let mut diverged = 0;
        for &(i, fp) in &r.fps {
            if oracle[inputs.stmt_of(i) as usize] != Some(fp) {
                out.failed += 1;
            }
            let (c, k) = ((i % clients as u64) as usize, (i / clients as u64) as usize);
            if window.samples[c][k].fp != fp {
                diverged += 1;
            }
        }
        if diverged > 0 {
            out.problems.push(format!(
                "{diverged} traced responses differ from handle()'s"
            ));
        }
        let untraced_ops_per_s = window.len() as f64 / (window.wall_ns as f64 / 1e9);
        r.report(&mut out, untraced_ops_per_s);
    }
    out.set("peak_rss_mb", peak_rss);
    out
}

/// Engine totals from the requests' `QueryProfile`s.
#[derive(Debug, Default, Clone, Copy)]
struct EngineTotals {
    scan_ns: u64,
    filter_ns: u64,
    join_ns: u64,
    aggregate_ns: u64,
    order_ns: u64,
    rows_scanned: u64,
    rows_out: u64,
    blocks: u64,
    columnar_blocks: u64,
}

impl EngineTotals {
    fn add(&mut self, p: &ProfileSnapshot) {
        let ns = |o: &Option<sb_obs::OpSnapshot>| o.map_or(0, |o| o.elapsed_ns);
        for b in &p.blocks {
            self.blocks += 1;
            self.columnar_blocks += b.columnar as u64;
            for s in b.scans.iter().flatten() {
                self.scan_ns += s.elapsed_ns;
                self.rows_scanned += s.rows_in;
            }
            self.join_ns += b.joins.iter().map(ns).sum::<u64>();
            self.filter_ns += ns(&b.filter);
            // DISTINCT is grouping without aggregates: count it there.
            self.aggregate_ns += ns(&b.aggregate) + ns(&b.distinct);
            self.order_ns += ns(&b.order);
        }
    }

    fn merge(&mut self, o: &EngineTotals) {
        self.scan_ns += o.scan_ns;
        self.filter_ns += o.filter_ns;
        self.join_ns += o.join_ns;
        self.aggregate_ns += o.aggregate_ns;
        self.order_ns += o.order_ns;
        self.rows_scanned += o.rows_scanned;
        self.rows_out += o.rows_out;
        self.blocks += o.blocks;
        self.columnar_blocks += o.columnar_blocks;
    }
}

/// The layers `handle()` calls, held apart so the replay can call each
/// one inside its own span.
struct Layers<'a> {
    dbs: &'a [Arc<Database>],
    cfg: ServeConfig,
    cache: PlanCache,
    gate: AdmissionGate,
}

/// What one client's replay recorded besides spans.
#[derive(Default)]
struct ClientTally {
    /// `(request, response body fingerprint)`.
    fps: Vec<(u64, u64)>,
    /// `(request, statement)` of every plan-cache miss.
    misses: Vec<(u64, u32)>,
    rejects: u64,
    bytes: u64,
    engine: EngineTotals,
}

/// Replay request `id` (statement `stmt`) through the layers in
/// `handle()`'s order — admission, guardrail, plan cache, engine,
/// envelope — each call in a span, building the same response
/// `handle()` builds. Returns the response JSON and the engine's
/// profile, when the request reached the engine.
fn traced_request(
    l: &Layers,
    inputs: &Inputs,
    stmt: u32,
    id: u64,
    buf: &mut SpanBuf,
    tally: &mut ClientTally,
) -> (String, Option<QueryProfile>) {
    let req = inputs.request(stmt, id);
    let domain = inputs.stmts[stmt as usize].domain;
    let mut profile = None;
    let resp = 'resp: {
        let permit = buf.span("serve.admission", id, |_| l.gate.try_acquire());
        let Some(_permit) = permit else {
            tally.rejects += 1;
            break 'resp QueryResponse::error(
                id,
                ErrorCode::Overloaded,
                format!("too many requests in flight (max {})", l.gate.capacity()),
            );
        };
        let timeout_ms = req.timeout_ms.unwrap_or(l.cfg.default_timeout_ms);
        let deadline = Instant::now() + Duration::from_millis(timeout_ms);
        let db = &l.dbs[domain];
        if let Err((code, detail)) =
            buf.span("serve.guardrail", id, |_| validate_read_only_sql(&req.sql))
        {
            break 'resp QueryResponse::error(id, code, detail);
        }
        let span = buf.enter("serve.cache.prepare_hit", id);
        let (prepared, hit) = l.cache.prepare(&req.db, db, &req.sql, l.cfg.exec);
        buf.exit(span);
        if !hit {
            buf.rename(span, "serve.cache.prepare_miss");
            tally.misses.push((id, stmt));
        }
        let prepared = match prepared {
            Ok(p) => p,
            Err(e) => break 'resp QueryResponse::error(id, ErrorCode::ParseError, e),
        };
        let exec = l.cfg.exec.capped_workers(l.gate.in_flight());
        let (result, prof) = buf.span("engine.execute", id, |_| {
            let prof = QueryProfile::new();
            let result = sb_engine::execute_with_plan_profile(
                db,
                &prepared.query,
                exec,
                prepared.plan.as_ref(),
                Some(&prof),
            );
            (result, prof)
        });
        profile = Some(prof);
        if Instant::now() > deadline {
            break 'resp QueryResponse::error(
                id,
                ErrorCode::Timeout,
                format!("deadline exceeded during execution (timeout_ms={timeout_ms})"),
            );
        }
        match result {
            Ok(rs) => {
                let row_cap = req.row_cap.unwrap_or(l.cfg.default_row_cap);
                let total_rows = rs.rows.len();
                let mut rows = rs.rows;
                let truncated = total_rows > row_cap;
                rows.truncate(row_cap);
                tally.engine.rows_out += total_rows as u64;
                QueryResponse {
                    id,
                    code: ErrorCode::Ok,
                    error: None,
                    columns: rs.columns,
                    rows,
                    total_rows,
                    truncated,
                    cache_hit: hit,
                    profile: None,
                }
            }
            Err(e) => QueryResponse::error(id, ErrorCode::from_engine(&e), e.to_string()),
        }
    };
    let json = buf.span("serve.envelope.to_json", id, |_| resp.to_json());
    (json, profile)
}

/// Spans one replayed request records at most: its root, admission,
/// guardrail, plan cache, engine and envelope.
const SPANS_PER_REQUEST: usize = 6;
/// Cache-miss statements re-timed standalone in `sql.parse`/`opt.plan`.
const STANDALONE_MAX: usize = 20_000;

struct Replay {
    trace: Trace,
    /// `(request, response body fingerprint)` of every replayed request.
    fps: Vec<(u64, u64)>,
    wall_ns: u64,
    /// The client lanes; the standalone parse/plan lane is not traffic.
    lanes: Vec<u32>,
    rejects: u64,
    bytes: u64,
    cache_entries: usize,
    engine: EngineTotals,
}

/// The traced replay: fresh layers over the same snapshots, warmed the
/// same way, then the same requests from the same clients.
fn traced_replay(dbs: &[Arc<Database>], inputs: &Inputs, clients: usize) -> Replay {
    let cfg = ServeConfig::default();
    let layers = Layers {
        dbs,
        cfg,
        cache: PlanCache::new(),
        gate: AdmissionGate::new(cfg.max_in_flight),
    };
    let epoch = Instant::now();
    let mut warm_spans = SpanBuf::new(epoch, 0, SPANS_PER_REQUEST * inputs.warm.len());
    let mut warm_tally = ClientTally::default();
    for &id in &inputs.warm {
        traced_request(&layers, inputs, id, 0, &mut warm_spans, &mut warm_tally);
    }

    // Every client replays its whole share of the schedule into a buffer
    // sized for it up front.
    let n = inputs.schedule.len() as u64;
    let per_client = inputs.schedule.len().div_ceil(clients);
    let (runs, wall_ns) = closed_loop(clients, |c| {
        let mut buf = SpanBuf::new(epoch, c as u32, SPANS_PER_REQUEST * per_client);
        let mut tally = ClientTally::default();
        let mut i = c as u64;
        while i < n {
            let root = buf.enter("bench.request", i);
            let (json, profile) =
                traced_request(&layers, inputs, inputs.stmt_of(i), i, &mut buf, &mut tally);
            buf.exit(root);
            if let Some(p) = profile {
                tally.engine.add(&p.snapshot());
            }
            tally.bytes += json.len() as u64;
            tally.fps.push((i, body_fingerprint(&json)));
            i += clients as u64;
        }
        (buf, tally)
    });

    let mut trace = Trace::default();
    let mut r = Replay {
        trace: Trace::default(),
        fps: Vec::new(),
        wall_ns,
        lanes: (0..clients as u32).collect(),
        rejects: 0,
        bytes: 0,
        cache_entries: layers.cache.len(),
        engine: EngineTotals::default(),
    };
    let mut misses = Vec::new();
    for (buf, tally) in runs {
        trace.absorb(buf);
        r.fps.extend(tally.fps);
        r.rejects += tally.rejects;
        r.bytes += tally.bytes;
        r.engine.merge(&tally.engine);
        misses.extend(tally.misses);
    }

    // Parse and plan, each timed on its own, for the statements that
    // missed the cache (inside the cache they are one call).
    misses.sort_unstable();
    let mut alone = SpanBuf::new(epoch, clients as u32, 2 * STANDALONE_MAX);
    for &(i, stmt) in misses.iter().take(STANDALONE_MAX) {
        let s = &inputs.stmts[stmt as usize];
        if let Ok(q) = alone.span("sql.parse", i, |_| sb_sql::parse(&s.sql)) {
            alone.span("opt.plan", i, |_| {
                sb_engine::plan_top_select(&dbs[s.domain], &q, cfg.exec)
            });
        }
    }
    trace.absorb(alone);
    r.trace = trace;
    r
}

impl Replay {
    fn report(self, out: &mut Outcome, untraced_ops_per_s: f64) {
        let t = &self.trace;
        let p50_us = |name: &str| percentile(&t.durations(name), 0.50) as f64 / 1e3;
        let (hits, misses) = (
            t.durations("serve.cache.prepare_hit").len() as f64,
            t.durations("serve.cache.prepare_miss").len() as f64,
        );
        let exec = t.durations("engine.execute");
        let e = &self.engine;
        let requests = self.fps.len() as f64;
        out.set("serve.guardrail_us_p50", p50_us("serve.guardrail"));
        out.set(
            "serve.cache.prepare_hit_us_p50",
            p50_us("serve.cache.prepare_hit"),
        );
        out.set(
            "serve.cache.prepare_miss_us_p50",
            p50_us("serve.cache.prepare_miss"),
        );
        out.set("serve.cache.hit_ratio", hits / (hits + misses));
        out.set("serve.cache.entries", self.cache_entries as f64);
        out.set("serve.admission_rejects", self.rejects as f64);
        out.set(
            "serve.envelope.to_json_us_p50",
            p50_us("serve.envelope.to_json"),
        );
        out.set(
            "serve.envelope.bytes_per_response",
            self.bytes as f64 / requests,
        );
        out.set("sql.parse_us_p50", p50_us("sql.parse"));
        out.set("opt.plan_us_p50", p50_us("opt.plan"));
        out.set(
            "engine.execute_us_p50",
            percentile(&exec, 0.50) as f64 / 1e3,
        );
        out.set(
            "engine.execute_us_p99",
            percentile(&exec, 0.99) as f64 / 1e3,
        );
        out.set(
            "engine.execute_share",
            exec.iter().sum::<u64>() as f64 / t.total_ns("bench.request") as f64,
        );
        out.set("engine.op.scan_ms", e.scan_ns as f64 / 1e6);
        out.set("engine.op.filter_ms", e.filter_ns as f64 / 1e6);
        out.set("engine.op.join_ms", e.join_ns as f64 / 1e6);
        out.set("engine.op.aggregate_ms", e.aggregate_ns as f64 / 1e6);
        out.set("engine.op.order_ms", e.order_ns as f64 / 1e6);
        out.set(
            "engine.rows_scanned_per_row_out",
            e.rows_scanned as f64 / e.rows_out as f64,
        );
        out.set(
            "engine.columnar_share",
            e.columnar_blocks as f64 / e.blocks as f64,
        );
        let traced_ops_per_s = requests / (self.wall_ns as f64 / 1e9);
        out.set(
            "trace.overhead_pct",
            100.0 * (1.0 - traced_ops_per_s / untraced_ops_per_s),
        );
        out.set("trace.coverage_pct", 100.0 * t.coverage(&self.lanes));
        out.trace = Some(self.trace);
    }
}
