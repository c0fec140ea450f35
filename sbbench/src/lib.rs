//! # sbbench — the repository's end-to-end and per-layer benchmark
//!
//! Four workloads, each run in a fresh process by `main.rs`:
//!
//! - `serve_plan_hot` and `serve_exec_full` drive one `sb-serve`
//!   [`sb_serve::QueryService`] from closed-loop clients
//!   ([`serve`]);
//! - `pipeline_synth` runs the Figure 1 generation pipeline at the
//!   paper's Table 2 quotas ([`pipeline`]);
//! - `eval_grid` trains and scores the Table 5 domain grid
//!   ([`eval`]).
//!
//! A run generates its inputs from the seed, sets the program up
//! several times (the median is `setup_s`), measures a fixed amount of
//! work untraced, and checks every output against an oracle. With
//! tracing on it then replays the same inputs through the layers'
//! public functions inside spans ([`trace`]) and reports the per-layer
//! metrics.
//!
//! See `README.md` for why each workload exists and what each metric
//! should move.

pub mod eval;
pub mod pipeline;
pub mod serve;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Workload seed used when `--seed` is not given; it also seeds the
/// inputs that are fixed across seeds (see `serve` and `pipeline`).
pub const DEFAULT_SEED: u64 = 12_648_430;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServePlanHot,
    ServeExecFull,
    PipelineSynth,
    EvalGrid,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ServePlanHot,
        Workload::ServeExecFull,
        Workload::PipelineSynth,
        Workload::EvalGrid,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            Workload::ServePlanHot => "serve_plan_hot",
            Workload::ServeExecFull => "serve_exec_full",
            Workload::PipelineSynth => "pipeline_synth",
            Workload::EvalGrid => "eval_grid",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes: the benchmark proper, or the seconds-scale smoke size
/// the tests run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Bench,
    Smoke,
}

/// One run of one workload.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    pub workload: Workload,
    pub seed: u64,
    /// What a run's measured work is sized to take on a two-core
    /// machine. The work itself is fixed (requests, pipeline rounds),
    /// so two commits measure the same work.
    pub window: Duration,
    /// Also replay the inputs with spans and report per-layer metrics.
    pub trace: bool,
    pub scale: Scale,
}

impl RunSpec {
    /// How many times set-up runs; `setup_s` is the median. Cheap
    /// set-ups repeat more, so the median is not one slow moment's.
    pub fn setup_reps(&self) -> usize {
        match (self.scale, self.workload) {
            (Scale::Smoke, _) => 2,
            (Scale::Bench, Workload::ServePlanHot) => 15,
            (Scale::Bench, Workload::PipelineSynth) => 9,
            (Scale::Bench, Workload::ServeExecFull | Workload::EvalGrid) => 3,
        }
    }
}

/// A declared metric: name, unit and which direction is better.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// Metrics a user of the system sees that hold their bound on a shared
/// two-core machine, reported by every workload with tracing off.
pub const END_TO_END: &[Metric] = &[m("setup_s", "s", "lower"), m("peak_rss_mb", "MB", "lower")];

/// Metrics reported with tracing on. A workload whose trace does not
/// reach a layer reports 0 for that layer's metrics.
///
/// The first three are the workload's throughput and latency, measured
/// untraced in every run. They are end-to-end numbers, but on the
/// machine the benchmark was built on their run-to-run spread reached
/// 28-44% in busy hours, so they carry no regression bound. An "op" is
/// one request (serve), one synthetic pair (pipeline) or one scored dev
/// pair (grid); a latency sample is one request, one `Pipeline::run` or
/// one grid cell.
pub const PER_LAYER: &[Metric] = &[
    m("ops_per_s", "1/s", "higher"),
    m("latency_p50_us", "us", "lower"),
    m("latency_p99_us", "us", "lower"),
    m("data.build_s", "s", "lower"),
    m("serve.guardrail_us_p50", "us", "lower"),
    m("serve.cache.prepare_hit_us_p50", "us", "lower"),
    m("serve.cache.prepare_miss_us_p50", "us", "lower"),
    m("serve.cache.hit_ratio", "ratio", "higher"),
    m("serve.cache.entries", "count", "lower"),
    m("serve.admission_rejects", "count", "lower"),
    m("serve.envelope.to_json_us_p50", "us", "lower"),
    m("serve.envelope.bytes_per_response", "bytes", "lower"),
    m("sql.parse_us_p50", "us", "lower"),
    m("opt.plan_us_p50", "us", "lower"),
    m("engine.execute_us_p50", "us", "lower"),
    m("engine.execute_us_p99", "us", "lower"),
    m("engine.execute_share", "ratio", "lower"),
    m("engine.op.scan_ms", "ms", "lower"),
    m("engine.op.filter_ms", "ms", "lower"),
    m("engine.op.join_ms", "ms", "lower"),
    m("engine.op.aggregate_ms", "ms", "lower"),
    m("engine.op.order_ms", "ms", "lower"),
    m("engine.rows_scanned_per_row_out", "ratio", "lower"),
    m("engine.columnar_share", "ratio", "higher"),
    m("semql.extract_ms", "ms", "lower"),
    m("gen.generate_s", "s", "lower"),
    m("gen.accept_ratio", "ratio", "higher"),
    m("nl.candidates_s", "s", "lower"),
    m("embed.select_s", "s", "lower"),
    m("nl2sql.train_s", "s", "lower"),
    m("nl2sql.predict_ms_p50", "ms", "lower"),
    m("nl2sql.predict_ms_p99", "ms", "lower"),
    m("nl2sql.predict_s.valuenet", "s", "lower"),
    m("nl2sql.predict_s.t5", "s", "lower"),
    m("nl2sql.predict_s.smbop", "s", "lower"),
    m("nl2sql.engine_rows_per_predict", "rows", "lower"),
    m("metrics.match_ms_p50", "ms", "lower"),
    m("metrics.gold_cache.hit_ratio", "ratio", "higher"),
    m("core.evaluate_parallel_efficiency", "ratio", "higher"),
    m("core.bundle_s", "s", "lower"),
    m("trace.overhead_pct", "%", "lower"),
    m("trace.coverage_pct", "%", "higher"),
];

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations that failed: a wrong output, a shed or timed-out
    /// request, or a panic.
    pub failed: u64,
    /// Failed whole-run checks (digests, replay identity), if any.
    pub problems: Vec<String>,
    /// Measured metrics by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// The traced replay's spans, with tracing on.
    pub trace: Option<trace::Trace>,
    /// Output digest, checked against `expected/`.
    pub digest: Option<Digest>,
}

/// A run's output digest against the one committed under `expected/`.
#[derive(Debug, Clone)]
pub struct Digest {
    pub committed: &'static str,
    pub produced: String,
}

impl Digest {
    pub fn matches(&self) -> bool {
        self.produced == self.committed
    }
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.problems.is_empty()
            && self.digest.as_ref().is_none_or(Digest::matches)
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// The declared metrics of a traced (`true`) or untraced run, with
    /// their values. An end-to-end metric the workload did not measure
    /// is a bug; a per-layer one is 0.
    pub fn declared(&self, traced: bool) -> Vec<(Metric, f64)> {
        let list = if traced { PER_LAYER } else { END_TO_END };
        list.iter()
            .map(|m| {
                let v = self.metrics.get(m.name).copied();
                assert!(
                    traced || v.is_some(),
                    "end-to-end metric {} not measured",
                    m.name
                );
                (*m, v.unwrap_or(0.0))
            })
            .collect()
    }

    /// The result object: the last line a run prints.
    pub fn result_json(&self, traced: bool) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (m, v)) in self.declared(traced).iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(*v),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// Every declared metric this run measured, end-to-end first: an
    /// untraced run also measures throughput and latency.
    pub fn measured(&self) -> Vec<(Metric, f64)> {
        END_TO_END
            .iter()
            .chain(PER_LAYER)
            .filter_map(|m| self.metrics.get(m.name).map(|v| (*m, *v)))
            .collect()
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// Run one workload in this process.
pub fn run(spec: &RunSpec) -> Outcome {
    match spec.workload {
        Workload::ServePlanHot => serve::run(serve::Kind::PlanHot, spec),
        Workload::ServeExecFull => serve::run(serve::Kind::ExecFull, spec),
        Workload::PipelineSynth => pipeline::run(spec),
        Workload::EvalGrid => eval::run(spec),
    }
}

// Shared two-core machines have slow phases lasting seconds, in which
// every operation takes 30-45% longer. A whole-run mean, or a median
// over a run, moves with how much of the run such phases cover; the
// best quartile of homogeneous measurements (`stats::best_quartile`)
// moves only when they cover three quarters of it.

/// One time slice of a serve run.
pub struct Slice {
    pub ops: f64,
    pub secs: f64,
    /// Latencies of the requests completed in the slice.
    pub lat_ns: Vec<u64>,
}

/// Set `ops_per_s`, `latency_p50_us` and `latency_p99_us` from time
/// slices of one traffic mix: the best quartile of the slices'
/// throughputs and of their latency percentiles.
pub fn set_sliced(out: &mut Outcome, slices: &[Slice]) {
    let used: Vec<&Slice> = slices.iter().filter(|s| !s.lat_ns.is_empty()).collect();
    let pct = |s: &Slice, q: f64| {
        let mut v = s.lat_ns.clone();
        v.sort_unstable();
        stats::percentile(&v, q) as f64 / 1e3
    };
    let each = |f: &dyn Fn(&Slice) -> f64| used.iter().map(|s| f(s)).collect::<Vec<f64>>();
    let best = stats::best_quartile;
    out.set("ops_per_s", best(each(&|s| s.ops / s.secs), true));
    out.set("latency_p50_us", best(each(&|s| pct(s, 0.50)), false));
    out.set("latency_p99_us", best(each(&|s| pct(s, 0.99)), false));
}

/// Set `ops_per_s`, `latency_p50_us` and `latency_p99_us` from items
/// (a pipeline run, a grid cell). `items` holds each item's ops and the
/// wall time of every repeat of its identical work; an item's time is
/// the best quartile of its repeats. Throughput is all items' ops over
/// the sum of their times; the latency percentiles are over the items'
/// times.
pub fn set_repeated(out: &mut Outcome, items: &[(f64, Vec<u64>)]) {
    let mut times: Vec<u64> = items
        .iter()
        .map(|(_, ns)| stats::best_quartile(ns.iter().map(|&t| t as f64).collect(), false) as u64)
        .collect();
    let ops: f64 = items.iter().map(|(ops, _)| ops).sum();
    out.set("ops_per_s", ops / (times.iter().sum::<u64>() as f64 / 1e9));
    times.sort_unstable();
    out.set(
        "latency_p50_us",
        stats::percentile(&times, 0.50) as f64 / 1e3,
    );
    out.set(
        "latency_p99_us",
        stats::percentile(&times, 0.99) as f64 / 1e3,
    );
}

/// Run `setup` `reps` times, dropping each result before building the
/// next so memory holds one copy. Memory the benchmark freed before
/// (its inputs) is handed back to the system first. Returns the last
/// result with the median wall time of a whole set-up and the median of
/// the part `setup` reports itself (its first layer's build time).
pub fn repeat_setup<T>(reps: usize, mut setup: impl FnMut() -> (T, Duration)) -> (T, f64, f64) {
    stats::release_free_memory();
    let mut last = None;
    let mut total = Vec::new();
    let mut part = Vec::new();
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        let (value, inner) = setup();
        total.push(t0.elapsed().as_secs_f64());
        part.push(inner.as_secs_f64());
        last = Some(value);
    }
    (
        last.expect("at least one set-up ran"),
        stats::median(&total),
        stats::median(&part),
    )
}

/// Closed-loop client threads: two, or fewer on a smaller machine.
pub fn clients() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        for (i, n) in all.iter().enumerate() {
            assert!(!all[..i].contains(n), "duplicate metric {n}");
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }

    #[test]
    fn result_json_is_valid_and_keeps_digits() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for m in END_TO_END {
            o.set(m.name, 1.25);
        }
        o.set("peak_rss_mb", 1234.0);
        o.set("ops_per_s", 5.0);
        let j = o.result_json(false);
        sb_obs::json::validate(&j).expect("valid JSON");
        assert!(j.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(j.contains("\"peak_rss_mb\": {\"value\": 1234.0, \"unit\": \"MB\"}"));
        assert!(
            !j.contains("ops_per_s"),
            "untraced results hold end-to-end metrics only"
        );
        let traced = o.result_json(true);
        assert!(traced.contains("\"ops_per_s\": {\"value\": 5.0, \"unit\": \"1/s\"}"));
        assert!(traced.contains("\"trace.coverage_pct\": {\"value\": 0.0"));
        assert_eq!(o.measured().len(), END_TO_END.len() + 1);
    }
}
