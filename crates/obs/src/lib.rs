//! # sb-obs — zero-overhead structured observability
//!
//! A dependency-free (shim-style, like `shims/`) tracing layer for the
//! whole workspace: RAII [`span`]s with monotonic timers, named
//! [`count`]ers, thread-local collectors
//! that merge deterministically across the rayon shim's worker threads,
//! and a [`Report`] that renders both a human summary and a
//! machine-readable JSON run report.
//!
//! ## The determinism contract
//!
//! - **Counters are deterministic**: for a fixed workload they hold the
//!   same values at any thread count and under any scheduling, because
//!   merging is commutative addition and rendering sorts by name.
//! - **Durations are wall-clock** and therefore *not* deterministic.
//!   [`Report::to_json`] takes `include_timings`; every artifact that is
//!   golden-compared must be rendered with `include_timings = false`,
//!   which reduces spans to their (deterministic) call counts.
//! - **Instrumentation never changes behavior**: an instrumented
//!   function returns byte-identical results whether `SB_OBS` is `off`,
//!   `summary` or `json`. The golden-snapshot and engine-equivalence
//!   tests assert this.
//!
//! ## The `SB_OBS` environment variable
//!
//! | value | effect |
//! |---|---|
//! | unset / `off` / `0` | everything disabled; instrumentation is a single relaxed atomic load |
//! | `summary` / `1` | collect; [`progress`] lines and the final [`emit_stderr`] summary go to stderr |
//! | `json` | collect; progress events and the final report are emitted as JSON lines on stderr |
//!
//! The variable is read once, on first use; tests and tools can force a
//! mode with [`set_mode`].
//!
//! ## Zero overhead when off
//!
//! With `SB_OBS=off` every entry point short-circuits on one
//! `AtomicU8` relaxed load before touching thread-local storage, and
//! [`span`] does not even read the clock. The engine's counters are not
//! counted in its hot loops at all: operators write their
//! [`QueryProfile`] slots, and [`fold_engine_counters`] adds a
//! statement's blocks to the `engine.*` counters once, when the
//! statement ends, so the enabled cost stays proportional to the number
//! of statements, not the number of rows.

pub mod json;
pub mod profile;

pub use profile::{
    fold_engine_counters, Block, BlockSnapshot, FixedOp, OpSnapshot, OpStats, ProfileSnapshot,
    QueryProfile, ENGINE_COUNTERS,
};

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Observability mode, from `SB_OBS` (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Collect nothing, emit nothing (the default).
    Off,
    /// Collect; emit human-readable summaries to stderr.
    Summary,
    /// Collect; emit JSON lines to stderr.
    Json,
}

const MODE_UNINIT: u8 = 0;
const MODE_OFF: u8 = 1;
const MODE_SUMMARY: u8 = 2;
const MODE_JSON: u8 = 3;

static MODE: AtomicU8 = AtomicU8::new(MODE_UNINIT);

fn mode_from_env() -> u8 {
    match std::env::var("SB_OBS").as_deref() {
        Ok("summary") | Ok("1") => MODE_SUMMARY,
        Ok("json") => MODE_JSON,
        _ => MODE_OFF,
    }
}

/// Make every rayon-shim worker thread flush its thread-local collector
/// before the scope that spawned it unblocks. `std::thread::scope` may
/// return before worker TLS destructors run, so the Drop-based flush
/// alone can lose a worker's deltas to a snapshot taken right after the
/// parallel call; the exit hook runs on the worker, inside the scope,
/// which closes that window. Installed the first time a mode is
/// resolved or forced — i.e. before any collection can happen.
fn install_worker_flush() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| rayon::set_worker_exit_hook(flush));
}

/// The active mode, resolving `SB_OBS` on first use.
pub fn mode() -> Mode {
    match MODE.load(Ordering::Relaxed) {
        MODE_UNINIT => {
            install_worker_flush();
            let m = mode_from_env();
            // Racing initializers compute the same value; last store wins
            // harmlessly.
            MODE.store(m, Ordering::Relaxed);
            match m {
                MODE_SUMMARY => Mode::Summary,
                MODE_JSON => Mode::Json,
                _ => Mode::Off,
            }
        }
        MODE_SUMMARY => Mode::Summary,
        MODE_JSON => Mode::Json,
        _ => Mode::Off,
    }
}

/// Force a mode, overriding `SB_OBS`. Tests use this to compare
/// obs-on/obs-off outputs within one process.
pub fn set_mode(m: Mode) {
    install_worker_flush();
    let v = match m {
        Mode::Off => MODE_OFF,
        Mode::Summary => MODE_SUMMARY,
        Mode::Json => MODE_JSON,
    };
    MODE.store(v, Ordering::Relaxed);
}

/// Whether collection is active. This is the no-op fast path: one
/// relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    // Fast path for the common steady state; falls back to the
    // env-resolving `mode()` only on the very first call.
    match MODE.load(Ordering::Relaxed) {
        MODE_OFF => false,
        MODE_UNINIT => mode() != Mode::Off,
        _ => true,
    }
}

/// Aggregate statistics for one named span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Times the span was entered (deterministic).
    pub count: u64,
    /// Total wall-clock nanoseconds inside the span (not deterministic).
    pub total_ns: u64,
}

/// One collector's worth of metrics. Used both per-thread and as the
/// global merge target.
#[derive(Default)]
struct Registry {
    counters: HashMap<&'static str, u64>,
    spans: HashMap<&'static str, SpanStat>,
}

impl Registry {
    fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.spans.is_empty()
    }

    fn merge_into(&mut self, global: &mut Registry) {
        for (name, v) in self.counters.drain() {
            *global.counters.entry(name).or_default() += v;
        }
        for (name, s) in self.spans.drain() {
            let g = global.spans.entry(name).or_default();
            g.count += s.count;
            g.total_ns += s.total_ns;
        }
    }
}

static GLOBAL: Mutex<Option<Registry>> = Mutex::new(None);

fn with_global(f: impl FnOnce(&mut Registry)) {
    let mut guard = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    f(guard.get_or_insert_with(Registry::default));
}

/// Per-thread collector; merges itself into the global registry when the
/// thread exits. The TLS destructor alone is a backstop, not a
/// synchronization point: `std::thread::scope` may unblock before it
/// runs. Rayon-shim workers therefore [`flush`] through the shim's
/// worker-exit hook (see `install_worker_flush`) before their scope
/// returns; threads spawned by any other means must call [`flush`]
/// before the dispatching thread snapshots, or accept that their deltas
/// land at thread teardown.
struct LocalCollector(Registry);

impl Drop for LocalCollector {
    fn drop(&mut self) {
        if !self.0.is_empty() {
            with_global(|g| self.0.merge_into(g));
        }
    }
}

thread_local! {
    static LOCAL: RefCell<LocalCollector> = RefCell::new(LocalCollector(Registry::default()));
}

fn with_local(f: impl FnOnce(&mut Registry)) {
    // During thread teardown the TLS slot may already be gone; fall back
    // to merging straight into the global registry.
    let mut f = Some(f);
    let _ = LOCAL.try_with(|l| {
        (f.take().expect("applied once"))(&mut l.borrow_mut().0);
    });
    if let Some(f) = f {
        with_global(f);
    }
}

/// Add `n` to the named counter. No-op when disabled.
#[inline]
pub fn count(name: &'static str, n: u64) {
    if !enabled() || n == 0 {
        return;
    }
    with_local(|r| *r.counters.entry(name).or_default() += n);
}

/// An RAII span: construction (via [`span`]) reads the monotonic clock,
/// drop records the elapsed time under the span's name. A disabled span
/// holds nothing and does nothing.
pub struct Span {
    active: Option<(&'static str, Instant)>,
}

impl Span {
    /// Span call counts are deterministic; expose the name for tests.
    pub fn name(&self) -> Option<&'static str> {
        self.active.map(|(n, _)| n)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((name, start)) = self.active.take() {
            let elapsed = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            with_local(|r| {
                let s = r.spans.entry(name).or_default();
                s.count += 1;
                s.total_ns += elapsed;
            });
        }
    }
}

/// Enter a named span; the returned guard records the duration on drop.
#[inline]
pub fn span(name: &'static str) -> Span {
    Span {
        active: enabled().then(|| (name, Instant::now())),
    }
}

/// Emit a structured progress event. Silent when off; a readable
/// `[sb-obs] scope: message` stderr line under `summary`; a JSON line
/// under `json`. Replaces ad-hoc `eprintln!` chatter in long-running
/// drivers.
pub fn progress(scope: &str, message: &str) {
    match mode() {
        Mode::Off => {}
        Mode::Summary => eprintln!("[sb-obs] {scope}: {message}"),
        Mode::Json => eprintln!(
            "{{\"event\":\"progress\",\"scope\":\"{}\",\"message\":\"{}\"}}",
            json::escape(scope),
            json::escape(message)
        ),
    }
}

/// Merge the calling thread's collector into the global registry.
/// Worker threads flush automatically on exit; the main thread must
/// flush (or call [`snapshot`], which flushes) before rendering.
pub fn flush() {
    let _ = LOCAL.try_with(|l| {
        let local = &mut l.borrow_mut().0;
        if !local.is_empty() {
            with_global(|g| local.merge_into(g));
        }
    });
}

/// Clear all collected metrics (calling thread's collector and the
/// global registry). Call between runs when profiling several workloads
/// from one process; concurrent workers must be quiescent.
pub fn reset() {
    let _ = LOCAL.try_with(|l| l.borrow_mut().0 = Registry::default());
    let mut guard = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    *guard = None;
}

/// An immutable, name-sorted view of everything collected so far.
/// Flushes the calling thread first.
pub fn snapshot() -> Report {
    flush();
    let guard = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut report = Report::default();
    if let Some(reg) = guard.as_ref() {
        report.counters = reg
            .counters
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect();
        report.spans = reg.spans.iter().map(|(k, v)| (k.to_string(), *v)).collect();
    }
    report.counters.sort_by(|a, b| a.0.cmp(&b.0));
    report.spans.sort_by(|a, b| a.0.cmp(&b.0));
    report
}

/// A rendered-out collection snapshot: sorted, self-contained, cheap to
/// clone. Produced by [`snapshot`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// `(name, total)` pairs, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, stat)` pairs, sorted by name.
    pub spans: Vec<(String, SpanStat)>,
}

impl Report {
    /// Whether nothing at all was collected.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.spans.is_empty()
    }

    /// The value of a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// The stats of a span, when recorded.
    pub fn span(&self, name: &str) -> Option<SpanStat> {
        self.spans.iter().find(|(n, _)| n == name).map(|(_, s)| *s)
    }

    /// Render as JSON. With `include_timings = false` the output is
    /// fully deterministic for a fixed workload: spans reduce to their
    /// call counts and no wall-clock field is emitted — this is the
    /// form embedded in golden-compared artifacts.
    pub fn to_json(&self, include_timings: bool) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    \"{}\": {v}", json::escape(name));
        }
        out.push_str(if self.counters.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        out.push_str("  \"spans\": {");
        for (i, (name, s)) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    \"{}\": {{\"count\": {}",
                json::escape(name),
                s.count
            );
            if include_timings {
                let _ = write!(out, ", \"total_ms\": {:.3}", s.total_ns as f64 / 1e6);
            }
            out.push('}');
        }
        out.push_str(if self.spans.is_empty() {
            "}\n"
        } else {
            "\n  }\n"
        });
        out.push('}');
        out
    }

    /// Render the human-readable summary (the `SB_OBS=summary` form).
    pub fn summary(&self) -> String {
        let mut out = String::new();
        if self.is_empty() {
            out.push_str("[sb-obs] nothing collected\n");
            return out;
        }
        let width = self
            .counters
            .iter()
            .map(|(n, _)| n.len())
            .chain(self.spans.iter().map(|(n, _)| n.len()))
            .max()
            .unwrap_or(0);
        if !self.counters.is_empty() {
            out.push_str("[sb-obs] counters:\n");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "  {name:width$}  {v}");
            }
        }
        if !self.spans.is_empty() {
            out.push_str("[sb-obs] spans:\n");
            for (name, s) in &self.spans {
                let _ = writeln!(
                    out,
                    "  {name:width$}  {} call(s), {:.3} ms total",
                    s.count,
                    s.total_ns as f64 / 1e6
                );
            }
        }
        out
    }
}

/// Render everything collected so far to stderr, honoring the mode:
/// nothing when off, [`Report::summary`] under `summary`, full JSON
/// (including timings) under `json`. Binaries call this once before
/// exiting.
pub fn emit_stderr() {
    match mode() {
        Mode::Off => {}
        Mode::Summary => eprint!("{}", snapshot().summary()),
        Mode::Json => eprintln!("{}", snapshot().to_json(true)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry and mode are process-global, so these tests must not
    // run concurrently with each other.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn off_mode_collects_nothing() {
        let _g = locked();
        set_mode(Mode::Off);
        reset();
        count("x.counter", 5);
        {
            let s = span("x.span");
            assert!(s.name().is_none());
        }
        assert!(snapshot().is_empty());
    }

    #[test]
    fn counters_and_spans_collect_when_enabled() {
        let _g = locked();
        set_mode(Mode::Summary);
        reset();
        count("t.alpha", 2);
        count("t.alpha", 3);
        count("t.beta", 1);
        {
            let _s = span("t.span");
        }
        let r = snapshot();
        assert_eq!(r.counter("t.alpha"), 5);
        assert_eq!(r.counter("t.beta"), 1);
        assert_eq!(r.counter("t.missing"), 0);
        let s = r.span("t.span").unwrap();
        assert_eq!(s.count, 1);
        set_mode(Mode::Off);
        reset();
    }

    #[test]
    fn worker_threads_merge_deterministically() {
        let _g = locked();
        set_mode(Mode::Summary);
        reset();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        count("merge.n", 1);
                    }
                    drop(span("merge.span"));
                    // Raw scoped threads must flush explicitly: the
                    // scope can unblock before TLS destructors run, so
                    // the Drop-based merge is not ordered before the
                    // snapshot below. (Rayon-shim workers flush through
                    // the worker-exit hook automatically.)
                    flush();
                });
            }
        });
        let r = snapshot();
        assert_eq!(r.counter("merge.n"), 400);
        assert_eq!(r.span("merge.span").unwrap().count, 4);
        set_mode(Mode::Off);
        reset();
    }

    #[test]
    fn rayon_shim_workers_flush_before_the_dispatch_returns() {
        let _g = locked();
        set_mode(Mode::Summary);
        reset();
        // No explicit flush anywhere: the shim's worker-exit hook
        // (installed by set_mode above) must make every worker's deltas
        // visible by the time morsel_map returns.
        let (out, _stats) = rayon::morsel_map(8, 3, |m| {
            count("hook.n", 1);
            m
        });
        assert_eq!(out.len(), 8);
        assert_eq!(snapshot().counter("hook.n"), 8);
        set_mode(Mode::Off);
        reset();
    }

    #[test]
    fn json_report_is_valid_and_deterministic_form_has_no_timings() {
        let _g = locked();
        set_mode(Mode::Summary);
        reset();
        count("j.z", 1);
        count("j.a", 2);
        {
            let _s = span("j.span");
        }
        let r = snapshot();
        let deterministic = r.to_json(false);
        let timed = r.to_json(true);
        json::validate(&deterministic).expect("deterministic JSON parses");
        json::validate(&timed).expect("timed JSON parses");
        assert!(!deterministic.contains("total_ms"));
        assert!(timed.contains("total_ms"));
        // Sorted keys: "j.a" renders before "j.z".
        assert!(deterministic.find("j.a").unwrap() < deterministic.find("j.z").unwrap());
        assert!(!r.summary().is_empty());
        set_mode(Mode::Off);
        reset();
    }

    #[test]
    fn empty_report_renders_valid_json() {
        let r = Report::default();
        json::validate(&r.to_json(false)).expect("empty report JSON parses");
        json::validate(&r.to_json(true)).expect("empty report JSON parses");
        assert!(r.summary().contains("nothing collected"));
    }
}
