//! Offline stand-in for `criterion`.
//!
//! Implements the harness surface the workspace's benches use:
//! `Criterion`, `benchmark_group` / `sample_size` / `bench_function` /
//! `finish`, `Bencher::{iter, iter_batched}`, `BatchSize`, and the
//! `criterion_group!` / `criterion_main!` macros.
//!
//! Behavior mirrors upstream where it matters operationally:
//!
//! - Under `cargo test` (no `--bench` argument) every benchmark routine
//!   runs exactly once as a smoke test, so `cargo test -q` stays fast.
//! - Under `cargo bench`, each benchmark is calibrated to a minimum
//!   sample duration, measured over several samples, and the median
//!   ns/iter is reported on stdout with the samples' quartiles.
//! - If `CRITERION_JSON` names a file, all results are also written
//!   there as a JSON array of `{group, name, ns_per_iter, ns_q1, ns_q3,
//!   iters_per_sample, samples, cores}` records — this is how
//!   `BENCH_*.json` baselines are made. `ns_q1`/`ns_q3` are the lower
//!   and upper sample quartiles around the median `ns_per_iter`, and
//!   `cores` is the host's available parallelism, so a reader can tell
//!   a change from run-to-run noise and knows the machine.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// How `iter_batched` amortizes setup; measurement here is identical for
/// all variants (setup is always excluded from timing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
}

/// One finished measurement.
#[derive(Debug, Clone)]
pub struct Record {
    pub group: String,
    pub name: String,
    /// Median ns/iter over the samples.
    pub ns_per_iter: f64,
    /// Lower sample quartile, ns/iter.
    pub ns_q1: f64,
    /// Upper sample quartile, ns/iter.
    pub ns_q3: f64,
    pub iters_per_sample: u64,
    pub samples: usize,
    /// Auxiliary named values attached via [`BenchmarkGroup::metric`]
    /// (cache hit rates, item counts, ...). Emitted as a `"metrics"`
    /// object in the JSON record only when non-empty, so records
    /// without metrics keep their original shape.
    pub metrics: Vec<(String, f64)>,
}

/// Runs one benchmark routine; handed to the user's closure.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Time `routine` back to back `iters` times.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }

    /// Time `routine` over fresh inputs from `setup`; setup time is
    /// excluded from the measurement.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let mut total = Duration::ZERO;
        for _ in 0..self.iters {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            total += start.elapsed();
        }
        self.elapsed = total;
    }
}

/// True when invoked by `cargo bench` (which passes `--bench`); false
/// under `cargo test`, where routines run once as smoke tests.
fn bench_mode() -> bool {
    std::env::args().any(|a| a == "--bench")
}

fn run_one(
    group: &str,
    name: &str,
    samples: usize,
    f: &mut dyn FnMut(&mut Bencher),
) -> Option<Record> {
    if !bench_mode() {
        // Smoke test: execute once, record nothing.
        let mut b = Bencher {
            iters: 1,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        return None;
    }

    // Warm up once before calibrating, as upstream criterion does: the
    // first run pays one-time lazy costs (allocator growth, caches,
    // columnar images) that would otherwise inflate the first
    // calibration sample and lock iterations at 1 per sample.
    let mut b = Bencher {
        iters: 1,
        elapsed: Duration::ZERO,
    };
    f(&mut b);

    // Calibrate: double iterations until one sample takes >= 5 ms.
    let target = Duration::from_millis(5);
    let mut iters = 1u64;
    loop {
        let mut b = Bencher {
            iters,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        if b.elapsed >= target || iters >= 1 << 24 {
            break;
        }
        iters *= 2;
    }

    let mut per_iter: Vec<f64> = (0..samples)
        .map(|_| {
            let mut b = Bencher {
                iters,
                elapsed: Duration::ZERO,
            };
            f(&mut b);
            b.elapsed.as_nanos() as f64 / iters as f64
        })
        .collect();
    per_iter.sort_by(|a, b| a.total_cmp(b));
    let (q1, median, q3) = quartiles(&per_iter);
    println!(
        "{group}/{name}: {median:.1} ns/iter [{q1:.1}, {q3:.1}] ({iters} iters x {samples} samples)"
    );
    Some(Record {
        group: group.to_string(),
        name: name.to_string(),
        ns_per_iter: median,
        ns_q1: q1,
        ns_q3: q3,
        iters_per_sample: iters,
        samples,
        metrics: Vec::new(),
    })
}

/// Lower quartile, median and upper quartile of ascending `sorted`, by
/// nearest rank: the quartile ranks sit symmetrically around the
/// (upper) median, so `q1 <= median <= q3` always holds.
fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    let last = sorted.len() - 1;
    (
        sorted[last / 4],
        sorted[sorted.len() / 2],
        sorted[(3 * last).div_ceil(4)],
    )
}

/// The host's available parallelism, recorded with every result.
fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The harness entry point.
pub struct Criterion {
    records: Rc<RefCell<Vec<Record>>>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            records: Rc::new(RefCell::new(Vec::new())),
        }
    }
}

impl Criterion {
    /// Accepted for API compatibility; CLI args beyond `--bench`
    /// detection are ignored.
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Start a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            records: &self.records,
            name: name.into(),
            samples: 7,
        }
    }

    /// Benchmark outside any group.
    pub fn bench_function(&mut self, name: &str, mut f: impl FnMut(&mut Bencher)) -> &mut Self {
        if let Some(r) = run_one("", name, 7, &mut f) {
            self.records.borrow_mut().push(r);
        }
        self
    }

    /// Print the report and, when `CRITERION_JSON` is set, write all
    /// records to that path as JSON.
    pub fn final_summary(&self) {
        let records = self.records.borrow();
        if records.is_empty() {
            return;
        }
        if let Ok(path) = std::env::var("CRITERION_JSON") {
            let cores = cores();
            let mut out = String::from("[\n");
            for (i, r) in records.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&format!(
                    "  {{\"group\": \"{}\", \"name\": \"{}\", \"ns_per_iter\": {:.1}, \
                     \"ns_q1\": {:.1}, \"ns_q3\": {:.1}, \"queries_per_sec\": {:.1}, \
                     \"iters_per_sample\": {}, \"samples\": {}, \"cores\": {cores}",
                    r.group,
                    r.name,
                    r.ns_per_iter,
                    r.ns_q1,
                    r.ns_q3,
                    1e9 / r.ns_per_iter.max(f64::MIN_POSITIVE),
                    r.iters_per_sample,
                    r.samples
                ));
                if !r.metrics.is_empty() {
                    out.push_str(", \"metrics\": {");
                    for (j, (k, v)) in r.metrics.iter().enumerate() {
                        if j > 0 {
                            out.push_str(", ");
                        }
                        out.push_str(&format!("\"{k}\": {v}"));
                    }
                    out.push('}');
                }
                out.push('}');
            }
            out.push_str("\n]\n");
            if let Err(e) = std::fs::write(&path, out) {
                eprintln!("criterion shim: failed to write {path}: {e}");
            } else {
                println!("criterion shim: wrote {} records to {path}", records.len());
            }
        }
    }
}

/// A group of related benchmarks sharing a sample count.
pub struct BenchmarkGroup<'a> {
    records: &'a Rc<RefCell<Vec<Record>>>,
    name: String,
    samples: usize,
}

impl BenchmarkGroup<'_> {
    /// Set the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = n.clamp(3, 25);
        self
    }

    /// Run one benchmark in this group.
    pub fn bench_function(&mut self, name: &str, mut f: impl FnMut(&mut Bencher)) -> &mut Self {
        if let Some(r) = run_one(&self.name, name, self.samples, &mut f) {
            self.records.borrow_mut().push(r);
        }
        self
    }

    /// Attach a named auxiliary value to the most recent benchmark in
    /// this group (no-op in smoke mode, where nothing is recorded).
    /// Upstream criterion has no such API; the shim uses it to record
    /// workload facts — cache hit/miss counts, items processed — next to
    /// the timing they explain.
    pub fn metric(&mut self, name: &str, value: f64) -> &mut Self {
        let mut records = self.records.borrow_mut();
        if let Some(r) = records.last_mut().filter(|r| r.group == self.name) {
            r.metrics.push((name.to_string(), value));
        }
        self
    }

    /// End the group (reporting happens in `final_summary`).
    pub fn finish(self) {}
}

/// Bundle benchmark functions into a runnable group function.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default().configure_from_args();
            $( $target(&mut c); )+
            c.final_summary();
        }
    };
}

/// Produce `main` for a `harness = false` bench target.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_mode_runs_routine_once() {
        // Unit tests never pass --bench, so run_one smoke-executes.
        let mut count = 0u32;
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("g");
        g.bench_function("counts", |b| b.iter(|| count += 1));
        g.finish();
        assert_eq!(count, 1);
        assert!(c.records.borrow().is_empty());
    }

    #[test]
    fn metric_attaches_to_last_record_only_when_one_exists() {
        // Smoke mode records nothing, so metric() must be a no-op.
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("g");
        g.bench_function("noop", |b| b.iter(|| 1));
        g.metric("hits", 3.0);
        g.finish();
        assert!(c.records.borrow().is_empty());

        // With a record present, the metric lands on it.
        c.records.borrow_mut().push(Record {
            group: "g".to_string(),
            name: "n".to_string(),
            ns_per_iter: 1.0,
            ns_q1: 1.0,
            ns_q3: 1.0,
            iters_per_sample: 1,
            samples: 1,
            metrics: Vec::new(),
        });
        let mut g = c.benchmark_group("g");
        g.metric("hits", 3.0);
        g.finish();
        assert_eq!(
            c.records.borrow()[0].metrics,
            vec![("hits".to_string(), 3.0)]
        );
    }

    #[test]
    fn quartiles_bracket_the_median() {
        for n in 3..=25 {
            let sorted: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let (q1, median, q3) = quartiles(&sorted);
            assert!(q1 <= median && median <= q3, "n = {n}");
            assert_eq!(q1 + q3, (n - 1) as f64, "symmetric ranks, n = {n}");
        }
        assert_eq!(
            quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]),
            (2.0, 4.0, 6.0)
        );
    }

    #[test]
    fn iter_batched_excludes_setup() {
        let mut b = Bencher {
            iters: 3,
            elapsed: Duration::ZERO,
        };
        let mut setups = 0;
        b.iter_batched(
            || {
                setups += 1;
                vec![1u8; 16]
            },
            |v| v.len(),
            BatchSize::SmallInput,
        );
        assert_eq!(setups, 3);
    }
}
