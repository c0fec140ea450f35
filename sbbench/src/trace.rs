//! In-memory span tracing for the traced replays.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer's public functions; the program itself carries no tracing.
//! Every thread writes into its own preallocated [`SpanBuf`] (no locks
//! on the hot path); the buffers are merged into one [`Trace`] after
//! the replay, which computes self times, the per-layer table and the
//! `sbbench-trace-<workload>.json` file.
//!
//! Names starting with `bench.` mark the benchmark's own glue (a
//! request, a pipeline run, a grid cell, a parallel region); every
//! other name is a layer span named `<layer>.<call>`.

use std::fmt::Write as _;
use std::time::Instant;

/// `Span::parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One closed span. Times are nanoseconds since the replay's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// The request, pipeline run or grid cell the span belongs to.
    pub trace_id: u64,
    /// Index of the enclosing span in the same buffer or trace.
    pub parent: u32,
    /// The timeline the span ran on: a serve client, or the main
    /// thread for the pipeline and the grid. Spans of parallel workers
    /// are adopted into the lane that forked them.
    pub lane: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Whether the span wraps a call into a layer rather than glue.
    pub fn is_layer(&self) -> bool {
        !self.name.starts_with("bench.")
    }
}

/// One thread's span buffer: allocated once, then only appended to.
pub struct SpanBuf {
    epoch: Instant,
    lane: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl SpanBuf {
    pub fn new(epoch: Instant, lane: u32, capacity: usize) -> SpanBuf {
        SpanBuf {
            epoch,
            lane,
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(16),
        }
    }

    /// The instant span times count from; worker buffers that will be
    /// adopted must share it.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one; returns its index.
    pub fn enter(&mut self, name: &'static str, trace_id: u64) -> usize {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            trace_id,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            lane: self.lane,
            start_ns: self.now(),
            end_ns: 0,
        });
        self.open.push(idx as u32);
        idx
    }

    /// Close the innermost open span, which must be `idx`.
    pub fn exit(&mut self, idx: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(idx as u32), "spans must close innermost-first");
        self.spans[idx].end_ns = self.now();
    }

    /// Rename a span once its outcome is known (a cache hit or miss).
    pub fn rename(&mut self, idx: usize, name: &'static str) {
        self.spans[idx].name = name;
    }

    /// Run `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        trace_id: u64,
        f: impl FnOnce(&mut SpanBuf) -> T,
    ) -> T {
        let idx = self.enter(name, trace_id);
        let out = f(self);
        self.exit(idx);
        out
    }

    /// Append a parallel worker item's spans, parenting its roots under
    /// the innermost open span of this buffer.
    pub fn adopt(&mut self, item: SpanBuf) {
        assert!(item.open.is_empty(), "adopted buffer has open spans");
        let base = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.spans.extend(item.spans.into_iter().map(|mut s| {
            s.parent = if s.parent == NO_PARENT {
                parent
            } else {
                s.parent + base
            };
            s.lane = self.lane;
            s
        }));
    }
}

/// Per-name totals of a [`Trace`].
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// All spans of one traced replay.
#[derive(Default)]
pub struct Trace {
    pub spans: Vec<Span>,
}

impl Trace {
    /// Merge a closed buffer, re-basing its parent indices.
    pub fn absorb(&mut self, buf: SpanBuf) {
        assert!(buf.open.is_empty(), "absorbed buffer has open spans");
        let base = self.spans.len() as u32;
        self.spans.extend(buf.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }

    /// Check that every span lies inside its parent's interval, on the
    /// parent's lane and trace id.
    pub fn check_nesting(&self) -> Result<(), String> {
        for (i, s) in self.spans.iter().enumerate() {
            if s.end_ns < s.start_ns {
                return Err(format!("span {i} `{}` ends before it starts", s.name));
            }
            if s.parent == NO_PARENT {
                continue;
            }
            let p = self
                .spans
                .get(s.parent as usize)
                .ok_or_else(|| format!("span {i} `{}` has a dangling parent", s.name))?;
            if s.start_ns < p.start_ns || s.end_ns > p.end_ns {
                return Err(format!(
                    "span {i} `{}` [{}, {}] escapes parent `{}` [{}, {}]",
                    s.name, s.start_ns, s.end_ns, p.name, p.start_ns, p.end_ns
                ));
            }
            if s.lane != p.lane || s.trace_id != p.trace_id {
                return Err(format!("span {i} `{}` crosses lane or trace", s.name));
            }
        }
        Ok(())
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its children cover (children of a parallel region
    /// overlap, so coverage is a union, not a sum).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                children[s.parent as usize].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, kids)| s.duration_ns().saturating_sub(union_ns(kids)))
            .collect()
    }

    /// Durations of every span called `name`, ascending.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        let mut d: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect();
        d.sort_unstable();
        d
    }

    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum()
    }

    /// Share of the traced time — the root spans (requests, pipeline
    /// runs, grid cells) on the given lanes — during which a layer span
    /// was running.
    pub fn coverage(&self, lanes: &[u32]) -> f64 {
        let union_on = |lane: u32, keep: fn(&Span) -> bool| {
            union_ns(
                self.spans
                    .iter()
                    .filter(|s| s.lane == lane && keep(s))
                    .map(|s| (s.start_ns, s.end_ns))
                    .collect(),
            )
        };
        let traced: u64 = lanes
            .iter()
            .map(|&l| union_on(l, |s| s.parent == NO_PARENT))
            .sum();
        let covered: u64 = lanes.iter().map(|&l| union_on(l, Span::is_layer)).sum();
        if traced == 0 {
            0.0
        } else {
            covered as f64 / traced as f64
        }
    }

    /// Count, total and self time per span name, sorted by name.
    pub fn layer_table(&self) -> Vec<LayerRow> {
        let self_ns = self.self_ns();
        let mut rows: Vec<LayerRow> = Vec::new();
        for (s, own) in self.spans.iter().zip(self_ns) {
            match rows.iter_mut().find(|r| r.name == s.name) {
                Some(r) => {
                    r.count += 1;
                    r.total_ns += s.duration_ns();
                    r.self_ns += own;
                }
                None => rows.push(LayerRow {
                    name: s.name,
                    count: 1,
                    total_ns: s.duration_ns(),
                    self_ns: own,
                }),
            }
        }
        rows.sort_by_key(|r| r.name);
        rows
    }

    /// The trace file: the per-name table over every span, plus the
    /// spans of the first `max_traces` trace ids in full.
    pub fn to_json(&self, workload: &str, max_traces: u64) -> String {
        let self_ns = self.self_ns();
        let mut out = String::new();
        let _ = write!(out, "{{\"workload\": \"{workload}\", \"layers\": [");
        for (i, r) in self.layer_table().iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(
                out,
                "{sep}{{\"name\": \"{}\", \"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                r.name, r.count, r.total_ns, r.self_ns
            );
        }
        out.push_str("], \"spans\": [");
        let mut first = true;
        for (i, s) in self.spans.iter().enumerate() {
            if s.trace_id >= max_traces {
                continue;
            }
            let sep = if first { "" } else { ",\n" };
            first = false;
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = write!(
                out,
                "{sep}{{\"i\": {i}, \"name\": \"{}\", \"trace\": {}, \"parent\": {parent}, \
                 \"lane\": {}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                s.name, s.trace_id, s.lane, s.start_ns, s.end_ns, self_ns[i]
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Total length of the union of half-open intervals.
fn union_ns(mut iv: Vec<(u64, u64)>) -> u64 {
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_ns(vec![(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_ns(vec![]), 0);
    }

    #[test]
    fn adopted_spans_nest_under_the_open_span() {
        let epoch = Instant::now();
        let mut main = SpanBuf::new(epoch, 0, 8);
        let region = main.enter("bench.region", 3);
        let mut item = SpanBuf::new(epoch, 9, 4);
        item.span("layer.work", 3, |b| b.span("layer.inner", 3, |_| ()));
        main.adopt(item);
        main.exit(region);
        let mut trace = Trace::default();
        trace.absorb(main);
        trace.check_nesting().expect("spans nest");
        assert_eq!(trace.spans[1].parent, 0);
        assert_eq!(trace.spans[2].parent, 1);
        assert!(trace.spans.iter().all(|s| s.lane == 0));
        let table = trace.layer_table();
        assert_eq!(table.len(), 3);
    }
}
