//! `pipeline_synth`: the Figure 1 generation pipeline (`Pipeline::run`)
//! at the paper's Table 2 Synth quotas (1306 / 2061 / 1065 pairs) on
//! Small databases, one run per domain per round.
//!
//! `sb-semql`, `sb-gen`, `sb-nl` and `sb-embed` dominate; the engine
//! runs only as the generator's execute-and-filter step, which rejects
//! most of what it runs and never touches the plan cache.
//!
//! Generation is a random search whose cost depends on its seeds (one
//! domain's run time moves by about 20% between seeds), so the runs'
//! seeds are fixed, not drawn from the benchmark seed, and every round
//! repeats the same three runs; a run's time is the best quartile over
//! its rounds.

use crate::stats::{fingerprint, mix, peak_rss_mb};
use crate::trace::{SpanBuf, Trace};
use crate::{repeat_setup, set_repeated, Digest, Outcome, RunSpec, Scale, DEFAULT_SEED};
use rayon::prelude::*;
use sb_core::experiments::paper_quotas;
use sb_core::{NlSqlPair, Pipeline, PipelineConfig, PipelineReport};
use sb_data::{Domain, DomainData, SizeClass};
use sb_embed::Discriminator;
use sb_engine::ExecOptions;
use sb_gen::{GenOptions, GenStats, Generator};
use sb_metrics::Hardness;
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// Pairs the run for domain `d` must produce.
pub fn quota(d: usize, scale: Scale) -> usize {
    let paper = paper_quotas(Domain::ALL[d]).2;
    match scale {
        Scale::Bench => paper,
        Scale::Smoke => paper / 40,
    }
}

/// The configuration of domain `d`'s run.
fn config(d: usize, scale: Scale) -> PipelineConfig {
    PipelineConfig {
        target_pairs: quota(d, scale),
        gen_seed: mix(DEFAULT_SEED, 2 * d as u64),
        llm_seed: mix(DEFAULT_SEED, 2 * d as u64 + 1),
        ..PipelineConfig::default()
    }
}

fn build(scale: Scale) -> Vec<DomainData> {
    let size = match scale {
        Scale::Bench => SizeClass::Small,
        Scale::Smoke => SizeClass::Tiny,
    };
    Domain::ALL.iter().map(|d| d.build(size)).collect()
}

/// Rounds per run: about the run's seconds of work on two cores, and
/// at least two, so every run has a repeat.
fn rounds(spec: &RunSpec) -> usize {
    match spec.scale {
        Scale::Bench => (spec.window.as_secs_f64() / 3.3).round().max(2.0) as usize,
        Scale::Smoke => 1,
    }
}

/// Run `pipeline_synth`.
pub fn run(spec: &RunSpec) -> Outcome {
    let mut out = Outcome::default();
    let (datas, setup_s, build_s) = repeat_setup(spec.setup_reps(), || {
        let t0 = Instant::now();
        let datas = build(spec.scale);
        let took = t0.elapsed();
        (datas, took)
    });

    // runs[d]: domain d's report and wall time, round by round.
    let mut runs: Vec<Vec<(PipelineReport, u64)>> = vec![Vec::new(), Vec::new(), Vec::new()];
    for _ in 0..rounds(spec) {
        for (d, data) in datas.iter().enumerate() {
            let t0 = Instant::now();
            let report = Pipeline::new(data, config(d, spec.scale)).run(&data.seed_patterns);
            runs[d].push((report, t0.elapsed().as_nanos() as u64));
        }
    }
    // Before the oracle and the replay, so it is the measured rounds' peak.
    let peak_rss = peak_rss_mb();
    let items: Vec<(f64, Vec<u64>)> = runs
        .iter()
        .map(|r| {
            (
                r[0].0.pairs.len() as f64,
                r.iter().map(|(_, ns)| *ns).collect(),
            )
        })
        .collect();
    set_repeated(&mut out, &items);
    out.set("setup_s", setup_s);
    let all = |f: fn(&(PipelineReport, u64)) -> f64| runs.iter().flatten().map(f).sum::<f64>();
    let untraced_ops_per_s = all(|(r, _)| r.pairs.len() as f64) / all(|(_, ns)| *ns as f64 / 1e9);

    let firsts: Vec<&PipelineReport> = runs.iter().map(|r| &r[0].0).collect();
    let (attempted, failed) = check(&datas, &firsts, spec.scale);
    out.attempted = attempted;
    out.failed = failed;
    // Later rounds must repeat the first exactly.
    for (d, r) in runs.iter().enumerate() {
        for (report, _) in &r[1..] {
            out.attempted += quota(d, spec.scale) as u64;
            if report.pairs != r[0].0.pairs {
                out.failed += quota(d, spec.scale) as u64;
            }
        }
    }
    if spec.scale == Scale::Bench {
        out.digest = Some(Digest {
            committed: include_str!("../expected/synth_pairs.txt"),
            produced: digests(&firsts),
        });
    }

    if spec.trace {
        out.set("data.build_s", build_s);
        traced_replay(&datas, spec.scale, &firsts, untraced_ops_per_s, &mut out);
    }
    out.set("peak_rss_mb", peak_rss);
    out
}

/// The pipeline oracle over one run per domain (`reports[d]` for domain
/// `d`): every run yields exactly its quota, with no duplicate
/// `(question, sql)` pair, and every pair's SQL re-executes to a
/// non-empty result on the serial row path. Returns `(pairs checked,
/// pairs failed)`; a missing pair counts as failed.
pub fn check(datas: &[DomainData], reports: &[&PipelineReport], scale: Scale) -> (u64, u64) {
    let row_path = ExecOptions {
        columnar: false,
        parallel: false,
        ..ExecOptions::default()
    };
    let mut attempted = 0;
    let mut failed = 0;
    for (d, report) in reports.iter().enumerate() {
        let want = quota(d, scale);
        attempted += want.max(report.pairs.len()) as u64;
        failed += want.abs_diff(report.pairs.len()) as u64;
        let mut seen = HashSet::new();
        for p in &report.pairs {
            if !seen.insert((&p.question, &p.sql)) {
                failed += 1;
            }
        }
        let distinct: Vec<&str> = report
            .pairs
            .iter()
            .map(|p| p.sql.as_str())
            .collect::<HashSet<_>>()
            .into_iter()
            .collect();
        let db = &datas[d].db;
        let ok: HashMap<&str, bool> = distinct
            .par_iter()
            .map(|sql| {
                let good = sb_sql::parse(sql)
                    .ok()
                    .and_then(|q| sb_engine::execute_with(db, &q, row_path).ok())
                    .is_some_and(|rs| !rs.is_empty());
                (*sql, good)
            })
            .collect::<Vec<_>>()
            .into_iter()
            .collect();
        failed += report.pairs.iter().filter(|p| !ok[p.sql.as_str()]).count() as u64;
    }
    (attempted, failed)
}

/// One line per domain: `domain pairs fingerprint`.
pub fn digests(reports: &[&PipelineReport]) -> String {
    reports
        .iter()
        .enumerate()
        .map(|(d, r)| {
            let text: String = r
                .pairs
                .iter()
                .map(|p| format!("{}\t{}\n", p.question, p.sql))
                .collect();
            format!(
                "{} {} {:016x}\n",
                Domain::ALL[d].name(),
                r.pairs.len(),
                fingerprint(text.as_bytes())
            )
        })
        .collect()
}

/// `Pipeline::run`, stage by stage in its order, each call into a
/// layer inside a span. Returns the same pairs and generator counts.
pub fn traced_run(
    data: &DomainData,
    config: &PipelineConfig,
    buf: &mut SpanBuf,
    id: u64,
) -> (Vec<NlSqlPair>, GenStats) {
    let pipeline = buf.span("core.pipeline_new", id, |_| {
        Pipeline::new(data, config.clone())
    });
    let templates = buf.span("semql.extract", id, |_| {
        pipeline.seeding_phase(&data.seed_patterns)
    });
    // Easier templates are drawn more often (replication weights by the
    // source query's hardness), as in `Pipeline::run`.
    let templates = buf.span("metrics.hardness", id, |_| {
        let mut weighted = Vec::new();
        for t in templates {
            let weight = match sb_metrics::hardness::classify_sql(&t.source) {
                Hardness::Easy => 4,
                Hardness::Medium => 3,
                Hardness::Hard => 2,
                Hardness::ExtraHard => 1,
            };
            weighted.extend(std::iter::repeat_n(t, weight));
        }
        weighted
    });
    let (generated, stats) = buf.span("gen.generate", id, |_| {
        let mut generator = Generator::new(&data.db, &data.enhanced, config.gen_seed);
        generator.use_enhanced_constraints = config.use_enhanced_constraints;
        generator.generate(&templates, config.target_pairs, &GenOptions::default())
    });

    let region = buf.enter("bench.translate_select", id);
    let epoch = buf.epoch();
    let discriminator = Discriminator::new(config.keep_k);
    let items: Vec<(Vec<String>, SpanBuf)> = (0..generated.len())
        .into_par_iter()
        .map(|i| {
            let mut item = SpanBuf::new(epoch, 0, 2);
            let candidates = item.span("nl.candidates", id, |_| {
                let mut llm = pipeline.llm.clone();
                llm.reseed(
                    config
                        .llm_seed
                        .wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                );
                llm.candidates(
                    &generated[i].query,
                    &data.enhanced,
                    config.candidates_per_query,
                )
            });
            let kept = item.span("embed.select", id, |_| {
                if config.discriminate {
                    discriminator
                        .select(&candidates)
                        .into_iter()
                        .cloned()
                        .collect()
                } else {
                    candidates.into_iter().take(config.keep_k).collect()
                }
            });
            (kept, item)
        })
        .collect();
    let mut kept_per_query = Vec::with_capacity(items.len());
    for (kept, item) in items {
        buf.adopt(item);
        kept_per_query.push(kept);
    }
    buf.exit(region);

    let pairs = buf.span("bench.merge", id, |_| {
        let mut pairs = Vec::new();
        for (gq, kept) in generated.iter().zip(kept_per_query) {
            let sql = gq.query.to_string();
            let mut seen_q = HashSet::new();
            for q in kept {
                if seen_q.insert(q.clone()) {
                    pairs.push(NlSqlPair::new(q, sql.clone(), data.db.schema.name.clone()));
                }
            }
            if pairs.len() >= config.target_pairs {
                break;
            }
        }
        pairs.truncate(config.target_pairs);
        pairs
    });
    (pairs, stats)
}

/// One round, replayed stage by stage with spans.
fn traced_replay(
    datas: &[DomainData],
    scale: Scale,
    firsts: &[&PipelineReport],
    untraced_ops_per_s: f64,
    out: &mut Outcome,
) {
    let epoch = Instant::now();
    let mut buf = SpanBuf::new(epoch, 0, 1 << 14);
    let (mut accepted, mut attempts) = (0, 0);
    let mut pairs = 0;
    let mut diverged = 0;
    let t0 = Instant::now();
    for (d, data) in datas.iter().enumerate() {
        let root = buf.enter("bench.pipeline_run", d as u64);
        let (replayed, s) = traced_run(data, &config(d, scale), &mut buf, d as u64);
        buf.exit(root);
        if firsts[d].pairs != replayed {
            diverged += 1;
        }
        pairs += replayed.len();
        accepted += s.accepted;
        attempts += s.attempts();
    }
    let wall = t0.elapsed();
    if diverged > 0 {
        out.problems
            .push(format!("{diverged} traced runs differ from Pipeline::run"));
    }
    let mut trace = Trace::default();
    trace.absorb(buf);
    let s = |name: &str| trace.total_ns(name) as f64 / 1e9;
    out.set(
        "semql.extract_ms",
        trace.total_ns("semql.extract") as f64 / 1e6,
    );
    out.set("gen.generate_s", s("gen.generate"));
    out.set("gen.accept_ratio", accepted as f64 / attempts as f64);
    out.set("nl.candidates_s", s("nl.candidates"));
    out.set("embed.select_s", s("embed.select"));
    let traced_ops_per_s = pairs as f64 / wall.as_secs_f64();
    out.set(
        "trace.overhead_pct",
        100.0 * (1.0 - traced_ops_per_s / untraced_ops_per_s),
    );
    out.set("trace.coverage_pct", 100.0 * trace.coverage(&[0]));
    out.trace = Some(trace);
}
