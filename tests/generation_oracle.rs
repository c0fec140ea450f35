//! Demand-driven generation against the eager formulation it replaced.
//!
//! `Generator::generate` pulls each template slot's survivors only as far
//! as the merge needs them, and `Pipeline::run` generates, translates and
//! merges round by round until the pair target is met. This file keeps
//! the eager formulations as oracles and pins byte-identical output:
//!
//! - eager generation executes up to three survivors per template slot
//!   and round, then merges in slot order, taking the first survivor not
//!   accepted yet;
//! - the eager pipeline generates `target_pairs` queries, translates and
//!   selects every one, then merges until the target is reached.
//!
//! `scripts/check.sh` runs this file at 1 and 8 rayon threads.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use sciencebenchmark::core::{NlSqlPair, Pipeline, PipelineConfig};
use sciencebenchmark::data::{Domain, DomainData, SizeClass, SpiderCorpus};
use sciencebenchmark::embed::Discriminator;
use sciencebenchmark::gen::{GenOptions, GeneratedQuery, Generator};
use sciencebenchmark::metrics::{hardness::classify_sql, Hardness};
use sciencebenchmark::semql::Template;
use sciencebenchmark::sql::Query;
use std::collections::HashSet;

/// Survivors an eager slot executes per round.
const SURVIVORS: usize = 3;

/// The generator's per-slot seed: `(base, round, template)` mixed.
fn derive_seed(base: u64, round: u64, template_idx: u64) -> u64 {
    base ^ round
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(template_idx.wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// One eager slot: fill and execute until three survivors or the attempt
/// cap, whichever comes first.
fn eager_survivors(
    gen: &Generator<'_>,
    db: &sciencebenchmark::engine::Database,
    seed: u64,
    template: &Template,
    opts: &GenOptions,
) -> Vec<(Query, String)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out: Vec<(Query, String)> = Vec::new();
    for _ in 0..opts.max_attempts_per_query {
        if out.len() >= SURVIVORS {
            break;
        }
        let Ok(query) = gen.fill_with(&mut rng, template) else {
            continue;
        };
        let sql = query.to_string();
        if out.iter().any(|(_, s)| *s == sql) {
            continue;
        }
        match db.run_query(&query) {
            Ok(rs) if opts.require_nonempty && rs.is_empty() => {}
            Ok(_) => out.push((query, sql)),
            Err(_) => {}
        }
    }
    out
}

/// Eager generation of up to `n` queries.
fn eager_generate(
    data: &DomainData,
    seed: u64,
    use_enhanced_constraints: bool,
    templates: &[Template],
    n: usize,
) -> Vec<GeneratedQuery> {
    let mut gen = Generator::new(&data.db, &data.enhanced, seed);
    gen.use_enhanced_constraints = use_enhanced_constraints;
    let opts = GenOptions::default();
    let mut out = Vec::new();
    if templates.is_empty() || n == 0 {
        return out;
    }
    // A run's base seed is the first draw of the generator's RNG.
    let base = StdRng::seed_from_u64(seed).next_u64();
    let mut seen: HashSet<String> = HashSet::new();
    let mut round = 0u64;
    while out.len() < n {
        let batches: Vec<Vec<(Query, String)>> = templates
            .iter()
            .enumerate()
            .map(|(ti, t)| {
                eager_survivors(
                    &gen,
                    &data.db,
                    derive_seed(base, round, ti as u64),
                    t,
                    &opts,
                )
            })
            .collect();
        let mut progressed = false;
        for (ti, batch) in batches.into_iter().enumerate() {
            if out.len() >= n {
                break;
            }
            if let Some((query, sql)) = batch.into_iter().find(|(_, sql)| !seen.contains(sql)) {
                seen.insert(sql);
                out.push(GeneratedQuery {
                    query,
                    template_idx: ti,
                });
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
        round += 1;
    }
    out
}

/// Phase 1 plus the hardness replication weights, as `Pipeline::run`
/// applies them.
fn weighted_templates(data: &DomainData, seeds: &[String]) -> Vec<Template> {
    let pipeline = Pipeline::new(data, PipelineConfig::default());
    let mut out = Vec::new();
    for t in pipeline.seeding_phase(seeds) {
        let weight = match classify_sql(&t.source) {
            Hardness::Easy => 4,
            Hardness::Medium => 3,
            Hardness::Hard => 2,
            Hardness::ExtraHard => 1,
        };
        out.extend(std::iter::repeat_n(t, weight));
    }
    out
}

/// The eager pipeline: generate `target_pairs` queries, translate and
/// select all of them, then merge until the target is reached.
fn eager_pipeline(data: &DomainData, seeds: &[String], config: &PipelineConfig) -> Vec<NlSqlPair> {
    let pipeline = Pipeline::new(data, config.clone());
    let templates = weighted_templates(data, seeds);
    let generated = eager_generate(
        data,
        config.gen_seed,
        config.use_enhanced_constraints,
        &templates,
        config.target_pairs,
    );
    let discriminator = Discriminator::new(config.keep_k);
    let kept_per_query: Vec<Vec<String>> = generated
        .iter()
        .enumerate()
        .map(|(i, gq)| {
            let mut llm = pipeline.llm.clone();
            llm.reseed(
                config
                    .llm_seed
                    .wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            );
            let candidates = llm.candidates(&gq.query, &data.enhanced, config.candidates_per_query);
            if config.discriminate {
                discriminator
                    .select(&candidates)
                    .into_iter()
                    .cloned()
                    .collect()
            } else {
                candidates.into_iter().take(config.keep_k).collect()
            }
        })
        .collect();
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
}

/// Generated queries as comparable `(sql, template index)` keys.
fn keys(queries: &[GeneratedQuery]) -> Vec<(String, usize)> {
    queries
        .iter()
        .map(|g| (g.query.to_string(), g.template_idx))
        .collect()
}

fn lazy_generate(
    data: &DomainData,
    seed: u64,
    use_enhanced_constraints: bool,
    templates: &[Template],
    n: usize,
) -> Vec<GeneratedQuery> {
    let mut gen = Generator::new(&data.db, &data.enhanced, seed);
    gen.use_enhanced_constraints = use_enhanced_constraints;
    let (out, stats) = gen.generate(templates, n, &GenOptions::default());
    assert_eq!(stats.accepted, out.len());
    out
}

fn domains(size: SizeClass) -> Vec<(String, DomainData)> {
    Domain::ALL
        .iter()
        .map(|d| (format!("{} {size:?}", d.name()), d.build(size)))
        .collect()
}

fn spider_domains() -> Vec<(String, DomainData)> {
    SpiderCorpus::build_n(4)
        .databases
        .into_iter()
        .map(|d| {
            let data = DomainData {
                real_rows: d.db.total_rows() as f64,
                real_bytes: d.db.approx_bytes() as f64,
                db: d.db,
                enhanced: d.enhanced,
                seed_patterns: d.seed_patterns,
            };
            (data.db.schema.name.clone(), data)
        })
        .collect()
}

const SEEDS: [u64; 3] = [1, 17, 0x5EED];

/// Lazy `generate(n)` equals the eager oracle, including the slot each
/// query came from, with constraints on and off; a request split into
/// uneven `next_queries` calls yields the same stream.
fn check_generation(label: &str, data: &DomainData, n: usize) {
    let templates = weighted_templates(data, &data.seed_patterns);
    for seed in SEEDS {
        for use_enhanced in [true, false] {
            let eager = keys(&eager_generate(data, seed, use_enhanced, &templates, n));
            let lazy = keys(&lazy_generate(data, seed, use_enhanced, &templates, n));
            assert_eq!(
                lazy, eager,
                "{label}: seed {seed}, enhanced {use_enhanced}: generate({n}) diverges from the eager oracle"
            );

            let mut gen = Generator::new(&data.db, &data.enhanced, seed);
            gen.use_enhanced_constraints = use_enhanced;
            let opts = GenOptions::default();
            let mut run = gen.generation(&templates, &opts);
            let mut chunked = Vec::new();
            for want in [1, 7, n / 3, n] {
                let rest = n - chunked.len();
                chunked.extend(keys(&run.next_queries(want.min(rest))));
            }
            assert_eq!(
                chunked, eager,
                "{label}: seed {seed}, enhanced {use_enhanced}: chunked generation diverges"
            );
        }
    }
}

/// `Pipeline::run` equals the eager pipeline across the ablations.
fn check_pipeline(label: &str, data: &DomainData, target_pairs: usize) {
    for seed in SEEDS {
        for (use_enhanced_constraints, discriminate, keep_k) in [
            (true, true, 2),
            (false, true, 2),
            (true, false, 2),
            (true, true, 1),
        ] {
            let config = PipelineConfig {
                target_pairs,
                keep_k,
                gen_seed: seed,
                llm_seed: seed ^ 0xA5,
                use_enhanced_constraints,
                discriminate,
                ..PipelineConfig::default()
            };
            let report = Pipeline::new(data, config.clone()).run(&data.seed_patterns);
            let eager = eager_pipeline(data, &data.seed_patterns, &config);
            assert_eq!(
                report.pairs, eager,
                "{label}: {config:?}: pipeline diverges from the eager oracle"
            );
        }
    }
}

#[test]
fn generate_matches_eager_oracle_on_domains() {
    // Tiny runs far enough to exhaust slots, where the fallback
    // survivors decide the merge.
    for (label, data) in domains(SizeClass::Tiny) {
        check_generation(&label, &data, 400);
    }
    for (label, data) in domains(SizeClass::Small) {
        check_generation(&label, &data, 150);
    }
}

#[test]
fn generate_matches_eager_oracle_on_spider_databases() {
    for (label, data) in spider_domains() {
        check_generation(&label, &data, 60);
    }
}

#[test]
fn pipeline_matches_eager_oracle_on_domains() {
    for size in [SizeClass::Tiny, SizeClass::Small] {
        for (label, data) in domains(size) {
            check_pipeline(&label, &data, 90);
        }
    }
}

#[test]
fn pipeline_matches_eager_oracle_on_spider_databases() {
    for (label, data) in spider_domains() {
        check_pipeline(&label, &data, 12);
    }
}
