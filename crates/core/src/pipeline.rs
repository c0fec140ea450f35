//! The four-phase automatic training-data generation pipeline (Figure 1).
//!
//! 1. **Seeding** — extract SemQL templates from the seed SQL queries;
//! 2. **SQL generation** — fill templates through the enhanced-schema-
//!    constrained sampler (Algorithm 1), keeping only executable,
//!    non-empty, de-duplicated queries;
//! 3. **SQL-to-NL** — the (simulated) fine-tuned GPT-3 generates 8
//!    candidate questions per query;
//! 4. **Discriminative selection** — keep the `k ∈ {1, 2}` candidates
//!    closest to the geometric median of the candidate embeddings
//!    (Equation 1).

use crate::dataset::NlSqlPair;
use rayon::prelude::*;
use sb_data::DomainData;
use sb_embed::Discriminator;
use sb_gen::{GenOptions, GenStats, Generator};
use sb_nl::LlmProfile;
use sb_semql::Template;
use std::collections::HashSet;

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Target number of synthetic NL/SQL pairs.
    pub target_pairs: usize,
    /// Candidate questions generated per SQL query (the paper uses 8).
    pub candidates_per_query: usize,
    /// Candidates kept per query (the paper uses 1 or 2).
    pub keep_k: usize,
    /// RNG seed for SQL generation.
    pub gen_seed: u64,
    /// RNG seed for the language model.
    pub llm_seed: u64,
    /// Whether the enhanced-schema constraints are applied (ablation
    /// switch; `false` reproduces unconstrained sampling).
    pub use_enhanced_constraints: bool,
    /// Whether Phase 4 runs (ablation switch; `false` keeps the first
    /// `keep_k` candidates unfiltered).
    pub discriminate: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            target_pairs: 200,
            candidates_per_query: 8,
            keep_k: 2,
            gen_seed: 17,
            llm_seed: 17,
            use_enhanced_constraints: true,
            discriminate: true,
        }
    }
}

/// What the pipeline produced, with phase-level accounting.
///
/// Phases 2-4 run on demand, so the counts cover the work actually done:
/// every generated query was translated, selected and merged, and the
/// run stopped at the round that reached the pair target.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// The synthetic pairs (the "Synth" split).
    pub pairs: Vec<NlSqlPair>,
    /// Number of templates extracted in Phase 1.
    pub templates: usize,
    /// Number of distinct SQL queries generated in Phase 2.
    pub sql_queries: usize,
    /// Phase 2 rejection statistics.
    pub gen_stats: GenStats,
    /// NL candidate questions produced in Phase 3 (before selection).
    pub nl_candidates: usize,
    /// Candidates dropped by Phase 4 (the discriminator, or the plain
    /// `keep_k` truncation when discrimination is ablated off).
    pub dropped_discriminator: usize,
    /// Selected questions dropped as duplicates while merging.
    pub dropped_duplicate: usize,
}

/// The pipeline, bound to one domain.
pub struct Pipeline<'a> {
    domain: &'a DomainData,
    /// The SQL-to-NL model (Phase 3). Defaults to fine-tuned GPT-3 —
    /// the winner of the paper's Table 3 comparison.
    pub llm: LlmProfile,
    config: PipelineConfig,
}

impl<'a> Pipeline<'a> {
    /// Create a pipeline with the default (fine-tuned GPT-3) translator.
    /// The model is fine-tuned on the seed pairs plus the 468 Spider
    /// pairs, mirroring §4.1.2.
    pub fn new(domain: &'a DomainData, config: PipelineConfig) -> Self {
        let mut llm = LlmProfile::gpt3_finetuned(config.llm_seed);
        llm.fine_tune(&domain.db.schema.name, domain.seed_patterns.len() + 468);
        Pipeline {
            domain,
            llm,
            config,
        }
    }

    /// Phase 1: extract de-duplicated templates from seed SQL.
    pub fn seeding_phase(&self, seeds: &[String]) -> Vec<Template> {
        let mut out: Vec<Template> = Vec::new();
        let mut seen = HashSet::new();
        for sql in seeds {
            let Ok(query) = sb_sql::parse(sql) else {
                continue;
            };
            let Ok(template) = sb_semql::extract(&query, &self.domain.db.schema) else {
                continue;
            };
            if seen.insert(template.signature()) {
                out.push(template);
            }
        }
        out
    }

    /// Run all four phases over the given seed SQL queries.
    pub fn run(&mut self, seeds: &[String]) -> PipelineReport {
        // Phase 1: Seeding.
        let phase1 = sb_obs::span("pipeline.phase1.seeding");
        let templates = self.seeding_phase(seeds);

        // §3.4: "with more complex templates the generated queries tend to
        // be semantically incorrect" — the pipeline therefore draws easier
        // templates more often, which is what skews the synth split toward
        // the Easy/Medium classes in Table 2. Implemented as replication
        // weights (4/3/2/1 by source-query hardness).
        let templates: Vec<sb_semql::Template> = {
            let mut weighted = Vec::new();
            for t in templates {
                let weight = match sb_metrics::hardness::classify_sql(&t.source) {
                    sb_metrics::Hardness::Easy => 4,
                    sb_metrics::Hardness::Medium => 3,
                    sb_metrics::Hardness::Hard => 2,
                    sb_metrics::Hardness::ExtraHard => 1,
                };
                for _ in 0..weight {
                    weighted.push(t.clone());
                }
            }
            weighted
        };
        let n_templates = {
            let mut seen = std::collections::HashSet::new();
            templates
                .iter()
                .filter(|t| seen.insert(t.signature()))
                .count()
        };
        sb_obs::count("pipeline.templates_extracted", n_templates as u64);
        drop(phase1);

        // Phases 2-4 run round by round, on demand. The discriminator keeps
        // at most `keep_k` questions per query, so at least
        // ceil(missing pairs / keep_k) more queries are needed: each round
        // generates exactly that many (and never more than `target_pairs`
        // queries in all), translates and selects them, and merges. The
        // merge can therefore only reach the target at a round's last
        // query, so every generated query is translated and merged.
        // Rounds continue one generation stream and the LLM is reseeded
        // by global query index, so the pairs equal those of generating
        // `target_pairs` queries up front and translating them all.
        let target = self.config.target_pairs;
        let mut generator =
            Generator::new(&self.domain.db, &self.domain.enhanced, self.config.gen_seed);
        generator.use_enhanced_constraints = self.config.use_enhanced_constraints;
        let opts = GenOptions::default();
        let mut generation = generator.generation(&templates, &opts);
        let discriminator = Discriminator::new(self.config.keep_k);
        let mut pairs = Vec::new();
        let mut sql_queries = 0usize;
        let mut kept_total = 0usize;
        let mut dropped_duplicate = 0usize;
        while pairs.len() < target && sql_queries < target {
            let want = (target - pairs.len())
                .div_ceil(self.config.keep_k.max(1))
                .min(target - sql_queries);
            let phase2 = sb_obs::span("pipeline.phase2.sql_gen");
            let generated = generation.next_queries(want);
            drop(phase2);
            if generated.is_empty() {
                break;
            }

            // Phases 3 + 4: translate and select, fanned out across
            // queries. Every worker gets its own LLM clone reseeded from
            // (llm_seed, global query index), and results merge in query
            // order, so the output is byte-identical for any
            // RAYON_NUM_THREADS.
            let phase34 = sb_obs::span("pipeline.phase34.nl_translate_select");
            let first = sql_queries;
            let kept_per_query: Vec<Vec<String>> =
                (0..generated.len())
                    .into_par_iter()
                    .map(|i| {
                        let mut llm = self.llm.clone();
                        llm.reseed(self.config.llm_seed.wrapping_add(
                            ((first + i) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                        ));
                        let candidates = llm.candidates(
                            &generated[i].query,
                            &self.domain.enhanced,
                            self.config.candidates_per_query,
                        );
                        if self.config.discriminate {
                            discriminator
                                .select(&candidates)
                                .into_iter()
                                .cloned()
                                .collect()
                        } else {
                            candidates.into_iter().take(self.config.keep_k).collect()
                        }
                    })
                    .collect();
            drop(phase34);
            sql_queries += generated.len();
            kept_total += kept_per_query.iter().map(Vec::len).sum::<usize>();

            for (gq, kept) in generated.iter().zip(kept_per_query) {
                let sql = gq.query.to_string();
                // Distinct questions only: the discriminator can select two
                // identical realizations.
                let mut seen_q = HashSet::new();
                for q in kept {
                    if seen_q.insert(q.clone()) {
                        pairs.push(NlSqlPair::new(
                            q,
                            sql.clone(),
                            self.domain.db.schema.name.clone(),
                        ));
                    } else {
                        dropped_duplicate += 1;
                    }
                }
            }
        }
        pairs.truncate(target);
        let gen_stats = generation.stats().clone();
        let nl_candidates = sql_queries * self.config.candidates_per_query;
        let dropped_discriminator = nl_candidates - kept_total;

        if sb_obs::enabled() {
            sb_obs::count("pipeline.sql.accepted", gen_stats.accepted as u64);
            sb_obs::count(
                "pipeline.sql.rejected_sampling",
                gen_stats.rejected_sampling as u64,
            );
            sb_obs::count(
                "pipeline.sql.rejected_execution",
                gen_stats.rejected_execution as u64,
            );
            sb_obs::count(
                "pipeline.sql.rejected_empty",
                gen_stats.rejected_empty as u64,
            );
            sb_obs::count(
                "pipeline.sql.rejected_duplicate",
                gen_stats.rejected_duplicate as u64,
            );
            sb_obs::count("pipeline.nl.candidates", nl_candidates as u64);
            sb_obs::count(
                "pipeline.nl.dropped_discriminator",
                dropped_discriminator as u64,
            );
            sb_obs::count("pipeline.nl.dropped_duplicate", dropped_duplicate as u64);
            sb_obs::count("pipeline.pairs_emitted", pairs.len() as u64);
        }

        PipelineReport {
            pairs,
            templates: n_templates,
            sql_queries,
            gen_stats,
            nl_candidates,
            dropped_discriminator,
            dropped_duplicate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::SplitStats;
    use sb_data::{Domain, SizeClass};

    fn run_sdss(config: PipelineConfig) -> PipelineReport {
        let d = Domain::Sdss.build(SizeClass::Tiny);
        let seeds = d.seed_patterns.clone();
        let mut p = Pipeline::new(&d, config);
        p.run(&seeds)
    }

    #[test]
    fn produces_target_pairs() {
        let report = run_sdss(PipelineConfig {
            target_pairs: 60,
            ..Default::default()
        });
        assert_eq!(report.pairs.len(), 60);
        assert!(report.templates >= 10);
        assert!(report.sql_queries >= 30);
    }

    #[test]
    fn synth_sql_is_executable_and_nonempty() {
        let d = Domain::Sdss.build(SizeClass::Tiny);
        let seeds = d.seed_patterns.clone();
        let mut p = Pipeline::new(
            &d,
            PipelineConfig {
                target_pairs: 40,
                ..Default::default()
            },
        );
        let report = p.run(&seeds);
        for pair in &report.pairs {
            let rs = d.db.run(&pair.sql).expect("synth sql executes");
            assert!(!rs.is_empty(), "{}", pair.sql);
        }
    }

    #[test]
    fn pipeline_is_deterministic() {
        let a = run_sdss(PipelineConfig {
            target_pairs: 30,
            ..Default::default()
        });
        let b = run_sdss(PipelineConfig {
            target_pairs: 30,
            ..Default::default()
        });
        assert_eq!(a.pairs, b.pairs);
    }

    #[test]
    fn synth_hardness_skews_lower_than_seed() {
        // §3.4: "the complexities of the queries generated by our pipeline
        // are generally lower than the complexity of the manually created
        // training data".
        let d = Domain::Sdss.build(SizeClass::Tiny);
        let seeds = d.seed_patterns.clone();
        let mut p = Pipeline::new(
            &d,
            PipelineConfig {
                target_pairs: 80,
                ..Default::default()
            },
        );
        let report = p.run(&seeds);
        let stats = SplitStats::of(&report.pairs);
        // Easy+Medium dominate.
        assert!(stats.counts[0] + stats.counts[1] > stats.counts[2] + stats.counts[3]);
    }

    #[test]
    fn distinct_questions_per_query() {
        let report = run_sdss(PipelineConfig {
            target_pairs: 40,
            ..Default::default()
        });
        // No (question, sql) duplicates.
        let mut seen = HashSet::new();
        for p in &report.pairs {
            assert!(seen.insert((p.question.clone(), p.sql.clone())));
        }
    }
}
