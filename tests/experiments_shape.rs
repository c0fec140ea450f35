//! Integration tests asserting the *shape* of the paper's experimental
//! claims on miniature runs (Table 5 and §5.4).

use sciencebenchmark::core::experiments::{evaluate, fresh_systems, run_domain_grid};
use sciencebenchmark::core::{ExperimentConfig, SpiderPairs, SpiderSetConfig};
use sciencebenchmark::data::{Domain, SizeClass};
use sciencebenchmark::metrics::GoldCache;
use sciencebenchmark::nl2sql::{DbCatalog, Pair};

fn mini_config() -> ExperimentConfig {
    ExperimentConfig {
        size: SizeClass::Tiny,
        scale: 0.15,
        spider: SpiderSetConfig {
            train_total: 180,
            dev_total: 45,
            databases: 3,
            seed: 31,
        },
        seed: 31,
    }
}

#[test]
fn domain_training_lifts_every_system_on_oncomx() {
    // The paper's headline: domain data (seed+synth) beats zero-shot for
    // every system; OncoMX shows the largest gains.
    let cfg = mini_config();
    let spider = SpiderPairs::build(&cfg.spider);
    let results = run_domain_grid(&cfg, &spider, &[Domain::OncoMx]);
    assert_eq!(results.len(), 12);
    for system in ["ValueNet", "T5-Large w/o PICARD", "SmBoP+GraPPa"] {
        let get = |needle: &str| {
            results
                .iter()
                .find(|r| r.system == system && r.regime.contains(needle))
                .map(|r| r.accuracy)
                .unwrap()
        };
        let zero = get("Zero-Shot");
        let best = get("+ Synth");
        assert!(
            best + 1e-9 >= zero,
            "{system}: domain training must not lose to zero-shot ({best} vs {zero})"
        );
    }
}

#[test]
fn in_domain_spider_beats_zero_shot_domain_transfer() {
    // Table 5's control: systems trained and evaluated on Spider-like
    // data score far above zero-shot transfer to a scientific domain.
    let cfg = mini_config();
    let spider = SpiderPairs::build(&cfg.spider);
    let train: Vec<Pair> = spider
        .train
        .iter()
        .map(|p| Pair::new(p.question.clone(), p.sql.clone(), p.db.clone()))
        .collect();
    let catalog = DbCatalog::new(spider.corpus.databases.iter().map(|d| &d.db));

    let sdss = Domain::Sdss.build(SizeClass::Tiny);
    let sdss_bundle = sciencebenchmark::core::experiments::build_domain_bundle(Domain::Sdss, &cfg);

    let mut in_domain_best = 0.0f64;
    let mut transfer_best = 0.0f64;
    let gold_cache = GoldCache::new();
    for mut system in fresh_systems() {
        system.train(&train, &catalog);
        let spider_acc = evaluate(system.as_ref(), &spider.dev, &gold_cache, |name| {
            spider
                .corpus
                .databases
                .iter()
                .find(|d| d.db.schema.name.eq_ignore_ascii_case(name))
                .map(|d| &d.db)
        });
        let sdss_acc = evaluate(
            system.as_ref(),
            &sdss_bundle.dataset.dev,
            &gold_cache,
            |name| {
                if name.eq_ignore_ascii_case("sdss") {
                    Some(&sdss_bundle.data.db)
                } else {
                    None
                }
            },
        );
        in_domain_best = in_domain_best.max(spider_acc);
        transfer_best = transfer_best.max(sdss_acc);
    }
    let _ = &sdss;
    assert!(
        in_domain_best > transfer_best,
        "in-domain Spider accuracy ({in_domain_best}) must exceed zero-shot SDSS transfer ({transfer_best})"
    );
    assert!(
        transfer_best < 0.35,
        "zero-shot transfer to SDSS must be poor (got {transfer_best})"
    );
}

#[test]
fn pipeline_report_accounts_for_every_rejection() {
    use sciencebenchmark::core::{Pipeline, PipelineConfig};
    let d = Domain::Sdss.build(SizeClass::Tiny);
    let seeds = d.seed_patterns.clone();
    let config = PipelineConfig {
        target_pairs: 60,
        ..Default::default()
    };
    let mut p = Pipeline::new(&d, config.clone());
    let report = p.run(&seeds);

    // Phase 2: every sampling attempt is accounted for by exactly one
    // outcome, and the accepted count is what later phases consumed.
    let gs = &report.gen_stats;
    assert_eq!(gs.accepted, report.sql_queries);
    // Phases 2-4 stop at the pair target: with up to `keep_k` = 2 pairs
    // per query, far fewer queries than pairs are generated.
    assert!(
        report.sql_queries < config.target_pairs,
        "generated {} queries for {} pairs",
        report.sql_queries,
        config.target_pairs
    );
    assert_eq!(
        gs.attempts(),
        gs.accepted
            + gs.rejected_sampling
            + gs.rejected_execution
            + gs.rejected_empty
            + gs.rejected_duplicate
    );
    // The Tiny SDSS workload exercises at least the sampling and
    // empty-result rejection paths.
    assert!(gs.rejected_sampling > 0, "no sampling rejections recorded");
    assert!(gs.rejected_empty > 0, "no empty-result rejections recorded");

    // Phases 3+4: candidates fan out per query, the discriminator drops
    // the rest, and the merge dedups.
    assert_eq!(
        report.nl_candidates,
        report.sql_queries * config.candidates_per_query
    );
    assert!(
        report.dropped_discriminator > 0,
        "discriminator dropped nothing"
    );
    assert!(
        report.dropped_discriminator <= report.nl_candidates,
        "cannot drop more candidates than were generated"
    );
    // Kept = candidates − discriminator drops; emitted pairs can only
    // shrink further (merge dedup + truncation at the target).
    let kept = report.nl_candidates - report.dropped_discriminator;
    assert!(report.pairs.len() + report.dropped_duplicate <= kept);
    assert_eq!(report.pairs.len(), config.target_pairs);

    // Determinism: rejection accounting is part of the report contract,
    // so a re-run must reproduce it exactly.
    let again = Pipeline::new(&d, config).run(&seeds);
    assert_eq!(again.gen_stats, report.gen_stats);
    assert_eq!(again.nl_candidates, report.nl_candidates);
    assert_eq!(again.dropped_discriminator, report.dropped_discriminator);
    assert_eq!(again.dropped_duplicate, report.dropped_duplicate);
}

#[test]
fn dataset_serialization_round_trips_through_json() {
    let cfg = mini_config();
    let bundle = sciencebenchmark::core::experiments::build_domain_bundle(Domain::Cordis, &cfg);
    let json = bundle.dataset.to_json();
    let back = sciencebenchmark::core::BenchmarkDataset::from_json(&json).unwrap();
    assert_eq!(bundle.dataset, back);
    assert!(json.contains("\"domain\": \"cordis\""));
}
