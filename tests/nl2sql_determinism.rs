//! Reproducible NL-to-SQL predictions: two independently trained
//! instances of a system must agree on every prediction. Maps whose
//! iteration order varied per instance once made tie-breaks and
//! floating-point sums, and with them a few predicted SQL strings, differ
//! between runs.

use sciencebenchmark::core::experiments::{build_domain_bundle, fresh_systems, DomainBundle};
use sciencebenchmark::core::{ExperimentConfig, NlSqlPair, SpiderPairs};
use sciencebenchmark::data::Domain;
use sciencebenchmark::engine::Database;
use sciencebenchmark::nl2sql::{DbCatalog, Linker, NlToSql, Pair};

fn pairs(ps: &[NlSqlPair]) -> Vec<Pair> {
    ps.iter()
        .map(|p| Pair::new(p.question.clone(), p.sql.clone(), p.db.clone()))
        .collect()
}

/// The cordis quick Seed + Synth cell: its bundle, its training pairs and
/// the Spider-like corpus its catalog draws on.
fn cordis_seed_synth() -> (SpiderPairs, DomainBundle, Vec<Pair>) {
    let cfg = ExperimentConfig::quick();
    let spider = SpiderPairs::build(&cfg.spider);
    let bundle = build_domain_bundle(Domain::Cordis, &cfg);
    let mut training = pairs(&spider.train);
    training.extend(pairs(&bundle.dataset.seed));
    training.extend(pairs(&bundle.dataset.synth));
    (spider, bundle, training)
}

fn catalog<'a>(spider: &'a SpiderPairs, bundle: &'a DomainBundle) -> DbCatalog<'a> {
    let mut dbs: Vec<&Database> = spider.corpus.databases.iter().map(|d| &d.db).collect();
    dbs.push(&bundle.data.db);
    DbCatalog::new(dbs)
}

#[test]
fn independently_trained_systems_predict_identically() {
    let (spider, bundle, training) = cordis_seed_synth();
    let catalog = catalog(&spider, &bundle);
    let trained = || -> Vec<Box<dyn NlToSql>> {
        let mut systems = fresh_systems();
        for s in &mut systems {
            s.train(&training, &catalog);
        }
        systems
    };
    let (a, b) = (trained(), trained());
    for (a, b) in a.iter().zip(&b) {
        for p in &bundle.dataset.dev {
            assert_eq!(
                a.predict(&p.question, &bundle.data.db),
                b.predict(&p.question, &bundle.data.db),
                "{}: `{}`",
                a.name(),
                p.question
            );
        }
    }
}

#[test]
fn independently_trained_linkers_link_identically() {
    // Scores are compared to the bit: a sum taken in a different order
    // shows here even when it does not change a prediction.
    let (_spider, bundle, training) = cordis_seed_synth();
    let db = &bundle.data.db;
    let trained = || {
        let mut linker = Linker::new();
        for p in training
            .iter()
            .filter(|p| p.db.eq_ignore_ascii_case("cordis"))
        {
            linker.learn(p, db);
        }
        linker
    };
    let (a, b) = (trained(), trained());
    assert_eq!(a.learned_aliases("cordis"), b.learned_aliases("cordis"));
    for p in &bundle.dataset.dev {
        assert_eq!(
            format!("{:?}", a.link(&p.question, db)),
            format!("{:?}", b.link(&p.question, db)),
            "`{}`",
            p.question
        );
    }
}
