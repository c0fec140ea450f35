//! Criterion micro-benchmarks for every substrate of the reproduction,
//! plus the ablation benches DESIGN.md calls out (enhanced-schema
//! constraints on/off, discriminative phase on/off, k ∈ {1,2}).
//!
//! ```sh
//! cargo bench -p sb-bench
//! ```

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use sb_core::{Pipeline, PipelineConfig};
use sb_data::{synth_db, Domain, SizeClass, SynthScale};
use sb_embed::discriminate::geometric_median;
use sb_embed::{embed, select_top_k};
use sb_gen::Generator;
use sb_nl::{LlmProfile, Realizer, Style};
use sb_nl2sql::{DbCatalog, NlToSql, Pair, SmBopSim, T5Sim, ValueNetSim};

const PARSE_CASES: [&str; 3] = [
    "SELECT s.specobjid FROM specobj AS s WHERE s.subclass = 'STARBURST'",
    "SELECT s.bestobjid, s.ra, s.dec, s.z FROM specobj AS s \
     WHERE s.class = 'GALAXY' AND s.z > 0.5 AND s.z < 1",
    "SELECT p.objid, s.specobjid FROM photoobj AS p \
     JOIN specobj AS s ON s.bestobjid = p.objid \
     WHERE s.class = 'GALAXY' AND p.u - p.r < 2.22 AND p.u - p.r > 1",
];

fn bench_parser(c: &mut Criterion) {
    let mut g = c.benchmark_group("sql_parser");
    for (label, sql) in ["q1_easy", "q2_medium", "q3_extra"].iter().zip(PARSE_CASES) {
        g.bench_function(label, |b| {
            b.iter(|| sb_sql::parse(std::hint::black_box(sql)))
        });
    }
    g.finish();
}

fn bench_engine(c: &mut Criterion) {
    use sb_engine::ExecOptions;
    let d = Domain::Sdss.build(SizeClass::Small);
    let mut g = c.benchmark_group("engine_execution");
    g.sample_size(20);
    // The headline names run with default options (columnar batch engine
    // on); the `_row` twins force the row-at-a-time path, so the pair
    // isolates the vectorization win on the exact historical workload.
    let row_opts = ExecOptions {
        columnar: false,
        ..ExecOptions::default()
    };
    let agg = "SELECT s.class, COUNT(*), AVG(s.z) FROM specobj AS s GROUP BY s.class";
    let cases = ["q1_easy", "q2_medium", "q3_extra", "grouped_aggregation"]
        .iter()
        .zip([PARSE_CASES[0], PARSE_CASES[1], PARSE_CASES[2], agg]);
    for (label, sql) in cases {
        let q = sb_sql::parse(sql).unwrap();
        g.bench_function(label, |b| {
            b.iter(|| d.db.run_query(std::hint::black_box(&q)))
        });
        g.bench_function(&format!("{label}_row"), |b| {
            b.iter(|| d.db.run_query_with(std::hint::black_box(&q), row_opts))
        });
    }
    g.finish();
}

/// One query per vectorized kernel over the `sb_data::synth` workload:
/// `filter` isolates the predicate kernels (numeric compare +
/// dictionary LUT equality over a selection vector), `hash_probe` the
/// batch hash join (every fk matches exactly one dim row), `aggregate`
/// the grouped kernels (16 dictionary-keyed groups, COUNT/SUM/AVG
/// accumulators).
const SYNTH_KERNELS: [(&str, &str); 3] = [
    ("filter", "SELECT id FROM t WHERE val > 0.5 AND flag = 3"),
    ("hash_probe", "SELECT t.id FROM t JOIN dim ON t.fk = dim.id"),
    (
        "aggregate",
        "SELECT grp, COUNT(*), SUM(val), AVG(val) FROM t GROUP BY grp",
    ),
];

/// Uncorrelated subquery filters, which run their subquery once per
/// statement and use it as a constant: a hashed membership set for
/// `IN`, a literal for the scalar comparison. Bench in
/// `columnar_operators` only; `scaling_curve` keeps the three kernels
/// above.
const SUBQUERY_KERNELS: [(&str, &str); 2] = [
    (
        "in_subquery",
        "SELECT id FROM t WHERE fk IN (SELECT id FROM dim WHERE name < 'd0512')",
    ),
    (
        "scalar_subquery",
        "SELECT id FROM t WHERE fk > (SELECT MAX(id) FROM dim WHERE name < 'd0512')",
    ),
];

/// The synthetic scales to bench: all three by default, or the one
/// selected with `cargo bench -p sb-bench -- --scale 10k|100k|1m`.
fn selected_scales() -> Vec<SynthScale> {
    let args: Vec<String> = std::env::args().collect();
    match args.iter().position(|a| a == "--scale") {
        None => SynthScale::ALL.to_vec(),
        Some(i) => {
            let value = args.get(i + 1).map(String::as_str).unwrap_or("");
            match SynthScale::parse(value) {
                Some(s) => vec![s],
                None => {
                    eprintln!("microbench: --scale wants 10k, 100k or 1m (got `{value}`)");
                    std::process::exit(2);
                }
            }
        }
    }
}

fn bench_columnar_operators(c: &mut Criterion) {
    use sb_engine::ExecOptions;
    // Each kernel at each selected scale, with a `_row` twin on the
    // row-at-a-time engine — the pair isolates the vectorization win.
    let row_opts = ExecOptions {
        columnar: false,
        ..ExecOptions::default()
    };
    let mut g = c.benchmark_group("columnar_operators");
    g.sample_size(10);
    for scale in selected_scales() {
        let db = synth_db(scale.rows());
        for (kernel, sql) in SYNTH_KERNELS.into_iter().chain(SUBQUERY_KERNELS) {
            let q = sb_sql::parse(sql).unwrap();
            // Pay the lazy column-vector build once, outside the timer.
            db.run_query(&q).unwrap();
            g.bench_function(&format!("{kernel}_{}", scale.label()), |b| {
                b.iter(|| db.run_query(std::hint::black_box(&q)))
            });
            g.bench_function(&format!("{kernel}_{}_row", scale.label()), |b| {
                b.iter(|| db.run_query_with(std::hint::black_box(&q), row_opts))
            });
        }
    }
    g.finish();
}

fn bench_scaling_curve(c: &mut Criterion) {
    use sb_engine::ExecOptions;
    // Rows vs throughput per operator, serial vs morsel-parallel. The
    // serial leg pins `parallel: false`; the parallel leg runs the
    // default options, so `RAYON_NUM_THREADS` governs the fan-out the
    // way it does in deployment. Both compute byte-identical results —
    // the curve measures scheduling, never semantics.
    let serial = ExecOptions {
        parallel: false,
        ..ExecOptions::default()
    };
    let parallel = ExecOptions::default();
    let mut g = c.benchmark_group("scaling_curve");
    g.sample_size(10);
    for scale in selected_scales() {
        let db = synth_db(scale.rows());
        for (kernel, sql) in SYNTH_KERNELS {
            let q = sb_sql::parse(sql).unwrap();
            // Pay the lazy column-vector build once, outside the timer.
            db.run_query(&q).unwrap();
            g.bench_function(&format!("{kernel}_{}_serial", scale.label()), |b| {
                b.iter(|| db.run_query_with(std::hint::black_box(&q), serial))
            });
            g.bench_function(&format!("{kernel}_{}_parallel", scale.label()), |b| {
                b.iter(|| db.run_query_with(std::hint::black_box(&q), parallel))
            });
        }
    }
    g.finish();
}

fn bench_data_build(c: &mut Criterion) {
    use sb_engine::profile_database;
    // The two halves of building a domain: generating its rows into
    // every table's columnar image (and profiling it once, as
    // `Domain::build` does), then the profile counted over the images.
    let mut g = c.benchmark_group("data_build");
    g.sample_size(10);
    g.bench_function("build_sdss_full", |b| {
        b.iter(|| Domain::Sdss.build(std::hint::black_box(SizeClass::Full)))
    });
    let db = Domain::Sdss.build(SizeClass::Full).db;
    g.bench_function("profile_sdss_full", |b| {
        b.iter(|| profile_database(std::hint::black_box(&db)))
    });
    g.finish();
}

fn bench_exec_acc_cached(c: &mut Criterion) {
    use sb_metrics::{execution_accuracy, execution_accuracy_cached, GoldCache};
    let d = Domain::Sdss.build(SizeClass::Small);
    // A dev-set-shaped workload: each gold query scored against several
    // predictions, as the Table 5 grid does once per (system × regime).
    let pairs: Vec<(String, String)> = d
        .seed_patterns
        .iter()
        .flat_map(|gold| {
            [
                (gold.clone(), gold.clone()),
                (gold.clone(), "SELECT broken FROM".to_string()),
                (gold.clone(), d.seed_patterns[0].clone()),
            ]
        })
        .collect();
    let mut g = c.benchmark_group("exec_acc_cached");
    g.sample_size(10);
    g.bench_function("uncached", |b| {
        b.iter(|| execution_accuracy(&d.db, std::hint::black_box(&pairs)))
    });
    // One cache across iterations: gold executions amortize to zero,
    // as in a grid run where every cell shares the bundle's cache.
    let cache = GoldCache::new();
    g.bench_function("cached_warm", |b| {
        b.iter(|| execution_accuracy_cached(&cache, &d.db, std::hint::black_box(&pairs)))
    });
    // Cache effectiveness lands next to the timing in BENCH_engine.json:
    // distinct gold queries, lookups served from the memo, and the hit
    // rate over the whole measured run.
    let lookups = cache.hits() + cache.misses();
    g.metric("gold_cache_entries", cache.len() as f64);
    g.metric("gold_cache_hits", cache.hits() as f64);
    g.metric("gold_cache_misses", cache.misses() as f64);
    g.metric(
        "gold_cache_hit_rate",
        if lookups == 0 {
            0.0
        } else {
            cache.hits() as f64 / lookups as f64
        },
    );
    g.finish();
}

fn bench_join_strategies(c: &mut Criterion) {
    let d = Domain::Sdss.build(SizeClass::Small);
    let mut g = c.benchmark_group("join_strategies");
    g.sample_size(10);
    // A bare equi-join, run as a hash join.
    let join = sb_sql::parse(
        "SELECT p.objid, s.specobjid FROM photoobj AS p \
         JOIN specobj AS s ON s.bestobjid = p.objid",
    )
    .unwrap();
    g.bench_function("equi_join_hash", |b| {
        b.iter(|| d.db.run_query(std::hint::black_box(&join)))
    });
    // A selective single-table scan with its predicate pushed down.
    let filtered =
        sb_sql::parse("SELECT s.specobjid FROM specobj AS s WHERE s.class = 'QSO' AND s.z > 1.0")
            .unwrap();
    g.bench_function("filtered_scan_pushdown", |b| {
        b.iter(|| d.db.run_query(std::hint::black_box(&filtered)))
    });
    g.finish();
}

fn bench_templates_and_generation(c: &mut Criterion) {
    let d = Domain::Sdss.build(SizeClass::Tiny);
    let q = sb_sql::parse(PARSE_CASES[2]).unwrap();
    let mut g = c.benchmark_group("phase1_phase2");
    g.bench_function("template_extract_q3", |b| {
        b.iter(|| sb_semql::extract(std::hint::black_box(&q), &d.db.schema))
    });
    let template = sb_semql::extract(&q, &d.db.schema).unwrap();
    g.bench_function("algorithm1_fill", |b| {
        b.iter_batched(
            || Generator::new(&d.db, &d.enhanced, 7),
            |mut gen| {
                let _ = gen.fill(std::hint::black_box(&template));
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_nl_and_embedding(c: &mut Criterion) {
    let d = Domain::Sdss.build(SizeClass::Tiny);
    let q = sb_sql::parse(PARSE_CASES[1]).unwrap();
    let realizer = Realizer::new(&d.enhanced);
    let mut g = c.benchmark_group("phase3_phase4");
    g.bench_function("realize_q2", |b| {
        b.iter(|| realizer.realize(std::hint::black_box(&q), Style::reference()))
    });
    g.bench_function("llm_translate_q2", |b| {
        b.iter_batched(
            || {
                let mut m = LlmProfile::gpt3_finetuned(3);
                m.fine_tune("sdss", 468);
                m
            },
            |mut m| m.translate(std::hint::black_box(&q), &d.enhanced),
            BatchSize::SmallInput,
        )
    });
    g.bench_function("embed_sentence", |b| {
        b.iter(|| {
            embed(std::hint::black_box(
                "find the redshift of spectroscopically observed galaxies",
            ))
        })
    });
    let candidates: Vec<String> = (0..8)
        .map(|i| format!("find galaxies with redshift over 0.{i}"))
        .collect();
    g.bench_function("discriminator_select_8", |b| {
        b.iter(|| select_top_k(std::hint::black_box(&candidates), 2))
    });
    let points: Vec<_> = candidates.iter().map(|c| embed(c)).collect();
    g.bench_function("geometric_median_8", |b| {
        b.iter(|| geometric_median(std::hint::black_box(&points)))
    });
    g.finish();
}

fn bench_pipeline(c: &mut Criterion) {
    let d = Domain::Sdss.build(SizeClass::Tiny);
    let seeds = d.seed_patterns.clone();
    let mut g = c.benchmark_group("pipeline_end_to_end");
    g.sample_size(10);
    // Ablations: constraints on/off, discrimination on/off, k ∈ {1,2}.
    let configs = [
        ("full_k2", true, true, 2usize),
        ("no_enhanced_constraints", false, true, 2),
        ("no_discrimination", true, false, 2),
        ("keep_k1", true, true, 1),
    ];
    for (label, use_enhanced, discriminate, k) in configs {
        g.bench_function(label, |b| {
            b.iter(|| {
                let mut pipeline = Pipeline::new(
                    &d,
                    PipelineConfig {
                        target_pairs: 12,
                        use_enhanced_constraints: use_enhanced,
                        discriminate,
                        keep_k: k,
                        ..Default::default()
                    },
                );
                pipeline.run(std::hint::black_box(&seeds))
            })
        });
    }
    g.finish();
}

fn bench_nl2sql_predict(c: &mut Criterion) {
    let d = Domain::Sdss.build(SizeClass::Tiny);
    let catalog = DbCatalog::new([&d.db]);
    let pairs: Vec<Pair> = d
        .seed_patterns
        .iter()
        .map(|sql| {
            let q = sb_sql::parse(sql).unwrap();
            let realizer = Realizer::new(&d.enhanced);
            Pair::new(
                realizer.realize(&q, Style::reference()),
                sql.clone(),
                "sdss",
            )
        })
        .collect();
    let question = "Find the spectroscopic objects whose class is GALAXY";
    let mut g = c.benchmark_group("nl2sql_predict");
    g.sample_size(10);

    let mut vn = ValueNetSim::new();
    vn.train(&pairs, &catalog);
    g.bench_function("valuenet", |b| {
        b.iter(|| vn.predict(std::hint::black_box(question), &d.db))
    });
    let mut t5 = T5Sim::new();
    t5.train(&pairs, &catalog);
    g.bench_function("t5", |b| {
        b.iter(|| t5.predict(std::hint::black_box(question), &d.db))
    });
    let mut sb = SmBopSim::new();
    sb.train(&pairs, &catalog);
    g.bench_function("smbop", |b| {
        b.iter(|| sb.predict(std::hint::black_box(question), &d.db))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_parser,
    bench_engine,
    bench_columnar_operators,
    bench_scaling_curve,
    bench_data_build,
    bench_exec_acc_cached,
    bench_join_strategies,
    bench_templates_and_generation,
    bench_nl_and_embedding,
    bench_pipeline,
    bench_nl2sql_predict
);
criterion_main!(benches);
