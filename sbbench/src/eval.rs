//! `eval_grid`: the Table 5 domain grid at `ExperimentConfig::quick`
//! size — 3 domains × 4 training regimes × 3 NL-to-SQL systems, each
//! cell training one system and scoring it on the domain's dev pairs
//! by execution accuracy through `sb_core::experiments::evaluate`.
//!
//! `sb-nl2sql` training and prediction and `sb-metrics` gold-cache
//! scoring dominate; SmBoP's candidate execution on sdss is the
//! largest single cost. Set-up builds the Spider-like corpus and the
//! three domain bundles.
//!
//! The grid does not depend on the benchmark seed. Its datasets are the
//! repository's own quick configuration: with 25 dev pairs per domain,
//! which questions are drawn moves the SmBoP sdss cell, and with it the
//! whole grid, by tens of percent between seeds. Its cells run in
//! `run_domain_grid`'s order: reordering them moved peak RSS by 30%.
//!
//! The grid runs once per run (about 25 s on two cores): its throughput
//! and latency carry no bound (see `PER_LAYER`), and a second pass
//! would cost a sixth of the time budget of a full benchmark campaign.

use crate::stats::{peak_rss_mb, percentile};
use crate::trace::{SpanBuf, Trace};
use crate::{repeat_setup, set_repeated, Digest, Outcome, RunSpec, Scale};
use rayon::prelude::*;
use sb_core::experiments::{build_domain_bundle, evaluate, fresh_systems, DomainBundle};
use sb_core::{ExperimentConfig, NlSqlPair, SpiderPairs, SpiderSetConfig, TrainRegime};
use sb_data::{Domain, SizeClass};
use sb_engine::Database;
use sb_metrics::{execution_match, execution_match_cached, GoldCache};
use sb_nl2sql::{DbCatalog, NlToSql, Pair};
use std::time::Instant;

/// The experiment configuration: `ExperimentConfig::quick`, or a
/// seconds-scale grid for the smoke test.
pub fn config(scale: Scale) -> ExperimentConfig {
    match scale {
        Scale::Bench => ExperimentConfig::quick(),
        Scale::Smoke => ExperimentConfig {
            size: SizeClass::Tiny,
            scale: 0.03,
            spider: SpiderSetConfig {
                train_total: 60,
                dev_total: 20,
                databases: 2,
                seed: 5,
            },
            seed: 5,
        },
    }
}

/// Everything set-up builds.
struct Setup {
    spider: SpiderPairs,
    bundles: Vec<DomainBundle>,
}

/// Cells in the grid: 3 domains × 4 regimes × 3 systems.
const CELLS: usize = 36;

/// The regime (Seed + Synth, the largest training set) whose nine cells
/// the oracle re-derives and the engine-rows pass predicts with.
const CHECKED_REGIME: usize = 3;

/// Cell `c`'s `(regime, domain, system)` indices, in `run_domain_grid`'s
/// order: domain, then regime, then system.
fn cell_of(c: usize) -> (usize, usize, usize) {
    (c / 3 % 4, c / 12, c % 3)
}

/// Inputs derived from the set-up: the training set of every
/// (domain, regime) and each domain's catalog.
struct Grid<'a> {
    setup: &'a Setup,
    training: Vec<Vec<Vec<Pair>>>,
    catalogs: Vec<DbCatalog<'a>>,
}

fn train_pairs(pairs: &[NlSqlPair]) -> Vec<Pair> {
    pairs
        .iter()
        .map(|p| Pair::new(p.question.clone(), p.sql.clone(), p.db.clone()))
        .collect()
}

impl<'a> Grid<'a> {
    fn new(setup: &'a Setup) -> Grid<'a> {
        let spider_train = train_pairs(&setup.spider.train);
        let training = setup
            .bundles
            .iter()
            .map(|b| {
                let seed = train_pairs(&b.dataset.seed);
                let synth = train_pairs(&b.dataset.synth);
                TrainRegime::ALL
                    .iter()
                    .map(|regime| {
                        let mut t = spider_train.clone();
                        match regime {
                            TrainRegime::ZeroShot => {}
                            TrainRegime::PlusSeed => t.extend(seed.iter().cloned()),
                            TrainRegime::PlusSynth => t.extend(synth.iter().cloned()),
                            TrainRegime::PlusSeedSynth => {
                                t.extend(seed.iter().cloned());
                                t.extend(synth.iter().cloned());
                            }
                        }
                        t
                    })
                    .collect()
            })
            .collect();
        let catalogs = setup
            .bundles
            .iter()
            .map(|b| {
                let mut dbs: Vec<&Database> = setup
                    .spider
                    .corpus
                    .databases
                    .iter()
                    .map(|d| &d.db)
                    .collect();
                dbs.push(&b.data.db);
                DbCatalog::new(dbs)
            })
            .collect();
        Grid {
            setup,
            training,
            catalogs,
        }
    }

    fn db(&self, d: usize) -> &'a Database {
        &self.setup.bundles[d].data.db
    }

    fn dev(&self, d: usize) -> &'a [NlSqlPair] {
        &self.setup.bundles[d].dataset.dev
    }

    /// A fresh system trained for cell `(regime, d, k)`.
    fn trained(
        &self,
        (regime, d, k): (usize, usize, usize),
        buf: Option<(&mut SpanBuf, u64)>,
    ) -> Box<dyn NlToSql> {
        let mut system = fresh_systems().swap_remove(k);
        let mut train = || system.train(&self.training[d][regime], &self.catalogs[d]);
        match buf {
            Some((buf, id)) => buf.span("nl2sql.train", id, |_| train()),
            None => train(),
        }
        system
    }
}

/// One scored cell of a run.
struct Cell {
    /// `(regime, domain, system)`.
    cell: (usize, usize, usize),
    accuracy: f64,
    lat_ns: u64,
}

/// Run `eval_grid`.
pub fn run(spec: &RunSpec) -> Outcome {
    let mut out = Outcome::default();
    let cfg = config(spec.scale);
    let (setup, setup_s, bundle_s) = repeat_setup(spec.setup_reps(), || {
        let spider = SpiderPairs::build(&cfg.spider);
        let t0 = Instant::now();
        let bundles: Vec<DomainBundle> = Domain::ALL
            .iter()
            .map(|d| build_domain_bundle(*d, &cfg))
            .collect();
        let took = t0.elapsed();
        (Setup { spider, bundles }, took)
    });
    let grid = Grid::new(&setup);

    // One gold cache per domain, as `run_domain_grid` keeps one per
    // bundle.
    let caches: Vec<GoldCache> = Domain::ALL.iter().map(|_| GoldCache::new()).collect();
    let cells: Vec<Cell> = (0..CELLS)
        .map(|c| {
            let cell = cell_of(c);
            let d = cell.1;
            let t0 = Instant::now();
            let system = grid.trained(cell, None);
            let name = Domain::ALL[d].name();
            let db = grid.db(d);
            let accuracy = evaluate(system.as_ref(), grid.dev(d), &caches[d], |n| {
                n.eq_ignore_ascii_case(name).then_some(db)
            });
            Cell {
                cell,
                accuracy,
                lat_ns: t0.elapsed().as_nanos() as u64,
            }
        })
        .collect();
    // Before the oracle and the replay, so it is the measured grid's peak.
    let peak_rss = peak_rss_mb();
    let items: Vec<(f64, Vec<u64>)> = cells
        .iter()
        .map(|c| (grid.dev(c.cell.1).len() as f64, vec![c.lat_ns]))
        .collect();
    set_repeated(&mut out, &items);
    out.set("setup_s", setup_s);
    let scored: f64 = cells.iter().map(|c| grid.dev(c.cell.1).len() as f64).sum();
    let untraced_ops_per_s = scored / cells.iter().map(|c| c.lat_ns as f64 / 1e9).sum::<f64>();

    out.attempted = scored as u64;
    out.failed = check(&grid, &cells);
    if spec.scale == Scale::Bench {
        out.digest = Some(Digest {
            committed: include_str!("../expected/eval_accuracies.txt"),
            produced: accuracies(&grid, &cells),
        });
    }

    if spec.trace {
        out.set("core.bundle_s", bundle_s);
        traced_replay(&grid, &cfg, &cells, untraced_ops_per_s, &mut out);
    }
    out.set("peak_rss_mb", peak_rss);
    out
}

/// The grid oracle. For [`CHECKED_REGIME`]'s cells — every domain with
/// every system — the system is trained again, each dev pair's verdict
/// is re-derived with uncached `execution_match` and compared with the
/// gold-cached verdict, and the re-derived accuracy must equal
/// `evaluate`'s. All accuracies are also compared with the committed
/// digest. Returns the failed pairs.
fn check(grid: &Grid, cells: &[Cell]) -> u64 {
    let mut failed = 0;
    for cell in cells.iter().filter(|c| c.cell.0 == CHECKED_REGIME) {
        let d = cell.cell.1;
        let (db, dev) = (grid.db(d), grid.dev(d));
        let system = grid.trained(cell.cell, None);
        let cache = GoldCache::new();
        let verdicts: Vec<(bool, bool)> = dev
            .par_iter()
            .map(|p| {
                let predicted = system.predict(&p.question, db);
                (
                    execution_match_cached(&cache, db, &p.sql, &predicted),
                    execution_match(db, &p.sql, &predicted),
                )
            })
            .collect();
        let split = verdicts.iter().filter(|(a, b)| a != b).count() as u64;
        let hits = verdicts.iter().filter(|(_, b)| *b).count();
        let rederived = hits as f64 / dev.len() as f64;
        failed += if rederived == cell.accuracy {
            split
        } else {
            dev.len() as u64
        };
    }
    failed
}

/// One line per cell of one grid, in Table 5 order:
/// `domain|regime|system|accuracy|dev pairs`.
fn accuracies(grid: &Grid, cells: &[Cell]) -> String {
    cells
        .iter()
        .map(|cell| {
            let (regime, d, k) = cell.cell;
            let domain = Domain::ALL[d].name();
            format!(
                "{domain}|{}|{}|{}|{}\n",
                TrainRegime::ALL[regime].label(domain),
                fresh_systems()[k].name(),
                cell.accuracy,
                grid.dev(d).len()
            )
        })
        .collect()
}

/// The metric suffix of a system's predict time.
fn system_key(k: usize) -> &'static str {
    [
        "nl2sql.predict_s.valuenet",
        "nl2sql.predict_s.t5",
        "nl2sql.predict_s.smbop",
    ][k]
}

/// The grid replayed with tracing, the same cells in the same order:
/// train, then `evaluate`'s per-pair predict and gold-cached match,
/// each call in a span.
fn traced_replay(
    grid: &Grid,
    cfg: &ExperimentConfig,
    cells: &[Cell],
    untraced_ops_per_s: f64,
    out: &mut Outcome,
) {
    let epoch = Instant::now();
    let mut buf = SpanBuf::new(epoch, 0, 1 << 16);
    let mut kept: Vec<(usize, Box<dyn NlToSql>)> = Vec::new();
    let mut diverged = 0;
    let mut scored = 0;
    let t0 = Instant::now();
    let caches: Vec<GoldCache> = Domain::ALL.iter().map(|_| GoldCache::new()).collect();
    for (c, measured) in cells.iter().enumerate() {
        let d = measured.cell.1;
        let id = c as u64;
        let root = buf.enter("bench.cell", id);
        let system = grid.trained(measured.cell, Some((&mut buf, id)));
        let (db, dev, cache) = (grid.db(d), grid.dev(d), &caches[d]);
        let region = buf.enter("bench.evaluate", id);
        let items: Vec<(bool, SpanBuf)> = dev
            .par_iter()
            .map(|p| {
                let mut item = SpanBuf::new(epoch, 0, 2);
                let predicted =
                    item.span("nl2sql.predict", id, |_| system.predict(&p.question, db));
                let hit = item.span("metrics.match", id, |_| {
                    execution_match_cached(cache, db, &p.sql, &predicted)
                });
                (hit, item)
            })
            .collect();
        let mut hits = 0;
        for (hit, item) in items {
            hits += hit as usize;
            buf.adopt(item);
        }
        buf.exit(region);
        buf.exit(root);
        if measured.accuracy != hits as f64 / dev.len() as f64 {
            diverged += 1;
        }
        if measured.cell.0 == CHECKED_REGIME {
            kept.push((d, system));
        }
        scored += dev.len();
    }
    let wall = t0.elapsed();
    let gold = caches
        .iter()
        .fold((0, 0), |(h, m), c| (h + c.hits(), m + c.misses()));
    if diverged > 0 {
        out.problems
            .push(format!("{diverged} traced cells differ from evaluate()"));
    }

    let mut trace = Trace::default();
    trace.absorb(buf);
    let predict = trace.durations("nl2sql.predict");
    let mut per_system = [0u64; 3];
    for s in trace.spans.iter().filter(|s| s.name == "nl2sql.predict") {
        per_system[cells[s.trace_id as usize].cell.2] += s.duration_ns();
    }
    out.set(
        "nl2sql.train_s",
        trace.total_ns("nl2sql.train") as f64 / 1e9,
    );
    out.set(
        "nl2sql.predict_ms_p50",
        percentile(&predict, 0.50) as f64 / 1e6,
    );
    out.set(
        "nl2sql.predict_ms_p99",
        percentile(&predict, 0.99) as f64 / 1e6,
    );
    for (k, ns) in per_system.iter().enumerate() {
        out.set(system_key(k), *ns as f64 / 1e9);
    }
    out.set(
        "metrics.match_ms_p50",
        percentile(&trace.durations("metrics.match"), 0.50) as f64 / 1e6,
    );
    out.set(
        "metrics.gold_cache.hit_ratio",
        gold.0 as f64 / (gold.0 + gold.1) as f64,
    );
    let busy = trace.total_ns("nl2sql.predict") + trace.total_ns("metrics.match");
    let regions = trace.total_ns("bench.evaluate") * rayon::current_num_threads() as u64;
    out.set(
        "core.evaluate_parallel_efficiency",
        busy as f64 / regions as f64,
    );
    let traced_ops_per_s = scored as f64 / wall.as_secs_f64();
    out.set(
        "trace.overhead_pct",
        100.0 * (1.0 - traced_ops_per_s / untraced_ops_per_s),
    );
    out.set("trace.coverage_pct", 100.0 * trace.coverage(&[0]));
    out.trace = Some(trace);

    out.set(
        "nl2sql.engine_rows_per_predict",
        engine_rows_per_predict(grid, &kept),
    );
    let t0 = Instant::now();
    for d in Domain::ALL {
        d.build(cfg.size);
    }
    out.set("data.build_s", t0.elapsed().as_secs_f64());
}

/// Engine rows scanned per prediction: the `engine.scan.rows` counter's
/// growth over a pass of predictions by [`CHECKED_REGIME`]'s systems,
/// collected with `sb-obs` on for that pass only.
fn engine_rows_per_predict(grid: &Grid, kept: &[(usize, Box<dyn NlToSql>)]) -> f64 {
    sb_obs::set_mode(sb_obs::Mode::Summary);
    sb_obs::reset();
    let mut predictions = 0;
    for (d, system) in kept {
        let d = *d;
        for p in grid.dev(d) {
            system.predict(&p.question, grid.db(d));
            predictions += 1;
        }
    }
    let rows = sb_obs::snapshot().counter("engine.scan.rows");
    sb_obs::set_mode(sb_obs::Mode::Off);
    sb_obs::reset();
    rows as f64 / predictions as f64
}
