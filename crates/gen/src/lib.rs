//! # sb-gen — synthetic SQL generation (Phase 2 of the pipeline)
//!
//! Implements the paper's Algorithm 1: query templates extracted in the
//! seeding phase are filled with database content — tables, columns and
//! values — by constrained random sampling against the *enhanced schema*:
//!
//! - joined table slots are filled along the schema's foreign-key graph and
//!   the join columns come from the chosen FK edge;
//! - aggregated columns must be *aggregatable* (no `AVG(specobjid)`);
//! - `GROUP BY` columns must be *categorical* (no grouping by right
//!   ascension);
//! - math-operator operands must share a *math group* (no
//!   `length - area`);
//! - values are sampled from the actual database content (equality and
//!   `LIKE`) or the column's numeric range (comparisons).
//!
//! Every candidate query is validated by executing it on the database; by
//! default queries must also return a non-empty result, which is the
//! strongest cheap proxy for "meaningful".

pub mod sampler;

pub use sampler::parse_literal;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};
use rayon::prelude::*;
use sb_engine::Database;
use sb_schema::{DataProfile, EnhancedSchema};
use sb_semql::{Assignment, Template, TemplateError};
use sb_sql::Query;
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

/// Why a single fill attempt failed. Attempt failures are expected and
/// retried; they become interesting in aggregate (the generator reports
/// rejection statistics).
#[derive(Debug, Clone, PartialEq)]
pub enum GenError {
    /// No table is FK-joinable for a join edge of the template.
    NoJoinableTable,
    /// No column of the sampled table satisfies the slot's contexts.
    NoCandidateColumn(String),
    /// No value could be sampled for a slot (empty column).
    NoValue(String),
    /// The template could not be instantiated.
    Template(TemplateError),
    /// The instantiated query failed to execute.
    NotExecutable(String),
    /// The query executed but returned no rows (filtered out when
    /// `require_nonempty` is set).
    EmptyResult,
}

impl fmt::Display for GenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenError::NoJoinableTable => write!(f, "no FK-joinable table for a join slot"),
            GenError::NoCandidateColumn(m) => write!(f, "no candidate column: {m}"),
            GenError::NoValue(m) => write!(f, "no sampleable value: {m}"),
            GenError::Template(e) => write!(f, "template: {e}"),
            GenError::NotExecutable(m) => write!(f, "not executable: {m}"),
            GenError::EmptyResult => write!(f, "empty result"),
        }
    }
}

impl std::error::Error for GenError {}

impl From<TemplateError> for GenError {
    fn from(e: TemplateError) -> Self {
        GenError::Template(e)
    }
}

/// Generation options.
#[derive(Debug, Clone)]
pub struct GenOptions {
    /// Require generated queries to return at least one row.
    pub require_nonempty: bool,
    /// Maximum fill attempts per requested query before giving up.
    pub max_attempts_per_query: usize,
}

impl Default for GenOptions {
    fn default() -> Self {
        GenOptions {
            require_nonempty: true,
            max_attempts_per_query: 40,
        }
    }
}

/// One generated query with provenance.
#[derive(Debug, Clone)]
pub struct GeneratedQuery {
    /// The generated, validated SQL query.
    pub query: Query,
    /// Index of the template it was generated from.
    pub template_idx: usize,
}

/// Aggregate statistics over a generation run — how often each rejection
/// class fired. Used by the enhanced-schema ablation benchmark.
///
/// The counts cover the fill attempts actually made. Survivors are pulled
/// on demand (see [`Generator::generate`]), so no attempt runs whose query
/// the merge would discard unseen, and every attempt lands in exactly one
/// class.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GenStats {
    /// Queries accepted.
    pub accepted: usize,
    /// Attempts rejected before execution (sampling constraints).
    pub rejected_sampling: usize,
    /// Attempts rejected because execution failed.
    pub rejected_execution: usize,
    /// Attempts rejected for an empty result.
    pub rejected_empty: usize,
    /// Attempts rejected as duplicates of an already-accepted query.
    pub rejected_duplicate: usize,
}

impl GenStats {
    fn absorb(&mut self, other: &GenStats) {
        self.accepted += other.accepted;
        self.rejected_sampling += other.rejected_sampling;
        self.rejected_execution += other.rejected_execution;
        self.rejected_empty += other.rejected_empty;
        self.rejected_duplicate += other.rejected_duplicate;
    }

    /// Total attempts.
    pub fn attempts(&self) -> usize {
        self.accepted
            + self.rejected_sampling
            + self.rejected_execution
            + self.rejected_empty
            + self.rejected_duplicate
    }
}

/// Survivors one template slot may produce per round; the merge accepts
/// at most one, so the rest are fallbacks for when earlier survivors
/// duplicate accepted queries.
const MAX_SURVIVORS: usize = 3;

/// One template slot of one round: a resumable stream of fill attempts
/// that executes candidates only when the merge asks for the next
/// survivor. It keeps its RNG, attempt count and local de-duplication
/// set between pulls, so the survivor sequence is the same however many
/// of them are pulled.
struct AttemptBatch {
    rng: StdRng,
    attempts: usize,
    survivors: usize,
    local_seen: HashSet<String>,
    /// A survivor found in the parallel phase, held for the merge.
    pending: Option<(Query, String)>,
    stats: GenStats,
}

impl AttemptBatch {
    fn new(seed: u64) -> Self {
        AttemptBatch {
            rng: StdRng::seed_from_u64(seed),
            attempts: 0,
            survivors: 0,
            local_seen: HashSet::new(),
            pending: None,
            stats: GenStats::default(),
        }
    }

    /// The first survivor not in `seen` — the held one if it still
    /// qualifies, else the next ones pulled from the stream — or `None`
    /// once the slot has used up its survivors or attempts. Survivors
    /// skipped because `seen` has them count as duplicates.
    fn take_unseen(
        &mut self,
        gen: &Generator<'_>,
        template: &Template,
        opts: &GenOptions,
        seen: &HashSet<String>,
    ) -> Option<(Query, String)> {
        loop {
            let (query, sql) = match self.pending.take() {
                Some(held) => held,
                None => self.next_survivor(gen, template, opts)?,
            };
            if !seen.contains(&sql) {
                return Some((query, sql));
            }
            self.stats.rejected_duplicate += 1;
        }
    }

    /// Attempt fills until one executes (non-empty when required) and is
    /// new to this slot.
    fn next_survivor(
        &mut self,
        gen: &Generator<'_>,
        template: &Template,
        opts: &GenOptions,
    ) -> Option<(Query, String)> {
        while self.survivors < MAX_SURVIVORS && self.attempts < opts.max_attempts_per_query {
            self.attempts += 1;
            let query = match gen.fill_with(&mut self.rng, template) {
                Ok(q) => q,
                Err(GenError::Template(_)) | Err(GenError::NotExecutable(_)) => {
                    self.stats.rejected_execution += 1;
                    continue;
                }
                Err(_) => {
                    self.stats.rejected_sampling += 1;
                    continue;
                }
            };
            let sql = query.to_string();
            if self.local_seen.contains(&sql) {
                self.stats.rejected_duplicate += 1;
                continue;
            }
            match gen.db.run_query(&query) {
                Ok(rs) if opts.require_nonempty && rs.is_empty() => self.stats.rejected_empty += 1,
                Ok(_) => {
                    self.survivors += 1;
                    self.local_seen.insert(sql.clone());
                    return Some((query, sql));
                }
                Err(_) => self.stats.rejected_execution += 1,
            }
        }
        None
    }
}

/// Mix a per-run base seed with a round and template index into one
/// worker seed. `seed_from_u64` finishes the avalanche, so simple odd-
/// constant multiplies suffice to separate the streams.
fn derive_seed(base: u64, round: u64, template_idx: u64) -> u64 {
    base ^ round
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(template_idx.wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// The Phase 2 generator: fills templates against one database.
pub struct Generator<'a> {
    db: &'a Database,
    enhanced: &'a EnhancedSchema,
    profile: Arc<DataProfile>,
    rng: StdRng,
    /// When `false`, the enhanced-schema constraints are ignored (ablation
    /// mode): aggregates, group-bys and math operands sample any
    /// type-compatible column.
    pub use_enhanced_constraints: bool,
}

impl<'a> Generator<'a> {
    /// Create a generator with a deterministic seed.
    pub fn new(db: &'a Database, enhanced: &'a EnhancedSchema, seed: u64) -> Self {
        Generator {
            db,
            enhanced,
            profile: db.profile(),
            rng: StdRng::seed_from_u64(seed),
            use_enhanced_constraints: true,
        }
    }

    /// Algorithm 1: one fill attempt for a template. Fails fast on any
    /// constraint violation; callers retry.
    pub fn fill(&mut self, template: &Template) -> Result<Query, GenError> {
        let mut rng = self.rng.clone();
        let out = self.fill_with(&mut rng, template);
        self.rng = rng;
        out
    }

    /// One fill attempt with an explicit RNG — the reentrant core behind
    /// [`Generator::fill`], shared by the parallel generation workers.
    pub fn fill_with(&self, rng: &mut StdRng, template: &Template) -> Result<Query, GenError> {
        let tables = self.sample_tables(rng, template)?;
        let columns = self.sample_columns(rng, template, &tables)?;
        let values = self.sample_values(rng, template, &tables, &columns)?;
        let assignment = Assignment {
            tables,
            columns,
            values,
        };
        Ok(template.instantiate(&assignment)?)
    }

    /// Generate up to `n` validated, de-duplicated queries by cycling over
    /// the templates. Returns the queries and the rejection statistics.
    ///
    /// Equivalent to draining a fresh [`Generator::generation`] for `n`
    /// queries. Generation runs in rounds; in each round every template
    /// slot, in index order, contributes at most one query: the first of
    /// its (at most three) executable survivors that is not already
    /// accepted. That keeps the template mix balanced. Each slot draws
    /// from its own RNG seeded from `(base, round, template)`, so the
    /// output is identical for any `RAYON_NUM_THREADS`, and, for
    /// generators with the same seed, `generate(k)` returns a prefix of
    /// `generate(n)` when `k <= n`.
    pub fn generate(
        &mut self,
        templates: &[Template],
        n: usize,
        opts: &GenOptions,
    ) -> (Vec<GeneratedQuery>, GenStats) {
        if templates.is_empty() || n == 0 {
            return (Vec::new(), GenStats::default());
        }
        let mut run = self.generation(templates, opts);
        let out = run.next_queries(n);
        (out, run.stats)
    }

    /// Start a resumable generation run: the query stream of
    /// [`Generator::generate`], produced as far as each
    /// [`Generation::next_queries`] call asks and no further.
    pub fn generation<'g>(
        &'g mut self,
        templates: &'g [Template],
        opts: &'g GenOptions,
    ) -> Generation<'g, 'a> {
        Generation {
            base: self.rng.next_u64(),
            gen: self,
            templates,
            opts,
            round: 0,
            slot: 0,
            progressed: false,
            exhausted: templates.is_empty(),
            seen: HashSet::new(),
            stats: GenStats::default(),
        }
    }

    // ---- Algorithm 1, lines 8-11: table sampling -------------------------

    fn sample_tables(
        &self,
        rng: &mut StdRng,
        template: &Template,
    ) -> Result<Vec<String>, GenError> {
        let schema = &self.enhanced.schema;
        let mut tables: Vec<Option<String>> = vec![None; template.table_count];

        // Resolve join edges first so joined slots are FK-consistent.
        for edge in &template.joins {
            match (
                tables[edge.left_table].clone(),
                tables[edge.right_table].clone(),
            ) {
                (None, None) => {
                    // Pick a random FK edge of the schema.
                    let fks = &schema.foreign_keys;
                    if fks.is_empty() {
                        return Err(GenError::NoJoinableTable);
                    }
                    let fk = &fks[rng.gen_range(0..fks.len())];
                    tables[edge.left_table] = Some(fk.from_table.clone());
                    tables[edge.right_table] = Some(fk.to_table.clone());
                }
                (Some(l), None) => {
                    let edges = schema.join_edges(&l);
                    if edges.is_empty() {
                        return Err(GenError::NoJoinableTable);
                    }
                    let (_, other, _) = &edges[rng.gen_range(0..edges.len())];
                    tables[edge.right_table] = Some(other.clone());
                }
                (None, Some(r)) => {
                    let edges = schema.join_edges(&r);
                    if edges.is_empty() {
                        return Err(GenError::NoJoinableTable);
                    }
                    let (_, other, _) = &edges[rng.gen_range(0..edges.len())];
                    tables[edge.left_table] = Some(other.clone());
                }
                (Some(l), Some(r)) => {
                    // Both fixed (template with a join cycle): verify an FK
                    // edge exists.
                    let ok = schema
                        .join_edges(&l)
                        .iter()
                        .any(|(_, other, _)| other.eq_ignore_ascii_case(&r));
                    if !ok {
                        return Err(GenError::NoJoinableTable);
                    }
                }
            }
        }

        // Free slots: any table.
        for slot in tables.iter_mut() {
            if slot.is_none() {
                let t = schema.tables.choose(rng).ok_or(GenError::NoJoinableTable)?;
                *slot = Some(t.name.clone());
            }
        }
        Ok(tables.into_iter().map(|t| t.expect("filled")).collect())
    }

    // ---- Algorithm 1, lines 12-15: column sampling -----------------------

    fn sample_columns(
        &self,
        rng: &mut StdRng,
        template: &Template,
        tables: &[String],
    ) -> Result<Vec<String>, GenError> {
        let mut columns: Vec<Option<String>> = vec![None; template.columns.len()];

        // 1. Join-key columns come from FK edges between the sampled
        //    tables.
        for edge in &template.joins {
            let lt = &tables[edge.left_table];
            let rt = &tables[edge.right_table];
            let candidates: Vec<(String, String)> = self
                .enhanced
                .schema
                .join_edges(lt)
                .into_iter()
                .filter(|(_, other, _)| other.eq_ignore_ascii_case(rt))
                .map(|(lcol, _, rcol)| (lcol, rcol))
                .collect();
            let (lcol, rcol) = candidates
                .choose(rng)
                .cloned()
                .ok_or(GenError::NoJoinableTable)?;
            columns[edge.left_col] = Some(lcol);
            columns[edge.right_col] = Some(rcol);
        }

        // 2. Math pairs: both operands from one math group of the table.
        for (idx, slot) in template.columns.iter().enumerate() {
            if columns[idx].is_some() || !slot.contexts.math {
                continue;
            }
            let peer = slot
                .math_peer
                .ok_or_else(|| GenError::NoCandidateColumn("math operand without peer".into()))?;
            if columns[peer].is_some() {
                continue;
            }
            let table = &tables[slot.table_slot];
            if template.columns[peer].table_slot != slot.table_slot {
                return Err(GenError::NoCandidateColumn(
                    "math operands in different tables".into(),
                ));
            }
            let pair = self.sample_math_pair(rng, table)?;
            columns[idx] = Some(pair.0);
            columns[peer] = Some(pair.1);
        }

        // 3. Everything else by context.
        for (idx, slot) in template.columns.iter().enumerate() {
            if columns[idx].is_some() {
                continue;
            }
            let table = &tables[slot.table_slot];
            let candidates = self.candidate_columns(table, slot)?;
            let choice = candidates
                .choose(rng)
                .cloned()
                .ok_or_else(|| GenError::NoCandidateColumn(format!("table `{table}`")))?;
            columns[idx] = Some(choice);
        }
        Ok(columns.into_iter().map(|c| c.expect("filled")).collect())
    }

    fn sample_math_pair(
        &self,
        rng: &mut StdRng,
        table: &str,
    ) -> Result<(String, String), GenError> {
        if !self.use_enhanced_constraints {
            // Ablation: any two numeric columns.
            let def = self
                .enhanced
                .schema
                .table(table)
                .ok_or_else(|| GenError::NoCandidateColumn(format!("table `{table}`")))?;
            let numeric: Vec<String> = def
                .columns
                .iter()
                .filter(|c| c.ty.is_numeric())
                .map(|c| c.name.clone())
                .collect();
            if numeric.len() < 2 {
                return Err(GenError::NoCandidateColumn(format!(
                    "table `{table}` lacks two numeric columns"
                )));
            }
            let mut pick = numeric.clone();
            pick.shuffle(rng);
            return Ok((pick[0].clone(), pick[1].clone()));
        }
        let groups = self.enhanced.math_groups(table);
        let mut group_names: Vec<&String> = groups.keys().collect();
        group_names.sort(); // determinism
        let g = group_names
            .choose(rng)
            .ok_or_else(|| GenError::NoCandidateColumn(format!("no math group in `{table}`")))?;
        let members = &groups[*g];
        let mut pick: Vec<String> = members.clone();
        pick.shuffle(rng);
        Ok((pick[0].clone(), pick[1].clone()))
    }

    fn candidate_columns(
        &self,
        table: &str,
        slot: &sb_semql::ColumnSlot,
    ) -> Result<Vec<String>, GenError> {
        let def = self
            .enhanced
            .schema
            .table(table)
            .ok_or_else(|| GenError::NoCandidateColumn(format!("table `{table}`")))?;
        let ctx = &slot.contexts;
        let out: Vec<String> = def
            .columns
            .iter()
            .filter(|c| {
                if self.use_enhanced_constraints {
                    if let Some(agg) = ctx.agg {
                        // COUNT works on anything; other aggregates need an
                        // aggregatable (numeric, non-id) column.
                        if agg != sb_sql::AggFunc::Count
                            && !self.enhanced.aggregatable(table, &c.name)
                        {
                            return false;
                        }
                    }
                    if ctx.group_by && !self.enhanced.categorical(table, &c.name) {
                        return false;
                    }
                } else if ctx.agg.is_some()
                    && ctx.agg != Some(sb_sql::AggFunc::Count)
                    && !c.ty.is_numeric()
                {
                    // Even the ablation cannot SUM over text.
                    return false;
                }
                if ctx.comparison && !c.ty.is_numeric() {
                    return false;
                }
                if ctx.like && c.ty != sb_schema::ColumnType::Text {
                    return false;
                }
                if ctx.order_by && c.ty == sb_schema::ColumnType::Bool {
                    return false;
                }
                true
            })
            .map(|c| c.name.clone())
            .collect();
        Ok(out)
    }

    // ---- Algorithm 1, lines 16-19: value sampling ------------------------

    fn sample_values(
        &self,
        rng: &mut StdRng,
        template: &Template,
        tables: &[String],
        columns: &[String],
    ) -> Result<Vec<sb_sql::Literal>, GenError> {
        let mut out = Vec::with_capacity(template.values.len());
        for vslot in &template.values {
            let lit = match vslot.column_slot {
                Some(ci) => {
                    let cslot = &template.columns[ci];
                    let table = &tables[cslot.table_slot];
                    let column = &columns[ci];
                    sampler::sample_value(rng, &self.profile, table, column, vslot.kind)
                        .ok_or_else(|| GenError::NoValue(format!("{table}.{column}")))?
                }
                None => sampler::sample_agg_value(rng),
            };
            out.push(lit);
        }
        Ok(out)
    }
}

/// A resumable generation run over one template list (see
/// [`Generator::generation`]). Each call to [`Generation::next_queries`]
/// continues the stream where the previous one stopped, so splitting a
/// request into several calls yields the same queries as one call.
pub struct Generation<'g, 'a> {
    gen: &'g Generator<'a>,
    templates: &'g [Template],
    opts: &'g GenOptions,
    base: u64,
    round: u64,
    /// The next template slot of the current round.
    slot: usize,
    /// Whether the current round has accepted a query yet.
    progressed: bool,
    /// Set once a whole round accepts nothing: no template can produce
    /// anything new.
    exhausted: bool,
    seen: HashSet<String>,
    stats: GenStats,
}

impl Generation<'_, '_> {
    /// Generate up to `want` more queries; fewer only when the run is
    /// exhausted.
    ///
    /// Slots execute in parallel, at most as many at a time as queries are
    /// still wanted, since each slot yields at most one. A worker pulls
    /// survivors until one is new to the queries accepted before its
    /// chunk. The merge then walks the chunk in slot order and resumes a
    /// worker whose survivor an earlier slot of the same chunk took.
    pub fn next_queries(&mut self, want: usize) -> Vec<GeneratedQuery> {
        let mut out = Vec::new();
        while out.len() < want && !self.exhausted {
            let start = self.slot;
            let end = (start + want - out.len()).min(self.templates.len());
            let (gen, templates, opts, seen) = (self.gen, self.templates, self.opts, &self.seen);
            let (base, round) = (self.base, self.round);
            let batches: Vec<AttemptBatch> = (start..end)
                .into_par_iter()
                .map(|ti| {
                    let mut batch = AttemptBatch::new(derive_seed(base, round, ti as u64));
                    batch.pending = batch.take_unseen(gen, &templates[ti], opts, seen);
                    batch
                })
                .collect();
            for (ti, mut batch) in (start..end).zip(batches) {
                if let Some((query, sql)) = batch.take_unseen(gen, &templates[ti], opts, &self.seen)
                {
                    self.seen.insert(sql);
                    out.push(GeneratedQuery {
                        query,
                        template_idx: ti,
                    });
                    batch.stats.accepted += 1;
                    self.progressed = true;
                }
                self.stats.absorb(&batch.stats);
            }
            self.slot = end;
            if end == templates.len() {
                // No template can produce anything new; stop rather than
                // loop forever.
                self.exhausted = !self.progressed;
                self.slot = 0;
                self.round += 1;
                self.progressed = false;
            }
        }
        out
    }

    /// Statistics over the attempts made so far.
    pub fn stats(&self) -> &GenStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_engine::Value;
    use sb_schema::{Column, ColumnType, ForeignKey, Schema, TableDef};
    use sb_semql::extract;

    fn fixture() -> (Database, EnhancedSchema) {
        let schema = Schema::new("sdss")
            .with_table(TableDef::new(
                "specobj",
                vec![
                    Column::pk("specobjid", ColumnType::Int),
                    Column::new("bestobjid", ColumnType::Int),
                    Column::new("class", ColumnType::Text),
                    Column::new("z", ColumnType::Float),
                ],
            ))
            .with_table(TableDef::new(
                "photoobj",
                vec![
                    Column::pk("objid", ColumnType::Int),
                    Column::new("u", ColumnType::Float),
                    Column::new("r", ColumnType::Float),
                ],
            ))
            .with_fk(ForeignKey::new("specobj", "bestobjid", "photoobj", "objid"));
        let mut db = Database::new(schema.clone());
        for i in 0..30i64 {
            db.table_mut("specobj").unwrap().push_rows(vec![vec![
                Value::Int(i),
                Value::Int(i % 10),
                Value::from(if i % 3 == 0 { "GALAXY" } else { "STAR" }),
                Value::Float(i as f64 / 10.0),
            ]]);
        }
        for i in 0..10i64 {
            db.table_mut("photoobj").unwrap().push_rows(vec![vec![
                Value::Int(i),
                Value::Float(18.0 + i as f64 / 5.0),
                Value::Float(16.0 + i as f64 / 7.0),
            ]]);
        }
        let profile = db.profile();
        let mut enhanced = EnhancedSchema::infer(schema, &profile);
        // Manual refinement (the paper's one-shot expert pass): on a tiny
        // fixture the cardinality heuristic over-fires, so pin the flags.
        enhanced.set_categorical("specobj", "class", true);
        enhanced.set_categorical("specobj", "bestobjid", false);
        enhanced.set_categorical("specobj", "z", false);
        enhanced.set_categorical("photoobj", "u", false);
        enhanced.set_categorical("photoobj", "r", false);
        enhanced.set_math_group("photoobj", "u", "magnitude");
        enhanced.set_math_group("photoobj", "r", "magnitude");
        (db, enhanced)
    }

    fn templates(schema: &Schema) -> Vec<Template> {
        [
            "SELECT s.specobjid FROM specobj AS s WHERE s.class = 'GALAXY'",
            "SELECT COUNT(*), s.class FROM specobj AS s GROUP BY s.class",
            "SELECT p.objid FROM photoobj AS p JOIN specobj AS s ON s.bestobjid = p.objid WHERE s.z > 0.5",
            "SELECT p.objid FROM photoobj AS p WHERE p.u - p.r < 2.22",
            "SELECT AVG(s.z) FROM specobj AS s",
        ]
        .iter()
        .map(|sql| extract(&sb_sql::parse(sql).unwrap(), schema).unwrap())
        .collect()
    }

    #[test]
    fn generates_valid_nonempty_queries() {
        let (db, enhanced) = fixture();
        let templates = templates(&enhanced.schema);
        let mut g = Generator::new(&db, &enhanced, 7);
        let (out, stats) = g.generate(&templates, 25, &GenOptions::default());
        assert!(!out.is_empty(), "should generate something");
        assert_eq!(stats.accepted, out.len());
        // Every output executes and is non-empty.
        for gq in &out {
            let rs = db.run_query(&gq.query).expect("generated query executes");
            assert!(!rs.is_empty(), "non-empty: {}", gq.query);
        }
        // De-duplicated.
        let sqls: HashSet<String> = out.iter().map(|g| g.query.to_string()).collect();
        assert_eq!(sqls.len(), out.len());
    }

    #[test]
    fn deterministic_under_same_seed() {
        let (db, enhanced) = fixture();
        let templates = templates(&enhanced.schema);
        let run = |seed| {
            let mut g = Generator::new(&db, &enhanced, seed);
            let (out, _) = g.generate(&templates, 10, &GenOptions::default());
            out.iter().map(|g| g.query.to_string()).collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds diverge");
    }

    #[test]
    fn respects_non_aggregatable_constraint() {
        let (db, enhanced) = fixture();
        let t = extract(
            &sb_sql::parse("SELECT AVG(s.z) FROM specobj AS s").unwrap(),
            &enhanced.schema,
        )
        .unwrap();
        let mut g = Generator::new(&db, &enhanced, 1);
        for _ in 0..50 {
            if let Ok(q) = g.fill(&t) {
                let sql = q.to_string();
                assert!(
                    !sql.contains("AVG(T1.specobjid)")
                        && !sql.contains("AVG(T1.bestobjid)")
                        && !sql.contains("AVG(T1.objid)"),
                    "ID columns must not be averaged: {sql}"
                );
            }
        }
    }

    #[test]
    fn respects_categorical_group_by() {
        let (db, enhanced) = fixture();
        let t = extract(
            &sb_sql::parse("SELECT COUNT(*), s.class FROM specobj AS s GROUP BY s.class").unwrap(),
            &enhanced.schema,
        )
        .unwrap();
        let mut g = Generator::new(&db, &enhanced, 2);
        let mut produced = 0;
        for _ in 0..50 {
            if let Ok(q) = g.fill(&t) {
                produced += 1;
                let sql = q.to_string();
                assert!(
                    sql.contains("GROUP BY T1.class"),
                    "only categorical columns may be grouped: {sql}"
                );
            }
        }
        assert!(produced > 0);
    }

    #[test]
    fn math_operands_share_group() {
        let (db, enhanced) = fixture();
        let t = extract(
            &sb_sql::parse("SELECT p.objid FROM photoobj AS p WHERE p.u - p.r < 2.22").unwrap(),
            &enhanced.schema,
        )
        .unwrap();
        let mut g = Generator::new(&db, &enhanced, 3);
        let mut produced = 0;
        for _ in 0..50 {
            if let Ok(q) = g.fill(&t) {
                produced += 1;
                let sql = q.to_string();
                // Only photoobj has a math group, so the query must use
                // u and r (in either order).
                assert!(
                    sql.contains("T1.u - T1.r") || sql.contains("T1.r - T1.u"),
                    "math operands must share a unit group: {sql}"
                );
            }
        }
        assert!(produced > 0);
    }

    #[test]
    fn join_columns_come_from_fk_edges() {
        let (db, enhanced) = fixture();
        let t = extract(
            &sb_sql::parse(
                "SELECT p.objid FROM photoobj AS p JOIN specobj AS s \
                 ON s.bestobjid = p.objid WHERE s.z > 0.5",
            )
            .unwrap(),
            &enhanced.schema,
        )
        .unwrap();
        let mut g = Generator::new(&db, &enhanced, 4);
        let q = loop {
            if let Ok(q) = g.fill(&t) {
                break q;
            }
        };
        let sql = q.to_string();
        assert!(
            sql.contains("bestobjid") && sql.contains("objid"),
            "join must use the FK edge: {sql}"
        );
    }

    #[test]
    fn ablation_mode_drops_constraints() {
        let (db, enhanced) = fixture();
        let t = extract(
            &sb_sql::parse("SELECT COUNT(*), s.class FROM specobj AS s GROUP BY s.class").unwrap(),
            &enhanced.schema,
        )
        .unwrap();
        let mut g = Generator::new(&db, &enhanced, 5);
        g.use_enhanced_constraints = false;
        let mut saw_non_categorical = false;
        for _ in 0..100 {
            if let Ok(q) = g.fill(&t) {
                if !q.to_string().contains("GROUP BY T1.class") {
                    saw_non_categorical = true;
                    break;
                }
            }
        }
        assert!(
            saw_non_categorical,
            "ablation mode should sometimes group by non-categorical columns"
        );
    }

    #[test]
    fn stats_track_rejections() {
        let (db, enhanced) = fixture();
        let templates = templates(&enhanced.schema);
        let mut g = Generator::new(&db, &enhanced, 6);
        let (_, stats) = g.generate(&templates, 50, &GenOptions::default());
        assert!(stats.attempts() >= stats.accepted);
    }

    #[test]
    fn empty_template_list_yields_nothing() {
        let (db, enhanced) = fixture();
        let mut g = Generator::new(&db, &enhanced, 0);
        let (out, stats) = g.generate(&[], 10, &GenOptions::default());
        assert!(out.is_empty());
        assert_eq!(stats.attempts(), 0);
    }
}
