//! ValueNet-like system: sketch retrieval + grammar instantiation with
//! database-content value grounding.
//!
//! Training extracts a SemQL template ("sketch") from every pair and
//! indexes it under the embedding of the *delexicalized* question (schema
//! mentions → `col`, grounded values → `val`, numbers → `num`). At
//! prediction time the question is delexicalized against the target
//! schema, the nearest sketches are retrieved, and each is instantiated
//! through the schema linker — including looking up real values from the
//! database content, ValueNet's signature capability. Instantiation is
//! grammar-constrained, so (like the real ValueNet) the system essentially
//! always emits executable SQL; whether it is the *right* SQL depends on
//! how well linking worked.

use crate::linker::{column_mentioned, name_tokens, LinkResult, Linker};
use crate::select::first_best_executable;
use crate::{DbCatalog, NlToSql, Pair, StableMap, StableSet};
use sb_embed::{embed, Embedding};
use sb_engine::Database;
use sb_schema::ColumnType;
use sb_semql::{Assignment, Template, ValueKind};
use sb_sql::Literal;

/// A trained sketch: delexicalized-question embedding + template.
#[derive(Debug, Clone)]
struct Sketch {
    embedding: Embedding,
    template: Template,
}

/// The ValueNet-like system.
#[derive(Debug, Clone, Default)]
pub struct ValueNetSim {
    linker: Linker,
    sketches: Vec<Sketch>,
    /// Full-question memory per database (question embedding, SQL,
    /// db, template signature): when a question is a near-duplicate of
    /// training questions from the same database, the decoder reproduces
    /// the *consensus* memorized tree with re-grounded values. Consensus
    /// over the top-k neighbours is what makes noisy silver-standard
    /// training data effective — the distant-supervision argument of
    /// §4.2: individual synthetic pairs may be wrong, but correct pairs
    /// agree with each other and outvote the noise.
    memory: Vec<MemoryEntry>,
}

#[derive(Debug, Clone)]
struct MemoryEntry {
    embedding: sb_embed::Embedding,
    sql: String,
    db: String,
    skeleton: String,
}

impl ValueNetSim {
    /// Create an untrained system.
    pub fn new() -> Self {
        Self::default()
    }

    /// How many retrieved sketches to try before falling back.
    const BEAM: usize = 12;

    /// Replace schema mentions, grounded values and numbers with
    /// placeholder tokens, so that sketches transfer across schemas.
    fn delexicalize(question: &str, link: &LinkResult, db: &Database) -> String {
        let mut out = Vec::new();
        let value_words: Vec<String> = link
            .values
            .iter()
            .flat_map(|(_, _, v)| match v {
                Literal::Str(s) => sb_embed::tokenize(s),
                _ => Vec::new(),
            })
            .collect();
        for tok in sb_embed::tokenize(question) {
            let is_number = tok.chars().all(|c| c.is_ascii_digit());
            if is_number {
                out.push("num".to_string());
                continue;
            }
            if value_words.contains(&tok) {
                out.push("val".to_string());
                continue;
            }
            let names_schema = db.schema.tables.iter().any(|t| {
                name_tokens(&t.name).contains(&tok)
                    || t.columns
                        .iter()
                        .any(|c| name_tokens(&c.name).contains(&tok))
            });
            let linked = link
                .columns
                .iter()
                .any(|c| name_tokens(&c.column).contains(&tok));
            if names_schema || linked {
                out.push("col".to_string());
            } else {
                out.push(tok);
            }
        }
        out.join(" ")
    }

    /// Instantiate a template against the link result. Returns the SQL
    /// plus a *fill score* measuring how much question evidence (linked
    /// columns, grounded values, question numbers) the fill consumed —
    /// higher is better. `rotation` rotates the linked-table preference so
    /// the caller can explore alternative table assignments. Returns
    /// `None` when a slot cannot be filled coherently.
    fn instantiate(
        &self,
        template: &Template,
        link: &LinkResult,
        q_tokens: &[String],
        db: &Database,
        rotation: usize,
    ) -> Option<(String, f64)> {
        let schema = &db.schema;
        let profile = db.profile();
        let mut score = 0.0f64;

        // ---- tables ----
        let mut tables: Vec<Option<String>> = vec![None; template.table_count];
        let mut linked_tables: Vec<String> = link.tables.iter().map(|(t, _)| t.clone()).collect();
        // Tables hosting grounded values are strong candidates too.
        for (t, _, _) in &link.values {
            if !linked_tables.contains(t) {
                linked_tables.push(t.clone());
            }
        }
        if !linked_tables.is_empty() {
            let r = rotation % linked_tables.len();
            linked_tables.rotate_left(r);
        }
        let mut next_linked = 0usize;
        let mut take_table = |exclude: &[Option<String>]| -> Option<String> {
            while next_linked < linked_tables.len() {
                let cand = linked_tables[next_linked].clone();
                next_linked += 1;
                if !exclude
                    .iter()
                    .flatten()
                    .any(|t| t.eq_ignore_ascii_case(&cand))
                {
                    return Some(cand);
                }
            }
            schema
                .tables
                .iter()
                .map(|t| t.name.to_ascii_lowercase())
                .find(|t| !exclude.iter().flatten().any(|x| x == t))
        };
        // Table evidence strength, normalized so the strongest linked
        // table earns 2.0 and weakly-linked tables proportionally less —
        // a binary bonus would let marginal tables tie strong ones.
        let max_table_score = link
            .tables
            .iter()
            .map(|(_, s)| *s)
            .fold(0.0f64, f64::max)
            .max(1e-9);
        let table_bonus = |t: &str| -> f64 {
            link.tables
                .iter()
                .find(|(name, _)| name.eq_ignore_ascii_case(t))
                .map(|(_, s)| 2.0 * s / max_table_score)
                .unwrap_or_else(|| {
                    if link
                        .values
                        .iter()
                        .any(|(vt, _, _)| vt.eq_ignore_ascii_case(t))
                    {
                        0.75
                    } else {
                        -0.75
                    }
                })
        };
        // Seed the first slot, then satisfy join edges along FKs.
        if template.table_count > 0 {
            tables[0] = take_table(&tables);
        }
        for edge in &template.joins {
            let (have, need) = if tables[edge.left_table].is_some() {
                (edge.left_table, edge.right_table)
            } else if tables[edge.right_table].is_some() {
                (edge.right_table, edge.left_table)
            } else {
                tables[edge.left_table] = take_table(&tables);
                (edge.left_table, edge.right_table)
            };
            if tables[need].is_some() {
                continue;
            }
            let from = tables[have].clone()?;
            let neighbors = schema.join_edges(&from);
            if neighbors.is_empty() {
                return None;
            }
            // Prefer the most strongly linked neighbor table.
            let chosen = neighbors
                .iter()
                .max_by(|(_, a, _), (_, b, _)| {
                    table_bonus(a)
                        .partial_cmp(&table_bonus(b))
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .map(|(_, other, _)| other.to_ascii_lowercase())?;
            tables[need] = Some(chosen);
        }
        for slot in tables.iter_mut() {
            if slot.is_none() {
                *slot = take_table(&[]);
            }
        }
        let tables: Vec<String> = tables.into_iter().collect::<Option<Vec<_>>>()?;
        for t in &tables {
            score += table_bonus(t);
        }

        // ---- columns ----
        let mut columns: Vec<Option<String>> = vec![None; template.columns.len()];
        for edge in &template.joins {
            let lt = &tables[edge.left_table];
            let rt = &tables[edge.right_table];
            let (lcol, rcol) = schema
                .join_edges(lt)
                .into_iter()
                .find(|(_, other, _)| other.eq_ignore_ascii_case(rt))
                .map(|(lcol, _, rcol)| (lcol, rcol))?;
            columns[edge.left_col] = Some(lcol);
            columns[edge.right_col] = Some(rcol);
        }
        // Value-bound slots claim their evidence first (a grounded value
        // pins its column); projection/order slots pick from the rest.
        let mut slot_order: Vec<usize> = (0..template.columns.len()).collect();
        slot_order.sort_by_key(|&i| {
            let c = &template.columns[i].contexts;
            if c.equality || c.like {
                0
            } else if c.comparison {
                1
            } else {
                2
            }
        });
        for idx in slot_order {
            let slot = &template.columns[idx];
            if columns[idx].is_some() {
                continue;
            }
            let table = &tables[slot.table_slot];
            let def = schema.table(table)?;
            let type_ok = |c: &sb_schema::Column| -> bool {
                if slot.contexts.comparison || slot.contexts.math {
                    return c.ty.is_numeric();
                }
                if slot.contexts.like {
                    return c.ty == ColumnType::Text;
                }
                if slot.contexts.agg.is_some() && slot.contexts.agg != Some(sb_sql::AggFunc::Count)
                {
                    return c.ty.is_numeric();
                }
                true
            };
            // Prefer the column a grounded value lives in (for equality
            // slots), then linked columns, then any type-compatible one.
            let from_value = if slot.contexts.equality {
                link.values
                    .iter()
                    .find(|(t, c, _)| {
                        t.eq_ignore_ascii_case(table)
                            && def.column(c).is_some_and(&type_ok)
                            && !columns.iter().flatten().any(|used| used == c)
                    })
                    .map(|(_, c, _)| c.clone())
            } else {
                None
            };
            // Prefer an unused linked column, unless a used linked column
            // has a dominant link score (legitimate column reuse, e.g.
            // "the maximum price where price = v"). Columns whose name the
            // question actually mentions outrank lexicon-only links.
            let mut linked_cols = link.columns_of(table);
            linked_cols.sort_by(|a, b| {
                let ma = column_mentioned(q_tokens, &a.column);
                let mb = column_mentioned(q_tokens, &b.column);
                mb.cmp(&ma).then(
                    b.score
                        .partial_cmp(&a.score)
                        .unwrap_or(std::cmp::Ordering::Equal),
                )
            });
            let best_any = linked_cols
                .iter()
                .find(|lc| def.column(&lc.column).is_some_and(&type_ok));
            let best_unused = linked_cols.iter().find(|lc| {
                def.column(&lc.column).is_some_and(&type_ok)
                    && !columns.iter().flatten().any(|used| used == &lc.column)
            });
            let from_link = match (best_any, best_unused) {
                (Some(best), Some(unused)) if unused.score >= 0.5 * best.score => {
                    Some((unused.column.clone(), unused.score))
                }
                (Some(best), _) => Some((best.column.clone(), best.score)),
                (None, _) => None,
            };
            let choice = match from_value {
                Some(c) => {
                    score += 2.0;
                    c
                }
                None => match from_link {
                    Some((c, s)) => {
                        score += s.min(2.0);
                        c
                    }
                    None => {
                        score -= 1.0;
                        def.columns
                            .iter()
                            .find(|c| type_ok(c))
                            .map(|c| c.name.to_ascii_lowercase())?
                    }
                },
            };
            columns[idx] = Some(choice);
        }
        let columns: Vec<String> = columns.into_iter().collect::<Option<Vec<_>>>()?;

        // ---- values (content grounding) ----
        let mut numbers = link.numbers.iter().copied();
        let mut values = Vec::with_capacity(template.values.len());
        for vslot in &template.values {
            let lit = match (vslot.kind, vslot.column_slot) {
                (ValueKind::AggCmp, _) => {
                    Literal::Int(numbers.next().map(|n| n as i64).unwrap_or(1))
                }
                (kind, Some(ci)) => {
                    let table = &tables[template.columns[ci].table_slot];
                    let column = &columns[ci];
                    let col_ty = schema
                        .table(table)
                        .and_then(|t| t.column(column))
                        .map(|c| c.ty)?;
                    match kind {
                        ValueKind::Cmp => {
                            let from_question = numbers.next();
                            score += if from_question.is_some() { 1.5 } else { -0.75 };
                            let n = from_question
                                .or_else(|| profile.column(table, column).and_then(|p| p.min))?;
                            if col_ty == ColumnType::Int {
                                Literal::Int(n.round() as i64)
                            } else {
                                Literal::Float(n)
                            }
                        }
                        ValueKind::Like => {
                            let grounded = link
                                .values
                                .iter()
                                .find(|(t, c, _)| t == table && c == column)
                                .map(|(_, _, v)| v.clone());
                            match grounded {
                                Some(Literal::Str(s)) => Literal::Str(format!("%{s}%")),
                                _ => Literal::Str("%%".to_string()),
                            }
                        }
                        _ => {
                            // Equality: grounded value on this column, then
                            // any grounded value in the table, then a
                            // frequent content value, then a number.
                            let type_fits = |v: &Literal| {
                                matches!(
                                    (v, col_ty),
                                    (Literal::Str(_), ColumnType::Text)
                                        | (Literal::Int(_), ColumnType::Int | ColumnType::Float)
                                        | (Literal::Float(_), ColumnType::Float | ColumnType::Int)
                                )
                            };
                            let grounded = link
                                .values
                                .iter()
                                .find(|(t, c, v)| t == table && c == column && type_fits(v))
                                .or_else(|| {
                                    link.values
                                        .iter()
                                        .find(|(t, _, v)| t == table && type_fits(v))
                                })
                                .map(|(_, _, v)| v.clone());
                            match grounded {
                                Some(v) => {
                                    score += 2.0;
                                    v
                                }
                                None => match col_ty {
                                    ColumnType::Int => {
                                        let n = numbers.next();
                                        score += if n.is_some() { 1.5 } else { -0.75 };
                                        Literal::Int(n.map(|n| n as i64).unwrap_or(1))
                                    }
                                    ColumnType::Float => {
                                        let n = numbers.next();
                                        score += if n.is_some() { 1.5 } else { -0.75 };
                                        Literal::Float(n.unwrap_or(0.0))
                                    }
                                    _ => {
                                        score -= 0.75;
                                        let freq = profile
                                            .column(table, column)
                                            .and_then(|p| p.frequent_values.first().cloned())?;
                                        sb_gen_parse(&freq)?
                                    }
                                },
                            }
                        }
                    }
                }
                (ValueKind::Cmp, None) | (ValueKind::Eq, None) | (ValueKind::Like, None) => {
                    Literal::Int(numbers.next().map(|n| n as i64).unwrap_or(1))
                }
            };
            values.push(lit);
        }

        // Normalize the evidence by slot count so that template size does
        // not buy score: a 3-slot template fully grounded must beat a
        // 9-slot template two-thirds grounded.
        let slots =
            (template.table_count + template.columns.len() + template.values.len()).max(1) as f64;
        score /= slots;

        // Question numbers the fill never consumed signal a mismatched
        // template (absolute penalty).
        score -= 0.75 * numbers.count() as f64;

        // Degenerate fills: identical (column, value) conditions
        // (`name = 'x' AND name = 'x'`) or duplicated projections.
        let resolved = |ci: usize| (template.columns[ci].table_slot, columns[ci].clone());
        for (i, vi) in template.values.iter().enumerate() {
            for (j, vj) in template.values.iter().enumerate().skip(i + 1) {
                let same_col = match (vi.column_slot, vj.column_slot) {
                    (Some(a), Some(b)) => resolved(a) == resolved(b),
                    (a, b) => a == b,
                };
                if same_col && values[i] == values[j] {
                    score -= 2.0;
                }
            }
        }
        for i in 0..template.columns.len() {
            for j in (i + 1)..template.columns.len() {
                if template.columns[i].contexts.projection
                    && template.columns[j].contexts.projection
                    && resolved(i) == resolved(j)
                {
                    score -= 1.0;
                }
            }
        }

        let assignment = Assignment {
            tables,
            columns,
            values,
        };
        template
            .instantiate(&assignment)
            .ok()
            .map(|q| (q.to_string(), score))
    }
}

/// Re-ground the literals of a memorized SQL query in the current
/// question's evidence: numeric literals take the question's numbers in
/// order (LIMIT counts excluded), string literals take grounded values.
/// Returns `None` when the query does not parse.
fn reground_values(sql: &str, link: &LinkResult) -> Option<String> {
    use sb_sql::{Keyword, Lexer, Token};
    let tokens = Lexer::new(sql).tokenize().ok()?;
    let mut numbers = link.numbers.iter().copied();
    let mut strings = link
        .values
        .iter()
        .filter_map(|(_, _, v)| match v {
            Literal::Str(s) => Some(s.clone()),
            _ => None,
        })
        .collect::<Vec<_>>()
        .into_iter();
    let mut out: Vec<String> = Vec::with_capacity(tokens.len());
    for (i, (tok, _)) in tokens.iter().enumerate() {
        let after_limit = i > 0 && tokens[i - 1].0 == Token::Keyword(Keyword::Limit);
        let rendered = match tok {
            Token::Int(_) if !after_limit => numbers
                .next()
                .map(|n| {
                    if n.fract() == 0.0 {
                        format!("{n:.0}")
                    } else {
                        n.to_string()
                    }
                })
                .unwrap_or_else(|| tok.to_string()),
            Token::Float(_) => numbers
                .next()
                .map(|n| format!("{n}"))
                .unwrap_or_else(|| tok.to_string()),
            Token::Str(_) => strings
                .next()
                .map(|s| format!("'{}'", s.replace('\'', "''")))
                .unwrap_or_else(|| tok.to_string()),
            Token::Eof => continue,
            other => other.to_string(),
        };
        out.push(rendered);
    }
    let mut s = String::new();
    let mut i = 0;
    while i < out.len() {
        if out.get(i + 1).map(String::as_str) == Some(".") && i + 2 < out.len() {
            if !s.is_empty() {
                s.push(' ');
            }
            s.push_str(&out[i]);
            s.push('.');
            s.push_str(&out[i + 2]);
            i += 3;
            continue;
        }
        if !s.is_empty() {
            s.push(' ');
        }
        s.push_str(&out[i]);
        i += 1;
    }
    Some(s)
}

/// Parse a SQL-literal string (local copy of `sb_gen::parse_literal` to
/// avoid a dependency cycle — `sb-gen` is a pipeline crate, not a system
/// crate).
fn sb_gen_parse(text: &str) -> Option<Literal> {
    let trimmed = text.trim();
    if let Some(inner) = trimmed
        .strip_prefix('\'')
        .and_then(|s| s.strip_suffix('\''))
    {
        return Some(Literal::Str(inner.replace("''", "'")));
    }
    if let Ok(v) = trimmed.parse::<i64>() {
        return Some(Literal::Int(v));
    }
    if let Ok(v) = trimmed.parse::<f64>() {
        return Some(Literal::Float(v));
    }
    None
}

impl NlToSql for ValueNetSim {
    fn name(&self) -> &'static str {
        "ValueNet"
    }

    fn train(&mut self, pairs: &[Pair], catalog: &DbCatalog) {
        for pair in pairs {
            let Some(db) = catalog.get(&pair.db) else {
                continue;
            };
            self.linker.learn(pair, db);
            let Ok(query) = sb_sql::parse(&pair.sql) else {
                continue;
            };
            let Ok(template) = sb_semql::extract(&query, &db.schema) else {
                continue;
            };
            let link = self.linker.link(&pair.nl, db);
            let delex = Self::delexicalize(&pair.nl, &link, db);
            let skeleton = template.signature();
            self.sketches.push(Sketch {
                embedding: embed(&delex),
                template,
            });
            let normalized: String = pair
                .nl
                .chars()
                .map(|c| if c.is_ascii_digit() { '#' } else { c })
                .collect();
            self.memory.push(MemoryEntry {
                embedding: embed(&normalized),
                sql: pair.sql.clone(),
                db: pair.db.to_ascii_lowercase(),
                skeleton,
            });
        }
    }

    fn predict(&self, question: &str, db: &Database) -> String {
        let link = self.linker.link(question, db);

        // Near-duplicate memorization with top-k skeleton consensus:
        // individually noisy training pairs (silver standard) are
        // outvoted by the agreeing majority, the distant-supervision
        // behaviour the paper relies on (§4.2).
        let db_name = db.schema.name.to_ascii_lowercase();
        let normalized: String = question
            .chars()
            .map(|c| if c.is_ascii_digit() { '#' } else { c })
            .collect();
        let q_norm = embed(&normalized);
        let q_norm_sq = q_norm.sq_norm();
        let mut near: Vec<(f32, &MemoryEntry)> = self
            .memory
            .iter()
            .filter(|m| m.db == db_name)
            .map(|m| (q_norm.cosine_with_sq_norm(q_norm_sq, &m.embedding), m))
            .filter(|(sim, _)| *sim >= 0.90)
            .collect();
        near.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        near.truncate(7);
        if !near.is_empty() {
            // Vote by template skeleton, weighting by similarity.
            let mut votes: StableMap<&str, f32> = StableMap::default();
            for (sim, m) in &near {
                *votes.entry(m.skeleton.as_str()).or_insert(0.0) += sim;
            }
            let winner = votes
                .iter()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(k, _)| k.to_string());
            if let Some(skeleton) = winner {
                let best = near
                    .iter()
                    .find(|(_, m)| m.skeleton == skeleton)
                    .map(|(sim, m)| (*sim, m));
                if let Some((sim, m)) = best {
                    let arity_ok = sb_sql::parse(&m.sql)
                        .map(|q| {
                            let n = sb_sql::visitor::collect_literals(&q)
                                .iter()
                                .filter(|l| matches!(l, Literal::Int(_) | Literal::Float(_)))
                                .count();
                            n == link.numbers.len()
                        })
                        .unwrap_or(false);
                    // Strong consensus or near-exact single match.
                    let consensus =
                        votes[skeleton.as_str()] / near.iter().map(|(s, _)| s).sum::<f32>();
                    if arity_ok && (sim > 0.96 || (sim > 0.92 && consensus > 0.55)) {
                        if let Some(repaired) = reground_values(&m.sql, &link) {
                            if db.run(&repaired).is_ok() {
                                return repaired;
                            }
                        }
                    }
                }
            }
        }
        let delex = Self::delexicalize(question, &link, db);
        let q_embed = embed(&delex);
        let q_sq_norm = q_embed.sq_norm();

        // Rank sketches by similarity; delexicalization collapses distinct
        // columns to the same token, so break near-ties by how well the
        // template's slot count matches the linked evidence.
        let distinct_linked = link
            .columns
            .iter()
            .map(|c| (&c.table, &c.column))
            .collect::<StableSet<_>>()
            .len();
        let mut ranked: Vec<(f32, usize)> = self
            .sketches
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let slot_gap =
                    (s.template.columns.len() as i64 - distinct_linked as i64).unsigned_abs();
                let score =
                    q_embed.cosine_with_sq_norm(q_sq_norm, &s.embedding) - 0.015 * slot_gap as f32;
                (score, i)
            })
            .collect();
        ranked.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));

        // Candidate search: retrieval similarity gates hard — only
        // sketches within a hair of the best similarity compete (their
        // delexicalized text is equally consistent with the question);
        // the fill score then arbitrates among those near-ties.
        let top_sim = ranked.first().map(|(s, _)| *s).unwrap_or(0.0);
        let q_tokens = sb_embed::tokenize(question);
        let candidates = ranked
            .into_iter()
            .take_while(|(s, _)| *s >= top_sim - 0.03)
            .take(Self::BEAM)
            .flat_map(|(sim, idx)| {
                let template = &self.sketches[idx].template;
                let rotations = if template.table_count > 1 {
                    2
                } else {
                    2.min(link.tables.len().max(1))
                };
                let (link, q_tokens) = (&link, &q_tokens);
                (0..rotations).filter_map(move |rotation| {
                    self.instantiate(template, link, q_tokens, db, rotation)
                        .map(|(sql, fill)| (sim as f64 * 3.0 + fill * 1.0, sql))
                })
            });
        // Grammar-constrained decoding: only executable SQL survives the
        // beam. A candidate runs only when its score could still win.
        if let Some(sql) = first_best_executable(candidates, |sql| db.run(sql).is_ok()) {
            return sql;
        }
        // Fallback: the most plausible table dump.
        let table = link
            .best_table()
            .map(str::to_string)
            .or_else(|| db.schema.tables.first().map(|t| t.name.clone()))
            .unwrap_or_else(|| "unknown".into());
        format!("SELECT * FROM {table}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_engine::Value;
    use sb_schema::{Column, Schema, TableDef};

    fn db() -> Database {
        let schema = Schema::new("sdss").with_table(TableDef::new(
            "specobj",
            vec![
                Column::pk("specobjid", ColumnType::Int),
                Column::new("class", ColumnType::Text),
                Column::new("z", ColumnType::Float),
            ],
        ));
        let mut db = Database::new(schema);
        for i in 0..20i64 {
            db.table_mut("specobj").unwrap().push_rows(vec![vec![
                Value::Int(i),
                if i % 2 == 0 { "GALAXY" } else { "STAR" }.into(),
                Value::Float(i as f64 / 10.0),
            ]]);
        }
        db
    }

    #[test]
    fn trained_system_answers_in_domain_questions() {
        let db = db();
        let catalog = DbCatalog::new([&db]);
        let mut sys = ValueNetSim::new();
        sys.train(
            &[
                Pair::new(
                    "Find the spectroscopic objects whose class is STAR",
                    "SELECT s.specobjid FROM specobj AS s WHERE s.class = 'STAR'",
                    "sdss",
                ),
                Pair::new(
                    "Find objects with redshift greater than 0.5",
                    "SELECT s.specobjid FROM specobj AS s WHERE s.z > 0.5",
                    "sdss",
                ),
            ],
            &catalog,
        );
        let sql = sys.predict("Find the spectroscopic objects whose class is GALAXY", &db);
        let rs = db.run(&sql).expect("prediction executes");
        assert!(sql.contains("GALAXY"), "value grounding should fire: {sql}");
        assert_eq!(rs.len(), 10, "{sql}");
    }

    #[test]
    fn numeric_comparison_uses_question_number() {
        let db = db();
        let catalog = DbCatalog::new([&db]);
        let mut sys = ValueNetSim::new();
        sys.train(
            &[Pair::new(
                "Find objects with redshift greater than 0.5",
                "SELECT s.specobjid FROM specobj AS s WHERE s.z > 0.5",
                "sdss",
            )],
            &catalog,
        );
        let sql = sys.predict("Find objects with redshift greater than 1.2", &db);
        assert!(sql.contains("1.2"), "{sql}");
    }

    #[test]
    fn untrained_system_falls_back_but_stays_executable() {
        let db = db();
        let sys = ValueNetSim::new();
        let sql = sys.predict("anything at all", &db);
        assert!(db.run(&sql).is_ok(), "{sql}");
    }

    #[test]
    fn delexicalization_abstracts_values_and_numbers() {
        let db = db();
        let sys = ValueNetSim::new();
        let link = sys.linker.link("find GALAXY objects with z above 7", &db);
        let d = ValueNetSim::delexicalize("find GALAXY objects with z above 7", &link, &db);
        assert!(d.contains("val"), "{d}");
        assert!(d.contains("num"), "{d}");
        assert!(d.contains("col"), "z is a schema column: {d}");
    }
}
