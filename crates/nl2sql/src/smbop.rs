//! SmBoP-like system: bottom-up candidate construction with schema-aware
//! alignment scoring.
//!
//! SmBoP builds query trees bottom-up, keeping a beam of sub-trees ranked
//! by a learned scorer. This surrogate enumerates a bounded space of
//! relational-algebra trees over the linked schema elements (projections,
//! filters, aggregates, group-bys, superlatives, single FK joins) and
//! scores every candidate by the embedding similarity between the
//! question and the candidate's canonical English realization — the
//! GraPPa-style "does this SQL talk about what the question talks about"
//! signal. Training improves the realization vocabulary (learned aliases)
//! and the linker; the enumeration depth is fixed, so queries beyond the
//! grammar (deep nesting, multi-joins beyond two hops) are simply
//! unreachable — mirroring the ceiling real bottom-up decoders hit on the
//! extra-hard class.

use crate::linker::{column_mentioned, LinkResult, Linker};
use crate::select::last_best_executed;
use crate::{DbCatalog, NlToSql, Pair};
use sb_embed::embed;
use sb_engine::Database;
use sb_nl::{Realizer, Style};
use sb_schema::{ColumnType, EnhancedSchema};
use sb_sql::{
    AggArg, AggFunc, BinaryOp, Expr, Join, Literal, OrderItem, Query, Select, SelectItem, TableRef,
};

/// The SmBoP-like system.
#[derive(Debug, Clone, Default)]
pub struct SmBopSim {
    linker: Linker,
}

/// Cap on enumerated candidates per prediction; the beam the scorer
/// ranks.
const MAX_CANDIDATES: usize = 600;

impl SmBopSim {
    /// Create an untrained system.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enumerate candidate queries bottom-up from the link result.
    fn enumerate(&self, link: &LinkResult, db: &Database, question: &str) -> Vec<Query> {
        let schema = &db.schema;
        let mut out: Vec<Query> = Vec::new();
        let q_lower = question.to_lowercase();
        let wants_count = ["how many", "number of", "count"]
            .iter()
            .any(|w| q_lower.contains(w));
        // "maximum/minimum" phrase → aggregate; "highest/lowest" phrase →
        // superlative (ORDER BY + LIMIT). The canonical realizations keep
        // these disjoint.
        let agg_wanted: Vec<AggFunc> = [
            (AggFunc::Avg, vec!["average", "mean"]),
            (AggFunc::Sum, vec!["total", "sum"]),
            (AggFunc::Min, vec!["minimum"]),
            (AggFunc::Max, vec!["maximum"]),
        ]
        .into_iter()
        .filter(|(_, words)| words.iter().any(|w| q_lower.contains(w)))
        .map(|(f, _)| f)
        .collect();
        let superlative_desc = ["highest", "most", "largest", "top", "maximum"]
            .iter()
            .any(|w| q_lower.contains(w));
        let superlative_asc = ["lowest", "least", "smallest", "fewest", "minimum"]
            .iter()
            .any(|w| q_lower.contains(w));
        let grouped = ["each", "every", "per "]
            .iter()
            .any(|w| q_lower.contains(w));

        // Tables to consider: linked ones, value-hosting ones, else the
        // first schema table.
        let mut tables: Vec<String> = link.tables.iter().map(|(t, _)| t.clone()).collect();
        for (t, _, _) in &link.values {
            if !tables.contains(t) {
                tables.push(t.clone());
            }
        }
        if tables.is_empty() {
            if let Some(t) = schema.tables.first() {
                tables.push(t.name.to_ascii_lowercase());
            }
        }
        tables.truncate(3);

        for table in &tables {
            let Some(def) = schema.table(table) else {
                continue;
            };
            // Candidate projection columns: linked first, then pk/name.
            let mut proj_cols: Vec<String> = link
                .columns_of(table)
                .into_iter()
                .map(|c| c.column.clone())
                .take(3)
                .collect();
            if let Some(pk) = def.primary_key() {
                if !proj_cols.contains(&pk.name.to_ascii_lowercase()) {
                    proj_cols.push(pk.name.to_ascii_lowercase());
                }
            }
            if let Some(name_col) = def.column("name") {
                let n = name_col.name.to_ascii_lowercase();
                if !proj_cols.contains(&n) {
                    proj_cols.push(n);
                }
            }
            let numeric_cols: Vec<String> = link
                .columns_of(table)
                .into_iter()
                .filter(|c| def.column(&c.column).is_some_and(|cd| cd.ty.is_numeric()))
                .map(|c| c.column.clone())
                .take(2)
                .collect();

            // Candidate filters over this table.
            let mut filters: Vec<Option<Expr>> = vec![None];
            for (t, c, v) in &link.values {
                if t == table {
                    filters.push(Some(Expr::binary(
                        Expr::col(None, c),
                        BinaryOp::Eq,
                        Expr::Literal(v.clone()),
                    )));
                }
            }
            for &n in &link.numbers {
                for c in &numeric_cols {
                    let ty = def.column(c).map(|cd| cd.ty);
                    let lit = if ty == Some(ColumnType::Int) && n.fract() == 0.0 {
                        Literal::Int(n as i64)
                    } else {
                        Literal::Float(n)
                    };
                    for op in [BinaryOp::Gt, BinaryOp::Lt, BinaryOp::Eq] {
                        filters.push(Some(Expr::binary(
                            Expr::col(None, c),
                            op,
                            Expr::Literal(lit.clone()),
                        )));
                    }
                }
            }
            // Pairwise conjunctions/disjunctions of atomic filters with
            // distinct literals (disjunction only when the question says
            // "or").
            let atomic: Vec<Expr> = filters.iter().flatten().cloned().collect();
            let wants_or = q_lower.contains(" or ");
            let mut combos = 0;
            'combo: for i in 0..atomic.len() {
                for j in (i + 1)..atomic.len() {
                    if combos >= 24 {
                        break 'combo;
                    }
                    if filter_literal(&atomic[i]) == filter_literal(&atomic[j]) {
                        continue;
                    }
                    filters.push(Some(Expr::binary(
                        atomic[i].clone(),
                        BinaryOp::And,
                        atomic[j].clone(),
                    )));
                    combos += 1;
                    if wants_or {
                        filters.push(Some(Expr::binary(
                            atomic[i].clone(),
                            BinaryOp::Or,
                            atomic[j].clone(),
                        )));
                        combos += 1;
                    }
                }
            }

            for filter in &filters {
                // Plain projections: single columns and the top pair.
                for col in &proj_cols {
                    out.push(plain_query(
                        table,
                        std::slice::from_ref(col),
                        filter.clone(),
                    ));
                    if out.len() >= MAX_CANDIDATES {
                        return out;
                    }
                }
                if proj_cols.len() >= 2 {
                    out.push(plain_query(
                        table,
                        &[proj_cols[0].clone(), proj_cols[1].clone()],
                        filter.clone(),
                    ));
                }
                // COUNT(*).
                if wants_count || filter.is_some() {
                    out.push(agg_query(table, AggFunc::Count, None, filter.clone()));
                }
                // Aggregates over numeric columns.
                for f in &agg_wanted {
                    for c in &numeric_cols {
                        out.push(agg_query(table, *f, Some(c.clone()), filter.clone()));
                    }
                }
                // GROUP BY over linked text columns.
                if grouped {
                    for c in link.columns_of(table) {
                        if def
                            .column(&c.column)
                            .is_some_and(|cd| cd.ty == ColumnType::Text)
                        {
                            out.push(group_query(table, &c.column, filter.clone()));
                        }
                    }
                }
                // Superlatives.
                if superlative_desc || superlative_asc {
                    for key in &numeric_cols {
                        for proj in proj_cols.iter().take(2) {
                            let n = link
                                .numbers
                                .iter()
                                .find(|n| n.fract() == 0.0 && **n >= 1.0 && **n <= 100.0)
                                .map(|n| *n as u64)
                                .unwrap_or(1);
                            out.push(superlative_query(
                                table,
                                proj,
                                key,
                                superlative_desc,
                                n,
                                filter.clone(),
                            ));
                        }
                    }
                }
                if out.len() >= MAX_CANDIDATES {
                    return out;
                }
            }

            // One-hop FK joins to another linked table. Filters and
            // projections are qualified (T1 = this table, T2 = the other),
            // and both tables contribute candidates for each.
            for other in &tables {
                if other == table {
                    continue;
                }
                let edge = schema
                    .join_edges(table)
                    .into_iter()
                    .find(|(_, o, _)| o.eq_ignore_ascii_case(other));
                let Some((lcol, _, rcol)) = edge else {
                    continue;
                };
                // Projections from either side.
                let mut projections: Vec<(&str, String)> = proj_cols
                    .iter()
                    .take(2)
                    .map(|c| ("T1", c.clone()))
                    .collect();
                for c in link.columns_of(other).into_iter().take(2) {
                    projections.push(("T2", c.column.clone()));
                }
                // Qualified filters from either side.
                let mut jfilters: Vec<Option<Expr>> = vec![None];
                for (t, c, v) in &link.values {
                    let qualifier = if t == table {
                        Some("T1")
                    } else if t.eq_ignore_ascii_case(other) {
                        Some("T2")
                    } else {
                        None
                    };
                    if let Some(q) = qualifier {
                        jfilters.push(Some(Expr::binary(
                            Expr::col(Some(q), c),
                            BinaryOp::Eq,
                            Expr::Literal(v.clone()),
                        )));
                    }
                }
                for &n in &link.numbers {
                    for (qual, side) in [("T1", table.as_str()), ("T2", other.as_str())] {
                        let Some(side_def) = schema.table(side) else {
                            continue;
                        };
                        for c in link.columns_of(side).into_iter().take(2) {
                            let Some(cd) = side_def.column(&c.column) else {
                                continue;
                            };
                            if !cd.ty.is_numeric() {
                                continue;
                            }
                            let lit = if cd.ty == ColumnType::Int && n.fract() == 0.0 {
                                Literal::Int(n as i64)
                            } else {
                                Literal::Float(n)
                            };
                            for op in [BinaryOp::Eq, BinaryOp::Gt, BinaryOp::Lt] {
                                jfilters.push(Some(Expr::binary(
                                    Expr::col(Some(qual), &c.column),
                                    op,
                                    Expr::Literal(lit.clone()),
                                )));
                            }
                        }
                    }
                }
                for (qual, proj) in &projections {
                    for filter in jfilters.iter().take(10) {
                        out.push(join_query_qualified(
                            table,
                            other,
                            &lcol,
                            &rcol,
                            qual,
                            proj,
                            filter.clone(),
                        ));
                        if out.len() >= MAX_CANDIDATES {
                            return out;
                        }
                    }
                }
            }
        }
        out
    }
}

/// Shape cues read off the question: what kind of tree the scorer should
/// reward.
struct QuestionCues {
    count: bool,
    aggs: Vec<AggFunc>,
    superlative: bool,
    grouped: bool,
    join: bool,
    disjunction: bool,
    n_numbers: usize,
    greater_words: usize,
    less_words: usize,
}

impl QuestionCues {
    fn of(question: &str) -> QuestionCues {
        let q = question.to_lowercase();
        let aggs = [
            (AggFunc::Avg, vec!["average", "mean"]),
            (AggFunc::Sum, vec!["total", "sum"]),
            (AggFunc::Min, vec!["minimum"]),
            (AggFunc::Max, vec!["maximum"]),
        ]
        .into_iter()
        .filter(|(_, w)| w.iter().any(|x| q.contains(x)))
        .map(|(f, _)| f)
        .collect();
        QuestionCues {
            count: ["how many", "number of", "count"]
                .iter()
                .any(|w| q.contains(w)),
            aggs,
            superlative: [
                "highest", "most", "largest", "top", "lowest", "least", "smallest", "fewest",
            ]
            .iter()
            .any(|w| q.contains(w)),
            grouped: ["each", "every", "per "].iter().any(|w| q.contains(w)),
            join: ["together with", "related", "their matching"]
                .iter()
                .any(|w| q.contains(w)),
            disjunction: q.contains(" or "),
            n_numbers: crate::linker::extract_numbers(question).len(),
            greater_words: [
                "greater",
                "above",
                "more than",
                "exceeds",
                "at least",
                "over",
            ]
            .iter()
            .filter(|w| q.contains(*w))
            .count(),
            less_words: ["less", "below", "under", "at most", "smaller than", "fewer"]
                .iter()
                .filter(|w| q.contains(*w))
                .count(),
        }
    }
}

/// First token index at which a column is mentioned, or `None`.
fn mention_pos(q_tokens: &[String], column: &str) -> Option<usize> {
    let parts = crate::linker::name_tokens(column);
    let first = parts.first()?;
    q_tokens
        .iter()
        .position(|t| t == first || crate::linker::singular_eq_pub(t, first))
}

/// The hand-built analogue of a learned tree scorer: rewards candidates
/// whose shape and column mentions align with the question's cues and
/// evidence.
fn score_features(c: &Query, q_tokens: &[String], cues: &QuestionCues, link: &LinkResult) -> f64 {
    let mut score = 0.0;
    let mut has_count = false;
    let mut has_group = false;
    let mut has_join = false;
    let mut has_or = false;
    let mut n_literals = 0usize;
    let mut n_gt = 0usize;
    let mut n_lt = 0usize;
    // Earliest-mentioned linked column: our questions (like most NL
    // questions) name the projection first.
    let earliest = link
        .columns
        .iter()
        .filter_map(|lc| mention_pos(q_tokens, &lc.column).map(|p| (p, lc.column.clone())))
        .min();
    for s in c.selects() {
        has_group |= !s.group_by.is_empty();
        has_join |= !s.joins.is_empty();
        // Columns used in filters; questions rarely project the column
        // they filter on (they already know its value).
        let mut filter_cols: Vec<&str> = Vec::new();
        if let Some(sel) = &s.selection {
            collect_cols(sel, &mut filter_cols);
            has_or |= format!("{sel}").contains(" OR ");
        }
        for item in &s.projections {
            let SelectItem::Expr { expr, .. } = item else {
                continue;
            };
            if let Expr::Column(col) = expr {
                if filter_cols.contains(&col.column.as_str()) {
                    score -= 0.1;
                }
                if let Some((_, first_col)) = &earliest {
                    score += if col.column.eq_ignore_ascii_case(first_col) {
                        0.2
                    } else {
                        -0.1
                    };
                }
            }
            match expr {
                Expr::Agg { func, arg, .. } => {
                    if *func == AggFunc::Count {
                        has_count = true;
                        score += if cues.count { 0.3 } else { -0.25 };
                    } else {
                        score += if cues.aggs.contains(func) { 0.35 } else { -0.3 };
                        if let AggArg::Expr(inner) = arg {
                            score += mention_bonus(inner, q_tokens, 0.18);
                        }
                    }
                }
                other => {
                    score += mention_bonus(other, q_tokens, 0.18);
                    if cues.count && !has_group {
                        score -= 0.15;
                    }
                    for f in &cues.aggs {
                        let _ = f;
                        score -= 0.15;
                    }
                }
            }
        }
        if let Some(sel) = &s.selection {
            for conj in sel.conjuncts() {
                score += mention_bonus(conj, q_tokens, 0.10);
                count_ops(conj, &mut n_gt, &mut n_lt);
                score += pairing_bonus(conj, q_tokens, link);
            }
            n_literals += sb_sql::visitor::collect_literals(c)
                .iter()
                .filter(|l| !matches!(l, Literal::Null))
                .count();
        }
    }
    // Comparison directions must be licensed by the question's wording.
    score -= 0.18 * (n_gt as f64 - cues.greater_words as f64).abs();
    score -= 0.18 * (n_lt as f64 - cues.less_words as f64).abs();
    // Grouping / superlative shape alignment.
    score += match (cues.grouped, has_group) {
        (true, true) => 0.3,
        (true, false) => -0.2,
        (false, true) => -0.25,
        _ => 0.0,
    };
    let has_limit = c.limit.is_some();
    score += match (cues.superlative, has_limit) {
        (true, true) => 0.25,
        (true, false) => -0.2,
        (false, true) => -0.25,
        _ => 0.0,
    };
    let _ = has_count;
    score += match (cues.join, has_join) {
        (true, true) => 0.3,
        (true, false) => -0.25,
        (false, true) => -0.3,
        _ => 0.0,
    };
    score += match (cues.disjunction, has_or) {
        (true, true) => 0.3,
        (true, false) => -0.2,
        (false, true) => -0.3,
        _ => 0.0,
    };
    // Evidence consumption: filters should use the question's numbers and
    // grounded values, no more, no fewer.
    let expected = cues.n_numbers + link.values.len().min(1);
    score -= 0.12 * (n_literals as f64 - expected as f64).abs();
    score
}

/// Count strict greater / less comparisons in a predicate.
fn count_ops(e: &Expr, gt: &mut usize, lt: &mut usize) {
    if let Expr::Binary { op, left, right } = e {
        match op {
            BinaryOp::Gt | BinaryOp::GtEq => *gt += 1,
            BinaryOp::Lt | BinaryOp::LtEq => *lt += 1,
            _ => {}
        }
        if matches!(op, BinaryOp::And | BinaryOp::Or) {
            count_ops(left, gt, lt);
            count_ops(right, gt, lt);
        }
    }
}

/// Bonus when a numeric filter pairs each question number with the column
/// mentioned immediately before it ("the stadium id equals 18" → the 18
/// belongs to stadium_id).
fn pairing_bonus(e: &Expr, q_tokens: &[String], link: &LinkResult) -> f64 {
    let mut bonus = 0.0;
    match e {
        Expr::Binary { left, op, right } if op.is_comparison() => {
            if let (Expr::Column(col), Expr::Literal(lit)) = (left.as_ref(), right.as_ref()) {
                let n = match lit {
                    Literal::Int(v) => Some(*v as f64),
                    Literal::Float(v) => Some(*v),
                    _ => None,
                };
                if let Some(n) = n {
                    // Token index of this number.
                    let num_pos = q_tokens.iter().position(|t| {
                        t.parse::<f64>()
                            .map(|x| (x - n).abs() < 1e-9)
                            .unwrap_or(false)
                            || t.parse::<f64>()
                                .map(|x| (x - n.trunc()).abs() < 1e-9)
                                .unwrap_or(false)
                    });
                    if let Some(np) = num_pos {
                        // Nearest mentioned linked column before the number.
                        let nearest = link
                            .columns
                            .iter()
                            .filter_map(|lc| {
                                mention_pos(q_tokens, &lc.column)
                                    .filter(|p| *p < np)
                                    .map(|p| (p, lc.column.clone()))
                            })
                            .max_by_key(|(p, _)| *p);
                        if let Some((_, nearest_col)) = nearest {
                            bonus += if nearest_col.eq_ignore_ascii_case(&col.column) {
                                0.15
                            } else {
                                -0.1
                            };
                        }
                    }
                }
            }
        }
        Expr::Binary {
            left,
            op: BinaryOp::And | BinaryOp::Or,
            right,
        } => {
            bonus += pairing_bonus(left, q_tokens, link);
            bonus += pairing_bonus(right, q_tokens, link);
        }
        _ => {}
    }
    bonus
}

/// The literal of an atomic comparison filter, for deduplication.
fn filter_literal(e: &Expr) -> Option<&Literal> {
    match e {
        Expr::Binary { right, .. } => match right.as_ref() {
            Expr::Literal(l) => Some(l),
            _ => None,
        },
        _ => None,
    }
}

/// Mention bonus for every column inside `e`.
fn mention_bonus(e: &Expr, q_tokens: &[String], w: f64) -> f64 {
    let mut cols: Vec<&str> = Vec::new();
    collect_cols(e, &mut cols);
    let mut bonus = 0.0;
    for c in cols {
        if column_mentioned(q_tokens, c) {
            bonus += w;
        } else {
            bonus -= w / 2.0;
        }
    }
    bonus
}

fn collect_cols<'a>(e: &'a Expr, out: &mut Vec<&'a str>) {
    match e {
        Expr::Column(c) => out.push(&c.column),
        Expr::Binary { left, right, .. } => {
            collect_cols(left, out);
            collect_cols(right, out);
        }
        Expr::Agg {
            arg: AggArg::Expr(inner),
            ..
        } => collect_cols(inner, out),
        Expr::Between { expr, .. }
        | Expr::Like { expr, .. }
        | Expr::InList { expr, .. }
        | Expr::Unary { expr, .. } => collect_cols(expr, out),
        _ => {}
    }
}

fn base_select(table: &str) -> Select {
    Select {
        distinct: false,
        projections: Vec::new(),
        from: TableRef::named(table),
        joins: Vec::new(),
        selection: None,
        group_by: Vec::new(),
        having: None,
    }
}

fn plain_query(table: &str, cols: &[String], filter: Option<Expr>) -> Query {
    let mut s = base_select(table);
    s.projections = cols
        .iter()
        .map(|c| SelectItem::expr(Expr::col(None, c)))
        .collect();
    s.selection = filter;
    Query::from_select(s)
}

fn agg_query(table: &str, func: AggFunc, col: Option<String>, filter: Option<Expr>) -> Query {
    let mut s = base_select(table);
    let arg = match col {
        Some(c) => AggArg::Expr(Box::new(Expr::col(None, &c))),
        None => AggArg::Star,
    };
    s.projections = vec![SelectItem::expr(Expr::Agg {
        func,
        distinct: false,
        arg,
    })];
    s.selection = filter;
    Query::from_select(s)
}

fn group_query(table: &str, key: &str, filter: Option<Expr>) -> Query {
    let mut s = base_select(table);
    s.projections = vec![
        SelectItem::expr(Expr::col(None, key)),
        SelectItem::expr(Expr::Agg {
            func: AggFunc::Count,
            distinct: false,
            arg: AggArg::Star,
        }),
    ];
    s.selection = filter;
    s.group_by = vec![Expr::col(None, key)];
    Query::from_select(s)
}

fn superlative_query(
    table: &str,
    proj: &str,
    key: &str,
    desc: bool,
    limit: u64,
    filter: Option<Expr>,
) -> Query {
    let mut q = plain_query(table, &[proj.to_string()], filter);
    q.order_by = vec![OrderItem {
        expr: Expr::col(None, key),
        desc,
    }];
    q.limit = Some(limit);
    q
}

fn join_query_qualified(
    left: &str,
    right: &str,
    lcol: &str,
    rcol: &str,
    proj_qualifier: &str,
    proj: &str,
    filter: Option<Expr>,
) -> Query {
    let mut s = base_select(left);
    s.from = TableRef::aliased(left, "T1");
    s.projections = vec![SelectItem::expr(Expr::col(Some(proj_qualifier), proj))];
    s.joins = vec![Join {
        table: TableRef::aliased(right, "T2"),
        constraint: Some(Expr::binary(
            Expr::col(Some("T1"), lcol),
            BinaryOp::Eq,
            Expr::col(Some("T2"), rcol),
        )),
        left: false,
    }];
    s.selection = filter;
    Query::from_select(s)
}

impl NlToSql for SmBopSim {
    fn name(&self) -> &'static str {
        "SmBoP+GraPPa"
    }

    fn train(&mut self, pairs: &[Pair], catalog: &DbCatalog) {
        for pair in pairs {
            if let Some(db) = catalog.get(&pair.db) {
                self.linker.learn(pair, db);
            }
        }
    }

    fn predict(&self, question: &str, db: &Database) -> String {
        let link = self.linker.link(question, db);
        let candidates = self.enumerate(&link, db, question);
        if candidates.is_empty() {
            return format!(
                "SELECT * FROM {}",
                db.schema
                    .tables
                    .first()
                    .map(|t| t.name.clone())
                    .unwrap_or_else(|| "unknown".into())
            );
        }
        // Realization-based scoring with learned domain vocabulary.
        let mut enhanced = EnhancedSchema::new(db.schema.clone());
        for (table, column, token) in self.linker.learned_aliases(&db.schema.name) {
            enhanced.set_column_alias(&table, &column, &token);
        }
        let realizer = Realizer::new(&enhanced);
        let q_embed = embed(question);
        let q_sq_norm = q_embed.sq_norm();
        let q_tokens = sb_embed::tokenize(question);
        let cues = QuestionCues::of(question);
        // Raw scores need no execution; a candidate that does not execute
        // scores 10 less (bottom-up construction is schema-typed, so this
        // is rare). Only candidates that could still win are executed.
        let scores: Vec<(f64, f64)> = candidates
            .iter()
            .map(|c| {
                let text = realizer.realize(c, Style::reference());
                let similarity = 0.5 * q_embed.cosine_with_sq_norm(q_sq_norm, &embed(&text)) as f64;
                let features = score_features(c, &q_tokens, &cues, &link);
                (similarity + features, (similarity - 10.0) + features)
            })
            .collect();
        match last_best_executed(&scores, |i| db.run_query(&candidates[i]).is_ok()) {
            Some(i) => candidates[i].to_string(),
            None => "SELECT 1".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_engine::Value;
    use sb_schema::{Column, Schema, TableDef};

    fn pets_db() -> Database {
        let schema = Schema::new("pets").with_table(TableDef::new(
            "pets",
            vec![
                Column::pk("id", ColumnType::Int),
                Column::new("name", ColumnType::Text),
                Column::new("pet_type", ColumnType::Text),
                Column::new("weight", ColumnType::Float),
            ],
        ));
        let mut db = Database::new(schema);
        for i in 0..12i64 {
            db.table_mut("pets").unwrap().push_rows(vec![vec![
                Value::Int(i),
                format!("pet {i}").into(),
                if i % 3 == 0 { "dog" } else { "cat" }.into(),
                Value::Float(2.0 + i as f64),
            ]]);
        }
        db
    }

    #[test]
    fn answers_count_question_zero_shot_on_plain_schema() {
        let db = pets_db();
        let sys = SmBopSim::new();
        let sql = sys.predict("How many pets have a weight greater than 5?", &db);
        let rs = db.run(&sql).expect("prediction executes");
        assert!(sql.to_uppercase().contains("COUNT"), "{sql}");
        assert_eq!(rs.len(), 1, "{sql}");
    }

    #[test]
    fn grounds_values_zero_shot() {
        let db = pets_db();
        let sys = SmBopSim::new();
        let sql = sys.predict("Show the names of dog pets", &db);
        assert!(sql.contains("'dog'"), "{sql}");
        assert!(db.run(&sql).is_ok(), "{sql}");
    }

    #[test]
    fn superlative_becomes_order_limit() {
        let db = pets_db();
        let sys = SmBopSim::new();
        let sql = sys.predict("Which pet name has the highest weight?", &db);
        assert!(sql.contains("ORDER BY"), "{sql}");
        assert!(sql.contains("DESC"), "{sql}");
    }

    #[test]
    fn predictions_always_execute() {
        let db = pets_db();
        let sys = SmBopSim::new();
        for q in [
            "how many pets",
            "average weight of cats",
            "pets per type",
            "nonsense question about nothing",
        ] {
            let sql = sys.predict(q, &db);
            assert!(db.run(&sql).is_ok(), "`{q}` → `{sql}`");
        }
    }

    #[test]
    fn training_teaches_domain_vocabulary() {
        // Cryptic schema: "mass" is stored in column `m`.
        let schema = Schema::new("lab").with_table(TableDef::new(
            "samples",
            vec![
                Column::pk("id", ColumnType::Int),
                Column::new("m", ColumnType::Float),
                Column::new("tag", ColumnType::Text),
            ],
        ));
        let mut db = Database::new(schema);
        for i in 0..10i64 {
            db.table_mut("samples").unwrap().push_rows(vec![vec![
                Value::Int(i),
                Value::Float(i as f64),
                format!("tag{i}").into(),
            ]]);
        }
        let catalog = DbCatalog::new([&db]);
        let mut sys = SmBopSim::new();
        let zero_shot = sys.predict("What is the average mass of samples?", &db);
        sys.train(
            &[
                Pair::new(
                    "what is the mass of the samples",
                    "SELECT s.m FROM samples AS s",
                    "lab",
                ),
                Pair::new(
                    "find samples with mass above 3",
                    "SELECT s.id FROM samples AS s WHERE s.m > 3",
                    "lab",
                ),
            ],
            &catalog,
        );
        let trained = sys.predict("What is the average mass of samples?", &db);
        assert!(
            trained.to_uppercase().contains("AVG(M)")
                || trained.to_uppercase().contains("AVG(S.M)")
                || trained.to_uppercase().contains("AVG(SAMPLES.M)"),
            "after training, `mass` must link to column m: zero-shot `{zero_shot}`, trained `{trained}`"
        );
    }
}
