//! Schema-aware random query generation.
//!
//! Queries are generated directly as `sb_sql` ASTs, never as strings, so
//! every query is syntactically valid by construction and the
//! parse↔print↔parse round-trip check in the oracle exercises the printer
//! and parser rather than the generator. Well-typedness is enforced
//! structurally: join constraints follow foreign-key edges of the schema,
//! comparison literals are sampled from actual column values (so
//! predicates are satisfiable often enough to keep intermediate results
//! interesting), and aggregates are only applied to type-appropriate
//! columns.
//!
//! The clause weights are chosen so that every Spider hardness bucket
//! (easy / medium / hard / extra hard) is reachable: single-table filters
//! for easy, joins and grouping for medium/hard, set operations and
//! subqueries for extra hard.
//!
//! The generator deliberately keeps a few sharp edges in its output
//! distribution — unqualified `ON` columns (ambiguity handling) and
//! occasional out-of-range `ORDER BY` ordinals after set operations
//! (bounds handling) — because those are exactly the places where the
//! optimized executor historically diverged from the reference
//! interpreter.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sb_engine::{Database, Value};
use sb_schema::ColumnType;
use sb_sql::{
    AggArg, AggFunc, BinaryOp, ColumnRef, Expr, Join, Literal, OrderItem, Query, Select,
    SelectItem, SetExpr, SetOp, TableRef, UnaryOp,
};

/// A column visible in the generated FROM clause.
#[derive(Clone)]
struct BoundCol {
    /// Table alias (`T1`, `T2`, ...).
    alias: String,
    /// Column name.
    name: String,
    /// Declared type.
    ty: ColumnType,
    /// Base-table name, for value sampling.
    table: String,
    /// Column index in the base table.
    idx: usize,
}

impl BoundCol {
    fn expr(&self) -> Expr {
        Expr::Column(ColumnRef::qualified(&self.alias, &self.name))
    }

    fn numeric(&self) -> bool {
        matches!(self.ty, ColumnType::Int | ColumnType::Float)
    }
}

/// Deterministic random query generator over one database.
pub struct QueryGenerator<'a> {
    db: &'a Database,
    rng: StdRng,
}

impl<'a> QueryGenerator<'a> {
    /// Create a generator; the same `(database, seed)` pair always yields
    /// the same query sequence.
    pub fn new(db: &'a Database, seed: u64) -> Self {
        QueryGenerator {
            db,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Generate the next random query.
    pub fn query(&mut self) -> Query {
        if self.rng.gen_bool(0.12) {
            self.set_query()
        } else {
            self.select_query()
        }
    }

    // -----------------------------------------------------------------
    // Single-SELECT queries.
    // -----------------------------------------------------------------

    fn select_query(&mut self) -> Query {
        let (from, joins, bound) = self.join_tree();
        let mut select = Select {
            distinct: false,
            projections: Vec::new(),
            from,
            joins,
            selection: None,
            group_by: Vec::new(),
            having: None,
        };
        if self.rng.gen_bool(0.7) {
            select.selection = Some(self.predicate(2, &bound));
        }

        let mut order_by = Vec::new();
        if self.rng.gen_bool(0.3) {
            self.fill_aggregate(&mut select, &mut order_by, &bound);
        } else {
            self.fill_plain(&mut select, &mut order_by, &bound);
        }

        let limit = if self.rng.gen_bool(0.3) {
            Some(self.rng.gen_range(0..25u64))
        } else {
            None
        };
        Query {
            body: SetExpr::Select(Box::new(select)),
            order_by,
            limit,
        }
    }

    /// Plain (non-aggregate) projections, DISTINCT and ORDER BY.
    fn fill_plain(
        &mut self,
        select: &mut Select,
        order_by: &mut Vec<OrderItem>,
        bound: &[BoundCol],
    ) {
        if self.rng.gen_bool(0.08) {
            select.projections.push(SelectItem::Wildcard);
        } else {
            let n = self.rng.gen_range(1..=3usize.min(bound.len()));
            for i in 0..n {
                let col = bound.choose(&mut self.rng).unwrap().clone();
                let expr = if col.numeric() && self.rng.gen_bool(0.15) {
                    self.numeric_expr(&col, bound)
                } else {
                    col.expr()
                };
                // Alias some computed projections so ORDER BY can target
                // the alias-fallback path.
                let alias = if self.rng.gen_bool(0.2) {
                    Some(format!("v{}", i + 1))
                } else {
                    None
                };
                select.projections.push(SelectItem::Expr { expr, alias });
            }
            select.distinct = self.rng.gen_bool(0.15);
        }
        if self.rng.gen_bool(0.4) {
            let n = self.rng.gen_range(1..=2usize);
            for _ in 0..n {
                // Order either by an in-scope column or by a projection
                // alias (bare reference).
                let expr = if self.rng.gen_bool(0.25) {
                    match self.alias_ref(select) {
                        Some(e) => e,
                        None => bound.choose(&mut self.rng).unwrap().expr(),
                    }
                } else {
                    bound.choose(&mut self.rng).unwrap().expr()
                };
                order_by.push(OrderItem {
                    expr,
                    desc: self.rng.gen_bool(0.5),
                });
            }
        }
    }

    /// A bare reference to one of the select's projection aliases.
    fn alias_ref(&mut self, select: &Select) -> Option<Expr> {
        let aliases: Vec<&String> = select
            .projections
            .iter()
            .filter_map(|p| match p {
                SelectItem::Expr { alias: Some(a), .. } => Some(a),
                _ => None,
            })
            .collect();
        aliases
            .choose(&mut self.rng)
            .map(|a| Expr::Column(ColumnRef::bare(a)))
    }

    /// GROUP BY + aggregate projections, HAVING and ORDER BY.
    fn fill_aggregate(
        &mut self,
        select: &mut Select,
        order_by: &mut Vec<OrderItem>,
        bound: &[BoundCol],
    ) {
        let n_keys = if self.rng.gen_bool(0.25) {
            0 // global aggregate, single implicit group
        } else {
            self.rng.gen_range(1..=2usize.min(bound.len()))
        };
        let mut keys = Vec::new();
        for _ in 0..n_keys {
            let col = bound.choose(&mut self.rng).unwrap().clone();
            if !keys
                .iter()
                .any(|k: &BoundCol| k.alias == col.alias && k.name == col.name)
            {
                keys.push(col);
            }
        }
        for k in &keys {
            select.group_by.push(k.expr());
            select.projections.push(SelectItem::expr(k.expr()));
        }
        let n_aggs = self.rng.gen_range(1..=2usize);
        let mut agg_exprs = Vec::new();
        for _ in 0..n_aggs {
            let agg = self.aggregate(bound);
            agg_exprs.push(agg.clone());
            select.projections.push(SelectItem::expr(agg));
        }
        if self.rng.gen_bool(0.4) {
            let lhs = if self.rng.gen_bool(0.7) {
                Expr::Agg {
                    func: AggFunc::Count,
                    distinct: false,
                    arg: AggArg::Star,
                }
            } else {
                agg_exprs.choose(&mut self.rng).unwrap().clone()
            };
            let op = *[BinaryOp::GtEq, BinaryOp::Gt, BinaryOp::LtEq]
                .choose(&mut self.rng)
                .unwrap();
            let n = self.rng.gen_range(0..4i64);
            select.having = Some(Expr::binary(lhs, op, Expr::int(n)));
        }
        if self.rng.gen_bool(0.4) {
            let expr = if !keys.is_empty() && self.rng.gen_bool(0.5) {
                keys.choose(&mut self.rng).unwrap().expr()
            } else {
                agg_exprs
                    .choose(&mut self.rng)
                    .cloned()
                    .unwrap_or(Expr::Agg {
                        func: AggFunc::Count,
                        distinct: false,
                        arg: AggArg::Star,
                    })
            };
            order_by.push(OrderItem {
                expr,
                desc: self.rng.gen_bool(0.5),
            });
        }
    }

    /// A type-correct aggregate call.
    fn aggregate(&mut self, bound: &[BoundCol]) -> Expr {
        let numeric: Vec<&BoundCol> = bound.iter().filter(|c| c.numeric()).collect();
        let pick = self.rng.gen_range(0..5u8);
        match pick {
            0 => Expr::Agg {
                func: AggFunc::Count,
                distinct: false,
                arg: AggArg::Star,
            },
            1 => {
                let col = bound.choose(&mut self.rng).unwrap();
                Expr::Agg {
                    func: AggFunc::Count,
                    distinct: self.rng.gen_bool(0.4),
                    arg: AggArg::Expr(Box::new(col.expr())),
                }
            }
            2 | 3 if !numeric.is_empty() => {
                let col = numeric.choose(&mut self.rng).unwrap();
                let func = *[AggFunc::Sum, AggFunc::Avg].choose(&mut self.rng).unwrap();
                Expr::Agg {
                    func,
                    distinct: false,
                    arg: AggArg::Expr(Box::new(col.expr())),
                }
            }
            _ => {
                // MIN/MAX works on any single-typed column.
                let col = bound.choose(&mut self.rng).unwrap();
                let func = *[AggFunc::Min, AggFunc::Max].choose(&mut self.rng).unwrap();
                Expr::Agg {
                    func,
                    distinct: false,
                    arg: AggArg::Expr(Box::new(col.expr())),
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // FROM / JOIN tree over foreign-key edges.
    // -----------------------------------------------------------------

    fn join_tree(&mut self) -> (TableRef, Vec<Join>, Vec<BoundCol>) {
        let schema = &self.db.schema;
        let t0 = schema.tables.choose(&mut self.rng).unwrap();
        let mut tables: Vec<(String, String)> = vec![("T1".to_string(), t0.name.clone())];
        let mut joins = Vec::new();
        let n_joins = *[0usize, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 3]
            .choose(&mut self.rng)
            .unwrap();
        for _ in 0..n_joins {
            let mut cands = Vec::new();
            for (alias, tname) in &tables {
                for (this_col, other_table, other_col) in schema.join_edges(tname) {
                    cands.push((alias.clone(), this_col, other_table, other_col));
                }
            }
            let Some((lalias, lcol, rtable, rcol)) = cands.choose(&mut self.rng).cloned() else {
                break;
            };
            let ralias = format!("T{}", tables.len() + 1);
            // Occasionally drop a qualifier: ambiguity handling must not
            // depend on the join strategy.
            let lref = if self.rng.gen_bool(0.02) {
                Expr::Column(ColumnRef::bare(&lcol))
            } else {
                Expr::Column(ColumnRef::qualified(&lalias, &lcol))
            };
            let rref = if self.rng.gen_bool(0.03) {
                Expr::Column(ColumnRef::bare(&rcol))
            } else {
                Expr::Column(ColumnRef::qualified(&ralias, &rcol))
            };
            let (a, b) = if self.rng.gen_bool(0.5) {
                (lref, rref)
            } else {
                (rref, lref)
            };
            joins.push(Join {
                table: TableRef::aliased(&rtable, &ralias),
                constraint: Some(Expr::binary(a, BinaryOp::Eq, b)),
                left: self.rng.gen_bool(0.25),
            });
            tables.push((ralias, rtable));
        }
        let from = TableRef::aliased(&t0.name, "T1");
        let mut bound = Vec::new();
        for (alias, tname) in &tables {
            let def = schema.table(tname).expect("bound table exists");
            for (idx, c) in def.columns.iter().enumerate() {
                bound.push(BoundCol {
                    alias: alias.clone(),
                    name: c.name.clone(),
                    ty: c.ty,
                    table: tname.clone(),
                    idx,
                });
            }
        }
        (from, joins, bound)
    }

    // -----------------------------------------------------------------
    // Predicates.
    // -----------------------------------------------------------------

    fn predicate(&mut self, depth: usize, bound: &[BoundCol]) -> Expr {
        if depth == 0 || self.rng.gen_bool(0.5) {
            return self.leaf_predicate(bound);
        }
        match self.rng.gen_range(0..5u8) {
            0 | 1 => Expr::binary(
                self.predicate(depth - 1, bound),
                BinaryOp::And,
                self.predicate(depth - 1, bound),
            ),
            2 | 3 => Expr::binary(
                self.predicate(depth - 1, bound),
                BinaryOp::Or,
                self.predicate(depth - 1, bound),
            ),
            _ => Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(self.predicate(depth - 1, bound)),
            },
        }
    }

    fn leaf_predicate(&mut self, bound: &[BoundCol]) -> Expr {
        let col = bound.choose(&mut self.rng).unwrap().clone();
        match col.ty {
            ColumnType::Int | ColumnType::Float => self.numeric_leaf(&col, bound),
            ColumnType::Text => self.text_leaf(&col),
            ColumnType::Bool => {
                if self.rng.gen_bool(0.3) {
                    Expr::IsNull {
                        expr: Box::new(col.expr()),
                        negated: self.rng.gen_bool(0.5),
                    }
                } else {
                    Expr::binary(
                        col.expr(),
                        BinaryOp::Eq,
                        Expr::Literal(Literal::Bool(self.rng.gen_bool(0.5))),
                    )
                }
            }
        }
    }

    fn numeric_leaf(&mut self, col: &BoundCol, bound: &[BoundCol]) -> Expr {
        match self.rng.gen_range(0..10u8) {
            0..=4 => {
                let op = *[
                    BinaryOp::Eq,
                    BinaryOp::NotEq,
                    BinaryOp::Lt,
                    BinaryOp::LtEq,
                    BinaryOp::Gt,
                    BinaryOp::GtEq,
                ]
                .choose(&mut self.rng)
                .unwrap();
                let lhs = if self.rng.gen_bool(0.2) {
                    self.numeric_expr(col, bound)
                } else {
                    col.expr()
                };
                Expr::binary(lhs, op, self.sample_literal(col))
            }
            5 => Expr::Between {
                expr: Box::new(col.expr()),
                negated: self.rng.gen_bool(0.25),
                low: Box::new(self.sample_literal(col)),
                high: Box::new(self.sample_literal(col)),
            },
            6 => {
                let n = self.rng.gen_range(1..=3usize);
                Expr::InList {
                    expr: Box::new(col.expr()),
                    negated: self.rng.gen_bool(0.25),
                    list: (0..n).map(|_| self.sample_literal(col)).collect(),
                }
            }
            7 => Expr::IsNull {
                expr: Box::new(col.expr()),
                negated: self.rng.gen_bool(0.5),
            },
            8 => {
                // Column-to-column comparison within the scope.
                let other = bound
                    .iter()
                    .filter(|c| c.numeric())
                    .collect::<Vec<_>>()
                    .choose(&mut self.rng)
                    .map(|c| (*c).clone())
                    .unwrap_or_else(|| col.clone());
                let op = *[BinaryOp::Lt, BinaryOp::GtEq, BinaryOp::NotEq]
                    .choose(&mut self.rng)
                    .unwrap();
                Expr::binary(col.expr(), op, other.expr())
            }
            _ => {
                if self.rng.gen_bool(0.5) {
                    self.subquery_leaf(col)
                } else {
                    Expr::binary(
                        self.numeric_expr(col, bound),
                        *[BinaryOp::Lt, BinaryOp::Gt].choose(&mut self.rng).unwrap(),
                        self.sample_literal(col),
                    )
                }
            }
        }
    }

    /// A small arithmetic expression rooted at `col`.
    fn numeric_expr(&mut self, col: &BoundCol, bound: &[BoundCol]) -> Expr {
        let rhs = if self.rng.gen_bool(0.5) {
            let others: Vec<&BoundCol> = bound.iter().filter(|c| c.numeric()).collect();
            others
                .choose(&mut self.rng)
                .map(|c| c.expr())
                .unwrap_or_else(|| Expr::int(2))
        } else {
            Expr::int(self.rng.gen_range(1..10i64))
        };
        let op = *[BinaryOp::Add, BinaryOp::Sub, BinaryOp::Mul, BinaryOp::Div]
            .choose(&mut self.rng)
            .unwrap();
        Expr::binary(col.expr(), op, rhs)
    }

    /// A non-correlated subquery predicate over the column's own base
    /// table (scalar aggregate compare, `IN (SELECT ...)` or `EXISTS`).
    fn subquery_leaf(&mut self, col: &BoundCol) -> Expr {
        let inner_table = TableRef::named(&col.table);
        match self.rng.gen_range(0..3u8) {
            0 => {
                let func = *[AggFunc::Avg, AggFunc::Min, AggFunc::Max]
                    .choose(&mut self.rng)
                    .unwrap();
                let inner = Select {
                    distinct: false,
                    projections: vec![SelectItem::expr(Expr::Agg {
                        func,
                        distinct: false,
                        arg: AggArg::Expr(Box::new(Expr::Column(ColumnRef::bare(&col.name)))),
                    })],
                    from: inner_table,
                    joins: Vec::new(),
                    selection: None,
                    group_by: Vec::new(),
                    having: None,
                };
                let op = *[BinaryOp::Lt, BinaryOp::LtEq, BinaryOp::Gt, BinaryOp::GtEq]
                    .choose(&mut self.rng)
                    .unwrap();
                Expr::binary(
                    col.expr(),
                    op,
                    Expr::Subquery(Box::new(Query::from_select(inner))),
                )
            }
            1 => {
                let inner = Select {
                    distinct: self.rng.gen_bool(0.3),
                    projections: vec![SelectItem::expr(Expr::Column(ColumnRef::bare(&col.name)))],
                    from: inner_table,
                    joins: Vec::new(),
                    selection: None,
                    group_by: Vec::new(),
                    having: None,
                };
                Expr::InSubquery {
                    expr: Box::new(col.expr()),
                    negated: self.rng.gen_bool(0.3),
                    subquery: Box::new(Query::from_select(inner)),
                }
            }
            _ => Expr::Exists {
                negated: self.rng.gen_bool(0.3),
                subquery: Box::new(Query::from_select(Select::star_from(&col.table))),
            },
        }
    }

    fn text_leaf(&mut self, col: &BoundCol) -> Expr {
        match self.rng.gen_range(0..6u8) {
            0 | 1 => Expr::binary(
                col.expr(),
                *[BinaryOp::Eq, BinaryOp::NotEq]
                    .choose(&mut self.rng)
                    .unwrap(),
                self.sample_literal(col),
            ),
            2 => {
                let pat = self.like_pattern(col);
                Expr::Like {
                    expr: Box::new(col.expr()),
                    negated: self.rng.gen_bool(0.25),
                    pattern: Box::new(Expr::str(&pat)),
                }
            }
            3 => {
                let n = self.rng.gen_range(1..=3usize);
                Expr::InList {
                    expr: Box::new(col.expr()),
                    negated: self.rng.gen_bool(0.25),
                    list: (0..n).map(|_| self.sample_literal(col)).collect(),
                }
            }
            4 => Expr::IsNull {
                expr: Box::new(col.expr()),
                negated: self.rng.gen_bool(0.5),
            },
            _ => Expr::binary(
                col.expr(),
                *[BinaryOp::Lt, BinaryOp::Gt].choose(&mut self.rng).unwrap(),
                self.sample_literal(col),
            ),
        }
    }

    /// A `%frag%`-style pattern built from a sampled value of the column.
    fn like_pattern(&mut self, col: &BoundCol) -> String {
        let base = match self.sample_value(col) {
            Some(Value::Text(s)) if !s.is_empty() => s.to_string(),
            _ => "a".to_string(),
        };
        let chars: Vec<char> = base.chars().collect();
        let start = self.rng.gen_range(0..chars.len());
        let len = self.rng.gen_range(1..=(chars.len() - start).min(6));
        let mut frag: String = chars[start..start + len].iter().collect();
        if self.rng.gen_bool(0.2) {
            // Replace one fragment character with `_`.
            let frag_chars: Vec<char> = frag.chars().collect();
            let i = self.rng.gen_range(0..frag_chars.len());
            frag = frag_chars
                .iter()
                .enumerate()
                .map(|(j, c)| if j == i { '_' } else { *c })
                .collect();
        }
        match self.rng.gen_range(0..5u8) {
            0 => format!("%{frag}"),
            1 => format!("{frag}%"),
            2 => format!("%{frag}%"),
            // Multi-`%` patterns: split the fragment and interleave
            // wildcards, exercising the matcher's backtracking across
            // several unanchored segments.
            _ => {
                let frag_chars: Vec<char> = frag.chars().collect();
                let cut = self.rng.gen_range(0..=frag_chars.len());
                let (a, b) = frag_chars.split_at(cut);
                let a: String = a.iter().collect();
                let b: String = b.iter().collect();
                if self.rng.gen_bool(0.5) {
                    format!("%{a}%{b}%")
                } else {
                    format!("{a}%{b}")
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // Set operations.
    // -----------------------------------------------------------------

    fn set_query(&mut self) -> Query {
        let schema = &self.db.schema;
        let t = schema.tables.choose(&mut self.rng).unwrap().clone();
        let n_cols = self.rng.gen_range(1..=2usize.min(t.columns.len()));
        let mut cols: Vec<usize> = (0..t.columns.len()).collect();
        cols.shuffle(&mut self.rng);
        cols.truncate(n_cols);
        let bound: Vec<BoundCol> = t
            .columns
            .iter()
            .enumerate()
            .map(|(idx, c)| BoundCol {
                alias: "T1".to_string(),
                name: c.name.clone(),
                ty: c.ty,
                table: t.name.clone(),
                idx,
            })
            .collect();
        let side = |g: &mut Self, drop_last: bool| -> SetExpr {
            let mut projections: Vec<SelectItem> = cols
                .iter()
                .enumerate()
                .map(|(i, &ci)| SelectItem::Expr {
                    expr: bound[ci].expr(),
                    alias: Some(format!("c{}", i + 1)),
                })
                .collect();
            if drop_last {
                // Rare arity mismatch: both interpreters must reject it.
                projections.truncate(projections.len().saturating_sub(1).max(1));
            }
            let selection = if g.rng.gen_bool(0.7) {
                Some(g.predicate(1, &bound))
            } else {
                None
            };
            SetExpr::Select(Box::new(Select {
                distinct: false,
                projections,
                from: TableRef::aliased(&t.name, "T1"),
                joins: Vec::new(),
                selection,
                group_by: Vec::new(),
                having: None,
            }))
        };
        let left = side(self, false);
        let mismatch = n_cols > 1 && self.rng.gen_bool(0.03);
        let right = side(self, mismatch);
        let op = *[SetOp::Union, SetOp::Intersect, SetOp::Except]
            .choose(&mut self.rng)
            .unwrap();
        let all = op == SetOp::Union && self.rng.gen_bool(0.4);
        let body = SetExpr::SetOp {
            op,
            all,
            left: Box::new(left),
            right: Box::new(right),
        };
        let mut order_by = Vec::new();
        if self.rng.gen_bool(0.6) {
            let expr = if self.rng.gen_bool(0.5) {
                // Output column name.
                Expr::Column(ColumnRef::bare(&format!(
                    "c{}",
                    self.rng.gen_range(1..=n_cols)
                )))
            } else if self.rng.gen_bool(0.1) {
                // Rare out-of-range ordinal: must error, not panic.
                Expr::int((n_cols + 3) as i64)
            } else {
                Expr::int(self.rng.gen_range(1..=n_cols) as i64)
            };
            order_by.push(OrderItem {
                expr,
                desc: self.rng.gen_bool(0.5),
            });
        }
        let limit = if self.rng.gen_bool(0.3) {
            Some(self.rng.gen_range(0..20u64))
        } else {
            None
        };
        Query {
            body,
            order_by,
            limit,
        }
    }

    // -----------------------------------------------------------------
    // Value sampling.
    // -----------------------------------------------------------------

    fn sample_value(&mut self, col: &BoundCol) -> Option<Value> {
        let table = self.db.table(&col.table)?;
        if table.is_empty() {
            return None;
        }
        for _ in 0..4 {
            let i = self.rng.gen_range(0..table.len());
            let v = table.cell(i, col.idx);
            if !v.is_null() {
                return Some(v);
            }
        }
        None
    }

    /// A literal sampled from the column's actual values, falling back to
    /// a type-appropriate constant for empty or all-NULL columns.
    fn sample_literal(&mut self, col: &BoundCol) -> Expr {
        match self.sample_value(col) {
            Some(Value::Int(n)) => Expr::int(n),
            Some(Value::Float(f)) if f.is_finite() && f.abs() < 1e15 => Expr::float(f),
            Some(Value::Text(s)) => Expr::str(&s),
            Some(Value::Bool(b)) => Expr::Literal(Literal::Bool(b)),
            _ => match col.ty {
                ColumnType::Int => Expr::int(self.rng.gen_range(-5..100i64)),
                ColumnType::Float => Expr::float(self.rng.gen_range(-5.0..100.0)),
                ColumnType::Text => Expr::str("none"),
                ColumnType::Bool => Expr::Literal(Literal::Bool(true)),
            },
        }
    }
}
