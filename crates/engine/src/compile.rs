//! Compile-once expression programs.
//!
//! This is the row executor's only expression evaluator. It lowers an
//! [`Expr`] against its [`Scope`] exactly once, producing a [`CExpr`]
//! program in which column references are positional slots, literal
//! subtrees are constant-folded, and subqueries carry a per-statement
//! result cache — so per-row evaluation does zero name lookups, zero
//! `String` formatting, and no `Value` clones for comparisons.
//!
//! Error parity with the reference interpreter ([`crate::reference`])
//! is load-bearing: the differential fuzzer and the error-parity tests
//! run both against each other. Binding errors (`UnknownColumn`,
//! `AmbiguousColumn`, …) discovered at compile time are *not* raised
//! immediately — the reference only reports them when a row actually
//! reaches the expression, so a pushdown-emptied scan must still
//! succeed. They become [`CExpr::Fail`] poison nodes
//! that reproduce the error if (and only if) evaluation touches them,
//! preserving short-circuit semantics such as `FALSE AND nope = 1`.

use crate::error::{EngineError, Result};
use crate::eval::{self, truth_ref, EvalContext, Scope};
use crate::exec::finish_aggregate;
use crate::inset::{in_result, InSet};
use crate::result::ResultSet;
use crate::value::Value;
use sb_sql::{AggArg, AggFunc, BinaryOp, Expr, Query, Select, SelectItem, UnaryOp};
use std::cell::{OnceCell, RefCell};
use std::ops::Deref;
use std::rc::Rc;
use std::sync::Arc;

/// A value produced by compiled evaluation: either a borrow into the row
/// (column slots) or into the program (constants), or a computed value.
/// Dereferences to [`Value`] so comparisons never clone.
pub(crate) enum CV<'a> {
    /// Borrowed from the row or the program.
    Ref(&'a Value),
    /// Computed during evaluation.
    Owned(Value),
}

impl Deref for CV<'_> {
    type Target = Value;

    fn deref(&self) -> &Value {
        match self {
            CV::Ref(v) => v,
            CV::Owned(v) => v,
        }
    }
}

impl CV<'_> {
    /// Take ownership, cloning only when the value was borrowed.
    pub(crate) fn into_value(self) -> Value {
        match self {
            CV::Ref(v) => v.clone(),
            CV::Owned(v) => v,
        }
    }
}

/// A compiled subquery: executed through the statement-level memo on
/// first evaluation, then pinned locally so later rows skip even the
/// memo's SQL-text key construction. An `IN (SELECT …)` pins its
/// membership set the same way.
pub(crate) struct SubPlan<'q> {
    query: &'q Query,
    cache: RefCell<Option<Rc<ResultSet>>>,
    set: OnceCell<Arc<InSet>>,
}

impl<'q> SubPlan<'q> {
    fn new(query: &'q Query) -> Self {
        SubPlan {
            query,
            cache: RefCell::new(None),
            set: OnceCell::new(),
        }
    }

    fn run(&self, ctx: &EvalContext) -> Result<Rc<ResultSet>> {
        if let Some(rs) = &*self.cache.borrow() {
            return Ok(Rc::clone(rs));
        }
        sb_obs::count("engine.compile.subquery_exec", 1);
        let rs = ctx.subquery(self.query)?;
        *self.cache.borrow_mut() = Some(Rc::clone(&rs));
        Ok(rs)
    }

    fn in_set(&self, ctx: &EvalContext) -> Result<&InSet> {
        if let Some(set) = self.set.get() {
            return Ok(set);
        }
        sb_obs::count("engine.compile.subquery_exec", 1);
        let set = ctx.in_set(self.query)?;
        Ok(self.set.get_or_init(|| set))
    }
}

/// A compiled scalar expression. Mirrors [`Expr`] shape for shared
/// machinery, but with names resolved, constants folded, and binding
/// errors reified as poison nodes.
pub(crate) enum CExpr<'q> {
    /// Column resolved to an index into the concatenated row.
    Slot(usize),
    /// A literal, or a folded constant subtree.
    Const(Value),
    /// A poison node: raises its error when evaluated, exactly where the
    /// reference interpreter raises it row-side.
    Fail(EngineError),
    /// Unary operator.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand program.
        expr: Box<CExpr<'q>>,
    },
    /// Three-valued AND/OR with the reference's short-circuiting.
    Logical {
        /// `And` or `Or`.
        op: BinaryOp,
        /// Left operand program.
        left: Box<CExpr<'q>>,
        /// Right operand program.
        right: Box<CExpr<'q>>,
    },
    /// Arithmetic operator.
    Arith {
        /// Operator.
        op: BinaryOp,
        /// Left operand program.
        left: Box<CExpr<'q>>,
        /// Right operand program.
        right: Box<CExpr<'q>>,
    },
    /// Comparison operator.
    Cmp {
        /// Operator.
        op: BinaryOp,
        /// Left operand program.
        left: Box<CExpr<'q>>,
        /// Right operand program.
        right: Box<CExpr<'q>>,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        /// Tested program.
        expr: Box<CExpr<'q>>,
        /// Whether `NOT` was specified.
        negated: bool,
        /// Lower bound program.
        low: Box<CExpr<'q>>,
        /// Upper bound program.
        high: Box<CExpr<'q>>,
    },
    /// `expr [NOT] IN (e1, e2, …)`.
    InList {
        /// Tested program.
        expr: Box<CExpr<'q>>,
        /// Whether `NOT` was specified.
        negated: bool,
        /// Candidate programs.
        list: Vec<CExpr<'q>>,
    },
    /// `expr [NOT] IN (SELECT …)`.
    InSubquery {
        /// Tested program.
        expr: Box<CExpr<'q>>,
        /// Whether `NOT` was specified.
        negated: bool,
        /// Candidate subquery.
        sub: SubPlan<'q>,
    },
    /// `expr [NOT] LIKE pattern`.
    Like {
        /// Tested program.
        expr: Box<CExpr<'q>>,
        /// Whether `NOT` was specified.
        negated: bool,
        /// Pattern program.
        pattern: Box<CExpr<'q>>,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Tested program.
        expr: Box<CExpr<'q>>,
        /// Whether `NOT` was specified.
        negated: bool,
    },
    /// Scalar subquery.
    Subquery(SubPlan<'q>),
    /// `[NOT] EXISTS (SELECT …)`.
    Exists {
        /// Whether `NOT` was specified.
        negated: bool,
        /// Probed subquery.
        sub: SubPlan<'q>,
    },
}

/// Lower `expr` against `scope`. Never fails: binding errors become
/// [`CExpr::Fail`] poison nodes so zero-row inputs keep succeeding the
/// way the reference interpreter does.
pub(crate) fn compile<'q>(expr: &'q Expr, scope: &Scope, ctx: &EvalContext) -> CExpr<'q> {
    let node = match expr {
        Expr::Column(c) => match scope.resolve(c) {
            Ok(i) => CExpr::Slot(i),
            Err(e) => CExpr::Fail(e),
        },
        Expr::Literal(l) => CExpr::Const(eval::literal_value(l)),
        Expr::Unary { op, expr } => CExpr::Unary {
            op: *op,
            expr: Box::new(compile(expr, scope, ctx)),
        },
        Expr::Binary { left, op, right } => {
            let left = Box::new(compile(left, scope, ctx));
            let right = Box::new(compile(right, scope, ctx));
            if matches!(op, BinaryOp::And | BinaryOp::Or) {
                CExpr::Logical {
                    op: *op,
                    left,
                    right,
                }
            } else if op.is_arithmetic() {
                CExpr::Arith {
                    op: *op,
                    left,
                    right,
                }
            } else {
                CExpr::Cmp {
                    op: *op,
                    left,
                    right,
                }
            }
        }
        Expr::Agg { .. } => CExpr::Fail(EngineError::Unsupported(
            "aggregate function outside GROUP BY context".into(),
        )),
        Expr::Between {
            expr,
            negated,
            low,
            high,
        } => CExpr::Between {
            expr: Box::new(compile(expr, scope, ctx)),
            negated: *negated,
            low: Box::new(compile(low, scope, ctx)),
            high: Box::new(compile(high, scope, ctx)),
        },
        Expr::InList {
            expr,
            negated,
            list,
        } => CExpr::InList {
            expr: Box::new(compile(expr, scope, ctx)),
            negated: *negated,
            list: list.iter().map(|e| compile(e, scope, ctx)).collect(),
        },
        Expr::InSubquery {
            expr,
            negated,
            subquery,
        } => CExpr::InSubquery {
            expr: Box::new(compile(expr, scope, ctx)),
            negated: *negated,
            sub: SubPlan::new(subquery),
        },
        Expr::Like {
            expr,
            negated,
            pattern,
        } => CExpr::Like {
            expr: Box::new(compile(expr, scope, ctx)),
            negated: *negated,
            pattern: Box::new(compile(pattern, scope, ctx)),
        },
        Expr::IsNull { expr, negated } => CExpr::IsNull {
            expr: Box::new(compile(expr, scope, ctx)),
            negated: *negated,
        },
        Expr::Subquery(q) => CExpr::Subquery(SubPlan::new(q)),
        Expr::Exists { negated, subquery } => CExpr::Exists {
            negated: *negated,
            sub: SubPlan::new(subquery),
        },
    };
    maybe_fold(node, ctx)
}

/// Fold a node whose children are all constants. Evaluation errors fold
/// to poison, not to an immediate failure: `1 + 'x'` only errors when a
/// row reaches it, same as the reference interpreter.
fn maybe_fold<'q>(node: CExpr<'q>, ctx: &EvalContext) -> CExpr<'q> {
    if !node.foldable() {
        return node;
    }
    match node.eval(&[], ctx) {
        Ok(v) => CExpr::Const(v.into_value()),
        Err(e) => CExpr::Fail(e),
    }
}

impl<'q> CExpr<'q> {
    fn is_const(&self) -> bool {
        matches!(self, CExpr::Const(_))
    }

    /// Whether the node can be evaluated now, once, instead of per row.
    /// Children were already folded bottom-up, so "all children are
    /// `Const`" is the full recursive condition. Subquery nodes never
    /// fold: their execution order against the statement memo must match
    /// the reference interpreter's.
    fn foldable(&self) -> bool {
        match self {
            CExpr::Slot(_)
            | CExpr::Const(_)
            | CExpr::Fail(_)
            | CExpr::InSubquery { .. }
            | CExpr::Subquery(_)
            | CExpr::Exists { .. } => false,
            CExpr::Unary { expr, .. } | CExpr::IsNull { expr, .. } => expr.is_const(),
            CExpr::Logical { left, right, .. }
            | CExpr::Arith { left, right, .. }
            | CExpr::Cmp { left, right, .. } => left.is_const() && right.is_const(),
            CExpr::Between {
                expr, low, high, ..
            } => expr.is_const() && low.is_const() && high.is_const(),
            CExpr::InList { expr, list, .. } => expr.is_const() && list.iter().all(CExpr::is_const),
            CExpr::Like { expr, pattern, .. } => expr.is_const() && pattern.is_const(),
        }
    }

    /// Borrow a leaf node's value without going through the recursive
    /// evaluator: slots and constants cannot fail and need no context.
    /// The hot comparison/arithmetic arms use this to skip a call frame
    /// and a `Result<CV>` round-trip per operand — the dominant per-row
    /// cost for typical `col OP literal` predicates.
    #[inline(always)]
    fn leaf<'a>(&'a self, row: &'a [Value]) -> Option<&'a Value> {
        match self {
            CExpr::Slot(i) => Some(&row[*i]),
            CExpr::Const(v) => Some(v),
            _ => None,
        }
    }

    /// Evaluate against one row. Semantically identical to the reference
    /// interpreter's scalar evaluation of the source expression,
    /// including error text, error order, and three-valued logic.
    pub(crate) fn eval<'a>(&'a self, row: &'a [Value], ctx: &EvalContext) -> Result<CV<'a>> {
        match self {
            CExpr::Slot(i) => Ok(CV::Ref(&row[*i])),
            CExpr::Const(v) => Ok(CV::Ref(v)),
            CExpr::Fail(e) => Err(e.clone()),
            CExpr::Unary { op, expr } => Ok(CV::Owned(eval::apply_unary(
                *op,
                expr.eval(row, ctx)?.into_value(),
            )?)),
            CExpr::Logical { op, left, right } => {
                let lv = left.eval(row, ctx)?;
                let l = truth_ref(&lv)?;
                // Short-circuit where three-valued logic allows it — the
                // right side must stay untouched (it may be poison).
                match (op, l) {
                    (BinaryOp::And, Some(false)) => return Ok(CV::Owned(Value::Bool(false))),
                    (BinaryOp::Or, Some(true)) => return Ok(CV::Owned(Value::Bool(true))),
                    _ => {}
                }
                let rv = right.eval(row, ctx)?;
                let r = truth_ref(&rv)?;
                Ok(CV::Owned(match eval::combine_logical(*op, l, r) {
                    Some(b) => Value::Bool(b),
                    None => Value::Null,
                }))
            }
            CExpr::Arith { op, left, right } => {
                if let (Some(l), Some(r)) = (left.leaf(row), right.leaf(row)) {
                    return Ok(CV::Owned(eval::arith(*op, l, r)?));
                }
                let l = left.eval(row, ctx)?;
                let r = right.eval(row, ctx)?;
                Ok(CV::Owned(eval::arith(*op, &l, &r)?))
            }
            CExpr::Cmp { op, left, right } => {
                if let (Some(l), Some(r)) = (left.leaf(row), right.leaf(row)) {
                    return Ok(CV::Owned(eval::apply_cmp(*op, l, r)?));
                }
                let l = left.eval(row, ctx)?;
                let r = right.eval(row, ctx)?;
                Ok(CV::Owned(eval::apply_cmp(*op, &l, &r)?))
            }
            CExpr::Between {
                expr,
                negated,
                low,
                high,
            } => {
                let v = expr.eval(row, ctx)?;
                let lo = low.eval(row, ctx)?;
                let hi = high.eval(row, ctx)?;
                let ge = v.compare(&lo).map(|o| o.is_ge());
                let le = v.compare(&hi).map(|o| o.is_le());
                let within = match (ge, le) {
                    (Some(a), Some(b)) => Some(a && b),
                    (Some(false), _) | (_, Some(false)) => Some(false),
                    _ => None,
                };
                Ok(CV::Owned(match within {
                    Some(b) => Value::Bool(b != *negated),
                    None => Value::Null,
                }))
            }
            CExpr::InList {
                expr,
                negated,
                list,
            } => {
                let v = expr.eval(row, ctx)?;
                let mut saw_null = v.is_null();
                let mut found = false;
                for item in list {
                    let iv = item.eval(row, ctx)?;
                    match v.sql_eq(&iv) {
                        Some(true) => {
                            found = true;
                            break;
                        }
                        Some(false) => {}
                        None => saw_null = true,
                    }
                }
                Ok(CV::Owned(in_result(found, saw_null, *negated)))
            }
            CExpr::InSubquery { expr, negated, sub } => {
                let v = expr.eval(row, ctx)?;
                let (found, saw_null) = sub.in_set(ctx)?.probe(&v);
                Ok(CV::Owned(in_result(found, saw_null, *negated)))
            }
            CExpr::Like {
                expr,
                negated,
                pattern,
            } => {
                let v = expr.eval(row, ctx)?;
                let p = pattern.eval(row, ctx)?;
                match (&*v, &*p) {
                    (Value::Null, _) | (_, Value::Null) => Ok(CV::Owned(Value::Null)),
                    (Value::Text(s), Value::Text(pat)) => {
                        Ok(CV::Owned(Value::Bool(eval::like_match(s, pat) != *negated)))
                    }
                    (a, b) => Err(EngineError::TypeMismatch(format!(
                        "LIKE requires text operands, got {a} and {b}"
                    ))),
                }
            }
            CExpr::IsNull { expr, negated } => {
                let v = expr.eval(row, ctx)?;
                Ok(CV::Owned(Value::Bool(v.is_null() != *negated)))
            }
            CExpr::Subquery(sub) => {
                let rs = sub.run(ctx)?;
                if rs.columns.len() != 1 {
                    return Err(EngineError::CardinalityViolation(format!(
                        "scalar subquery returns {} columns",
                        rs.columns.len()
                    )));
                }
                match rs.rows.len() {
                    0 => Ok(CV::Owned(Value::Null)),
                    1 => Ok(CV::Owned(rs.rows[0][0].clone())),
                    n => Err(EngineError::CardinalityViolation(format!(
                        "scalar subquery returns {n} rows"
                    ))),
                }
            }
            CExpr::Exists { negated, sub } => {
                let rs = sub.run(ctx)?;
                Ok(CV::Owned(Value::Bool(rs.rows.is_empty() == *negated)))
            }
        }
    }

    /// Evaluate as a filter predicate: NULL counts as not-true.
    ///
    /// The `Cmp` and `Const` arms are unrolled here: a comparison yields
    /// only `Bool` or `Null` (see [`eval::apply_cmp`]), so its truth is
    /// `Bool(true)` exactly, with no error case — skipping the generic
    /// `CV` + [`truth_ref`] round-trip on the per-row hot path.
    #[inline]
    pub(crate) fn eval_filter(&self, row: &[Value], ctx: &EvalContext) -> Result<bool> {
        match self {
            CExpr::Const(v) => Ok(truth_ref(v)?.unwrap_or(false)),
            CExpr::Cmp { op, left, right } => {
                if let (Some(l), Some(r)) = (left.leaf(row), right.leaf(row)) {
                    return Ok(matches!(eval::apply_cmp(*op, l, r)?, Value::Bool(true)));
                }
                let l = left.eval(row, ctx)?;
                let r = right.eval(row, ctx)?;
                Ok(matches!(eval::apply_cmp(*op, &l, &r)?, Value::Bool(true)))
            }
            _ => {
                let v = self.eval(row, ctx)?;
                Ok(truth_ref(&v)?.unwrap_or(false))
            }
        }
    }
}

/// Argument of a compiled aggregate call.
pub(crate) enum GArg<'q> {
    /// `COUNT(*)`.
    Star,
    /// A compiled expression argument.
    Expr(CExpr<'q>),
}

/// A compiled group-context expression, mirroring the reference
/// interpreter's `eval_grouped` recursion: aggregates consume the group, `Binary`/
/// `Unary` combine grouped results, anything else evaluates on the
/// group's first row (NULL on an empty implicit group).
pub(crate) enum GExpr<'q> {
    /// Aggregate call over the group's rows.
    Agg {
        /// Aggregate function.
        func: AggFunc,
        /// Whether `DISTINCT` was specified inside the call.
        distinct: bool,
        /// Argument program.
        arg: GArg<'q>,
    },
    /// Binary combination of grouped operands (evaluated eagerly, like
    /// the reference interpreter, even for AND/OR).
    Binary {
        /// Left operand program.
        left: Box<GExpr<'q>>,
        /// Operator.
        op: BinaryOp,
        /// Right operand program.
        right: Box<GExpr<'q>>,
    },
    /// Unary operator over a grouped operand.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand program.
        expr: Box<GExpr<'q>>,
    },
    /// Evaluated on the group's first row.
    Scalar(CExpr<'q>),
}

/// Lower a group-context expression. Like [`compile`], never fails.
pub(crate) fn compile_grouped<'q>(expr: &'q Expr, scope: &Scope, ctx: &EvalContext) -> GExpr<'q> {
    match expr {
        Expr::Agg {
            func,
            distinct,
            arg,
        } => GExpr::Agg {
            func: *func,
            distinct: *distinct,
            arg: match arg {
                AggArg::Star => GArg::Star,
                AggArg::Expr(e) => GArg::Expr(compile(e, scope, ctx)),
            },
        },
        Expr::Binary { left, op, right } => GExpr::Binary {
            left: Box::new(compile_grouped(left, scope, ctx)),
            op: *op,
            right: Box::new(compile_grouped(right, scope, ctx)),
        },
        Expr::Unary { op, expr } => GExpr::Unary {
            op: *op,
            expr: Box::new(compile_grouped(expr, scope, ctx)),
        },
        other => GExpr::Scalar(compile(other, scope, ctx)),
    }
}

impl<'q> GExpr<'q> {
    /// Evaluate over one group of rows.
    pub(crate) fn eval(&self, group: &[Vec<Value>], ctx: &EvalContext) -> Result<Value> {
        match self {
            GExpr::Agg {
                func,
                distinct,
                arg,
            } => fold_group_aggregate(*func, *distinct, arg, group, ctx),
            GExpr::Binary { left, op, right } => {
                // Both sides evaluate eagerly — the reference computes
                // grouped operands before any logical short-circuiting.
                let l = left.eval(group, ctx)?;
                let r = right.eval(group, ctx)?;
                if matches!(op, BinaryOp::And | BinaryOp::Or) {
                    let lt = truth_ref(&l)?;
                    match (op, lt) {
                        (BinaryOp::And, Some(false)) => return Ok(Value::Bool(false)),
                        (BinaryOp::Or, Some(true)) => return Ok(Value::Bool(true)),
                        _ => {}
                    }
                    let rt = truth_ref(&r)?;
                    return Ok(match eval::combine_logical(*op, lt, rt) {
                        Some(b) => Value::Bool(b),
                        None => Value::Null,
                    });
                }
                if op.is_arithmetic() {
                    eval::arith(*op, &l, &r)
                } else {
                    eval::apply_cmp(*op, &l, &r)
                }
            }
            GExpr::Unary { op, expr } => eval::apply_unary(*op, expr.eval(group, ctx)?),
            GExpr::Scalar(c) => match group.first() {
                Some(row) => Ok(c.eval(row, ctx)?.into_value()),
                // Empty implicit group: non-aggregate expressions are NULL.
                None => Ok(Value::Null),
            },
        }
    }
}

fn fold_group_aggregate(
    func: AggFunc,
    distinct: bool,
    arg: &GArg,
    group: &[Vec<Value>],
    ctx: &EvalContext,
) -> Result<Value> {
    // COUNT(*) counts rows including NULLs.
    if matches!((func, arg), (AggFunc::Count, GArg::Star)) {
        return Ok(Value::Int(group.len() as i64));
    }
    let GArg::Expr(e) = arg else {
        return Err(EngineError::Unsupported(format!(
            "{}(*) is only valid for COUNT",
            func.as_str()
        )));
    };
    let mut values = Vec::with_capacity(group.len());
    for row in group {
        let v = e.eval(row, ctx)?;
        if !v.is_null() {
            values.push(v.into_value());
        }
    }
    if distinct {
        crate::key::dedup_values(&mut values);
    }
    finish_aggregate(func, values)
}

/// A compiled ORDER BY key for the non-grouped path. The alias fallback
/// (a bare column that fails to resolve may name a projection alias) is
/// decided once at compile time; the expression's display text is
/// precomputed so the reference's error-rewrapping
/// (`UnknownColumn(expr.to_string())`) costs nothing per row.
pub(crate) enum OrderProg<'q> {
    /// Evaluate the program against the input row.
    Expr(OrderExpr<'q>),
    /// Read output column `i`.
    Projected(usize),
}

/// An ORDER BY key evaluated against the input row.
pub(crate) struct OrderExpr<'q> {
    /// The compiled key expression.
    prog: CExpr<'q>,
    /// `expr.to_string()`, for `UnknownColumn` rewrapping.
    display: String,
}

/// Lower an ORDER BY key, resolving the projection-alias fallback.
pub(crate) fn compile_order_key<'q>(
    expr: &'q Expr,
    scope: &Scope,
    ctx: &EvalContext,
    select: &Select,
) -> OrderProg<'q> {
    let prog = compile(expr, scope, ctx);
    if let CExpr::Fail(EngineError::UnknownColumn(_)) = &prog {
        if let Expr::Column(c) = expr {
            if c.table.is_none() {
                for (i, item) in select.projections.iter().enumerate() {
                    if let SelectItem::Expr { alias: Some(a), .. } = item {
                        if a.eq_ignore_ascii_case(&c.column) {
                            return OrderProg::Projected(i);
                        }
                    }
                }
            }
        }
    }
    OrderProg::Expr(OrderExpr {
        prog,
        display: expr.to_string(),
    })
}

impl OrderExpr<'_> {
    /// Evaluate the key for one input row.
    pub(crate) fn eval(&self, row: &[Value], ctx: &EvalContext) -> Result<Value> {
        match self.prog.eval(row, ctx) {
            Ok(v) => Ok(v.into_value()),
            // Any unknown-column error — including one surfacing from a
            // subquery at runtime — is reported under the ORDER BY
            // expression's own text, exactly like the reference.
            Err(EngineError::UnknownColumn(_)) => {
                Err(EngineError::UnknownColumn(self.display.clone()))
            }
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use sb_schema::{Column, ColumnType, Schema, TableDef};
    use sb_sql::Literal;

    fn db() -> Database {
        let schema = Schema::new("t").with_table(TableDef::new(
            "r",
            vec![
                Column::pk("id", ColumnType::Int),
                Column::new("name", ColumnType::Text),
            ],
        ));
        Database::new(schema)
    }

    #[test]
    fn constant_subtrees_fold_to_const() {
        let db = db();
        let ctx = EvalContext::new(&db, crate::exec::ExecOptions::default());
        let scope = Scope::default();
        // 1 + 2 < 5  →  Const(true)
        let expr = Expr::binary(
            Expr::binary(Expr::int(1), BinaryOp::Add, Expr::int(2)),
            BinaryOp::Lt,
            Expr::int(5),
        );
        let prog = compile(&expr, &scope, &ctx);
        assert!(matches!(&prog, CExpr::Const(Value::Bool(true))));
    }

    #[test]
    fn folded_type_errors_become_poison_not_immediate_failures() {
        let db = db();
        let ctx = EvalContext::new(&db, crate::exec::ExecOptions::default());
        let scope = Scope::default();
        // 1 + 'x' folds to a poison node; compiling must not error.
        let expr = Expr::binary(
            Expr::int(1),
            BinaryOp::Add,
            Expr::Literal(Literal::Str("x".into())),
        );
        let prog = compile(&expr, &scope, &ctx);
        assert!(matches!(&prog, CExpr::Fail(EngineError::TypeMismatch(_))));
        assert!(matches!(
            prog.eval(&[], &ctx),
            Err(EngineError::TypeMismatch(_))
        ));
    }

    #[test]
    fn short_circuit_protects_poison_operands() {
        let db = db();
        let ctx = EvalContext::new(&db, crate::exec::ExecOptions::default());
        let mut scope = Scope::default();
        scope.push("r", vec!["id".into(), "name".into()]);
        // id = 0 AND nope = 1: the unknown column only errors when the
        // left side doesn't short-circuit — same as the reference.
        let expr = Expr::binary(
            Expr::binary(Expr::col(None, "id"), BinaryOp::Eq, Expr::int(0)),
            BinaryOp::And,
            Expr::binary(Expr::col(None, "nope"), BinaryOp::Eq, Expr::int(1)),
        );
        let prog = compile(&expr, &scope, &ctx);
        let row = [Value::Int(1), Value::from("a")];
        assert_eq!(
            prog.eval(&row, &ctx).unwrap().into_value(),
            Value::Bool(false)
        );
        let row = [Value::Int(0), Value::from("a")];
        assert!(matches!(
            prog.eval(&row, &ctx),
            Err(EngineError::UnknownColumn(_))
        ));
    }

    #[test]
    fn slots_borrow_rows_without_cloning() {
        let db = db();
        let ctx = EvalContext::new(&db, crate::exec::ExecOptions::default());
        let mut scope = Scope::default();
        scope.push("r", vec!["id".into(), "name".into()]);
        let expr = Expr::col(None, "name");
        let prog = compile(&expr, &scope, &ctx);
        let row = [Value::Int(1), Value::from("deep")];
        let v = prog.eval(&row, &ctx).unwrap();
        assert!(matches!(v, CV::Ref(_)), "slot reads must not clone");
        assert_eq!(*v, row[1]);
    }
}
