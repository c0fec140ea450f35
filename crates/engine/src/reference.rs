//! A deliberately naive tuple-at-a-time reference interpreter.
//!
//! This is the oracle for differential fuzzing (`sb-fuzz`): it implements
//! the same dialect and the same documented semantics as the optimized
//! executor in [`crate::exec`], but shares none of its machinery beyond
//! [`Value`], [`ResultSet`] and the error type. Everything here is the
//! simplest possible implementation:
//!
//! - every scan deep-copies rows, every join is a nested loop,
//! - grouping and `DISTINCT` use linear scans instead of hash maps,
//! - subqueries re-execute on every use (no memoization),
//! - `LIKE` uses an iterative two-pointer matcher instead of recursion.
//!
//! The executor and this module must agree on results (as multisets, or
//! ordered lists under `ORDER BY`) and on whether a query errors. Where
//! the engine documents a divergence from Postgres (division by zero
//! yields NULL, `NULL` is not `TRUE` in filters, floats compare through
//! their 6-decimal canonical form in grouping/dedup), this module mirrors
//! the engine, not Postgres — it is an oracle for the implementation
//! contract, not a second dialect.

use crate::database::Database;
use crate::error::{EngineError, Result};
use crate::result::ResultSet;
use crate::value::Value;
use sb_sql::{
    AggArg, AggFunc, BinaryOp, ColumnRef, Expr, Literal, OrderItem, Query, Select, SelectItem,
    SetExpr, SetOp, TableFactor, TableRef, UnaryOp,
};

/// Execute a query with the reference interpreter.
pub fn execute_reference(db: &Database, query: &Query) -> Result<ResultSet> {
    match &query.body {
        SetExpr::Select(s) => select_query(db, s, &query.order_by, query.limit),
        SetExpr::SetOp { .. } => {
            let mut rs = set_expr(db, &query.body)?;
            order_output(&mut rs, &query.order_by)?;
            if let Some(n) = query.limit {
                rs.rows.truncate(n as usize);
            }
            rs.ordered = !query.order_by.is_empty();
            Ok(rs)
        }
    }
}

// ---------------------------------------------------------------------
// Name resolution.
// ---------------------------------------------------------------------

/// The relations visible to one `SELECT`, with rows concatenated in
/// `FROM`/`JOIN` order. Unlike the executor's `Scope` this stores plain
/// tuples and resolves by linear search.
#[derive(Default)]
struct Frame {
    /// `(binding name lower-cased, column names, offset)` per relation.
    rels: Vec<(String, Vec<String>, usize)>,
    width: usize,
}

impl Frame {
    fn push(&mut self, name: &str, columns: Vec<String>) {
        let offset = self.width;
        self.width += columns.len();
        self.rels.push((name.to_ascii_lowercase(), columns, offset));
    }

    fn lookup(&self, col: &ColumnRef) -> Result<usize> {
        match &col.table {
            Some(qualifier) => {
                let q = qualifier.to_ascii_lowercase();
                let (_, columns, offset) = self
                    .rels
                    .iter()
                    .find(|(name, _, _)| *name == q)
                    .ok_or_else(|| EngineError::UnknownTable(qualifier.clone()))?;
                let idx = columns
                    .iter()
                    .position(|c| c.eq_ignore_ascii_case(&col.column))
                    .ok_or_else(|| EngineError::UnknownColumn(col.to_string()))?;
                Ok(offset + idx)
            }
            None => {
                let mut found = None;
                for (_, columns, offset) in &self.rels {
                    if let Some(idx) = columns
                        .iter()
                        .position(|c| c.eq_ignore_ascii_case(&col.column))
                    {
                        if found.is_some() {
                            return Err(EngineError::AmbiguousColumn(col.column.clone()));
                        }
                        found = Some(offset + idx);
                    }
                }
                found.ok_or_else(|| EngineError::UnknownColumn(col.column.clone()))
            }
        }
    }

    fn all_columns(&self) -> Vec<String> {
        self.rels
            .iter()
            .flat_map(|(_, cols, _)| cols.iter().cloned())
            .collect()
    }
}

// ---------------------------------------------------------------------
// FROM / JOIN / WHERE: nested loops over owned rows.
// ---------------------------------------------------------------------

fn base_relation(db: &Database, tr: &TableRef) -> Result<(String, Vec<String>, Vec<Vec<Value>>)> {
    match &tr.factor {
        TableFactor::Table(name) => {
            let table = db
                .table(name)
                .ok_or_else(|| EngineError::UnknownTable(name.clone()))?;
            let binding = tr.binding().expect("named table always binds").to_string();
            let columns = table.def.columns.iter().map(|c| c.name.clone()).collect();
            let rows = table.rows.iter().map(|r| r.to_vec()).collect();
            Ok((binding, columns, rows))
        }
        TableFactor::Derived(q) => {
            let alias = tr.alias.clone().ok_or_else(|| {
                EngineError::Unsupported("derived table requires an alias".into())
            })?;
            let rs = execute_reference(db, q)?;
            Ok((alias, rs.columns, rs.rows))
        }
    }
}

/// Resolve every column reference in `e` against `frame` without
/// evaluating anything; subquery bodies have their own scopes and are
/// skipped.
fn resolve_columns(e: &Expr, frame: &Frame) -> Result<()> {
    match e {
        Expr::Column(c) => frame.lookup(c).map(|_| ()),
        Expr::Literal(_) | Expr::Subquery(_) | Expr::Exists { .. } => Ok(()),
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => resolve_columns(expr, frame),
        Expr::Binary { left, right, .. } => {
            resolve_columns(left, frame)?;
            resolve_columns(right, frame)
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            resolve_columns(expr, frame)?;
            resolve_columns(low, frame)?;
            resolve_columns(high, frame)
        }
        Expr::InList { expr, list, .. } => {
            resolve_columns(expr, frame)?;
            list.iter().try_for_each(|e| resolve_columns(e, frame))
        }
        Expr::InSubquery { expr, .. } => resolve_columns(expr, frame),
        Expr::Like { expr, pattern, .. } => {
            resolve_columns(expr, frame)?;
            resolve_columns(pattern, frame)
        }
        Expr::Agg { arg, .. } => match arg {
            AggArg::Star => Ok(()),
            AggArg::Expr(e) => resolve_columns(e, frame),
        },
    }
}

fn from_rows(db: &Database, select: &Select) -> Result<(Frame, Vec<Vec<Value>>)> {
    let (binding, columns, mut rows) = base_relation(db, &select.from)?;
    let mut frame = Frame::default();
    frame.push(&binding, columns);
    for join in &select.joins {
        let (rb, rcols, rrows) = base_relation(db, &join.table)?;
        let right_width = rcols.len();
        frame.push(&rb, rcols);
        // Like the executor, resolve the constraint's column references
        // before touching rows: an unknown-column or ambiguity error
        // must surface even when either side of the join is empty.
        if let Some(c) = &join.constraint {
            resolve_columns(c, &frame)?;
        }
        let mut out = Vec::new();
        for l in &rows {
            let mut matched = false;
            for r in &rrows {
                let mut combined = l.clone();
                combined.extend(r.iter().cloned());
                let keep = match &join.constraint {
                    Some(c) => is_true(db, c, &combined, &frame)?,
                    None => true,
                };
                if keep {
                    out.push(combined);
                    matched = true;
                }
            }
            if join.left && !matched {
                let mut row = l.clone();
                row.extend(std::iter::repeat_n(Value::Null, right_width));
                out.push(row);
            }
        }
        rows = out;
    }
    if let Some(pred) = &select.selection {
        let mut kept = Vec::new();
        for row in rows {
            if is_true(db, pred, &row, &frame)? {
                kept.push(row);
            }
        }
        rows = kept;
    }
    Ok((frame, rows))
}

// ---------------------------------------------------------------------
// SELECT core.
// ---------------------------------------------------------------------

fn is_aggregate(select: &Select, order_by: &[OrderItem]) -> bool {
    if !select.group_by.is_empty() || select.having.is_some() {
        return true;
    }
    select.projections.iter().any(|p| match p {
        SelectItem::Wildcard => false,
        SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
    }) || order_by.iter().any(|o| o.expr.contains_aggregate())
}

fn projection_name(item: &SelectItem) -> String {
    match item {
        SelectItem::Wildcard => "*".to_string(),
        SelectItem::Expr { expr, alias } => match alias {
            Some(a) => a.clone(),
            None => expr.to_string(),
        },
    }
}

fn row_key(row: &[Value]) -> String {
    row.iter()
        .map(Value::canonical_key)
        .collect::<Vec<_>>()
        .join("\u{1}")
}

fn select_query(
    db: &Database,
    select: &Select,
    order_by: &[OrderItem],
    limit: Option<u64>,
) -> Result<ResultSet> {
    let (frame, rows) = from_rows(db, select)?;
    let (columns, mut out_rows, mut keys) = if is_aggregate(select, order_by) {
        grouped_projection(db, select, order_by, &frame, rows)?
    } else {
        plain_projection(db, select, order_by, &frame, rows)?
    };

    if select.distinct {
        // Keep-first dedup with sort keys kept aligned; linear scan on
        // purpose (the executor hashes).
        let mut seen: Vec<String> = Vec::new();
        let mut rows2 = Vec::new();
        let mut keys2 = Vec::new();
        for (row, key) in out_rows.into_iter().zip(keys) {
            let k = row_key(&row);
            if !seen.contains(&k) {
                seen.push(k);
                rows2.push(row);
                keys2.push(key);
            }
        }
        out_rows = rows2;
        keys = keys2;
    }

    if !order_by.is_empty() {
        let mut idx: Vec<usize> = (0..out_rows.len()).collect();
        idx.sort_by(|&a, &b| {
            for (item, (ka, kb)) in order_by.iter().zip(keys[a].iter().zip(keys[b].iter())) {
                let ord = ka.total_cmp(kb);
                let ord = if item.desc { ord.reverse() } else { ord };
                if !ord.is_eq() {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        out_rows = idx.into_iter().map(|i| out_rows[i].clone()).collect();
    }

    if let Some(n) = limit {
        out_rows.truncate(n as usize);
    }

    Ok(ResultSet {
        columns,
        rows: out_rows,
        ordered: !order_by.is_empty(),
    })
}

type Projected = (Vec<String>, Vec<Vec<Value>>, Vec<Vec<Value>>);

fn plain_projection(
    db: &Database,
    select: &Select,
    order_by: &[OrderItem],
    frame: &Frame,
    rows: Vec<Vec<Value>>,
) -> Result<Projected> {
    let mut columns = Vec::new();
    for item in &select.projections {
        match item {
            SelectItem::Wildcard => columns.extend(frame.all_columns()),
            other => columns.push(projection_name(other)),
        }
    }
    let mut out_rows = Vec::with_capacity(rows.len());
    let mut keys = Vec::with_capacity(rows.len());
    for row in &rows {
        let mut out = Vec::with_capacity(columns.len());
        for item in &select.projections {
            match item {
                SelectItem::Wildcard => out.extend(row.iter().cloned()),
                SelectItem::Expr { expr, .. } => out.push(eval_scalar(db, expr, row, frame)?),
            }
        }
        let mut key = Vec::with_capacity(order_by.len());
        for item in order_by {
            key.push(order_key(db, &item.expr, row, frame, select, &out)?);
        }
        out_rows.push(out);
        keys.push(key);
    }
    Ok((columns, out_rows, keys))
}

/// ORDER BY key: in-scope evaluation first, then the projection-alias
/// fallback for bare columns (same rule as the executor).
fn order_key(
    db: &Database,
    expr: &Expr,
    row: &[Value],
    frame: &Frame,
    select: &Select,
    projected: &[Value],
) -> Result<Value> {
    match eval_scalar(db, expr, row, frame) {
        Ok(v) => Ok(v),
        Err(EngineError::UnknownColumn(_)) => {
            if let Expr::Column(c) = expr {
                if c.table.is_none() {
                    for (i, item) in select.projections.iter().enumerate() {
                        if let SelectItem::Expr { alias: Some(a), .. } = item {
                            if a.eq_ignore_ascii_case(&c.column) {
                                return Ok(projected[i].clone());
                            }
                        }
                    }
                }
            }
            Err(EngineError::UnknownColumn(expr.to_string()))
        }
        Err(e) => Err(e),
    }
}

fn grouped_projection(
    db: &Database,
    select: &Select,
    order_by: &[OrderItem],
    frame: &Frame,
    rows: Vec<Vec<Value>>,
) -> Result<Projected> {
    // Groups in first-occurrence order, found by linear key scan.
    let mut group_keys: Vec<String> = Vec::new();
    let mut groups: Vec<Vec<Vec<Value>>> = Vec::new();
    if select.group_by.is_empty() {
        // One implicit group, even over zero rows.
        groups.push(rows);
    } else {
        for row in rows {
            let mut key = String::new();
            for ge in &select.group_by {
                key.push_str(&eval_scalar(db, ge, &row, frame)?.canonical_key());
                key.push('\u{1}');
            }
            match group_keys.iter().position(|k| *k == key) {
                Some(i) => groups[i].push(row),
                None => {
                    group_keys.push(key);
                    groups.push(vec![row]);
                }
            }
        }
    }

    let mut columns = Vec::new();
    for item in &select.projections {
        match item {
            SelectItem::Wildcard => {
                return Err(EngineError::Unsupported(
                    "SELECT * with GROUP BY / aggregates".into(),
                ))
            }
            other => columns.push(projection_name(other)),
        }
    }

    let mut out_rows = Vec::new();
    let mut keys = Vec::new();
    for group in &groups {
        if let Some(h) = &select.having {
            let v = eval_grouped(db, h, group, frame)?;
            if !truth(v)?.unwrap_or(false) {
                continue;
            }
        }
        let mut out = Vec::with_capacity(columns.len());
        for item in &select.projections {
            if let SelectItem::Expr { expr, .. } = item {
                out.push(eval_grouped(db, expr, group, frame)?);
            }
        }
        let mut key = Vec::with_capacity(order_by.len());
        for item in order_by {
            key.push(eval_grouped(db, &item.expr, group, frame)?);
        }
        out_rows.push(out);
        keys.push(key);
    }
    Ok((columns, out_rows, keys))
}

/// Group-context evaluation: aggregates consume the group, binary/unary
/// nodes combine grouped operands, everything else reads the first row
/// (GROUP BY keys are constant within a group).
fn eval_grouped(db: &Database, expr: &Expr, group: &[Vec<Value>], frame: &Frame) -> Result<Value> {
    match expr {
        Expr::Agg {
            func,
            distinct,
            arg,
        } => eval_aggregate(db, *func, *distinct, arg, group, frame),
        Expr::Binary { left, op, right } => {
            let l = eval_grouped(db, left, group, frame)?;
            let r = eval_grouped(db, right, group, frame)?;
            apply_binary(*op, l, r)
        }
        Expr::Unary { op, expr } => {
            let v = eval_grouped(db, expr, group, frame)?;
            apply_unary(*op, v)
        }
        other => match group.first() {
            Some(row) => eval_scalar(db, other, row, frame),
            None => Ok(Value::Null),
        },
    }
}

fn eval_aggregate(
    db: &Database,
    func: AggFunc,
    distinct: bool,
    arg: &AggArg,
    group: &[Vec<Value>],
    frame: &Frame,
) -> Result<Value> {
    if matches!((func, arg), (AggFunc::Count, AggArg::Star)) {
        return Ok(Value::Int(group.len() as i64));
    }
    let AggArg::Expr(e) = arg else {
        return Err(EngineError::Unsupported(format!(
            "{}(*) is only valid for COUNT",
            func.as_str()
        )));
    };
    let mut values = Vec::new();
    for row in group {
        let v = eval_scalar(db, e, row, frame)?;
        if !v.is_null() {
            values.push(v);
        }
    }
    if distinct {
        let mut seen: Vec<String> = Vec::new();
        values.retain(|v| {
            let k = v.canonical_key();
            if seen.contains(&k) {
                false
            } else {
                seen.push(k);
                true
            }
        });
    }
    match func {
        AggFunc::Count => Ok(Value::Int(values.len() as i64)),
        AggFunc::Sum => {
            if values.is_empty() {
                return Ok(Value::Null);
            }
            if values.iter().all(|v| matches!(v, Value::Int(_))) {
                let mut sum = 0i64;
                for v in &values {
                    if let Value::Int(i) = v {
                        sum = sum
                            .checked_add(*i)
                            .ok_or_else(|| EngineError::Overflow("SUM exceeds i64".to_string()))?;
                    }
                }
                Ok(Value::Int(sum))
            } else {
                let mut sum = 0.0;
                for v in &values {
                    sum += v.as_f64().ok_or_else(|| {
                        EngineError::TypeMismatch(format!("SUM over non-numeric value {v}"))
                    })?;
                }
                Ok(Value::Float(sum))
            }
        }
        AggFunc::Avg => {
            if values.is_empty() {
                return Ok(Value::Null);
            }
            let mut sum = 0.0;
            for v in &values {
                sum += v.as_f64().ok_or_else(|| {
                    EngineError::TypeMismatch(format!("AVG over non-numeric value {v}"))
                })?;
            }
            Ok(Value::Float(sum / values.len() as f64))
        }
        AggFunc::Min | AggFunc::Max => {
            let mut best: Option<Value> = None;
            for v in values {
                best = Some(match best {
                    None => v,
                    Some(b) => match v.compare(&b) {
                        Some(ord) => {
                            let take_new = (func == AggFunc::Min && ord.is_lt())
                                || (func == AggFunc::Max && ord.is_gt());
                            if take_new {
                                v
                            } else {
                                b
                            }
                        }
                        None => {
                            return Err(EngineError::TypeMismatch(
                                "MIN/MAX over mixed types".into(),
                            ))
                        }
                    },
                });
            }
            Ok(best.unwrap_or(Value::Null))
        }
    }
}

// ---------------------------------------------------------------------
// Set operations: linear-scan dedup and membership.
// ---------------------------------------------------------------------

fn set_expr(db: &Database, body: &SetExpr) -> Result<ResultSet> {
    match body {
        SetExpr::Select(s) => select_query(db, s, &[], None),
        SetExpr::SetOp {
            op,
            all,
            left,
            right,
        } => {
            let l = set_expr(db, left)?;
            let r = set_expr(db, right)?;
            if l.columns.len() != r.columns.len() {
                return Err(EngineError::TypeMismatch(format!(
                    "set operands have {} vs {} columns",
                    l.columns.len(),
                    r.columns.len()
                )));
            }
            let rows = match op {
                SetOp::Union => {
                    let mut rows = l.rows;
                    rows.extend(r.rows);
                    if !*all {
                        rows = dedup(rows);
                    }
                    rows
                }
                SetOp::Intersect => {
                    let right_keys: Vec<String> = r.rows.iter().map(|row| row_key(row)).collect();
                    dedup(
                        l.rows
                            .into_iter()
                            .filter(|row| right_keys.contains(&row_key(row)))
                            .collect(),
                    )
                }
                SetOp::Except => {
                    let right_keys: Vec<String> = r.rows.iter().map(|row| row_key(row)).collect();
                    dedup(
                        l.rows
                            .into_iter()
                            .filter(|row| !right_keys.contains(&row_key(row)))
                            .collect(),
                    )
                }
            };
            Ok(ResultSet {
                columns: l.columns,
                rows,
                ordered: false,
            })
        }
    }
}

fn dedup(rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    let mut seen: Vec<String> = Vec::new();
    let mut out = Vec::new();
    for row in rows {
        let k = row_key(&row);
        if !seen.contains(&k) {
            seen.push(k);
            out.push(row);
        }
    }
    out
}

/// Order a set-operation result by output column name or 1-based ordinal.
/// Out-of-range ordinals are an error, not a panic.
fn order_output(rs: &mut ResultSet, order_by: &[OrderItem]) -> Result<()> {
    if order_by.is_empty() {
        return Ok(());
    }
    let mut key_idx = Vec::with_capacity(order_by.len());
    for item in order_by {
        let idx = match &item.expr {
            Expr::Column(c) if c.table.is_none() => rs
                .columns
                .iter()
                .position(|name| name.eq_ignore_ascii_case(&c.column))
                .ok_or_else(|| EngineError::UnknownColumn(c.column.clone()))?,
            Expr::Literal(Literal::Int(n)) if *n >= 1 && (*n as usize) <= rs.columns.len() => {
                (*n as usize) - 1
            }
            Expr::Literal(Literal::Int(n)) => {
                return Err(EngineError::UnknownColumn(format!(
                    "ORDER BY position {n} of {} columns",
                    rs.columns.len()
                )))
            }
            other => {
                return Err(EngineError::Unsupported(format!(
                    "ORDER BY `{other}` after a set operation (use an output column)"
                )))
            }
        };
        key_idx.push((idx, item.desc));
    }
    rs.rows.sort_by(|a, b| {
        for (idx, desc) in &key_idx {
            let ord = a[*idx].total_cmp(&b[*idx]);
            let ord = if *desc { ord.reverse() } else { ord };
            if !ord.is_eq() {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    Ok(())
}

// ---------------------------------------------------------------------
// Scalar evaluation.
// ---------------------------------------------------------------------

fn truth(v: Value) -> Result<Option<bool>> {
    match v {
        Value::Null => Ok(None),
        Value::Bool(b) => Ok(Some(b)),
        other => Err(EngineError::TypeMismatch(format!(
            "expected boolean predicate, got {other}"
        ))),
    }
}

fn is_true(db: &Database, expr: &Expr, row: &[Value], frame: &Frame) -> Result<bool> {
    Ok(truth(eval_scalar(db, expr, row, frame)?)?.unwrap_or(false))
}

fn literal_value(l: &Literal) -> Value {
    match l {
        Literal::Null => Value::Null,
        Literal::Int(v) => Value::Int(*v),
        Literal::Float(v) => Value::Float(*v),
        Literal::Str(s) => Value::from(s.as_str()),
        Literal::Bool(b) => Value::Bool(*b),
    }
}

fn eval_scalar(db: &Database, expr: &Expr, row: &[Value], frame: &Frame) -> Result<Value> {
    match expr {
        Expr::Column(c) => Ok(row[frame.lookup(c)?].clone()),
        Expr::Literal(l) => Ok(literal_value(l)),
        Expr::Unary { op, expr } => {
            let v = eval_scalar(db, expr, row, frame)?;
            apply_unary(*op, v)
        }
        Expr::Binary { left, op, right } => {
            if matches!(op, BinaryOp::And | BinaryOp::Or) {
                // Three-valued logic with the same short-circuiting as the
                // executor (so errors in the pruned operand stay invisible).
                let l = truth(eval_scalar(db, left, row, frame)?)?;
                match (op, l) {
                    (BinaryOp::And, Some(false)) => return Ok(Value::Bool(false)),
                    (BinaryOp::Or, Some(true)) => return Ok(Value::Bool(true)),
                    _ => {}
                }
                let r = truth(eval_scalar(db, right, row, frame)?)?;
                let out = match op {
                    BinaryOp::And => match (l, r) {
                        (Some(false), _) | (_, Some(false)) => Some(false),
                        (Some(true), Some(true)) => Some(true),
                        _ => None,
                    },
                    _ => match (l, r) {
                        (Some(true), _) | (_, Some(true)) => Some(true),
                        (Some(false), Some(false)) => Some(false),
                        _ => None,
                    },
                };
                return Ok(match out {
                    Some(b) => Value::Bool(b),
                    None => Value::Null,
                });
            }
            let l = eval_scalar(db, left, row, frame)?;
            let r = eval_scalar(db, right, row, frame)?;
            apply_binary(*op, l, r)
        }
        Expr::Agg { .. } => Err(EngineError::Unsupported(
            "aggregate function outside GROUP BY context".into(),
        )),
        Expr::Between {
            expr,
            negated,
            low,
            high,
        } => {
            let v = eval_scalar(db, expr, row, frame)?;
            let lo = eval_scalar(db, low, row, frame)?;
            let hi = eval_scalar(db, high, row, frame)?;
            let ge = v.compare(&lo).map(|o| o.is_ge());
            let le = v.compare(&hi).map(|o| o.is_le());
            let within = match (ge, le) {
                (Some(a), Some(b)) => Some(a && b),
                (Some(false), _) | (_, Some(false)) => Some(false),
                _ => None,
            };
            Ok(match within {
                Some(b) => Value::Bool(b != *negated),
                None => Value::Null,
            })
        }
        Expr::InList {
            expr,
            negated,
            list,
        } => {
            let v = eval_scalar(db, expr, row, frame)?;
            let mut saw_null = v.is_null();
            let mut found = false;
            for item in list {
                let iv = eval_scalar(db, item, row, frame)?;
                match v.sql_eq(&iv) {
                    Some(true) => {
                        found = true;
                        break;
                    }
                    Some(false) => {}
                    None => saw_null = true,
                }
            }
            Ok(in_result(found, saw_null, *negated))
        }
        Expr::InSubquery {
            expr,
            negated,
            subquery,
        } => {
            let v = eval_scalar(db, expr, row, frame)?;
            let rs = execute_reference(db, subquery)?;
            if rs.columns.len() != 1 {
                return Err(EngineError::CardinalityViolation(format!(
                    "IN subquery returns {} columns",
                    rs.columns.len()
                )));
            }
            let mut saw_null = v.is_null();
            let mut found = false;
            for r in &rs.rows {
                match v.sql_eq(&r[0]) {
                    Some(true) => {
                        found = true;
                        break;
                    }
                    Some(false) => {}
                    None => saw_null = true,
                }
            }
            Ok(in_result(found, saw_null, *negated))
        }
        Expr::Like {
            expr,
            negated,
            pattern,
        } => {
            let v = eval_scalar(db, expr, row, frame)?;
            let p = eval_scalar(db, pattern, row, frame)?;
            match (v, p) {
                (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                (Value::Text(s), Value::Text(pat)) => {
                    Ok(Value::Bool(like_iterative(&s, &pat) != *negated))
                }
                (a, b) => Err(EngineError::TypeMismatch(format!(
                    "LIKE requires text operands, got {a} and {b}"
                ))),
            }
        }
        Expr::IsNull { expr, negated } => {
            let v = eval_scalar(db, expr, row, frame)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        Expr::Subquery(q) => {
            let rs = execute_reference(db, q)?;
            if rs.columns.len() != 1 {
                return Err(EngineError::CardinalityViolation(format!(
                    "scalar subquery returns {} columns",
                    rs.columns.len()
                )));
            }
            match rs.rows.len() {
                0 => Ok(Value::Null),
                1 => Ok(rs.rows[0][0].clone()),
                n => Err(EngineError::CardinalityViolation(format!(
                    "scalar subquery returns {n} rows"
                ))),
            }
        }
        Expr::Exists { negated, subquery } => {
            let rs = execute_reference(db, subquery)?;
            Ok(Value::Bool(rs.rows.is_empty() == *negated))
        }
    }
}

fn in_result(found: bool, saw_null: bool, negated: bool) -> Value {
    if found {
        Value::Bool(!negated)
    } else if saw_null {
        Value::Null
    } else {
        Value::Bool(negated)
    }
}

fn apply_unary(op: UnaryOp, v: Value) -> Result<Value> {
    match op {
        UnaryOp::Neg => match v {
            Value::Null => Ok(Value::Null),
            Value::Int(i) => i
                .checked_neg()
                .map(Value::Int)
                .ok_or_else(|| EngineError::Overflow(format!("negating {i} exceeds i64"))),
            Value::Float(f) => Ok(Value::Float(-f)),
            other => Err(EngineError::TypeMismatch(format!("cannot negate {other}"))),
        },
        UnaryOp::Not => match v {
            Value::Null => Ok(Value::Null),
            Value::Bool(b) => Ok(Value::Bool(!b)),
            other => Err(EngineError::TypeMismatch(format!("NOT applied to {other}"))),
        },
    }
}

/// Apply a non-short-circuit binary operator to two computed values. Also
/// covers AND/OR over already-computed operands (the grouped path), where
/// the executor's literal re-wrapping keeps its short-circuit on the left
/// truth value.
fn apply_binary(op: BinaryOp, l: Value, r: Value) -> Result<Value> {
    if matches!(op, BinaryOp::And | BinaryOp::Or) {
        let lt = truth(l)?;
        match (op, lt) {
            (BinaryOp::And, Some(false)) => return Ok(Value::Bool(false)),
            (BinaryOp::Or, Some(true)) => return Ok(Value::Bool(true)),
            _ => {}
        }
        let rt = truth(r)?;
        let out = match op {
            BinaryOp::And => match (lt, rt) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            },
            _ => match (lt, rt) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            },
        };
        return Ok(match out {
            Some(b) => Value::Bool(b),
            None => Value::Null,
        });
    }
    if op.is_arithmetic() {
        return arith(op, &l, &r);
    }
    match l.compare(&r) {
        None if l.is_null() || r.is_null() => Ok(Value::Null),
        None => Err(EngineError::TypeMismatch(format!(
            "cannot compare {l} with {r}"
        ))),
        Some(ord) => {
            let b = match op {
                BinaryOp::Eq => ord.is_eq(),
                BinaryOp::NotEq => !ord.is_eq(),
                BinaryOp::Lt => ord.is_lt(),
                BinaryOp::LtEq => ord.is_le(),
                BinaryOp::Gt => ord.is_gt(),
                BinaryOp::GtEq => ord.is_ge(),
                _ => unreachable!("logical and arithmetic handled above"),
            };
            Ok(Value::Bool(b))
        }
    }
}

fn arith(op: BinaryOp, l: &Value, r: &Value) -> Result<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => {
            // Checked arithmetic with the exact error the executor's
            // `eval::arith` raises: overflow is a defined outcome the two
            // implementations must agree on, not a wrap or a panic.
            let overflow =
                || EngineError::Overflow(format!("integer arithmetic on {a} and {b} exceeds i64"));
            Ok(match op {
                BinaryOp::Add => Value::Int(a.checked_add(*b).ok_or_else(overflow)?),
                BinaryOp::Sub => Value::Int(a.checked_sub(*b).ok_or_else(overflow)?),
                BinaryOp::Mul => Value::Int(a.checked_mul(*b).ok_or_else(overflow)?),
                BinaryOp::Div => {
                    if *b == 0 {
                        Value::Null
                    } else {
                        Value::Int(a.checked_div(*b).ok_or_else(overflow)?)
                    }
                }
                _ => unreachable!(),
            })
        }
        _ => {
            let a = l
                .as_f64()
                .ok_or_else(|| EngineError::TypeMismatch(format!("non-numeric operand {l}")))?;
            let b = r
                .as_f64()
                .ok_or_else(|| EngineError::TypeMismatch(format!("non-numeric operand {r}")))?;
            Ok(match op {
                BinaryOp::Add => Value::Float(a + b),
                BinaryOp::Sub => Value::Float(a - b),
                BinaryOp::Mul => Value::Float(a * b),
                BinaryOp::Div => {
                    if b == 0.0 {
                        Value::Null
                    } else {
                        Value::Float(a / b)
                    }
                }
                _ => unreachable!(),
            })
        }
    }
}

/// `LIKE` via the classic iterative two-pointer wildcard matcher: `%`
/// matches any byte run, `_` exactly one byte. The executor's
/// `eval::like_match` now uses the same algorithm (its old recursive
/// matcher was exponential on multi-`%` patterns) but the copies stay
/// independent — the reference shares no evaluation machinery.
fn like_iterative(s: &str, pattern: &str) -> bool {
    let s = s.as_bytes();
    let p = pattern.as_bytes();
    let (mut si, mut pi) = (0usize, 0usize);
    let mut star: Option<usize> = None;
    let mut mark = 0usize;
    while si < s.len() {
        if pi < p.len() && (p[pi] == b'_' || p[pi] == s[si]) {
            si += 1;
            pi += 1;
        } else if pi < p.len() && p[pi] == b'%' {
            star = Some(pi);
            mark = si;
            pi += 1;
        } else if let Some(sp) = star {
            pi = sp + 1;
            mark += 1;
            si = mark;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == b'%' {
        pi += 1;
    }
    pi == p.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec;
    use sb_schema::{Column, ColumnType, Schema, TableDef};

    fn db() -> Database {
        let schema = Schema::new("t")
            .with_table(TableDef::new(
                "specobj",
                vec![
                    Column::pk("specobjid", ColumnType::Int),
                    Column::new("class", ColumnType::Text),
                    Column::new("z", ColumnType::Float),
                    Column::new("bestobjid", ColumnType::Int),
                ],
            ))
            .with_table(TableDef::new(
                "photoobj",
                vec![
                    Column::pk("objid", ColumnType::Int),
                    Column::new("u", ColumnType::Float),
                ],
            ));
        let mut db = Database::new(schema);
        db.table_mut("specobj").unwrap().push_rows(vec![
            vec![1.into(), "GALAXY".into(), 0.7.into(), 10.into()],
            vec![2.into(), "GALAXY".into(), 1.5.into(), 20.into()],
            vec![3.into(), "STAR".into(), 0.0.into(), 30.into()],
            vec![4.into(), "QSO".into(), 2.5.into(), Value::Null],
        ]);
        db.table_mut("photoobj").unwrap().push_rows(vec![
            vec![10.into(), 18.0.into()],
            vec![20.into(), 19.0.into()],
        ]);
        db
    }

    fn agree(sql: &str) {
        let db = db();
        let q = sb_sql::parse(sql).unwrap();
        let reference = execute_reference(&db, &q);
        let engine = exec::execute(&db, &q);
        match (reference, engine) {
            (Ok(a), Ok(b)) => assert!(a.same_result(&b), "diverged on {sql}: {a:?} vs {b:?}"),
            (Err(_), Err(_)) => {}
            (a, b) => panic!("error mismatch on {sql}: ref {a:?} vs engine {b:?}"),
        }
    }

    #[test]
    fn agrees_with_executor_on_dialect_samples() {
        for sql in [
            "SELECT specobjid FROM specobj WHERE class = 'GALAXY' AND z > 0.5",
            "SELECT s.specobjid, p.objid FROM specobj AS s \
             JOIN photoobj AS p ON s.bestobjid = p.objid",
            "SELECT s.specobjid, p.objid FROM specobj AS s \
             LEFT JOIN photoobj AS p ON s.bestobjid = p.objid WHERE p.objid IS NULL",
            "SELECT class, COUNT(*) FROM specobj GROUP BY class HAVING COUNT(*) >= 2",
            "SELECT class, MAX(z) - MIN(z) FROM specobj GROUP BY class ORDER BY class",
            "SELECT DISTINCT class FROM specobj ORDER BY class DESC LIMIT 2",
            "SELECT specobjid FROM specobj WHERE z BETWEEN 0.5 AND 2 \
             AND class IN ('GALAXY', 'QSO')",
            "SELECT specobjid FROM specobj WHERE bestobjid IN (SELECT objid FROM photoobj)",
            "SELECT specobjid FROM specobj WHERE bestobjid NOT IN (SELECT objid FROM photoobj)",
            "SELECT specobjid FROM specobj WHERE z > (SELECT AVG(z) FROM specobj)",
            "SELECT class FROM specobj WHERE class LIKE '%AL%'",
            "SELECT class FROM specobj UNION SELECT class FROM specobj ORDER BY class",
            "SELECT class FROM specobj WHERE z > 1 INTERSECT \
             SELECT class FROM specobj WHERE z < 1",
            "SELECT class FROM specobj EXCEPT SELECT class FROM specobj WHERE class = 'STAR'",
            "SELECT g.class, g.n FROM (SELECT class, COUNT(*) AS n FROM specobj \
             GROUP BY class) AS g WHERE g.n >= 2",
            "SELECT COUNT(*), SUM(z) FROM specobj WHERE class = 'NOPE'",
            "SELECT nope FROM specobj",
            "SELECT * FROM nope",
        ] {
            agree(sql);
        }
    }

    #[test]
    fn like_matcher_agrees_with_engine_matcher() {
        let cases = [
            ("starburst", "star%"),
            ("starburst", "%burst"),
            ("starburst", "%arb%"),
            ("abc", "a_c"),
            ("abc", "a_d"),
            ("", "%"),
            ("", "_"),
            ("abc", "%%c"),
            ("ABC", "abc"),
            ("aaab", "%a_b"),
            ("mississippi", "m%iss%pi"),
            ("mississippi", "m%iss%x"),
        ];
        for (s, p) in cases {
            assert_eq!(
                like_iterative(s, p),
                crate::eval::like_match(s, p),
                "LIKE mismatch on ({s}, {p})"
            );
        }
    }
}
