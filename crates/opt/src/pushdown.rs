//! Predicate pushdown: assigning WHERE conjuncts to scans.
//!
//! The first rule [`crate::plan_select`] runs. The semantics are
//! deliberately conservative — a conjunct moves into a scan only when
//! doing so is provably invisible:
//!
//! - conjuncts containing any subquery stay residual (preserving the
//!   statement-level subquery memoization order),
//! - conjuncts whose references don't all resolve — unknown *or*
//!   ambiguous — stay residual, so the residual filter reports the
//!   error exactly as before,
//! - conjuncts spanning more than one relation stay residual,
//! - conjuncts over the nullable side of a LEFT JOIN stay residual,
//!   because they must see the padded NULLs, not the scan rows.

use crate::{Resolution, Resolver};
use sb_sql::{AggArg, BinaryOp, ColumnRef, Expr, OrderItem, Select, SelectItem};

/// The statement's top-level WHERE conjuncts, left to right. This order
/// is the one coordinate system of [`crate::PlannedSelect::pushed`] and
/// [`crate::PlannedSelect::residual`]: a plan names conjuncts by their
/// index here, so it owns nothing of the statement it was planned for.
pub fn conjuncts(select: &Select) -> Vec<&Expr> {
    let mut out = Vec::new();
    if let Some(sel) = &select.selection {
        split_conjuncts(sel, &mut out);
    }
    out
}

/// Flatten a predicate into its top-level AND conjuncts, left to right.
fn split_conjuncts<'e>(expr: &'e Expr, out: &mut Vec<&'e Expr>) {
    if let Expr::Binary {
        left,
        op: BinaryOp::And,
        right,
    } = expr
    {
        split_conjuncts(left, out);
        split_conjuncts(right, out);
    } else {
        out.push(expr);
    }
}

/// Whether an expression contains any subquery.
pub fn has_subquery(expr: &Expr) -> bool {
    match expr {
        Expr::Subquery(_) | Expr::InSubquery { .. } | Expr::Exists { .. } => true,
        Expr::Column(_) | Expr::Literal(_) => false,
        Expr::Unary { expr, .. } => has_subquery(expr),
        Expr::Binary { left, right, .. } => has_subquery(left) || has_subquery(right),
        Expr::Agg { arg, .. } => match arg {
            AggArg::Star => false,
            AggArg::Expr(e) => has_subquery(e),
        },
        Expr::Between {
            expr, low, high, ..
        } => has_subquery(expr) || has_subquery(low) || has_subquery(high),
        Expr::InList { expr, list, .. } => has_subquery(expr) || list.iter().any(has_subquery),
        Expr::Like { expr, pattern, .. } => has_subquery(expr) || has_subquery(pattern),
        Expr::IsNull { expr, .. } => has_subquery(expr),
    }
}

/// Whether a `SELECT` (with its statement-level ORDER BY keys) needs
/// grouped evaluation: GROUP BY, HAVING, or an aggregate in a
/// projection or an order key.
pub fn is_aggregate(select: &Select, order_by: &[OrderItem]) -> bool {
    if !select.group_by.is_empty() || select.having.is_some() {
        return true;
    }
    let proj_agg = select.projections.iter().any(|p| match p {
        SelectItem::Wildcard => false,
        SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
    });
    proj_agg || order_by.iter().any(|o| o.expr.contains_aggregate())
}

/// Collect every column reference in an expression. Subquery bodies are
/// skipped: they resolve against their own scopes.
pub fn collect_columns<'e>(expr: &'e Expr, out: &mut Vec<&'e ColumnRef>) {
    match expr {
        Expr::Column(c) => out.push(c),
        Expr::Literal(_) | Expr::Subquery(_) | Expr::Exists { .. } => {}
        Expr::Unary { expr, .. } => collect_columns(expr, out),
        Expr::Binary { left, right, .. } => {
            collect_columns(left, out);
            collect_columns(right, out);
        }
        Expr::Agg { arg, .. } => {
            if let AggArg::Expr(e) = arg {
                collect_columns(e, out);
            }
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            collect_columns(expr, out);
            collect_columns(low, out);
            collect_columns(high, out);
        }
        Expr::InList { expr, list, .. } => {
            collect_columns(expr, out);
            for e in list {
                collect_columns(e, out);
            }
        }
        Expr::InSubquery { expr, .. } => collect_columns(expr, out),
        Expr::Like { expr, pattern, .. } => {
            collect_columns(expr, out);
            collect_columns(pattern, out);
        }
        Expr::IsNull { expr, .. } => collect_columns(expr, out),
    }
}

/// Assign WHERE conjuncts (the statement's [`conjuncts`]) to scans, by
/// index. `nullable[i]` is true when relation `i` sits on the nullable
/// side of a LEFT JOIN. Conjuncts that stay residual keep their source
/// order, so the residual filter evaluates them left to right.
pub fn assign_pushdown(
    conjuncts: &[&Expr],
    resolver: &dyn Resolver,
    nullable: &[bool],
) -> (Vec<Vec<usize>>, Vec<usize>) {
    let mut pushed: Vec<Vec<usize>> = vec![Vec::new(); nullable.len()];
    let mut residual = Vec::new();
    for (i, conj) in conjuncts.iter().enumerate() {
        match pushdown_target(conj, resolver, nullable) {
            Some(t) => pushed[t].push(i),
            None => residual.push(i),
        }
    }
    (pushed, residual)
}

/// The single relation a conjunct can be pushed into, or `None` when it
/// must stay in the residual filter.
fn pushdown_target(conj: &Expr, resolver: &dyn Resolver, nullable: &[bool]) -> Option<usize> {
    if has_subquery(conj) {
        return None;
    }
    let mut cols = Vec::new();
    collect_columns(conj, &mut cols);
    if cols.is_empty() {
        return None;
    }
    let mut target: Option<usize> = None;
    for col in cols {
        let Resolution::Col { rel, .. } = resolver.resolve(col) else {
            // Unknown or ambiguous: leave it to the residual filter,
            // which reports the error exactly as before.
            return None;
        };
        match target {
            None => target = Some(rel),
            Some(t) if t == rel => {}
            Some(_) => return None,
        }
    }
    let t = target.expect("at least one column");
    if nullable[t] {
        None
    } else {
        Some(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_sql::{parse, SetExpr};

    /// Toy resolver over `(relation, column-name)` pairs, first-match
    /// wins per relation, ambiguity across relations.
    struct Names(Vec<Vec<&'static str>>);

    impl Resolver for Names {
        fn resolve(&self, c: &ColumnRef) -> Resolution {
            let hits: Vec<(usize, usize)> = self
                .0
                .iter()
                .enumerate()
                .filter_map(|(r, cols)| {
                    cols.iter()
                        .position(|n| n.eq_ignore_ascii_case(&c.column))
                        .map(|i| (r, i))
                })
                .collect();
            match (&c.table, hits.as_slice()) {
                (Some(q), _) => {
                    // Qualifier "t1"/"t2" selects the relation by number.
                    let rel = match q.as_str() {
                        "t1" => 0,
                        "t2" => 1,
                        _ => return Resolution::Unknown,
                    };
                    match self.0[rel]
                        .iter()
                        .position(|n| n.eq_ignore_ascii_case(&c.column))
                    {
                        Some(col) => Resolution::Col { rel, col },
                        None => Resolution::Unknown,
                    }
                }
                (None, [(rel, col)]) => Resolution::Col {
                    rel: *rel,
                    col: *col,
                },
                (None, []) => Resolution::Unknown,
                (None, _) => Resolution::Ambiguous,
            }
        }
    }

    /// Route the WHERE conjuncts of `sql` and return the pushed and
    /// residual index lists.
    fn route(sql: &str, names: &Names, nullable: &[bool]) -> (Vec<Vec<usize>>, Vec<usize>) {
        let q = parse(sql).unwrap();
        let SetExpr::Select(s) = &q.body else {
            panic!("select expected")
        };
        assign_pushdown(&conjuncts(s), names, nullable)
    }

    #[test]
    fn splits_and_routes_conjuncts() {
        let names = Names(vec![vec!["a"], vec!["b"]]);
        let (pushed, residual) = route(
            "SELECT a FROM x AS t1 WHERE t1.a = 1 AND t2.b > 2 AND t1.a < t2.b \
             AND c IN (SELECT a FROM x)",
            &names,
            &[false, false],
        );
        assert_eq!(pushed[0], vec![0], "t1.a = 1 pushes to relation 0");
        assert_eq!(pushed[1], vec![1], "t2.b > 2 pushes to relation 1");
        // Cross-relation comparison and subquery conjunct stay residual.
        assert_eq!(residual, vec![2, 3]);
    }

    #[test]
    fn ambiguous_and_unknown_stay_residual() {
        let names = Names(vec![vec!["dup"], vec!["dup"]]);
        let (pushed, residual) = route(
            "SELECT a FROM x WHERE dup = 1 AND nope = 2",
            &names,
            &[false, false],
        );
        assert!(pushed.iter().all(Vec::is_empty));
        assert_eq!(residual, vec![0, 1]);
    }

    #[test]
    fn nullable_side_of_left_join_is_not_pushed() {
        let names = Names(vec![vec!["a"], vec!["b"]]);
        let (pushed, residual) = route("SELECT a FROM x WHERE t2.b = 1", &names, &[false, true]);
        assert!(pushed[1].is_empty());
        assert_eq!(residual, vec![0]);
    }
}
