//! The cost model: textbook selectivity heuristics over actual
//! cardinalities.
//!
//! Inputs are deliberately cheap — the planner runs on every executed
//! statement, so it sees only what [`crate::RelMeta`] carries: live row
//! counts (exact, including materialized derived tables) and schema
//! uniqueness (base-table primary keys). Distinct counts for non-unique
//! columns fall back to the classic `rows / 10` guess; wiring
//! `sb-schema`'s `DataProfile` distinct counts in here is the
//! documented upgrade path once profiles are cached per database.
//!
//! Selectivities follow the System-R folklore constants: `1/10` for
//! equality against a non-unique column (or `1/rows` against a unique
//! one), `1/3` per inequality, `1/4` for BETWEEN and LIKE. They don't
//! need to be right — only to rank candidate join orders sensibly —
//! and every estimate is clamped to at least one row so division never
//! explodes.

use crate::{RelMeta, Resolution, Resolver};
use sb_sql::{BinaryOp, Expr, UnaryOp};

/// Default distinct-count divisor for non-unique columns.
const DISTINCT_FRACTION: f64 = 10.0;

/// Estimated distinct values of column `col` of `rel` after its scan
/// kept an estimated `scan_rows` rows.
pub fn distinct_estimate(rel: &RelMeta, col: usize, scan_rows: f64) -> f64 {
    let base = if rel.columns.get(col).is_some_and(|c| c.unique) {
        rel.rows as f64
    } else {
        (rel.rows as f64 / DISTINCT_FRACTION).max(1.0)
    };
    base.min(scan_rows).max(1.0)
}

/// Estimated fraction of rows a predicate keeps, in `[0, 1]`.
///
/// The resolver maps column references to their relations so equality
/// against a unique column can use the sharper `1/rows` selectivity.
pub fn selectivity(e: &Expr, resolver: &dyn Resolver, rels: &[RelMeta]) -> f64 {
    let sel = match e {
        Expr::Binary { left, op, right } => match op {
            BinaryOp::And => selectivity(left, resolver, rels) * selectivity(right, resolver, rels),
            BinaryOp::Or => {
                (selectivity(left, resolver, rels) + selectivity(right, resolver, rels)).min(1.0)
            }
            BinaryOp::Eq => eq_selectivity(left, right, resolver, rels),
            BinaryOp::NotEq => 1.0 - eq_selectivity(left, right, resolver, rels),
            BinaryOp::Lt | BinaryOp::LtEq | BinaryOp::Gt | BinaryOp::GtEq => 1.0 / 3.0,
            // Arithmetic in boolean position: no opinion.
            _ => 1.0 / 3.0,
        },
        Expr::Unary {
            op: UnaryOp::Not,
            expr,
        } => 1.0 - selectivity(expr, resolver, rels),
        Expr::Between { negated, .. } => flip(0.25, *negated),
        Expr::InList { list, negated, .. } => flip((0.1 * list.len() as f64).min(1.0), *negated),
        Expr::Like { negated, .. } => flip(0.25, *negated),
        Expr::IsNull { negated, .. } => flip(0.1, *negated),
        // Subqueries, literals, lone columns: no opinion.
        _ => 1.0 / 3.0,
    };
    sel.clamp(0.0, 1.0)
}

fn flip(sel: f64, negated: bool) -> f64 {
    if negated {
        1.0 - sel
    } else {
        sel
    }
}

/// Selectivity of `left = right`: `1 / distinct` when one side is a
/// column whose distinct count we can estimate, `1/10` otherwise.
fn eq_selectivity(left: &Expr, right: &Expr, resolver: &dyn Resolver, rels: &[RelMeta]) -> f64 {
    let mut best: f64 = 0.1;
    for side in [left, right] {
        if let Expr::Column(c) = side {
            if let Resolution::Col { rel, col } = resolver.resolve(c) {
                let d = distinct_estimate(&rels[rel], col, rels[rel].rows as f64);
                best = best.min(1.0 / d);
            }
        }
    }
    best
}

/// Estimated output rows of a scan of `rel` after its pushed conjuncts
/// (indices into the statement's [`crate::conjuncts`]).
pub fn scan_estimate(
    rel: &RelMeta,
    pushed: &[usize],
    conjuncts: &[&Expr],
    resolver: &dyn Resolver,
    rels: &[RelMeta],
) -> f64 {
    let mut est = rel.rows as f64;
    for &c in pushed {
        est *= selectivity(conjuncts[c], resolver, rels);
    }
    est
}

/// Estimated output rows of an equi-join between inputs of `left_rows`
/// and `right_rows` estimated rows, keyed on the given columns:
/// `|L| · |R| / max(d(L.key), d(R.key))`.
#[allow(clippy::too_many_arguments)]
pub fn join_estimate(
    left_rows: f64,
    right_rows: f64,
    left_rel: &RelMeta,
    left_col: usize,
    left_scan_rows: f64,
    right_rel: &RelMeta,
    right_col: usize,
    right_scan_rows: f64,
) -> f64 {
    let d_left = distinct_estimate(left_rel, left_col, left_scan_rows);
    let d_right = distinct_estimate(right_rel, right_col, right_scan_rows);
    left_rows * right_rows / d_left.max(d_right).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ColMeta;

    fn parse_expr(pred: &str) -> Expr {
        let q = sb_sql::parse(&format!("SELECT a FROM t WHERE {pred}")).unwrap();
        let sb_sql::SetExpr::Select(s) = &q.body else {
            panic!("select expected")
        };
        s.selection.clone().unwrap()
    }

    fn rel(rows: usize, unique_first: bool) -> RelMeta {
        RelMeta {
            binding: "t".into(),
            table: Some("t".into()),
            columns: vec![
                ColMeta {
                    name: "id".into(),
                    unique: unique_first,
                },
                ColMeta {
                    name: "v".into(),
                    unique: false,
                },
            ],
            rows,
        }
    }

    struct Fixed(Resolution);

    impl Resolver for Fixed {
        fn resolve(&self, _: &sb_sql::ColumnRef) -> Resolution {
            self.0
        }
    }

    #[test]
    fn unique_equality_is_sharpest() {
        let rels = vec![rel(1000, true)];
        let r = Fixed(Resolution::Col { rel: 0, col: 0 });
        let e = parse_expr("id = 7");
        let s = selectivity(&e, &r, &rels);
        assert!((s - 1.0 / 1000.0).abs() < 1e-12, "got {s}");
        // Non-unique column: the 1/10 folklore constant.
        let rels = vec![rel(1000, false)];
        let e = parse_expr("v = 7");
        let r = Fixed(Resolution::Col { rel: 0, col: 1 });
        let s = selectivity(&e, &r, &rels);
        assert!((s - 0.01).abs() < 1e-12, "1/(1000/10), got {s}");
    }

    #[test]
    fn connectives_compose() {
        let rels = vec![rel(100, false)];
        let r = Fixed(Resolution::Unknown);
        let and = parse_expr("v > 1 AND v < 9");
        let s = selectivity(&and, &r, &rels);
        assert!((s - 1.0 / 9.0).abs() < 1e-12);
        let not = parse_expr("NOT (v BETWEEN 1 AND 9)");
        assert!((selectivity(&not, &r, &rels) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn join_estimate_divides_by_larger_distinct() {
        let big = rel(10_000, true);
        let small = rel(100, false);
        // 10k rows joining 100 rows on big's PK: ~100 rows out.
        let est = join_estimate(10_000.0, 100.0, &big, 0, 10_000.0, &small, 1, 100.0);
        assert!((est - 100.0).abs() < 1e-9, "got {est}");
    }

    #[test]
    fn estimates_never_drop_below_defined_floors() {
        let empty = rel(0, false);
        assert!(distinct_estimate(&empty, 0, 0.0) >= 1.0);
        let est = join_estimate(0.0, 0.0, &empty, 0, 0.0, &empty, 0, 0.0);
        assert_eq!(est, 0.0);
    }
}
