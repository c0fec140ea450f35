//! Structural eligibility for the columnar batch engine.
//!
//! [`columnar_eligible`] is a purely syntactic test over one `SELECT`:
//! it answers whether the statement's *shape* is within the vectorized
//! executor's operator set. The engine consults it before attempting
//! batch execution, and EXPLAIN consults the same function to label the
//! chosen path — one predicate, two consumers, no drift.
//!
//! Deliberately structural: no name resolution, no data inspection.
//! The engine's kernel compiler still performs data-dependent checks
//! (e.g. a column whose stored values mix ints and floats cannot be
//! vectorized) and falls back to the row path at runtime; EXPLAIN may
//! therefore label a query `columnar` that a particular database
//! demotes to the row engine. The reverse never happens.
//!
//! It holds no join rule. Every join is in shape: the plan's keys
//! decide each join's algorithm (a keyed step hash-joins, any other
//! runs the join layer's nested loop), and both executors follow them.
//!
//! Supported shape:
//! - base and derived tables (a derived table's result is scanned as a
//!   column image), joined by any joins: inner or LEFT, keyed or not,
//! - scalar expressions from the kernel set: columns, literals,
//!   arithmetic, comparisons, `AND`/`OR`/`NOT`, `BETWEEN`,
//!   `IN (literals)`, `LIKE 'literal'`, `IS NULL`,
//! - uncorrelated subqueries, which the engine executes once and uses
//!   as constants: scalar `(SELECT …)`, `EXISTS`, and `IN (SELECT …)`
//!   whose probe expression is itself in the kernel set,
//! - aggregates (`COUNT`/`SUM`/`AVG`/`MIN`/`MAX`, incl. `DISTINCT`)
//!   over scalar-set arguments, grouped by plain columns,
//! - no `SELECT *` under grouping.

use crate::is_aggregate;
use sb_sql::{AggArg, Expr, OrderItem, Select, SelectItem};

/// Whether one `SELECT` (with its statement-level ORDER BY keys) is
/// structurally executable by the columnar batch engine.
pub fn columnar_eligible(select: &Select, order_by: &[OrderItem]) -> bool {
    if let Some(sel) = &select.selection {
        if !scalar_ok(sel) {
            return false;
        }
    }

    let grouped = is_aggregate(select, order_by);
    if grouped {
        // The row engine rejects `SELECT *` under grouping; grouped keys
        // must be plain columns for the batch grouping kernels.
        if !select.group_by.iter().all(|g| matches!(g, Expr::Column(_))) {
            return false;
        }
        for item in &select.projections {
            match item {
                SelectItem::Wildcard => return false,
                SelectItem::Expr { expr, .. } => {
                    if !grouped_ok(expr) {
                        return false;
                    }
                }
            }
        }
        if let Some(h) = &select.having {
            if !grouped_ok(h) {
                return false;
            }
        }
        order_by.iter().all(|o| grouped_ok(&o.expr))
    } else {
        for item in &select.projections {
            if let SelectItem::Expr { expr, .. } = item {
                if !scalar_ok(expr) {
                    return false;
                }
            }
        }
        order_by.iter().all(|o| scalar_ok(&o.expr))
    }
}

/// Whether one `SELECT` has at least one stage the columnar engine can
/// execute morsel-parallel: a WHERE filter (per-morsel selection
/// vectors), a join (a hash join builds and probes in parallel; a
/// nested loop runs as one morsel), or a mergeable aggregation
/// (thread-local accumulators). A bare scan-project has no
/// parallel kernel — emission is inherently serial — so it stays
/// single-threaded even with parallelism enabled.
///
/// Like [`columnar_eligible`] this is purely structural and shared by
/// the engine and EXPLAIN, and deliberately independent of worker
/// count, morsel size, and table cardinality: the same statement gets
/// the same answer (and the same EXPLAIN text) on every machine.
pub fn parallel_eligible(select: &Select, order_by: &[OrderItem]) -> bool {
    columnar_eligible(select, order_by)
        && (select.selection.is_some()
            || !select.joins.is_empty()
            || is_aggregate(select, order_by))
}

/// Whether a scalar (per-row) expression is within the kernel set.
fn scalar_ok(e: &Expr) -> bool {
    match e {
        Expr::Column(_) | Expr::Literal(_) => true,
        Expr::Unary { expr, .. } => scalar_ok(expr),
        Expr::Binary { left, right, .. } => scalar_ok(left) && scalar_ok(right),
        Expr::Between {
            expr, low, high, ..
        } => scalar_ok(expr) && scalar_ok(low) && scalar_ok(high),
        Expr::InList { expr, list, .. } => {
            scalar_ok(expr) && list.iter().all(|i| matches!(i, Expr::Literal(_)))
        }
        Expr::Like { expr, pattern, .. } => {
            scalar_ok(expr) && matches!(pattern.as_ref(), Expr::Literal(_))
        }
        Expr::IsNull { expr, .. } => scalar_ok(expr),
        Expr::Subquery(_) | Expr::Exists { .. } => true,
        Expr::InSubquery { expr, .. } => scalar_ok(expr),
        Expr::Agg { .. } => false,
    }
}

/// Whether a group-context expression (projection / HAVING / ORDER BY
/// of an aggregate query) is within the kernel set: aggregates combined
/// with arithmetic/comparison/logic, scalar-set leaves evaluated on the
/// group's first row.
fn grouped_ok(e: &Expr) -> bool {
    match e {
        Expr::Agg { arg, .. } => match arg {
            AggArg::Star => true,
            AggArg::Expr(a) => scalar_ok(a),
        },
        Expr::Binary { left, right, .. } => grouped_ok(left) && grouped_ok(right),
        Expr::Unary { expr, .. } => grouped_ok(expr),
        other => scalar_ok(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eligible(sql: &str) -> bool {
        let q = sb_sql::parse(sql).unwrap();
        let sb_sql::SetExpr::Select(select) = &q.body else {
            panic!("single select expected");
        };
        columnar_eligible(select, &q.order_by)
    }

    #[test]
    fn supported_shapes() {
        assert!(eligible("SELECT a FROM t WHERE b > 1 AND c = 'x'"));
        assert!(eligible("SELECT * FROM t"));
        assert!(eligible(
            "SELECT t.a FROM t JOIN u ON t.id = u.tid WHERE u.v < 3 ORDER BY t.a LIMIT 5"
        ));
        assert!(eligible(
            "SELECT a, COUNT(*), SUM(b) FROM t GROUP BY a HAVING COUNT(*) > 2"
        ));
        assert!(eligible("SELECT COUNT(DISTINCT a) FROM t"));
        assert!(eligible("SELECT a FROM t WHERE b IN (1, 2, 3)"));
        assert!(eligible("SELECT a FROM t WHERE b LIKE '%x%'"));
        assert!(eligible("SELECT DISTINCT a FROM t ORDER BY a"));
        // Uncorrelated subqueries run once, as constants.
        assert!(eligible("SELECT a FROM t WHERE b IN (SELECT c FROM u)"));
        assert!(eligible("SELECT a FROM t WHERE EXISTS (SELECT * FROM u)"));
        assert!(eligible("SELECT a FROM t WHERE b > (SELECT AVG(c) FROM u)"));
        // A derived table scans as a column image.
        assert!(eligible("SELECT d.a FROM (SELECT a FROM t) AS d"));
        assert!(eligible(
            "SELECT d.a FROM t JOIN (SELECT a, id FROM u) AS d ON t.id = d.id"
        ));
        // Every join: the plan's keys decide hash join or nested loop.
        assert!(eligible("SELECT t.a FROM t LEFT JOIN u ON t.id = u.tid"));
        assert!(eligible("SELECT t.a FROM t JOIN u ON t.id < u.tid"));
        assert!(eligible("SELECT t.a FROM t JOIN u ON id = tid"));
        assert!(eligible("SELECT t.a FROM t JOIN u ON true"));
    }

    #[test]
    fn unsupported_shapes_fall_back() {
        // A subquery whose probe is outside the kernel set.
        assert!(!eligible(
            "SELECT a FROM t WHERE (b LIKE c) IN (SELECT d FROM u)"
        ));
        // Wildcard under grouping (row engine errors; same path both ways).
        assert!(!eligible("SELECT * FROM t GROUP BY a"));
        // Expression group keys.
        assert!(!eligible("SELECT a + 1 FROM t GROUP BY a + 1"));
        // Non-literal IN list / LIKE pattern.
        assert!(!eligible("SELECT a FROM t WHERE b IN (c, 2)"));
        assert!(!eligible("SELECT a FROM t WHERE b LIKE c"));
    }

    fn par_eligible(sql: &str) -> bool {
        let q = sb_sql::parse(sql).unwrap();
        let sb_sql::SetExpr::Select(select) = &q.body else {
            panic!("single select expected");
        };
        parallel_eligible(select, &q.order_by)
    }

    #[test]
    fn parallel_needs_a_parallelizable_stage() {
        // Filter, join, and aggregate stages all qualify.
        assert!(par_eligible("SELECT a FROM t WHERE b > 1"));
        assert!(par_eligible("SELECT t.a FROM t JOIN u ON t.id = u.tid"));
        assert!(par_eligible("SELECT a, COUNT(*) FROM t GROUP BY a"));
        assert!(par_eligible("SELECT MAX(a) FROM t"));
        // A bare scan-project has nothing to fan out.
        assert!(!par_eligible("SELECT a FROM t"));
        assert!(!par_eligible("SELECT a FROM t ORDER BY a LIMIT 5"));
        assert!(par_eligible(
            "SELECT t.a FROM t LEFT JOIN u ON t.id = u.tid"
        ));
        // Never broader than columnar eligibility itself.
        assert!(!par_eligible("SELECT * FROM t WHERE b > 1 GROUP BY a"));
        assert!(!par_eligible(
            "SELECT a FROM t WHERE (b LIKE c) IN (SELECT d FROM u)"
        ));
        // A subquery filter is a parallelizable stage like any other.
        assert!(par_eligible("SELECT a FROM t WHERE b IN (SELECT c FROM u)"));
    }
}
