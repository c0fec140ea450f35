//! Lowering and the rewrite pipeline: one `SELECT` in, one
//! [`PlannedSelect`] out.
//!
//! The planner never sees rows. It lowers the statement into per-scan
//! filters plus a join graph, then applies the rules in a fixed order —
//! predicate pushdown, projection pushdown, cost-based join reordering —
//! and returns the surviving decisions in the *original* relation/column
//! coordinate system, which is the executor's too: its joins run over
//! row ids of the relations' column images, and it narrows rows to the
//! kept columns only when it builds them.
//!
//! ## When reordering applies
//!
//! Join reordering is restricted to statements where it is provably
//! invisible: three or more relations, all joins `INNER`, all binding
//! names distinct, and every join keyed ([`PlanInput::join_keys`]: its
//! `ON` constraint a single `a = b` between the relation it introduces
//! and an earlier one, bare names included, as the engine resolves it
//! against the relations joined so far). Those conditions make the join
//! graph a spanning tree whose every execution order needs exactly one
//! hash-join key per step, and they guarantee no resolution error can
//! depend on the chosen order. The executor sorts the joined row-id
//! tuples back into source-order output afterwards, so even
//! tie-breaking in ORDER BY and the strict row-order equivalence tests
//! cannot observe the reorder.

use crate::cost::{join_estimate, scan_estimate};
use crate::pushdown::{assign_pushdown, conjuncts};
use crate::{OptOptions, RelMeta, Resolver};
use sb_sql::{Expr, OrderItem, Select, SelectItem};

/// Everything the planner needs about one statement.
pub struct PlanInput<'a> {
    /// The SELECT body.
    pub select: &'a Select,
    /// Statement-level ORDER BY items.
    pub order_by: &'a [OrderItem],
    /// Statement-level LIMIT.
    pub limit: Option<u64>,
    /// Per-relation metadata, in FROM/JOIN order.
    pub rels: &'a [RelMeta],
    /// Each written join's hash key, in source order: join `j`
    /// introduces relation `j + 1`. The engine decides them once, with
    /// the rule both executors follow; `None` runs as a nested loop.
    pub join_keys: Vec<Option<EdgeKey>>,
    /// The executor options EXPLAIN labels depend on.
    pub opts: OptOptions,
}

/// One equi-join hash key, in original coordinates: column `left_col`
/// of relation `left_rel` (already in scope) equals column `right_col`
/// of the relation the step introduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeKey {
    /// Relation (original index) providing the probe-side key.
    pub left_rel: usize,
    /// Column of `left_rel` (original index).
    pub left_col: usize,
    /// Column of the introduced relation (original index).
    pub right_col: usize,
}

/// One join step of the chosen execution order.
#[derive(Debug, Clone)]
pub struct PlannedJoin {
    /// The relation (original index) this step joins in.
    pub rel: usize,
    /// Hash-key columns; always `Some` on a reordered plan.
    pub key: Option<EdgeKey>,
    /// Estimated output rows of this step.
    pub est_rows: f64,
}

/// The planner's decisions for one `SELECT`, in original coordinates.
///
/// The plan borrows nothing from the statement: WHERE conjuncts are
/// named by their index in [`conjuncts`] order, so a plan can be stored
/// next to the query it was planned for (the serve layer's prepared
/// plans) and executed any number of times.
#[derive(Debug, Clone)]
pub struct PlannedSelect {
    /// Per-relation pushed conjuncts, as indices into [`conjuncts`].
    pub pushed: Vec<Vec<usize>>,
    /// Residual WHERE conjuncts, as indices into [`conjuncts`].
    pub residual: Vec<usize>,
    /// Projection pushdown: for each relation, the original column
    /// indices to keep (ascending), or `None` to keep every column.
    pub keep: Vec<Option<Vec<usize>>>,
    /// Execution order of relations (original indices);
    /// `order[0]` is scanned first.
    pub order: Vec<usize>,
    /// Join steps aligned with `order[1..]`: in source order unless
    /// `reordered`.
    pub steps: Vec<PlannedJoin>,
    /// Whether `order` differs from source order (the executor must run
    /// the order-restoring join pipeline).
    pub reordered: bool,
    /// Estimated scan output rows per relation (after pushed filters).
    pub scan_est: Vec<f64>,
}

/// Plan one `SELECT`. Resolution goes through `resolver` (the engine's
/// scope), so the planner inherits executor name semantics verbatim.
pub fn plan_select(input: &PlanInput<'_>, resolver: &dyn Resolver) -> PlannedSelect {
    let select = input.select;
    let rels = input.rels;
    let n = rels.len();

    // Rule 1: predicate pushdown.
    let conjuncts = conjuncts(select);
    let nullable: Vec<bool> = (0..n).map(|i| i > 0 && select.joins[i - 1].left).collect();
    let (pushed, residual) = assign_pushdown(&conjuncts, resolver, &nullable);

    // Rule 2: projection pushdown (decided here, applied by the engine).
    let keep = prune_columns(input);

    let scan_est: Vec<f64> = (0..n)
        .map(|i| scan_estimate(&rels[i], &pushed[i], &conjuncts, resolver, rels))
        .collect();

    // Rule 3: cost-based join reordering over the equi-join tree.
    let (order, steps) = match join_tree(input) {
        Some(keys) => greedy_order(input, &keys, &scan_est),
        None => (Vec::new(), Vec::new()),
    };
    let reordered = order.iter().enumerate().any(|(i, &r)| i != r);
    let (order, steps) = if reordered {
        (order, steps)
    } else {
        ((0..n).collect(), source_order_steps(input, &scan_est))
    };

    PlannedSelect {
        pushed,
        residual,
        keep,
        order,
        steps,
        reordered,
        scan_est,
    }
}

/// Projection pushdown: keep a column only when its (case-folded) name
/// is referenced somewhere in the statement. Name-level granularity is
/// what makes the rule sound: if a name survives anywhere it survives
/// everywhere, so bare-reference ambiguity, qualified resolution and
/// ORDER BY alias fallback behave identically against the pruned scope.
/// Disabled for single-relation statements (scans stay zero-copy) and
/// in the presence of a wildcard projection.
fn prune_columns(input: &PlanInput<'_>) -> Vec<Option<Vec<usize>>> {
    let select = input.select;
    let n = input.rels.len();
    let wildcard = select
        .projections
        .iter()
        .any(|p| matches!(p, SelectItem::Wildcard));
    if n < 2 || wildcard {
        return vec![None; n];
    }
    let mut refs = Vec::new();
    let mut exprs: Vec<&Expr> = Vec::new();
    if let Some(sel) = &select.selection {
        exprs.push(sel);
    }
    for join in &select.joins {
        if let Some(c) = &join.constraint {
            exprs.push(c);
        }
    }
    for p in &select.projections {
        if let SelectItem::Expr { expr, .. } = p {
            exprs.push(expr);
        }
    }
    exprs.extend(select.group_by.iter());
    if let Some(h) = &select.having {
        exprs.push(h);
    }
    exprs.extend(input.order_by.iter().map(|o| &o.expr));
    for e in exprs {
        crate::pushdown::collect_columns(e, &mut refs);
    }
    let needed: Vec<String> = refs.iter().map(|c| c.column.to_ascii_lowercase()).collect();
    (0..n)
        .map(|i| {
            let cols = &input.rels[i].columns;
            let kept: Vec<usize> = (0..cols.len())
                .filter(|&c| {
                    needed
                        .iter()
                        .any(|name| cols[c].name.eq_ignore_ascii_case(name))
                })
                .collect();
            if kept.len() == cols.len() {
                None
            } else {
                Some(kept)
            }
        })
        .collect()
}

/// The equi-join spanning tree, one key per written join, or `None`
/// when a reordering precondition fails.
fn join_tree(input: &PlanInput<'_>) -> Option<Vec<EdgeKey>> {
    let rels = input.rels;
    if rels.len() < 3 || input.select.joins.iter().any(|j| j.left) {
        return None;
    }
    // Distinct binding names: prefix-scope and full-scope resolution
    // agree only when no binding shadows another.
    for (i, a) in rels.iter().enumerate() {
        if rels[..i]
            .iter()
            .any(|b| a.binding.eq_ignore_ascii_case(&b.binding))
        {
            return None;
        }
    }
    input.join_keys.iter().copied().collect()
}

/// Greedy bottom-up join ordering: start from the smallest estimated
/// scan, then repeatedly join in the connected relation minimizing the
/// estimated intermediate result. Ties break toward source order, so
/// plans are deterministic and stay put unless the estimates actually
/// prefer a change.
fn greedy_order(
    input: &PlanInput<'_>,
    keys: &[EdgeKey],
    scan_est: &[f64],
) -> (Vec<usize>, Vec<PlannedJoin>) {
    let rels = input.rels;
    let n = rels.len();
    let start = (0..n)
        .min_by(|&a, &b| {
            scan_est[a]
                .partial_cmp(&scan_est[b])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        })
        .expect("at least one relation");
    let mut order = vec![start];
    let mut in_scope = vec![false; n];
    in_scope[start] = true;
    let mut cur_est = scan_est[start];
    let mut steps = Vec::with_capacity(n - 1);
    while order.len() < n {
        // Candidate relations: connected to the scope by an (unused)
        // edge. The edge set is a spanning tree, so exactly one edge
        // applies per candidate and a candidate always exists.
        let mut best: Option<(f64, usize, EdgeKey)> = None;
        for (j, k) in keys.iter().enumerate() {
            // Orient the edge so `have` is in scope and `add` is not.
            let (prev, new) = ((k.left_rel, k.left_col), (j + 1, k.right_col));
            let ((have, have_col), (add, add_col)) = match (in_scope[prev.0], in_scope[new.0]) {
                (true, false) => (prev, new),
                (false, true) => (new, prev),
                _ => continue,
            };
            let est = join_estimate(
                cur_est,
                scan_est[add],
                &rels[have],
                have_col,
                scan_est[have],
                &rels[add],
                add_col,
                scan_est[add],
            );
            let better = match &best {
                None => true,
                Some((b_est, b_add, _)) => est < *b_est || (est == *b_est && add < *b_add),
            };
            if better {
                best = Some((
                    est,
                    add,
                    EdgeKey {
                        left_rel: have,
                        left_col: have_col,
                        right_col: add_col,
                    },
                ));
            }
        }
        let (est, add, key) = best.expect("join tree is connected");
        steps.push(PlannedJoin {
            rel: add,
            key: Some(key),
            est_rows: est,
        });
        in_scope[add] = true;
        order.push(add);
        cur_est = est;
    }
    (order, steps)
}

/// Steps for the source-order path: estimates walk the joins as
/// written, each with its key from [`PlanInput::join_keys`].
fn source_order_steps(input: &PlanInput<'_>, scan_est: &[f64]) -> Vec<PlannedJoin> {
    let select = input.select;
    let rels = input.rels;
    let mut cur_est = scan_est.first().copied().unwrap_or(0.0);
    let mut steps = Vec::with_capacity(select.joins.len());
    for (j, join) in select.joins.iter().enumerate() {
        let introduced = j + 1;
        let key = input.join_keys[j];
        let est = match key {
            Some(k) => join_estimate(
                cur_est,
                scan_est[introduced],
                &rels[k.left_rel],
                k.left_col,
                scan_est[k.left_rel],
                &rels[introduced],
                k.right_col,
                scan_est[introduced],
            ),
            // Nested loop / cross join: assume the constraint (if any)
            // keeps a third of the cross product.
            None => {
                let product = cur_est * scan_est[introduced];
                if join.constraint.is_some() {
                    product / 3.0
                } else {
                    product
                }
            }
        };
        // LEFT JOIN emits at least every left row.
        let est = if join.left { est.max(cur_est) } else { est };
        steps.push(PlannedJoin {
            rel: introduced,
            key,
            est_rows: est,
        });
        cur_est = est;
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ColMeta, Resolution};
    use sb_sql::{parse, SetExpr};

    /// Resolver over the rel metas themselves: qualified by binding,
    /// bare by unique column name.
    struct MetaResolver<'a>(&'a [RelMeta]);

    impl Resolver for MetaResolver<'_> {
        fn resolve(&self, c: &sb_sql::ColumnRef) -> Resolution {
            match &c.table {
                Some(q) => {
                    let rel = self
                        .0
                        .iter()
                        .position(|r| r.binding.eq_ignore_ascii_case(q));
                    let Some(rel) = rel else {
                        return Resolution::Unknown;
                    };
                    match self.0[rel]
                        .columns
                        .iter()
                        .position(|col| col.name.eq_ignore_ascii_case(&c.column))
                    {
                        Some(col) => Resolution::Col { rel, col },
                        None => Resolution::Unknown,
                    }
                }
                None => {
                    let mut found = None;
                    for (rel, r) in self.0.iter().enumerate() {
                        if let Some(col) = r
                            .columns
                            .iter()
                            .position(|col| col.name.eq_ignore_ascii_case(&c.column))
                        {
                            if found.is_some() {
                                return Resolution::Ambiguous;
                            }
                            found = Some(Resolution::Col { rel, col });
                        }
                    }
                    found.unwrap_or(Resolution::Unknown)
                }
            }
        }
    }

    fn meta(binding: &str, cols: &[(&str, bool)], rows: usize) -> RelMeta {
        RelMeta {
            binding: binding.into(),
            table: Some(binding.into()),
            columns: cols
                .iter()
                .map(|(n, u)| ColMeta {
                    name: (*n).into(),
                    unique: *u,
                })
                .collect(),
            rows,
        }
    }

    /// Relation `left_rel`'s column `left_col` equals column
    /// `right_col` of the relation a join introduces.
    fn key(left_rel: usize, left_col: usize, right_col: usize) -> Option<EdgeKey> {
        Some(EdgeKey {
            left_rel,
            left_col,
            right_col,
        })
    }

    fn plan(sql: &str, rels: &[RelMeta], join_keys: Vec<Option<EdgeKey>>) -> PlannedSelect {
        let parsed = parse(sql).unwrap();
        let SetExpr::Select(select) = &parsed.body else {
            panic!("select expected")
        };
        let input = PlanInput {
            select,
            order_by: &parsed.order_by,
            limit: parsed.limit,
            rels,
            join_keys,
            opts: OptOptions::default(),
        };
        plan_select(&input, &MetaResolver(rels))
    }

    #[test]
    fn small_filtered_relation_is_scanned_first() {
        // b (10 rows, heavily filtered) should start; a (100k) and the
        // 1k-row c follow by estimated cardinality.
        let rels = vec![
            meta("a", &[("id", true), ("b_id", false)], 100_000),
            meta("b", &[("id", true), ("kind", false)], 10),
            meta("c", &[("id", true), ("a_id", false)], 1_000),
        ];
        let sql = "SELECT a.id FROM a JOIN b ON a.b_id = b.id \
                   JOIN c ON c.a_id = a.id WHERE b.kind = 'x'";
        let p = plan(sql, &rels, vec![key(0, 1, 0), key(0, 0, 1)]);
        assert!(p.reordered);
        assert_eq!(p.order[0], 1, "starts from the filtered 10-row b");
        assert_eq!(p.steps.len(), 2);
        assert!(p.steps.iter().all(|s| s.key.is_some()));
        // Joined relations follow: a (via b) then c (via a).
        assert_eq!(p.order, vec![1, 0, 2]);
    }

    #[test]
    fn left_joins_and_unkeyed_joins_block_reordering() {
        let rels = vec![
            meta("a", &[("id", true)], 10),
            meta("b", &[("a_id", false)], 1000),
            meta("c", &[("b_id", false)], 5),
        ];
        for (sql, keys) in [
            (
                "SELECT a.id FROM a LEFT JOIN b ON b.a_id = a.id JOIN c ON c.b_id = b.a_id",
                vec![key(0, 0, 0), key(1, 0, 0)],
            ),
            (
                "SELECT a.id FROM a JOIN b ON a_id = a.id JOIN c ON c.b_id < b.a_id",
                vec![key(0, 0, 0), None],
            ),
        ] {
            let p = plan(sql, &rels, keys);
            assert!(!p.reordered, "{sql}");
            assert_eq!(p.order, vec![0, 1, 2]);
            assert_eq!(p.steps[0].key, key(0, 0, 0), "{sql}");
        }
        // The same statement with every join keyed starts from `c`.
        let sql = "SELECT a.id FROM a JOIN b ON a_id = a.id JOIN c ON c.b_id = b.a_id";
        assert_eq!(
            plan(sql, &rels, vec![key(0, 0, 0), key(1, 0, 0)]).order[0],
            2
        );
    }

    #[test]
    fn duplicate_bindings_block_reordering() {
        let rels = vec![
            meta("t", &[("id", true)], 10),
            meta("u", &[("t_id", false)], 1000),
            meta("t", &[("id", true)], 10),
        ];
        let sql = "SELECT u.t_id FROM t JOIN u ON u.t_id = t.id JOIN t ON u.t_id = t.id";
        let p = plan(sql, &rels, vec![key(0, 0, 0), key(1, 0, 0)]);
        assert!(!p.reordered);
    }

    #[test]
    fn pruning_keeps_only_referenced_names() {
        let rels = vec![
            meta("a", &[("id", true), ("b_id", false), ("junk", false)], 10),
            meta("b", &[("id", true), ("wide1", false), ("wide2", false)], 10),
        ];
        let sql = "SELECT a.id FROM a JOIN b ON a.b_id = b.id";
        let p = plan(sql, &rels, vec![key(0, 1, 0)]);
        assert_eq!(p.keep[0], Some(vec![0, 1]), "junk pruned from a");
        assert_eq!(p.keep[1], Some(vec![0]), "wide1/wide2 pruned from b");
        // Wildcard disables pruning entirely.
        let sql = "SELECT * FROM a JOIN b ON a.b_id = b.id";
        let p = plan(sql, &rels, vec![key(0, 1, 0)]);
        assert_eq!(p.keep, vec![None, None]);
    }

    #[test]
    fn order_by_alias_shadowing_name_is_kept() {
        // ORDER BY w resolves to b.w in the full scope; pruning b.w
        // would silently switch it to the projection alias fallback.
        let rels = vec![
            meta("a", &[("id", true), ("b_id", false)], 10),
            meta("b", &[("id", true), ("w", false)], 10),
        ];
        let sql = "SELECT a.id AS w FROM a JOIN b ON a.b_id = b.id ORDER BY w";
        let p = plan(sql, &rels, vec![key(0, 1, 0)]);
        assert_eq!(p.keep[1], None, "w is referenced via ORDER BY");
    }
}
