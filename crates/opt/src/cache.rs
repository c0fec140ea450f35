//! Owned, cacheable plan decisions for prepared-statement reuse.
//!
//! [`PlannedSelect`] borrows its pushed/residual conjuncts from the
//! statement's AST, which makes it perfect for one execution and
//! impossible to store in a cache next to the query that owns those
//! expressions. [`OwnedPlan`] is the borrow-free mirror: conjunct
//! *indices* into the deterministic [`split_conjuncts`] order of the
//! WHERE clause instead of `&Expr` references, everything else copied
//! verbatim.
//!
//! The contract is exact reconstruction: for the same `Select`,
//! [`OwnedPlan::reify`] returns a `PlannedSelect` identical to the one
//! [`OwnedPlan::capture`] saw — same conjunct references (by pointer),
//! same pruning, order, steps and build sides — so a cached plan
//! executes byte-identically to a freshly planned one, errors included.
//! Both directions are defensive: a statement whose conjunct layout
//! does not match the stored indices yields `None`, and callers fall
//! back to fresh planning rather than executing a mismatched plan.

use crate::plan::{PlannedJoin, PlannedSelect};
use crate::pushdown::split_conjuncts;
use sb_sql::{Expr, Select};

/// A [`PlannedSelect`] with every statement borrow replaced by a
/// conjunct index — storable in a cache for as long as the paired
/// query AST lives.
#[derive(Debug, Clone)]
pub struct OwnedPlan {
    /// Per-relation pushed conjuncts, as indices into the WHERE
    /// clause's top-level conjunct list.
    pushed: Vec<Vec<usize>>,
    /// Residual conjunct indices.
    residual: Vec<usize>,
    /// Projection pushdown keep-sets (original column indices).
    keep: Vec<Option<Vec<usize>>>,
    /// Relation execution order.
    order: Vec<usize>,
    /// Join steps aligned with `order[1..]`.
    steps: Vec<PlannedJoin>,
    /// Whether `order` differs from source order.
    reordered: bool,
    /// Estimated scan output rows per relation.
    scan_est: Vec<f64>,
}

/// The statement's top-level WHERE conjuncts in [`split_conjuncts`]
/// order — the coordinate system `OwnedPlan` indices live in.
fn top_conjuncts(select: &Select) -> Vec<&Expr> {
    let mut out = Vec::new();
    if let Some(sel) = &select.selection {
        split_conjuncts(sel, &mut out);
    }
    out
}

impl OwnedPlan {
    /// Convert a freshly planned statement into its owned form. Returns
    /// `None` if any planned conjunct is not a top-level WHERE conjunct
    /// of `select` (impossible for plans produced by
    /// [`crate::plan_select`] on the same statement, but checked rather
    /// than assumed).
    pub fn capture(planned: &PlannedSelect<'_>, select: &Select) -> Option<OwnedPlan> {
        let conjuncts = top_conjuncts(select);
        let index_of =
            |e: &Expr| -> Option<usize> { conjuncts.iter().position(|c| std::ptr::eq(*c, e)) };
        let mut pushed = Vec::with_capacity(planned.pushed.len());
        for rel in &planned.pushed {
            let mut idxs = Vec::with_capacity(rel.len());
            for e in rel {
                idxs.push(index_of(e)?);
            }
            pushed.push(idxs);
        }
        let residual: Option<Vec<usize>> = planned.residual.iter().map(|e| index_of(e)).collect();
        Some(OwnedPlan {
            pushed,
            residual: residual?,
            keep: planned.keep.clone(),
            order: planned.order.clone(),
            steps: planned.steps.clone(),
            reordered: planned.reordered,
            scan_est: planned.scan_est.clone(),
        })
    }

    /// Reconstruct the borrowing plan against (the same) `select`.
    /// Returns `None` when the statement's relation count or conjunct
    /// list no longer matches the stored indices.
    pub fn reify<'e>(&self, select: &'e Select) -> Option<PlannedSelect<'e>> {
        let n = select.joins.len() + 1;
        if self.pushed.len() != n || self.keep.len() != n {
            return None;
        }
        let conjuncts = top_conjuncts(select);
        let mut pushed = Vec::with_capacity(n);
        for rel in &self.pushed {
            let mut refs = Vec::with_capacity(rel.len());
            for &i in rel {
                refs.push(*conjuncts.get(i)?);
            }
            pushed.push(refs);
        }
        let residual: Option<Vec<&Expr>> = self
            .residual
            .iter()
            .map(|&i| conjuncts.get(i).copied())
            .collect();
        Some(PlannedSelect {
            pushed,
            residual: residual?,
            keep: self.keep.clone(),
            order: self.order.clone(),
            steps: self.steps.clone(),
            reordered: self.reordered,
            scan_est: self.scan_est.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ColMeta, OptOptions, PlanInput, RelMeta, Resolution, Resolver};
    use sb_sql::{parse, ColumnRef, SetExpr};

    /// Resolver over rel metas: qualified by binding, bare by unique name.
    struct MetaResolver<'a>(&'a [RelMeta]);

    impl Resolver for MetaResolver<'_> {
        fn resolve(&self, c: &ColumnRef) -> Resolution {
            let by_name = |rel: usize| {
                self.0[rel]
                    .columns
                    .iter()
                    .position(|col| col.name.eq_ignore_ascii_case(&c.column))
            };
            match &c.table {
                Some(q) => match self
                    .0
                    .iter()
                    .position(|r| r.binding.eq_ignore_ascii_case(q))
                {
                    Some(rel) => match by_name(rel) {
                        Some(col) => Resolution::Col { rel, col },
                        None => Resolution::Unknown,
                    },
                    None => Resolution::Unknown,
                },
                None => {
                    let mut found = None;
                    for rel in 0..self.0.len() {
                        if let Some(col) = by_name(rel) {
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

    /// Field-by-field comparison via Debug: `PlannedSelect` has no
    /// `PartialEq` (it holds `&Expr`), but its Debug output pins every
    /// decision including the borrowed conjuncts.
    fn assert_same(a: &PlannedSelect<'_>, b: &PlannedSelect<'_>) {
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        // Reference identity, not just structural equality: the reified
        // conjuncts must be the very same AST nodes.
        for (ra, rb) in a.pushed.iter().zip(&b.pushed) {
            for (ea, eb) in ra.iter().zip(rb) {
                assert!(std::ptr::eq(*ea, *eb));
            }
        }
        for (ea, eb) in a.residual.iter().zip(&b.residual) {
            assert!(std::ptr::eq(*ea, *eb));
        }
    }

    #[test]
    fn capture_reify_round_trips_reordered_plan() {
        let rels = vec![
            meta("a", &[("id", true), ("b_id", false)], 100_000),
            meta("b", &[("id", true), ("kind", false)], 10),
            meta("c", &[("id", true), ("a_id", false)], 1_000),
        ];
        let sql = "SELECT a.id FROM a JOIN b ON a.b_id = b.id \
                   JOIN c ON c.a_id = a.id WHERE b.kind = 'x' AND a.id > 3 AND a.id < c.id";
        let parsed = parse(sql).unwrap();
        let SetExpr::Select(select) = &parsed.body else {
            panic!("select expected")
        };
        let input = PlanInput {
            select,
            order_by: &parsed.order_by,
            limit: parsed.limit,
            rels: &rels,
            opts: OptOptions::default(),
        };
        let fresh = crate::plan_select(&input, &MetaResolver(&rels));
        assert!(fresh.reordered, "exercises the interesting plan shape");
        let owned = OwnedPlan::capture(&fresh, select).expect("own plan");
        let reified = owned.reify(select).expect("reify against same select");
        assert_same(&fresh, &reified);
    }

    #[test]
    fn reify_rejects_mismatched_statement() {
        let rels = vec![meta("a", &[("id", true)], 10)];
        let sql = "SELECT a.id FROM a WHERE a.id = 1 AND a.id < 5";
        let parsed = parse(sql).unwrap();
        let SetExpr::Select(select) = &parsed.body else {
            panic!("select expected")
        };
        let input = PlanInput {
            select,
            order_by: &parsed.order_by,
            limit: parsed.limit,
            rels: &rels,
            opts: OptOptions::default(),
        };
        let fresh = crate::plan_select(&input, &MetaResolver(&rels));
        let owned = OwnedPlan::capture(&fresh, select).expect("own plan");

        // Fewer conjuncts than the stored indices expect.
        let other = parse("SELECT a.id FROM a WHERE a.id = 1").unwrap();
        let SetExpr::Select(other_select) = &other.body else {
            panic!("select expected")
        };
        assert!(owned.reify(other_select).is_none());

        // Different relation count.
        let wide = parse("SELECT a.id FROM a JOIN b ON a.id = b.id WHERE a.id = 1").unwrap();
        let SetExpr::Select(wide_select) = &wide.body else {
            panic!("select expected")
        };
        assert!(owned.reify(wide_select).is_none());
    }
}
