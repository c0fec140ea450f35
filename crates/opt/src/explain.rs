//! EXPLAIN rendering: a [`PlannedSelect`] as an operator tree.
//!
//! The output is plain indented text in the style of planner-test
//! snapshot suites: one operator per line, children connected with
//! `└──`/`├──` rails, estimated cardinalities as `rows~N`. The
//! plan-snapshot goldens under `tests/goldens/plans/` pin this text per
//! hardness bucket, so any change to a rewrite rule or to the cost
//! model shows up as a reviewable diff.
//!
//! Labels are derived from the same [`PlannedSelect`] the executor
//! consumes — there is no second planning pass that could drift: a join
//! is labelled `HashJoin` exactly when its step carries the key both
//! executors hash-join on.
//!
//! [`build_plan`] builds both trees: the plain EXPLAIN tree, and with a
//! [`PlanAnnotator`] the EXPLAIN ANALYZE tree, whose labels carry the
//! runtime statistics the annotator supplies.

use crate::plan::{PlanInput, PlannedSelect};
use sb_sql::SelectItem;

/// One rendered operator: a label plus child operators. Deliberately
/// schemaless — derived-table subplans nest as ordinary children.
#[derive(Debug, Clone)]
pub struct PlanNode {
    /// Operator description, e.g. `HashJoin on s.bestobjid = p.objid`.
    pub label: String,
    /// Input operators, outermost first.
    pub children: Vec<PlanNode>,
}

impl PlanNode {
    /// A leaf operator.
    pub fn leaf(label: impl Into<String>) -> Self {
        PlanNode {
            label: label.into(),
            children: Vec::new(),
        }
    }

    /// An operator with one input.
    pub fn unary(label: impl Into<String>, child: PlanNode) -> Self {
        PlanNode {
            label: label.into(),
            children: vec![child],
        }
    }
}

/// Render a plan tree as indented text with box-drawing rails.
pub fn render(root: &PlanNode) -> String {
    let mut out = String::new();
    out.push_str(&root.label);
    out.push('\n');
    render_children(&root.children, "", &mut out);
    out
}

fn render_children(children: &[PlanNode], prefix: &str, out: &mut String) {
    for (i, child) in children.iter().enumerate() {
        let last = i + 1 == children.len();
        out.push_str(prefix);
        out.push_str(if last { "└── " } else { "├── " });
        out.push_str(&child.label);
        out.push('\n');
        let next = format!("{prefix}{}", if last { "    " } else { "│   " });
        render_children(&child.children, &next, out);
    }
}

/// Runtime-statistics source for EXPLAIN ANALYZE renderings.
///
/// Each callback returns the annotation text for one operator (or
/// `None` to leave the label bare). The renderer stays ignorant of
/// where the numbers come from — the engine implements this against
/// its per-statement `QueryProfile`, keeping `sb-opt` dependency-free.
/// Join steps are identified by their position in `planned.steps` plus
/// the relation index the step introduced, matching how the executor
/// records them.
pub trait PlanAnnotator {
    /// Annotation for the scan of relation `rel` (original coordinates).
    fn scan(&self, rel: usize) -> Option<String>;
    /// Annotation for join step `step` (introducing relation `rel`).
    fn join(&self, step: usize, rel: usize) -> Option<String>;
    /// Annotation for the residual `Filter` operator.
    fn filter(&self) -> Option<String>;
    /// Annotation for the `Aggregate` operator.
    fn aggregate(&self) -> Option<String>;
    /// Annotation for the `Distinct` operator.
    fn distinct(&self) -> Option<String>;
    /// Annotation for the `TopK`/`Sort`/`Limit` operator.
    fn order(&self) -> Option<String>;
    /// Annotation for the root `Execute` line (actual engine used,
    /// columnar-fallback reason, statement wall time).
    fn root(&self) -> Option<String>;
}

/// Build the operator tree for one planned `SELECT`.
///
/// `derived` supplies a pre-built subplan per relation (for derived
/// tables), in original relation order; `None` entries are base tables.
/// With an annotator, runtime statistics are appended to the operator
/// labels — the EXPLAIN ANALYZE tree.
pub fn build_plan(
    input: &PlanInput<'_>,
    planned: &PlannedSelect,
    derived: &[Option<PlanNode>],
    ann: Option<&dyn PlanAnnotator>,
) -> PlanNode {
    let select = input.select;
    let rels = input.rels;
    let conjuncts = crate::conjuncts(select);
    let show = |idxs: &[usize]| -> String {
        let preds: Vec<String> = idxs.iter().map(|&c| conjuncts[c].to_string()).collect();
        preds.join(" AND ")
    };

    // Scan leaves, in original coordinates.
    let scan_node = |i: usize| -> PlanNode {
        let rel = &rels[i];
        let mut label = match &rel.table {
            Some(t) if t.eq_ignore_ascii_case(&rel.binding) => format!("Scan {t}"),
            Some(t) => format!("Scan {t} AS {}", rel.binding),
            None => format!("DerivedScan {}", rel.binding),
        };
        if let Some(kept) = &planned.keep[i] {
            let names: Vec<&str> = kept.iter().map(|&c| rel.columns[c].name.as_str()).collect();
            label.push_str(&format!(" cols=[{}]", names.join(", ")));
        }
        if !planned.pushed[i].is_empty() {
            label.push_str(&format!(" filter=[{}]", show(&planned.pushed[i])));
        }
        label.push_str(&format!(" rows~{}", round_est(planned.scan_est[i])));
        if let Some(a) = ann.and_then(|a| a.scan(i)) {
            label.push_str(&a);
        }
        match &derived[i] {
            Some(child) => PlanNode::unary(label, child.clone()),
            None => PlanNode::leaf(label),
        }
    };

    // Left-deep join tree in execution order.
    let mut node = scan_node(planned.order[0]);
    for (si, step) in planned.steps.iter().enumerate() {
        let right = scan_node(step.rel);
        // The source join that introduced this relation. A reordered
        // plan can join the FROM relation (`step.rel == 0`) late — all
        // its joins are inner equi-joins by precondition, so the
        // missing source join only ever means "not a left outer".
        let source_join = step.rel.checked_sub(1).map(|j| &select.joins[j]);
        let outer = source_join.is_some_and(|j| j.left);
        let label = match &step.key {
            Some(k) => {
                let l = &rels[k.left_rel];
                let r = &rels[step.rel];
                format!(
                    "HashJoin{} on {}.{} = {}.{} rows~{}",
                    if outer { " (left outer)" } else { "" },
                    l.binding,
                    l.columns[k.left_col].name,
                    r.binding,
                    r.columns[k.right_col].name,
                    round_est(step.est_rows),
                )
            }
            _ => match source_join.and_then(|j| j.constraint.as_ref()) {
                Some(c) => format!(
                    "NestedLoopJoin{} pred=[{c}] rows~{}",
                    if outer { " (left outer)" } else { "" },
                    round_est(step.est_rows),
                ),
                None => format!("CrossJoin rows~{}", round_est(step.est_rows)),
            },
        };
        let label = match ann.and_then(|a| a.join(si, step.rel)) {
            Some(a) => format!("{label}{a}"),
            None => label,
        };
        node = PlanNode {
            label,
            children: vec![node, right],
        };
    }
    if planned.reordered {
        node = PlanNode::unary(
            format!(
                "RestoreOrder [{}]",
                planned
                    .order
                    .iter()
                    .map(|&r| rels[r].binding.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            node,
        );
    }

    if !planned.residual.is_empty() {
        let mut label = format!("Filter [{}]", show(&planned.residual));
        if let Some(a) = ann.and_then(|a| a.filter()) {
            label.push_str(&a);
        }
        node = PlanNode::unary(label, node);
    }

    if crate::is_aggregate(select, input.order_by) {
        let mut label = "Aggregate".to_string();
        if !select.group_by.is_empty() {
            let keys: Vec<String> = select.group_by.iter().map(|e| e.to_string()).collect();
            label.push_str(&format!(" group_by=[{}]", keys.join(", ")));
        }
        if let Some(h) = &select.having {
            label.push_str(&format!(" having=[{h}]"));
        }
        if let Some(a) = ann.and_then(|a| a.aggregate()) {
            label.push_str(&a);
        }
        node = PlanNode::unary(label, node);
    }

    let items: Vec<String> = select
        .projections
        .iter()
        .map(|p| match p {
            SelectItem::Wildcard => "*".to_string(),
            SelectItem::Expr { expr, alias } => match alias {
                Some(a) => format!("{expr} AS {a}"),
                None => expr.to_string(),
            },
        })
        .collect();
    node = PlanNode::unary(format!("Project [{}]", items.join(", ")), node);

    if select.distinct {
        let mut label = "Distinct".to_string();
        if let Some(a) = ann.and_then(|a| a.distinct()) {
            label.push_str(&a);
        }
        node = PlanNode::unary(label, node);
    }

    // ORDER BY + LIMIT fuse into a bounded top-K operator.
    let keys: Vec<String> = input
        .order_by
        .iter()
        .map(|o| format!("{}{}", o.expr, if o.desc { " DESC" } else { " ASC" }))
        .collect();
    let order_ann = || ann.and_then(|a| a.order()).unwrap_or_default();
    match (input.order_by.is_empty(), input.limit) {
        (false, Some(k)) => {
            let label = format!("TopK k={k} keys=[{}]{}", keys.join(", "), order_ann());
            node = PlanNode::unary(label, node);
        }
        (false, None) => {
            let label = format!("Sort keys=[{}]{}", keys.join(", "), order_ann());
            node = PlanNode::unary(label, node);
        }
        (true, Some(k)) => {
            node = PlanNode::unary(format!("Limit k={k}{}", order_ann()), node);
        }
        (true, None) => {}
    }

    // Root label: which executor the engine selects for this statement.
    // Structural only — data-dependent fallbacks (e.g. mixed-typed
    // columns) still demote to the row engine at runtime. The parallel
    // annotation is equally structural: `morsel` when some stage can
    // fan out, `none` when the shape has no parallel kernel, `off` when
    // the session disabled parallelism. Worker counts and morsel sizes
    // never appear here — the same plan text renders on every machine.
    let engine = if input.opts.columnar && crate::columnar_eligible(select, input.order_by) {
        "columnar"
    } else {
        "row"
    };
    let mut root = format!("Execute engine={engine}");
    if engine == "columnar" {
        let par = if !input.opts.parallel {
            "off"
        } else if crate::parallel_eligible(select, input.order_by) {
            "morsel"
        } else {
            "none"
        };
        root.push_str(&format!(" parallel={par}"));
    }
    if let Some(a) = ann.and_then(|a| a.root()) {
        root.push_str(&a);
    }
    PlanNode::unary(root, node)
}

/// Estimates print as integers: stable, readable, and immune to float
/// formatting churn.
fn round_est(est: f64) -> u64 {
    if est.is_finite() && est >= 0.0 {
        est.round().min(u64::MAX as f64) as u64
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_rails_and_indentation() {
        let tree = PlanNode {
            label: "Project [a]".into(),
            children: vec![PlanNode {
                label: "HashJoin".into(),
                children: vec![PlanNode::leaf("Scan t"), PlanNode::leaf("Scan u")],
            }],
        };
        let text = render(&tree);
        let expected = [
            "Project [a]",
            "└── HashJoin",
            "    ├── Scan t",
            "    └── Scan u",
            "",
        ]
        .join("\n");
        assert_eq!(text, expected);
    }
}
