//! Name scopes, the per-statement evaluation context, and the scalar
//! operators with SQL NULL semantics that the compiled evaluator
//! (`crate::compile`) and the columnar kernels (`crate::batch`)
//! share.

use crate::database::Database;
use crate::error::{EngineError, Result};
use crate::exec::ExecOptions;
use crate::inset::InSet;
use crate::join::ColId;
use crate::result::ResultSet;
use crate::value::Value;
use sb_sql::{BinaryOp, ColumnRef, Literal, Query, UnaryOp};
use std::cell::{OnceCell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

/// One named relation visible in a `SELECT` scope.
#[derive(Debug, Clone)]
pub struct Binding {
    /// Binding name (alias or table name), lower-cased.
    pub name: String,
    /// Column names of the relation, in order.
    pub columns: Vec<String>,
    /// Offset of this relation's first column in the concatenated row.
    pub offset: usize,
}

/// The set of relations visible to expressions of one `SELECT`.
#[derive(Debug, Clone, Default)]
pub struct Scope {
    /// Visible bindings in `FROM`/`JOIN` order.
    pub bindings: Vec<Binding>,
    /// Total width of the concatenated row.
    pub width: usize,
}

impl Scope {
    /// Append a relation to the scope; returns its offset.
    pub fn push(&mut self, name: &str, columns: Vec<String>) -> usize {
        let offset = self.width;
        self.width += columns.len();
        self.bindings.push(Binding {
            name: name.to_ascii_lowercase(),
            columns,
            offset,
        });
        offset
    }

    /// Resolve a column reference to an index into the concatenated row.
    pub fn resolve(&self, col: &ColumnRef) -> Result<usize> {
        match &col.table {
            Some(qualifier) => {
                let q = qualifier.to_ascii_lowercase();
                let binding = self
                    .bindings
                    .iter()
                    .find(|b| b.name == q)
                    .ok_or_else(|| EngineError::UnknownTable(qualifier.clone()))?;
                let idx = binding
                    .columns
                    .iter()
                    .position(|c| c.eq_ignore_ascii_case(&col.column))
                    .ok_or_else(|| EngineError::UnknownColumn(col.to_string()))?;
                Ok(binding.offset + idx)
            }
            None => {
                let mut found = None;
                for b in &self.bindings {
                    if let Some(idx) = b
                        .columns
                        .iter()
                        .position(|c| c.eq_ignore_ascii_case(&col.column))
                    {
                        if found.is_some() {
                            return Err(EngineError::AmbiguousColumn(col.column.clone()));
                        }
                        found = Some(b.offset + idx);
                    }
                }
                found.ok_or_else(|| EngineError::UnknownColumn(col.column.clone()))
            }
        }
    }

    /// The relation (index into `bindings`) and column a position of
    /// the concatenated row belongs to.
    pub(crate) fn locate(&self, flat: usize) -> ColId {
        let rel = self
            .bindings
            .iter()
            .rposition(|b| b.offset <= flat)
            .expect("position within scope width");
        ColId {
            rel,
            col: flat - self.bindings[rel].offset,
        }
    }

    /// The scope of the first `n` relations: what a join constraint
    /// sees when the join introduces relation `n - 1`.
    pub(crate) fn prefix(&self, n: usize) -> Scope {
        let bindings = self.bindings[..n].to_vec();
        let width = bindings.last().map_or(0, |b| b.offset + b.columns.len());
        Scope { bindings, width }
    }

    /// All visible column names, in row order (used to expand `*`).
    pub fn all_columns(&self) -> Vec<String> {
        self.bindings
            .iter()
            .flat_map(|b| b.columns.iter().cloned())
            .collect()
    }
}

/// Evaluation context: the database and executor options for
/// subqueries plus a memo so a non-correlated subquery is executed once
/// per statement, not once per candidate row.
pub struct EvalContext<'a> {
    /// The database subqueries run against.
    pub db: &'a Database,
    /// The statement's executor options, which its subqueries run with.
    pub opts: ExecOptions,
    memo: RefCell<HashMap<String, Rc<Memo>>>,
}

/// One memoized subquery outcome. Errors are memoized too, so a batch
/// attempt that bails on a failing subquery and the row-path retry that
/// then reports the error execute it only once between them.
struct Memo {
    rs: Result<Rc<ResultSet>>,
    /// The membership set of an `IN (SELECT …)`, built on first probe.
    set: OnceCell<Arc<InSet>>,
}

impl<'a> EvalContext<'a> {
    /// Create a context over a database for a statement run with `opts`.
    pub fn new(db: &'a Database, opts: ExecOptions) -> Self {
        EvalContext {
            db,
            opts,
            memo: RefCell::new(HashMap::new()),
        }
    }

    fn memoized(&self, q: &Query) -> Rc<Memo> {
        let key = q.to_string();
        if let Some(hit) = self.memo.borrow().get(&key) {
            return Rc::clone(hit);
        }
        let memo = Rc::new(Memo {
            rs: crate::exec::execute_with(self.db, q, self.opts).map(Rc::new),
            set: OnceCell::new(),
        });
        self.memo.borrow_mut().insert(key, Rc::clone(&memo));
        memo
    }

    /// Execute a subquery, memoized on its canonical SQL text.
    pub fn subquery(&self, q: &Query) -> Result<Rc<ResultSet>> {
        self.memoized(q).rs.clone()
    }

    /// The membership set of `… IN (q)`: executes `q` through the memo,
    /// checks it returns one column, and builds the set once.
    pub(crate) fn in_set(&self, q: &Query) -> Result<Arc<InSet>> {
        let memo = self.memoized(q);
        let rs = memo.rs.as_ref().map_err(EngineError::clone)?;
        if rs.columns.len() != 1 {
            return Err(EngineError::CardinalityViolation(format!(
                "IN subquery returns {} columns",
                rs.columns.len()
            )));
        }
        let set = memo
            .set
            .get_or_init(|| Arc::new(InSet::new(rs.rows.iter().map(|r| &r[0]))));
        Ok(Arc::clone(set))
    }
}

/// Three-valued AND/OR over already-truth-converted operands.
pub(crate) fn combine_logical(op: BinaryOp, l: Option<bool>, r: Option<bool>) -> Option<bool> {
    match op {
        BinaryOp::And => match (l, r) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        },
        BinaryOp::Or => match (l, r) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        },
        _ => unreachable!("only AND/OR are logical"),
    }
}

/// Convert a value to a three-valued truth: `Some(bool)` or `None` for
/// NULL. Non-boolean values are a type error.
pub fn truth(v: Value) -> Result<Option<bool>> {
    truth_ref(&v)
}

/// [`truth`] without consuming the value.
#[inline]
pub(crate) fn truth_ref(v: &Value) -> Result<Option<bool>> {
    match v {
        Value::Null => Ok(None),
        Value::Bool(b) => Ok(Some(*b)),
        other => Err(EngineError::TypeMismatch(format!(
            "expected boolean predicate, got {other}"
        ))),
    }
}

/// Apply a comparison operator to two already-evaluated values with SQL
/// NULL semantics. Shared by the compiled evaluator and the columnar
/// kernels.
#[inline]
pub(crate) fn apply_cmp(op: BinaryOp, l: &Value, r: &Value) -> Result<Value> {
    match l.compare(r) {
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
                _ => unreachable!("arithmetic operators use arith()"),
            };
            Ok(Value::Bool(b))
        }
    }
}

/// Apply a unary operator to an already-evaluated value.
pub(crate) fn apply_unary(op: UnaryOp, v: Value) -> Result<Value> {
    match op {
        UnaryOp::Neg => match v {
            Value::Null => Ok(Value::Null),
            // `-i64::MIN` has no i64 representation: defined error.
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

pub(crate) fn literal_value(l: &Literal) -> Value {
    match l {
        Literal::Null => Value::Null,
        Literal::Int(v) => Value::Int(*v),
        Literal::Float(v) => Value::Float(*v),
        Literal::Str(s) => Value::from(s.as_str()),
        Literal::Bool(b) => Value::Bool(*b),
    }
}

/// Wrap a checked i64 operation's result, turning `None` into the
/// defined [`EngineError::Overflow`] outcome.
#[inline]
pub(crate) fn int_arith(v: Option<i64>, a: &i64, b: &i64) -> Result<Value> {
    v.map(Value::Int).ok_or_else(|| {
        EngineError::Overflow(format!("integer arithmetic on {a} and {b} exceeds i64"))
    })
}

#[inline]
pub(crate) fn arith(op: BinaryOp, l: &Value, r: &Value) -> Result<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => Ok(match op {
            // Checked arithmetic: `i64::MAX + 1` is a defined `Overflow`
            // error, never a silent wrap (release) or panic (debug). The
            // reference interpreter's `arith` must error identically.
            BinaryOp::Add => int_arith(a.checked_add(*b), a, b)?,
            BinaryOp::Sub => int_arith(a.checked_sub(*b), a, b)?,
            BinaryOp::Mul => int_arith(a.checked_mul(*b), a, b)?,
            BinaryOp::Div => {
                // Integer division truncates; division by zero yields NULL
                // (Postgres errors here, but NULL keeps generated query
                // filtering total — documented divergence). `i64::MIN / -1`
                // is the one overflowing division.
                if *b == 0 {
                    Value::Null
                } else {
                    int_arith(a.checked_div(*b), a, b)?
                }
            }
            _ => unreachable!(),
        }),
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

/// SQL `LIKE` matching: `%` matches any run (including empty), `_` matches
/// exactly one character. Case-sensitive, like Postgres.
///
/// Iterative two-pointer wildcard matching with single-level `%`
/// backtracking: on a mismatch, resume one byte past the last `%`'s
/// anchor instead of recursing per `%`. Worst case O(|s| · |pattern|) —
/// the recursive matcher this replaces was exponential on multi-`%`
/// patterns like `%a%a%a%…b`.
pub fn like_match(s: &str, pattern: &str) -> bool {
    let s = s.as_bytes();
    let p = pattern.as_bytes();
    let (mut si, mut pi) = (0usize, 0usize);
    // Position of the most recent `%` and the input offset its run
    // currently spans to; extending the run by one byte is the only
    // backtrack ever needed.
    let mut star: Option<usize> = None;
    let mut anchor = 0usize;
    while si < s.len() {
        if pi < p.len() && (p[pi] == b'_' || p[pi] == s[si]) {
            si += 1;
            pi += 1;
        } else if pi < p.len() && p[pi] == b'%' {
            star = Some(pi);
            anchor = si;
            pi += 1;
        } else if let Some(sp) = star {
            pi = sp + 1;
            anchor += 1;
            si = anchor;
        } else {
            return false;
        }
    }
    // Trailing `%`s match the empty run.
    while pi < p.len() && p[pi] == b'%' {
        pi += 1;
    }
    pi == p.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn like_semantics() {
        assert!(like_match("starburst", "star%"));
        assert!(like_match("starburst", "%burst"));
        assert!(like_match("starburst", "%arb%"));
        assert!(like_match("abc", "a_c"));
        assert!(!like_match("abc", "a_d"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("abc", "%%c"));
        assert!(!like_match("ABC", "abc"), "case-sensitive");
    }

    /// Pathological multi-`%` patterns: the recursive matcher this
    /// replaced was exponential here, so these inputs hung the engine
    /// (while the reference's iterative matcher returned instantly).
    /// With the two-pointer matcher they complete in microseconds.
    #[test]
    fn like_pathological_backtracking_terminates() {
        let s = "a".repeat(64);
        let almost = format!("{}b", "a".repeat(63));
        let killer = format!("{}b", "%a".repeat(20)); // %a%a%…a b
        assert!(!like_match(&s, &killer));
        assert!(like_match(&almost, &killer));
        let stars = "%".repeat(100);
        assert!(like_match(&s, &stars));
        assert!(like_match(&s, &format!("{stars}a")));
        assert!(!like_match(&s, &format!("{stars}b")));
        // `_` interleaved with `%` still backtracks correctly.
        assert!(like_match("abcabc", "%_bc"));
        assert!(like_match("abcabc", "a%_c"));
        assert!(!like_match("abcabc", "%_d%"));
    }

    #[test]
    fn scope_resolution() {
        let mut scope = Scope::default();
        scope.push("s", vec!["id".into(), "z".into()]);
        scope.push("p", vec!["id".into(), "u".into()]);
        assert_eq!(scope.resolve(&ColumnRef::qualified("p", "u")).unwrap(), 3);
        assert_eq!(scope.resolve(&ColumnRef::bare("z")).unwrap(), 1);
        assert!(matches!(
            scope.resolve(&ColumnRef::bare("id")),
            Err(EngineError::AmbiguousColumn(_))
        ));
        assert!(matches!(
            scope.resolve(&ColumnRef::bare("nope")),
            Err(EngineError::UnknownColumn(_))
        ));
        assert!(matches!(
            scope.resolve(&ColumnRef::qualified("x", "id")),
            Err(EngineError::UnknownTable(_))
        ));
    }

    #[test]
    fn arithmetic_type_rules() {
        assert_eq!(
            arith(BinaryOp::Div, &Value::Int(7), &Value::Int(2)).unwrap(),
            Value::Int(3),
            "integer division truncates"
        );
        assert_eq!(
            arith(BinaryOp::Div, &Value::Int(7), &Value::Int(0)).unwrap(),
            Value::Null
        );
        assert_eq!(
            arith(BinaryOp::Sub, &Value::Float(18.0), &Value::Float(16.5)).unwrap(),
            Value::Float(1.5)
        );
        assert_eq!(
            arith(BinaryOp::Add, &Value::Null, &Value::Int(1)).unwrap(),
            Value::Null
        );
        assert!(arith(BinaryOp::Add, &Value::from("a"), &Value::Int(1)).is_err());
    }

    #[test]
    fn truth_conversion() {
        assert_eq!(truth(Value::Bool(true)).unwrap(), Some(true));
        assert_eq!(truth(Value::Null).unwrap(), None);
        assert!(truth(Value::Int(1)).is_err());
    }
}
