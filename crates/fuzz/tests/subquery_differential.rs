//! Subquery differential campaign: uncorrelated subqueries — `IN` /
//! `NOT IN`, scalar comparisons, `EXISTS` — in every clause they can
//! appear in, checked against the reference interpreter.
//!
//! The engine executes each uncorrelated subquery once per statement
//! and uses its result as a constant: a hashed membership set for
//! `IN`, a literal for a scalar subquery, a constant for `EXISTS`. The
//! columnar engine folds those constants into its kernels and bails to
//! the row path whenever a subquery fails, so the row path still raises
//! the error lazily — only if a row reaches it. This campaign targets
//! exactly those seams:
//!
//! - `IN` / `NOT IN` with cross-column and cross-type probes, filtered
//!   inner SELECTs, and inner columns holding NULLs;
//! - scalar subqueries returning zero, one or many rows;
//! - multi-column `IN` (a cardinality error);
//! - subqueries in projections and in `HAVING`;
//! - erroring subqueries over an empty outer table, which must succeed.
//!
//! Every statement, and the nested-loop twin of every statement with an
//! FK join ([`sb_fuzz::nested_loop_twin`]), runs under the full
//! [`sb_fuzz::exec_matrix`] plus a parallel configuration whose worker
//! count and morsel size resolve from `RAYON_NUM_THREADS` and
//! `SB_MORSEL_ROWS`, and must agree with [`execute_reference`]: the
//! same result under execution match, or an error where the reference
//! errs — with, on the columnar configurations, exactly the message of
//! the row configuration. The statement generator is local to this
//! file, so the shared [`sb_fuzz::QueryGenerator`] streams (which the
//! serving benchmarks replay) are untouched.
//!
//! `SB_FUZZ_COUNT` sets the statements per domain (default 400).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sb_data::Domain;
use sb_engine::{
    execute_reference, execute_with, explain_analyze, sql_literal, Database, ExecOptions, Value,
};
use sb_fuzz::{exec_matrix, fuzz_database, nested_loop_twin};
use sb_schema::{ColumnType, TableDef};
use sb_sql::Query;

const DEFAULT_COUNT: usize = 400;

fn fuzz_count() -> usize {
    std::env::var("SB_FUZZ_COUNT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_COUNT)
}

/// The oracle matrix plus one parallel configuration left to the
/// environment (`workers: 0`, `morsel_rows: 0`).
fn configs() -> Vec<(String, ExecOptions)> {
    let mut out = exec_matrix();
    out.push((
        "env-parallel".to_string(),
        ExecOptions {
            parallel: true,
            workers: 0,
            morsel_rows: 0,
            ..ExecOptions::default()
        },
    ));
    out
}

/// Seeded generator of subquery statements over one database.
struct SubqueryGen<'a> {
    db: &'a Database,
    rng: StdRng,
}

impl<'a> SubqueryGen<'a> {
    fn table(&mut self) -> &'a TableDef {
        let db = self.db;
        db.schema.tables.choose(&mut self.rng).expect("tables")
    }

    /// A random column of `t`, as `(name, type)`.
    fn column(&mut self, t: &'a TableDef) -> (&'a str, ColumnType) {
        let c = t.columns.choose(&mut self.rng).expect("columns");
        (&c.name, c.ty)
    }

    fn column_of(&mut self, t: &'a TableDef, numeric: bool) -> Option<&'a str> {
        let cols: Vec<_> = t
            .columns
            .iter()
            .filter(|c| matches!(c.ty, ColumnType::Int | ColumnType::Float) == numeric)
            .collect();
        cols.choose(&mut self.rng).map(|c| c.name.as_str())
    }

    /// A literal drawn from the column's stored values (NULL included),
    /// or occasionally from another class entirely.
    fn literal(&mut self, t: &TableDef, col: &str, ty: ColumnType) -> String {
        let idx = t
            .columns
            .iter()
            .position(|c| c.name == col)
            .expect("column");
        let table = self.db.table(&t.name).expect("table");
        if self.rng.gen_bool(0.1) {
            return ["NULL", "0", "1.5", "'x'", "TRUE"]
                .choose(&mut self.rng)
                .expect("pool")
                .to_string();
        }
        let cells: Vec<Value> = (0..table.len()).map(|r| table.cell(r, idx)).collect();
        match cells.choose(&mut self.rng) {
            Some(Value::Float(f)) if !f.is_finite() => "0.5".to_string(),
            Some(v) => sql_literal(v),
            None => match ty {
                ColumnType::Text => "'none'".to_string(),
                ColumnType::Bool => "TRUE".to_string(),
                _ => "3".to_string(),
            },
        }
    }

    /// A one-column filter over `alias.col` of `t`.
    fn filter(&mut self, alias: &str, t: &'a TableDef) -> String {
        let (col, ty) = self.column(t);
        let lit = self.literal(t, col, ty);
        let op = ["=", "<>", "<", ">=", "<="]
            .choose(&mut self.rng)
            .expect("ops");
        match self.rng.gen_range(0..5) {
            0 => format!("{alias}.{col} IS NULL"),
            1 => format!("{alias}.{col} IS NOT NULL"),
            // Keep NULLs in the inner column alongside matches.
            2 => format!("({alias}.{col} {op} {lit} OR {alias}.{col} IS NULL)"),
            _ => format!("{alias}.{col} {op} {lit}"),
        }
    }

    /// A filter over `T1` that neither errors nor evaluates to NULL: a
    /// comparison with a non-NULL value of the column itself, guarded by
    /// `IS NOT NULL`, or a NULL test. Outer filters sit beside the
    /// subquery predicate, where the row executor departs from the
    /// reference in two ways unrelated to subqueries: it drops a row at
    /// the first conjunct that is not TRUE, though SQL's `NULL AND x`
    /// still evaluates `x`; and a pushed-down conjunct runs on scan rows
    /// that a join would have removed. When the subquery fails, either
    /// turns the reference's error into a success or the reverse.
    fn outer_filter(&mut self, t: &'a TableDef) -> String {
        let db = self.db;
        let (col, _) = self.column(t);
        let idx = t
            .columns
            .iter()
            .position(|c| c.name == col)
            .expect("column");
        let table = db.table(&t.name).expect("table");
        let values: Vec<Value> = (0..table.len())
            .map(|r| table.cell(r, idx))
            .filter(|v| !v.is_null() && !matches!(v, Value::Float(f) if !f.is_finite()))
            .collect();
        match values.choose(&mut self.rng) {
            Some(v) if self.rng.gen_bool(0.7) => {
                let op = ["=", "<>", "<", ">="].choose(&mut self.rng).expect("ops");
                let lit = sql_literal(v);
                format!("T1.{col} {op} {lit} AND T1.{col} IS NOT NULL")
            }
            _ if self.rng.gen_bool(0.5) => format!("T1.{col} IS NULL"),
            _ => format!("T1.{col} IS NOT NULL"),
        }
    }

    /// `SELECT <col> FROM <t> [WHERE <filter>]`, optionally nested one
    /// level deeper through another `IN`.
    fn inner(&mut self, depth: usize) -> String {
        let t = self.table();
        let (col, _) = self.column(t);
        let mut sql = format!("SELECT S{depth}.{col} FROM {} AS S{depth}", t.name);
        match self.rng.gen_range(0..6) {
            0 => {}
            1 if depth == 0 => {
                let (probe, _) = self.column(t);
                let nested = self.inner(depth + 1);
                sql.push_str(&format!(" WHERE S{depth}.{probe} IN ({nested})"));
            }
            _ => {
                let f = self.filter(&format!("S{depth}"), t);
                sql.push_str(&format!(" WHERE {f}"));
            }
        }
        sql
    }

    /// A scalar subquery returning zero, one or many rows.
    fn scalar(&mut self) -> String {
        let t = self.table();
        let (col, _) = self.column(t);
        let name = &t.name;
        match self.rng.gen_range(0..7) {
            0 => format!("(SELECT MAX(S.{col}) FROM {name} AS S)"),
            1 => format!("(SELECT MIN(S.{col}) FROM {name} AS S)"),
            2 => {
                let f = self.filter("S", t);
                format!("(SELECT COUNT(*) FROM {name} AS S WHERE {f})")
            }
            3 => match self.column_of(t, true) {
                Some(num) => format!("(SELECT AVG(S.{num}) FROM {name} AS S)"),
                None => format!("(SELECT COUNT(S.{col}) FROM {name} AS S)"),
            },
            // Zero rows: a contradiction.
            4 => format!(
                "(SELECT S.{col} FROM {name} AS S WHERE S.{col} IS NULL AND S.{col} IS NOT NULL)"
            ),
            // At most one row, possibly NULL.
            5 => format!("(SELECT S.{col} FROM {name} AS S ORDER BY S.{col} LIMIT 1)"),
            // Usually many rows: a cardinality error once a row reaches it.
            _ => {
                let f = self.filter("S", t);
                format!("(SELECT S.{col} FROM {name} AS S WHERE {f})")
            }
        }
    }

    /// A probe expression over `T1` of `t`: any column (so cross-type
    /// against the inner column), arithmetic, or a literal.
    fn probe(&mut self, t: &'a TableDef) -> String {
        let (col, ty) = self.column(t);
        match self.rng.gen_range(0..8) {
            0 => match self.column_of(t, true) {
                Some(num) => format!("T1.{num} + 1"),
                None => format!("T1.{col}"),
            },
            1 => self.literal(t, col, ty),
            2 => "NULL".to_string(),
            _ => format!("T1.{col}"),
        }
    }

    /// A subquery predicate over `T1` of `t`.
    fn predicate(&mut self, t: &'a TableDef) -> String {
        let not = if self.rng.gen_bool(0.35) { "NOT " } else { "" };
        match self.rng.gen_range(0..10) {
            0..=4 => {
                let probe = self.probe(t);
                let inner = self.inner(0);
                format!("{probe} {not}IN ({inner})")
            }
            5 | 6 => {
                let (col, _) = self.column(t);
                let op = ["=", "<>", "<", ">="].choose(&mut self.rng).expect("ops");
                let scalar = self.scalar();
                format!("T1.{col} {op} {scalar}")
            }
            7 => {
                let inner_t = self.table();
                let f = self.filter("S", inner_t);
                format!(
                    "{not}EXISTS (SELECT * FROM {} AS S WHERE {f})",
                    inner_t.name
                )
            }
            8 => {
                // Multi-column IN: a cardinality error when reached.
                let probe = self.probe(t);
                let inner_t = self.table();
                let (a, _) = self.column(inner_t);
                let (b, _) = self.column(inner_t);
                format!(
                    "{probe} {not}IN (SELECT S.{a}, S.{b} FROM {} AS S)",
                    inner_t.name
                )
            }
            _ => {
                // Scalar subquery as the IN probe itself.
                let scalar = self.scalar();
                let inner = self.inner(0);
                format!("{scalar} {not}IN ({inner})")
            }
        }
    }

    /// The outer FROM clause: one table, or an FK join with `T1` on
    /// the referencing side.
    fn from(&mut self) -> (&'a TableDef, String) {
        let db = self.db;
        if self.rng.gen_bool(0.25) {
            if let Some(fk) = db.schema.foreign_keys.choose(&mut self.rng) {
                let from = db.schema.table(&fk.from_table).expect("fk table");
                return (
                    from,
                    format!(
                        "{} AS T1 JOIN {} AS T2 ON T1.{} = T2.{}",
                        fk.from_table, fk.to_table, fk.from_column, fk.to_column
                    ),
                );
            }
        }
        let t = self.table();
        (t, format!("{} AS T1", t.name))
    }

    fn statement(&mut self) -> String {
        let (t, from) = self.from();
        let (col, _) = self.column(t);
        match self.rng.gen_range(0..10) {
            // WHERE: the subquery predicate alone, behind a pushed-down
            // conjunct, or under OR.
            0..=2 => {
                let p = self.predicate(t);
                format!("SELECT T1.{col} FROM {from} WHERE {p}")
            }
            3 => {
                let f = self.outer_filter(t);
                let p = self.predicate(t);
                format!("SELECT T1.{col} FROM {from} WHERE {f} AND {p}")
            }
            4 => {
                let f = self.outer_filter(t);
                let p = self.predicate(t);
                format!("SELECT T1.{col} FROM {from} WHERE {p} OR {f} ORDER BY T1.{col} LIMIT 5")
            }
            // Projections.
            5 => {
                let scalar = self.scalar();
                format!("SELECT T1.{col}, {scalar} FROM {from}")
            }
            6 => {
                let p = self.predicate(t);
                format!("SELECT T1.{col}, {p} FROM {from}")
            }
            // HAVING, with a scalar bound, a group-key probe, or an
            // aggregate probe.
            7 => {
                let scalar = self.scalar();
                format!(
                    "SELECT T1.{col}, COUNT(*) FROM {from} GROUP BY T1.{col} \
                     HAVING COUNT(*) >= {scalar}"
                )
            }
            8 => {
                let inner = self.inner(0);
                let not = if self.rng.gen_bool(0.35) { "NOT " } else { "" };
                format!(
                    "SELECT T1.{col}, COUNT(*) FROM {from} GROUP BY T1.{col} \
                     HAVING T1.{col} {not}IN ({inner})"
                )
            }
            _ => {
                let inner = self.inner(0);
                format!(
                    "SELECT T1.{col} FROM {from} GROUP BY T1.{col} \
                     HAVING MAX(T1.{col}) IN ({inner})"
                )
            }
        }
    }
}

/// `Ok(rows)` or `Err(message)`.
fn outcome(r: sb_engine::Result<sb_engine::ResultSet>) -> Result<sb_engine::ResultSet, String> {
    r.map_err(|e| e.to_string())
}

fn show(o: &Result<sb_engine::ResultSet, String>) -> String {
    match o {
        Ok(rs) => format!("{} rows", rs.rows.len()),
        Err(e) => format!("error: {e}"),
    }
}

/// Run `sql`, and its nested-loop twin when it has a join, under every
/// configuration; the first disagreement comes back as a report line.
fn check(db: &Database, sql: &str) -> Option<String> {
    let query =
        sb_sql::parse(sql).unwrap_or_else(|e| panic!("generated SQL fails to parse: {e}\n  {sql}"));
    let twin = nested_loop_twin(&query);
    std::iter::once(&query)
        .chain(twin.as_ref())
        .find_map(|q| check_configs(db, q))
}

/// Run `query` under every configuration. A success must match the
/// reference's result. An error must meet an error in the reference,
/// and in a columnar configuration it must be the row configuration's
/// error, message for message: the batch path never raises errors, it
/// bails and the row path reports them. Against the reference only the
/// fact of an error is compared, because pushdown and join order
/// legitimately change which of several latent errors surfaces first.
fn check_configs(db: &Database, query: &Query) -> Option<String> {
    let want = outcome(execute_reference(db, query));
    let configs = configs();
    let runs: Vec<_> = configs
        .iter()
        .map(|(_, opts)| outcome(execute_with(db, query, *opts)))
        .collect();
    let row = configs
        .iter()
        .position(|(_, o)| !o.columnar)
        .map(|i| &runs[i])
        .expect("the matrix has a row configuration");
    for ((name, _), got) in configs.iter().zip(&runs) {
        let agree = match (&want, got) {
            (Ok(a), Ok(b)) => a.same_result(b),
            (Err(_), Err(e)) => row.as_ref().err() == Some(e),
            _ => false,
        };
        if !agree {
            return Some(format!(
                "[{name}] reference: {} | executor: {} | row: {}\n  {query}",
                show(&want),
                show(got),
                show(row)
            ));
        }
    }
    None
}

fn campaign(domain: Domain, seed: u64) {
    let db = fuzz_database(domain);
    let mut gen = SubqueryGen {
        db: &db,
        rng: StdRng::seed_from_u64(seed),
    };
    let mut failures = Vec::new();
    let (mut ok, mut err, mut columnar) = (0usize, 0usize, 0usize);
    for _ in 0..fuzz_count() {
        let sql = gen.statement();
        if let Some(f) = check(&db, &sql) {
            failures.push(f);
            continue;
        }
        let query = sb_sql::parse(&sql).expect("parsed");
        match explain_analyze(&db, &query, ExecOptions::default(), false) {
            Ok(plan) => {
                ok += 1;
                columnar += plan.contains("actual=columnar") as usize;
            }
            Err(_) => err += 1,
        }
    }
    for f in &failures {
        eprintln!("[{}] {f}", domain.name());
    }
    assert!(
        failures.is_empty(),
        "{} subquery statement(s) disagree with the reference on {}",
        failures.len(),
        domain.name()
    );
    // Successes, errors and columnar executions must all be well
    // represented, or the campaign tests only one side of the
    // bail-on-error rule.
    let n = ok + err;
    assert!(
        ok * 5 >= n && err * 20 >= n && columnar * 5 >= ok,
        "{}: skewed campaign, {ok} successes ({columnar} columnar) and {err} errors",
        domain.name()
    );
}

#[test]
fn subquery_differential_cordis() {
    campaign(Domain::Cordis, 0x5B0C);
}

#[test]
fn subquery_differential_sdss() {
    campaign(Domain::Sdss, 0x5B05);
}

#[test]
fn subquery_differential_oncomx() {
    campaign(Domain::OncoMx, 0x5B0A);
}

/// Erroring subqueries over an empty outer table: no row ever reaches
/// the subquery, so the reference succeeds with zero rows, and so must
/// every configuration — including the columnar engine, which runs the
/// subquery eagerly, sees it fail, and must bail rather than report.
#[test]
fn erroring_subqueries_over_an_empty_outer_table_succeed() {
    for domain in Domain::ALL {
        let base = fuzz_database(domain);
        let names: Vec<String> = base.schema.tables.iter().map(|t| t.name.clone()).collect();
        for empty in &names {
            let mut db = fuzz_database(domain);
            db.table_mut(empty).expect("table").clear();
            let t = db.schema.table(empty).expect("table");
            let col = &t.columns[0].name;
            let other = names.iter().find(|n| *n != empty).unwrap_or(empty);
            let o = db.schema.table(other).expect("table");
            let (a, b) = (&o.columns[0].name, &o.columns[o.columns.len() - 1].name);
            let outer = format!("FROM {empty} AS T1");
            let two_cols = format!("(SELECT S.{a}, S.{b} FROM {other} AS S)");
            let many_rows = format!("(SELECT S.{a} FROM {other} AS S)");
            let unknown = format!("(SELECT S.nope FROM {other} AS S)");
            for sql in [
                format!("SELECT T1.{col} {outer} WHERE T1.{col} IN {two_cols}"),
                format!("SELECT T1.{col} {outer} WHERE T1.{col} = {many_rows}"),
                format!("SELECT T1.{col} {outer} WHERE T1.{col} IN {unknown}"),
                format!("SELECT T1.{col}, {many_rows} {outer}"),
                format!(
                    "SELECT T1.{col}, COUNT(*) {outer} GROUP BY T1.{col} \
                     HAVING COUNT(*) > {two_cols}"
                ),
            ] {
                let query = sb_sql::parse(&sql).expect("parses");
                let want = execute_reference(&db, &query)
                    .unwrap_or_else(|e| panic!("reference errored ({e}) on {sql}"));
                assert!(want.rows.is_empty(), "{sql}");
                if let Some(f) = check(&db, &sql) {
                    panic!("{}: {f}", domain.name());
                }
            }
        }
    }
}
