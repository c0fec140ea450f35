//! # sb-engine — in-memory relational execution engine
//!
//! Executes the `sb-sql` dialect against in-memory tables. This is the
//! substrate standing in for the paper's Postgres deployment: it powers
//!
//! - the **execution-accuracy** metric of Table 5 (run gold and predicted
//!   SQL, compare result sets),
//! - the **executability filter** of the synthetic-SQL generator (Phase 2),
//! - **data profiling** for automatic enhanced-schema inference.
//!
//! Supported: projections (incl. expressions and aliases), `DISTINCT`,
//! inner/left joins with `ON`, `WHERE` with the full predicate language,
//! grouped aggregation with `HAVING`, `ORDER BY`/`LIMIT`, set operators,
//! and non-correlated subqueries (`IN`, scalar comparison, `EXISTS`,
//! derived tables). Correlated subqueries are rejected with a clear error —
//! the benchmark pipeline never generates them.
//!
//! Semantics follow Postgres where the dialect overlaps: three-valued NULL
//! logic collapsed to "NULL is not TRUE" in filters, aggregates skip NULLs,
//! `COUNT(*)` counts rows, integer division truncates.

pub(crate) mod batch;
pub mod column;
pub(crate) mod compile;
pub mod database;
pub mod error;
pub mod eval;
pub mod exec;
pub mod explain;
pub(crate) mod inset;
pub mod key;
pub mod profile;
pub mod reference;
pub mod result;
pub mod value;

pub use column::{Column, ColumnData, ColumnarTable, DictColumn, NullMask};
pub use database::{Database, Table, TableMut};
pub use error::{EngineError, Result};
pub use exec::{
    execute, execute_with, execute_with_plan_profile, execute_with_profile, plan_top_select,
    ExecOptions,
};
pub use explain::{explain, explain_analyze, explain_with_profile};
pub use profile::{profile_database, sql_literal};
pub use reference::execute_reference;
pub use result::ResultSet;
pub use value::Value;

#[cfg(test)]
mod tests {
    use super::*;
    use sb_schema::{Column, ColumnType, Schema, TableDef};

    /// End-to-end smoke test over the paper's Q1/Q2/Q3 running examples.
    #[test]
    fn runs_paper_examples() {
        let schema = Schema::new("sdss")
            .with_table(TableDef::new(
                "specobj",
                vec![
                    Column::pk("specobjid", ColumnType::Int),
                    Column::new("bestobjid", ColumnType::Int),
                    Column::new("class", ColumnType::Text),
                    Column::new("subclass", ColumnType::Text),
                    Column::new("ra", ColumnType::Float),
                    Column::new("dec", ColumnType::Float),
                    Column::new("z", ColumnType::Float),
                ],
            ))
            .with_table(TableDef::new(
                "photoobj",
                vec![
                    Column::pk("objid", ColumnType::Int),
                    Column::new("u", ColumnType::Float),
                    Column::new("r", ColumnType::Float),
                ],
            ));
        let mut db = Database::new(schema);
        db.table_mut("specobj").unwrap().push_rows(vec![
            vec![
                Value::Int(1),
                Value::Int(10),
                Value::from("GALAXY"),
                Value::from("STARBURST"),
                Value::Float(10.0),
                Value::Float(-3.0),
                Value::Float(0.7),
            ],
            vec![
                Value::Int(2),
                Value::Int(20),
                Value::from("GALAXY"),
                Value::from("AGN"),
                Value::Float(11.0),
                Value::Float(4.0),
                Value::Float(1.5),
            ],
            vec![
                Value::Int(3),
                Value::Int(30),
                Value::from("STAR"),
                Value::from(""),
                Value::Float(12.0),
                Value::Float(5.0),
                Value::Float(0.0),
            ],
        ]);
        db.table_mut("photoobj").unwrap().push_rows(vec![
            vec![Value::Int(10), Value::Float(18.0), Value::Float(16.5)],
            vec![Value::Int(20), Value::Float(19.0), Value::Float(15.0)],
        ]);

        // Q1
        let r = db
            .run("SELECT s.specobjid FROM specobj AS s WHERE s.subclass = 'STARBURST'")
            .unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(1)]]);

        // Q2
        let r = db
            .run(
                "SELECT s.bestobjid, s.ra, s.dec, s.z FROM specobj AS s \
                 WHERE s.class = 'GALAXY' AND s.z > 0.5 AND s.z < 1",
            )
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0], Value::Int(10));

        // Q3 (math operators between attributes)
        let r = db
            .run(
                "SELECT p.objid, s.specobjid FROM photoobj AS p \
                 JOIN specobj AS s ON s.bestobjid = p.objid \
                 WHERE s.class = 'GALAXY' AND p.u - p.r < 2.22 AND p.u - p.r > 1",
            )
            .unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(10), Value::Int(1)]]);
    }
}
