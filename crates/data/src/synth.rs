//! Synthetic kernel-bench content: a fact/dimension pair sized by an
//! explicit scale knob.
//!
//! Unlike the domain builders (which reproduce the paper's schemas at a
//! [`crate::SizeClass`]-governed fraction of real deployments), this
//! generator exists purely to exercise the engine's operator kernels at
//! controlled row counts: a fact table `t` with a dictionary-friendly
//! 16-value group key, a numeric measure, a small-domain flag, and a
//! foreign key that hits a 1,024-row dimension `dim` exactly once per
//! row. Filters, hash joins, and grouped aggregations over it have
//! known selectivities, which is what a scaling curve needs.
//!
//! [`SynthScale`] is the `--scale` knob (`10k` / `100k` / `1m`): the
//! microbench harness accepts `cargo bench -p sb-bench -- --scale 100k`
//! to restrict its `columnar_operators` and `scaling_curve` groups to
//! one point of the curve. Generation is a pure function of the row
//! count — no RNG — so every scale is reproducible by construction.

use sb_engine::{Database, Value};
use sb_schema::{Column, ColumnType, Schema, TableDef};

/// The supported scales of the synthetic kernel workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SynthScale {
    /// 10,000 fact rows — cache-resident, kernel-overhead dominated.
    Rows10k,
    /// 100,000 fact rows — the mid point of the curve.
    Rows100k,
    /// 1,000,000 fact rows — memory-bandwidth dominated.
    Rows1m,
}

impl SynthScale {
    /// Every scale, ascending — the full curve.
    pub const ALL: [SynthScale; 3] = [
        SynthScale::Rows10k,
        SynthScale::Rows100k,
        SynthScale::Rows1m,
    ];

    /// Fact-table rows at this scale.
    pub fn rows(self) -> usize {
        match self {
            SynthScale::Rows10k => 10_000,
            SynthScale::Rows100k => 100_000,
            SynthScale::Rows1m => 1_000_000,
        }
    }

    /// The knob spelling, also used in benchmark names (`filter_100k`).
    pub fn label(self) -> &'static str {
        match self {
            SynthScale::Rows10k => "10k",
            SynthScale::Rows100k => "100k",
            SynthScale::Rows1m => "1m",
        }
    }

    /// Parse a `--scale` argument (case-insensitive label).
    pub fn parse(s: &str) -> Option<SynthScale> {
        SynthScale::ALL
            .into_iter()
            .find(|sc| sc.label().eq_ignore_ascii_case(s.trim()))
    }
}

/// Build the synthetic kernel database with `n` fact rows.
///
/// `t.grp` cycles through 16 dictionary values, `t.val` through 1,000
/// evenly spaced floats in `[0, 1)`, `t.flag` through 7 small ints, and
/// `t.fk` through the 1,024 dimension keys — so predicate selectivities
/// and join fan-outs are identical at every scale and the curve
/// measures data volume, nothing else.
pub fn synth_db(n: usize) -> Database {
    let schema = Schema::new("synth")
        .with_table(TableDef::new(
            "t",
            vec![
                Column::pk("id", ColumnType::Int),
                Column::new("grp", ColumnType::Text),
                Column::new("val", ColumnType::Float),
                Column::new("flag", ColumnType::Int),
                Column::new("fk", ColumnType::Int),
            ],
        ))
        .with_table(TableDef::new(
            "dim",
            vec![
                Column::pk("id", ColumnType::Int),
                Column::new("name", ColumnType::Text),
            ],
        ));
    let mut db = Database::new(schema);
    let groups: Vec<Value> = (0..16).map(|i| Value::from(format!("g{i:02}"))).collect();
    db.table_mut("t").unwrap().push_rows((0..n).map(|i| {
        vec![
            Value::Int(i as i64),
            groups[i % 16].clone(),
            Value::Float((i % 1000) as f64 * 0.001),
            Value::Int((i % 7) as i64),
            Value::Int((i % 1024) as i64),
        ]
    }));
    db.table_mut("dim")
        .unwrap()
        .push_rows((0..1024).map(|i| vec![Value::Int(i as i64), Value::from(format!("d{i:04}"))]));
    db
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_parse_and_size() {
        assert_eq!(SynthScale::parse("10k"), Some(SynthScale::Rows10k));
        assert_eq!(SynthScale::parse("100K"), Some(SynthScale::Rows100k));
        assert_eq!(SynthScale::parse(" 1m "), Some(SynthScale::Rows1m));
        assert_eq!(SynthScale::parse("1g"), None);
        assert!(SynthScale::ALL
            .windows(2)
            .all(|w| w[0].rows() < w[1].rows()));
    }

    #[test]
    fn synth_db_is_deterministic_with_known_selectivities() {
        let db = synth_db(10_000);
        assert_eq!(db.table("t").unwrap().len(), 10_000);
        assert_eq!(db.table("dim").unwrap().len(), 1024);
        // 16 groups regardless of scale.
        let q = sb_sql::parse("SELECT grp, COUNT(*) FROM t GROUP BY grp").unwrap();
        assert_eq!(db.run_query(&q).unwrap().rows.len(), 16);
        // Every fact row joins exactly one dimension row.
        let q = sb_sql::parse("SELECT COUNT(*) FROM t JOIN dim ON t.fk = dim.id").unwrap();
        assert_eq!(
            db.run_query(&q).unwrap().rows[0][0],
            sb_engine::Value::Int(10_000)
        );
        // Two builds agree byte for byte on a probe query.
        let probe = sb_sql::parse("SELECT id FROM t WHERE val > 0.5 AND flag = 3").unwrap();
        let a = format!("{:?}", db.run_query(&probe).unwrap());
        let b = format!("{:?}", synth_db(10_000).run_query(&probe).unwrap());
        assert_eq!(a, b);
    }
}
