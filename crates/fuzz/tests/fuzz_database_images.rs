//! `fuzz_database` truncates every table of a Tiny domain in place.
//! Truncation rebuilds a table's columnar image from the rows it keeps,
//! so the fuzz tables hold exactly the first rows of the Tiny tables,
//! every text column's dictionary holds only strings that some kept row
//! holds (the codes stay one-to-one with the strings present), and the
//! rebuilt image keeps no spare capacity. Clearing a table, as
//! `subquery_differential.rs` does, leaves it empty on the same terms.

use sb_data::{Domain, SizeClass};
use sb_engine::{ColumnData, Database};
use sb_fuzz::{fuzz_database, FUZZ_ROWS_PER_TABLE};

/// Every table's image is compact: no spare capacity, and no dictionary
/// entry without a row.
fn assert_compact(db: &Database, what: &str) {
    for t in db.tables() {
        let name = &t.def.name;
        let image = t.columnar();
        assert_eq!(image.len, t.len(), "{what}: `{name}`");
        assert_eq!(image.spare_bytes(), 0, "{what}: `{name}` spare capacity");
        for (j, col) in image.columns.iter().enumerate() {
            let ColumnData::Text(d) = &col.data else {
                continue;
            };
            let mut used = vec![false; d.values.len()];
            for r in (0..image.len).filter(|&r| !col.nulls.is_null(r)) {
                used[d.codes[r] as usize] = true;
            }
            assert!(
                used.iter().all(|&u| u),
                "{what}: `{name}` column {j} keeps strings no row holds"
            );
        }
    }
}

#[test]
fn fuzz_tables_are_compact_prefixes_of_the_tiny_tables() {
    for domain in Domain::ALL {
        let tiny = domain.build(SizeClass::Tiny).db;
        let mut db = fuzz_database(domain);
        assert_compact(&db, domain.name());
        for t in db.tables() {
            let source = tiny.table(&t.def.name).expect("same schema");
            assert_eq!(t.len(), source.len().min(FUZZ_ROWS_PER_TABLE));
            for r in 0..t.len() {
                assert_eq!(
                    format!("{:?}", t.row(r)),
                    format!("{:?}", source.row(r)),
                    "{}: `{}` row {r}",
                    domain.name(),
                    t.def.name
                );
            }
        }
        let names: Vec<String> = db.schema.tables.iter().map(|t| t.name.clone()).collect();
        for name in &names {
            db.table_mut(name).expect("table").clear();
            assert!(db.table(name).expect("table").is_empty());
            assert_compact(&db, &format!("{} without {name}", domain.name()));
        }
    }
}
