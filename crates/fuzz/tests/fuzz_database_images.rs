//! `Database::table_mut` drops the columnar image of the table it
//! returns, so rows changed through it never leave a stale image.
//! `Domain::build` profiles its database, which builds every table's
//! image, and `fuzz_database` then truncates each table's `rows` in
//! place; a stale image would send every query on that table down the
//! row path without a trace.

use sb_data::Domain;
use sb_engine::Database;
use sb_fuzz::fuzz_database;

/// Every table's image exists and covers exactly its rows.
fn assert_current_images(db: &Database, what: &str) {
    for t in db.tables() {
        let image = t
            .columnar()
            .unwrap_or_else(|| panic!("{what}: `{}` has a stale image", t.def.name));
        assert_eq!(image.len, t.rows.len(), "{what}: `{}`", t.def.name);
    }
}

#[test]
fn fuzz_tables_have_current_images() {
    for domain in Domain::ALL {
        let mut db = fuzz_database(domain);
        assert_current_images(&db, domain.name());
        let names: Vec<String> = db.schema.tables.iter().map(|t| t.name.clone()).collect();
        for name in &names {
            // The pattern of `subquery_differential.rs`, after every
            // image has been built by the check above.
            db.table_mut(name).expect("table").rows.clear();
            assert_current_images(&db, &format!("{} without {name}", domain.name()));
        }
    }
}
