//! Content pins: a fingerprint of every domain's Tiny and Small database.
//! Every downstream result (Tables 1-5, the pipeline's pairs, the
//! benchmark digests) is a function of this content, so any drift in
//! the generators or their samplers fails here first.

use sb_data::{Domain, SizeClass};
use sb_engine::{Database, Value};
use std::collections::HashSet;
use std::sync::Arc;

/// FNV-1a over every table name, column name and cell, in order.
fn fingerprint(db: &Database) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for table in db.tables() {
        eat(table.def.name.as_bytes());
        for col in &table.def.columns {
            eat(&[0xfe]);
            eat(col.name.as_bytes());
        }
        for r in 0..table.len() {
            for v in table.row(r) {
                match v {
                    Value::Null => eat(&[0]),
                    Value::Int(i) => {
                        eat(&[1]);
                        eat(&i.to_le_bytes());
                    }
                    Value::Float(f) => {
                        eat(&[2]);
                        eat(&f.to_bits().to_le_bytes());
                    }
                    Value::Text(s) => {
                        eat(&[3]);
                        eat(&(s.len() as u64).to_le_bytes());
                        eat(s.as_bytes());
                    }
                    Value::Bool(b) => eat(&[4, u8::from(b)]),
                }
            }
        }
        eat(&[0xff]);
    }
    h
}

#[test]
fn domain_content_is_pinned() {
    let pinned: [(Domain, SizeClass, usize, u64); 6] = [
        (Domain::Cordis, SizeClass::Tiny, 723, 0xecb7_6fbb_9fff_9ab5),
        (Domain::Cordis, SizeClass::Small, 723, 0xecb7_6fbb_9fff_9ab5),
        (Domain::Sdss, SizeClass::Tiny, 2250, 0xf8be_aaa3_cf36_6c45),
        (Domain::Sdss, SizeClass::Small, 21505, 0x4b43_9ca5_7f75_a495),
        (Domain::OncoMx, SizeClass::Tiny, 2165, 0xf2c7_e844_04bb_4f2d),
        (
            Domain::OncoMx,
            SizeClass::Small,
            16915,
            0x1723_62a1_5ac8_dd90,
        ),
    ];
    let mut drift = Vec::new();
    for (domain, size, rows, print) in pinned {
        let db = domain.build(size).db;
        let got = (db.total_rows(), fingerprint(&db));
        if got != (rows, print) {
            drift.push(format!(
                "(Domain::{domain:?}, SizeClass::{size:?}, {}, {:#018x}),",
                got.0, got.1
            ));
        }
    }
    assert!(
        drift.is_empty(),
        "generated content drifted; now:\n{}",
        drift.join("\n")
    );
}

/// Text cells are interned per table: every table holds exactly one
/// allocation per distinct string, however often it repeats.
#[test]
fn text_cells_share_one_allocation_per_distinct_string() {
    for domain in [Domain::Cordis, Domain::Sdss, Domain::OncoMx] {
        let db = domain.build(SizeClass::Small).db;
        let mut repeated = 0;
        for table in db.tables() {
            let mut handles = Vec::new();
            for r in 0..table.len() {
                for v in table.row(r) {
                    if let Value::Text(s) = v {
                        handles.push(s);
                    }
                }
            }
            let ptrs: HashSet<_> = handles.iter().map(Arc::as_ptr).collect();
            let strings: HashSet<&str> = handles.iter().map(|s| s.as_str()).collect();
            let cells = handles.len();
            assert_eq!(
                ptrs.len(),
                strings.len(),
                "{domain:?}.{}: {} allocations for {} distinct strings",
                table.def.name,
                ptrs.len(),
                strings.len()
            );
            repeated += cells - strings.len();
        }
        assert!(repeated > 0, "{domain:?}: no repeated text to share");
    }
}

/// A finished build trims every table's columnar image, its only copy
/// of the data: no column vector keeps capacity beyond its length, so
/// amortized growth during the build costs no resident memory after it.
#[test]
fn full_domain_images_keep_no_spare_capacity() {
    for domain in Domain::ALL {
        let db = domain.build(SizeClass::Full).db;
        for table in db.tables() {
            assert_eq!(
                table.columnar().spare_bytes(),
                0,
                "{domain:?}.{}",
                table.def.name
            );
        }
    }
}
