//! SDSS — the Sloan Digital Sky Survey subset (6 tables, 61 columns).
//!
//! Reproduces the paper's subset: 5 original tables plus one table for
//! photometrically observed objects. Column names follow the real
//! SkyServer schema, including the famously cryptic abbreviations the
//! enhanced schema has to spell out (`ra` = right ascension, `z` =
//! redshift, `u g r i z` = the photometric filter magnitudes).

use crate::util::*;
use crate::{DomainData, SizeClass};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sb_engine::{Database, Value};
use sb_schema::{Column, ColumnType, EnhancedSchema, ForeignKey, Schema, TableDef};

/// Real deployment size (Table 1): 86 M rows, 6.1 GB.
pub const REAL_ROWS: f64 = 86_000_000.0;
/// Real deployment byte size.
pub const REAL_BYTES: f64 = 6.1e9;

const SPEC_CLASSES: [(&str, f64); 3] = [("GALAXY", 10.0), ("STAR", 6.0), ("QSO", 2.0)];
const SUBCLASSES: [&str; 6] = ["STARBURST", "AGN", "STARFORMING", "BROADLINE", "", "O"];
const SURVEYS: [&str; 4] = ["sdss", "boss", "eboss", "segue1"];

/// The SDSS schema: 6 tables, 61 columns (asserted by crate tests).
pub fn schema() -> Schema {
    use ColumnType::*;
    Schema::new("sdss")
        .with_table(TableDef::new(
            "photoobj",
            vec![
                Column::pk("objid", Int),
                Column::new("ra", Float),
                Column::new("dec", Float),
                Column::new("run", Int),
                Column::new("rerun", Int),
                Column::new("camcol", Int),
                Column::new("field", Int),
                Column::new("type", Int),
                Column::new("mode", Int),
                Column::new("clean", Int),
                Column::new("u", Float),
                Column::new("g", Float),
                Column::new("r", Float),
                Column::new("i", Float),
                Column::new("z", Float),
                Column::new("err_u", Float),
                Column::new("err_r", Float),
                Column::new("petror50_r", Float),
                Column::new("mjd", Int),
            ],
        ))
        .with_table(TableDef::new(
            "specobj",
            vec![
                Column::pk("specobjid", Int),
                Column::new("bestobjid", Int),
                Column::new("ra", Float),
                Column::new("dec", Float),
                Column::new("z", Float),
                Column::new("zerr", Float),
                Column::new("class", Text),
                Column::new("subclass", Text),
                Column::new("survey", Text),
                Column::new("programname", Text),
                Column::new("plate", Int),
                Column::new("mjd", Int),
                Column::new("fiberid", Int),
                Column::new("sn_median", Float),
                Column::new("veldisp", Float),
                Column::new("zwarning", Int),
            ],
        ))
        .with_table(TableDef::new(
            "photo_type",
            vec![Column::pk("value", Int), Column::new("name", Text)],
        ))
        .with_table(TableDef::new(
            "neighbors",
            vec![
                Column::new("objid", Int),
                Column::new("neighborobjid", Int),
                Column::new("distance", Float),
                Column::new("neighbormode", Int),
                Column::new("neighbortype", Int),
                Column::new("mode", Int),
            ],
        ))
        .with_table(TableDef::new(
            "sppparams",
            vec![
                Column::pk("specobjid", Int),
                Column::new("fehadop", Float),
                Column::new("fehadopunc", Float),
                Column::new("loggadop", Float),
                Column::new("loggadopunc", Float),
                Column::new("teffadop", Float),
                Column::new("teffadopunc", Float),
                Column::new("snr", Float),
                Column::new("flag", Text),
            ],
        ))
        .with_table(TableDef::new(
            "galspecline",
            vec![
                Column::pk("specobjid", Int),
                Column::new("h_alpha_flux", Float),
                Column::new("h_alpha_flux_err", Float),
                Column::new("h_beta_flux", Float),
                Column::new("h_beta_flux_err", Float),
                Column::new("oiii_5007_flux", Float),
                Column::new("nii_6584_flux", Float),
                Column::new("sigma_balmer", Float),
                Column::new("sigma_forbidden", Float),
            ],
        ))
        .with_fk(ForeignKey::new("specobj", "bestobjid", "photoobj", "objid"))
        .with_fk(ForeignKey::new("photoobj", "type", "photo_type", "value"))
        .with_fk(ForeignKey::new("neighbors", "objid", "photoobj", "objid"))
        .with_fk(ForeignKey::new(
            "neighbors",
            "neighborobjid",
            "photoobj",
            "objid",
        ))
        .with_fk(ForeignKey::new(
            "sppparams",
            "specobjid",
            "specobj",
            "specobjid",
        ))
        .with_fk(ForeignKey::new(
            "galspecline",
            "specobjid",
            "specobj",
            "specobjid",
        ))
}

/// Build the populated domain at a size class.
pub fn build(size: SizeClass) -> DomainData {
    let mut rng = StdRng::seed_from_u64(0x5D55);
    let schema = schema();
    let mut db = Database::new(schema);
    let d = size.divisor();

    let n_photo = scaled(58_000_000.0, d, 400);
    let n_spec = scaled(4_800_000.0, d, 150);
    let n_neighbors = scaled(21_000_000.0, d, 300);
    let n_spp = scaled(1_200_000.0, d, 60);
    let n_gal = scaled(1_000_000.0, d, 60);

    {
        let mut t = db.table_mut("photo_type").unwrap();
        for (v, name) in [
            (0, "UNKNOWN"),
            (1, "COSMIC_RAY"),
            (3, "GALAXY"),
            (6, "STAR"),
            (8, "SKY"),
        ] {
            t.push_rows(vec![vec![Value::Int(v), name.into()]]);
        }
    }
    let type_values = [3i64, 6, 0, 1, 8];
    {
        let mut t = db.table_mut("photoobj").unwrap();
        for i in 0..n_photo {
            let r_mag = float_in(&mut rng, 12.0, 24.0, 3);
            let u_mag = r_mag + float_in(&mut rng, -0.5, 4.0, 3);
            let g_mag = r_mag + float_in(&mut rng, -0.3, 1.5, 3);
            let i_mag = r_mag - float_in(&mut rng, -0.3, 0.8, 3);
            let z_mag = r_mag - float_in(&mut rng, -0.4, 1.0, 3);
            t.push_rows(vec![vec![
                Value::Int(i as i64 + 1),
                Value::Float(float_in(&mut rng, 0.0, 360.0, 5)),
                Value::Float(float_in(&mut rng, -90.0, 90.0, 5)),
                Value::Int(rng.gen_range(94..9000)),
                Value::Int(301),
                Value::Int(rng.gen_range(1..=6)),
                Value::Int(rng.gen_range(11..1000)),
                Value::Int(type_values[zipf(&mut rng, type_values.len(), 0.7)]),
                Value::Int(rng.gen_range(1..=2)),
                Value::Int(i64::from(rng.gen_bool(0.9))),
                Value::Float(u_mag),
                Value::Float(g_mag),
                Value::Float(r_mag),
                Value::Float(i_mag),
                Value::Float(z_mag),
                Value::Float(float_in(&mut rng, 0.001, 0.8, 4)),
                Value::Float(float_in(&mut rng, 0.001, 0.5, 4)),
                Value::Float(float_in(&mut rng, 0.5, 30.0, 3)),
                Value::Int(rng.gen_range(51_000..60_000)),
            ]]);
        }
    }
    {
        let mut t = db.table_mut("specobj").unwrap();
        for i in 0..n_spec {
            let class = *weighted(&mut rng, &SPEC_CLASSES.map(|(c, w)| (c, w)));
            let z = match class {
                "GALAXY" => float_in(&mut rng, 0.01, 1.2, 4),
                "QSO" => float_in(&mut rng, 0.3, 5.0, 4),
                _ => float_in(&mut rng, -0.001, 0.01, 4),
            };
            let subclass = match class {
                "GALAXY" => SUBCLASSES[zipf(&mut rng, 4, 0.6)],
                "QSO" => ["BROADLINE", ""][rng.gen_range(0..2)],
                _ => ["O", ""][rng.gen_range(0..2)],
            };
            t.push_rows(vec![vec![
                Value::Int(i as i64 + 1),
                Value::Int(rng.gen_range(0..n_photo as i64) + 1),
                Value::Float(float_in(&mut rng, 0.0, 360.0, 5)),
                Value::Float(float_in(&mut rng, -90.0, 90.0, 5)),
                Value::Float(z),
                Value::Float(float_in(&mut rng, 1e-5, 1e-3, 6)),
                class.into(),
                subclass.into(),
                SURVEYS[zipf(&mut rng, SURVEYS.len(), 0.8)].into(),
                ["legacy", "southern", "segue"][rng.gen_range(0..3)].into(),
                Value::Int(rng.gen_range(266..12_000)),
                Value::Int(rng.gen_range(51_000..60_000)),
                Value::Int(rng.gen_range(1..=1000)),
                Value::Float(float_in(&mut rng, 0.5, 60.0, 3)),
                Value::Float(float_in(&mut rng, 30.0, 400.0, 2)),
                Value::Int(if rng.gen_bool(0.93) { 0 } else { 4 }),
            ]]);
        }
    }
    {
        let mut t = db.table_mut("neighbors").unwrap();
        for _ in 0..n_neighbors {
            let a = rng.gen_range(0..n_photo as i64) + 1;
            let b = rng.gen_range(0..n_photo as i64) + 1;
            t.push_rows(vec![vec![
                Value::Int(a),
                Value::Int(b),
                Value::Float(float_in(&mut rng, 0.001, 0.5, 5)),
                Value::Int(rng.gen_range(1..=4)),
                Value::Int(type_values[zipf(&mut rng, type_values.len(), 0.7)]),
                Value::Int(rng.gen_range(1..=2)),
            ]]);
        }
    }
    {
        let mut t = db.table_mut("sppparams").unwrap();
        for i in 0..n_spp {
            t.push_rows(vec![vec![
                Value::Int((i % n_spec) as i64 + 1),
                Value::Float(float_in(&mut rng, -3.0, 0.5, 3)),
                Value::Float(float_in(&mut rng, 0.01, 0.3, 3)),
                Value::Float(float_in(&mut rng, 0.5, 5.0, 3)),
                Value::Float(float_in(&mut rng, 0.05, 0.5, 3)),
                Value::Float(float_in(&mut rng, 3500.0, 9500.0, 1)),
                Value::Float(float_in(&mut rng, 20.0, 300.0, 1)),
                Value::Float(float_in(&mut rng, 5.0, 90.0, 2)),
                ["nnnnn", "Nnnnn", "dnnnn"][rng.gen_range(0..3)].into(),
            ]]);
        }
    }
    {
        let mut t = db.table_mut("galspecline").unwrap();
        for i in 0..n_gal {
            let flux = float_in(&mut rng, 0.1, 900.0, 3);
            t.push_rows(vec![vec![
                Value::Int((i % n_spec) as i64 + 1),
                Value::Float(flux),
                Value::Float(flux * 0.05),
                Value::Float(flux * float_in(&mut rng, 0.2, 0.4, 3)),
                Value::Float(flux * 0.02),
                Value::Float(float_in(&mut rng, 0.1, 400.0, 3)),
                Value::Float(float_in(&mut rng, 0.1, 300.0, 3)),
                Value::Float(float_in(&mut rng, 30.0, 300.0, 2)),
                Value::Float(float_in(&mut rng, 30.0, 300.0, 2)),
            ]]);
        }
    }

    let enhanced = enhance(&db);
    DomainData {
        db,
        enhanced,
        real_rows: REAL_ROWS,
        real_bytes: REAL_BYTES,
        seed_patterns: seed_patterns(),
    }
}

/// The one-shot expert refinement: spell out the SkyServer abbreviations
/// and place the five filter magnitudes in one math group (the paper's
/// `u - r < 2.22` Q3 example).
fn enhance(db: &Database) -> EnhancedSchema {
    let profile = db.profile();
    let mut e = EnhancedSchema::infer(db.schema.clone(), &profile);
    e.set_table_alias("photoobj", "photometric object");
    e.set_table_alias("specobj", "spectroscopic object");
    e.set_table_alias("neighbors", "nearest neighbor");
    e.set_table_alias("sppparams", "stellar parameters");
    e.set_table_alias("galspecline", "galaxy emission line");
    for (c, alias) in [
        ("ra", "right ascension"),
        ("dec", "declination"),
        ("u", "ultraviolet magnitude"),
        ("g", "green magnitude"),
        ("r", "red magnitude"),
        ("i", "near infrared magnitude"),
        ("z", "infrared magnitude"),
        ("mjd", "modified julian date"),
        ("petror50_r", "petrosian half light radius"),
    ] {
        e.set_column_alias("photoobj", c, alias);
    }
    for (c, alias) in [
        ("ra", "right ascension"),
        ("dec", "declination"),
        ("z", "redshift"),
        ("zerr", "redshift error"),
        ("bestobjid", "best photometric object id"),
        ("sn_median", "median signal to noise"),
        ("veldisp", "velocity dispersion"),
        ("zwarning", "redshift warning flag"),
        ("mjd", "modified julian date"),
        ("fiberid", "fiber id"),
    ] {
        e.set_column_alias("specobj", c, alias);
    }
    e.set_column_alias("neighbors", "neighbormode", "neighbor mode");
    e.set_column_alias("neighbors", "neighborobjid", "neighbor object id");
    e.set_column_alias("neighbors", "neighbortype", "neighbor type");
    e.set_column_alias("sppparams", "fehadop", "metallicity");
    e.set_column_alias("sppparams", "teffadop", "effective temperature");
    e.set_column_alias("sppparams", "loggadop", "surface gravity");
    e.set_column_alias("galspecline", "h_alpha_flux", "H alpha flux");
    e.set_column_alias("galspecline", "h_beta_flux", "H beta flux");

    // Magnitudes share one unit group; fluxes their own. Everything else
    // leaves the automatically inferred per-table group — coordinates,
    // errors and radii must not be combined arithmetically (the paper's
    // `T1.length - T2.area` counter-example).
    for t in [
        "photoobj",
        "specobj",
        "neighbors",
        "sppparams",
        "galspecline",
    ] {
        let cols: Vec<String> = e
            .schema
            .table(t)
            .map(|d| d.columns.iter().map(|c| c.name.clone()).collect())
            .unwrap_or_default();
        for c in cols {
            e.clear_math_group(t, &c);
        }
    }
    for c in ["u", "g", "r", "i", "z"] {
        e.set_math_group("photoobj", c, "magnitude");
    }
    for c in [
        "h_alpha_flux",
        "h_beta_flux",
        "oiii_5007_flux",
        "nii_6584_flux",
    ] {
        e.set_math_group("galspecline", c, "flux");
    }
    for (t, c) in [
        ("specobj", "class"),
        ("specobj", "subclass"),
        ("specobj", "survey"),
        ("specobj", "programname"),
        ("photoobj", "type"),
        ("photoobj", "camcol"),
        ("photoobj", "clean"),
        ("neighbors", "neighbormode"),
        ("neighbors", "neighbortype"),
    ] {
        e.set_categorical(t, c, true);
    }
    // Not meaningful to aggregate or group.
    for (t, c) in [
        ("photoobj", "ra"),
        ("photoobj", "dec"),
        ("specobj", "ra"),
        ("specobj", "dec"),
    ] {
        e.set_categorical(t, c, false);
        e.set_non_aggregatable(t, c, true);
    }
    for (t, c) in [
        ("specobj", "plate"),
        ("specobj", "mjd"),
        ("specobj", "fiberid"),
        ("photoobj", "run"),
        ("photoobj", "field"),
        ("photoobj", "mjd"),
        ("neighbors", "mode"),
    ] {
        e.set_non_aggregatable(t, c, true);
        e.set_categorical(t, c, false);
    }
    e
}

/// Hand-authored seed SQL patterns — including the paper's running
/// examples Q1–Q3 and the Figure 1 `neighbors` query.
pub fn seed_patterns() -> Vec<String> {
    [
        // -- Easy (incl. the paper's Q1) --
        "SELECT s.specobjid FROM specobj AS s WHERE s.subclass = 'STARBURST'",
        "SELECT s.bestobjid FROM specobj AS s WHERE s.class = 'GALAXY'",
        "SELECT T1.objid FROM neighbors AS T1 WHERE T1.neighbormode = 2",
        "SELECT COUNT(*) FROM specobj AS s WHERE s.survey = 'sdss'",
        "SELECT p.objid FROM photoobj AS p WHERE p.clean = 1",
        // -- Medium (incl. the paper's Q2) --
        "SELECT s.bestobjid, s.ra, s.dec, s.z FROM specobj AS s WHERE s.class = 'GALAXY' AND s.z > 0.5 AND s.z < 1",
        "SELECT COUNT(*), s.class FROM specobj AS s GROUP BY s.class",
        "SELECT AVG(s.z) FROM specobj AS s WHERE s.class = 'QSO'",
        "SELECT p.ra, p.dec FROM photoobj AS p JOIN specobj AS s ON s.bestobjid = p.objid WHERE s.class = 'STAR'",
        "SELECT s.specobjid, s.z FROM specobj AS s WHERE s.zwarning = 0 AND s.class = 'GALAXY'",
        "SELECT n.neighborobjid FROM neighbors AS n WHERE n.distance < 0.05 AND n.neighbormode = 1",
        // -- Hard --
        "SELECT s.specobjid FROM specobj AS s WHERE s.z > (SELECT AVG(s2.z) FROM specobj AS s2)",
        "SELECT MIN(p.r), MAX(p.r) FROM photoobj AS p WHERE p.type = 3 AND p.clean = 1",
        "SELECT COUNT(*), s.subclass FROM specobj AS s WHERE s.class = 'GALAXY' AND s.z > 0.1 GROUP BY s.subclass",
        "SELECT g.specobjid, g.h_alpha_flux / g.h_beta_flux FROM galspecline AS g WHERE g.h_alpha_flux / g.h_beta_flux > 2.8 AND g.sigma_balmer > 100.0",
        // -- Extra hard (incl. the paper's Q3) --
        "SELECT p.objid, s.specobjid FROM photoobj AS p JOIN specobj AS s ON s.bestobjid = p.objid WHERE s.class = 'GALAXY' AND p.u - p.r < 2.22 AND p.u - p.r > 1",
        "SELECT s.class, AVG(s.z) FROM specobj AS s WHERE s.zwarning = 0 GROUP BY s.class ORDER BY AVG(s.z) DESC LIMIT 2",
        "SELECT p.objid FROM photoobj AS p JOIN specobj AS s ON s.bestobjid = p.objid WHERE s.subclass = 'STARBURST' AND p.g - p.r < 0.5 ORDER BY s.z DESC LIMIT 10",
        "SELECT COUNT(*), s.survey FROM specobj AS s WHERE s.class = 'GALAXY' AND s.sn_median > 10.0 GROUP BY s.survey ORDER BY COUNT(*) DESC LIMIT 3",
    ]
    .into_iter()
    .map(String::from)
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_matches_table1() {
        let s = schema();
        assert_eq!(s.tables.len(), 6);
        assert_eq!(s.column_count(), 61);
        assert!(s.validate().is_empty(), "{:?}", s.validate());
    }

    #[test]
    fn paper_q3_runs_on_content() {
        let d = build(SizeClass::Small);
        let r =
            d.db.run(
                "SELECT p.objid, s.specobjid FROM photoobj AS p \
                 JOIN specobj AS s ON s.bestobjid = p.objid \
                 WHERE s.class = 'GALAXY' AND p.u - p.r < 2.22 AND p.u - p.r > 1",
            )
            .unwrap();
        assert!(!r.is_empty(), "Q3 must be satisfiable on generated content");
    }

    #[test]
    fn redshift_ranges_are_class_plausible() {
        let d = build(SizeClass::Tiny);
        let r =
            d.db.run("SELECT MAX(s.z) FROM specobj AS s WHERE s.class = 'STAR'")
                .unwrap();
        let max_star_z = r.rows[0][0].as_f64().unwrap();
        assert!(
            max_star_z < 0.02,
            "stars have ~zero redshift, got {max_star_z}"
        );
    }

    #[test]
    fn magnitudes_form_math_group() {
        let d = build(SizeClass::Tiny);
        let groups = d.enhanced.math_groups("photoobj");
        assert_eq!(groups.get("magnitude").map(|g| g.len()), Some(5));
    }

    #[test]
    fn cryptic_columns_have_aliases() {
        let d = build(SizeClass::Tiny);
        assert_eq!(d.enhanced.readable_column("specobj", "z"), "redshift");
        assert_eq!(
            d.enhanced.readable_column("photoobj", "ra"),
            "right ascension"
        );
    }
}
