//! CORDIS — the EU research-policy database (19 tables, 82 columns).
//!
//! Reproduces the schema of the CORDIS 2022-08 snapshot used by the paper:
//! projects funded under the EU framework programmes, the participating
//! institutions and people, and the coding hierarchies (topics, subject
//! areas, programmes, ERC panels, NUTS territorial units) with their
//! "highly specific enigmatic EU terminology".

use crate::util::*;
use crate::{DomainData, SizeClass};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sb_engine::{Database, Value};
use sb_schema::{Column, ColumnType, EnhancedSchema, ForeignKey, Schema, TableDef};

/// Real deployment size (Table 1): 671 K rows, 1 GB.
pub const REAL_ROWS: f64 = 671_000.0;
/// Real deployment byte size.
pub const REAL_BYTES: f64 = 1.0e9;

const FRAMEWORKS: [&str; 6] = ["FP5", "FP6", "FP7", "H2020", "HORIZON", "CIP"];
const FUNDING_SCHEMES: [&str; 10] = [
    "RIA", "IA", "CSA", "ERC-STG", "ERC-COG", "ERC-ADG", "MSCA-IF", "MSCA-ITN", "SME-1", "SME-2",
];
const ACTIVITY_TYPES: [(&str, &str); 5] = [
    ("HES", "Higher or secondary education establishments"),
    ("REC", "Research organisations"),
    ("PRC", "Private for-profit entities"),
    ("PUB", "Public bodies"),
    ("OTH", "Other"),
];
const ROLES: [(&str, &str); 3] = [
    ("coordinator", "Project coordinator"),
    ("participant", "Project participant"),
    ("thirdParty", "Linked third party"),
];
const COUNTRIES: [(&str, &str, &str); 20] = [
    ("DE", "DEU", "Germany"),
    ("FR", "FRA", "France"),
    ("IT", "ITA", "Italy"),
    ("ES", "ESP", "Spain"),
    ("UK", "GBR", "United Kingdom"),
    ("NL", "NLD", "Netherlands"),
    ("BE", "BEL", "Belgium"),
    ("CH", "CHE", "Switzerland"),
    ("AT", "AUT", "Austria"),
    ("SE", "SWE", "Sweden"),
    ("EL", "GRC", "Greece"),
    ("PT", "PRT", "Portugal"),
    ("PL", "POL", "Poland"),
    ("FI", "FIN", "Finland"),
    ("DK", "DNK", "Denmark"),
    ("IE", "IRL", "Ireland"),
    ("NO", "NOR", "Norway"),
    ("CZ", "CZE", "Czechia"),
    ("HU", "HUN", "Hungary"),
    ("RO", "ROU", "Romania"),
];
const TOPIC_WORDS: [&str; 24] = [
    "information",
    "media",
    "energy",
    "climate",
    "health",
    "transport",
    "security",
    "nuclear",
    "fission",
    "materials",
    "nanotechnology",
    "food",
    "agriculture",
    "marine",
    "space",
    "robotics",
    "computing",
    "society",
    "innovation",
    "environment",
    "mobility",
    "photonics",
    "manufacturing",
    "biotechnology",
];
const ERC_DOMAINS: [(&str, &str); 3] = [
    ("PE", "Physical Sciences and Engineering"),
    ("LS", "Life Sciences"),
    ("SH", "Social Sciences and Humanities"),
];
const FIRST_NAMES: [&str; 16] = [
    "Anna",
    "Luca",
    "Marie",
    "Jan",
    "Sofia",
    "Pierre",
    "Elena",
    "Thomas",
    "Ingrid",
    "Marco",
    "Katarzyna",
    "Miguel",
    "Eva",
    "Lars",
    "Chiara",
    "Peter",
];
const LAST_NAMES: [&str; 16] = [
    "Muller",
    "Rossi",
    "Dubois",
    "Garcia",
    "Jansen",
    "Novak",
    "Andersson",
    "Papadopoulos",
    "Kowalski",
    "Silva",
    "Nielsen",
    "Bauer",
    "Moreau",
    "Ricci",
    "Virtanen",
    "Horvath",
];

/// The CORDIS schema: 19 tables, 82 columns (asserted by crate tests).
pub fn schema() -> Schema {
    use ColumnType::*;
    Schema::new("cordis")
        .with_table(TableDef::new(
            "projects",
            vec![
                Column::pk("unics_id", Int),
                Column::new("acronym", Text),
                Column::new("title", Text),
                Column::new("objective", Text),
                Column::new("total_cost", Float),
                Column::new("ec_max_contribution", Float),
                Column::new("start_year", Int),
                Column::new("end_year", Int),
                Column::new("homepage", Text),
                Column::new("ec_call", Text),
                Column::new("cordis_ref", Text),
                Column::new("status", Text),
                Column::new("framework_program", Text),
                Column::new("funding_scheme", Text),
                Column::new("principal_investigator", Int),
            ],
        ))
        .with_table(TableDef::new(
            "people",
            vec![
                Column::pk("unics_id", Int),
                Column::new("full_name", Text),
                Column::new("title", Text),
                Column::new("email_domain", Text),
            ],
        ))
        .with_table(TableDef::new(
            "institutions",
            vec![
                Column::pk("unics_id", Int),
                Column::new("institution_name", Text),
                Column::new("country_id", Int),
                Column::new("geocode_regions_3", Text),
                Column::new("website", Text),
                Column::new("short_name", Text),
                Column::new("city", Text),
                Column::new("postal_code", Text),
            ],
        ))
        .with_table(TableDef::new(
            "project_members",
            vec![
                Column::pk("unics_id", Int),
                Column::new("project", Int),
                Column::new("institution_id", Int),
                Column::new("member_name", Text),
                Column::new("activity_type", Text),
                Column::new("country", Text),
                Column::new("city", Text),
                Column::new("member_role", Text),
                Column::new("ec_contribution", Float),
                Column::new("pic_number", Text),
                Column::new("postal_code", Text),
                Column::new("street", Text),
            ],
        ))
        .with_table(TableDef::new(
            "ec_framework_programs",
            vec![Column::pk("name", Text), Column::new("description", Text)],
        ))
        .with_table(TableDef::new(
            "funding_schemes",
            vec![
                Column::pk("code", Text),
                Column::new("title", Text),
                Column::new("description", Text),
            ],
        ))
        .with_table(TableDef::new(
            "topics",
            vec![
                Column::pk("code", Text),
                Column::new("title", Text),
                Column::new("rcn", Int),
            ],
        ))
        .with_table(TableDef::new(
            "project_topics",
            vec![Column::new("project", Int), Column::new("topic", Text)],
        ))
        .with_table(TableDef::new(
            "subject_areas",
            vec![
                Column::pk("code", Text),
                Column::new("title", Text),
                Column::new("description", Text),
            ],
        ))
        .with_table(TableDef::new(
            "project_subject_areas",
            vec![
                Column::new("project", Int),
                Column::new("subject_area", Text),
            ],
        ))
        .with_table(TableDef::new(
            "programmes",
            vec![
                Column::pk("code", Text),
                Column::new("title", Text),
                Column::new("short_name", Text),
                Column::new("parent", Text),
                Column::new("rcn", Int),
            ],
        ))
        .with_table(TableDef::new(
            "project_programmes",
            vec![Column::new("project", Int), Column::new("programme", Text)],
        ))
        .with_table(TableDef::new(
            "erc_research_domains",
            vec![Column::pk("code", Text), Column::new("description", Text)],
        ))
        .with_table(TableDef::new(
            "erc_panels",
            vec![
                Column::pk("code", Text),
                Column::new("description", Text),
                Column::new("part_of", Text),
            ],
        ))
        .with_table(TableDef::new(
            "project_erc_panels",
            vec![Column::new("project", Int), Column::new("panel", Text)],
        ))
        .with_table(TableDef::new(
            "eu_territorial_units",
            vec![
                Column::pk("geocode_regions", Text),
                Column::new("description", Text),
                Column::new("geocode_level", Int),
                Column::new("nuts_version", Text),
                Column::new("country_id", Int),
            ],
        ))
        .with_table(TableDef::new(
            "countries",
            vec![
                Column::pk("unics_id", Int),
                Column::new("country_name", Text),
                Column::new("country_code2", Text),
                Column::new("country_code3", Text),
                Column::new("geocode_country", Text),
            ],
        ))
        .with_table(TableDef::new(
            "activity_types",
            vec![Column::pk("code", Text), Column::new("description", Text)],
        ))
        .with_table(TableDef::new(
            "project_member_roles",
            vec![Column::pk("code", Text), Column::new("description", Text)],
        ))
        .with_fk(ForeignKey::new(
            "projects",
            "framework_program",
            "ec_framework_programs",
            "name",
        ))
        .with_fk(ForeignKey::new(
            "projects",
            "funding_scheme",
            "funding_schemes",
            "code",
        ))
        .with_fk(ForeignKey::new(
            "projects",
            "principal_investigator",
            "people",
            "unics_id",
        ))
        .with_fk(ForeignKey::new(
            "institutions",
            "country_id",
            "countries",
            "unics_id",
        ))
        .with_fk(ForeignKey::new(
            "institutions",
            "geocode_regions_3",
            "eu_territorial_units",
            "geocode_regions",
        ))
        .with_fk(ForeignKey::new(
            "project_members",
            "project",
            "projects",
            "unics_id",
        ))
        .with_fk(ForeignKey::new(
            "project_members",
            "institution_id",
            "institutions",
            "unics_id",
        ))
        .with_fk(ForeignKey::new(
            "project_members",
            "activity_type",
            "activity_types",
            "code",
        ))
        .with_fk(ForeignKey::new(
            "project_members",
            "member_role",
            "project_member_roles",
            "code",
        ))
        .with_fk(ForeignKey::new(
            "project_topics",
            "project",
            "projects",
            "unics_id",
        ))
        .with_fk(ForeignKey::new("project_topics", "topic", "topics", "code"))
        .with_fk(ForeignKey::new(
            "project_subject_areas",
            "project",
            "projects",
            "unics_id",
        ))
        .with_fk(ForeignKey::new(
            "project_subject_areas",
            "subject_area",
            "subject_areas",
            "code",
        ))
        .with_fk(ForeignKey::new(
            "project_programmes",
            "project",
            "projects",
            "unics_id",
        ))
        .with_fk(ForeignKey::new(
            "project_programmes",
            "programme",
            "programmes",
            "code",
        ))
        .with_fk(ForeignKey::new(
            "erc_panels",
            "part_of",
            "erc_research_domains",
            "code",
        ))
        .with_fk(ForeignKey::new(
            "project_erc_panels",
            "project",
            "projects",
            "unics_id",
        ))
        .with_fk(ForeignKey::new(
            "project_erc_panels",
            "panel",
            "erc_panels",
            "code",
        ))
        .with_fk(ForeignKey::new(
            "eu_territorial_units",
            "country_id",
            "countries",
            "unics_id",
        ))
}

/// Build the populated domain at a size class.
pub fn build(size: SizeClass) -> DomainData {
    let mut rng = StdRng::seed_from_u64(0xC0_8D15);
    let schema = schema();
    let mut db = Database::new(schema);
    let d = size.divisor();

    let n_projects = scaled(35_000.0, d, 60);
    let n_people = scaled(30_000.0, d, 50);
    let n_institutions = scaled(28_000.0, d, 40);
    let n_members = scaled(260_000.0, d, 150);
    let n_topics = scaled(8_000.0, d, 30);
    let n_proj_topics = scaled(90_000.0, d, 80);
    let n_subject_areas = 24usize.min(TOPIC_WORDS.len());
    let n_proj_subjects = scaled(60_000.0, d, 60);
    let n_programmes = scaled(6_000.0, d, 25);
    let n_proj_programmes = scaled(85_000.0, d, 70);
    let n_panels = 27usize;
    let n_proj_panels = scaled(10_000.0, d, 20);
    let n_nuts = scaled(2_000.0, d, 40).max(40);

    // Dimension tables first.
    {
        let t = db.table_mut("ec_framework_programs").unwrap();
        for f in FRAMEWORKS {
            t.push_rows(vec![vec![
                f.into(),
                format!("EU framework programme {f}").into(),
            ]]);
        }
    }
    {
        let t = db.table_mut("funding_schemes").unwrap();
        for s in FUNDING_SCHEMES {
            t.push_rows(vec![vec![
                s.into(),
                format!("Funding scheme {s}").into(),
                format!("Grants awarded under the {s} instrument").into(),
            ]]);
        }
    }
    {
        let t = db.table_mut("activity_types").unwrap();
        for (code, desc) in ACTIVITY_TYPES {
            t.push_rows(vec![vec![code.into(), desc.into()]]);
        }
    }
    {
        let t = db.table_mut("project_member_roles").unwrap();
        for (code, desc) in ROLES {
            t.push_rows(vec![vec![code.into(), desc.into()]]);
        }
    }
    {
        let t = db.table_mut("countries").unwrap();
        for (i, (c2, c3, name)) in COUNTRIES.iter().enumerate() {
            t.push_rows(vec![vec![
                Value::Int(i as i64 + 1),
                (*name).into(),
                (*c2).into(),
                (*c3).into(),
                (*c2).into(),
            ]]);
        }
    }
    {
        let t = db.table_mut("erc_research_domains").unwrap();
        for (code, desc) in ERC_DOMAINS {
            t.push_rows(vec![vec![code.into(), desc.into()]]);
        }
    }
    {
        let t = db.table_mut("erc_panels").unwrap();
        for i in 0..n_panels {
            let (dom, _) = ERC_DOMAINS[i % 3];
            t.push_rows(vec![vec![
                format!("{dom}{}", i / 3 + 1).into(),
                format!("ERC panel {dom}{}", i / 3 + 1).into(),
                dom.into(),
            ]]);
        }
    }
    {
        let t = db.table_mut("eu_territorial_units").unwrap();
        for i in 0..n_nuts {
            let country = &COUNTRIES[i % COUNTRIES.len()];
            let level = (i % 4) as i64;
            t.push_rows(vec![vec![
                format!("{}{}", country.0, i / COUNTRIES.len()).into(),
                format!("{} region {}", country.2, i / COUNTRIES.len()).into(),
                Value::Int(level),
                "2021".into(),
                Value::Int((i % COUNTRIES.len()) as i64 + 1),
            ]]);
        }
    }
    {
        let t = db.table_mut("subject_areas").unwrap();
        for (i, w) in TOPIC_WORDS.iter().take(n_subject_areas).enumerate() {
            t.push_rows(vec![vec![
                format!("SA{i:02}").into(),
                format!("{w} research").into(),
                format!("Projects concerning {w}").into(),
            ]]);
        }
    }
    {
        let t = db.table_mut("topics").unwrap();
        for i in 0..n_topics {
            let w = TOPIC_WORDS[i % TOPIC_WORDS.len()];
            t.push_rows(vec![vec![
                format!("T-{w}-{i:04}").to_uppercase().into(),
                format!("{w} call {i}").into(),
                Value::Int(10_000 + i as i64),
            ]]);
        }
    }
    {
        let t = db.table_mut("programmes").unwrap();
        for i in 0..n_programmes {
            let fw = FRAMEWORKS[i % FRAMEWORKS.len()];
            t.push_rows(vec![vec![
                format!("{fw}-PRG-{i:04}").into(),
                format!("Programme {i} of {fw}").into(),
                format!("PRG{i:04}").into(),
                if i == 0 {
                    Value::Null
                } else {
                    format!("{fw}-PRG-{:04}", i / 2).into()
                },
                Value::Int(20_000 + i as i64),
            ]]);
        }
    }
    {
        let t = db.table_mut("people").unwrap();
        for i in 0..n_people {
            let first = FIRST_NAMES[i % FIRST_NAMES.len()];
            let last = LAST_NAMES[(i / FIRST_NAMES.len()) % LAST_NAMES.len()];
            t.push_rows(vec![vec![
                Value::Int(i as i64 + 1),
                format!("{first} {last}").into(),
                ["Dr", "Prof", "Mr", "Ms"][i % 4].into(),
                format!(
                    "{}.example.eu",
                    LAST_NAMES[i % LAST_NAMES.len()].to_lowercase()
                )
                .into(),
            ]]);
        }
    }
    {
        let t = db.table_mut("institutions").unwrap();
        for i in 0..n_institutions {
            let country_idx = zipf(&mut rng, COUNTRIES.len(), 0.8);
            let country = &COUNTRIES[country_idx];
            let kind = [
                "University of",
                "Technical University of",
                "Institute of",
                "Center for",
            ][i % 4];
            let word = TOPIC_WORDS[i % TOPIC_WORDS.len()];
            t.push_rows(vec![vec![
                Value::Int(i as i64 + 1),
                format!("{kind} {word} {i}").into(),
                Value::Int(country_idx as i64 + 1),
                format!("{}{}", country.0, i % (n_nuts / COUNTRIES.len()).max(1)).into(),
                format!("https://inst{i}.example.eu").into(),
                format!("INST{i:05}").into(),
                format!("{} City {}", country.2, i % 40).into(),
                format!("{:05}", 10_000 + i % 80_000).into(),
            ]]);
        }
    }
    {
        let t = db.table_mut("projects").unwrap();
        for i in 0..n_projects {
            let fw = *weighted(
                &mut rng,
                &[
                    ("H2020", 10.0),
                    ("FP7", 8.0),
                    ("HORIZON", 5.0),
                    ("FP6", 3.0),
                    ("FP5", 1.0),
                    ("CIP", 0.5),
                ],
            );
            let scheme = FUNDING_SCHEMES[zipf(&mut rng, FUNDING_SCHEMES.len(), 0.7)];
            let start = rng.gen_range(2000..=2022i64);
            let cost = float_in(&mut rng, 5.0e4, 1.2e7, 2);
            let contribution = (cost * rng.gen_range(0.5..1.0) * 100.0).round() / 100.0;
            let w1 = TOPIC_WORDS[rng.gen_range(0..TOPIC_WORDS.len())];
            let w2 = TOPIC_WORDS[rng.gen_range(0..TOPIC_WORDS.len())];
            t.push_rows(vec![vec![
                Value::Int(i as i64 + 1),
                format!("{}{}", w1.to_uppercase(), i % 100).into(),
                format!("Advancing {w1} through {w2}").into(),
                pseudo_text(&mut rng, &TOPIC_WORDS, 16).into(),
                Value::Float(cost),
                Value::Float(contribution),
                Value::Int(start),
                Value::Int(start + rng.gen_range(1..=5)),
                format!("https://project{i}.example.eu").into(),
                format!("{fw}-CALL-{}", start).into(),
                format!("REF{:06}", i).into(),
                (*weighted(
                    &mut rng,
                    &[("SIGNED", 6.0), ("CLOSED", 10.0), ("TERMINATED", 1.0)],
                ))
                .into(),
                fw.into(),
                scheme.into(),
                Value::Int(rng.gen_range(0..n_people as i64) + 1),
            ]]);
        }
    }
    {
        let t = db.table_mut("project_members").unwrap();
        for i in 0..n_members {
            let project = rng.gen_range(0..n_projects as i64) + 1;
            let inst = rng.gen_range(0..n_institutions as i64) + 1;
            let country = &COUNTRIES[zipf(&mut rng, COUNTRIES.len(), 0.8)];
            let (activity, _) = ACTIVITY_TYPES[zipf(&mut rng, ACTIVITY_TYPES.len(), 0.6)];
            let (role, _) = ROLES[if i % 7 == 0 { 0 } else { 1 }];
            t.push_rows(vec![vec![
                Value::Int(i as i64 + 1),
                Value::Int(project),
                Value::Int(inst),
                format!("Member institution {inst}").into(),
                activity.into(),
                country.0.into(),
                format!("{} City {}", country.2, i % 40).into(),
                role.into(),
                Value::Float(float_in(&mut rng, 1.0e4, 2.0e6, 2)),
                format!("{:09}", 100_000_000 + i).into(),
                format!("{:05}", 10_000 + i % 80_000).into(),
                format!("Science Street {}", i % 200).into(),
            ]]);
        }
    }
    // Link tables.
    link(
        &mut db,
        &mut rng,
        "project_topics",
        n_proj_topics,
        n_projects,
        |rng, _| {
            let i = rng.gen_range(0..n_topics);
            let w = TOPIC_WORDS[i % TOPIC_WORDS.len()];
            Value::from(format!("T-{w}-{i:04}").to_uppercase())
        },
    );
    link(
        &mut db,
        &mut rng,
        "project_subject_areas",
        n_proj_subjects,
        n_projects,
        |rng, _| Value::from(format!("SA{:02}", rng.gen_range(0..n_subject_areas))),
    );
    link(
        &mut db,
        &mut rng,
        "project_programmes",
        n_proj_programmes,
        n_projects,
        |rng, _| {
            let i = rng.gen_range(0..n_programmes);
            Value::from(format!("{}-PRG-{i:04}", FRAMEWORKS[i % FRAMEWORKS.len()]))
        },
    );
    link(
        &mut db,
        &mut rng,
        "project_erc_panels",
        n_proj_panels,
        n_projects,
        |rng, _| {
            let i = rng.gen_range(0..n_panels);
            Value::from(format!("{}{}", ERC_DOMAINS[i % 3].0, i / 3 + 1))
        },
    );

    let enhanced = enhance(&db);
    DomainData {
        db,
        enhanced,
        real_rows: REAL_ROWS,
        real_bytes: REAL_BYTES,
        seed_patterns: seed_patterns(),
    }
}

fn link(
    db: &mut Database,
    rng: &mut StdRng,
    table: &str,
    n: usize,
    n_projects: usize,
    mut other: impl FnMut(&mut StdRng, usize) -> Value,
) {
    let t = db.table_mut(table).unwrap();
    for i in 0..n {
        let project = rng.gen_range(0..n_projects as i64) + 1;
        let o = other(rng, i);
        t.push_rows(vec![vec![Value::Int(project), o]]);
    }
}

/// The one-shot expert refinement of the enhanced schema (§3.3.2).
fn enhance(db: &Database) -> EnhancedSchema {
    let profile = db.profile();
    let mut e = EnhancedSchema::infer(db.schema.clone(), &profile);
    e.set_table_alias("ec_framework_programs", "EU framework programmes");
    e.set_table_alias("eu_territorial_units", "NUTS territorial units");
    e.set_column_alias("projects", "ec_max_contribution", "maximum EC contribution");
    e.set_column_alias("projects", "total_cost", "total cost");
    e.set_column_alias("projects", "ec_call", "EC call identifier");
    e.set_column_alias(
        "projects",
        "principal_investigator",
        "principal investigator",
    );
    e.set_column_alias("institutions", "geocode_regions_3", "NUTS level 3 region");
    e.set_column_alias(
        "eu_territorial_units",
        "geocode_regions",
        "NUTS region code",
    );
    e.set_column_alias("eu_territorial_units", "geocode_level", "NUTS level");
    e.set_column_alias("project_members", "ec_contribution", "EC contribution");
    e.set_column_alias(
        "project_members",
        "pic_number",
        "participant identification code",
    );
    // Clear the inferred per-table measure groups, then declare the unit
    // groups explicitly: money and years.
    let tables: Vec<String> = e.schema.tables.iter().map(|t| t.name.clone()).collect();
    for t in &tables {
        let cols: Vec<String> = e
            .schema
            .table(t)
            .map(|d| d.columns.iter().map(|c| c.name.clone()).collect())
            .unwrap_or_default();
        for c in cols {
            e.clear_math_group(t, &c);
        }
    }
    // Money columns form a math group (cost - contribution is meaningful).
    e.set_math_group("projects", "total_cost", "euro");
    e.set_math_group("projects", "ec_max_contribution", "euro");
    // Years: meaningful to compare/group, not to average.
    for col in ["start_year", "end_year"] {
        e.set_non_aggregatable("projects", col, true);
        e.set_categorical("projects", col, true);
    }
    e.set_math_group("projects", "start_year", "year");
    e.set_math_group("projects", "end_year", "year");
    for (t, c) in [
        ("projects", "framework_program"),
        ("projects", "funding_scheme"),
        ("projects", "status"),
        ("project_members", "activity_type"),
        ("project_members", "country"),
        ("project_members", "member_role"),
        ("eu_territorial_units", "geocode_level"),
    ] {
        e.set_categorical(t, c, true);
    }
    // The cardinality heuristic over-fires on scaled-down content; clear
    // flags that would be wrong at full size.
    for (t, c) in [
        ("projects", "total_cost"),
        ("projects", "ec_max_contribution"),
        ("project_members", "ec_contribution"),
        ("projects", "acronym"),
        ("projects", "title"),
        ("people", "full_name"),
        ("institutions", "institution_name"),
    ] {
        e.set_categorical(t, c, false);
    }
    e
}

/// Hand-authored seed SQL patterns in the style of the paper's expert
/// queries, spanning all four hardness classes.
pub fn seed_patterns() -> Vec<String> {
    [
        // -- Easy --
        "SELECT p.title FROM projects AS p WHERE p.framework_program = 'H2020'",
        "SELECT p.acronym FROM projects AS p WHERE p.start_year = 2020",
        "SELECT i.institution_name FROM institutions AS i",
        "SELECT COUNT(*) FROM project_members AS m WHERE m.country = 'DE'",
        "SELECT f.description FROM funding_schemes AS f WHERE f.code = 'ERC-STG'",
        // -- Medium --
        "SELECT p.title, p.total_cost FROM projects AS p WHERE p.framework_program = 'FP7' AND p.start_year = 2010",
        "SELECT COUNT(*), p.framework_program FROM projects AS p GROUP BY p.framework_program",
        "SELECT p.acronym FROM projects AS p JOIN project_members AS m ON m.project = p.unics_id WHERE m.activity_type = 'HES'",
        "SELECT AVG(p.ec_max_contribution) FROM projects AS p WHERE p.funding_scheme = 'RIA'",
        "SELECT p.title FROM projects AS p WHERE p.total_cost > 5000000.0 AND p.framework_program = 'H2020'",
        "SELECT m.member_name FROM project_members AS m WHERE m.member_role = 'coordinator' AND m.country = 'FR'",
        // -- Hard --
        "SELECT MIN(p.total_cost), MAX(p.total_cost) FROM projects AS p WHERE p.framework_program = 'H2020' AND p.start_year = 2018",
        "SELECT pe.full_name FROM people AS pe WHERE pe.unics_id IN (SELECT p.principal_investigator FROM projects AS p)",
        "SELECT COUNT(*), m.activity_type FROM project_members AS m WHERE m.country = 'DE' AND m.member_role = 'participant' GROUP BY m.activity_type",
        "SELECT p.acronym, p.total_cost - p.ec_max_contribution FROM projects AS p WHERE p.total_cost - p.ec_max_contribution > 1000000.0 AND p.framework_program = 'H2020'",
        // -- Extra hard --
        "SELECT COUNT(*), p.framework_program FROM projects AS p JOIN project_members AS m ON m.project = p.unics_id WHERE m.activity_type = 'HES' GROUP BY p.framework_program ORDER BY COUNT(*) DESC LIMIT 3",
        "SELECT p.title FROM projects AS p WHERE p.ec_max_contribution > (SELECT AVG(p2.ec_max_contribution) FROM projects AS p2) AND p.framework_program = 'H2020' ORDER BY p.ec_max_contribution DESC LIMIT 10",
        "SELECT i.institution_name, COUNT(*) FROM institutions AS i JOIN project_members AS m ON m.institution_id = i.unics_id WHERE m.member_role = 'coordinator' GROUP BY i.institution_name ORDER BY COUNT(*) DESC LIMIT 5",
        "SELECT p.acronym FROM projects AS p JOIN project_topics AS t ON t.project = p.unics_id WHERE p.start_year = 2015 AND p.framework_program = 'FP7' ORDER BY p.total_cost DESC LIMIT 5",
    ]
    .into_iter()
    .map(String::from)
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SizeClass;

    #[test]
    fn schema_matches_table1() {
        let s = schema();
        assert_eq!(s.tables.len(), 19);
        assert_eq!(s.column_count(), 82);
        assert!(s.validate().is_empty(), "{:?}", s.validate());
    }

    #[test]
    fn referential_integrity_of_member_projects() {
        let d = build(SizeClass::Tiny);
        let r =
            d.db.run(
                "SELECT COUNT(*) FROM project_members AS m WHERE m.project NOT IN \
                 (SELECT p.unics_id FROM projects AS p)",
            )
            .unwrap();
        assert_eq!(r.rows[0][0], sb_engine::Value::Int(0));
    }

    #[test]
    fn categorical_flags_survive_refinement() {
        let d = build(SizeClass::Tiny);
        assert!(d.enhanced.categorical("projects", "framework_program"));
        assert!(!d.enhanced.categorical("projects", "total_cost"));
        assert!(!d.enhanced.aggregatable("projects", "start_year"));
        assert!(d.enhanced.aggregatable("projects", "total_cost"));
    }

    #[test]
    fn math_group_pairs_cost_columns() {
        let d = build(SizeClass::Tiny);
        let groups = d.enhanced.math_groups("projects");
        assert!(groups.get("euro").is_some_and(|g| g.len() == 2));
    }

    #[test]
    fn patterns_cover_all_hardness_shapes() {
        // At least one pattern with a join, one with a subquery, one with
        // GROUP BY, one with ORDER BY ... LIMIT.
        let pats = seed_patterns();
        assert!(pats.iter().any(|p| p.contains("JOIN")));
        assert!(pats
            .iter()
            .any(|p| p.contains("IN (SELECT") || p.contains("> (SELECT")));
        assert!(pats.iter().any(|p| p.contains("GROUP BY")));
        assert!(pats.iter().any(|p| p.contains("LIMIT")));
    }
}
