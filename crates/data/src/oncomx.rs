//! OncoMX — the NIH cancer-biomarker database (25 tables, 106 columns).
//!
//! Reproduces the integrated structure the paper describes: FDA and EDRN
//! biomarkers, healthy gene expression (Bgee), differential expression
//! between healthy and cancerous samples (BioXpress), and cancer mutations
//! (BioMuta), all keyed on genes, diseases and anatomical entities.

use crate::util::*;
use crate::{DomainData, SizeClass};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sb_engine::{Database, Value};
use sb_schema::{Column, ColumnType, EnhancedSchema, ForeignKey, Schema, TableDef};

/// Real deployment size (Table 1): 65.9 M rows, 12 GB.
pub const REAL_ROWS: f64 = 65_900_000.0;
/// Real deployment byte size.
pub const REAL_BYTES: f64 = 1.2e10;

const GENES: [&str; 24] = [
    "BRCA1", "BRCA2", "TP53", "EGFR", "KRAS", "BRAF", "PIK3CA", "PTEN", "ALK", "MYC", "RB1", "APC",
    "VHL", "RET", "KIT", "ERBB2", "CDKN2A", "NRAS", "IDH1", "JAK2", "FLT3", "NPM1", "SMAD4", "ATM",
];
const DISEASES: [(&str, i64); 12] = [
    ("breast cancer", 1612),
    ("lung cancer", 1324),
    ("colorectal cancer", 9256),
    ("prostate cancer", 10283),
    ("ovarian cancer", 2394),
    ("pancreatic cancer", 1793),
    ("liver cancer", 3571),
    ("melanoma", 1909),
    ("leukemia", 1240),
    ("glioblastoma", 3068),
    ("gastric cancer", 10534),
    ("kidney cancer", 263),
];
const TISSUES: [&str; 14] = [
    "breast", "lung", "colon", "prostate", "ovary", "pancreas", "liver", "skin", "blood", "brain",
    "stomach", "kidney", "thyroid", "bladder",
];
const AA: [&str; 10] = ["A", "R", "N", "D", "C", "Q", "E", "G", "H", "L"];

/// The OncoMX schema: 25 tables, 106 columns (asserted by crate tests).
pub fn schema() -> Schema {
    use ColumnType::*;
    Schema::new("oncomx")
        .with_table(TableDef::new(
            "species",
            vec![
                Column::pk("speciesid", Int),
                Column::new("species", Text),
                Column::new("common_name", Text),
                Column::new("genome_assembly", Text),
            ],
        ))
        .with_table(TableDef::new(
            "gene",
            vec![
                Column::pk("id", Int),
                Column::new("gene_symbol", Text),
                Column::new("ensembl_gene_id", Text),
                Column::new("speciesid", Int),
                Column::new("chromosome", Text),
                Column::new("num_transcripts", Int),
            ],
        ))
        .with_table(TableDef::new(
            "disease",
            vec![
                Column::pk("id", Int),
                Column::new("name", Text),
                Column::new("doid", Int),
            ],
        ))
        .with_table(TableDef::new(
            "anatomical_entity",
            vec![
                Column::pk("id", Text),
                Column::new("name", Text),
                Column::new("description", Text),
            ],
        ))
        .with_table(TableDef::new(
            "stage",
            vec![Column::pk("id", Int), Column::new("name", Text)],
        ))
        .with_table(TableDef::new(
            "biomarker",
            vec![
                Column::pk("id", Int),
                Column::new("biomarker_internal_id", Text),
                Column::new("gene", Int),
                Column::new("test_is_a_panel", Bool),
                Column::new("biomarker_description", Text),
                Column::new("biomarker_origin", Text),
                Column::new("test_trade_name", Text),
                Column::new("test_manufacturer", Text),
            ],
        ))
        .with_table(TableDef::new(
            "biomarker_fda",
            vec![
                Column::pk("id", Int),
                Column::new("biomarker", Int),
                Column::new("test_submission", Text),
                Column::new("test_trade_name", Text),
                Column::new("approved_indication", Text),
                Column::new("clinical_significance", Text),
            ],
        ))
        .with_table(TableDef::new(
            "biomarker_fda_test",
            vec![
                Column::pk("id", Int),
                Column::new("biomarker_fda", Int),
                Column::new("test_number", Text),
                Column::new("platform_method", Text),
            ],
        ))
        .with_table(TableDef::new(
            "biomarker_fda_test_use",
            vec![
                Column::pk("id", Int),
                Column::new("fda_test", Int),
                Column::new("approved_indication", Text),
                Column::new("actual_use", Text),
            ],
        ))
        .with_table(TableDef::new(
            "biomarker_fda_drug",
            vec![
                Column::pk("id", Int),
                Column::new("biomarker_fda", Int),
                Column::new("drug_name", Text),
            ],
        ))
        .with_table(TableDef::new(
            "biomarker_edrn",
            vec![
                Column::pk("id", Int),
                Column::new("biomarker", Int),
                Column::new("qa_state", Text),
                Column::new("phase", Int),
                Column::new("biomarker_type", Text),
                Column::new("disease", Int),
                Column::new("anatomical_entity", Text),
            ],
        ))
        .with_table(TableDef::new(
            "biomarker_alias",
            vec![
                Column::pk("id", Int),
                Column::new("biomarker", Int),
                Column::new("alias", Text),
            ],
        ))
        .with_table(TableDef::new(
            "biomarker_article",
            vec![
                Column::pk("id", Int),
                Column::new("biomarker", Int),
                Column::new("pmid", Int),
            ],
        ))
        .with_table(TableDef::new(
            "biomarker_disease",
            vec![
                Column::pk("id", Int),
                Column::new("biomarker", Int),
                Column::new("disease", Int),
            ],
        ))
        .with_table(TableDef::new(
            "healthy_expression",
            vec![
                Column::pk("id", Int),
                Column::new("gene", Int),
                Column::new("anatomical_entity", Text),
                Column::new("expression_score", Float),
                Column::new("expression_level_gene", Text),
                Column::new("call_quality", Text),
                Column::new("speciesid", Int),
            ],
        ))
        .with_table(TableDef::new(
            "expression_call_source",
            vec![
                Column::pk("id", Int),
                Column::new("healthy_expression", Int),
                Column::new("source_name", Text),
            ],
        ))
        .with_table(TableDef::new(
            "differential_expression",
            vec![
                Column::pk("id", Int),
                Column::new("gene", Int),
                Column::new("disease", Int),
                Column::new("log2fc", Float),
                Column::new("adjpvalue", Float),
                Column::new("expression_change_direction", Text),
                Column::new("subjects_up", Int),
                Column::new("subjects_down", Int),
            ],
        ))
        .with_table(TableDef::new(
            "cancer_tissue",
            vec![
                Column::pk("id", Int),
                Column::new("disease", Int),
                Column::new("anatomical_entity", Text),
            ],
        ))
        .with_table(TableDef::new(
            "mutation",
            vec![
                Column::pk("id", Int),
                Column::new("gene", Int),
                Column::new("disease", Int),
                Column::new("chromosome_pos", Int),
                Column::new("ref_aa", Text),
                Column::new("alt_aa", Text),
                Column::new("mutation_freq", Float),
                Column::new("data_source", Text),
            ],
        ))
        .with_table(TableDef::new(
            "mutation_impact",
            vec![
                Column::pk("id", Int),
                Column::new("mutation", Int),
                Column::new("impact_prediction", Text),
            ],
        ))
        .with_table(TableDef::new(
            "disease_stage",
            vec![
                Column::pk("id", Int),
                Column::new("disease", Int),
                Column::new("stage", Int),
            ],
        ))
        .with_table(TableDef::new(
            "drug",
            vec![
                Column::pk("id", Int),
                Column::new("drug_name", Text),
                Column::new("chembl_id", Text),
            ],
        ))
        .with_table(TableDef::new(
            "disease_drug",
            vec![
                Column::pk("id", Int),
                Column::new("disease", Int),
                Column::new("drug", Int),
                Column::new("approval_status", Text),
            ],
        ))
        .with_table(TableDef::new(
            "xref",
            vec![
                Column::pk("id", Int),
                Column::new("gene", Int),
                Column::new("db_accession", Text),
            ],
        ))
        .with_table(TableDef::new(
            "map_uniprot",
            vec![Column::pk("uniprot_ac", Text), Column::new("gene", Int)],
        ))
        .with_fk(ForeignKey::new("gene", "speciesid", "species", "speciesid"))
        .with_fk(ForeignKey::new("biomarker", "gene", "gene", "id"))
        .with_fk(ForeignKey::new(
            "biomarker_fda",
            "biomarker",
            "biomarker",
            "id",
        ))
        .with_fk(ForeignKey::new(
            "biomarker_fda_test",
            "biomarker_fda",
            "biomarker_fda",
            "id",
        ))
        .with_fk(ForeignKey::new(
            "biomarker_fda_test_use",
            "fda_test",
            "biomarker_fda_test",
            "id",
        ))
        .with_fk(ForeignKey::new(
            "biomarker_fda_drug",
            "biomarker_fda",
            "biomarker_fda",
            "id",
        ))
        .with_fk(ForeignKey::new(
            "biomarker_edrn",
            "biomarker",
            "biomarker",
            "id",
        ))
        .with_fk(ForeignKey::new(
            "biomarker_edrn",
            "disease",
            "disease",
            "id",
        ))
        .with_fk(ForeignKey::new(
            "biomarker_edrn",
            "anatomical_entity",
            "anatomical_entity",
            "id",
        ))
        .with_fk(ForeignKey::new(
            "biomarker_alias",
            "biomarker",
            "biomarker",
            "id",
        ))
        .with_fk(ForeignKey::new(
            "biomarker_article",
            "biomarker",
            "biomarker",
            "id",
        ))
        .with_fk(ForeignKey::new(
            "biomarker_disease",
            "biomarker",
            "biomarker",
            "id",
        ))
        .with_fk(ForeignKey::new(
            "biomarker_disease",
            "disease",
            "disease",
            "id",
        ))
        .with_fk(ForeignKey::new("healthy_expression", "gene", "gene", "id"))
        .with_fk(ForeignKey::new(
            "healthy_expression",
            "anatomical_entity",
            "anatomical_entity",
            "id",
        ))
        .with_fk(ForeignKey::new(
            "healthy_expression",
            "speciesid",
            "species",
            "speciesid",
        ))
        .with_fk(ForeignKey::new(
            "expression_call_source",
            "healthy_expression",
            "healthy_expression",
            "id",
        ))
        .with_fk(ForeignKey::new(
            "differential_expression",
            "gene",
            "gene",
            "id",
        ))
        .with_fk(ForeignKey::new(
            "differential_expression",
            "disease",
            "disease",
            "id",
        ))
        .with_fk(ForeignKey::new("cancer_tissue", "disease", "disease", "id"))
        .with_fk(ForeignKey::new(
            "cancer_tissue",
            "anatomical_entity",
            "anatomical_entity",
            "id",
        ))
        .with_fk(ForeignKey::new("mutation", "gene", "gene", "id"))
        .with_fk(ForeignKey::new("mutation", "disease", "disease", "id"))
        .with_fk(ForeignKey::new(
            "mutation_impact",
            "mutation",
            "mutation",
            "id",
        ))
        .with_fk(ForeignKey::new("disease_stage", "disease", "disease", "id"))
        .with_fk(ForeignKey::new("disease_stage", "stage", "stage", "id"))
        .with_fk(ForeignKey::new("disease_drug", "disease", "disease", "id"))
        .with_fk(ForeignKey::new("disease_drug", "drug", "drug", "id"))
        .with_fk(ForeignKey::new("xref", "gene", "gene", "id"))
        .with_fk(ForeignKey::new("map_uniprot", "gene", "gene", "id"))
}

/// Build the populated domain at a size class.
pub fn build(size: SizeClass) -> DomainData {
    let mut rng = StdRng::seed_from_u64(0x04C0_4D58);
    let schema = schema();
    let mut db = Database::new(schema);
    let d = size.divisor();

    let n_genes = scaled(60_000.0, d, 48).max(GENES.len());
    let n_biomarkers = scaled(4_000.0, d, 40);
    let n_fda = scaled(1_200.0, d, 20);
    let n_fda_test = scaled(1_500.0, d, 20);
    let n_fda_test_use = scaled(1_800.0, d, 20);
    let n_fda_drug = scaled(900.0, d, 15);
    let n_edrn = scaled(1_000.0, d, 25);
    let n_alias = scaled(6_000.0, d, 30);
    let n_article = scaled(8_000.0, d, 30);
    let n_bio_disease = scaled(5_000.0, d, 30);
    let n_healthy = scaled(28_000_000.0, d, 300);
    let n_call_source = scaled(3_000_000.0, d, 80);
    let n_diff = scaled(12_000_000.0, d, 200);
    let n_mutation = scaled(20_000_000.0, d, 200);
    let n_mut_impact = scaled(2_000_000.0, d, 60);
    let n_xref = scaled(800_000.0, d, 60);
    let n_uniprot = scaled(70_000.0, d, 40);
    let n_drugs = scaled(2_500.0, d, 25);
    let n_disease_drug = scaled(6_000.0, d, 30);

    {
        let mut t = db.table_mut("species").unwrap();
        t.push_rows(vec![
            vec![
                Value::Int(9606),
                "Homo sapiens".into(),
                "human".into(),
                "GRCh38".into(),
            ],
            vec![
                Value::Int(10090),
                "Mus musculus".into(),
                "mouse".into(),
                "GRCm39".into(),
            ],
        ]);
    }
    {
        let mut t = db.table_mut("disease").unwrap();
        for (i, (name, doid)) in DISEASES.iter().enumerate() {
            t.push_rows(vec![vec![
                Value::Int(i as i64 + 1),
                (*name).into(),
                Value::Int(*doid),
            ]]);
        }
    }
    {
        let mut t = db.table_mut("anatomical_entity").unwrap();
        for (i, tissue) in TISSUES.iter().enumerate() {
            t.push_rows(vec![vec![
                format!("UBERON:{:07}", 1000 + i).into(),
                (*tissue).into(),
                format!("the {tissue} tissue").into(),
            ]]);
        }
    }
    {
        let mut t = db.table_mut("stage").unwrap();
        for (i, s) in ["stage I", "stage II", "stage III", "stage IV"]
            .iter()
            .enumerate()
        {
            t.push_rows(vec![vec![Value::Int(i as i64 + 1), (*s).into()]]);
        }
    }
    {
        let mut t = db.table_mut("gene").unwrap();
        for i in 0..n_genes {
            let symbol = GENES
                .get(i)
                .map(|s| s.to_string())
                .unwrap_or_else(|| format!("GENE{i:05}"));
            t.push_rows(vec![vec![
                Value::Int(i as i64 + 1),
                symbol.into(),
                format!("ENSG{:011}", 100_000 + i).into(),
                Value::Int(if i % 9 == 8 { 10090 } else { 9606 }),
                format!("{}", 1 + i % 22).into(),
                Value::Int(rng.gen_range(1..30)),
            ]]);
        }
    }
    {
        let mut t = db.table_mut("biomarker").unwrap();
        for i in 0..n_biomarkers {
            // Famous genes are heavily studied: Zipf over the gene list.
            let gene = zipf(&mut rng, n_genes, 1.1) as i64 + 1;
            t.push_rows(vec![vec![
                Value::Int(i as i64 + 1),
                format!("ONX_{i:05}").into(),
                Value::Int(gene),
                Value::Bool(rng.gen_bool(0.2)),
                format!("biomarker {i} measuring gene activity").into(),
                ["FDA", "EDRN"][i % 2].into(),
                format!("OncoTest {i}").into(),
                ["Roche", "Abbott", "Illumina", "QIAGEN"][i % 4].into(),
            ]]);
        }
    }
    fanout(&mut db, "biomarker_fda", n_fda, |rng, i| {
        vec![
            Value::Int(i as i64 + 1),
            Value::Int(rng.gen_range(0..n_biomarkers as i64) + 1),
            format!("P{:06}", 100_000 + i).into(),
            format!("FDA Test {i}").into(),
            DISEASES[i % DISEASES.len()].0.into(),
            ["diagnosis", "prognosis", "predisposition", "monitoring"][i % 4].into(),
        ]
    });
    fanout(&mut db, "biomarker_fda_test", n_fda_test, |rng, i| {
        vec![
            Value::Int(i as i64 + 1),
            Value::Int(rng.gen_range(0..n_fda as i64) + 1),
            format!("T{:05}", i).into(),
            ["PCR", "NGS", "IHC", "FISH"][i % 4].into(),
        ]
    });
    fanout(
        &mut db,
        "biomarker_fda_test_use",
        n_fda_test_use,
        |rng, i| {
            vec![
                Value::Int(i as i64 + 1),
                Value::Int(rng.gen_range(0..n_fda_test as i64) + 1),
                DISEASES[i % DISEASES.len()].0.into(),
                ["approved", "investigational"][i % 2].into(),
            ]
        },
    );
    fanout(&mut db, "biomarker_fda_drug", n_fda_drug, |rng, i| {
        vec![
            Value::Int(i as i64 + 1),
            Value::Int(rng.gen_range(0..n_fda as i64) + 1),
            format!("drug-{}", i % 40).into(),
        ]
    });
    fanout(&mut db, "biomarker_edrn", n_edrn, |rng, i| {
        vec![
            Value::Int(i as i64 + 1),
            Value::Int(rng.gen_range(0..n_biomarkers as i64) + 1),
            ["Accepted", "Under Review", "Curated"][i % 3].into(),
            Value::Int(rng.gen_range(1..=5)),
            ["Genomic", "Proteomic", "Metabolomic", "Glycomic"][i % 4].into(),
            Value::Int(rng.gen_range(0..DISEASES.len() as i64) + 1),
            format!("UBERON:{:07}", 1000 + i % TISSUES.len()).into(),
        ]
    });
    fanout(&mut db, "biomarker_alias", n_alias, |rng, i| {
        vec![
            Value::Int(i as i64 + 1),
            Value::Int(rng.gen_range(0..n_biomarkers as i64) + 1),
            format!("ALIAS-{i}").into(),
        ]
    });
    fanout(&mut db, "biomarker_article", n_article, |rng, i| {
        vec![
            Value::Int(i as i64 + 1),
            Value::Int(rng.gen_range(0..n_biomarkers as i64) + 1),
            Value::Int(20_000_000 + i as i64),
        ]
    });
    fanout(&mut db, "biomarker_disease", n_bio_disease, |rng, i| {
        vec![
            Value::Int(i as i64 + 1),
            Value::Int(rng.gen_range(0..n_biomarkers as i64) + 1),
            Value::Int(zipf(rng, DISEASES.len(), 0.7) as i64 + 1),
        ]
    });
    fanout(&mut db, "healthy_expression", n_healthy, |rng, i| {
        let score = float_in(rng, 0.0, 100.0, 2);
        let level = if score > 66.0 {
            "HIGH"
        } else if score > 33.0 {
            "MEDIUM"
        } else {
            "LOW"
        };
        vec![
            Value::Int(i as i64 + 1),
            Value::Int(rng.gen_range(0..n_genes as i64) + 1),
            format!("UBERON:{:07}", 1000 + zipf(rng, TISSUES.len(), 0.5)).into(),
            Value::Float(score),
            level.into(),
            ["GOLD", "SILVER", "BRONZE"][zipf(rng, 3, 0.8)].into(),
            Value::Int(if i % 9 == 8 { 10090 } else { 9606 }),
        ]
    });
    fanout(
        &mut db,
        "expression_call_source",
        n_call_source,
        |rng, i| {
            vec![
                Value::Int(i as i64 + 1),
                Value::Int(rng.gen_range(0..n_healthy as i64) + 1),
                ["Bgee", "GTEx", "Affymetrix"][i % 3].into(),
            ]
        },
    );
    fanout(&mut db, "differential_expression", n_diff, |rng, i| {
        let up = rng.gen_bool(0.55);
        let log2fc = if up {
            float_in(rng, 0.1, 8.0, 3)
        } else {
            float_in(rng, -8.0, -0.1, 3)
        };
        let subj_up = rng.gen_range(0..200i64);
        vec![
            Value::Int(i as i64 + 1),
            Value::Int(zipf(rng, n_genes, 0.9) as i64 + 1),
            Value::Int(zipf(rng, DISEASES.len(), 0.7) as i64 + 1),
            Value::Float(log2fc),
            Value::Float(float_in(rng, 1e-12, 0.05, 12)),
            if up { "up" } else { "down" }.into(),
            Value::Int(subj_up),
            Value::Int(rng.gen_range(0..200i64)),
        ]
    });
    fanout(&mut db, "cancer_tissue", DISEASES.len(), |_, i| {
        vec![
            Value::Int(i as i64 + 1),
            Value::Int(i as i64 + 1),
            format!("UBERON:{:07}", 1000 + i % TISSUES.len()).into(),
        ]
    });
    fanout(&mut db, "mutation", n_mutation, |rng, i| {
        vec![
            Value::Int(i as i64 + 1),
            Value::Int(zipf(rng, n_genes, 0.9) as i64 + 1),
            Value::Int(zipf(rng, DISEASES.len(), 0.7) as i64 + 1),
            Value::Int(rng.gen_range(10_000..250_000_000i64)),
            AA[rng.gen_range(0..AA.len())].into(),
            AA[rng.gen_range(0..AA.len())].into(),
            Value::Float(float_in(rng, 0.0001, 0.6, 4)),
            ["TCGA", "ICGC", "COSMIC"][zipf(rng, 3, 0.6)].into(),
        ]
    });
    fanout(&mut db, "mutation_impact", n_mut_impact, |rng, i| {
        vec![
            Value::Int(i as i64 + 1),
            Value::Int(rng.gen_range(0..n_mutation as i64) + 1),
            ["HIGH", "MODERATE", "LOW", "MODIFIER"][zipf(rng, 4, 0.6)].into(),
        ]
    });
    fanout(&mut db, "disease_stage", DISEASES.len() * 4, |_, i| {
        vec![
            Value::Int(i as i64 + 1),
            Value::Int((i / 4) as i64 + 1),
            Value::Int((i % 4) as i64 + 1),
        ]
    });
    fanout(&mut db, "drug", n_drugs, |_, i| {
        vec![
            Value::Int(i as i64 + 1),
            format!("drug-{i}").into(),
            format!("CHEMBL{:06}", 10_000 + i).into(),
        ]
    });
    fanout(&mut db, "disease_drug", n_disease_drug, |rng, i| {
        vec![
            Value::Int(i as i64 + 1),
            Value::Int(zipf(rng, DISEASES.len(), 0.7) as i64 + 1),
            Value::Int(rng.gen_range(0..n_drugs as i64) + 1),
            ["approved", "phase III", "phase II", "withdrawn"][zipf(rng, 4, 0.6)].into(),
        ]
    });
    fanout(&mut db, "xref", n_xref, |rng, i| {
        vec![
            Value::Int(i as i64 + 1),
            Value::Int(rng.gen_range(0..n_genes as i64) + 1),
            format!("XR_{:07}", i).into(),
        ]
    });
    fanout(&mut db, "map_uniprot", n_uniprot, |rng, i| {
        vec![
            format!("P{:05}", 10_000 + i).into(),
            Value::Int(rng.gen_range(0..n_genes as i64) + 1),
        ]
    });

    let enhanced = enhance(&db);
    DomainData {
        db,
        enhanced,
        real_rows: REAL_ROWS,
        real_bytes: REAL_BYTES,
        seed_patterns: seed_patterns(),
    }
}

fn fanout(
    db: &mut Database,
    table: &str,
    n: usize,
    mut row: impl FnMut(&mut StdRng, usize) -> Vec<Value>,
) {
    // Per-table RNG stream keyed on the table name keeps generation
    // order-independent and deterministic.
    let seed = table
        .bytes()
        .fold(0u64, |acc, b| acc.wrapping_mul(31).wrapping_add(b as u64));
    let mut rng = StdRng::seed_from_u64(0x0C0_0000 ^ seed);
    let mut t = db.table_mut(table).unwrap();
    for i in 0..n {
        t.push_rows(vec![row(&mut rng, i)]);
    }
}

/// One-shot expert refinement of the enhanced schema.
fn enhance(db: &Database) -> EnhancedSchema {
    let profile = db.profile();
    let mut e = EnhancedSchema::infer(db.schema.clone(), &profile);
    e.set_table_alias("differential_expression", "differential gene expression");
    e.set_table_alias("healthy_expression", "healthy gene expression");
    e.set_table_alias("anatomical_entity", "anatomical entity");
    e.set_column_alias("differential_expression", "log2fc", "log2 fold change");
    e.set_column_alias("differential_expression", "adjpvalue", "adjusted p value");
    e.set_column_alias("gene", "gene_symbol", "gene symbol");
    e.set_column_alias("mutation", "mutation_freq", "mutation frequency");
    e.set_column_alias("mutation", "ref_aa", "reference amino acid");
    e.set_column_alias("mutation", "alt_aa", "alternate amino acid");
    e.set_column_alias("healthy_expression", "expression_score", "expression score");
    e.set_column_alias(
        "healthy_expression",
        "expression_level_gene",
        "expression level",
    );
    for (t, c) in [
        ("healthy_expression", "expression_level_gene"),
        ("healthy_expression", "call_quality"),
        ("differential_expression", "expression_change_direction"),
        ("mutation", "ref_aa"),
        ("mutation", "alt_aa"),
        ("mutation_impact", "impact_prediction"),
        ("biomarker_edrn", "phase"),
        ("biomarker_edrn", "qa_state"),
        ("biomarker_edrn", "biomarker_type"),
        ("biomarker_fda", "clinical_significance"),
        ("gene", "chromosome"),
        ("disease_drug", "approval_status"),
    ] {
        e.set_categorical(t, c, true);
    }
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
    e.set_math_group("differential_expression", "subjects_up", "subjects");
    e.set_math_group("differential_expression", "subjects_down", "subjects");
    for (t, c) in [
        ("differential_expression", "log2fc"),
        ("differential_expression", "adjpvalue"),
        ("healthy_expression", "expression_score"),
        ("mutation", "mutation_freq"),
        ("gene", "gene_symbol"),
        ("disease", "name"),
    ] {
        e.set_categorical(t, c, false);
    }
    e.set_non_aggregatable("mutation", "chromosome_pos", true);
    e.set_non_aggregatable("biomarker_article", "pmid", true);
    e.set_non_aggregatable("disease", "doid", true);
    e
}

/// Hand-authored seed SQL patterns — including the paper's "Show
/// biomarkers for breast cancer" multi-join example.
pub fn seed_patterns() -> Vec<String> {
    [
        // -- Easy --
        "SELECT g.gene_symbol FROM gene AS g WHERE g.chromosome = '17'",
        "SELECT d.name FROM disease AS d WHERE d.doid = 1612",
        "SELECT b.biomarker_internal_id FROM biomarker AS b WHERE b.test_manufacturer = 'Roche'",
        "SELECT COUNT(*) FROM mutation AS m WHERE m.ref_aa = 'A'",
        "SELECT a.name FROM anatomical_entity AS a",
        // -- Medium (incl. the paper's breast-cancer biomarker example) --
        "SELECT b.biomarker_internal_id FROM biomarker AS b JOIN biomarker_disease AS bd ON bd.biomarker = b.id JOIN disease AS d ON bd.disease = d.id WHERE d.name = 'breast cancer'",
        "SELECT COUNT(*), e.expression_level_gene FROM healthy_expression AS e GROUP BY e.expression_level_gene",
        "SELECT g.gene_symbol FROM gene AS g JOIN mutation AS m ON m.gene = g.id WHERE m.mutation_freq > 0.3",
        "SELECT AVG(de.log2fc) FROM differential_expression AS de WHERE de.expression_change_direction = 'up'",
        "SELECT e.expression_score FROM healthy_expression AS e WHERE e.call_quality = 'GOLD' AND e.expression_level_gene = 'HIGH'",
        "SELECT m.chromosome_pos FROM mutation AS m WHERE m.mutation_freq > 0.2 AND m.ref_aa = 'R'",
        // -- Hard --
        "SELECT g.gene_symbol FROM gene AS g WHERE g.id IN (SELECT de.gene FROM differential_expression AS de WHERE de.log2fc > 4.0)",
        "SELECT COUNT(*), m.alt_aa FROM mutation AS m WHERE m.mutation_freq > 0.1 AND m.ref_aa = 'A' GROUP BY m.alt_aa",
        "SELECT MIN(de.log2fc), MAX(de.log2fc) FROM differential_expression AS de WHERE de.expression_change_direction = 'down' AND de.adjpvalue < 0.01",
        "SELECT de.gene, de.subjects_up - de.subjects_down FROM differential_expression AS de WHERE de.subjects_up - de.subjects_down > 50 AND de.expression_change_direction = 'up'",
        // -- Extra hard --
        "SELECT d.name, COUNT(*) FROM disease AS d JOIN mutation AS m ON m.disease = d.id WHERE m.mutation_freq > 0.05 GROUP BY d.name ORDER BY COUNT(*) DESC LIMIT 5",
        "SELECT g.gene_symbol FROM gene AS g JOIN differential_expression AS de ON de.gene = g.id WHERE de.adjpvalue < 0.01 AND de.log2fc > 2.0 ORDER BY de.log2fc DESC LIMIT 10",
        "SELECT e.anatomical_entity, AVG(e.expression_score) FROM healthy_expression AS e WHERE e.call_quality = 'GOLD' GROUP BY e.anatomical_entity ORDER BY AVG(e.expression_score) DESC LIMIT 3",
        "SELECT g.gene_symbol FROM gene AS g WHERE g.id IN (SELECT m.gene FROM mutation AS m WHERE m.mutation_freq > 0.4) AND g.chromosome = '1'",
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
        assert_eq!(s.tables.len(), 25);
        assert_eq!(s.column_count(), 106);
        assert!(s.validate().is_empty(), "{:?}", s.validate());
    }

    #[test]
    fn famous_genes_exist() {
        let d = build(SizeClass::Tiny);
        let r =
            d.db.run("SELECT g.id FROM gene AS g WHERE g.gene_symbol = 'BRCA1'")
                .unwrap();
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn breast_cancer_biomarker_join_works() {
        let d = build(SizeClass::Small);
        let r =
            d.db.run(
                "SELECT b.biomarker_internal_id FROM biomarker AS b \
                 JOIN biomarker_disease AS bd ON bd.biomarker = b.id \
                 JOIN disease AS d ON bd.disease = d.id WHERE d.name = 'breast cancer'",
            )
            .unwrap();
        assert!(!r.is_empty(), "the paper's motivating query must work");
    }

    #[test]
    fn expression_levels_consistent_with_scores() {
        let d = build(SizeClass::Tiny);
        let r =
            d.db.run(
                "SELECT MIN(e.expression_score) FROM healthy_expression AS e \
                 WHERE e.expression_level_gene = 'HIGH'",
            )
            .unwrap();
        assert!(r.rows[0][0].as_f64().unwrap() > 66.0);
    }
}
