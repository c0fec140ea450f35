//! A Spider-like corpus: small general-knowledge databases with NL-ready
//! schemas.
//!
//! The Yale Spider corpus itself cannot be shipped, so this module builds
//! a family of 24 miniature databases in Spider's style — "pets and
//! entertainment (concerts, orchestras, musicals etc.)", student-made
//! simplicity, spelled-out English column names, a handful of tables and a
//! few hundred rows each (Table 1: Spider averages 3.5 tables, 23 columns
//! and 8.6 K rows per database). Each database follows the same
//! three-table shape (main entity, secondary entity, link relation), which
//! covers every query form the Spider hardness taxonomy exercises.

use crate::util::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sb_engine::{Database, Value};
use sb_schema::{Column, ColumnType, EnhancedSchema, ForeignKey, Schema, TableDef};

/// One Spider-like database with metadata and seed patterns.
#[derive(Debug, Clone)]
pub struct SpiderDb {
    /// The populated database.
    pub db: Database,
    /// Enhanced schema (names are already readable; only generator flags
    /// are set).
    pub enhanced: EnhancedSchema,
    /// Seed SQL patterns spanning the hardness classes.
    pub seed_patterns: Vec<String>,
}

/// The whole corpus.
#[derive(Debug, Clone)]
pub struct SpiderCorpus {
    /// The member databases.
    pub databases: Vec<SpiderDb>,
}

/// Theme: names for one miniature database.
struct Theme {
    db: &'static str,
    ent: &'static str,
    cat: &'static str,
    cat_values: [&'static str; 4],
    m1: &'static str,
    m2: &'static str,
    n1: &'static str,
    ent2: &'static str,
    attr2: &'static str,
    link: &'static str,
}

const THEMES: [Theme; 24] = [
    Theme {
        db: "concert_hall",
        ent: "concert",
        cat: "genre",
        cat_values: ["rock", "pop", "jazz", "classical"],
        m1: "ticket_price",
        m2: "duration_hours",
        n1: "attendance",
        ent2: "stadium",
        attr2: "city",
        link: "performance",
    },
    Theme {
        db: "pet_shelter",
        ent: "pet",
        cat: "pet_type",
        cat_values: ["dog", "cat", "bird", "rabbit"],
        m1: "weight",
        m2: "height",
        n1: "age",
        ent2: "owner",
        attr2: "city",
        link: "adoption",
    },
    Theme {
        db: "college_courses",
        ent: "course",
        cat: "department",
        cat_values: ["math", "physics", "history", "biology"],
        m1: "credits",
        m2: "workload_hours",
        n1: "enrollment",
        ent2: "professor",
        attr2: "office",
        link: "teaching",
    },
    Theme {
        db: "airline_flights",
        ent: "flight",
        cat: "airline",
        cat_values: ["united", "delta", "lufthansa", "klm"],
        m1: "distance",
        m2: "duration_hours",
        n1: "passengers",
        ent2: "airport",
        attr2: "city",
        link: "departure",
    },
    Theme {
        db: "movie_studio",
        ent: "movie",
        cat: "genre",
        cat_values: ["drama", "comedy", "action", "horror"],
        m1: "budget",
        m2: "gross",
        n1: "year",
        ent2: "director",
        attr2: "nationality",
        link: "production",
    },
    Theme {
        db: "book_press",
        ent: "book",
        cat: "category",
        cat_values: ["fiction", "science", "history", "poetry"],
        m1: "price",
        m2: "rating",
        n1: "pages",
        ent2: "author",
        attr2: "country",
        link: "authorship",
    },
    Theme {
        db: "car_dealers",
        ent: "car",
        cat: "maker",
        cat_values: ["toyota", "ford", "bmw", "fiat"],
        m1: "price",
        m2: "horsepower",
        n1: "year",
        ent2: "dealer",
        attr2: "city",
        link: "inventory",
    },
    Theme {
        db: "city_restaurants",
        ent: "restaurant",
        cat: "cuisine",
        cat_values: ["italian", "chinese", "mexican", "thai"],
        m1: "rating",
        m2: "avg_price",
        n1: "capacity",
        ent2: "chef",
        attr2: "specialty",
        link: "employment",
    },
    Theme {
        db: "orchestra_music",
        ent: "orchestra",
        cat: "era",
        cat_values: ["baroque", "romantic", "modern", "classical"],
        m1: "ticket_price",
        m2: "rating",
        n1: "founded_year",
        ent2: "conductor",
        attr2: "nationality",
        link: "engagement",
    },
    Theme {
        db: "school_sports",
        ent: "team",
        cat: "sport",
        cat_values: ["soccer", "basketball", "swimming", "tennis"],
        m1: "win_rate",
        m2: "budget",
        n1: "wins",
        ent2: "coach",
        attr2: "hometown",
        link: "coaching",
    },
    Theme {
        db: "museum_visits",
        ent: "museum",
        cat: "theme",
        cat_values: ["art", "science", "history", "nature"],
        m1: "ticket_price",
        m2: "rating",
        n1: "num_paintings",
        ent2: "visitor",
        attr2: "membership",
        link: "visit",
    },
    Theme {
        db: "tv_shows",
        ent: "show",
        cat: "genre",
        cat_values: ["sitcom", "drama", "reality", "news"],
        m1: "rating",
        m2: "share",
        n1: "episodes",
        ent2: "channel",
        attr2: "country",
        link: "broadcast",
    },
    Theme {
        db: "wine_cellar",
        ent: "wine",
        cat: "grape",
        cat_values: ["merlot", "riesling", "syrah", "pinot"],
        m1: "price",
        m2: "score",
        n1: "year",
        ent2: "winery",
        attr2: "region",
        link: "bottling",
    },
    Theme {
        db: "hospital_staff",
        ent: "physician",
        cat: "specialty",
        cat_values: ["cardiology", "oncology", "surgery", "pediatrics"],
        m1: "salary",
        m2: "experience_years",
        n1: "patients",
        ent2: "ward",
        attr2: "building",
        link: "assignment",
    },
    Theme {
        db: "bank_branches",
        ent: "account",
        cat: "account_type",
        cat_values: ["checking", "savings", "business", "student"],
        m1: "balance",
        m2: "interest_rate",
        n1: "open_year",
        ent2: "branch",
        attr2: "city",
        link: "holding",
    },
    Theme {
        db: "theme_park",
        ent: "ride",
        cat: "ride_type",
        cat_values: ["coaster", "water", "family", "thrill"],
        m1: "max_speed",
        m2: "height_limit",
        n1: "capacity",
        ent2: "operator",
        attr2: "shift",
        link: "operation",
    },
    Theme {
        db: "farm_produce",
        ent: "farm",
        cat: "product",
        cat_values: ["dairy", "grain", "fruit", "vegetable"],
        m1: "acreage",
        m2: "yield_tons",
        n1: "workers",
        ent2: "market",
        attr2: "town",
        link: "supply",
    },
    Theme {
        db: "gym_members",
        ent: "member",
        cat: "plan",
        cat_values: ["basic", "silver", "gold", "platinum"],
        m1: "monthly_fee",
        m2: "weight",
        n1: "visits",
        ent2: "trainer",
        attr2: "certification",
        link: "training",
    },
    Theme {
        db: "shipping_docks",
        ent: "ship",
        cat: "ship_type",
        cat_values: ["cargo", "tanker", "ferry", "cruise"],
        m1: "tonnage",
        m2: "length",
        n1: "built_year",
        ent2: "dock",
        attr2: "harbor",
        link: "mooring",
    },
    Theme {
        db: "game_studio",
        ent: "game",
        cat: "platform",
        cat_values: ["pc", "console", "mobile", "arcade"],
        m1: "price",
        m2: "rating",
        n1: "players",
        ent2: "designer",
        attr2: "country",
        link: "credit",
    },
    Theme {
        db: "county_elections",
        ent: "candidate",
        cat: "party",
        cat_values: ["red", "blue", "green", "independent"],
        m1: "vote_share",
        m2: "funding",
        n1: "votes",
        ent2: "county",
        attr2: "state",
        link: "campaign",
    },
    Theme {
        db: "apartment_rentals",
        ent: "apartment",
        cat: "layout",
        cat_values: ["studio", "one_bed", "two_bed", "loft"],
        m1: "rent",
        m2: "area_sqm",
        n1: "floor",
        ent2: "tenant",
        attr2: "occupation",
        link: "lease",
    },
    Theme {
        db: "coffee_chain",
        ent: "shop",
        cat: "district",
        cat_values: ["downtown", "uptown", "suburb", "airport"],
        m1: "revenue",
        m2: "rating",
        n1: "seats",
        ent2: "manager",
        attr2: "hometown",
        link: "management",
    },
    Theme {
        db: "race_track",
        ent: "driver",
        cat: "league",
        cat_values: ["f1", "rally", "karting", "endurance"],
        m1: "points",
        m2: "avg_speed",
        n1: "podiums",
        ent2: "sponsor",
        attr2: "industry",
        link: "sponsorship",
    },
];

impl SpiderCorpus {
    /// Build the full 24-database corpus (deterministic).
    pub fn build() -> SpiderCorpus {
        SpiderCorpus {
            databases: THEMES
                .iter()
                .enumerate()
                .map(|(i, t)| build_theme(t, i as u64))
                .collect(),
        }
    }

    /// Build only the first `n` databases (cheaper test corpus).
    pub fn build_n(n: usize) -> SpiderCorpus {
        SpiderCorpus {
            databases: THEMES
                .iter()
                .take(n)
                .enumerate()
                .map(|(i, t)| build_theme(t, i as u64))
                .collect(),
        }
    }
}

fn theme_schema(t: &Theme) -> Schema {
    use ColumnType::*;
    let ent_table = format!("{}s", t.ent);
    let ent2_table = format!("{}s", t.ent2);
    let ent_id = format!("{}_id", t.ent);
    let ent2_id = format!("{}_id", t.ent2);
    Schema::new(t.db)
        .with_table(TableDef::new(
            &ent_table,
            vec![
                Column::pk("id", Int),
                Column::new("name", Text),
                Column::new(t.cat, Text),
                Column::new(t.m1, Float),
                Column::new(t.m2, Float),
                Column::new(t.n1, Int),
            ],
        ))
        .with_table(TableDef::new(
            &ent2_table,
            vec![
                Column::pk("id", Int),
                Column::new("name", Text),
                Column::new(t.attr2, Text),
            ],
        ))
        .with_table(TableDef::new(
            t.link,
            vec![
                Column::new(&ent_id, Int),
                Column::new(&ent2_id, Int),
                Column::new("year", Int),
            ],
        ))
        .with_fk(ForeignKey::new(t.link, &ent_id, &ent_table, "id"))
        .with_fk(ForeignKey::new(t.link, &ent2_id, &ent2_table, "id"))
}

fn build_theme(t: &Theme, idx: u64) -> SpiderDb {
    let mut rng = StdRng::seed_from_u64(0x5B1D_E000 + idx);
    let schema = theme_schema(t);
    let mut db = Database::new(schema);
    let n1 = rng.gen_range(80..240usize);
    let n2 = rng.gen_range(20..60usize);
    let nl = rng.gen_range(150..400usize);

    let ent_table = format!("{}s", t.ent);
    let ent2_table = format!("{}s", t.ent2);
    {
        let mut table = db.table_mut(&ent_table).unwrap();
        for i in 0..n1 {
            let cat = t.cat_values[zipf(&mut rng, 4, 0.6)];
            table.push_rows(vec![vec![
                Value::Int(i as i64 + 1),
                format!("{} {}", t.ent, i + 1).into(),
                cat.into(),
                Value::Float(float_in(&mut rng, 5.0, 500.0, 2)),
                Value::Float(float_in(&mut rng, 1.0, 100.0, 2)),
                Value::Int(rng.gen_range(1..2020)),
            ]]);
        }
    }
    {
        let mut table = db.table_mut(&ent2_table).unwrap();
        for i in 0..n2 {
            table.push_rows(vec![vec![
                Value::Int(i as i64 + 1),
                format!("{} {}", t.ent2, i + 1).into(),
                format!("{} {}", t.attr2, 1 + i % 8).into(),
            ]]);
        }
    }
    {
        let mut table = db.table_mut(t.link).unwrap();
        for _ in 0..nl {
            table.push_rows(vec![vec![
                Value::Int(rng.gen_range(0..n1 as i64) + 1),
                Value::Int(rng.gen_range(0..n2 as i64) + 1),
                Value::Int(rng.gen_range(1990..2023)),
            ]]);
        }
    }

    let profile = db.profile();
    let mut enhanced = EnhancedSchema::infer(db.schema.clone(), &profile);
    enhanced.set_categorical(&ent_table, t.cat, true);
    enhanced.set_categorical(&ent_table, t.m1, false);
    enhanced.set_categorical(&ent_table, t.m2, false);
    enhanced.set_categorical(&ent_table, "name", false);
    enhanced.set_categorical(&ent2_table, "name", false);
    enhanced.set_categorical(t.link, "year", true);
    enhanced.set_math_group(&ent_table, t.m1, "measure");
    enhanced.set_math_group(&ent_table, t.m2, "measure");
    enhanced.set_non_aggregatable(&ent_table, t.n1, true);
    enhanced.set_categorical(&ent_table, t.n1, false);

    SpiderDb {
        db,
        enhanced,
        seed_patterns: theme_patterns(t),
    }
}

/// Seed SQL patterns instantiated for a theme, spanning all four hardness
/// classes (the same clause shapes Spider's own training set exercises).
fn theme_patterns(t: &Theme) -> Vec<String> {
    let e = format!("{}s", t.ent);
    let e2 = format!("{}s", t.ent2);
    let eid = format!("{}_id", t.ent);
    let e2id = format!("{}_id", t.ent2);
    let (cat, v0, v1) = (t.cat, t.cat_values[0], t.cat_values[1]);
    let (m1, m2, link) = (t.m1, t.m2, t.link);
    vec![
        // -- Easy --
        format!("SELECT name FROM {e} WHERE {cat} = '{v0}'"),
        format!("SELECT COUNT(*) FROM {e}"),
        format!("SELECT name, {m1} FROM {e}"),
        format!("SELECT AVG({m1}) FROM {e}"),
        // -- Medium --
        format!("SELECT name FROM {e} WHERE {cat} = '{v0}' AND {m1} > 50.0"),
        format!("SELECT COUNT(*), {cat} FROM {e} GROUP BY {cat}"),
        format!(
            "SELECT T2.name FROM {link} AS T1 JOIN {e2} AS T2 ON T1.{e2id} = T2.id \
             WHERE T1.year = 2005"
        ),
        format!("SELECT name FROM {e} WHERE {cat} = '{v0}' OR {cat} = '{v1}'"),
        format!("SELECT MAX({m2}) FROM {e} WHERE {cat} = '{v1}'"),
        // -- Hard --
        format!("SELECT name FROM {e} WHERE {m1} > (SELECT AVG({m1}) FROM {e})"),
        format!("SELECT MIN({m1}), MAX({m1}) FROM {e} WHERE {cat} = '{v0}' AND {m2} > 10.0"),
        format!("SELECT COUNT(*), {cat} FROM {e} WHERE {m1} > 20.0 AND {m2} < 90.0 GROUP BY {cat}"),
        // -- Extra hard --
        format!(
            "SELECT T2.name, COUNT(*) FROM {link} AS T1 JOIN {e} AS T2 ON T1.{eid} = T2.id \
             WHERE T2.{cat} = '{v0}' GROUP BY T2.name ORDER BY COUNT(*) DESC LIMIT 5"
        ),
        format!(
            "SELECT name FROM {e} WHERE {m1} > (SELECT AVG({m1}) FROM {e}) AND {cat} = '{v0}' \
             ORDER BY {m1} DESC LIMIT 3"
        ),
        format!(
            "SELECT T2.name FROM {link} AS T1 JOIN {e2} AS T2 ON T1.{e2id} = T2.id \
             JOIN {e} AS T3 ON T1.{eid} = T3.id WHERE T3.{cat} = '{v1}' AND T1.year > 2000 \
             ORDER BY T3.{m1} DESC LIMIT 5"
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_has_24_databases() {
        let c = SpiderCorpus::build();
        assert_eq!(c.databases.len(), 24);
        for d in &c.databases {
            assert_eq!(d.db.schema.tables.len(), 3);
            assert_eq!(d.db.schema.column_count(), 12);
            assert!(d.db.total_rows() >= 200, "{}", d.db.schema.name);
            assert!(d.db.schema.validate().is_empty());
        }
    }

    #[test]
    fn database_names_are_unique() {
        let c = SpiderCorpus::build();
        let mut names: Vec<&str> = c
            .databases
            .iter()
            .map(|d| d.db.schema.name.as_str())
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 24);
    }

    #[test]
    fn patterns_run_nonempty_on_their_database() {
        // A subset keeps the test fast.
        let c = SpiderCorpus::build_n(4);
        for d in &c.databases {
            for sql in &d.seed_patterns {
                let rs =
                    d.db.run(sql)
                        .unwrap_or_else(|e| panic!("{}: `{sql}`: {e}", d.db.schema.name));
                assert!(!rs.is_empty(), "{}: `{sql}` empty", d.db.schema.name);
            }
        }
    }

    #[test]
    fn corpus_is_deterministic() {
        let a = SpiderCorpus::build_n(2);
        let b = SpiderCorpus::build_n(2);
        assert_eq!(
            a.databases[0].db.total_rows(),
            b.databases[0].db.total_rows()
        );
    }
}
