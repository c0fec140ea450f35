//! The shared schema-linking front end.
//!
//! Linking maps question tokens to schema elements and database values:
//!
//! 1. **Name matching** — a column or table whose (underscore-split) name
//!    appears in the question links directly. This is all a zero-shot
//!    system has on an unseen schema, and it is exactly what breaks on
//!    cryptic scientific schemas: nothing in "redshift larger than 0.5"
//!    matches a column called `z`.
//! 2. **Learned lexicon** — training pairs vote `question token →
//!    (db, table, column)`: tokens of the NL question are associated with
//!    the schema elements of the gold SQL. Domain training data teaches
//!    the system that "redshift" means `specobj.z` — the mechanism by
//!    which seed/synthetic data lifts accuracy in Table 5.
//! 3. **Value index** — frequent values of every text column are indexed
//!    so that quoted or capitalized entities in the question ground to
//!    `(table, column, value)` candidates (ValueNet's "learns from
//!    database information").

use crate::{is_stopword, Pair, StableMap, StableSet};
use sb_engine::Database;
use sb_schema::ColumnType;
use sb_sql::Literal;

/// A linked schema column with a confidence score.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkedColumn {
    /// Table name.
    pub table: String,
    /// Column name.
    pub column: String,
    /// Link confidence (higher = better).
    pub score: f64,
}

/// The result of linking one question against one database.
#[derive(Debug, Clone, Default)]
pub struct LinkResult {
    /// Tables ranked by evidence.
    pub tables: Vec<(String, f64)>,
    /// Columns ranked by evidence.
    pub columns: Vec<LinkedColumn>,
    /// Grounded values: `(table, column, literal)`.
    pub values: Vec<(String, String, Literal)>,
    /// Bare numbers mentioned in the question, in order.
    pub numbers: Vec<f64>,
}

impl LinkResult {
    /// Best-linked columns of one table, most confident first.
    pub fn columns_of(&self, table: &str) -> Vec<&LinkedColumn> {
        self.columns
            .iter()
            .filter(|c| c.table.eq_ignore_ascii_case(table))
            .collect()
    }

    /// The best table, if any evidence exists.
    pub fn best_table(&self) -> Option<&str> {
        self.tables.first().map(|(t, _)| t.as_str())
    }
}

/// The trainable linker. Value grounding reads the target database's
/// memoized data profile ([`Database::profile`]).
#[derive(Debug, Default, Clone)]
pub struct Linker {
    /// token → (db, table, column) → votes.
    lexicon: StableMap<String, StableMap<(String, String, String), f64>>,
}

impl Linker {
    /// Create an untrained linker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Learn token→column associations from a training pair. `db` is the
    /// pair's source database.
    pub fn learn(&mut self, pair: &Pair, db: &Database) {
        let Ok(query) = sb_sql::parse(&pair.sql) else {
            return;
        };
        // Resolve column references against the schema: alias-qualified
        // references need the FROM bindings.
        let mut bindings: StableMap<String, String> = StableMap::default();
        for s in query.selects() {
            for tr in s.table_refs() {
                if let sb_sql::TableFactor::Table(name) = &tr.factor {
                    if let Some(b) = tr.binding() {
                        bindings.insert(b.to_ascii_lowercase(), name.to_ascii_lowercase());
                    }
                }
            }
        }
        // Columns referenced in WHERE/HAVING carry more signal about what
        // a content word means than projection columns (which are often
        // just ids), so they get double weight.
        let mut filter_cols: Vec<sb_sql::ColumnRef> = Vec::new();
        for s in query.selects() {
            for pred in s.selection.iter().chain(s.having.iter()) {
                struct C<'a>(&'a mut Vec<sb_sql::ColumnRef>);
                impl<'a> sb_sql::visitor::Visitor for C<'a> {
                    fn visit_expr(&mut self, e: &sb_sql::Expr) {
                        if let sb_sql::Expr::Column(c) = e {
                            self.0.push(c.clone());
                        }
                    }
                }
                sb_sql::visitor::walk_expr(pred, &mut C(&mut filter_cols));
            }
        }
        let resolve = |col: &sb_sql::ColumnRef| -> Option<String> {
            match &col.table {
                Some(q) => bindings.get(&q.to_ascii_lowercase()).cloned(),
                None => db
                    .schema
                    .tables
                    .iter()
                    .find(|t| t.column(&col.column).is_some())
                    .map(|t| t.name.to_ascii_lowercase()),
            }
        };
        let mut elements: Vec<(String, String, f64)> = Vec::new();
        for col in sb_sql::visitor::collect_columns(&query) {
            if let Some(table) = resolve(&col) {
                let in_filter = filter_cols.iter().any(|fc| fc == &col);
                elements.push((
                    table,
                    col.column.to_ascii_lowercase(),
                    if in_filter { 2.0 } else { 1.0 },
                ));
            }
        }
        if elements.is_empty() {
            return;
        }
        let total: f64 = elements.iter().map(|(_, _, w)| w).sum();
        let db_name = pair.db.to_ascii_lowercase();
        // Tokens that appear inside the pair's own SQL literals are value
        // mentions ("… where the alias is 'SAILA'"), not paraphrases of
        // the columns they co-occur with; learning them as column
        // vocabulary turns cell values into bogus realization aliases.
        let mut literal_tokens: StableSet<String> = StableSet::default();
        for lit in sb_sql::visitor::collect_literals(&query) {
            match lit {
                sb_sql::Literal::Str(s) => literal_tokens.extend(sb_embed::tokenize(&s)),
                sb_sql::Literal::Int(v) => {
                    literal_tokens.insert(v.to_string());
                }
                sb_sql::Literal::Float(v) => {
                    literal_tokens.insert(v.to_string());
                }
                _ => {}
            }
        }
        let tokens = sb_embed::tokenize(&pair.nl);
        for token in tokens {
            if is_stopword(&token) || token.len() < 3 || literal_tokens.contains(&token) {
                continue;
            }
            // Tokens that literally name a schema element carry no new
            // information — name matching already covers them. The check
            // must mirror the linker's matching (including singular/plural
            // folding), otherwise "stadium" accumulates junk votes because
            // the table is called "stadiums".
            let names_schema = db.schema.tables.iter().any(|t| {
                name_tokens(&t.name)
                    .iter()
                    .any(|p| p == &token || singular_eq(p, &token))
                    || t.columns.iter().any(|c| {
                        name_tokens(&c.name)
                            .iter()
                            .any(|p| p == &token || singular_eq(p, &token))
                    })
            });
            if names_schema {
                continue;
            }
            let entry = self.lexicon.entry(token).or_default();
            for (table, column, w) in &elements {
                *entry
                    .entry((db_name.clone(), table.clone(), column.clone()))
                    .or_insert(0.0) += w / total;
            }
        }
    }

    /// The learned vocabulary of a database: for every `(table, column)`
    /// with lexicon evidence, the strongest associated question token.
    /// Systems use these as realization aliases ("what the users call
    /// this column"), which is how domain training data teaches
    /// `SmBopSim` to speak the domain's language.
    pub fn learned_aliases(&self, db_name: &str) -> Vec<(String, String, String)> {
        let db_name = db_name.to_ascii_lowercase();
        let mut best: StableMap<(String, String), (String, f64)> = StableMap::default();
        for (token, votes) in &self.lexicon {
            // A token only qualifies as a column's alias when the column
            // holds the majority of the token's vote mass in this
            // database — boilerplate words that co-occur with every
            // column never reach a majority and are rejected wholesale.
            let total: f64 = votes
                .iter()
                .filter(|((vdb, _, _), _)| *vdb == db_name)
                .map(|(_, w)| *w)
                .sum();
            for ((vdb, table, column), w) in votes {
                if *vdb != db_name || *w < 0.9 || *w / total < 0.5 {
                    continue;
                }
                let entry = best
                    .entry((table.clone(), column.clone()))
                    .or_insert_with(|| (token.clone(), *w));
                if *w > entry.1 {
                    *entry = (token.clone(), *w);
                }
            }
        }
        let mut out: Vec<(String, String, String)> = best
            .into_iter()
            .map(|((t, c), (tok, _))| (t, c, tok))
            .collect();
        out.sort();
        out
    }

    /// Link a question against a target database.
    pub fn link(&self, question: &str, db: &Database) -> LinkResult {
        let profile = db.profile();
        let _q_lower = question.to_lowercase();
        let mut tokens = sb_embed::tokenize(question);
        // Compound-name matching: "neighbor mode" should link to a column
        // called `neighbormode`, so adjacent-token concatenations join the
        // token pool.
        let bigrams: Vec<String> = tokens
            .windows(2)
            .map(|w| format!("{}{}", w[0], w[1]))
            .collect();
        tokens.extend(bigrams);
        let db_name = db.schema.name.to_ascii_lowercase();

        let mut table_score: StableMap<String, f64> = StableMap::default();
        let mut col_score: StableMap<(String, String), f64> = StableMap::default();

        // 1. Name matching.
        for t in &db.schema.tables {
            let t_lower = t.name.to_ascii_lowercase();
            for part in name_tokens(&t.name) {
                if part.len() >= 3
                    && tokens
                        .iter()
                        .any(|tok| tok == &part || singular_eq(tok, &part))
                {
                    *table_score.entry(t_lower.clone()).or_insert(0.0) += 1.0;
                }
            }
            for c in &t.columns {
                let parts = name_tokens(&c.name);
                let mut hit = 0usize;
                for part in &parts {
                    if tokens
                        .iter()
                        .any(|tok| tok == part || singular_eq(tok, part))
                    {
                        hit += 1;
                    }
                }
                if hit > 0 {
                    let frac = hit as f64 / parts.len() as f64;
                    if frac >= 0.5 {
                        // A full multi-part match ("stadium id" →
                        // `stadium_id`) is far stronger evidence than a
                        // single generic part ("id" → `id`).
                        let strength = 1.2 * hit as f64 * frac;
                        *col_score
                            .entry((t_lower.clone(), c.name.to_ascii_lowercase()))
                            .or_insert(0.0) += strength;
                        *table_score.entry(t_lower.clone()).or_insert(0.0) += 0.3 * strength;
                    }
                }
            }
        }

        // 2. Learned lexicon votes (scoped to this database), scaled by
        //    each column's *share* of the token's vote mass. A
        //    discriminative token ("redshift" → `specobj.z`) concentrates
        //    its mass on one column and votes at full strength; phrasing
        //    boilerplate that large synthetic training sets attach to
        //    every column ("records", "entries") spreads its mass thin
        //    and contributes almost nothing anywhere.
        for tok in &tokens {
            if let Some(votes) = self.lexicon.get(tok) {
                let total: f64 = votes
                    .iter()
                    .filter(|((vdb, _, _), _)| *vdb == db_name)
                    .map(|(_, w)| *w)
                    .sum();
                if total <= 0.0 {
                    continue;
                }
                for ((vdb, table, column), w) in votes {
                    if *vdb == db_name {
                        let share = w / total;
                        let v = share * w.min(3.0);
                        *col_score
                            .entry((table.clone(), column.clone()))
                            .or_insert(0.0) += 0.8 * v;
                        *table_score.entry(table.clone()).or_insert(0.0) += 0.3 * v;
                    }
                }
            }
        }

        // 3. Value grounding from the content index. Matching is on
        //    whole-token sequences, never raw substrings — otherwise the
        //    value 'REC' grounds inside the word "records".
        let plain_tokens = sb_embed::tokenize(question);
        let contains_token_seq = |needle: &str| -> bool {
            let n: Vec<String> = sb_embed::tokenize(needle);
            if n.is_empty() {
                return false;
            }
            plain_tokens
                .windows(n.len())
                .any(|w| w.iter().zip(&n).all(|(a, b)| a == b))
        };
        let mut values = Vec::new();
        for t in &db.schema.tables {
            for c in &t.columns {
                if c.ty != ColumnType::Text {
                    continue;
                }
                if let Some(p) = profile.column(&t.name, &c.name) {
                    for lit in &p.frequent_values {
                        let inner = lit.trim_matches('\'').to_lowercase();
                        if inner.len() >= 2 && contains_token_seq(&inner) {
                            values.push((
                                t.name.to_ascii_lowercase(),
                                c.name.to_ascii_lowercase(),
                                Literal::Str(lit.trim_matches('\'').to_string()),
                            ));
                            *col_score
                                .entry((t.name.to_ascii_lowercase(), c.name.to_ascii_lowercase()))
                                .or_insert(0.0) += 1.0;
                            *table_score
                                .entry(t.name.to_ascii_lowercase())
                                .or_insert(0.0) += 0.5;
                        }
                    }
                }
            }
        }
        // Prefer longer (more specific) grounded values.
        values.sort_by_key(|v| std::cmp::Reverse(literal_len(&v.2)));
        values.dedup_by(|a, b| a.0 == b.0 && a.1 == b.1);

        // 4. Numbers in the question — excluding digits that belong to a
        //    grounded value mention ("city 2" contributes no filter
        //    number).
        let mut numbers = extract_numbers(question);
        for (_, _, v) in &values {
            if let Literal::Str(s) = v {
                for n in extract_numbers(s) {
                    if let Some(pos) = numbers.iter().position(|x| *x == n) {
                        numbers.remove(pos);
                    }
                }
            }
        }

        let mut tables: Vec<(String, f64)> = table_score.into_iter().collect();
        tables.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });
        let mut columns: Vec<LinkedColumn> = col_score
            .into_iter()
            .map(|((table, column), score)| LinkedColumn {
                table,
                column,
                score,
            })
            .collect();
        columns.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| {
                    (a.table.clone(), a.column.clone()).cmp(&(b.table.clone(), b.column.clone()))
                })
        });

        LinkResult {
            tables,
            columns,
            values,
            numbers,
        }
    }
}

/// Underscore-split lower-case parts of an identifier.
pub(crate) fn name_tokens(name: &str) -> Vec<String> {
    name.to_ascii_lowercase()
        .split('_')
        .filter(|p| !p.is_empty())
        .map(str::to_string)
        .collect()
}

/// Whether all name parts of `column` are mentioned in the question
/// tokens (bigram-concatenations included).
pub fn column_mentioned(question_tokens: &[String], column: &str) -> bool {
    let parts = name_tokens(column);
    if parts.is_empty() {
        return false;
    }
    parts
        .iter()
        .all(|p| question_tokens.iter().any(|t| t == p || singular_eq(t, p)))
}

/// Public alias of [`singular_eq`] for sibling modules.
pub(crate) fn singular_eq_pub(a: &str, b: &str) -> bool {
    singular_eq(a, b)
}

/// Crude singular/plural equivalence ("galaxies"/"galaxy", "pets"/"pet").
pub(crate) fn singular_eq(a: &str, b: &str) -> bool {
    let strip = |s: &str| -> String {
        if let Some(base) = s.strip_suffix("ies") {
            format!("{base}y")
        } else if let Some(base) = s.strip_suffix('s') {
            base.to_string()
        } else {
            s.to_string()
        }
    };
    strip(a) == strip(b)
}

fn literal_len(l: &Literal) -> usize {
    match l {
        Literal::Str(s) => s.len(),
        _ => 0,
    }
}

/// Numbers (ints and decimals) in question order.
pub(crate) fn extract_numbers(text: &str) -> Vec<f64> {
    let mut out = Vec::new();
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i].is_ascii_digit() {
            let start = i;
            let mut saw_dot = false;
            while i < bytes.len() && (bytes[i].is_ascii_digit() || (bytes[i] == b'.' && !saw_dot)) {
                if bytes[i] == b'.' {
                    // Only treat as decimal point when followed by digit.
                    if i + 1 >= bytes.len() || !bytes[i + 1].is_ascii_digit() {
                        break;
                    }
                    saw_dot = true;
                }
                i += 1;
            }
            if let Ok(v) = text[start..i].parse::<f64>() {
                out.push(v);
            }
        } else {
            i += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_engine::Value;
    use sb_schema::{Column, Schema, TableDef};

    fn sdss_db() -> Database {
        let schema = Schema::new("sdss")
            .with_table(TableDef::new(
                "specobj",
                vec![
                    Column::pk("specobjid", ColumnType::Int),
                    Column::new("class", ColumnType::Text),
                    Column::new("z", ColumnType::Float),
                ],
            ))
            .with_table(TableDef::new(
                "neighbors",
                vec![
                    Column::new("objid", ColumnType::Int),
                    Column::new("neighbormode", ColumnType::Int),
                ],
            ));
        let mut db = Database::new(schema);
        db.table_mut("specobj").unwrap().push_rows(vec![
            vec![Value::Int(1), "GALAXY".into(), Value::Float(0.5)],
            vec![Value::Int(2), "STAR".into(), Value::Float(0.0)],
        ]);
        db
    }

    #[test]
    fn name_matching_links_spelled_out_columns() {
        let db = sdss_db();
        let l = Linker::new();
        let r = l.link("find objects with neighbor mode equal to 2", &db);
        assert!(r
            .columns
            .iter()
            .any(|c| c.column == "neighbormode" || (c.table == "neighbors")));
        assert_eq!(r.numbers, vec![2.0]);
    }

    #[test]
    fn value_grounding_finds_content() {
        let db = sdss_db();
        let l = Linker::new();
        let r = l.link("show all GALAXY entries", &db);
        assert!(r.values.iter().any(|(t, c, v)| t == "specobj"
            && c == "class"
            && *v == Literal::Str("GALAXY".into())));
    }

    #[test]
    fn cryptic_column_needs_learning() {
        let db = sdss_db();
        let mut l = Linker::new();
        let before = l.link("galaxies with redshift above 0.5", &db);
        assert!(
            !before.columns.iter().any(|c| c.column == "z"),
            "zero-shot linker cannot know that redshift = z"
        );
        // Train on one domain pair.
        l.learn(
            &Pair::new(
                "What is the redshift of spectroscopic objects?",
                "SELECT s.z FROM specobj AS s",
                "sdss",
            ),
            &db,
        );
        let after = l.link("galaxies with redshift above 0.5", &db);
        assert!(
            after.columns.iter().any(|c| c.column == "z"),
            "learned lexicon must map redshift → specobj.z: {:?}",
            after.columns
        );
    }

    #[test]
    fn lexicon_is_database_scoped() {
        let db = sdss_db();
        let other = Database::new(Schema::new("cordis").with_table(TableDef::new(
            "projects",
            vec![Column::pk("unics_id", ColumnType::Int)],
        )));
        let mut l = Linker::new();
        l.learn(
            &Pair::new("redshift question", "SELECT s.z FROM specobj AS s", "sdss"),
            &db,
        );
        let r = l.link("redshift question", &other);
        assert!(r.columns.is_empty(), "votes must not leak across databases");
    }

    #[test]
    fn number_extraction() {
        assert_eq!(extract_numbers("between 0.5 and 1"), vec![0.5, 1.0]);
        assert_eq!(extract_numbers("top 5 results"), vec![5.0]);
        assert!(extract_numbers("no numbers here.").is_empty());
    }

    #[test]
    fn singular_plural_matching() {
        let db = sdss_db();
        let l = Linker::new();
        let r = l.link("list the neighbors of objects", &db);
        assert!(r.tables.iter().any(|(t, _)| t == "neighbors"));
    }
}
