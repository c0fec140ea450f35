//! # sb-nl2sql — trainable NL-to-SQL systems
//!
//! Three from-scratch systems standing in for the paper's baselines
//! (Table 5). GPU training is unavailable, so each system is a *coverage-
//! driven learner*: its competence comes from retrieval indexes and
//! lexicons built from NL/SQL training pairs, which makes accuracy scale
//! with domain coverage exactly as in the paper — zero-shot transfer from
//! the Spider-like corpus to the scientific domains fails, seed pairs
//! help, synthetic pairs help more, and their combination helps most.
//!
//! - [`ValueNetSim`] — sketch retrieval over SemQL templates + grammar
//!   instantiation with **database-content value grounding** (ValueNet's
//!   hallmark per the paper), always emitting executable SQL.
//! - [`T5Sim`] — a translation-memory seq2seq surrogate: nearest training
//!   pair by question embedding + token-level copy-repair against the
//!   target schema. Unconstrained decoding, so it can emit invalid SQL —
//!   matching the paper's "T5-Large **w/o** PICARD".
//! - [`SmBopSim`] — bottom-up candidate construction over
//!   relational-algebra trees, scored by lexical alignment between the
//!   question and the canonical realization of each candidate
//!   (GraPPa-like schema-aware scoring).
//!
//! All three share the [`Linker`] front end: schema-name matching, a
//! *learned* token→column lexicon, and a value index over database
//! content.

pub mod linker;
mod select;
pub mod smbop;
pub mod t5sim;
pub mod valuenet;

pub use linker::{LinkResult, Linker};
pub use smbop::SmBopSim;
pub use t5sim::T5Sim;
pub use valuenet::ValueNetSim;

use sb_engine::Database;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::BuildHasherDefault;

/// A `HashMap` whose hasher has fixed keys. Its iteration order, and with
/// it every tie-break and floating-point sum taken in that order, is the
/// same in every run and every instance, so training and prediction are
/// reproducible. `std`'s default `RandomState` draws new keys per map.
pub(crate) type StableMap<K, V> = HashMap<K, V, BuildHasherDefault<DefaultHasher>>;

/// The `HashSet` counterpart of [`StableMap`].
pub(crate) type StableSet<T> = HashSet<T, BuildHasherDefault<DefaultHasher>>;

/// One NL/SQL training pair, tagged with the database it belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct Pair {
    /// The natural-language question.
    pub nl: String,
    /// The gold SQL query.
    pub sql: String,
    /// The database (schema) name the pair belongs to.
    pub db: String,
}

impl Pair {
    /// Construct a pair.
    pub fn new(nl: impl Into<String>, sql: impl Into<String>, db: impl Into<String>) -> Self {
        Pair {
            nl: nl.into(),
            sql: sql.into(),
            db: db.into(),
        }
    }
}

/// A catalog of databases available during training (the paper's systems
/// see the Spider databases plus the domain database).
pub struct DbCatalog<'a> {
    map: StableMap<String, &'a Database>,
}

impl<'a> DbCatalog<'a> {
    /// Build a catalog from databases, keyed by schema name.
    pub fn new(dbs: impl IntoIterator<Item = &'a Database>) -> Self {
        let mut map = StableMap::default();
        for db in dbs {
            map.insert(db.schema.name.to_ascii_lowercase(), db);
        }
        DbCatalog { map }
    }

    /// Look up a database by name.
    pub fn get(&self, name: &str) -> Option<&'a Database> {
        self.map.get(&name.to_ascii_lowercase()).copied()
    }
}

/// The common interface of the three systems. `Send + Sync` so a trained
/// system can serve predictions from parallel evaluation workers.
pub trait NlToSql: Send + Sync {
    /// The system's display name (as used in Table 5).
    fn name(&self) -> &'static str;

    /// Train (or continue training) on a set of pairs. The catalog
    /// provides the source databases for schema-aware indexing.
    fn train(&mut self, pairs: &[Pair], catalog: &DbCatalog);

    /// Predict SQL for a question against a target database. The returned
    /// string may be invalid SQL (systems differ in how constrained their
    /// decoding is); the evaluation counts anything that fails to execute
    /// as a miss.
    fn predict(&self, question: &str, db: &Database) -> String;
}

/// English stopwords ignored by linking and lexicon learning.
pub(crate) const STOPWORDS: [&str; 68] = [
    "the",
    "a",
    "an",
    "of",
    "in",
    "on",
    "for",
    "to",
    "is",
    "are",
    "was",
    "were",
    "and",
    "or",
    "with",
    "that",
    "which",
    "all",
    "find",
    "show",
    "list",
    "return",
    "give",
    "me",
    "what",
    "whose",
    "their",
    "there",
    "than",
    "as",
    "by",
    "at",
    "from",
    "how",
    "many",
    "much",
    "each",
    "every",
    "per",
    "retrieve",
    "records",
    "record",
    "where",
    // Aggregate / comparison / ordering scaffolding: these describe the
    // query shape, not the schema, and must not accumulate lexicon votes.
    "maximum",
    "minimum",
    "average",
    "total",
    "count",
    "number",
    "sum",
    "greater",
    "less",
    "least",
    "most",
    "smaller",
    "larger",
    "highest",
    "lowest",
    "equals",
    "exactly",
    "between",
    "above",
    "below",
    "related",
    "together",
    "ordered",
    "descending",
    "ascending",
];

/// Whether a token is a stopword.
pub(crate) fn is_stopword(token: &str) -> bool {
    STOPWORDS.contains(&token)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_schema::Schema;

    #[test]
    fn catalog_lookup_is_case_insensitive() {
        let db = Database::new(Schema::new("SDSS"));
        let cat = DbCatalog::new([&db]);
        assert!(cat.get("sdss").is_some());
        assert!(cat.get("cordis").is_none());
    }

    #[test]
    fn stopwords_cover_question_scaffolding() {
        for w in ["find", "the", "of", "how", "many"] {
            assert!(is_stopword(w));
        }
        assert!(!is_stopword("redshift"));
    }
}
