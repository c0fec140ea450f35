//! Data profiles: per-column statistics extracted from database content.
//!
//! The enhanced-schema inference ([`crate::EnhancedSchema::infer`]) consumes
//! a [`DataProfile`] rather than the data itself, keeping this crate free of
//! a dependency on the execution engine. The engine (`sb-engine`) produces
//! profiles from its in-memory tables.

use std::collections::HashMap;

/// Statistics about one column's content.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ColumnProfile {
    /// Number of non-null values.
    pub count: usize,
    /// Number of distinct non-null values.
    pub distinct: usize,
    /// Minimum numeric value (numeric columns only).
    pub min: Option<f64>,
    /// Maximum numeric value (numeric columns only).
    pub max: Option<f64>,
    /// Up to a handful of sample values rendered as SQL literals, most
    /// frequent first. Used by value samplers and schema linkers.
    pub frequent_values: Vec<String>,
}

impl ColumnProfile {
    /// Distinct-to-count ratio in `[0, 1]`; 0 when the column is empty.
    pub fn selectivity(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.distinct as f64 / self.count as f64
        }
    }

    /// Heuristic: low-cardinality columns are categorical. The paper's
    /// example is `class` in `specobj` with a handful of values, versus
    /// `ra` with millions.
    pub fn looks_categorical(&self) -> bool {
        self.count >= 10 && (self.distinct <= 50 || self.selectivity() < 0.01)
    }
}

/// Per-column profiles for an entire database, keyed by
/// `(lower(table), lower(column))`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DataProfile {
    columns: HashMap<(String, String), ColumnProfile>,
    rows: HashMap<String, usize>,
}

impl DataProfile {
    /// Create an empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the profile for one column.
    pub fn insert(&mut self, table: &str, column: &str, profile: ColumnProfile) {
        self.columns.insert(
            (table.to_ascii_lowercase(), column.to_ascii_lowercase()),
            profile,
        );
    }

    /// Record a table's row count.
    pub fn set_row_count(&mut self, table: &str, rows: usize) {
        self.rows.insert(table.to_ascii_lowercase(), rows);
    }

    /// Profile for one column, if recorded.
    pub fn column(&self, table: &str, column: &str) -> Option<&ColumnProfile> {
        self.columns
            .get(&(table.to_ascii_lowercase(), column.to_ascii_lowercase()))
    }

    /// Row count for a table, if recorded.
    pub fn row_count(&self, table: &str) -> Option<usize> {
        self.rows.get(&table.to_ascii_lowercase()).copied()
    }

    /// Number of profiled columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// Whether no columns are profiled.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categorical_heuristic() {
        let class = ColumnProfile {
            count: 10_000,
            distinct: 3,
            ..Default::default()
        };
        assert!(class.looks_categorical());

        let ra = ColumnProfile {
            count: 10_000,
            distinct: 9_950,
            ..Default::default()
        };
        assert!(!ra.looks_categorical());

        let tiny = ColumnProfile {
            count: 4,
            distinct: 2,
            ..Default::default()
        };
        assert!(!tiny.looks_categorical(), "tiny tables are inconclusive");
    }

    #[test]
    fn profile_lookup_case_insensitive() {
        let mut p = DataProfile::new();
        p.insert(
            "SpecObj",
            "Class",
            ColumnProfile {
                count: 5,
                ..Default::default()
            },
        );
        assert!(p.column("specobj", "CLASS").is_some());
        p.set_row_count("SpecObj", 42);
        assert_eq!(p.row_count("specobj"), Some(42));
    }

    #[test]
    fn selectivity_bounds() {
        let p = ColumnProfile {
            count: 100,
            distinct: 100,
            ..Default::default()
        };
        assert!((p.selectivity() - 1.0).abs() < f64::EPSILON);
        assert_eq!(ColumnProfile::default().selectivity(), 0.0);
    }
}
