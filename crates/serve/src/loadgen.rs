//! The serve load workload: the request mix that the serve tests and
//! the benchmark's serve workloads (`sbbench/`) replay against a
//! [`QueryService`](crate::QueryService). This module generates
//! statements; it runs no load and measures nothing.
//!
//! ## Workload determinism
//!
//! The workload is a pure function of `(snapshot, seed, request
//! index)`, never of the client count:
//!
//! - request `i`'s statement comes from
//!   [`sb_fuzz::workload_query`] via [`workload_sql`], which mixes a
//!   small *hot set* (three out of four requests replay one of
//!   [`LoadConfig::hot_set`] statements, exercising the plan cache the
//!   way real templated traffic does) with a cold tail of fresh
//!   statements;
//! - a replay with `n` clients gives client `c` exactly the indices
//!   `i % n == c`.
//!
//! Re-running at any client count generates the identical multiset of
//! requests — `tests/loadgen_determinism.rs` pins the workload bytes at
//! 1, 4 and 16 clients.

use sb_engine::Database;

/// Workload knobs. [`Default`] is the mix the serve tests and the
/// benchmark replay.
#[derive(Debug, Clone, Copy)]
pub struct LoadConfig {
    /// Workload seed.
    pub seed: u64,
    /// Size of the hot statement set (indices `0..hot_set` of the
    /// workload stream double as the hot statements).
    pub hot_set: usize,
    /// Every `hot_every`-th request is a cold (fresh) statement; the
    /// rest replay the hot set.
    pub hot_every: usize,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            seed: 0xC0FFEE,
            hot_set: 16,
            hot_every: 4,
        }
    }
}

/// The statement for request `index`: hot-set replay or cold tail, a
/// pure function of `(db, cfg.seed, index)`.
pub fn workload_sql(db: &Database, cfg: &LoadConfig, index: u64) -> String {
    let effective =
        if cfg.hot_every > 0 && !index.is_multiple_of(cfg.hot_every as u64) && cfg.hot_set > 0 {
            index % cfg.hot_set as u64
        } else {
            index
        };
    sb_fuzz::workload_query(db, cfg.seed, effective).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_data::Domain;

    #[test]
    fn hot_set_mixing_is_a_pure_function_of_the_index() {
        let db = sb_fuzz::fuzz_database(Domain::Sdss);
        let cfg = LoadConfig {
            hot_set: 4,
            hot_every: 4,
            ..LoadConfig::default()
        };
        // Indices 1..4 replay hot statements 1..3; index 5 maps to hot
        // statement 1 again; multiples of `hot_every` stay cold.
        assert_eq!(workload_sql(&db, &cfg, 5), workload_sql(&db, &cfg, 1));
        assert_ne!(workload_sql(&db, &cfg, 0), workload_sql(&db, &cfg, 4));
    }
}
