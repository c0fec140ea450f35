//! The prepared-plan cache: parse and plan a statement **once**, execute
//! the cached plan on every later request with the same text.
//!
//! Serving workloads repeat: the same templated statements arrive over
//! and over, byte for byte. The cache maps the exact request text
//! `(snapshot, sql)` to its prepared entry, so a verbatim repeat pays
//! one `HashMap` probe and skips parse and plan. The text is the whole
//! key: a cosmetic variant (other whitespace or keyword case) is a
//! statement of its own, prepared and cached on its own. The texts the
//! serving workloads send are already the AST printer's canonical form,
//! so a second key by printed form would never hit.
//!
//! A statement that fails to parse is answered with its error but not
//! admitted: garbage text takes no slot and evicts no plan.
//!
//! ## Bounded: CLOCK eviction
//!
//! The cache holds at most the capacity given to
//! [`PlanCache::with_capacity`] (default [`DEFAULT_CAPACITY`]), so
//! memory is bounded by the capacity however many distinct statements
//! arrive.
//!
//! Every miss that parses is admitted. Entries sit in a ring of slots,
//! each with a reference bit that every hit sets. To make room, a hand
//! sweeps the ring: a set bit is cleared and the entry gets a second
//! chance; the first entry found clear has not been hit since the hand
//! last passed, and is evicted. A hit therefore costs one relaxed atomic
//! store under the read lock — no reordering of a recency list, so hits
//! never need the write lock. A statement hit at least once per
//! revolution of the hand is never evicted, however many one-off
//! statements pass through.
//!
//! Eviction decides only *whether* a plan is reused, never what a
//! request returns: an evicted statement is prepared afresh, which
//! produces the same plan.
//!
//! ## Why a cached plan is safe to reuse
//!
//! A [`Prepared`] entry stores the statement AST and the
//! [`sb_opt::PlannedSelect`] that `sb_engine::plan_top_select` planned
//! for it. That is the engine's own plan type, planned through the same
//! code as fresh execution, and a request borrows it as it is. The
//! planner is a pure function of the statement, the snapshot's schema
//! and its row counts — and a service snapshot is immutable — so the
//! cached plan is *the same plan* fresh planning would produce, and
//! execution through it is byte-identical, errors included. This is
//! pinned by the cold/warm equivalence suite in `tests/plan_cache.rs`.
//! Statements the planner does not cover (set operations, derived
//! tables, unknown relations) prepare with `plan: None` and execute
//! through the ordinary path, planning per request as before.
//!
//! One cache instance is bound to one service: the entries embed
//! decisions derived from that service's `ExecOptions` and snapshots,
//! so entries must never be shared across services with different
//! configuration.

use sb_engine::{Database, ExecOptions};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard};

/// Entries a [`PlanCache::new`] cache holds. Filled once with
/// serve_plan_hot's cold statements, an entry requests about 2.0 KB
/// from the allocator and adds about 2.6 KB of resident memory, so a
/// full default cache holds about 8 MB requested and 10.4 MB resident
/// (2-vCPU VM).
pub const DEFAULT_CAPACITY: usize = 4096;

/// One statement, prepared: parsed once, planned once.
#[derive(Debug)]
pub struct Prepared {
    /// The parsed statement.
    pub query: sb_sql::Query,
    /// The optimizer plan, when the statement is a plannable top-level
    /// `SELECT` over base tables (`None` falls back to per-request
    /// planning inside the engine).
    pub plan: Option<sb_opt::PlannedSelect>,
}

/// One resident entry in the CLOCK ring.
#[derive(Debug)]
struct Slot {
    db: Arc<str>,
    sql: Arc<str>,
    prepared: Arc<Prepared>,
    /// Set by every hit, cleared by the passing hand.
    referenced: AtomicBool,
}

#[derive(Debug, Default)]
struct Inner {
    /// Snapshot name → sql → slot index. Keyed by snapshot name first,
    /// so a lookup borrows both strings and allocates nothing.
    partitions: HashMap<Arc<str>, HashMap<Arc<str>, usize>>,
    slots: Vec<Slot>,
    hand: usize,
}

impl Inner {
    /// Sweep the hand to the first slot not hit since its last pass,
    /// clearing reference bits on the way, and unindex that slot's
    /// entry. Terminates within one revolution plus one step: the write
    /// lock keeps hits from setting bits behind the hand.
    fn evict(&mut self) -> usize {
        let victim = loop {
            let i = self.hand;
            self.hand = (i + 1) % self.slots.len();
            if !std::mem::take(self.slots[i].referenced.get_mut()) {
                break i;
            }
        };
        let slot = &self.slots[victim];
        let part = self
            .partitions
            .get_mut(&slot.db)
            .expect("every resident entry is indexed");
        part.remove(&slot.sql);
        if part.is_empty() {
            self.partitions.remove(&slot.db);
        }
        victim
    }
}

/// Counters and sizes of a [`PlanCache`], read together.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Bound on entries.
    pub capacity: usize,
    /// Resident entries.
    pub entries: usize,
    /// Lookups answered from a resident entry.
    pub hits: u64,
    /// Lookups that parsed the statement, parse errors included.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
}

/// Concurrent, bounded prepared-statement cache. Read-mostly: lookups
/// take the read lock, only a miss takes the write lock.
#[derive(Debug)]
pub struct PlanCache {
    capacity: usize,
    inner: RwLock<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new()
    }
}

impl PlanCache {
    /// An empty cache of [`DEFAULT_CAPACITY`] entries.
    pub fn new() -> PlanCache {
        PlanCache::with_capacity(DEFAULT_CAPACITY)
    }

    /// An empty cache holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// If `capacity` is 0; a service without a cache sets
    /// `ServeConfig::plan_cache` to `false` instead.
    pub fn with_capacity(capacity: usize) -> PlanCache {
        assert!(capacity > 0, "a plan cache holds at least one entry");
        PlanCache {
            capacity,
            inner: RwLock::new(Inner::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn read(&self) -> RwLockReadGuard<'_, Inner> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Look up or prepare `sql` against snapshot `db_name`. Returns the
    /// prepared entry, or the parse error (never cached), and whether
    /// this call was a hit.
    ///
    /// Under concurrent first-touch of the same statement, several
    /// threads may parse and plan it simultaneously; the planner is
    /// deterministic, so whichever entry lands in the map is
    /// interchangeable with the rest. Which thread observes the miss is
    /// scheduling-dependent — the reason `cache_hit` stays out of the
    /// response serialization.
    pub fn prepare(
        &self,
        db_name: &str,
        db: &Database,
        sql: &str,
        opts: ExecOptions,
    ) -> (Result<Arc<Prepared>, String>, bool) {
        {
            let inner = self.read();
            if let Some(&i) = inner.partitions.get(db_name).and_then(|p| p.get(sql)) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                let slot = &inner.slots[i];
                // Test before setting: a hot entry's bit is already set,
                // and a plain load keeps its cache line shared.
                if !slot.referenced.load(Ordering::Relaxed) {
                    slot.referenced.store(true, Ordering::Relaxed);
                }
                return (Ok(Arc::clone(&slot.prepared)), true);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);

        // Parse and plan outside the lock: planning walks the statement
        // and consults row counts, and holding a write lock across it
        // would serialize unrelated first-touch requests.
        let query = match sb_sql::parse(sql) {
            Ok(query) => query,
            Err(e) => return (Err(e.to_string()), false),
        };
        let plan = sb_engine::plan_top_select(db, &query, opts);
        let prepared = Arc::new(Prepared { query, plan });
        (Ok(self.insert(db_name, sql, prepared)), false)
    }

    /// Make `prepared` resident under `(db_name, sql)`, evicting if the
    /// cache is full, and return the resident entry: another thread's,
    /// if it inserted the same statement first.
    fn insert(&self, db_name: &str, sql: &str, prepared: Arc<Prepared>) -> Arc<Prepared> {
        let mut guard = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        let inner = &mut *guard;
        if let Some(&i) = inner.partitions.get(db_name).and_then(|p| p.get(sql)) {
            return Arc::clone(&inner.slots[i].prepared);
        }
        let victim = (inner.slots.len() >= self.capacity).then(|| inner.evict());
        if victim.is_some() {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        let db: Arc<str> = match inner.partitions.get_key_value(db_name) {
            Some((name, _)) => Arc::clone(name),
            None => Arc::from(db_name),
        };
        let sql: Arc<str> = Arc::from(sql);
        let slot = Slot {
            db: Arc::clone(&db),
            sql: Arc::clone(&sql),
            prepared: Arc::clone(&prepared),
            referenced: AtomicBool::new(false),
        };
        let i = match victim {
            Some(i) => {
                inner.slots[i] = slot;
                i
            }
            None => {
                inner.slots.push(slot);
                inner.slots.len() - 1
            }
        };
        inner.partitions.entry(db).or_default().insert(sql, i);
        prepared
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Misses so far, parse errors included.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct statements cached (≤ the capacity).
    pub fn len(&self) -> usize {
        self.read().slots.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counters and sizes, with the sizes read under one lock.
    pub fn stats(&self) -> PlanCacheStats {
        let inner = self.read();
        PlanCacheStats {
            capacity: self.capacity,
            entries: inner.slots.len(),
            hits: self.hits(),
            misses: self.misses(),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Check the cache's internal consistency: the capacity holds, the
    /// index and the ring agree entry for entry, and no snapshot keeps
    /// an empty partition. Meant for tests that thrash the cache.
    #[cfg(test)]
    pub(crate) fn check_invariants(&self) -> Result<(), String> {
        let inner = self.read();
        if inner.slots.len() > self.capacity {
            return Err(format!(
                "{} entries exceed capacity {}",
                inner.slots.len(),
                self.capacity
            ));
        }
        let indexed: usize = inner.partitions.values().map(HashMap::len).sum();
        if indexed != inner.slots.len() {
            return Err(format!(
                "{indexed} indexed entries, {} in the ring",
                inner.slots.len()
            ));
        }
        for (i, slot) in inner.slots.iter().enumerate() {
            let part = inner.partitions.get(&slot.db);
            if part.and_then(|p| p.get(&slot.sql)) != Some(&i) {
                return Err(format!("slot {i} ({}) is not indexed", slot.sql));
            }
        }
        if let Some(db) = inner.partitions.iter().find(|(_, p)| p.is_empty()) {
            return Err(format!("empty partition `{}` kept", db.0));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_data::{Domain, SizeClass};

    fn sdss() -> Database {
        Domain::Sdss.build(SizeClass::Tiny).db
    }

    /// A distinct, parseable statement per `i`.
    fn stmt(i: usize) -> String {
        format!("SELECT s.class FROM specobj AS s WHERE s.z > {i}")
    }

    fn hit(cache: &PlanCache, db: &Database, sql: &str) -> bool {
        let hit = cache.prepare("sdss", db, sql, ExecOptions::default()).1;
        cache.check_invariants().unwrap();
        hit
    }

    #[test]
    fn raw_repeat_hits_and_a_cosmetic_variant_is_its_own_entry() {
        let db = sdss();
        let cache = PlanCache::new();
        let opts = ExecOptions::default();
        let sql = "SELECT s.class FROM specobj AS s WHERE s.z > 0.5";

        let (first, hit) = cache.prepare("sdss", &db, sql, opts);
        assert!(!hit);
        let first = first.expect("parses");
        let (second, hit) = cache.prepare("sdss", &db, sql, opts);
        assert!(hit, "verbatim repeat must hit");
        assert!(Arc::ptr_eq(&first, &second.expect("parses")));

        // Different spelling, same statement: a miss, prepared into an
        // entry of its own, which its own repeat hits.
        let variant = "select  s.class  from specobj as s where s.z > 0.5";
        let (third, hit) = cache.prepare("sdss", &db, variant, opts);
        assert!(!hit);
        let third = third.expect("parses");
        assert!(!Arc::ptr_eq(&first, &third));
        assert_eq!(first.query.to_string(), third.query.to_string());
        let (fourth, hit) = cache.prepare("sdss", &db, variant, opts);
        assert!(hit);
        assert!(Arc::ptr_eq(&third, &fourth.expect("parses")));
        assert_eq!(cache.len(), 2);
        assert_eq!((cache.hits(), cache.misses()), (2, 2));
    }

    /// Garbage text is answered with its parse error on every call and
    /// never takes a slot, so it cannot evict the plan a full cache
    /// holds.
    #[test]
    fn parse_errors_are_answered_but_never_admitted() {
        let db = sdss();
        let cache = PlanCache::with_capacity(1);
        let plan = stmt(1);
        assert!(!hit(&cache, &db, &plan));
        let garbage = "SELECT FROM WHERE";
        let want = sb_sql::parse(garbage).unwrap_err().to_string();
        for k in 0..3 {
            let misses = cache.misses();
            let (got, was_hit) = cache.prepare("sdss", &db, garbage, ExecOptions::default());
            cache.check_invariants().unwrap();
            assert!(!was_hit, "garbage call {k} is a miss");
            assert_eq!(got.unwrap_err(), want);
            assert_eq!(cache.misses(), misses + 1);
            assert_eq!(cache.len(), 1, "garbage call {k} changed the entries");
            assert!(hit(&cache, &db, &plan), "garbage call {k} evicted the plan");
        }
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn snapshot_name_partitions_the_cache() {
        let db = sdss();
        let cache = PlanCache::new();
        let opts = ExecOptions::default();
        let sql = "SELECT s.class FROM specobj AS s";
        let (_, hit_a) = cache.prepare("a", &db, sql, opts);
        let (_, hit_b) = cache.prepare("b", &db, sql, opts);
        assert!(!hit_a && !hit_b, "different snapshots never share entries");
        assert_eq!(cache.len(), 2);
        cache.check_invariants().unwrap();
    }

    #[test]
    fn clock_gives_hit_entries_a_second_chance() {
        let db = sdss();
        let cache = PlanCache::with_capacity(3);
        for i in 0..3 {
            hit(&cache, &db, &stmt(i));
        }
        // Entry 1 is hit; 0 and 2 are not.
        assert!(hit(&cache, &db, &stmt(1)));
        for newcomer in [10, 11] {
            assert!(!hit(&cache, &db, &stmt(newcomer)));
        }
        // The hand evicted 0, cleared 1's bit, then evicted 2.
        assert_eq!(cache.stats().evictions, 2);
        assert!(hit(&cache, &db, &stmt(1)), "the hit entry survived");
        assert!(hit(&cache, &db, &stmt(10)));
        assert!(hit(&cache, &db, &stmt(11)));
        assert!(!hit(&cache, &db, &stmt(0)));
    }

    #[test]
    fn a_hot_set_hit_every_revolution_survives_a_flood_of_one_offs() {
        let db = sdss();
        let cache = PlanCache::with_capacity(32);
        let hot: Vec<String> = (0..8).map(stmt).collect();
        for (k, fresh) in (1000..3000).map(stmt).enumerate() {
            hit(&cache, &db, &hot[k % hot.len()]);
            hit(&cache, &db, &fresh);
        }
        // The hand evicts one one-off per new one and passes every hot
        // entry once per 24 evictions, after each was hit three times.
        assert!(hot.iter().all(|sql| hit(&cache, &db, sql)));
        let stats = cache.stats();
        assert_eq!(stats.entries, 32);
        assert_eq!(stats.misses, 8 + 2000);
        assert_eq!(stats.evictions, 2000 - 24);
    }

    /// Random traffic over parseable statements, cosmetic variants and
    /// parse errors at small capacities: the invariants hold after
    /// every call, and every answer is the one a fresh parse gives.
    #[test]
    fn random_traffic_keeps_the_cache_consistent_and_correct() {
        let db = sdss();
        let universe: Vec<String> = (0..24)
            .flat_map(|i| {
                [
                    stmt(i),
                    stmt(i).to_lowercase().replace(' ', "  "),
                    format!("SELECT FROM {i}"),
                ]
            })
            .collect();
        let mut state = 0x5EED_u64;
        for capacity in [1, 2, 5, 16] {
            let cache = PlanCache::with_capacity(capacity);
            for _ in 0..3000 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                // Skewed: low indices far more often.
                let r = (state >> 33) as usize;
                let sql = &universe[(r % universe.len()) * (r % 3 + 1) / 3];
                let (got, hit) = cache.prepare("sdss", &db, sql, ExecOptions::default());
                cache.check_invariants().unwrap();
                match sb_sql::parse(sql) {
                    Ok(q) => assert_eq!(got.unwrap().query.to_string(), q.to_string()),
                    Err(e) => {
                        assert!(!hit, "a parse error never hits");
                        assert_eq!(got.unwrap_err(), e.to_string());
                    }
                }
            }
            let stats = cache.stats();
            assert!(stats.entries <= capacity);
            assert_eq!(stats.hits + stats.misses, 3000);
            assert!(stats.evictions > 0, "capacity {capacity} never evicted");
        }
    }
}
