//! The plan cache: memoized optimizer output keyed by
//! `(source, canonical predicate, accuracy target, catalog epoch)`.
//!
//! Table 9 puts PP query optimization at 80–100 ms per query — far too
//! much to repeat for every arrival of a recurring query. The cache makes
//! the second arrival free:
//!
//! * **Canonical keys.** The predicate is [`simplify`]-ed and rendered to
//!   its display string, so syntactic variants of the same predicate share
//!   an entry. The accuracy target is keyed exactly, by its bits: a plan
//!   built for `0.9496` must not answer a request for `0.9504` — the
//!   budget DP read its grid below what the second caller asked for, and
//!   the contract is achieved ≥ requested.
//! * **Epoch scoping.** The key embeds the [`CatalogEpoch`] pinned at
//!   submit time. Publishing a retrained corpus bumps the epoch, so new
//!   arrivals miss (and re-plan against the new corpus) while
//!   [`invalidate_stale`][PlanCache::invalidate_stale] removes exactly the
//!   superseded entries.
//! * **Single-flight building.** Concurrent misses on one key elect one
//!   builder; the rest block on a condvar and reuse its output — one
//!   optimization, no dogpile. If the builder fails (or panics), a drop
//!   guard returns the slot to vacant and wakes a waiter to retry, so an
//!   error can never wedge the key or leave a partial entry behind.
//! * **Atomic swap.** The maintenance pass replaces a stale plan with
//!   [`swap`][PlanCache::swap]; readers see either the old or the new
//!   `Arc<CachedPlan>`, never a torn state.
//! * **Cost-weighted LRU eviction.** The cache is bounded by
//!   [`CacheConfig::max_entries`]. When an insert pushes it over, the
//!   ready entry with the lowest `predicted_cost / (age + 1)` score is
//!   evicted: cheap-to-rebuild plans go first, and among equal costs the
//!   least recently used goes first. The just-inserted entry and any
//!   in-flight build are never victims, so single-flight and epoch
//!   semantics are unchanged. The victim is picked from the slots'
//!   atomics — no slot lock is taken — and freed after the map lock is
//!   released. Evictions are counted in [`CacheStats::evicted`].
//!
//! [`simplify`]: pp_engine::predicate::Predicate::simplify

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pp_core::catalog::CatalogEpoch;
use pp_core::planner::PlanReport;
use pp_engine::predicate::Predicate;
use pp_engine::sync::{Condvar, Mutex};
use pp_engine::LogicalPlan;

/// Cache key: everything that determines the optimizer's output.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Data-source name.
    pub source: String,
    /// Canonical (simplified, display-form) predicate.
    pub predicate: String,
    /// The exact accuracy target, as `f64::to_bits`.
    pub accuracy_bits: u64,
    /// Catalog epoch the plan is valid for.
    pub epoch: CatalogEpoch,
}

impl CacheKey {
    /// Builds the canonical key for a request.
    pub fn new(
        source: &str,
        predicate: &Predicate,
        accuracy_target: f64,
        epoch: CatalogEpoch,
    ) -> Self {
        CacheKey {
            source: source.to_string(),
            predicate: predicate.simplify().to_string(),
            accuracy_bits: accuracy_target.to_bits(),
            epoch,
        }
    }
}

/// One memoized optimizer output: the executable plan plus its report,
/// and the inputs needed to *re*-optimize it (the maintenance pass
/// rebuilds from these when calibration drift flags the plan's PPs).
#[derive(Debug)]
pub struct CachedPlan {
    /// The (possibly PP-injected) executable plan.
    pub plan: LogicalPlan,
    /// What the optimizer considered and chose.
    pub report: Arc<PlanReport>,
    /// The original (un-canonicalized) predicate the plan answers.
    pub predicate: Predicate,
    /// The exact accuracy target the plan was optimized for.
    pub accuracy_target: f64,
}

enum SlotState {
    /// No plan and nobody building one.
    Vacant,
    /// One thread is optimizing; others wait on the condvar.
    Building,
    /// The memoized plan.
    Ready(Arc<CachedPlan>),
}

struct Slot {
    state: Mutex<SlotState>,
    cv: Condvar,
    /// Logical tick of the last `get_or_build` touch (hit or insert); 0
    /// until the first. A slot is touched only once it is `Ready`, and a
    /// `Ready` slot stays so until it leaves the map, so `last_used != 0`
    /// *is* readiness — which is how eviction reads it without the state
    /// lock. Stored with `Release` after `predicted_cost`, loaded with
    /// `Acquire` before it.
    last_used: AtomicU64,
    /// Predicted cluster-seconds of the cached plan, as `f64` bits —
    /// the rebuild bill eviction weighs against recency.
    predicted_cost: AtomicU64,
}

/// Resets a `Building` slot to `Vacant` and wakes waiters unless the
/// builder reached `disarm()`. Covers both the error return and the
/// builder panicking mid-optimization — either way the key must not stay
/// wedged in `Building`.
struct BuildGuard<'a> {
    slot: &'a Slot,
    armed: bool,
}

impl BuildGuard<'_> {
    fn disarm(mut self) {
        self.armed = false;
    }
}

impl Drop for BuildGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            let mut state = self.slot.state.lock();
            if matches!(*state, SlotState::Building) {
                *state = SlotState::Vacant;
            }
            drop(state);
            self.slot.cv.notify_all();
        }
    }
}

/// Size/eviction knobs for the plan cache.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Maximum ready entries. Beyond this, inserts evict the ready entry
    /// with the lowest cost-weighted-recency score.
    pub max_entries: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig { max_entries: 1024 }
    }
}

/// Hit/miss/build counters, cheap to copy out for reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from a ready entry.
    pub hits: u64,
    /// Lookups that found no usable entry.
    pub misses: u64,
    /// Optimizations actually run (≤ misses: single-flight coalesces).
    pub builds: u64,
    /// Failed builds (optimizer error or panic).
    pub build_failures: u64,
    /// Entries removed by epoch invalidation.
    pub invalidated: u64,
    /// Entries atomically replaced by the maintenance pass.
    pub swapped: u64,
    /// Entries removed by cost-weighted LRU capacity eviction.
    pub evicted: u64,
}

/// The shared, thread-safe plan cache.
pub struct PlanCache {
    slots: Mutex<HashMap<CacheKey, Arc<Slot>>>,
    config: CacheConfig,
    /// Monotonic logical clock; each touch gets the next tick.
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    builds: AtomicU64,
    build_failures: AtomicU64,
    invalidated: AtomicU64,
    swapped: AtomicU64,
    evicted: AtomicU64,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::new()
    }
}

impl PlanCache {
    /// An empty cache with default capacity.
    pub fn new() -> Self {
        Self::with_config(CacheConfig::default())
    }

    /// An empty cache bounded by `config`.
    pub fn with_config(config: CacheConfig) -> Self {
        PlanCache {
            slots: Mutex::new(HashMap::new()),
            config,
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            builds: AtomicU64::new(0),
            build_failures: AtomicU64::new(0),
            invalidated: AtomicU64::new(0),
            swapped: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    fn slot(&self, key: &CacheKey) -> Arc<Slot> {
        let mut slots = self.slots.lock();
        if let Some(slot) = slots.get(key) {
            return Arc::clone(slot);
        }
        let slot = Arc::new(Slot {
            state: Mutex::new(SlotState::Vacant),
            cv: Condvar::new(),
            last_used: AtomicU64::new(0),
            predicted_cost: AtomicU64::new(0),
        });
        slots.insert(key.clone(), Arc::clone(&slot));
        slot
    }

    /// Stamps `slot` (which is `Ready`) with the next logical tick.
    fn touch(&self, slot: &Slot) {
        let now = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        slot.last_used.store(now, Ordering::Release);
    }

    /// Evicts lowest-score ready entries until at most
    /// [`CacheConfig::max_entries`] remain. `keep` (the entry whose insert
    /// triggered this) is never a victim, and neither is a slot nobody has
    /// touched yet — vacant, or mid-build. Score is
    /// `predicted_cost / (age + 1)`: cheap and stale loses. Victims are
    /// unlinked under the map lock and freed — plan tree, report strings —
    /// after it is released.
    fn evict_over_capacity(&self, keep: &CacheKey) {
        let mut unlinked: Vec<(CacheKey, Arc<Slot>)> = Vec::new();
        let mut slots = self.slots.lock();
        loop {
            let now = self.tick.load(Ordering::Relaxed);
            let mut ready = 0usize;
            let mut victim: Option<(&CacheKey, f64)> = None;
            for (k, slot) in slots.iter() {
                let last_used = slot.last_used.load(Ordering::Acquire);
                if last_used == 0 {
                    continue;
                }
                ready += 1;
                if k == keep {
                    continue;
                }
                let cost = f64::from_bits(slot.predicted_cost.load(Ordering::Relaxed));
                let age = now.saturating_sub(last_used) as f64;
                let score = cost / (age + 1.0);
                if victim.is_none_or(|(_, s)| score < s) {
                    victim = Some((k, score));
                }
            }
            if ready <= self.config.max_entries {
                break;
            }
            let Some((k, _)) = victim else { break };
            let k = k.clone();
            unlinked.extend(slots.remove_entry(&k));
            self.evicted.fetch_add(1, Ordering::Relaxed);
            // One insert puts the cache one over; only a burst of
            // concurrent inserts needs another scan.
            if ready - 1 <= self.config.max_entries {
                break;
            }
        }
        drop(slots);
        drop(unlinked);
    }

    /// Returns the memoized plan for `key`, running `build` (at most once
    /// across concurrent callers) on a miss. The boolean is `true` for a
    /// hit. On build failure every waiter gets to retry (or fail) on its
    /// own; the slot never stays `Building` and no partial entry is
    /// inserted.
    pub fn get_or_build<E>(
        &self,
        key: &CacheKey,
        build: impl FnOnce() -> Result<CachedPlan, E>,
    ) -> Result<(Arc<CachedPlan>, bool), E> {
        let slot = self.slot(key);
        let mut state = slot.state.lock();
        loop {
            match &*state {
                SlotState::Ready(plan) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    let plan = Arc::clone(plan);
                    drop(state);
                    self.touch(&slot);
                    return Ok((plan, true));
                }
                SlotState::Building => {
                    state = slot.cv.wait(state);
                }
                SlotState::Vacant => {
                    *state = SlotState::Building;
                    drop(state);
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    self.builds.fetch_add(1, Ordering::Relaxed);
                    let guard = BuildGuard {
                        slot: &slot,
                        armed: true,
                    };
                    match build() {
                        Ok(plan) => {
                            let plan = Arc::new(plan);
                            let cost = crate::admission::predicted_cluster_seconds(&plan.report);
                            slot.predicted_cost.store(cost.to_bits(), Ordering::Relaxed);
                            let mut state = slot.state.lock();
                            *state = SlotState::Ready(Arc::clone(&plan));
                            drop(state);
                            guard.disarm();
                            slot.cv.notify_all();
                            self.touch(&slot);
                            self.evict_over_capacity(key);
                            return Ok((plan, false));
                        }
                        Err(e) => {
                            self.build_failures.fetch_add(1, Ordering::Relaxed);
                            drop(guard); // resets to Vacant, wakes a waiter
                            return Err(e);
                        }
                    }
                }
            }
        }
    }

    /// The ready plan for `key`, if any (no build, no blocking on
    /// in-flight builders).
    pub fn peek(&self, key: &CacheKey) -> Option<Arc<CachedPlan>> {
        let slot = {
            let slots = self.slots.lock();
            slots.get(key).cloned()?
        };
        let state = slot.state.lock();
        match &*state {
            SlotState::Ready(plan) => Some(Arc::clone(plan)),
            _ => None,
        }
    }

    /// Atomically replaces the plan under `key` (maintenance replan).
    /// Returns `false` if the key has no ready entry to replace — a swap
    /// never *inserts*, so it cannot race an invalidation into
    /// resurrecting a stale epoch.
    pub fn swap(&self, key: &CacheKey, plan: CachedPlan) -> bool {
        let slot = {
            let slots = self.slots.lock();
            match slots.get(key) {
                Some(s) => Arc::clone(s),
                None => return false,
            }
        };
        let cost = crate::admission::predicted_cluster_seconds(&plan.report);
        let mut state = slot.state.lock();
        match &*state {
            SlotState::Ready(_) => {
                *state = SlotState::Ready(Arc::new(plan));
                slot.predicted_cost.store(cost.to_bits(), Ordering::Relaxed);
                self.swapped.fetch_add(1, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }

    /// Removes every entry whose epoch predates `current`, returning how
    /// many were dropped. Entries already at `current` (including ones
    /// built concurrently with the publish) survive. In-flight builders
    /// for stale keys finish into their (now unreachable-by-new-arrivals)
    /// slots harmlessly: new arrivals carry the new epoch in their key.
    pub fn invalidate_stale(&self, current: CatalogEpoch) -> usize {
        let mut slots = self.slots.lock();
        let before = slots.len();
        slots.retain(|key, _| key.epoch >= current);
        let dropped = before - slots.len();
        self.invalidated
            .fetch_add(dropped as u64, Ordering::Relaxed);
        dropped
    }

    /// Keys of all ready entries (maintenance iterates these).
    pub fn ready_keys(&self) -> Vec<CacheKey> {
        let slots: Vec<(CacheKey, Arc<Slot>)> = {
            let map = self.slots.lock();
            map.iter()
                .map(|(k, s)| (k.clone(), Arc::clone(s)))
                .collect()
        };
        slots
            .into_iter()
            .filter(|(_, slot)| {
                let state = slot.state.lock();
                matches!(&*state, SlotState::Ready(_))
            })
            .map(|(k, _)| k)
            .collect()
    }

    /// Number of entries (any state).
    pub fn len(&self) -> usize {
        self.slots.lock().len()
    }

    /// True when no entries exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies out the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            builds: self.builds.load(Ordering::Relaxed),
            build_failures: self.build_failures.load(Ordering::Relaxed),
            invalidated: self.invalidated.load(Ordering::Relaxed),
            swapped: self.swapped.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    fn key(pred: &str, epoch: u64) -> CacheKey {
        CacheKey {
            source: "s".into(),
            predicate: pred.into(),
            accuracy_bits: 0.95f64.to_bits(),
            epoch: CatalogEpoch(epoch),
        }
    }

    fn dummy_plan() -> CachedPlan {
        CachedPlan {
            plan: LogicalPlan::scan("t"),
            report: Arc::new(PlanReport::default()),
            predicate: Predicate::True,
            accuracy_target: 0.95,
        }
    }

    #[test]
    fn canonical_key_merges_predicate_variants_and_keeps_targets_apart() {
        use pp_engine::predicate::{Clause, CompareOp};
        let epoch = CatalogEpoch(1);
        let p = Predicate::from(Clause::new("t", CompareOp::Eq, "SUV"));
        // `p ∧ true` simplifies to `p`: one entry.
        let a = CacheKey::new("s", &p, 0.95, epoch);
        let b = CacheKey::new(
            "s",
            &Predicate::and(p.clone(), Predicate::True),
            0.95,
            epoch,
        );
        assert_eq!(a, b);
        // Targets a rounding apart are different keys: the plan built for
        // the lower one promises less than the higher one asks for.
        let below = CacheKey::new("s", &p, 0.9496, epoch);
        let above = CacheKey::new("s", &p, 0.9504, epoch);
        assert_ne!(below, above);
        assert_ne!(a, below);
        assert_ne!(a, above);
    }

    #[test]
    fn hit_returns_same_arc_and_counts() {
        let cache = PlanCache::new();
        let k = key("p", 1);
        let (first, hit) = cache.get_or_build::<()>(&k, || Ok(dummy_plan())).unwrap();
        assert!(!hit);
        let (second, hit) = cache
            .get_or_build::<()>(&k, || panic!("must not rebuild"))
            .unwrap();
        assert!(hit);
        assert!(Arc::ptr_eq(&first, &second));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.builds), (1, 1, 1));
    }

    #[test]
    fn concurrent_misses_build_once() {
        let cache = Arc::new(PlanCache::new());
        let builds = Arc::new(AtomicUsize::new(0));
        let barrier = Arc::new(Barrier::new(8));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let builds = Arc::clone(&builds);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    let (plan, _) = cache
                        .get_or_build::<()>(&key("p", 1), || {
                            builds.fetch_add(1, Ordering::SeqCst);
                            // Widen the race window so waiters actually
                            // block on the condvar.
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            Ok(dummy_plan())
                        })
                        .unwrap();
                    plan
                })
            })
            .collect();
        let plans: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();
        assert_eq!(builds.load(Ordering::SeqCst), 1, "dogpile: built twice");
        for p in &plans[1..] {
            assert!(Arc::ptr_eq(&plans[0], p));
        }
        assert_eq!(cache.stats().builds, 1);
        assert_eq!(cache.stats().hits + cache.stats().misses, 8);
    }

    #[test]
    fn failed_build_leaves_no_entry_and_allows_retry() {
        let cache = PlanCache::new();
        let k = key("p", 1);
        let err = cache.get_or_build(&k, || Err("optimizer exploded"));
        assert_eq!(err.unwrap_err(), "optimizer exploded");
        assert!(cache.peek(&k).is_none(), "partial entry leaked");
        assert_eq!(cache.stats().build_failures, 1);
        // The key is not wedged: a retry succeeds.
        let (_, hit) = cache.get_or_build::<()>(&k, || Ok(dummy_plan())).unwrap();
        assert!(!hit);
        assert!(cache.peek(&k).is_some());
    }

    #[test]
    fn builder_panic_unwedges_waiters() {
        let cache = Arc::new(PlanCache::new());
        let k = key("p", 1);
        let barrier = Arc::new(Barrier::new(2));
        let panicker = {
            let cache = Arc::clone(&cache);
            let k = k.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let _ = cache.get_or_build::<()>(&k, || {
                    barrier.wait(); // the waiter is about to pile on
                    std::thread::sleep(std::time::Duration::from_millis(10));
                    panic!("builder died");
                });
            })
        };
        let waiter = {
            let cache = Arc::clone(&cache);
            let k = k.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                cache.get_or_build::<()>(&k, || Ok(dummy_plan())).unwrap()
            })
        };
        assert!(panicker.join().is_err(), "builder must have panicked");
        // The waiter either raced in first (hit=false via its own build) or
        // was woken by the drop guard and rebuilt — it must not hang.
        let (_plan, _hit) = waiter.join().unwrap();
        assert!(cache.peek(&k).is_some());
    }

    #[test]
    fn invalidate_drops_exactly_stale_epochs() {
        let cache = PlanCache::new();
        for (pred, epoch) in [("a", 1), ("b", 1), ("c", 2)] {
            cache
                .get_or_build::<()>(&key(pred, epoch), || Ok(dummy_plan()))
                .unwrap();
        }
        assert_eq!(cache.len(), 3);
        let dropped = cache.invalidate_stale(CatalogEpoch(2));
        assert_eq!(dropped, 2);
        assert!(cache.peek(&key("a", 1)).is_none());
        assert!(cache.peek(&key("b", 1)).is_none());
        assert!(cache.peek(&key("c", 2)).is_some(), "current epoch survives");
        assert_eq!(cache.stats().invalidated, 2);
    }

    fn plan_costing(seconds: f64) -> CachedPlan {
        use pp_engine::explain::OperatorPrediction;
        use pp_engine::telemetry::OperatorId;
        CachedPlan {
            plan: LogicalPlan::scan("t"),
            report: Arc::new(PlanReport {
                predictions: vec![OperatorPrediction {
                    op_id: OperatorId(0),
                    op: "Udf[x]".into(),
                    rows_in: 100.0,
                    rows_out: 50.0,
                    seconds,
                }],
                ..Default::default()
            }),
            predicate: Predicate::True,
            accuracy_target: 0.95,
        }
    }

    #[test]
    fn capacity_eviction_prefers_cheap_plans() {
        let cache = PlanCache::with_config(CacheConfig { max_entries: 2 });
        cache
            .get_or_build::<()>(&key("expensive", 1), || Ok(plan_costing(10.0)))
            .unwrap();
        cache
            .get_or_build::<()>(&key("cheap", 1), || Ok(plan_costing(0.1)))
            .unwrap();
        cache
            .get_or_build::<()>(&key("mid", 1), || Ok(plan_costing(5.0)))
            .unwrap();
        assert_eq!(cache.len(), 2);
        assert!(
            cache.peek(&key("cheap", 1)).is_none(),
            "cheapest-to-rebuild entry should be the victim"
        );
        assert!(cache.peek(&key("expensive", 1)).is_some());
        assert!(cache.peek(&key("mid", 1)).is_some(), "fresh insert evicted");
        assert_eq!(cache.stats().evicted, 1);
    }

    #[test]
    fn capacity_eviction_breaks_cost_ties_by_recency() {
        let cache = PlanCache::with_config(CacheConfig { max_entries: 2 });
        cache
            .get_or_build::<()>(&key("old-but-touched", 1), || Ok(plan_costing(1.0)))
            .unwrap();
        cache
            .get_or_build::<()>(&key("stale", 1), || Ok(plan_costing(1.0)))
            .unwrap();
        // A hit refreshes recency, protecting the older entry.
        let (_, hit) = cache
            .get_or_build::<()>(&key("old-but-touched", 1), || panic!("must hit"))
            .unwrap();
        assert!(hit);
        cache
            .get_or_build::<()>(&key("new", 1), || Ok(plan_costing(1.0)))
            .unwrap();
        assert!(cache.peek(&key("stale", 1)).is_none(), "LRU should lose");
        assert!(cache.peek(&key("old-but-touched", 1)).is_some());
        assert!(cache.peek(&key("new", 1)).is_some());
        assert_eq!(cache.stats().evicted, 1);
    }

    #[test]
    fn concurrent_inserts_past_capacity_leave_a_hot_entry_readable() {
        const CAPACITY: usize = 8;
        const INSERTS_PER_WRITER: usize = 200;
        let cache = Arc::new(PlanCache::with_config(CacheConfig {
            max_entries: CAPACITY,
        }));
        // Expensive to rebuild, so never the cheapest victim.
        let (hot, _) = cache
            .get_or_build::<()>(&key("hot", 1), || Ok(plan_costing(1e9)))
            .unwrap();
        let barrier = Arc::new(Barrier::new(3));
        let writers: Vec<_> = (0..2)
            .map(|w| {
                let cache = Arc::clone(&cache);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    for i in 0..INSERTS_PER_WRITER {
                        let (_, hit) = cache
                            .get_or_build::<()>(&key(&format!("w{w}-{i}"), 1), || {
                                Ok(plan_costing(1.0))
                            })
                            .unwrap();
                        assert!(!hit);
                    }
                })
            })
            .collect();
        let reader = {
            let cache = Arc::clone(&cache);
            let barrier = Arc::clone(&barrier);
            let hot = Arc::clone(&hot);
            std::thread::spawn(move || {
                barrier.wait();
                for _ in 0..2 * INSERTS_PER_WRITER {
                    let (plan, hit) = cache
                        .get_or_build::<()>(&key("hot", 1), || panic!("the hot entry was evicted"))
                        .unwrap();
                    assert!(hit && Arc::ptr_eq(&plan, &hot));
                }
            })
        };
        for t in writers {
            t.join().expect("writer");
        }
        reader.join().expect("reader");
        // Whichever eviction pass ran last saw every entry ready.
        assert_eq!(cache.len(), CAPACITY);
        let stats = cache.stats();
        let inserted = 1 + 2 * INSERTS_PER_WRITER as u64;
        assert_eq!((stats.misses, stats.builds), (inserted, inserted));
        assert_eq!(stats.hits, 2 * INSERTS_PER_WRITER as u64);
        assert_eq!(stats.evicted, inserted - CAPACITY as u64);
        assert!(cache.peek(&key("hot", 1)).is_some());
    }

    #[test]
    fn swap_replaces_ready_only() {
        let cache = PlanCache::new();
        let k = key("p", 1);
        assert!(!cache.swap(&k, dummy_plan()), "swap must not insert");
        let (original, _) = cache.get_or_build::<()>(&k, || Ok(dummy_plan())).unwrap();
        assert!(cache.swap(&k, dummy_plan()));
        let swapped = cache.peek(&k).unwrap();
        assert!(!Arc::ptr_eq(&original, &swapped));
        assert_eq!(cache.stats().swapped, 1);
    }
}
