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
//!   budget allocator read its grid below what the second caller asked for, and
//!   the contract is achieved ≥ requested.
//! * **Epoch scoping.** The key embeds the [`CatalogEpoch`] pinned at
//!   submit time. Publishing a retrained corpus bumps the epoch, so new
//!   arrivals miss (and re-plan against the new corpus) while
//!   [`invalidate`][PlanCache::invalidate] removes exactly the ready
//!   entries of superseded epochs.
//! * **One way in, one lookup.** [`get_or_build`][PlanCache::get_or_build]
//!   is the only way a plan enters the cache and the only lookup a query
//!   makes; it reports what it did as a [`Lookup`]. Concurrent misses on
//!   one key elect one builder; the rest block on a condvar and reuse its
//!   output — one optimization, no dogpile. Every build is counted in
//!   [`CacheStats::builds`], has its cost stamped for eviction, and is
//!   checked against capacity, whether a query or the maintenance pass
//!   asked for it. If the builder fails (or panics), a drop guard returns
//!   the slot to vacant and wakes a waiter to retry, so an error can never
//!   wedge the key or leave a partial entry behind. The maintenance pass
//!   replans by invalidating an entry and rebuilding it through the same
//!   call; if that rebuild fails the key stays vacant (the old plan used a
//!   drifted or quarantined PP), and the next arrival builds it like any
//!   miss.
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
use pp_core::expr::PpExprFilter;
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

/// One memoized optimizer output: the executable plan, its report and
/// its PP filter, and the inputs needed to *re*-optimize it (the
/// maintenance pass rebuilds from these when
/// [`RuntimeMonitor::stale`](pp_core::runtime::RuntimeMonitor::stale)
/// holds for the report).
#[derive(Debug)]
pub struct CachedPlan {
    /// The (possibly PP-injected) executable plan.
    pub plan: LogicalPlan,
    /// What the optimizer considered and chose.
    pub report: Arc<PlanReport>,
    /// The PP filter injected into `plan`, if any (the optimizer's
    /// [`pp_filter`](pp_core::planner::OptimizedQuery::pp_filter)); the
    /// accuracy auditor builds a filter of its own from its planned
    /// expression.
    pub pp_filter: Option<Arc<PpExprFilter>>,
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
    /// Callers that found the slot `Building`, counted under the state
    /// lock: a unit test holds a build open until a waiter is parked.
    #[cfg(test)]
    waiting: AtomicU64,
}

/// Resets a `Building` slot to `Vacant` and wakes waiters unless the
/// builder reached `disarm()`. Covers both the error return and the
/// builder panicking mid-optimization — either way the key must not stay
/// wedged in `Building`. A vacant slot nobody waits on is unlinked, so a
/// failed build leaves no slot behind.
struct BuildGuard<'a> {
    cache: &'a PlanCache,
    key: &'a CacheKey,
    slot: &'a Arc<Slot>,
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
            // Held only by the map and this builder, the slot cannot change
            // while the map is locked: nobody else can lock its state or
            // fetch it. Another caller may have rebuilt it since the reset,
            // so only a slot still vacant goes.
            let mut slots = self.cache.slots.lock();
            if Arc::strong_count(self.slot) == 2
                && matches!(
                    self.slot.state.try_lock().as_deref(),
                    Some(SlotState::Vacant)
                )
                && slots
                    .get(self.key)
                    .is_some_and(|s| Arc::ptr_eq(s, self.slot))
            {
                slots.remove(self.key);
            }
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

/// How [`PlanCache::get_or_build`] found its plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// A ready entry answered.
    Hit,
    /// Another caller was building the plan; this one waited for it.
    Waited,
    /// This caller ran the build.
    Built,
}

/// Hit/miss/build counters, cheap to copy out for reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from a ready entry, at once or after waiting on a
    /// concurrent build.
    pub hits: u64,
    /// Lookups that found no usable entry.
    pub misses: u64,
    /// Optimizations actually run (≤ misses: single-flight coalesces).
    pub builds: u64,
    /// Failed builds (optimizer error or panic).
    pub build_failures: u64,
    /// Entries removed by [`PlanCache::invalidate`].
    pub invalidated: u64,
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
            #[cfg(test)]
            waiting: AtomicU64::new(0),
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
    /// [`CacheConfig::max_entries`] remain. `keep` (the slot whose insert
    /// triggered this, told apart by pointer, not by comparing keys) is
    /// never a victim, and neither is a slot nobody has touched yet —
    /// vacant, or mid-build. Score is `predicted_cost / (age + 1)`: cheap
    /// and stale loses. Victims are unlinked under the map lock and freed
    /// — plan tree, report strings — after it is released.
    fn evict_over_capacity(&self, keep: &Arc<Slot>) {
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
                if Arc::ptr_eq(slot, keep) {
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

    /// Returns the memoized plan for `key` and how it was found, running
    /// `build` (at most once across concurrent callers) on a miss. This
    /// is the only way a plan enters the cache. On build failure every
    /// waiter gets to retry (or fail) on its own; the slot never stays
    /// `Building` and no partial entry is inserted.
    pub fn get_or_build<E>(
        &self,
        key: &CacheKey,
        build: impl FnOnce() -> Result<CachedPlan, E>,
    ) -> Result<(Arc<CachedPlan>, Lookup), E> {
        let slot = self.slot(key);
        let mut state = slot.state.lock();
        let mut lookup = Lookup::Hit;
        loop {
            match &*state {
                SlotState::Ready(plan) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    let plan = Arc::clone(plan);
                    drop(state);
                    self.touch(&slot);
                    return Ok((plan, lookup));
                }
                SlotState::Building => {
                    lookup = Lookup::Waited;
                    #[cfg(test)]
                    slot.waiting.fetch_add(1, Ordering::SeqCst);
                    state = slot.cv.wait(state);
                }
                SlotState::Vacant => {
                    *state = SlotState::Building;
                    drop(state);
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    self.builds.fetch_add(1, Ordering::Relaxed);
                    let guard = BuildGuard {
                        cache: self,
                        key,
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
                            self.evict_over_capacity(&slot);
                            return Ok((plan, Lookup::Built));
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

    /// The ready plan for `key`, if any: a probe for the unit tests.
    #[cfg(test)]
    fn peek(&self, key: &CacheKey) -> Option<Arc<CachedPlan>> {
        let slot = self.slots.lock().get(key).cloned()?;
        let state = slot.state.lock();
        match &*state {
            SlotState::Ready(plan) => Some(Arc::clone(plan)),
            _ => None,
        }
    }

    /// Removes every ready entry for which `stale(key, plan)` holds,
    /// returns the entries removed and counts them in
    /// [`CacheStats::invalidated`]. A slot still building has no plan to
    /// judge and stays. The map lock is never held while a slot's lock is
    /// awaited: the slots are listed under it, read without it, and the
    /// chosen ones unlinked under it again. A ready slot stays ready for
    /// as long as it is in the map, so what `stale` judged is what goes.
    /// A query racing the removal reads the old plan or misses and builds.
    pub fn invalidate(
        &self,
        mut stale: impl FnMut(&CacheKey, &CachedPlan) -> bool,
    ) -> Vec<(CacheKey, Arc<CachedPlan>)> {
        let listed: Vec<(CacheKey, Arc<Slot>)> = {
            let slots = self.slots.lock();
            slots
                .iter()
                .map(|(k, s)| (k.clone(), Arc::clone(s)))
                .collect()
        };
        let mut chosen = Vec::new();
        for (key, slot) in listed {
            let plan = match &*slot.state.lock() {
                SlotState::Ready(plan) => Arc::clone(plan),
                _ => continue,
            };
            if stale(&key, &plan) {
                chosen.push((key, slot, plan));
            }
        }
        let mut removed = Vec::with_capacity(chosen.len());
        let mut slots = self.slots.lock();
        for (key, slot, plan) in chosen {
            // An entry evicted since it was listed is not ours to count.
            if slots.get(&key).is_some_and(|s| Arc::ptr_eq(s, &slot)) {
                slots.remove(&key);
                removed.push((key, plan));
            }
        }
        drop(slots);
        self.invalidated
            .fetch_add(removed.len() as u64, Ordering::Relaxed);
        removed
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
            pp_filter: None,
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
        let (first, lookup) = cache.get_or_build::<()>(&k, || Ok(dummy_plan())).unwrap();
        assert_eq!(lookup, Lookup::Built);
        let (second, lookup) = cache
            .get_or_build::<()>(&k, || panic!("must not rebuild"))
            .unwrap();
        assert_eq!(lookup, Lookup::Hit);
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
        assert_eq!(cache.len(), 0, "the vacant slot stayed behind");
        assert_eq!(cache.stats().build_failures, 1);
        // The key is not wedged: a retry succeeds.
        let (_, lookup) = cache.get_or_build::<()>(&k, || Ok(dummy_plan())).unwrap();
        assert_eq!(lookup, Lookup::Built);
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
        let (_plan, _lookup) = waiter.join().unwrap();
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
        let dropped = cache.invalidate(|k, _| k.epoch < CatalogEpoch(2));
        let mut keys: Vec<_> = dropped.into_iter().map(|(k, _)| k).collect();
        keys.sort_by(|a, b| a.predicate.cmp(&b.predicate));
        assert_eq!(keys, vec![key("a", 1), key("b", 1)]);
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
            pp_filter: None,
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
        let (_, lookup) = cache
            .get_or_build::<()>(&key("old-but-touched", 1), || panic!("must hit"))
            .unwrap();
        assert_eq!(lookup, Lookup::Hit);
        cache
            .get_or_build::<()>(&key("new", 1), || Ok(plan_costing(1.0)))
            .unwrap();
        assert!(cache.peek(&key("stale", 1)).is_none(), "LRU should lose");
        assert!(cache.peek(&key("old-but-touched", 1)).is_some());
        assert!(cache.peek(&key("new", 1)).is_some());
        assert_eq!(cache.stats().evicted, 1);
    }

    #[test]
    fn a_seeded_trace_evicts_the_recorded_keys_in_order() {
        // A fixed linear congruential stream picks 60 lookups over 10 keys
        // of distinct costs; a 4-entry cache evicts on most builds. The
        // expected list pins the victim rule; it was recorded when the scan
        // still told the inserting entry apart by comparing keys.
        let mut state = 7u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let names: Vec<String> = (0..10).map(|i| format!("q{i}")).collect();
        let costs: Vec<f64> = (0..10)
            .map(|_| 0.1 + (next() % 1000) as f64 / 100.0)
            .collect();
        let cache = PlanCache::with_config(CacheConfig { max_entries: 4 });
        let ready = |cache: &PlanCache| -> Vec<bool> {
            (names.iter())
                .map(|n| cache.peek(&key(n, 1)).is_some())
                .collect()
        };
        let mut evicted = Vec::new();
        for _ in 0..60 {
            let i = next() as usize % names.len();
            let before = ready(&cache);
            cache
                .get_or_build::<()>(&key(&names[i], 1), || Ok(plan_costing(costs[i])))
                .unwrap();
            for (j, after) in ready(&cache).into_iter().enumerate() {
                if before[j] && !after {
                    evicted.push(names[j].as_str());
                }
            }
        }
        let recorded = [
            "q0", "q5", "q1", "q2", "q9", "q6", "q0", "q5", "q4", "q8", "q3", "q0", "q5", "q3",
            "q9", "q5", "q7", "q0", "q2", "q8", "q0", "q6", "q2", "q1", "q4", "q7", "q8", "q6",
            "q5", "q9",
        ];
        assert_eq!(evicted, recorded);
        assert_eq!(cache.stats().evicted, evicted.len() as u64);
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
                        let (_, lookup) = cache
                            .get_or_build::<()>(&key(&format!("w{w}-{i}"), 1), || {
                                Ok(plan_costing(1.0))
                            })
                            .unwrap();
                        assert_eq!(lookup, Lookup::Built);
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
                    let (plan, lookup) = cache
                        .get_or_build::<()>(&key("hot", 1), || panic!("the hot entry was evicted"))
                        .unwrap();
                    assert!(lookup == Lookup::Hit && Arc::ptr_eq(&plan, &hot));
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
    fn invalidate_removes_ready_entries_only_and_rebuild_replaces_them() {
        let cache = PlanCache::new();
        let k = key("p", 1);
        assert!(
            cache.invalidate(|_, _| true).is_empty(),
            "nothing to remove"
        );
        assert_eq!(cache.len(), 0, "invalidate must not insert");
        // A slot mid-build has no plan to judge: it survives.
        let (original, _) = cache
            .get_or_build::<()>(&k, || {
                assert!(cache.invalidate(|_, _| true).is_empty());
                Ok(dummy_plan())
            })
            .unwrap();
        let removed = cache.invalidate(|_, _| true);
        assert_eq!(removed.len(), 1);
        assert!(Arc::ptr_eq(&removed[0].1, &original));
        // The rebuild goes through the miss path and is counted there.
        let (rebuilt, lookup) = cache.get_or_build::<()>(&k, || Ok(dummy_plan())).unwrap();
        assert_eq!(lookup, Lookup::Built);
        assert!(!Arc::ptr_eq(&original, &rebuilt));
        let stats = cache.stats();
        assert_eq!((stats.builds, stats.invalidated), (2, 1));
    }

    #[test]
    fn lookup_reports_built_waited_and_hit() {
        let cache = Arc::new(PlanCache::new());
        let k = key("p", 1);
        let (building_tx, building_rx) = std::sync::mpsc::channel();
        let builder = {
            let cache = Arc::clone(&cache);
            let k = k.clone();
            std::thread::spawn(move || {
                cache
                    .get_or_build::<()>(&k, || {
                        building_tx.send(()).unwrap();
                        // The waiter counts itself under the state lock,
                        // which it gives up only inside the condvar wait:
                        // once it is counted, this build can publish only
                        // after the waiter is parked.
                        let slot = cache.slots.lock().get(&k).cloned().unwrap();
                        while slot.waiting.load(Ordering::SeqCst) == 0 {
                            std::thread::yield_now();
                        }
                        Ok(dummy_plan())
                    })
                    .unwrap()
            })
        };
        building_rx.recv().unwrap();
        let waiter = {
            let cache = Arc::clone(&cache);
            let k = k.clone();
            std::thread::spawn(move || {
                cache
                    .get_or_build::<()>(&k, || panic!("the waiter must not build"))
                    .unwrap()
            })
        };
        let (built, lookup) = builder.join().unwrap();
        assert_eq!(lookup, Lookup::Built);
        let (waited, lookup) = waiter.join().unwrap();
        assert_eq!(lookup, Lookup::Waited);
        assert!(Arc::ptr_eq(&built, &waited));
        let (hit, lookup) = cache.get_or_build::<()>(&k, || panic!("must hit")).unwrap();
        assert_eq!(lookup, Lookup::Hit);
        assert!(Arc::ptr_eq(&built, &hit));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.builds), (2, 1, 1));

        // `invalidate` returns exactly what it removed and counts it.
        for pred in ["a", "b", "c"] {
            cache
                .get_or_build::<()>(&key(pred, 1), || Ok(dummy_plan()))
                .unwrap();
        }
        let removed = cache.invalidate(|k, _| k.predicate == "a" || k.predicate == "c");
        let mut keys: Vec<_> = removed.iter().map(|(k, _)| k.predicate.as_str()).collect();
        keys.sort_unstable();
        assert_eq!(keys, vec!["a", "c"]);
        for (k, plan) in &removed {
            assert!(cache.peek(k).is_none());
            assert_eq!(plan.accuracy_target, 0.95);
        }
        assert!(cache.peek(&key("b", 1)).is_some());
        assert!(cache.peek(&k).is_some());
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().invalidated, 2);
    }
}
