//! The store of trained probabilistic predicates.
//!
//! The modified query optimizer "takes two additional inputs compared to
//! the baseline QO: a list of trained probabilistic predicates and a
//! desired accuracy threshold" (§4). The catalog is that list, with the
//! lookups the rewriter needs: exact match by predicate, and "all PPs whose
//! predicate is implied by a given clause" for necessary-condition
//! matching.
//!
//! For long-running serving (the `pp-server` crate), the catalog also comes
//! in a **versioned** form: [`VersionedPpCatalog`] publishes immutable,
//! epoch-stamped [`CatalogSnapshot`]s that readers pin with one atomic
//! handle clone. Publishing a retrained corpus bumps the
//! [`CatalogEpoch`] and swaps the snapshot without pausing in-flight
//! readers — a query planned against epoch `n` keeps its `Arc` alive for
//! as long as it needs, while new queries see epoch `n + 1`.

use std::sync::{Arc, Weak};

use pp_engine::predicate::{Clause, Predicate};
use pp_engine::sync::{Mutex, RwLock};

use crate::implication::Antecedent;
use crate::pp::ProbabilisticPredicate;

/// A collection of trained PPs.
#[derive(Debug, Clone, Default)]
pub struct PpCatalog {
    pps: Vec<Arc<ProbabilisticPredicate>>,
}

impl PpCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        PpCatalog::default()
    }

    /// Adds a PP (replacing any existing PP for the identical predicate).
    pub fn insert(&mut self, pp: ProbabilisticPredicate) -> Arc<ProbabilisticPredicate> {
        let arc = Arc::new(pp);
        if let Some(existing) = self.pps.iter_mut().find(|p| p.key() == arc.key()) {
            *existing = arc.clone();
        } else {
            self.pps.push(arc.clone());
        }
        arc
    }

    /// Number of stored PPs.
    pub fn len(&self) -> usize {
        self.pps.len()
    }

    /// True when no PPs are stored.
    pub fn is_empty(&self) -> bool {
        self.pps.is_empty()
    }

    /// All PPs.
    pub fn all(&self) -> &[Arc<ProbabilisticPredicate>] {
        &self.pps
    }

    /// Exact-match lookup by predicate.
    pub fn get(&self, predicate: &Predicate) -> Option<&Arc<ProbabilisticPredicate>> {
        let key = predicate.to_string();
        self.pps.iter().find(|p| p.key() == key)
    }

    /// Exact-match lookup by simple clause.
    pub fn get_clause(&self, clause: &Clause) -> Option<&Arc<ProbabilisticPredicate>> {
        self.get(&Predicate::Clause(clause.clone()))
    }

    /// PPs usable as necessary conditions for a simple clause `c`: every PP
    /// whose mimicked predicate `q` satisfies `c ⇒ q`.
    ///
    /// Sorted by ascending efficiency ratio `c/r(1]` so that greedy
    /// consumers try the best PP first (§6.1).
    pub fn implied_by_clause(&self, c: &Clause) -> Vec<Arc<ProbabilisticPredicate>> {
        self.implied_by(&Predicate::Clause(c.clone()))
    }

    /// PPs usable as necessary conditions for an arbitrary predicate, in
    /// [`implied_by_clause`](Self::implied_by_clause)'s order. The
    /// predicate is prepared as an antecedent once and every PP's stored
    /// normal form is tested against it.
    pub fn implied_by(&self, predicate: &Predicate) -> Vec<Arc<ProbabilisticPredicate>> {
        let antecedent = Antecedent::new(predicate);
        let mut out: Vec<Arc<ProbabilisticPredicate>> = self
            .pps
            .iter()
            .filter(|pp| antecedent.implies(pp.nnf()))
            .cloned()
            .collect();
        out.sort_by(|a, b| a.efficiency_ratio().total_cmp(&b.efficiency_ratio()));
        out
    }

    /// Removes PPs not satisfying the predicate filter (used by the Table
    /// 10 "drop half the corpus" experiment).
    pub fn retain(&mut self, keep: impl Fn(&ProbabilisticPredicate) -> bool) {
        self.pps.retain(|pp| keep(pp));
    }
}

/// Monotonic version stamp of a published PP-catalog snapshot. Epoch 1 is
/// the initial corpus; every [`VersionedPpCatalog::publish`] bumps it by
/// one. Plan caches key on the epoch so entries from a superseded corpus
/// can never serve a query planned against the current one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CatalogEpoch(pub u64);

impl std::fmt::Display for CatalogEpoch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// An immutable, epoch-stamped view of the trained-PP corpus. Cheap to
/// clone behind an `Arc`; holders keep planning against it even after a
/// newer epoch is published.
#[derive(Debug, Clone)]
pub struct CatalogSnapshot {
    epoch: CatalogEpoch,
    pps: PpCatalog,
}

impl CatalogSnapshot {
    /// The epoch this snapshot was published at.
    pub fn epoch(&self) -> CatalogEpoch {
        self.epoch
    }

    /// The PP corpus frozen into this snapshot.
    pub fn pps(&self) -> &PpCatalog {
        &self.pps
    }
}

/// A hot-swappable, thread-safe handle over epoch-stamped PP-catalog
/// snapshots.
///
/// Readers call [`snapshot`][Self::snapshot] to pin the current epoch (one
/// `RwLock` read + one `Arc` clone); writers call
/// [`publish`][Self::publish] to install a retrained corpus under the next
/// epoch. Swaps never block or invalidate pinned snapshots, so a serving
/// runtime can retrain PPs continuously without pausing in-flight queries.
#[derive(Debug)]
pub struct VersionedPpCatalog {
    current: RwLock<Arc<CatalogSnapshot>>,
    /// Weak handles to every published snapshot, for garbage
    /// observability: a stale epoch whose `Weak` still upgrades is pinned
    /// by some in-flight reader.
    history: Mutex<Vec<(CatalogEpoch, Weak<CatalogSnapshot>)>>,
}

impl VersionedPpCatalog {
    /// Publishes `initial` as epoch 1.
    pub fn new(initial: PpCatalog) -> Self {
        let first = Arc::new(CatalogSnapshot {
            epoch: CatalogEpoch(1),
            pps: initial,
        });
        VersionedPpCatalog {
            history: Mutex::new(vec![(CatalogEpoch(1), Arc::downgrade(&first))]),
            current: RwLock::new(first),
        }
    }

    /// The currently published epoch.
    pub fn epoch(&self) -> CatalogEpoch {
        self.current.read().epoch
    }

    /// Pins the current snapshot.
    pub fn snapshot(&self) -> Arc<CatalogSnapshot> {
        Arc::clone(&self.current.read())
    }

    /// Atomically publishes `pps` under the next epoch and returns it.
    pub fn publish(&self, pps: PpCatalog) -> CatalogEpoch {
        let mut current = self.current.write();
        let epoch = CatalogEpoch(current.epoch.0 + 1);
        let next = Arc::new(CatalogSnapshot { epoch, pps });
        self.history.lock().push((epoch, Arc::downgrade(&next)));
        *current = next;
        epoch
    }

    /// Publishes a corpus derived from the current one (e.g. inserting a
    /// freshly trained PP or dropping a retired one). The update closure
    /// runs under the write lock, so concurrent `publish_with` calls
    /// serialize and neither update is lost.
    pub fn publish_with(&self, update: impl FnOnce(&PpCatalog) -> PpCatalog) -> CatalogEpoch {
        let mut current = self.current.write();
        let epoch = CatalogEpoch(current.epoch.0 + 1);
        let pps = update(&current.pps);
        let next = Arc::new(CatalogSnapshot { epoch, pps });
        self.history.lock().push((epoch, Arc::downgrade(&next)));
        *current = next;
        epoch
    }

    /// Per-epoch pin counts of every snapshot still alive, oldest epoch
    /// first. The catalog's own reference to the current epoch is
    /// excluded, so `pinned` counts *external* holders only — a stale
    /// epoch with `pinned > 0` is garbage some in-flight query keeps
    /// alive; dead epochs are pruned from the history as a side effect.
    pub fn pinned_snapshots(&self) -> Vec<SnapshotGarbage> {
        let current_epoch = self.epoch();
        let mut history = self.history.lock();
        history.retain(|(_, weak)| weak.strong_count() > 0);
        history
            .iter()
            .map(|(epoch, weak)| {
                let mut pinned = weak.strong_count();
                if *epoch == current_epoch {
                    pinned = pinned.saturating_sub(1);
                }
                SnapshotGarbage {
                    epoch: *epoch,
                    pinned,
                }
            })
            .collect()
    }

    /// The oldest epoch still pinned by an external holder, if any.
    /// `current_epoch − oldest` is the "snapshot garbage age" a publish
    /// storm drives up.
    pub fn oldest_pinned_epoch(&self) -> Option<CatalogEpoch> {
        self.pinned_snapshots()
            .into_iter()
            .filter(|g| g.pinned > 0)
            .map(|g| g.epoch)
            .min()
    }
}

/// Liveness of one published epoch's snapshot (see
/// [`VersionedPpCatalog::pinned_snapshots`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotGarbage {
    /// The epoch the snapshot was published at.
    pub epoch: CatalogEpoch,
    /// External `Arc` holders keeping it alive (the catalog's own
    /// reference to the current epoch is excluded).
    pub pinned: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pp::tests::trained_pp;
    use pp_engine::CompareOp;

    fn pp_for(pred: Predicate, seed: u64) -> ProbabilisticPredicate {
        let base = trained_pp(0.3, seed, 0.001);
        ProbabilisticPredicate::new(pred, base.pipeline().clone(), 0.001).unwrap()
    }

    #[test]
    fn insert_and_exact_lookup() {
        let mut cat = PpCatalog::new();
        let p = Predicate::from(Clause::new("t", CompareOp::Eq, "SUV"));
        cat.insert(pp_for(p.clone(), 1));
        assert_eq!(cat.len(), 1);
        assert!(cat.get(&p).is_some());
        assert!(cat
            .get(&Predicate::from(Clause::new("t", CompareOp::Eq, "van")))
            .is_none());
        // Replacement keeps a single entry.
        cat.insert(pp_for(p.clone(), 2));
        assert_eq!(cat.len(), 1);
    }

    #[test]
    fn implied_lookup_finds_relaxations() {
        let mut cat = PpCatalog::new();
        cat.insert(pp_for(
            Predicate::from(Clause::new("s", CompareOp::Gt, 50.0)),
            1,
        ));
        cat.insert(pp_for(
            Predicate::from(Clause::new("s", CompareOp::Gt, 60.0)),
            2,
        ));
        cat.insert(pp_for(
            Predicate::from(Clause::new("s", CompareOp::Lt, 70.0)),
            3,
        ));
        cat.insert(pp_for(
            Predicate::from(Clause::new("t", CompareOp::Eq, "SUV")),
            4,
        ));
        // The clause s > 65 implies both s > 50 and s > 60 PPs.
        let c = Clause::new("s", CompareOp::Gt, 65.0);
        let found = cat.implied_by_clause(&c);
        assert_eq!(found.len(), 2);
        for pp in &found {
            assert!(pp.key().starts_with("s >"));
        }
    }

    #[test]
    fn implied_by_predicate_handles_conjunctions() {
        let mut cat = PpCatalog::new();
        cat.insert(pp_for(
            Predicate::from(Clause::new("t", CompareOp::Eq, "SUV")),
            1,
        ));
        cat.insert(pp_for(
            Predicate::from(Clause::new("c", CompareOp::Eq, "red")),
            2,
        ));
        let pred = Predicate::and(
            Predicate::from(Clause::new("t", CompareOp::Eq, "SUV")),
            Predicate::from(Clause::new("c", CompareOp::Eq, "red")),
        );
        assert_eq!(cat.implied_by(&pred).len(), 2);
        // A disjunction implies neither leaf PP.
        let disj = Predicate::or(
            Predicate::from(Clause::new("t", CompareOp::Eq, "SUV")),
            Predicate::from(Clause::new("c", CompareOp::Eq, "red")),
        );
        assert!(cat.implied_by(&disj).is_empty());
    }

    #[test]
    fn publish_bumps_epoch_without_invalidating_pinned_snapshots() {
        let mut initial = PpCatalog::new();
        initial.insert(pp_for(
            Predicate::from(Clause::new("t", CompareOp::Eq, "SUV")),
            1,
        ));
        let versioned = VersionedPpCatalog::new(initial);
        assert_eq!(versioned.epoch(), CatalogEpoch(1));

        let pinned = versioned.snapshot();
        assert_eq!(pinned.epoch(), CatalogEpoch(1));
        assert_eq!(pinned.pps().len(), 1);

        let e2 = versioned.publish_with(|old| {
            let mut next = old.clone();
            next.insert(pp_for(
                Predicate::from(Clause::new("t", CompareOp::Eq, "van")),
                2,
            ));
            next
        });
        assert_eq!(e2, CatalogEpoch(2));
        assert_eq!(versioned.epoch(), CatalogEpoch(2));
        assert_eq!(versioned.snapshot().pps().len(), 2);
        // The pinned snapshot still sees the old corpus.
        assert_eq!(pinned.epoch(), CatalogEpoch(1));
        assert_eq!(pinned.pps().len(), 1);

        let e3 = versioned.publish(PpCatalog::new());
        assert_eq!(e3, CatalogEpoch(3));
        assert!(versioned.snapshot().pps().is_empty());
    }

    #[test]
    fn concurrent_publish_with_serializes_updates() {
        let versioned = std::sync::Arc::new(VersionedPpCatalog::new(PpCatalog::new()));
        let threads: Vec<_> = (0..8u64)
            .map(|i| {
                let v = std::sync::Arc::clone(&versioned);
                std::thread::spawn(move || {
                    v.publish_with(|old| {
                        let mut next = old.clone();
                        next.insert(pp_for(
                            Predicate::from(Clause::new("s", CompareOp::Gt, i as f64)),
                            i + 1,
                        ));
                        next
                    })
                })
            })
            .collect();
        let mut epochs: Vec<u64> = threads
            .into_iter()
            .map(|t| t.join().expect("publisher thread").0)
            .collect();
        epochs.sort_unstable();
        // Every publish got a distinct consecutive epoch and no insert was
        // lost to a racing writer.
        assert_eq!(epochs, (2..=9).collect::<Vec<u64>>());
        assert_eq!(versioned.epoch(), CatalogEpoch(9));
        assert_eq!(versioned.snapshot().pps().len(), 8);
    }

    #[test]
    fn pinned_snapshot_garbage_is_observable() {
        let versioned = VersionedPpCatalog::new(PpCatalog::new());
        let pinned = versioned.snapshot(); // external pin on epoch 1
        versioned.publish(PpCatalog::new()); // epoch 2, dies unpinned
        versioned.publish(PpCatalog::new()); // epoch 3, current
        let garbage = versioned.pinned_snapshots();
        assert!(garbage
            .iter()
            .any(|g| g.epoch == CatalogEpoch(1) && g.pinned == 1));
        assert!(
            !garbage.iter().any(|g| g.epoch == CatalogEpoch(2)),
            "unpinned stale epoch must be pruned"
        );
        assert!(garbage
            .iter()
            .any(|g| g.epoch == CatalogEpoch(3) && g.pinned == 0));
        assert_eq!(versioned.oldest_pinned_epoch(), Some(CatalogEpoch(1)));
        drop(pinned);
        assert!(versioned
            .pinned_snapshots()
            .iter()
            .all(|g| g.epoch == CatalogEpoch(3)));
        assert_eq!(versioned.oldest_pinned_epoch(), None);
    }

    #[test]
    fn retain_drops() {
        let mut cat = PpCatalog::new();
        cat.insert(pp_for(
            Predicate::from(Clause::new("t", CompareOp::Eq, "SUV")),
            1,
        ));
        cat.insert(pp_for(
            Predicate::from(Clause::new("t", CompareOp::Eq, "van")),
            2,
        ));
        cat.retain(|pp| pp.key().contains("SUV"));
        assert_eq!(cat.len(), 1);
    }
}
