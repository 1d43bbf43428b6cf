//! The maintenance pass: replanning off the hot path.
//!
//! Every query run already folds its telemetry into the shared
//! [`RuntimeMonitor`](pp_core::runtime::RuntimeMonitor) (see
//! [`server`](crate::server)). A maintenance pass consumes that state.
//! It runs the accuracy audit first, whose verdicts may quarantine PPs,
//! and then asks the monitor's one staleness rule,
//! [`RuntimeMonitor::stale`](pp_core::runtime::RuntimeMonitor::stale),
//! about every *current-epoch* cached plan. A plan is stale when a chosen
//! leaf is quarantined for any cause (fault rate, tripped breaker, by
//! hand or by the audit), when a chosen leaf or the chosen composite has
//! drifted, or when it conjoins leaves for a predicate flagged as
//! dependent — exactly the plans the planner would no longer build. Each
//! stale entry is removed with
//! [`PlanCache::invalidate`](crate::cache::PlanCache::invalidate) and at
//! once rebuilt through
//! [`get_or_build`](crate::cache::PlanCache::get_or_build) — the
//! single-flight miss path every query takes — with the monitor's
//! corrections and quarantines applied. So the rebuild is counted in
//! `cache.builds`, costed for eviction like any other, and the next
//! arrival hits. A query racing the rebuild reads the old plan, waits on
//! the rebuild, or builds the plan itself; every plan answers the same
//! predicate at the same accuracy target, so per-blob verdicts are
//! unchanged (pinned by tests in `tests/serving.rs`).
//!
//! On CI's `audit_smoke` schedules — 2 000 frames at a = 0.9 over 3
//! rounds, and the full 12 000-frame corpus at a = 0.95 — no key drifts,
//! nothing is quarantined and the passes replan 0, 0 and 0 entries (the
//! per-round `replanned=` line). On the full corpus at a = 0.9 they
//! replan 7, 0 and 0, each for a leaf the audit quarantined; no key
//! drifts there either.
//!
//! A failed rebuild leaves the key vacant, and the next arrival builds it
//! the way any miss does: the plan it replaced was stale, so keeping it
//! is not worth a second path in.
//!
//! A pass runs when the embedder asks for one —
//! [`PpServer::maintenance_now`](crate::server::PpServer::maintenance_now),
//! on the caller's thread — and once more as the last step of
//! [`PpServer::drain`](crate::server::PpServer::drain).

use pp_core::catalog::CatalogEpoch;

use crate::audit::{self, AuditPassReport};
use crate::server::ServerInner;

/// What one maintenance pass saw and did.
#[derive(Debug, Clone)]
pub struct MaintenanceReport {
    /// The epoch the pass ran against.
    pub epoch: CatalogEpoch,
    /// Calibration keys flagged as drifted, sorted.
    pub drifted_keys: Vec<String>,
    /// Current-epoch cache entries examined.
    pub examined: usize,
    /// Entries invalidated and rebuilt through the cache's miss path.
    pub replanned: usize,
    /// What the accuracy-audit phase of this pass did.
    pub audit: AuditPassReport,
}

pub(crate) fn run_once(inner: &ServerInner) -> MaintenanceReport {
    // Accuracy audit first: replayed evidence may quarantine PPs, and the
    // very same pass then replans the affected cache entries (no extra
    // pass of violating queries).
    let audit_report = audit::run_pass(inner);
    let drifted_keys: Vec<String> = inner
        .monitor
        .calibration_report()
        .entries
        .into_iter()
        .filter(|e| e.summary.drifted())
        .map(|e| e.key)
        .collect();
    let snapshot = inner.pps.snapshot();
    let epoch = snapshot.epoch();
    let mut examined = 0usize;
    // Stale-epoch entries are dead weight awaiting invalidation, not
    // worth re-optimizing.
    let stale = inner.cache.invalidate(|key, plan| {
        if key.epoch != epoch {
            return false;
        }
        examined += 1;
        inner.monitor.stale(&plan.report)
    });
    // Re-optimize off the hot path: the monitor's corrections and
    // quarantines now apply, so the new plan reflects observed (not
    // validation) reductions and runs no quarantined PP.
    let mut replanned = 0usize;
    for (key, old) in stale {
        let rebuilt = inner.cache.get_or_build(&key, || {
            inner.optimize(&key.source, &old.predicate, old.accuracy_target, &snapshot)
        });
        match rebuilt {
            Ok(_) => replanned += 1,
            Err(_) => inner
                .metrics
                .counter("server.maintenance_replan_failures_total")
                .inc(),
        }
    }
    // Snapshot-garbage gauges: superseded epochs kept alive by pinned
    // snapshots are memory the server cannot reclaim. A stuck query (or a
    // leaked snapshot) shows up as a nonzero stale count and a growing
    // oldest-pinned age.
    let garbage = inner.pps.pinned_snapshots();
    let stale_pinned: usize = garbage
        .iter()
        .filter(|g| g.epoch != epoch)
        .map(|g| g.pinned)
        .sum();
    inner
        .metrics
        .gauge("server.stale_snapshots_pinned")
        .set(stale_pinned as f64);
    let oldest_age = inner
        .pps
        .oldest_pinned_epoch()
        .map_or(0, |oldest| epoch.0.saturating_sub(oldest.0));
    inner
        .metrics
        .gauge("server.oldest_pinned_epoch_age")
        .set(oldest_age as f64);
    inner
        .metrics
        .counter("server.maintenance_passes_total")
        .inc();
    inner
        .metrics
        .counter("server.maintenance_replans_total")
        .add(replanned as u64);
    MaintenanceReport {
        epoch,
        drifted_keys,
        examined,
        replanned,
        audit: audit_report,
    }
}
