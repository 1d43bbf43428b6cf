//! The maintenance pass: calibration-driven replanning off the hot path.
//!
//! Every query run already folds its telemetry into the shared
//! [`RuntimeMonitor`](pp_core::runtime::RuntimeMonitor) (see
//! [`server`](crate::server)). A maintenance pass consumes that state:
//! when [`needs_replan`](pp_core::runtime::RuntimeMonitor::needs_replan)
//! fires, every *current-epoch* cached plan whose chosen PPs appear among
//! the drifted calibration keys is re-optimized — with the monitor's
//! reduction corrections applied — and the cache entry is atomically
//! swapped. Queries racing the swap read either the old or the new plan;
//! both answer the same predicate at the same accuracy target, so
//! per-blob verdicts are unchanged (pinned by a test in
//! `tests/serving.rs`).
//!
//! A pass runs when the embedder asks for one —
//! [`PpServer::maintenance_now`](crate::server::PpServer::maintenance_now),
//! on the caller's thread — and once more as the last step of
//! [`PpServer::drain`](crate::server::PpServer::drain).

use std::collections::BTreeSet;

use pp_core::catalog::CatalogEpoch;

use crate::audit::{self, AuditPassReport};
use crate::server::ServerInner;

/// What one maintenance pass saw and did.
#[derive(Debug, Clone)]
pub struct MaintenanceReport {
    /// The epoch the pass ran against.
    pub epoch: CatalogEpoch,
    /// Whether the monitor's drift signal was up at pass start.
    pub needs_replan: bool,
    /// Calibration keys flagged as drifted.
    pub drifted_keys: Vec<String>,
    /// Current-epoch cache entries examined.
    pub examined: usize,
    /// Entries re-optimized and atomically swapped.
    pub replanned: usize,
    /// What the accuracy-audit phase of this pass did.
    pub audit: AuditPassReport,
}

pub(crate) fn run_once(inner: &ServerInner) -> MaintenanceReport {
    // Accuracy audit first: replayed evidence may quarantine PPs, and the
    // violated keys join the drifted set so the very same pass replans the
    // affected cache entries (no extra pass of violating queries).
    let audit_report = audit::run_pass(inner);
    let mut drifted: BTreeSet<String> = inner
        .monitor
        .calibration_report()
        .entries
        .into_iter()
        .filter(|e| e.drifted)
        .map(|e| e.key)
        .collect();
    drifted.extend(audit_report.violated_keys.iter().cloned());
    let needs_replan = !drifted.is_empty();
    let snapshot = inner.pps.snapshot();
    let epoch = snapshot.epoch();
    let mut examined = 0usize;
    let mut replanned = 0usize;
    if needs_replan {
        for key in inner.cache.ready_keys() {
            // Stale-epoch entries are dead weight awaiting invalidation,
            // not worth re-optimizing.
            if key.epoch != epoch {
                continue;
            }
            let Some(entry) = inner.cache.peek(&key) else {
                continue;
            };
            examined += 1;
            let uses_drifted = entry.report.chosen.as_ref().is_some_and(|c| {
                c.leaf_keys.iter().any(|k| drifted.contains(k)) || drifted.contains(&c.expr)
            });
            if !uses_drifted {
                continue;
            }
            // Re-optimize off the hot path: the monitor's corrections now
            // apply, so the new plan reflects observed (not validation)
            // reductions. Swap atomically; a failure keeps the old plan —
            // a degraded-but-working plan beats no plan.
            match inner.optimize(
                &key.source,
                &entry.predicate,
                entry.accuracy_target,
                &snapshot,
            ) {
                Ok(new_plan) => {
                    if inner.cache.swap(&key, new_plan) {
                        replanned += 1;
                    }
                }
                Err(_) => {
                    inner
                        .metrics
                        .counter("server.maintenance_replan_failures_total")
                        .inc();
                }
            }
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
        needs_replan,
        drifted_keys: drifted.into_iter().collect(),
        examined,
        replanned,
        audit: audit_report,
    }
}
