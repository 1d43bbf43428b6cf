//! Cross-query shared-scan batching: window concurrent queries by source
//! and run each window over one shared UDF memo.
//!
//! The paper's cost model says the expensive UDF dominates; N concurrent
//! queries over the same source should therefore pay for each blob once,
//! not N times. [`PpServer::submit`](crate::PpServer::submit) parks a
//! request that has [`QueryRequest::shared()`](QueryRequest::shared()) set
//! in the coordinator in this module instead of queueing it alone:
//!
//! 1. **Join or open a window.** Windows are keyed by source name. The
//!    first query over a source opens a window and enqueues one pool job
//!    for it; later queries join until the window fills
//!    ([`SharedScanConfig::max_window`]) or is claimed.
//! 2. **Claim.** When a worker picks the window job up it *claims* the
//!    window: with [`SharedScanConfig::window_wait`] set it first lingers
//!    up to that long (or until the window fills) so concurrent callers
//!    can pile in; with `None` it takes whatever joined while the job was
//!    queued — classic group-commit adaptive batching: windows grow under
//!    load and degrade to singletons when the pool is idle.
//! 3. **Execute.** The window runs every member query through the one
//!    pool-job body every query ends in (a solo query is a window of one
//!    with no linger, no memo and no `server.sharedscan.*` count) — own pinned snapshot, own plan, own
//!    `ExecutionContext`, own `CostMeter` — but all members share one
//!    [`UdfMemo`](pp_engine::memo::UdfMemo), so each expensive UDF runs at most once per blob
//!    across the window. Each query's own PP prefix still decides which
//!    blobs that query scores; the memo only deduplicates work on the
//!    union. Members execute inside per-member `catch_unwind`, so a
//!    worker panic (or injected chaos panic) shreds only the affected
//!    query — siblings still run, and every ticket resolves.
//!
//! Because `CostMeter` charges are simulated (`rows_in × cost_per_row`)
//! and the memo shim preserves UDF names, costs, and schemas, every
//! member's verdicts, `PlanReport`, charges, and telemetry snapshot are
//! byte-identical to the same query submitted alone — the property
//! `tests/shared_scan.rs` pins across mode × parallelism × batch ±
//! seeded faults.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pp_core::catalog::CatalogSnapshot;
use pp_engine::sync::{Condvar, Mutex};

use crate::request::QueryRequest;
use crate::server::ResponseGuard;

/// Shared-scan batching knobs.
#[derive(Debug, Clone)]
pub struct SharedScanConfig {
    /// Maximum queries per window; a window reaching this size is claimed
    /// immediately. Clamped to at least 1.
    pub max_window: usize,
    /// How long a claiming worker lingers for more members after picking
    /// the window up. `None` (the default) claims whatever joined while
    /// the job was queued — adaptive batching with zero added latency
    /// when the pool is idle. Tests that need a full deterministic
    /// window set this generously and submit exactly `max_window`
    /// queries.
    pub window_wait: Option<Duration>,
}

impl Default for SharedScanConfig {
    fn default() -> Self {
        SharedScanConfig {
            max_window: 8,
            window_wait: None,
        }
    }
}

/// One query parked in a window: everything the executor side needs.
pub(crate) struct WindowMember {
    pub(crate) request_id: u64,
    pub(crate) request: QueryRequest,
    pub(crate) snapshot: Arc<CatalogSnapshot>,
    pub(crate) guard: ResponseGuard,
}

struct WindowSlot {
    source: String,
    members: Vec<WindowMember>,
    /// Set by `flush_all` (shutdown/drain) or a full window: the claiming
    /// worker must not linger.
    flushed: bool,
}

struct CoordState {
    /// Source name → id of its currently joinable window.
    open: HashMap<String, u64>,
    windows: HashMap<u64, WindowSlot>,
    next_id: u64,
}

/// What [`SharedScanCoordinator::enqueue`] did with the member.
pub(crate) enum Enqueued {
    /// Joined an existing window; its pool job already exists.
    Joined,
    /// Opened a new window; the caller must enqueue a pool job that
    /// [`claim`](SharedScanCoordinator::claim)s this id.
    Opened(u64),
}

/// Window bookkeeping shared between submitters and claiming workers.
pub(crate) struct SharedScanCoordinator {
    config: SharedScanConfig,
    state: Mutex<CoordState>,
    wakeup: Condvar,
}

impl SharedScanCoordinator {
    pub(crate) fn new(config: SharedScanConfig) -> Self {
        SharedScanCoordinator {
            config,
            state: Mutex::new(CoordState {
                open: HashMap::new(),
                windows: HashMap::new(),
                next_id: 1,
            }),
            wakeup: Condvar::new(),
        }
    }

    fn max_window(&self) -> usize {
        self.config.max_window.max(1)
    }

    /// Adds `member` to the joinable window for its source, opening a new
    /// one when none exists (or the open one is full/flushed/claimed).
    pub(crate) fn enqueue(&self, member: WindowMember) -> Enqueued {
        let source = member.request.source.clone();
        let mut state = self.state.lock();
        if let Some(&id) = state.open.get(&source) {
            if let Some(slot) = state.windows.get_mut(&id) {
                if !slot.flushed && slot.members.len() < self.max_window() {
                    slot.members.push(member);
                    if slot.members.len() >= self.max_window() {
                        slot.flushed = true;
                        state.open.remove(&source);
                        self.wakeup.notify_all();
                    }
                    return Enqueued::Joined;
                }
            }
        }
        let id = state.next_id;
        state.next_id += 1;
        state.windows.insert(
            id,
            WindowSlot {
                source: source.clone(),
                members: vec![member],
                flushed: false,
            },
        );
        state.open.insert(source, id);
        Enqueued::Opened(id)
    }

    /// Takes the window's members for execution. Called by the window's
    /// pool job; lingers up to `window_wait` (if configured) for the
    /// window to fill before claiming whatever joined.
    pub(crate) fn claim(&self, window_id: u64) -> Vec<WindowMember> {
        let mut state = self.state.lock();
        if let Some(wait) = self.config.window_wait {
            let deadline = Instant::now() + wait;
            loop {
                let full = match state.windows.get(&window_id) {
                    Some(slot) => slot.flushed || slot.members.len() >= self.max_window(),
                    None => true,
                };
                if full {
                    break;
                }
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (guard, timeout) = self.wakeup.wait_timeout(state, deadline - now);
                state = guard;
                if timeout.timed_out() {
                    break;
                }
            }
        }
        self.take_locked(&mut state, window_id)
    }

    /// Removes the window without waiting (pool rejected its job).
    pub(crate) fn take(&self, window_id: u64) -> Vec<WindowMember> {
        let mut state = self.state.lock();
        self.take_locked(&mut state, window_id)
    }

    fn take_locked(&self, state: &mut CoordState, window_id: u64) -> Vec<WindowMember> {
        let Some(slot) = state.windows.remove(&window_id) else {
            return Vec::new();
        };
        if state.open.get(&slot.source) == Some(&window_id) {
            state.open.remove(&slot.source);
        }
        slot.members
    }

    /// Closes every open window (shutdown/drain): claiming workers stop
    /// lingering, queued window jobs claim instantly when they run, and
    /// no new members can join. Pending members still execute (or resolve
    /// as `Cancelled` if their jobs are abandoned) — tickets are never
    /// lost.
    pub(crate) fn flush_all(&self) {
        let mut state = self.state.lock();
        for slot in state.windows.values_mut() {
            slot.flushed = true;
        }
        state.open.clear();
        self.wakeup.notify_all();
    }
}
