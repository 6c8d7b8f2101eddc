//! Proactive recovery: epoch-based replica refresh.
//!
//! PBFT's safety argument assumes at most `f` faulty replicas *forever*;
//! without intervention, slow compromise eventually crosses the bound. The
//! [`RecoveryScheduler`] restores it proactively: clocked by a periodic
//! `simnet` timer, it advances a global **recovery epoch** and round-robins
//! every replica through [`Replica::restart`] followed by the PR 4
//! checkpoint state-transfer path, so each replica periodically returns to
//! a clean state rebuilt from the group's certified checkpoint.
//!
//! Two properties make the refresh safe and cheap:
//!
//! * **Stagger bound** — at most one replica (≤ f) is mid-refresh at any
//!   instant. The scheduler restarts the next replica only after the
//!   previous one has rejoined (executing again with no transfer in
//!   flight) or its refresh deadline expired, so the agreement quorum
//!   `2f + 1` is never reduced by more than one member and client
//!   throughput stays above zero throughout a rotation.
//! * **RNIC-fenced offers** — on each epoch roll every replica
//!   re-registers its checkpoint-store memory region and invalidates the
//!   previous one ([`Replica::roll_recovery_epoch`]). A one-sided READ
//!   carrying a stale epoch's rkey is denied by the rdma-verbs permission
//!   check (`stale_rkey_denied`), and the NIO stack mirrors the fence by
//!   rejecting `StateRequest`s tagged with a stale epoch at the responder
//!   (`stale_epoch_rejected`). Dynamic permission revocation as a protocol
//!   primitive follows Aguilera et al., *The Impact of RDMA on Agreement*.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use simnet::{Metrics, Nanos, Simulator};

use crate::replica::Replica;
use crate::state::StateMachine;

/// Timing knobs of the proactive-recovery rotation.
#[derive(Debug, Clone)]
pub struct RecoveryConfig {
    /// Period between rotation starts (one epoch roll each).
    pub period: Nanos,
    /// Poll interval while waiting for a restarted replica to rejoin.
    pub poll: Nanos,
    /// Per-replica refresh deadline: a replica that has not rejoined by
    /// then is abandoned (counted) and the rotation moves on, so one dead
    /// replica cannot wedge proactive recovery for the whole group.
    pub refresh_deadline: Nanos,
}

impl Default for RecoveryConfig {
    fn default() -> RecoveryConfig {
        RecoveryConfig {
            period: Nanos::from_millis(400),
            poll: Nanos::from_millis(5),
            refresh_deadline: Nanos::from_millis(200),
        }
    }
}

/// Counters exposed by the scheduler: a snapshot of its
/// `recovery.proactive_*` registry keys, read by
/// [`RecoveryScheduler::stats`]. Field `x` is key `recovery.proactive_x`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Epoch rolls issued (one per rotation start).
    pub epoch_rolls: u64,
    /// Replica refreshes that completed (restart + rejoin).
    pub refreshes_completed: u64,
    /// Refreshes abandoned at the deadline.
    pub refresh_timeouts: u64,
    /// Full rotations (every replica refreshed once) completed.
    pub rotations_completed: u64,
    /// Timer ticks skipped because the previous rotation was still
    /// running.
    pub rotations_skipped: u64,
}

/// Factory producing a fresh, empty service instance for each restart.
pub type ServiceFactory = Box<dyn FnMut() -> Box<dyn StateMachine>>;

struct SchedInner {
    replicas: Vec<Replica>,
    service: ServiceFactory,
    cfg: RecoveryConfig,
    metrics: Metrics,
    /// The epoch the last roll advanced the group to.
    epoch: u64,
    /// Replica index currently mid-refresh (`None` between refreshes).
    refreshing: Option<usize>,
    /// Victims still to refresh in the current rotation.
    pending: VecDeque<usize>,
}

impl SchedInner {
    fn bump(&self, metric: &str) {
        self.metrics.incr(&format!("recovery.{metric}"));
    }

    fn counter(&self, metric: &str) -> u64 {
        self.metrics.counter(&format!("recovery.{metric}"))
    }
}

/// Drives epoch-based proactive recovery over a replica group. Cheap to
/// clone (shared handle).
#[derive(Clone)]
pub struct RecoveryScheduler {
    inner: Rc<RefCell<SchedInner>>,
}

impl RecoveryScheduler {
    /// Creates a scheduler over `replicas`. `service` mints the fresh
    /// state-machine instance handed to each [`Replica::restart`].
    pub fn new(
        replicas: Vec<Replica>,
        cfg: RecoveryConfig,
        metrics: Metrics,
        service: ServiceFactory,
    ) -> RecoveryScheduler {
        assert!(!replicas.is_empty(), "recovery needs at least one replica");
        RecoveryScheduler {
            inner: Rc::new(RefCell::new(SchedInner {
                replicas,
                service,
                cfg,
                metrics,
                epoch: 0,
                refreshing: None,
                pending: VecDeque::new(),
            })),
        }
    }

    /// Arms the periodic rotation timer: one rotation attempt every
    /// `cfg.period` until `stop_after` rotations have completed (pass
    /// `u64::MAX` for an open-ended schedule).
    pub fn start(&self, sim: &mut Simulator, stop_after: u64) {
        let period = self.inner.borrow().cfg.period;
        let sched = self.clone();
        sim.schedule_every(period, move |sim| {
            if sched.stats().rotations_completed >= stop_after {
                return false;
            }
            sched.begin_rotation(sim);
            true
        });
    }

    /// Starts one rotation: rolls the group to the next recovery epoch
    /// (re-registering and fencing every store region) and begins
    /// refreshing replicas one at a time. Returns `false` (and counts a
    /// skip) if the previous rotation is still in progress.
    pub fn begin_rotation(&self, sim: &mut Simulator) -> bool {
        let (epoch, replicas) = {
            let mut inner = self.inner.borrow_mut();
            if inner.refreshing.is_some() || !inner.pending.is_empty() {
                inner.bump("proactive_rotations_skipped");
                return false;
            }
            inner.epoch += 1;
            inner.bump("proactive_epoch_rolls");
            inner.pending = (0..inner.replicas.len()).collect();
            (inner.epoch, inner.replicas.clone())
        };
        // Fence first, restart second: every replica (including the ones
        // not yet refreshed) re-registers its store regions under the new
        // epoch before any fetcher starts a transfer against them.
        for r in &replicas {
            r.roll_recovery_epoch(sim, epoch);
        }
        self.refresh_next(sim);
        true
    }

    /// The recovery epoch of the most recent roll.
    pub fn epoch(&self) -> u64 {
        self.inner.borrow().epoch
    }

    /// Index of the replica currently mid-refresh, if any. The stagger
    /// invariant is that this is never more than one replica — tests
    /// sample it at every simulator step.
    pub fn refreshing(&self) -> Option<usize> {
        self.inner.borrow().refreshing
    }

    /// Scheduler counters: a typed view over the `recovery.proactive_*`
    /// registry keys. The registry is the only store, so the view is exact
    /// while one scheduler runs per registry.
    pub fn stats(&self) -> RecoveryStats {
        let inner = self.inner.borrow();
        RecoveryStats {
            epoch_rolls: inner.counter("proactive_epoch_rolls"),
            refreshes_completed: inner.counter("proactive_refreshes_completed"),
            refresh_timeouts: inner.counter("proactive_refresh_timeouts"),
            rotations_completed: inner.counter("proactive_rotations_completed"),
            rotations_skipped: inner.counter("proactive_rotations_skipped"),
        }
    }

    fn refresh_next(&self, sim: &mut Simulator) {
        let victim = {
            let mut inner = self.inner.borrow_mut();
            match inner.pending.pop_front() {
                Some(v) => {
                    inner.refreshing = Some(v);
                    v
                }
                None => {
                    inner.bump("proactive_rotations_completed");
                    return;
                }
            }
        };
        let (replica, fresh, poll, deadline) = {
            let mut inner = self.inner.borrow_mut();
            let fresh = (inner.service)();
            (
                inner.replicas[victim].clone(),
                fresh,
                inner.cfg.poll,
                sim.now() + inner.cfg.refresh_deadline,
            )
        };
        self.inner.borrow().bump("proactive_refreshes_started");
        replica.restart(sim, fresh);
        self.poll_rejoin(sim, victim, poll, deadline);
    }

    fn poll_rejoin(&self, sim: &mut Simulator, victim: usize, poll: Nanos, deadline: Nanos) {
        let sched = self.clone();
        sim.schedule_in(
            poll,
            Box::new(move |sim| {
                let rejoined = {
                    let inner = sched.inner.borrow();
                    let r = &inner.replicas[victim];
                    r.last_executed() > 0 && !r.transfer_in_progress()
                };
                if rejoined {
                    let mut inner = sched.inner.borrow_mut();
                    inner.refreshing = None;
                    inner.bump("proactive_refreshes_completed");
                } else if sim.now() >= deadline {
                    let mut inner = sched.inner.borrow_mut();
                    inner.refreshing = None;
                    inner.bump("proactive_refresh_timeouts");
                } else {
                    sched.poll_rejoin(sim, victim, poll, deadline);
                    return;
                }
                sched.refresh_next(sim);
            }),
        );
    }
}
