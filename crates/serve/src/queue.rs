//! Bounded admission queue: per-tenant quotas, deadline-earliest-first
//! dispatch, and fair-share preemption under overload.
//!
//! The queue is the scheduler core of the daemon, deliberately free of
//! any socket or engine code so its policy is unit-testable:
//!
//! * **admission** — [`submit`](AdmissionQueue::submit) rejects with a
//!   structured [`AdmitError`] when the queue is at capacity, when the
//!   tenant's queued+running count has reached its quota, or when the
//!   server is draining;
//! * **priority** — [`take`](AdmissionQueue::take) hands workers the
//!   pending entry with the earliest deadline (`deadline_ms` ascending,
//!   no deadline = last, submission order as the tie-break), so a tight
//!   interactive request overtakes queued batch work;
//! * **preemption** — when every worker is busy and a new submission has
//!   a strictly earlier deadline than the latest-deadline running job,
//!   that job's [`CancelFlag`] is tripped. The job engine turns the trip
//!   into a checkpoint (the PR-5 cancel contract), the worker reports the
//!   preemption back via [`finish`](AdmissionQueue::finish), and the
//!   entry is silently re-queued; its eventual resume is bit-identical to
//!   an uninterrupted run, so the client only ever sees the final report.
//!
//! Quota accounting covers queued *and* running work, and a preempted job
//! keeps its slot in the count — preemption defers work, it never lets a
//! tenant exceed its share.

use eplace::CancelFlag;
use placer_jobs::JobSpec;
use std::collections::HashMap;
use std::sync::{Condvar, Mutex};

/// Admission-control policy knobs.
#[derive(Debug, Clone)]
pub struct QueueConfig {
    /// Maximum pending (not yet running) entries.
    pub capacity: usize,
    /// Maximum queued+running entries per tenant.
    pub tenant_quota: usize,
    /// Worker slots (used by the preemption check: a submission can only
    /// preempt when all slots are busy).
    pub workers: usize,
}

impl Default for QueueConfig {
    fn default() -> Self {
        Self {
            capacity: 64,
            tenant_quota: 16,
            workers: 2,
        }
    }
}

/// Why a submission was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmitError {
    /// The pending queue is at capacity.
    QueueFull {
        /// The configured capacity it hit.
        capacity: usize,
    },
    /// The tenant is at its queued+running quota.
    QuotaExceeded {
        /// The tenant that hit its quota.
        tenant: String,
        /// The configured per-tenant quota.
        quota: usize,
    },
    /// The server is draining and admits nothing new.
    Draining,
}

/// One unit of admitted work: a job spec plus the submitter's context
/// (`T` is the server's completion payload — outbound writer, ledger
/// handle — opaque to the queue).
struct Pending<T> {
    seq: u64,
    tenant: String,
    spec: JobSpec,
    payload: T,
    /// How many times this entry has been preempted and re-queued.
    preemptions: u32,
}

struct Running {
    seq: u64,
    deadline_ms: Option<f64>,
    flag: CancelFlag,
}

/// A leased entry: the worker runs it, then must call
/// [`AdmissionQueue::finish`] exactly once.
pub struct Lease<T> {
    seq: u64,
    /// Tenant that submitted the job.
    pub tenant: String,
    /// The work itself.
    pub spec: JobSpec,
    /// The submitter's completion context.
    pub payload: T,
    /// Preemption handle for this run; the worker attaches it to the job
    /// engine so [`AdmissionQueue::submit`] can cancel the run.
    pub flag: CancelFlag,
    /// How many times this entry was preempted before this lease.
    pub preemptions: u32,
}

struct QState<T> {
    pending: Vec<Pending<T>>,
    running: Vec<Running>,
    /// Queued+running entries per tenant.
    counts: HashMap<String, usize>,
    next_seq: u64,
    draining: bool,
    completed: u64,
    preempted: u64,
}

/// The bounded, quota'd, deadline-ordered admission queue.
pub struct AdmissionQueue<T> {
    config: QueueConfig,
    state: Mutex<QState<T>>,
    ready: Condvar,
    idle: Condvar,
}

/// Counters surfaced by the `stats` frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueStats {
    /// Entries waiting for a worker.
    pub pending: usize,
    /// Entries currently running.
    pub running: usize,
    /// Entries finished (delivered, not re-queued).
    pub completed: u64,
    /// Preemption events (each re-queues its entry).
    pub preempted: u64,
}

impl<T> AdmissionQueue<T> {
    /// An empty queue with the given policy.
    pub fn new(config: QueueConfig) -> Self {
        Self {
            config,
            state: Mutex::new(QState {
                pending: Vec::new(),
                running: Vec::new(),
                counts: HashMap::new(),
                next_seq: 0,
                draining: false,
                completed: 0,
                preempted: 0,
            }),
            ready: Condvar::new(),
            idle: Condvar::new(),
        }
    }

    /// Sort key: earliest deadline first, `None` after every deadline,
    /// submission order as the tie-break. Relative deadlines are the
    /// priority signal — jobs carry `deadline_ms` budgets, not absolute
    /// timestamps, so the shorter budget is the more urgent request.
    fn priority(deadline_ms: Option<f64>, seq: u64) -> (f64, u64) {
        (deadline_ms.unwrap_or(f64::INFINITY), seq)
    }

    /// Admits one entry, possibly preempting a running job to make room
    /// for an earlier deadline. Returns the number of pending entries
    /// ahead of the new one.
    ///
    /// # Errors
    ///
    /// [`AdmitError`] when draining, at capacity, or over the tenant's
    /// quota — the queue is unchanged in every error case.
    pub fn submit(&self, tenant: &str, spec: JobSpec, payload: T) -> Result<usize, AdmitError> {
        let mut st = self.state.lock().unwrap();
        if st.draining {
            return Err(AdmitError::Draining);
        }
        if st.pending.len() >= self.config.capacity {
            return Err(AdmitError::QueueFull {
                capacity: self.config.capacity,
            });
        }
        let used = st.counts.get(tenant).copied().unwrap_or(0);
        if used >= self.config.tenant_quota {
            return Err(AdmitError::QuotaExceeded {
                tenant: tenant.to_string(),
                quota: self.config.tenant_quota,
            });
        }
        let seq = st.next_seq;
        st.next_seq += 1;
        let new_key = Self::priority(spec.deadline_ms, seq);
        let ahead = st
            .pending
            .iter()
            .filter(|p| Self::priority(p.spec.deadline_ms, p.seq) < new_key)
            .count();
        st.pending.push(Pending {
            seq,
            tenant: tenant.to_string(),
            spec,
            payload,
            preemptions: 0,
        });
        *st.counts.entry(tenant.to_string()).or_insert(0) += 1;

        // Fair-share preemption: with every worker busy, an earlier
        // deadline evicts the latest-deadline running job. The victim
        // checkpoints and re-queues; nothing is lost, only deferred.
        if st.running.len() >= self.config.workers {
            if let Some(victim) = st
                .running
                .iter()
                .max_by(|a, b| {
                    Self::priority(a.deadline_ms, a.seq)
                        .partial_cmp(&Self::priority(b.deadline_ms, b.seq))
                        .expect("priorities are never NaN")
                })
                .filter(|v| {
                    Self::priority(v.deadline_ms, v.seq) > new_key && !v.flag.is_cancelled()
                })
            {
                victim.flag.cancel();
                st.preempted += 1;
            }
        }
        drop(st);
        self.ready.notify_one();
        Ok(ahead)
    }

    /// Blocks until an entry is available (or the queue is draining and
    /// empty — then `None`, the worker's signal to exit). The returned
    /// lease's entry is the current earliest-deadline pending job.
    pub fn take(&self) -> Option<Lease<T>> {
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some(best) = (0..st.pending.len()).min_by(|&a, &b| {
                let ka = Self::priority(st.pending[a].spec.deadline_ms, st.pending[a].seq);
                let kb = Self::priority(st.pending[b].spec.deadline_ms, st.pending[b].seq);
                ka.partial_cmp(&kb).expect("priorities are never NaN")
            }) {
                let entry = st.pending.swap_remove(best);
                let flag = CancelFlag::new();
                st.running.push(Running {
                    seq: entry.seq,
                    deadline_ms: entry.spec.deadline_ms,
                    flag: flag.clone(),
                });
                return Some(Lease {
                    seq: entry.seq,
                    tenant: entry.tenant,
                    spec: entry.spec,
                    payload: entry.payload,
                    flag,
                    preemptions: entry.preemptions,
                });
            }
            if st.draining {
                return None;
            }
            st = self.ready.wait(st).unwrap();
        }
    }

    /// Completes a lease. `preempted: true` re-queues the entry (same
    /// seq, so its position among equal deadlines is preserved) without
    /// touching the tenant's count; `false` releases the slot.
    pub fn finish(&self, lease: Lease<T>, preempted: bool) {
        let mut st = self.state.lock().unwrap();
        st.running.retain(|r| r.seq != lease.seq);
        if preempted {
            st.pending.push(Pending {
                seq: lease.seq,
                tenant: lease.tenant,
                spec: lease.spec,
                payload: lease.payload,
                preemptions: lease.preemptions + 1,
            });
            drop(st);
            self.ready.notify_one();
            return;
        }
        if let Some(count) = st.counts.get_mut(&lease.tenant) {
            *count = count.saturating_sub(1);
            if *count == 0 {
                st.counts.remove(&lease.tenant);
            }
        }
        st.completed += 1;
        let empty = st.pending.is_empty() && st.running.is_empty();
        drop(st);
        if empty {
            self.idle.notify_all();
        }
    }

    /// Switches to draining: new submissions fail, workers exit once the
    /// queue empties.
    pub fn drain(&self) {
        self.state.lock().unwrap().draining = true;
        self.ready.notify_all();
        self.idle.notify_all();
    }

    /// Blocks until every admitted entry has completed (pending and
    /// running both empty). Used by graceful shutdown after
    /// [`drain`](Self::drain).
    pub fn wait_idle(&self) {
        let mut st = self.state.lock().unwrap();
        while !(st.pending.is_empty() && st.running.is_empty()) {
            st = self.idle.wait(st).unwrap();
        }
    }

    /// Current queue counters.
    pub fn stats(&self) -> QueueStats {
        let st = self.state.lock().unwrap();
        QueueStats {
            pending: st.pending.len(),
            running: st.running.len(),
            completed: st.completed,
            preempted: st.preempted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(id: &str, deadline_ms: Option<f64>) -> JobSpec {
        let mut s = JobSpec::new(id, "adder", "sa");
        s.deadline_ms = deadline_ms;
        s
    }

    fn queue(capacity: usize, quota: usize, workers: usize) -> AdmissionQueue<&'static str> {
        AdmissionQueue::new(QueueConfig {
            capacity,
            tenant_quota: quota,
            workers,
        })
    }

    #[test]
    fn queue_full_and_quota_are_structured_rejections() {
        let q = queue(2, 2, 1);
        q.submit("a", spec("j1", None), "p").unwrap();
        q.submit("b", spec("j2", None), "p").unwrap();
        assert_eq!(
            q.submit("c", spec("j3", None), "p").unwrap_err(),
            AdmitError::QueueFull { capacity: 2 }
        );

        let q = queue(10, 2, 1);
        q.submit("a", spec("j1", None), "p").unwrap();
        q.submit("a", spec("j2", None), "p").unwrap();
        assert_eq!(
            q.submit("a", spec("j3", None), "p").unwrap_err(),
            AdmitError::QuotaExceeded {
                tenant: "a".into(),
                quota: 2
            }
        );
        // Another tenant still gets in — the quota is per tenant.
        q.submit("b", spec("j4", None), "p").unwrap();
    }

    #[test]
    fn earliest_deadline_dispatches_first() {
        let q = queue(10, 10, 1);
        q.submit("a", spec("slow", Some(9000.0)), "p").unwrap();
        q.submit("a", spec("none", None), "p").unwrap();
        q.submit("a", spec("fast", Some(100.0)), "p").unwrap();
        let order: Vec<String> = (0..3)
            .map(|_| {
                let lease = q.take().unwrap();
                let id = lease.spec.id.clone();
                q.finish(lease, false);
                id
            })
            .collect();
        assert_eq!(order, ["fast", "slow", "none"]);
    }

    #[test]
    fn ties_keep_submission_order() {
        let q = queue(10, 10, 1);
        for i in 0..4 {
            q.submit("a", spec(&format!("j{i}"), Some(50.0)), "p")
                .unwrap();
        }
        for i in 0..4 {
            let lease = q.take().unwrap();
            assert_eq!(lease.spec.id, format!("j{i}"));
            q.finish(lease, false);
        }
    }

    #[test]
    fn overload_preempts_the_latest_deadline_running_job() {
        let q = queue(10, 10, 2);
        q.submit("a", spec("r1", Some(500.0)), "p").unwrap();
        q.submit("a", spec("r2", Some(9000.0)), "p").unwrap();
        let l1 = q.take().unwrap();
        let l2 = q.take().unwrap();
        assert!(!l1.flag.is_cancelled() && !l2.flag.is_cancelled());

        // Queue has capacity but both workers are busy: an urgent job
        // preempts r2 (latest deadline), never r1.
        q.submit("b", spec("urgent", Some(50.0)), "p").unwrap();
        assert!(
            !l1.flag.is_cancelled(),
            "earlier-deadline job keeps running"
        );
        assert!(l2.flag.is_cancelled(), "latest-deadline job is preempted");
        assert_eq!(q.stats().preempted, 1);

        // The preempted worker hands the entry back; it re-queues behind
        // the urgent job but ahead of nothing else (deadline order).
        q.finish(l2, true);
        let urgent = q.take().unwrap();
        assert_eq!(urgent.spec.id, "urgent");
        q.finish(urgent, false);
        let resumed = q.take().unwrap();
        assert_eq!(resumed.spec.id, "r2");
        assert_eq!(resumed.preemptions, 1);
        assert!(
            !resumed.flag.is_cancelled(),
            "re-queued entry gets a fresh, untripped flag"
        );
        q.finish(resumed, false);
        q.finish(l1, false);
        assert_eq!(q.stats().completed, 3);
    }

    #[test]
    fn no_preemption_with_a_free_worker_or_later_deadline() {
        let q = queue(10, 10, 2);
        q.submit("a", spec("r1", Some(500.0)), "p").unwrap();
        let l1 = q.take().unwrap();
        // A worker is free: no preemption even for an urgent job.
        q.submit("b", spec("urgent", Some(10.0)), "p").unwrap();
        assert!(!l1.flag.is_cancelled());
        let l2 = q.take().unwrap();
        assert_eq!(l2.spec.id, "urgent");
        // All busy, but the new deadline is later: no preemption either.
        q.submit("c", spec("patient", Some(9000.0)), "p").unwrap();
        assert!(!l1.flag.is_cancelled() && !l2.flag.is_cancelled());
        let _ = (l1, l2);
    }

    #[test]
    fn preempted_entries_keep_their_quota_slot() {
        let q = queue(10, 1, 1);
        q.submit("a", spec("r1", Some(500.0)), "p").unwrap();
        let l1 = q.take().unwrap();
        l1.flag.cancel();
        q.finish(l1, true); // re-queued, still counted
        assert_eq!(
            q.submit("a", spec("r2", None), "p").unwrap_err(),
            AdmitError::QuotaExceeded {
                tenant: "a".into(),
                quota: 1
            }
        );
        let l = q.take().unwrap();
        q.finish(l, false);
        q.submit("a", spec("r2", None), "p").unwrap();
    }

    #[test]
    fn drain_rejects_submissions_and_releases_workers() {
        let q = queue(10, 10, 1);
        q.submit("a", spec("j1", None), "p").unwrap();
        q.drain();
        assert_eq!(
            q.submit("a", spec("j2", None), "p").unwrap_err(),
            AdmitError::Draining
        );
        // The queued entry still drains before workers see None.
        let lease = q.take().unwrap();
        q.finish(lease, false);
        assert!(q.take().is_none());
        q.wait_idle();
        assert_eq!(q.stats().completed, 1);
    }
}
