//! Lease-based dispatch of shard work to out-of-process workers.
//!
//! The daemon partitions each job into shards exactly as the in-process
//! path does ([`partition`](crate::partition)); this module hands those
//! shards to remote workers with **at-least-once** delivery and turns their
//! results into **exactly-once** merges:
//!
//! - **Leases.** An assignment carries a lease duration and a heartbeat
//!   interval. A worker that keeps heartbeating keeps its lease; a worker
//!   that dies (or partitions away) lets the lease expire, and the shard is
//!   re-dispatched — after an exponential backoff — to the next worker that
//!   asks.
//! - **Attempt budgets.** Each lease grant counts against a per-shard
//!   budget. A shard that crash-loops every worker it touches is
//!   *quarantined* with a structured reason — reported, never dropped — and
//!   the job attempt fails the same way an in-process quarantined shard
//!   does, feeding the daemon's job-level poison ladder.
//! - **First valid result wins.** A completion is validated (strict
//!   [`read_shard`], header and geometry match) *before* it is accepted,
//!   then published atomically to the canonical shard path. A late
//!   completion from a worker whose lease was re-dispatched is discarded
//!   idempotently as a [`Completion::Duplicate`]; the merge gate
//!   ([`merge_shards`](crate::merge_shards)) still proves
//!   exactly-one-record-per-fault, so duplicated *delivery* can never
//!   become duplicated *results*.
//! - **Daemon-restart adoption.** [`Dispatcher::register_job`] re-reads the
//!   canonical shard files already on disk and marks the valid ones
//!   completed, so a daemon crash loses at most the leases, not the work.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use moa_netlist::full_fault_list;

use crate::canon::CanonHash;
use crate::checkpoint::{read_shard, CheckpointHeader};
use crate::error::Error;
use crate::shard::{shard_info, shard_path, ShardFailure};
use crate::spool::Spool;

/// Dispatch policy knobs.
#[derive(Debug, Clone)]
pub struct DispatchOptions {
    /// How long a worker may hold a shard without heartbeating before the
    /// lease expires and the shard is re-dispatched.
    pub lease: Duration,
    /// How often workers are told to heartbeat (must leave a few beats of
    /// slack inside the lease: `lease >= 2 * heartbeat` is enforced).
    pub heartbeat: Duration,
    /// Lease grants per shard (per job attempt) before the shard is
    /// quarantined.
    pub attempts: u32,
    /// Base delay before an expired/failed shard is re-dispatched; attempt
    /// `n`'s delay is `backoff * 2^(n-1)`, capped by the doubling count.
    pub backoff: Duration,
    /// The idle-poll hint handed to workers when no shard is runnable.
    pub retry_after_ms: u64,
}

impl Default for DispatchOptions {
    fn default() -> Self {
        DispatchOptions {
            lease: Duration::from_secs(10),
            heartbeat: Duration::from_secs(2),
            attempts: 3,
            backoff: Duration::from_millis(100),
            retry_after_ms: 500,
        }
    }
}

/// The dispatcher's answer to a worker asking for work.
#[derive(Debug, Clone)]
pub enum Lease {
    /// One shard, leased to the asking worker.
    Assigned(Assignment),
    /// Nothing runnable right now (all shards leased, backing off, or no
    /// job registered). Ask again after the hint.
    Idle {
        /// Worker retry hint, milliseconds.
        retry_after_ms: u64,
    },
    /// The daemon is draining; the worker should disconnect.
    Draining,
}

/// One shard assignment.
#[derive(Debug, Clone)]
pub struct Assignment {
    /// The job's canonical hash.
    pub job: CanonHash,
    /// The assigned shard id.
    pub shard: usize,
    /// The job's shard count.
    pub shards: usize,
    /// Which lease grant this is for the shard (1-based).
    pub attempt: u32,
    /// Lease duration, milliseconds.
    pub lease_ms: u64,
    /// Heartbeat interval, milliseconds.
    pub heartbeat_ms: u64,
    /// The job-spec text. The worker re-parses and re-hashes it, so a
    /// result can only ever be computed against the content-addressed
    /// request it claims to answer.
    pub spec: String,
}

/// The dispatcher's answer to a heartbeat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Heartbeat {
    /// The lease is still this worker's; keep going.
    Held,
    /// The lease is gone (expired and re-dispatched, job withdrawn, or the
    /// daemon is draining). The worker should checkpoint and abandon.
    Lost,
}

/// The dispatcher's answer to a completed shard upload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Completion {
    /// Validated and published as the shard's canonical file.
    Accepted,
    /// Another (or an earlier) completion already published this shard; the
    /// upload was discarded idempotently.
    Duplicate,
    /// The upload failed validation, or the job is not registered here.
    Rejected {
        /// Why the upload was not accepted.
        reason: String,
    },
}

/// How a dispatched job ended.
#[derive(Debug)]
pub enum JobOutcome {
    /// Every shard completed; the canonical shard files, in shard order —
    /// the input for [`merge_shards`](crate::merge_shards).
    Done(Vec<PathBuf>),
    /// At least one shard exhausted its attempt budget. Completed shards
    /// keep their published files; the failures are reported, not dropped.
    Quarantined(Vec<ShardFailure>),
    /// The wait's cancel probe tripped (daemon drain).
    Cancelled {
        /// Faults covered by shards already completed.
        completed: usize,
        /// Total faults in the job.
        total: usize,
    },
}

/// Aggregate dispatch-table counts for `moa status`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatchStats {
    /// Jobs registered in the dispatch table.
    pub jobs: usize,
    /// Shards waiting to be leased (including those in backoff).
    pub pending: usize,
    /// Shards currently leased to workers.
    pub leased: usize,
    /// Shards with a published canonical file.
    pub completed: usize,
    /// Shards that exhausted their attempt budget.
    pub quarantined: usize,
}

enum UnitState {
    /// Runnable once `not_before` passes (backoff after a failure).
    Pending { not_before: Instant },
    /// Leased to `worker` until `deadline` (heartbeats push it out).
    Leased { worker: String, deadline: Instant },
    /// The canonical shard file is published.
    Completed,
    /// Attempt budget exhausted.
    Quarantined { reason: String },
}

struct Unit {
    state: UnitState,
    /// Lease grants so far (1-based once leased).
    attempts: u32,
}

struct JobTable {
    spec_text: String,
    header: CheckpointHeader,
    dir: PathBuf,
    units: Vec<Unit>,
}

struct DispatchInner {
    jobs: BTreeMap<CanonHash, JobTable>,
    draining: bool,
}

/// The dispatch table: shard leases, heartbeats, re-dispatch, completion
/// validation. Shared between the daemon's job workers (which register and
/// wait) and its connection handlers (which lease, heartbeat and complete
/// on behalf of remote workers).
pub struct Dispatcher {
    inner: Mutex<DispatchInner>,
    /// Signalled on every completion/quarantine/drain so `wait_job` wakes.
    progress: Condvar,
    spool: Spool,
    shards: usize,
    options: DispatchOptions,
}

impl Dispatcher {
    /// Builds a dispatcher over `spool`, partitioning every job into
    /// `shards` shards.
    pub fn new(spool: Spool, shards: usize, options: DispatchOptions) -> Result<Dispatcher, Error> {
        if shards == 0 {
            return Err(Error::Dispatch {
                message: "shard count must be at least 1".into(),
            });
        }
        if options.attempts == 0 {
            return Err(Error::Dispatch {
                message: "shard attempt budget must be at least 1".into(),
            });
        }
        if options.heartbeat.is_zero() || options.lease < options.heartbeat * 2 {
            return Err(Error::Dispatch {
                message: format!(
                    "lease ({:?}) must be at least twice the heartbeat interval ({:?}), \
                     or a single delayed beat would expire a healthy worker's lease",
                    options.lease, options.heartbeat
                ),
            });
        }
        Ok(Dispatcher {
            inner: Mutex::new(DispatchInner {
                jobs: BTreeMap::new(),
                draining: false,
            }),
            progress: Condvar::new(),
            spool,
            shards,
            options,
        })
    }

    /// The policy this dispatcher runs under.
    pub fn options(&self) -> &DispatchOptions {
        &self.options
    }

    fn lock(&self) -> Result<MutexGuard<'_, DispatchInner>, Error> {
        self.inner.lock().map_err(|_| Error::Dispatch {
            message: "dispatch table poisoned by a panicking thread".into(),
        })
    }

    /// Registers (or re-registers) a spooled job for dispatch. Idempotent:
    /// a job already in the table keeps its state. Canonical shard files
    /// already on disk that strictly validate against the job's identity
    /// are adopted as completed — a restarted daemon re-leases only the
    /// missing shards.
    pub fn register_job(&self, hash: CanonHash) -> Result<(), Error> {
        let spec = self.spool.load_spec(hash)?;
        let total_faults = full_fault_list(&spec.circuit).len();
        let header = CheckpointHeader {
            circuit: spec.circuit.name().to_owned(),
            total_faults,
            seq_len: spec.seq.len(),
        };
        let dir = self.spool.shards_dir(hash);
        std::fs::create_dir_all(&dir).map_err(|e| Error::Dispatch {
            message: format!("cannot create shard directory {}: {e}", dir.display()),
        })?;
        let now = Instant::now();
        let units: Vec<Unit> = (0..self.shards)
            .map(|k| Unit {
                state: if shard_file_is_complete(&shard_path(&dir, k), &header, self.shards, k) {
                    UnitState::Completed
                } else {
                    UnitState::Pending { not_before: now }
                },
                attempts: 0,
            })
            .collect();
        let mut inner = self.lock()?;
        inner.jobs.entry(hash).or_insert(JobTable {
            spec_text: spec.to_text(),
            header,
            dir,
            units,
        });
        drop(inner);
        self.progress.notify_all();
        Ok(())
    }

    /// Removes a job from the table (after its merge, or on cancellation).
    /// Outstanding leases die with it: the holders' next heartbeat answers
    /// [`Heartbeat::Lost`] and they abandon the shard.
    pub fn forget_job(&self, hash: CanonHash) -> Result<(), Error> {
        self.lock()?.jobs.remove(&hash);
        self.progress.notify_all();
        Ok(())
    }

    /// Stops handing out work: every subsequent [`lease`](Self::lease)
    /// answers [`Lease::Draining`] and every heartbeat answers
    /// [`Heartbeat::Lost`], so remote workers checkpoint and disconnect at
    /// their next probe.
    pub fn drain(&self) -> Result<(), Error> {
        self.lock()?.draining = true;
        self.progress.notify_all();
        Ok(())
    }

    /// Asks for one shard of work on behalf of `worker`.
    pub fn lease(&self, worker: &str) -> Result<Lease, Error> {
        validate_worker_id(worker)?;
        #[cfg(feature = "failpoints")]
        if let Some(e) = crate::failpoint::io_error("fp/dispatch.lease") {
            return Err(Error::Dispatch {
                message: format!("lease refused: {e}"),
            });
        }
        let now = Instant::now();
        let mut inner = self.lock()?;
        if inner.draining {
            return Ok(Lease::Draining);
        }
        expire_leases(&mut inner, now, &self.options);
        for (hash, job) in &mut inner.jobs {
            let shards = job.units.len();
            for (k, unit) in job.units.iter_mut().enumerate() {
                let UnitState::Pending { not_before } = unit.state else {
                    continue;
                };
                if not_before > now {
                    continue;
                }
                unit.attempts += 1;
                unit.state = UnitState::Leased {
                    worker: worker.to_owned(),
                    deadline: now + self.options.lease,
                };
                return Ok(Lease::Assigned(Assignment {
                    job: *hash,
                    shard: k,
                    shards,
                    attempt: unit.attempts,
                    lease_ms: duration_ms(self.options.lease),
                    heartbeat_ms: duration_ms(self.options.heartbeat),
                    spec: job.spec_text.clone(),
                }));
            }
        }
        Ok(Lease::Idle {
            retry_after_ms: self.options.retry_after_ms,
        })
    }

    /// Extends `worker`'s lease on `(job, shard)` — if it still holds one.
    pub fn heartbeat(&self, worker: &str, job: CanonHash, shard: usize) -> Result<Heartbeat, Error> {
        validate_worker_id(worker)?;
        let now = Instant::now();
        let mut inner = self.lock()?;
        if inner.draining {
            return Ok(Heartbeat::Lost);
        }
        expire_leases(&mut inner, now, &self.options);
        if let Some(unit) = inner
            .jobs
            .get_mut(&job)
            .and_then(|j| j.units.get_mut(shard))
        {
            if let UnitState::Leased { worker: holder, deadline } = &mut unit.state {
                if holder == worker {
                    *deadline = now + self.options.lease;
                    return Ok(Heartbeat::Held);
                }
            }
        }
        Ok(Heartbeat::Lost)
    }

    /// Accepts a finished shard file from `worker`. The bytes are written
    /// to a per-worker temp file, strictly validated ([`read_shard`] plus
    /// header/geometry checks), and only then atomically renamed onto the
    /// canonical shard path — the first valid result wins, later ones are
    /// [`Completion::Duplicate`]s.
    pub fn complete(
        &self,
        worker: &str,
        job: CanonHash,
        shard: usize,
        bytes: &[u8],
    ) -> Result<Completion, Error> {
        validate_worker_id(worker)?;
        // Snapshot the identity under the lock, validate outside it (the
        // strict read re-parses the whole file; holding the table across
        // that would stall every heartbeat).
        let (header, dir, shards) = {
            let inner = self.lock()?;
            let Some(table) = inner.jobs.get(&job) else {
                return Ok(Completion::Rejected {
                    reason: format!("job {job} is not registered for dispatch"),
                });
            };
            if shard >= table.units.len() {
                return Ok(Completion::Rejected {
                    reason: format!(
                        "shard {shard} out of range for {} shard(s)",
                        table.units.len()
                    ),
                });
            }
            (table.header.clone(), table.dir.clone(), table.units.len())
        };
        let tmp = dir.join(format!("shard-{shard}.{worker}.tmp"));
        if let Err(e) = std::fs::write(&tmp, bytes) {
            return Err(Error::Dispatch {
                message: format!("cannot stage upload {}: {e}", tmp.display()),
            });
        }
        if let Err(reason) = validate_shard_upload(&tmp, &header, shards, shard) {
            let _ = std::fs::remove_file(&tmp);
            return Ok(Completion::Rejected { reason });
        }
        let canonical = shard_path(&dir, shard);
        let mut inner = self.lock()?;
        let Some(unit) = inner
            .jobs
            .get_mut(&job)
            .and_then(|j| j.units.get_mut(shard))
        else {
            // The job was withdrawn while we validated.
            let _ = std::fs::remove_file(&tmp);
            return Ok(Completion::Rejected {
                reason: format!("job {job} is not registered for dispatch"),
            });
        };
        if matches!(unit.state, UnitState::Completed) {
            let _ = std::fs::remove_file(&tmp);
            return Ok(Completion::Duplicate);
        }
        if let Err(e) = std::fs::rename(&tmp, &canonical) {
            let _ = std::fs::remove_file(&tmp);
            return Err(Error::Dispatch {
                message: format!("cannot publish {}: {e}", canonical.display()),
            });
        }
        unit.state = UnitState::Completed;
        drop(inner);
        self.progress.notify_all();
        Ok(Completion::Accepted)
    }

    /// Reports a failed shard attempt from `worker` (the shard runner
    /// errored, as opposed to the worker dying). Requeues with backoff
    /// below the attempt budget, quarantines at it. A report from a worker
    /// that no longer holds the lease is ignored.
    pub fn fail(
        &self,
        worker: &str,
        job: CanonHash,
        shard: usize,
        error: &str,
    ) -> Result<(), Error> {
        validate_worker_id(worker)?;
        let now = Instant::now();
        let budget = self.options.attempts;
        let backoff = self.options.backoff;
        let mut inner = self.lock()?;
        let Some(unit) = inner
            .jobs
            .get_mut(&job)
            .and_then(|j| j.units.get_mut(shard))
        else {
            return Ok(());
        };
        let UnitState::Leased { worker: holder, .. } = &unit.state else {
            return Ok(());
        };
        if holder != worker {
            return Ok(());
        }
        if unit.attempts >= budget {
            unit.state = UnitState::Quarantined {
                reason: format!(
                    "shard {shard} failed {} of {budget} attempt(s); \
                     last error from worker `{worker}`: {error}",
                    unit.attempts
                ),
            };
        } else {
            unit.state = UnitState::Pending {
                not_before: now + backoff_delay(backoff, unit.attempts),
            };
        }
        drop(inner);
        self.progress.notify_all();
        Ok(())
    }

    /// Blocks until `hash` reaches a terminal state: every shard completed
    /// ([`JobOutcome::Done`]) or every shard terminal with at least one
    /// quarantine ([`JobOutcome::Quarantined`]). `cancel` is polled between
    /// waits; a trip answers [`JobOutcome::Cancelled`] without touching the
    /// table (the caller decides whether to withdraw). The wait loop also
    /// runs lease expiry, so dead workers are detected even when no worker
    /// traffic arrives.
    pub fn wait_job(
        &self,
        hash: CanonHash,
        cancel: impl Fn() -> bool,
    ) -> Result<JobOutcome, Error> {
        let mut inner = self.lock()?;
        loop {
            expire_leases(&mut inner, Instant::now(), &self.options);
            let Some(job) = inner.jobs.get(&hash) else {
                return Err(Error::Dispatch {
                    message: format!("job {hash} is not registered for dispatch"),
                });
            };
            let shards = job.units.len();
            let mut files = Vec::with_capacity(shards);
            let mut failures = Vec::new();
            let mut completed_faults: u64 = 0;
            let mut terminal = true;
            for (k, unit) in job.units.iter().enumerate() {
                match &unit.state {
                    UnitState::Completed => {
                        files.push(shard_path(&job.dir, k));
                        completed_faults += shard_info(job.header.total_faults, shards, k).len;
                    }
                    UnitState::Quarantined { reason } => failures.push(ShardFailure {
                        shard_id: k,
                        attempts: unit.attempts as usize,
                        last_error: reason.clone(),
                    }),
                    UnitState::Pending { .. } | UnitState::Leased { .. } => terminal = false,
                }
            }
            if terminal {
                return Ok(if failures.is_empty() {
                    JobOutcome::Done(files)
                } else {
                    JobOutcome::Quarantined(failures)
                });
            }
            if cancel() {
                return Ok(JobOutcome::Cancelled {
                    completed: usize::try_from(completed_faults).unwrap_or(usize::MAX),
                    total: job.header.total_faults,
                });
            }
            let (guard, _) = self
                .progress
                .wait_timeout(inner, Duration::from_millis(50))
                .map_err(|_| Error::Dispatch {
                    message: "dispatch table poisoned by a panicking thread".into(),
                })?;
            inner = guard;
        }
    }

    /// Aggregate counts for `moa status`.
    pub fn stats(&self) -> Result<DispatchStats, Error> {
        let mut inner = self.lock()?;
        expire_leases(&mut inner, Instant::now(), &self.options);
        let mut stats = DispatchStats {
            jobs: inner.jobs.len(),
            ..DispatchStats::default()
        };
        for job in inner.jobs.values() {
            for unit in &job.units {
                match unit.state {
                    UnitState::Pending { .. } => stats.pending += 1,
                    UnitState::Leased { .. } => stats.leased += 1,
                    UnitState::Completed => stats.completed += 1,
                    UnitState::Quarantined { .. } => stats.quarantined += 1,
                }
            }
        }
        Ok(stats)
    }
}

/// Expires overdue leases: requeue with exponential backoff below the
/// attempt budget, quarantine at it. Called with the table locked from
/// every entry point, so expiry needs no timer thread.
fn expire_leases(inner: &mut DispatchInner, now: Instant, options: &DispatchOptions) {
    for job in inner.jobs.values_mut() {
        for (k, unit) in job.units.iter_mut().enumerate() {
            let UnitState::Leased { worker, deadline } = &unit.state else {
                continue;
            };
            if *deadline > now {
                continue;
            }
            if unit.attempts >= options.attempts {
                unit.state = UnitState::Quarantined {
                    reason: format!(
                        "shard {k}: lease expired on worker `{worker}` and the budget of \
                         {} attempt(s) is exhausted (worker crashed, partitioned, or \
                         stopped heartbeating)",
                        options.attempts
                    ),
                };
            } else {
                // Backoff counts from when the lease *expired*, not from
                // this scan: an expiry discovered late (no worker traffic)
                // must not push the re-dispatch even further out.
                unit.state = UnitState::Pending {
                    not_before: *deadline + backoff_delay(options.backoff, unit.attempts),
                };
            }
        }
    }
}

/// Attempt `n`'s re-dispatch delay: `base * 2^(n-1)`, doubling capped so
/// the shift cannot overflow.
fn backoff_delay(base: Duration, attempt: u32) -> Duration {
    base.saturating_mul(1 << attempt.saturating_sub(1).min(16))
}

#[allow(clippy::cast_possible_truncation)]
fn duration_ms(d: Duration) -> u64 {
    d.as_millis().min(u128::from(u64::MAX)) as u64
}

/// Worker ids appear in temp-file names and log lines; keep them short and
/// filesystem-safe.
fn validate_worker_id(worker: &str) -> Result<(), Error> {
    let ok = !worker.is_empty()
        && worker.len() <= 64
        && worker
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-');
    if ok {
        Ok(())
    } else {
        Err(Error::Dispatch {
            message: format!(
                "invalid worker id `{worker}`: need 1-64 characters from [A-Za-z0-9._-]"
            ),
        })
    }
}

/// Strictly validates an uploaded shard file against the job's identity and
/// the shard's place in the partition. Returns the rejection reason.
fn validate_shard_upload(
    path: &std::path::Path,
    header: &CheckpointHeader,
    shards: usize,
    shard: usize,
) -> Result<(), String> {
    let file = read_shard(path).map_err(|e| format!("upload failed strict validation: {e}"))?;
    if file.header != *header {
        return Err(format!(
            "upload is for a different campaign (circuit `{}`, {} faults, seq {}; \
             expected circuit `{}`, {} faults, seq {})",
            file.header.circuit,
            file.header.total_faults,
            file.header.seq_len,
            header.circuit,
            header.total_faults,
            header.seq_len
        ));
    }
    let want = shard_info(header.total_faults, shards, shard);
    if file.shard != want {
        return Err(format!(
            "upload's shard geometry {:?} does not match the assignment {want:?}",
            file.shard
        ));
    }
    if file.records.len() as u64 != want.len {
        return Err(format!(
            "upload has {} of {} record(s): the shard is incomplete",
            file.records.len(),
            want.len
        ));
    }
    Ok(())
}

/// Is the canonical shard file on disk already a complete, valid result for
/// this job? (Daemon-restart adoption.) Damaged or foreign files are
/// removed so a later publish cannot be confused with them.
fn shard_file_is_complete(
    path: &std::path::Path,
    header: &CheckpointHeader,
    shards: usize,
    shard: usize,
) -> bool {
    if !path.exists() {
        return false;
    }
    if validate_shard_upload(path, header, shards, shard).is_ok() {
        return true;
    }
    let _ = std::fs::remove_file(path);
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, CampaignOptions};
    use crate::canon::verdict_digest;
    use crate::shard::{merge_shards, run_shard};
    use crate::spool::JobSpec;
    use moa_circuits::iscas::S27_BENCH;
    use moa_tpg::random_sequence;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "moa-dispatch-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn s27_spec() -> JobSpec {
        let circuit = moa_circuits::iscas::s27();
        let seq = random_sequence(&circuit, 12, 7);
        JobSpec::new(S27_BENCH, &seq.to_text(), CampaignOptions::new()).expect("valid spec")
    }

    /// A spool holding the s27 job, and a dispatcher over it.
    fn dispatcher(tag: &str, shards: usize, options: DispatchOptions) -> (Dispatcher, CanonHash, PathBuf) {
        let dir = temp_dir(tag);
        let spool = Spool::open(&dir).expect("open spool");
        let spec = s27_spec();
        let (hash, fresh) = spool.admit(&spec).expect("admit");
        assert!(fresh);
        let dispatcher = Dispatcher::new(spool, shards, options).expect("dispatcher");
        dispatcher.register_job(hash).expect("register");
        (dispatcher, hash, dir)
    }

    /// Runs the assignment's shard the way a remote worker would (into its
    /// own scratch dir) and returns the shard-file bytes.
    fn run_assignment(a: &Assignment, scratch: &std::path::Path) -> Vec<u8> {
        let spec = JobSpec::parse(&a.spec).expect("assignment spec parses");
        assert_eq!(spec.hash(), a.job, "assignment spec matches its content address");
        let faults = moa_netlist::full_fault_list(&spec.circuit);
        run_shard(
            &spec.circuit,
            &spec.seq,
            &faults,
            &spec.options,
            a.shards,
            a.shard,
            scratch,
        )
        .expect("shard runs");
        std::fs::read(shard_path(scratch, a.shard)).expect("shard file")
    }

    fn assignment(lease: Lease) -> Assignment {
        match lease {
            Lease::Assigned(a) => a,
            other => panic!("expected an assignment, got {other:?}"),
        }
    }

    fn quick() -> DispatchOptions {
        DispatchOptions {
            lease: Duration::from_millis(100),
            heartbeat: Duration::from_millis(20),
            backoff: Duration::from_millis(1),
            ..DispatchOptions::default()
        }
    }

    #[test]
    fn options_are_validated() {
        let dir = temp_dir("opts");
        let spool = Spool::open(&dir).expect("spool");
        let bad_lease = DispatchOptions {
            lease: Duration::from_millis(10),
            heartbeat: Duration::from_millis(9),
            ..DispatchOptions::default()
        };
        assert!(Dispatcher::new(spool.clone(), 2, bad_lease).is_err());
        let bad_attempts = DispatchOptions {
            attempts: 0,
            ..DispatchOptions::default()
        };
        assert!(Dispatcher::new(spool.clone(), 2, bad_attempts).is_err());
        assert!(Dispatcher::new(spool, 0, DispatchOptions::default()).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_ids_are_validated() {
        let (d, _, dir) = dispatcher("wid", 2, quick());
        for bad in ["", "a b", "x/../y", "né", &"x".repeat(65)] {
            assert!(d.lease(bad).is_err(), "`{bad}` must be rejected");
        }
        assert!(d.lease("worker-1.local_0").is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn leases_cover_each_shard_once_then_idle() {
        let (d, hash, dir) = dispatcher("cover", 2, quick());
        let a = assignment(d.lease("wa").expect("lease"));
        let b = assignment(d.lease("wb").expect("lease"));
        assert_eq!(a.job, hash);
        assert_eq!(a.attempt, 1);
        let mut shards = [a.shard, b.shard];
        shards.sort_unstable();
        assert_eq!(shards, [0, 1], "both shards leased exactly once");
        assert!(matches!(d.lease("wc").expect("lease"), Lease::Idle { .. }));
        let stats = d.stats().expect("stats");
        assert_eq!((stats.jobs, stats.leased, stats.pending), (1, 2, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Satellite coverage: lease expiry → re-dispatch to a second worker,
    /// and the original worker's late completion is discarded idempotently
    /// — the merge still sees exactly one record per fault and reproduces
    /// the direct campaign bit-for-bit.
    #[test]
    fn expired_lease_redispatches_and_late_completion_is_duplicate() {
        let options = DispatchOptions {
            lease: Duration::from_millis(40),
            heartbeat: Duration::from_millis(20),
            backoff: Duration::from_millis(1),
            attempts: 5,
            ..DispatchOptions::default()
        };
        let (d, hash, dir) = dispatcher("expiry", 1, options);
        let a = assignment(d.lease("worker-a").expect("lease"));
        assert_eq!(a.shard, 0);

        // worker-a goes silent; its lease expires and the shard re-leases.
        std::thread::sleep(Duration::from_millis(60));
        let b = assignment(d.lease("worker-b").expect("lease"));
        assert_eq!(b.shard, 0);
        assert_eq!(b.attempt, 2, "second lease grant for the same shard");
        assert_eq!(
            d.heartbeat("worker-a", hash, 0).expect("heartbeat"),
            Heartbeat::Lost,
            "the original worker learns its lease is gone"
        );

        // worker-b finishes first; worker-a's identical result arrives late.
        let scratch_b = temp_dir("expiry-b");
        let bytes_b = run_assignment(&b, &scratch_b);
        assert_eq!(
            d.complete("worker-b", hash, 0, &bytes_b).expect("complete"),
            Completion::Accepted
        );
        let scratch_a = temp_dir("expiry-a");
        let bytes_a = run_assignment(&a, &scratch_a);
        assert_eq!(
            d.complete("worker-a", hash, 0, &bytes_a).expect("complete"),
            Completion::Duplicate,
            "late completion is discarded idempotently"
        );

        // The merge proves exactly-once results despite at-least-once
        // delivery, bit-identical to the direct run.
        let JobOutcome::Done(files) = d.wait_job(hash, || false).expect("wait") else {
            panic!("job must complete");
        };
        let spec = s27_spec();
        let faults = moa_netlist::full_fault_list(&spec.circuit);
        let merged =
            merge_shards(&spec.circuit, &spec.seq, &faults, &spec.options, &files).expect("merge");
        assert_eq!(merged.records, faults.len(), "exactly one record per fault");
        let direct = run_campaign(&spec.circuit, &spec.seq, &faults, &spec.options);
        assert_eq!(verdict_digest(&merged.result), verdict_digest(&direct));
        for p in [dir, scratch_a, scratch_b] {
            let _ = std::fs::remove_dir_all(&p);
        }
    }

    /// Satellite coverage: heartbeats keep a slow-but-alive worker's lease
    /// from being re-dispatched.
    #[test]
    fn heartbeats_keep_a_slow_shard_leased() {
        let options = DispatchOptions {
            lease: Duration::from_millis(50),
            heartbeat: Duration::from_millis(20),
            backoff: Duration::from_millis(1),
            ..DispatchOptions::default()
        };
        let (d, hash, dir) = dispatcher("slow", 1, options);
        let a = assignment(d.lease("slowpoke").expect("lease"));
        // Run well past the bare lease, heartbeating the whole time.
        for _ in 0..10 {
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(
                d.heartbeat("slowpoke", hash, a.shard).expect("heartbeat"),
                Heartbeat::Held
            );
            assert!(
                matches!(d.lease("thief").expect("lease"), Lease::Idle { .. }),
                "a heartbeating lease must not be re-dispatched"
            );
        }
        let scratch = temp_dir("slow-scratch");
        let bytes = run_assignment(&a, &scratch);
        assert_eq!(
            d.complete("slowpoke", hash, 0, &bytes).expect("complete"),
            Completion::Accepted
        );
        assert!(matches!(
            d.wait_job(hash, || false).expect("wait"),
            JobOutcome::Done(_)
        ));
        for p in [dir, scratch] {
            let _ = std::fs::remove_dir_all(&p);
        }
    }

    /// Crash-looping shards exhaust their attempt budget and are
    /// quarantined with a structured reason — reported, never dropped.
    #[test]
    fn attempt_budget_quarantines_crash_looping_shards() {
        let options = DispatchOptions {
            lease: Duration::from_millis(20),
            heartbeat: Duration::from_millis(10),
            backoff: Duration::from_millis(1),
            attempts: 2,
            ..DispatchOptions::default()
        };
        let (d, hash, dir) = dispatcher("poison", 1, options);
        for attempt in 1..=2 {
            let a = assignment(d.lease("crashy").expect("lease"));
            assert_eq!(a.attempt, attempt);
            // The worker dies without completing; wait out the lease (plus
            // backoff before the next grant).
            std::thread::sleep(Duration::from_millis(30));
        }
        let JobOutcome::Quarantined(failures) = d.wait_job(hash, || false).expect("wait") else {
            panic!("the shard must quarantine after its budget");
        };
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].shard_id, 0);
        assert_eq!(failures[0].attempts, 2);
        assert!(
            failures[0].last_error.contains("lease expired"),
            "the reason names the failure mode: {}",
            failures[0].last_error
        );
        assert!(matches!(d.lease("late").expect("lease"), Lease::Idle { .. }));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An explicit failure report requeues below the budget (with backoff)
    /// and quarantines at it, carrying the worker's error text.
    #[test]
    fn reported_failures_requeue_then_quarantine() {
        let options = DispatchOptions {
            attempts: 2,
            backoff: Duration::from_millis(1),
            ..quick()
        };
        let (d, hash, dir) = dispatcher("fail", 1, options);
        let a = assignment(d.lease("w1").expect("lease"));
        d.fail("w1", hash, a.shard, "injected shard error").expect("fail");
        std::thread::sleep(Duration::from_millis(5));
        let b = assignment(d.lease("w2").expect("lease"));
        assert_eq!(b.attempt, 2);
        d.fail("w2", hash, b.shard, "still broken").expect("fail");
        let JobOutcome::Quarantined(failures) = d.wait_job(hash, || false).expect("wait") else {
            panic!("must quarantine at the budget");
        };
        assert!(failures[0].last_error.contains("still broken"));
        // A stale failure report from the first worker changes nothing.
        d.fail("w1", hash, 0, "ancient history").expect("stale fail");
        assert!(matches!(
            d.wait_job(hash, || false).expect("wait"),
            JobOutcome::Quarantined(_)
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Garbage, truncated and wrong-geometry uploads are rejected before
    /// they can touch the canonical shard path.
    #[test]
    fn invalid_uploads_are_rejected() {
        let (d, hash, dir) = dispatcher("reject", 2, quick());
        let a = assignment(d.lease("w").expect("lease"));
        match d.complete("w", hash, a.shard, b"not a shard file").expect("complete") {
            Completion::Rejected { reason } => {
                assert!(reason.contains("strict validation"), "{reason}");
            }
            other => panic!("garbage must be rejected: {other:?}"),
        }
        // A valid file for the *other* shard must not publish as this one.
        let other_shard = 1 - a.shard;
        let scratch = temp_dir("reject-scratch");
        let spec = s27_spec();
        let faults = moa_netlist::full_fault_list(&spec.circuit);
        run_shard(&spec.circuit, &spec.seq, &faults, &spec.options, 2, other_shard, &scratch)
            .expect("shard runs");
        let bytes = std::fs::read(shard_path(&scratch, other_shard)).expect("bytes");
        match d.complete("w", hash, a.shard, &bytes).expect("complete") {
            Completion::Rejected { reason } => {
                assert!(reason.contains("geometry"), "{reason}");
            }
            other => panic!("wrong shard must be rejected: {other:?}"),
        }
        // Unknown jobs reject cleanly too.
        let bogus = CanonHash(0xDEAD_BEEF);
        assert!(matches!(
            d.complete("w", bogus, 0, &bytes).expect("complete"),
            Completion::Rejected { .. }
        ));
        for p in [dir, scratch] {
            let _ = std::fs::remove_dir_all(&p);
        }
    }

    /// Daemon-restart adoption: a canonical shard file already on disk is
    /// adopted as completed, so only the missing shard is re-leased.
    #[test]
    fn register_adopts_valid_shard_files_on_disk() {
        let dir = temp_dir("adopt");
        let spool = Spool::open(&dir).expect("spool");
        let spec = s27_spec();
        let (hash, _) = spool.admit(&spec).expect("admit");
        let faults = moa_netlist::full_fault_list(&spec.circuit);
        run_shard(
            &spec.circuit,
            &spec.seq,
            &faults,
            &spec.options,
            2,
            0,
            &spool.shards_dir(hash),
        )
        .expect("pre-existing shard 0");
        let d = Dispatcher::new(spool, 2, quick()).expect("dispatcher");
        d.register_job(hash).expect("register");
        let stats = d.stats().expect("stats");
        assert_eq!((stats.completed, stats.pending), (1, 1));
        let a = assignment(d.lease("w").expect("lease"));
        assert_eq!(a.shard, 1, "only the missing shard is dispatched");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drain_refuses_leases_and_loses_heartbeats() {
        let (d, hash, dir) = dispatcher("drain", 1, quick());
        let a = assignment(d.lease("w").expect("lease"));
        d.drain().expect("drain");
        assert!(matches!(d.lease("w2").expect("lease"), Lease::Draining));
        assert_eq!(
            d.heartbeat("w", hash, a.shard).expect("heartbeat"),
            Heartbeat::Lost
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn forgotten_jobs_answer_unknown() {
        let (d, hash, dir) = dispatcher("forget", 1, quick());
        d.forget_job(hash).expect("forget");
        assert!(matches!(d.lease("w").expect("lease"), Lease::Idle { .. }));
        assert!(d.wait_job(hash, || false).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn lease_failpoint_injects_refusals() {
        use crate::failpoint::{self, ChaosSchedule, FailAction, SitePlan};
        let _guard = failpoint::test_lock();
        let (d, _, dir) = dispatcher("fp", 1, quick());
        failpoint::install_scoped(ChaosSchedule::empty(9).with_site(
            "fp/dispatch.lease",
            SitePlan::new(1.0, vec![FailAction::Error]).with_max_fires(1),
        ));
        let err = d.lease("w").expect_err("the armed site must refuse");
        assert!(err.to_string().contains("lease refused"), "{err}");
        // The refusal is transient: the next ask is served.
        assert!(matches!(d.lease("w").expect("lease"), Lease::Assigned(_)));
        let combos = failpoint::fired_combos();
        assert!(
            combos.iter().any(|((site, kind), _)| site == "fp/dispatch.lease" && *kind == "error"),
            "{combos:?}"
        );
        failpoint::clear();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
