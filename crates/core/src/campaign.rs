//! Whole-fault-list campaigns — the driver behind the paper's Table 2 and
//! Table 3.
//!
//! Beyond the plain driver, this module is the campaign's resilience layer:
//! per-fault budgets ([`FaultBudget`]), panic isolation
//! ([`CampaignOptions::isolate_panics`]), and checkpoint/resume
//! ([`CampaignOptions::checkpoint`] / [`CampaignOptions::resume`]). A
//! campaign over hundreds of thousands of faults survives one pathological
//! fault — whether it is slow (budget), crashing (isolation), or the whole
//! process is killed (checkpoint).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use moa_netlist::{Circuit, Fault};
use moa_sim::{
    screen_faults_wide, Detection, GoodFrames, ScreenLanes, SimTrace, TestSequence,
};

use crate::audit::{audit_certificate, AuditOptions, AuditStatus};
use crate::budget::{BudgetMeter, FaultBudget, LadderStats};
use crate::certificate::DetectionCertificate;
use crate::checkpoint::{
    read_checkpoint, read_checkpoint_sharded, write_checkpoint_v2, CheckpointHeader,
    CheckpointSkip, ShardInfo,
};
use crate::cones::{ConeCache, StateOverlap};
use crate::counters::{CounterAverages, Counters, PerfCounters};
use crate::error::Error;
use crate::procedure::{
    simulate_fault_cached, validate_fault, validate_inputs, FaultResult, FaultStatus,
    PartialBound,
};
use crate::MoaOptions;

/// A per-fault observation hook, called with the fault's index and the fault
/// just before it is simulated. Used by tests to inject failures (panics,
/// delays) into campaign workers; production campaigns leave it `None`.
pub type FaultHook = Arc<dyn Fn(usize, &Fault) + Send + Sync>;

/// A cooperative cancellation probe: returns `true` once the campaign
/// should stop. Polled at batch boundaries — between checkpoint flushes —
/// so cancellation never tears a record in half: either a fault's result is
/// in the checkpoint, or the fault is untouched. A closure (rather than a
/// bare `AtomicBool`) lets callers cancel on any condition: a signal-count
/// cell, a daemon drain flag, a deadline.
pub type CancelFlag = Arc<dyn Fn() -> bool + Send + Sync>;

/// Configuration of a campaign's self-audit pass
/// ([`CampaignOptions::audit`]): every detected fault (or a deterministic
/// sample of them) has its [`DetectionCertificate`](crate::DetectionCertificate)
/// validated by concrete replay, and a refuted detection is quarantined as
/// [`FaultStatus::AuditFailed`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignAudit {
    /// Audit every `sample_rate`-th detected fault (by fault-list index);
    /// `1` audits them all. `0` is treated as `1`. Sampling is deterministic
    /// — the audited subset depends only on the fault list, never on thread
    /// scheduling.
    pub sample_rate: usize,
    /// Replay bounds for each per-fault [`audit_certificate`] call.
    pub options: AuditOptions,
}

impl Default for CampaignAudit {
    fn default() -> Self {
        CampaignAudit {
            sample_rate: 1,
            options: AuditOptions::default(),
        }
    }
}

/// Static fault-ordering strategies ([`CampaignOptions::order`]).
///
/// Ordering is a pure execution knob: results are stored by fault-list
/// index, so every order produces bit-identical verdicts (and an identical
/// request hash — see `canon`). What changes is the processing schedule:
/// which faults hit the budget early, how checkpoint batches are composed,
/// and how much locality consecutive faults share.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultOrder {
    /// Fault-list order (the default).
    #[default]
    Natural,
    /// Highest SCOAP detection cost first
    /// ([`moa_analyze::Testability::fault_cost`]): front-load the faults
    /// most likely to need the expensive expansion machinery.
    ScoapHardFirst,
    /// Lowest SCOAP detection cost first: bank the easy conventional
    /// detections before spending budget on hard faults.
    ScoapCheapFirst,
    /// Group faults by state-variable cone cluster
    /// ([`StateOverlap`]): consecutive faults touch overlapping logic, the
    /// grouping the ERASER-style prefix-sharing work consumes.
    ConeCluster,
}

impl FaultOrder {
    /// Parses the CLI spelling (`natural`, `scoap-hard-first`,
    /// `scoap-cheap-first`, `cone-cluster`).
    pub fn parse(s: &str) -> Option<FaultOrder> {
        match s {
            "natural" => Some(FaultOrder::Natural),
            "scoap-hard-first" => Some(FaultOrder::ScoapHardFirst),
            "scoap-cheap-first" => Some(FaultOrder::ScoapCheapFirst),
            "cone-cluster" => Some(FaultOrder::ConeCluster),
            _ => None,
        }
    }

    /// The canonical CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            FaultOrder::Natural => "natural",
            FaultOrder::ScoapHardFirst => "scoap-hard-first",
            FaultOrder::ScoapCheapFirst => "scoap-cheap-first",
            FaultOrder::ConeCluster => "cone-cluster",
        }
    }
}

impl std::fmt::Display for FaultOrder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Statistics and provenance of a collapsed campaign
/// ([`CampaignOptions::collapse`]), reported on
/// [`CampaignResult::collapse`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CollapseReport {
    /// Faults in the campaign's list.
    pub total: usize,
    /// Equivalence classes found over the list.
    pub classes: usize,
    /// Member verdicts expanded from their class representative with zero
    /// simulation work.
    pub inherited: usize,
    /// Members whose representative verdict was not inheritable (the status
    /// carries member-specific payload) and were simulated individually.
    pub fallback: usize,
    /// Inherited detections re-validated by replaying the representative's
    /// detection certificate against the member fault (only under
    /// [`CampaignOptions::audit`], at its sample rate).
    pub audited: usize,
    /// Per-fault provenance: `representative[i]` is the fault-list index
    /// whose verdict fault `i` inherited (or could have); `i` itself for
    /// representatives and unclassified faults.
    pub representative: Vec<usize>,
}

impl CollapseReport {
    /// Faults removed from the simulation frontier: `total - classes`.
    pub fn collapsed(&self) -> usize {
        self.total - self.classes
    }

    /// Fraction of the list collapsed away; `0.0` for an empty list.
    pub fn ratio(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.collapsed() as f64 / self.total as f64
    }
}

/// Options for [`run_campaign`].
#[derive(Clone)]
pub struct CampaignOptions {
    /// Per-fault procedure options.
    pub moa: MoaOptions,
    /// Worker threads; `0` uses the machine's available parallelism. Results
    /// are deterministic regardless of the thread count (faults are
    /// independent and results are stored by index).
    pub threads: usize,
    /// Screen pending faults 64 at a time with the parallel-fault packed
    /// kernel ([`moa_sim::screen_faults`]) before the per-fault procedure:
    /// conventionally detected faults are dropped in batches and never enter
    /// the expansion machinery. Verdicts are bit-identical to the scalar
    /// conventional stage (each slot's detection is independent of its batch
    /// mates), so results are unchanged — including across checkpoint/resume,
    /// which screens only the still-unresolved faults. On by default.
    pub screen: bool,
    /// Lane width of the screening kernel: 64 faults per `u64` word (the
    /// default), or 128/256 per `[u64; N]` block word
    /// ([`moa_sim::ScreenLanes`]). Purely an execution knob — verdicts and
    /// the gate-eval charge per word pass are lane-invariant (see
    /// [`PerfCounters::gate_evals`]), a wider word just screens the same
    /// faults in fewer passes.
    pub screen_lanes: ScreenLanes,
    /// Worker threads for the screening pre-pass. `0` uses the machine's
    /// available parallelism; `1` (the default) screens on the calling
    /// thread. Word-sized fault batches are partitioned across workers and
    /// merged positionally, so verdicts are independent of the thread count.
    pub screen_threads: usize,
    /// Statically prove faults untestable before simulating anything: a fault
    /// whose effect cannot reach any primary output, or whose fault-free line
    /// is tied to the stuck value, is recorded as
    /// [`FaultStatus::Untestable`] with zero simulation work charged. The
    /// proofs hold under *any* test sequence and *any* observation scheme, so
    /// pruning never changes the verdict of a testable fault. Off by default
    /// so plain campaigns report the paper's raw statuses.
    pub prune_untestable: bool,
    /// Simulate one representative per proven equivalence class and expand
    /// its verdict to the other members. Inheritance is restricted to the
    /// two status variants that are provably member-invariant (conventional
    /// detections and condition-C skips — equivalent faults have identical
    /// faulty traces); every other member falls back to individual
    /// simulation, so per-fault statuses are **bit-identical** to the
    /// uncollapsed run. Provenance and statistics land in
    /// [`CampaignResult::collapse`]. Off by default.
    pub collapse: bool,
    /// Static processing order of the fault list ([`FaultOrder`]). Results
    /// are stored by fault-list index, so ordering never changes a verdict.
    pub order: FaultOrder,
    /// Per-fault resource budget (wall-clock deadline and/or work-unit
    /// ceiling). A fault exceeding it is abandoned with
    /// [`FaultStatus::BudgetExceeded`] — the campaign keeps going.
    pub budget: FaultBudget,
    /// Catch panics inside each fault's worker and record the fault as
    /// [`FaultStatus::Faulted`] instead of crashing the campaign. On by
    /// default; turn off to let a panic propagate (e.g. to debug it).
    pub isolate_panics: bool,
    /// Respawn a worker thread that dies (fails to spawn, or panics outside
    /// per-fault isolation) up to this many times per work chunk, with a
    /// short backoff between attempts. Faults already completed by the dead
    /// worker are never re-simulated. After the retries are exhausted the
    /// remaining faults of the chunk run inline on the coordinating thread,
    /// so no fault is ever lost. Respawns are counted in
    /// [`CampaignResult::perf`](PerfCounters::worker_respawns).
    pub worker_retries: usize,
    /// Write a checkpoint of completed per-fault results to this file every
    /// [`checkpoint_every`](Self::checkpoint_every) faults (and after the
    /// final batch). `None` disables checkpointing.
    pub checkpoint: Option<PathBuf>,
    /// Faults per batch between checkpoint writes. Only meaningful with
    /// [`checkpoint`](Self::checkpoint) set.
    pub checkpoint_every: usize,
    /// Resume from the [`checkpoint`](Self::checkpoint) file: faults already
    /// recorded there are not re-simulated. Requires the file to exist and
    /// match this campaign (circuit name, fault count, sequence length).
    pub resume: bool,
    /// Audit detections by concrete certificate replay and quarantine any
    /// refuted detection as [`FaultStatus::AuditFailed`]. `None` (the
    /// default) trusts the symbolic engine. Resumed faults keep their
    /// checkpointed status and are not re-audited.
    pub audit: Option<CampaignAudit>,
    /// This campaign's place in a sharded partition ([`crate::shard`]).
    /// When set, the fault list is one shard's slice: checkpoints record
    /// the shard's place and global fault indices, and a resume uses the
    /// shard-aware reader. `None` (the default) is an ordinary unsharded
    /// campaign, whose checkpoint is the trivial shard 0 of 1.
    pub shard: Option<ShardInfo>,
    /// Test instrumentation: called with `(index, fault)` before each fault
    /// is simulated, inside the worker (and inside panic isolation).
    pub fault_hook: Option<FaultHook>,
    /// Cooperative cancellation, polled before each batch. When the probe
    /// returns `true` the campaign writes a final checkpoint (if one is
    /// configured) and returns [`Error::Interrupted`] with the completed
    /// count — a rerun with [`resume`](Self::resume) continues from there,
    /// bit-identically. `None` (the default) never cancels.
    pub cancel: Option<CancelFlag>,
}

impl std::fmt::Debug for CampaignOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CampaignOptions")
            .field("moa", &self.moa)
            .field("threads", &self.threads)
            .field("screen", &self.screen)
            .field("screen_lanes", &self.screen_lanes)
            .field("screen_threads", &self.screen_threads)
            .field("prune_untestable", &self.prune_untestable)
            .field("collapse", &self.collapse)
            .field("order", &self.order)
            .field("budget", &self.budget)
            .field("isolate_panics", &self.isolate_panics)
            .field("worker_retries", &self.worker_retries)
            .field("checkpoint", &self.checkpoint)
            .field("checkpoint_every", &self.checkpoint_every)
            .field("resume", &self.resume)
            .field("audit", &self.audit)
            .field("shard", &self.shard)
            .field(
                "fault_hook",
                &self.fault_hook.as_ref().map(|_| "Fn(usize, &Fault)"),
            )
            .field("cancel", &self.cancel.as_ref().map(|_| "Fn() -> bool"))
            .finish()
    }
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            moa: MoaOptions::default(),
            threads: 0,
            screen: true,
            screen_lanes: ScreenLanes::L64,
            screen_threads: 1,
            prune_untestable: false,
            collapse: false,
            order: FaultOrder::Natural,
            budget: FaultBudget::none(),
            isolate_panics: true,
            worker_retries: 2,
            checkpoint: None,
            checkpoint_every: 64,
            resume: false,
            audit: None,
            shard: None,
            fault_hook: None,
            cancel: None,
        }
    }
}

impl CampaignOptions {
    /// Campaign with the paper's per-fault defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Campaign running the expansion-only baseline of reference \[4].
    pub fn baseline() -> Self {
        CampaignOptions {
            moa: MoaOptions::baseline(),
            ..Self::default()
        }
    }
}

/// Aggregate results of simulating a fault list — one row of Table 2 (and,
/// via [`CampaignResult::counter_averages`], one row of Table 3).
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// The circuit's name.
    pub circuit: String,
    /// Faults simulated.
    pub total_faults: usize,
    /// Faults detected by conventional simulation.
    pub conventional: usize,
    /// Faults detected beyond conventional simulation (the "extra" column).
    pub extra: usize,
    /// Faults dropped by the necessary condition (C).
    pub skipped_condition_c: usize,
    /// Faults statically proven untestable and skipped with zero simulation
    /// work ([`FaultStatus::Untestable`]). Always `0` without
    /// [`CampaignOptions::prune_untestable`].
    pub untestable: usize,
    /// Faults whose collection sweep hit the implication budget.
    pub truncated: usize,
    /// Undetected faults for which at least one expanded sequence was
    /// dropped: the fault is detected for *some* faulty initial states — the
    /// "potential detection" notion studied by the paper's reference \[7].
    pub partially_covered: usize,
    /// Undetected faults whose expansion was *aborted* at the `N_STATES`
    /// limit with eligible pairs remaining (the paper's abort notion).
    pub aborted: usize,
    /// Faults abandoned when their [`FaultBudget`] ran out.
    pub budget_exceeded: usize,
    /// Faults whose isolated worker panicked.
    pub faulted: usize,
    /// Faults that exhausted their budget under the full pipeline and were
    /// re-tried down the graceful-degradation ladder
    /// ([`MoaOptions::degrade`](crate::MoaOptions)), ending with a
    /// [`FaultStatus::PartialVerdict`] lower bound instead of a bare
    /// [`FaultStatus::BudgetExceeded`].
    pub degraded: usize,
    /// Detections refuted by the certificate audit and quarantined
    /// ([`FaultStatus::AuditFailed`]). Always `0` without
    /// [`CampaignOptions::audit`]; any nonzero count is an engine-soundness
    /// alarm, not a property of the circuit.
    pub audit_failed: usize,
    /// Per-fault statuses, in fault-list order.
    pub statuses: Vec<FaultStatus>,
    /// Table-3 counters of the faults detected beyond conventional
    /// simulation, in fault-list order.
    pub expansion_counters: Vec<Counters>,
    /// Work and per-phase wall-time instrumentation, summed over the
    /// screening pre-pass and every simulated fault. Faults restored from a
    /// checkpoint contribute nothing (they are not re-simulated). Excluded
    /// from equality: two runs with identical verdicts compare equal even
    /// though their timings differ.
    pub perf: PerfCounters,
    /// Checkpoint records that were skipped (with a located warning) while
    /// resuming, because they were corrupt, out of range, or duplicated.
    /// The faults behind them were simply re-simulated. Empty without
    /// [`CampaignOptions::resume`]. Excluded from equality alongside
    /// [`perf`](Self::perf): skips describe the journey, not the verdicts.
    pub resume_skipped: Vec<CheckpointSkip>,
    /// Collapse statistics and per-fault provenance; `Some` only for a run
    /// with [`CampaignOptions::collapse`]. Excluded from equality alongside
    /// [`perf`](Self::perf): collapsing is an execution strategy, and a
    /// collapsed run's *verdicts* must compare equal to the uncollapsed
    /// run's.
    pub collapse: Option<CollapseReport>,
}

/// Equality by verdicts: every field except the wall-clock-dependent
/// [`perf`](CampaignResult::perf) instrumentation, the
/// [`resume_skipped`](CampaignResult::resume_skipped) warnings (a resumed
/// run that healed a corrupt record still computes identical verdicts), and
/// the [`collapse`](CampaignResult::collapse) sidecar (a collapsed run must
/// compare equal to the uncollapsed run it is bit-identical to).
impl PartialEq for CampaignResult {
    fn eq(&self, other: &Self) -> bool {
        self.circuit == other.circuit
            && self.total_faults == other.total_faults
            && self.conventional == other.conventional
            && self.extra == other.extra
            && self.skipped_condition_c == other.skipped_condition_c
            && self.untestable == other.untestable
            && self.truncated == other.truncated
            && self.partially_covered == other.partially_covered
            && self.aborted == other.aborted
            && self.budget_exceeded == other.budget_exceeded
            && self.faulted == other.faulted
            && self.degraded == other.degraded
            && self.audit_failed == other.audit_failed
            && self.statuses == other.statuses
            && self.expansion_counters == other.expansion_counters
    }
}

impl Eq for CampaignResult {}

impl CampaignResult {
    /// Total detected (`conventional + extra`) — Table 2's "tot" column.
    pub fn detected_total(&self) -> usize {
        self.conventional + self.extra
    }

    /// Averages of the Table-3 counters over the extra-detected faults.
    pub fn counter_averages(&self) -> CounterAverages {
        CounterAverages::of(&self.expansion_counters)
    }

    /// Tallies the [`FaultStatus::PartialVerdict`] lower bounds — what the
    /// degradation ladder ([`MoaOptions::degrade`](crate::MoaOptions))
    /// salvaged from budget-exhausted faults. All-zero for a run that never
    /// degraded.
    pub fn partial_summary(&self) -> PartialSummary {
        let mut summary = PartialSummary::default();
        for status in &self.statuses {
            let FaultStatus::PartialVerdict { lower_bound, .. } = status else {
                continue;
            };
            summary.partial += 1;
            match lower_bound {
                PartialBound::Detected { .. } => summary.detected += 1,
                PartialBound::NotDetected { .. } => summary.not_detected += 1,
                PartialBound::Unknown => summary.unknown += 1,
            }
        }
        summary
    }

    /// Fraction of faults *proven* detected, `detected_total / total_faults`
    /// — a lower bound on the true fault coverage whenever the run degraded
    /// or ran out of budget (those faults might still be detectable). Zero
    /// for an empty fault list.
    pub fn coverage_lower_bound(&self) -> f64 {
        if self.total_faults == 0 {
            return 0.0;
        }
        self.detected_total() as f64 / self.total_faults as f64
    }
}

/// Counts of the [`FaultStatus::PartialVerdict`] lower bounds in a campaign,
/// from [`CampaignResult::partial_summary`]. `partial` is the sum of the
/// three bound counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PartialSummary {
    /// Faults that ended with a partial verdict of any kind.
    pub partial: usize,
    /// Partial verdicts whose lower bound is [`PartialBound::Detected`]
    /// (these also count toward [`CampaignResult::detected_total`]).
    pub detected: usize,
    /// Partial verdicts whose lower bound is [`PartialBound::NotDetected`].
    pub not_detected: usize,
    /// Partial verdicts with no usable lower bound
    /// ([`PartialBound::Unknown`]).
    pub unknown: usize,
}

/// Simulates every fault of `faults` under `seq` and aggregates the results.
///
/// The fault-free trace is computed once; faults are processed independently
/// (optionally in parallel) with [`simulate_fault`](crate::simulate_fault).
///
/// Infallible convenience wrapper over [`try_run_campaign`]; panics on
/// invalid inputs or checkpoint failures.
///
/// # Example
///
/// ```
/// use moa_core::{run_campaign, CampaignOptions};
/// use moa_netlist::{full_fault_list, parse_bench};
/// use moa_sim::TestSequence;
///
/// let c = parse_bench(
///     "INPUT(r)\nOUTPUT(z)\nq = DFF(d)\nnq = NOT(q)\nd = AND(r, nq)\nz = BUFF(q)\n",
/// )?;
/// let faults = full_fault_list(&c);
/// let seq = TestSequence::from_words(&["0", "0", "0"])?;
/// let result = run_campaign(&c, &seq, &faults, &CampaignOptions::new());
/// assert_eq!(result.total_faults, faults.len());
/// assert!(result.extra >= 1, "the reset-line fault needs expansion");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn run_campaign(
    circuit: &Circuit,
    seq: &TestSequence,
    faults: &[Fault],
    options: &CampaignOptions,
) -> CampaignResult {
    match try_run_campaign(circuit, seq, faults, options) {
        Ok(result) => result,
        Err(e) => panic!("run_campaign: {e}"),
    }
}

/// Fallible variant of [`run_campaign`]: validates the inputs up front and
/// reports checkpoint problems as [`Error`] values instead of panicking.
pub fn try_run_campaign(
    circuit: &Circuit,
    seq: &TestSequence,
    faults: &[Fault],
    options: &CampaignOptions,
) -> Result<CampaignResult, Error> {
    if seq.num_inputs() != circuit.num_inputs() {
        return Err(Error::SequenceWidthMismatch {
            expected: circuit.num_inputs(),
            got: seq.num_inputs(),
        });
    }
    for (index, fault) in faults.iter().enumerate() {
        validate_fault(circuit, index, fault)?;
    }
    // The conventional stage of every fault replays as deltas from these
    // cached fault-free frames (event-driven differential simulation).
    let frames = GoodFrames::compute(circuit, seq);
    let good = frames.to_trace();
    validate_inputs(circuit, seq, &good)?;

    if let Some(info) = &options.shard {
        let consistent = info.shard_count > 0
            && info.shard_id < info.shard_count
            && info.len as usize == faults.len()
            && info
                .offset
                .checked_add(info.len)
                .is_some_and(|end| end <= info.total_faults);
        if !consistent {
            return Err(Error::Shard {
                shard_id: info.shard_id as usize,
                message: format!(
                    "inconsistent shard geometry: shard {} of {} covering [{}, {}+{}) of {} \
                     faults, but the campaign's fault list has {}",
                    info.shard_id,
                    info.shard_count,
                    info.offset,
                    info.offset,
                    info.len,
                    info.total_faults,
                    faults.len()
                ),
            });
        }
    }

    let header = CheckpointHeader {
        circuit: circuit.name().to_owned(),
        total_faults: faults.len(),
        seq_len: seq.len(),
    };
    let (mut slots, resume_skipped): (Vec<Option<FaultResult>>, Vec<CheckpointSkip>) =
        if options.resume {
            let path = options.checkpoint.as_ref().ok_or_else(|| Error::Checkpoint {
                path: "<none>".into(),
                message: "resume requested without a checkpoint path".into(),
            })?;
            let load = match &options.shard {
                Some(info) => read_checkpoint_sharded(path, &header, info)?,
                None => read_checkpoint(path, &header)?,
            };
            (load.slots, load.skipped)
        } else {
            (vec![None; faults.len()], Vec::new())
        };

    let mut perf = PerfCounters::new();
    let collapse = run_all(
        circuit,
        seq,
        &good,
        faults,
        options,
        &frames,
        &header,
        &mut slots,
        &mut perf,
    )?;

    let results = slots
        .into_iter()
        .map(|slot| slot.ok_or_else(|| Error::Checkpoint {
            path: "<internal>".into(),
            message: "a fault was left unsimulated".into(),
        }))
        .collect::<Result<Vec<_>, _>>()?;
    let mut result = aggregate(circuit, faults.len(), results);
    result.perf = perf;
    result.resume_skipped = resume_skipped;
    result.collapse = collapse;
    Ok(result)
}

pub(crate) fn aggregate(
    circuit: &Circuit,
    total_faults: usize,
    results: Vec<FaultResult>,
) -> CampaignResult {
    let mut campaign = CampaignResult {
        circuit: circuit.name().to_owned(),
        total_faults,
        conventional: 0,
        extra: 0,
        skipped_condition_c: 0,
        untestable: 0,
        truncated: 0,
        partially_covered: 0,
        aborted: 0,
        budget_exceeded: 0,
        faulted: 0,
        degraded: 0,
        audit_failed: 0,
        statuses: Vec::with_capacity(results.len()),
        expansion_counters: Vec::new(),
        perf: PerfCounters::new(),
        resume_skipped: Vec::new(),
        collapse: None,
    };
    for r in results {
        match &r.status {
            FaultStatus::DetectedConventional(_) => campaign.conventional += 1,
            FaultStatus::SkippedConditionC => campaign.skipped_condition_c += 1,
            FaultStatus::Untestable { .. } => campaign.untestable += 1,
            FaultStatus::NotDetected {
                truncated,
                undecided,
                sequences,
                aborted,
            } => {
                if *truncated {
                    campaign.truncated += 1;
                }
                if undecided < sequences {
                    campaign.partially_covered += 1;
                }
                if *aborted {
                    campaign.aborted += 1;
                }
            }
            FaultStatus::BudgetExceeded { .. } => campaign.budget_exceeded += 1,
            FaultStatus::Faulted { .. } => campaign.faulted += 1,
            FaultStatus::PartialVerdict { .. } => campaign.degraded += 1,
            FaultStatus::AuditFailed { .. } => campaign.audit_failed += 1,
            _ => {}
        }
        if r.status.is_extra_detected() {
            campaign.extra += 1;
            campaign.expansion_counters.push(r.counters);
        }
        campaign.statuses.push(r.status);
    }
    campaign
}

/// Simulates every fault whose slot is still `None`, in batches, writing a
/// checkpoint after each batch when configured. Returns the collapse report
/// when [`CampaignOptions::collapse`] ran.
#[allow(clippy::too_many_arguments)]
fn run_all(
    circuit: &Circuit,
    seq: &TestSequence,
    good: &SimTrace,
    faults: &[Fault],
    options: &CampaignOptions,
    frames: &GoodFrames,
    header: &CheckpointHeader,
    slots: &mut [Option<FaultResult>],
    perf: &mut PerfCounters,
) -> Result<Option<CollapseReport>, Error> {
    // Implication regions and fan-out cones are a property of the circuit
    // alone: build them once and share across faults and worker threads.
    let cones = ConeCache::new(circuit);
    // Static untestability pruning runs before any simulation: a proven
    // fault's slot is filled directly with zero counters and zero runs, so
    // neither the packed screen nor the per-fault procedure ever sees it.
    if options.prune_untestable {
        let screen = moa_analyze::UntestableScreen::new(circuit, cones.learned_db());
        for (index, slot) in slots.iter_mut().enumerate() {
            if slot.is_some() {
                continue;
            }
            if let Some(proof) = screen.check(circuit, &faults[index]) {
                *slot = Some(FaultResult {
                    status: FaultStatus::Untestable { proof },
                    counters: Counters::new(),
                    runs: 0,
                });
            }
        }
    }
    let mut pending: Vec<usize> = slots
        .iter()
        .enumerate()
        .filter_map(|(i, slot)| slot.is_none().then_some(i))
        .collect();
    order_pending(circuit, &cones, faults, options.order, &mut pending);

    // Rung-cost statistics for adaptive degradation are campaign-wide: one
    // accumulator shared by every fault's meter, so late faults can skip a
    // rung the early faults proved hopeless.
    let ladder = (options.moa.degrade && options.moa.degrade_adaptive)
        .then(|| Arc::new(LadderStats::new()));

    if !options.collapse {
        run_stage(
            circuit, seq, good, faults, options, frames, header, &cones,
            ladder.as_ref(), &pending, slots, perf,
        )?;
        // With nothing pending (a fully-resumed or fully-pruned campaign, or
        // an empty shard) the stage never flushed; a shard must still publish
        // its file so the merge sees every member of the partition.
        if pending.is_empty() {
            flush_checkpoint(options, header, slots)?;
        }
        return Ok(None);
    }

    // Collapsed campaign: stage one simulates one representative per proven
    // equivalence class; stage two expands each class verdict to the other
    // members where that is bit-exact, and simulates the rest individually.
    let analysis = moa_analyze::CollapseAnalysis::of(circuit, faults);
    let rep_of = analysis.representative_map();
    let mut report = CollapseReport {
        total: faults.len(),
        classes: analysis.classes().len(),
        inherited: 0,
        fallback: 0,
        audited: 0,
        representative: rep_of.to_vec(),
    };
    let reps: Vec<usize> = pending
        .iter()
        .copied()
        .filter(|&i| rep_of[i] == i)
        .collect();
    run_stage(
        circuit, seq, good, faults, options, frames, header, &cones,
        ladder.as_ref(), &reps, slots, perf,
    )?;

    // Expansion: a member inherits its representative's status only when the
    // status is provably member-invariant. Equivalent faults have identical
    // faulty traces on every net at every time unit, so the conventional
    // detection (earliest output mismatch) and the condition-C profile
    // (derived from the trace alone) are the same for every member. Every
    // other variant carries member-specific payload (fault-site pair keys,
    // expansion sequences, budget work, panic messages) and must be
    // simulated individually to stay bit-identical to the uncollapsed run.
    let mut fallback = Vec::new();
    for &i in pending.iter().filter(|&&i| rep_of[i] != i) {
        let inherited = slots[rep_of[i]].as_ref().and_then(|r| match &r.status {
            st @ (FaultStatus::DetectedConventional(_) | FaultStatus::SkippedConditionC) => {
                Some(st.clone())
            }
            _ => None,
        });
        let Some(status) = inherited else {
            fallback.push(i);
            continue;
        };
        let mut result = FaultResult {
            status,
            counters: Counters::new(),
            runs: 0,
        };
        // Inherited detections face the same deterministic audit sampling as
        // simulated ones: the representative's conventional certificate is
        // replayed against the *member* fault through the concrete audit
        // gate, so a wrong collapse is quarantined, never trusted.
        if let Some(audit) = options
            .audit
            .as_ref()
            .filter(|a| i.is_multiple_of(a.sample_rate.max(1)))
        {
            if let FaultStatus::DetectedConventional(det) = &result.status {
                let cert = DetectionCertificate::conventional(det, good);
                apply_audit(
                    circuit, seq, good, &faults[i], &mut result, Some(&cert), audit, perf,
                );
                report.audited += 1;
            }
        }
        slots[i] = Some(result);
        report.inherited += 1;
    }
    report.fallback = fallback.len();
    // The inherited fills are not covered by either stage's flushes: write
    // them out before stage two so a kill during the fallback runs resumes
    // with the expansion intact (and so an all-inherited shard still
    // publishes its file).
    flush_checkpoint(options, header, slots)?;
    run_stage(
        circuit, seq, good, faults, options, frames, header, &cones,
        ladder.as_ref(), &fallback, slots, perf,
    )?;
    Ok(Some(report))
}

/// Writes the configured checkpoint (format v2; shard info only for a shard
/// campaign). A no-op without [`CampaignOptions::checkpoint`].
fn flush_checkpoint(
    options: &CampaignOptions,
    header: &CheckpointHeader,
    slots: &[Option<FaultResult>],
) -> Result<(), Error> {
    match &options.checkpoint {
        Some(path) => write_checkpoint_v2(path, header, options.shard.as_ref(), slots),
        None => Ok(()),
    }
}

/// Permutes `pending` according to the configured [`FaultOrder`]. Every
/// ordering ends with the original index as the tie-break, so the schedule
/// is deterministic; verdicts are unaffected either way (results are stored
/// by index).
fn order_pending(
    circuit: &Circuit,
    cones: &ConeCache<'_>,
    faults: &[Fault],
    order: FaultOrder,
    pending: &mut [usize],
) {
    match order {
        FaultOrder::Natural => {}
        FaultOrder::ScoapHardFirst | FaultOrder::ScoapCheapFirst => {
            let t = moa_analyze::Testability::build(circuit);
            let cost: Vec<u64> = faults
                .iter()
                .map(|f| t.fault_cost(circuit, f))
                .collect();
            if order == FaultOrder::ScoapHardFirst {
                pending.sort_by_key(|&i| (std::cmp::Reverse(cost[i]), i));
            } else {
                pending.sort_by_key(|&i| (cost[i], i));
            }
        }
        FaultOrder::ConeCluster => {
            let overlap = StateOverlap::build(cones);
            pending.sort_by_key(|&i| (overlap.fault_cluster(circuit, &faults[i]), i));
        }
    }
}

/// Runs one stage of a campaign: screens `pending`, simulates it in
/// checkpoint-sized batches, flushes after every batch and observes
/// cancellation at batch boundaries.
#[allow(clippy::too_many_arguments)]
fn run_stage(
    circuit: &Circuit,
    seq: &TestSequence,
    good: &SimTrace,
    faults: &[Fault],
    options: &CampaignOptions,
    frames: &GoodFrames,
    header: &CheckpointHeader,
    cones: &ConeCache<'_>,
    ladder: Option<&Arc<LadderStats>>,
    pending: &[usize],
    slots: &mut [Option<FaultResult>],
    perf: &mut PerfCounters,
) -> Result<(), Error> {
    let screened = screen_pending(circuit, seq, good, faults, options, pending, perf);
    let batch_size = if options.checkpoint.is_some() {
        options.checkpoint_every.max(1)
    } else {
        pending.len().max(1)
    };
    let cancelled = || options.cancel.as_ref().is_some_and(|probe| probe());
    for batch in pending.chunks(batch_size) {
        // Cancellation is only observed here, at a batch boundary: every
        // completed batch is already flushed, so the checkpoint on disk is
        // consistent and a resume re-simulates nothing it already has.
        if cancelled() {
            flush_checkpoint(options, header, slots)?;
            return Err(Error::Interrupted {
                completed: slots.iter().filter(|slot| slot.is_some()).count(),
                total: slots.len(),
            });
        }
        run_batch(
            circuit,
            seq,
            good,
            faults,
            options,
            frames,
            &screened,
            cones,
            ladder,
            batch,
            slots,
            perf,
        );
        flush_checkpoint(options, header, slots)?;
    }
    Ok(())
}

/// Conventionally screens the still-unresolved faults a word at a time with
/// the parallel-fault packed kernel, at the configured lane width and thread
/// count. Returns each fault's earliest conventional detection, indexed by
/// fault-list position; all `None` when screening is disabled. Each slot's
/// verdict depends only on its own fault, so the result is independent of
/// batch composition, lane width, and thread count — a resumed campaign
/// screening a different subset (or with different knobs) reaches identical
/// per-fault conclusions.
fn screen_pending(
    circuit: &Circuit,
    seq: &TestSequence,
    good: &SimTrace,
    faults: &[Fault],
    options: &CampaignOptions,
    pending: &[usize],
    perf: &mut PerfCounters,
) -> Vec<Option<Detection>> {
    let mut screened = vec![None; faults.len()];
    if !options.screen || pending.is_empty() {
        return screened;
    }
    let started = Instant::now();
    let batch: Vec<Fault> = pending.iter().map(|&i| faults[i]).collect();
    let threads = if options.screen_threads == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        options.screen_threads
    };
    let outcome = screen_faults_wide(circuit, seq, good, &batch, options.screen_lanes, threads);
    for (&index, det) in pending.iter().zip(outcome.detections) {
        screened[index] = det;
    }
    perf.gate_evals += outcome.gate_evaluations;
    perf.screen_nanos += started.elapsed().as_nanos() as u64;
    screened
}

/// Simulates the faults at `batch` indices (in parallel when configured)
/// and stores their results into `slots`.
#[allow(clippy::too_many_arguments)]
fn run_batch(
    circuit: &Circuit,
    seq: &TestSequence,
    good: &SimTrace,
    faults: &[Fault],
    options: &CampaignOptions,
    frames: &GoodFrames,
    screened: &[Option<Detection>],
    cones: &ConeCache<'_>,
    ladder: Option<&Arc<LadderStats>>,
    batch: &[usize],
    slots: &mut [Option<FaultResult>],
    perf: &mut PerfCounters,
) {
    let run_one = |index: usize| -> (FaultResult, PerfCounters) {
        let fault = &faults[index];
        // Deterministic sampling by fault-list index: the audited subset is
        // independent of thread count and batch boundaries.
        let audit = options
            .audit
            .as_ref()
            .filter(|a| index.is_multiple_of(a.sample_rate.max(1)));
        let simulate_one = || {
            if let Some(hook) = &options.fault_hook {
                hook(index, fault);
            }
            // The screening pre-pass already proved a conventional
            // detection: the per-fault pipeline (including its conventional
            // stage) is skipped entirely. The verdict — and, when sampled,
            // the audited certificate — is exactly what the pipeline would
            // have produced.
            if let Some(det) = screened[index] {
                let mut result = FaultResult {
                    status: FaultStatus::DetectedConventional(det),
                    counters: Counters::new(),
                    runs: 0,
                };
                let mut perf = PerfCounters::new();
                if let Some(audit) = audit {
                    let cert = DetectionCertificate::conventional(&det, good);
                    apply_audit(
                        circuit, seq, good, fault, &mut result, Some(&cert), audit, &mut perf,
                    );
                }
                return (result, perf);
            }
            let mut meter = BudgetMeter::new(&options.budget);
            if let Some(stats) = ladder {
                meter.set_ladder(Arc::clone(stats));
            }
            let (mut result, certificate) = simulate_fault_cached(
                circuit,
                seq,
                good,
                fault,
                &options.moa,
                Some(frames),
                cones,
                &mut meter,
                audit.is_some(),
            );
            if let Some(audit) = audit {
                apply_audit(
                    circuit,
                    seq,
                    good,
                    fault,
                    &mut result,
                    certificate.as_ref(),
                    audit,
                    &mut meter.perf,
                );
            }
            (result, meter.perf)
        };
        if options.isolate_panics {
            match catch_unwind(AssertUnwindSafe(simulate_one)) {
                Ok(result) => result,
                Err(payload) => (
                    FaultResult {
                        status: FaultStatus::Faulted {
                            message: panic_message(payload.as_ref()),
                        },
                        counters: Counters::new(),
                        runs: 0,
                    },
                    PerfCounters::new(),
                ),
            }
        } else {
            simulate_one()
        }
    };

    let threads = if options.threads == 0 {
        std::thread::available_parallelism()
            .map_or(1, std::num::NonZero::get)
    } else {
        options.threads
    };
    let threads = threads.min(batch.len().max(1));

    if threads <= 1 || batch.len() < 2 {
        for &index in batch {
            let (result, fault_perf) = run_one(index);
            *perf += fault_perf;
            slots[index] = Some(result);
        }
        return;
    }

    // Results live in per-fault `Mutex<Option<..>>` cells so a replacement
    // worker can see (and skip) the faults its dead predecessor already
    // finished: across any number of respawns each fault is simulated
    // exactly once.
    let cells: Vec<std::sync::Mutex<Option<(FaultResult, PerfCounters)>>> =
        (0..batch.len()).map(|_| std::sync::Mutex::new(None)).collect();
    let chunk = batch.len().div_ceil(threads);
    let mut respawns: u64 = 0;
    std::thread::scope(|scope| {
        // A work unit is one chunk of the batch plus its retry count. A
        // worker that fails to spawn or dies mid-chunk puts its unit back on
        // the queue (with backoff) until the retries run out, after which
        // the coordinating thread finishes the chunk inline — no fault is
        // ever lost to a dying worker.
        let mut queue: Vec<(usize, &[usize], usize)> = batch
            .chunks(chunk)
            .enumerate()
            .map(|(k, indices)| (k * chunk, indices, 0))
            .collect();
        while !queue.is_empty() {
            let mut round = Vec::with_capacity(queue.len());
            for (offset, indices, attempt) in queue.drain(..) {
                if attempt > 0 {
                    std::thread::sleep(std::time::Duration::from_millis(2 * attempt as u64));
                }
                let cells = &cells;
                #[cfg(feature = "failpoints")]
                let chaos_scope = crate::failpoint::Scope::current();
                let worker = move || {
                    #[cfg(feature = "failpoints")]
                    chaos_scope.enter();
                    for (k, &index) in indices.iter().enumerate() {
                        let cell = &cells[offset + k];
                        let done = cell
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner)
                            .is_some();
                        if done {
                            continue;
                        }
                        fail_hit!("fp/campaign.worker.run");
                        let result = run_one(index);
                        *cell.lock().unwrap_or_else(std::sync::PoisonError::into_inner) =
                            Some(result);
                    }
                };
                let refused = {
                    #[cfg(feature = "failpoints")]
                    {
                        crate::failpoint::fires_error("fp/campaign.worker.spawn")
                    }
                    #[cfg(not(feature = "failpoints"))]
                    {
                        false
                    }
                };
                let handle = if refused {
                    None
                } else {
                    std::thread::Builder::new().spawn_scoped(scope, worker).ok()
                };
                round.push((offset, indices, attempt, handle));
            }
            for (offset, indices, attempt, handle) in round {
                let died = match handle {
                    Some(h) => h.join().is_err(),
                    None => true,
                };
                if !died {
                    continue;
                }
                if attempt < options.worker_retries {
                    respawns += 1;
                    queue.push((offset, indices, attempt + 1));
                } else {
                    // Retries exhausted: finish the chunk inline. This path
                    // does not hit the worker failpoints — it is the
                    // last-resort guarantee that every fault completes.
                    for (k, &index) in indices.iter().enumerate() {
                        let cell = &cells[offset + k];
                        let done = cell
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner)
                            .is_some();
                        if done {
                            continue;
                        }
                        let result = run_one(index);
                        *cell.lock().unwrap_or_else(std::sync::PoisonError::into_inner) =
                            Some(result);
                    }
                }
            }
        }
    });
    perf.worker_respawns += respawns;
    for (cell, &index) in cells.into_iter().zip(batch) {
        let result = cell
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some((fault_result, fault_perf)) = result {
            *perf += fault_perf;
            slots[index] = Some(fault_result);
        }
    }
}

/// Audits a detected fault's certificate by concrete replay and quarantines
/// the detection as [`FaultStatus::AuditFailed`] when the audit refutes it.
/// Shared between the screening short-circuit and the full pipeline so both
/// paths treat a refutation identically; the replay time goes to
/// `perf.audit_nanos`.
#[allow(clippy::too_many_arguments)]
fn apply_audit(
    circuit: &Circuit,
    seq: &TestSequence,
    good: &SimTrace,
    fault: &Fault,
    result: &mut FaultResult,
    certificate: Option<&DetectionCertificate>,
    audit: &CampaignAudit,
    perf: &mut PerfCounters,
) {
    if !result.status.is_detected() {
        return;
    }
    let started = Instant::now();
    let status = match certificate {
        Some(cert) => audit_certificate(circuit, seq, good, fault, cert, &audit.options),
        None => AuditStatus::Refuted {
            reason: "detected fault emitted no certificate".to_owned(),
        },
    };
    perf.audit_nanos += started.elapsed().as_nanos() as u64;
    if let AuditStatus::Refuted { reason } = status {
        result.status = FaultStatus::AuditFailed { reason };
    }
}

/// Renders a panic payload into the stored [`FaultStatus::Faulted`] message.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moa_logic::GateKind;
    use moa_netlist::{full_fault_list, CircuitBuilder};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn toggle() -> (Circuit, TestSequence) {
        let mut b = CircuitBuilder::new("toggle");
        b.add_input("r").unwrap();
        b.add_flip_flop("q", "d").unwrap();
        b.add_gate(GateKind::Not, "nq", &["q"]).unwrap();
        b.add_gate(GateKind::And, "d", &["r", "nq"]).unwrap();
        b.add_gate(GateKind::Buf, "z", &["q"]).unwrap();
        b.add_output("z");
        let c = b.finish().unwrap();
        let seq = TestSequence::from_words(&["0", "0", "0"]).unwrap();
        (c, seq)
    }

    #[test]
    fn campaign_aggregates_statuses() {
        let (c, seq) = toggle();
        let faults = full_fault_list(&c);
        let result = run_campaign(&c, &seq, &faults, &CampaignOptions::new());
        assert_eq!(result.total_faults, faults.len());
        assert_eq!(result.statuses.len(), faults.len());
        assert_eq!(
            result.expansion_counters.len(),
            result.extra,
            "one counter record per extra-detected fault"
        );
        assert!(result.conventional > 0);
        assert!(result.extra >= 1);
        assert_eq!(
            result.detected_total(),
            result.conventional + result.extra
        );
        assert_eq!(result.budget_exceeded, 0);
        assert_eq!(result.faulted, 0);
    }

    #[test]
    fn single_and_multi_thread_agree() {
        let (c, seq) = toggle();
        let faults = full_fault_list(&c);
        let serial = run_campaign(
            &c,
            &seq,
            &faults,
            &CampaignOptions {
                threads: 1,
                ..Default::default()
            },
        );
        let parallel = run_campaign(
            &c,
            &seq,
            &faults,
            &CampaignOptions {
                threads: 4,
                ..Default::default()
            },
        );
        assert_eq!(serial.statuses, parallel.statuses);
        assert_eq!(serial.extra, parallel.extra);
    }

    #[test]
    fn proposed_detects_at_least_as_many_as_baseline() {
        let (c, seq) = toggle();
        let faults = full_fault_list(&c);
        let baseline = run_campaign(&c, &seq, &faults, &CampaignOptions::baseline());
        let proposed = run_campaign(&c, &seq, &faults, &CampaignOptions::new());
        assert_eq!(baseline.conventional, proposed.conventional);
        assert!(proposed.detected_total() >= baseline.detected_total());
    }

    #[test]
    fn empty_fault_list() {
        let (c, seq) = toggle();
        let result = run_campaign(&c, &seq, &[], &CampaignOptions::new());
        assert_eq!(result.total_faults, 0);
        assert_eq!(result.detected_total(), 0);
        assert_eq!(result.counter_averages().faults, 0);
    }

    #[test]
    fn mismatched_sequence_is_a_clean_error() {
        let (c, _) = toggle();
        let wide = TestSequence::from_words(&["00", "01"]).unwrap();
        let faults = full_fault_list(&c);
        let err = try_run_campaign(&c, &wide, &faults, &CampaignOptions::new()).unwrap_err();
        assert!(matches!(err, Error::SequenceWidthMismatch { expected: 1, got: 2 }));
    }

    #[test]
    fn out_of_range_fault_is_a_clean_error() {
        let (c, seq) = toggle();
        let bogus = Fault::stem(moa_netlist::NetId::new(999), true);
        let err = try_run_campaign(&c, &seq, &[bogus], &CampaignOptions::new()).unwrap_err();
        assert!(matches!(err, Error::FaultOutOfRange { index: 0, .. }));
    }

    #[test]
    fn panicking_hook_is_isolated_and_counted() {
        let (c, seq) = toggle();
        let faults = full_fault_list(&c);
        let victim = faults.len() / 2;
        let options = CampaignOptions {
            fault_hook: Some(Arc::new(move |index, _fault: &Fault| {
                assert!(index != victim, "injected fault-worker panic");
            })),
            ..Default::default()
        };
        let result = run_campaign(&c, &seq, &faults, &options);
        assert_eq!(result.faulted, 1);
        assert_eq!(result.total_faults, faults.len());
        match &result.statuses[victim] {
            FaultStatus::Faulted { message } => {
                assert!(message.contains("injected fault-worker panic"), "{message}");
            }
            other => panic!("expected Faulted, got {other:?}"),
        }
        // Every other fault completed normally.
        let healthy = run_campaign(&c, &seq, &faults, &CampaignOptions::new());
        for (i, (a, b)) in result.statuses.iter().zip(&healthy.statuses).enumerate() {
            if i != victim {
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn unisolated_panic_propagates() {
        let (c, seq) = toggle();
        let faults = full_fault_list(&c);
        let options = CampaignOptions {
            isolate_panics: false,
            threads: 1,
            fault_hook: Some(Arc::new(|index, _fault: &Fault| {
                assert!(index != 0, "unisolated panic");
            })),
            ..Default::default()
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_campaign(&c, &seq, &faults, &options)
        }));
        assert!(outcome.is_err(), "the panic must escape the campaign");
    }

    #[test]
    fn tiny_work_budget_abandons_expansion_faults_soundly() {
        let (c, seq) = toggle();
        let faults = full_fault_list(&c);
        let unlimited = run_campaign(&c, &seq, &faults, &CampaignOptions::new());
        let strangled = run_campaign(
            &c,
            &seq,
            &faults,
            &CampaignOptions {
                budget: FaultBudget::none().with_work_limit(1),
                ..Default::default()
            },
        );
        assert!(strangled.budget_exceeded > 0, "the expansion faults must trip");
        // Budget exhaustion only ever downgrades to not-detected: sound.
        assert!(strangled.detected_total() <= unlimited.detected_total());
        // Conventional detections never consume budget.
        assert_eq!(strangled.conventional, unlimited.conventional);
        for (a, b) in strangled.statuses.iter().zip(&unlimited.statuses) {
            match a {
                FaultStatus::BudgetExceeded { work, .. } => assert!(*work > 0),
                other => assert_eq!(other, b, "non-budgeted faults are unaffected"),
            }
        }
    }

    #[test]
    fn zero_deadline_still_terminates_with_sound_statuses() {
        let (c, seq) = toggle();
        let faults = full_fault_list(&c);
        let result = run_campaign(
            &c,
            &seq,
            &faults,
            &CampaignOptions {
                budget: FaultBudget::none().with_deadline(std::time::Duration::ZERO),
                ..Default::default()
            },
        );
        assert_eq!(result.total_faults, faults.len());
        // A zero deadline may or may not trip before small faults finish —
        // but every status must be a valid verdict either way.
        for status in &result.statuses {
            assert!(!matches!(status, FaultStatus::Faulted { .. }));
        }
    }

    #[test]
    fn checkpointed_run_matches_plain_run_and_resumes_to_identical_result() {
        let (c, seq) = toggle();
        let faults = full_fault_list(&c);
        let dir = std::env::temp_dir().join("moa-campaign-checkpoint-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.checkpoint");
        let _ = std::fs::remove_file(&path);

        let plain = run_campaign(&c, &seq, &faults, &CampaignOptions::new());
        let checkpointed = run_campaign(
            &c,
            &seq,
            &faults,
            &CampaignOptions {
                checkpoint: Some(path.clone()),
                checkpoint_every: 3,
                ..Default::default()
            },
        );
        assert_eq!(plain, checkpointed, "checkpointing must not change results");

        // The finished checkpoint is complete: resuming from it re-simulates
        // nothing (hook proves it) and reproduces the identical result.
        let resumed = run_campaign(
            &c,
            &seq,
            &faults,
            &CampaignOptions {
                checkpoint: Some(path.clone()),
                resume: true,
                fault_hook: Some(Arc::new(|index, _fault: &Fault| {
                    panic!("fault {index} re-simulated after a complete checkpoint");
                })),
                isolate_panics: false,
                ..Default::default()
            },
        );
        assert_eq!(plain, resumed);
    }

    #[test]
    fn interrupted_campaign_resumes_to_identical_result() {
        let (c, seq) = toggle();
        let faults = full_fault_list(&c);
        let dir = std::env::temp_dir().join("moa-campaign-interrupt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("interrupted.checkpoint");
        let _ = std::fs::remove_file(&path);

        let reference = run_campaign(&c, &seq, &faults, &CampaignOptions::new());

        // Emulate a mid-campaign crash: an unisolated panic after a few
        // batches have been flushed. The atomic write leaves the last
        // complete checkpoint on disk.
        let killer = faults.len() - 2;
        let interrupted = catch_unwind(AssertUnwindSafe(|| {
            run_campaign(
                &c,
                &seq,
                &faults,
                &CampaignOptions {
                    checkpoint: Some(path.clone()),
                    checkpoint_every: 2,
                    threads: 1,
                    isolate_panics: false,
                    fault_hook: Some(Arc::new(move |index, _fault: &Fault| {
                        assert!(index != killer, "simulated crash");
                    })),
                    ..Default::default()
                },
            )
        }));
        assert!(interrupted.is_err(), "the campaign must have been interrupted");

        // Some but not all work survived in the checkpoint.
        let header = CheckpointHeader {
            circuit: c.name().to_owned(),
            total_faults: faults.len(),
            seq_len: seq.len(),
        };
        let load = read_checkpoint(&path, &header).unwrap();
        assert!(load.skipped.is_empty(), "{:?}", load.skipped);
        let done = load.slots.iter().filter(|s| s.is_some()).count();
        assert!(done > 0 && done < faults.len(), "{done} of {}", faults.len());

        // Resume: the remaining faults (including the one that crashed) are
        // simulated and the aggregate is bit-identical to the clean run.
        let resumed = run_campaign(
            &c,
            &seq,
            &faults,
            &CampaignOptions {
                checkpoint: Some(path.clone()),
                checkpoint_every: 2,
                resume: true,
                ..Default::default()
            },
        );
        assert_eq!(reference, resumed);
    }

    #[test]
    fn cancelled_campaign_checkpoints_and_resumes_to_identical_result() {
        let (c, seq) = toggle();
        let faults = full_fault_list(&c);
        let dir = std::env::temp_dir().join("moa-campaign-cancel-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cancelled.checkpoint");
        let _ = std::fs::remove_file(&path);

        let reference = run_campaign(&c, &seq, &faults, &CampaignOptions::new());

        // The probe trips after the first poll: batch 1 runs, then the
        // campaign flushes and reports Interrupted at the next boundary.
        let polls = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let probe_polls = Arc::clone(&polls);
        let err = try_run_campaign(
            &c,
            &seq,
            &faults,
            &CampaignOptions {
                checkpoint: Some(path.clone()),
                checkpoint_every: 2,
                threads: 1,
                cancel: Some(Arc::new(move || {
                    probe_polls.fetch_add(1, std::sync::atomic::Ordering::SeqCst) >= 1
                })),
                ..Default::default()
            },
        )
        .unwrap_err();
        let Error::Interrupted { completed, total } = err else {
            panic!("expected Interrupted, got {err}");
        };
        assert_eq!(total, faults.len());
        assert!(completed > 0 && completed < total, "{completed} of {total}");

        // The checkpoint holds exactly the completed records; a resume with
        // no cancel probe finishes the rest bit-identically.
        let header = CheckpointHeader {
            circuit: c.name().to_owned(),
            total_faults: faults.len(),
            seq_len: seq.len(),
        };
        let load = read_checkpoint(&path, &header).unwrap();
        assert_eq!(
            load.slots.iter().filter(|s| s.is_some()).count(),
            completed
        );
        let resumed = run_campaign(
            &c,
            &seq,
            &faults,
            &CampaignOptions {
                checkpoint: Some(path.clone()),
                resume: true,
                ..Default::default()
            },
        );
        assert_eq!(reference, resumed);
    }

    #[test]
    fn cancel_probe_already_tripped_interrupts_before_any_work() {
        let (c, seq) = toggle();
        let faults = full_fault_list(&c);
        let err = try_run_campaign(
            &c,
            &seq,
            &faults,
            &CampaignOptions {
                cancel: Some(Arc::new(|| true)),
                screen: false,
                fault_hook: Some(Arc::new(|index, _fault: &Fault| {
                    panic!("fault {index} simulated under a tripped cancel probe");
                })),
                isolate_panics: false,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, Error::Interrupted { completed: 0, .. }), "{err}");
    }

    #[test]
    fn resume_against_missing_or_mismatched_checkpoint_fails_cleanly() {
        let (c, seq) = toggle();
        let faults = full_fault_list(&c);
        let dir = std::env::temp_dir().join("moa-campaign-resume-error-test");
        std::fs::create_dir_all(&dir).unwrap();

        let missing = dir.join("missing.checkpoint");
        let _ = std::fs::remove_file(&missing);
        let err = try_run_campaign(
            &c,
            &seq,
            &faults,
            &CampaignOptions {
                checkpoint: Some(missing),
                resume: true,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, Error::Checkpoint { .. }), "{err}");

        let err = try_run_campaign(
            &c,
            &seq,
            &faults,
            &CampaignOptions {
                resume: true,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(err.to_string().contains("without a checkpoint path"), "{err}");
    }

    #[test]
    fn audited_campaign_matches_plain_on_a_sound_engine() {
        let (c, seq) = toggle();
        let faults = full_fault_list(&c);
        let plain = run_campaign(&c, &seq, &faults, &CampaignOptions::new());
        let audited = run_campaign(
            &c,
            &seq,
            &faults,
            &CampaignOptions {
                audit: Some(CampaignAudit::default()),
                ..Default::default()
            },
        );
        assert_eq!(audited.audit_failed, 0, "a sound engine never fails its own audit");
        assert_eq!(plain, audited, "a clean audit must not change any result");
    }

    #[test]
    fn audit_sampling_agrees_across_thread_counts() {
        let (c, seq) = toggle();
        let faults = full_fault_list(&c);
        let audit = CampaignAudit {
            sample_rate: 3,
            options: AuditOptions::default(),
        };
        let serial = run_campaign(
            &c,
            &seq,
            &faults,
            &CampaignOptions {
                audit: Some(audit.clone()),
                threads: 1,
                ..Default::default()
            },
        );
        let parallel = run_campaign(
            &c,
            &seq,
            &faults,
            &CampaignOptions {
                audit: Some(audit),
                threads: 4,
                ..Default::default()
            },
        );
        assert_eq!(serial, parallel, "index-based sampling is schedule-independent");
    }

    #[test]
    fn audited_campaign_checkpoints_and_resumes_identically() {
        let (c, seq) = toggle();
        let faults = full_fault_list(&c);
        let dir = std::env::temp_dir().join("moa-campaign-audit-checkpoint-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("audited.checkpoint");
        let _ = std::fs::remove_file(&path);

        let options = CampaignOptions {
            audit: Some(CampaignAudit::default()),
            checkpoint: Some(path.clone()),
            checkpoint_every: 2,
            ..Default::default()
        };
        let first = run_campaign(&c, &seq, &faults, &options);
        // Resuming from the finished checkpoint re-simulates (and re-audits)
        // nothing and reproduces the identical aggregate.
        let resumed = run_campaign(
            &c,
            &seq,
            &faults,
            &CampaignOptions {
                resume: true,
                fault_hook: Some(Arc::new(|index, _fault: &Fault| {
                    panic!("fault {index} re-simulated after a complete checkpoint");
                })),
                isolate_panics: false,
                ..options
            },
        );
        assert_eq!(first, resumed);
    }

    #[test]
    fn screened_campaign_matches_unscreened() {
        let (c, seq) = toggle();
        let faults = full_fault_list(&c);
        let screened = run_campaign(&c, &seq, &faults, &CampaignOptions::new());
        let unscreened = run_campaign(
            &c,
            &seq,
            &faults,
            &CampaignOptions {
                screen: false,
                ..Default::default()
            },
        );
        assert_eq!(screened, unscreened, "screening must not change verdicts");
        assert!(screened.conventional > 0, "the screen had faults to drop");
    }

    #[test]
    fn screened_audited_campaign_matches_unscreened() {
        let (c, seq) = toggle();
        let faults = full_fault_list(&c);
        let audit = Some(CampaignAudit::default());
        let screened = run_campaign(
            &c,
            &seq,
            &faults,
            &CampaignOptions {
                audit: audit.clone(),
                ..Default::default()
            },
        );
        let unscreened = run_campaign(
            &c,
            &seq,
            &faults,
            &CampaignOptions {
                screen: false,
                audit,
                ..Default::default()
            },
        );
        assert_eq!(screened.audit_failed, 0, "screened detections audit clean");
        assert_eq!(screened, unscreened);
    }

    #[test]
    fn perf_counters_are_populated_and_excluded_from_equality() {
        let (c, seq) = toggle();
        let faults = full_fault_list(&c);
        let result = run_campaign(&c, &seq, &faults, &CampaignOptions::new());
        assert!(result.perf.gate_evals > 0, "{:?}", result.perf);
        let mut stripped = result.clone();
        stripped.perf = PerfCounters::new();
        assert_eq!(result, stripped, "perf must not participate in equality");
    }

    #[test]
    fn fault_hook_sees_every_fault_once() {
        let (c, seq) = toggle();
        let faults = full_fault_list(&c);
        let calls = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&calls);
        let options = CampaignOptions {
            fault_hook: Some(Arc::new(move |_, _: &Fault| {
                counter.fetch_add(1, Ordering::Relaxed);
            })),
            ..Default::default()
        };
        run_campaign(&c, &seq, &faults, &options);
        assert_eq!(calls.load(Ordering::Relaxed), faults.len());
    }

    #[test]
    fn degrade_ladder_turns_budget_trips_into_partial_verdicts() {
        let (c, seq) = toggle();
        let faults = full_fault_list(&c);
        let unlimited = run_campaign(&c, &seq, &faults, &CampaignOptions::new());
        let degraded = run_campaign(
            &c,
            &seq,
            &faults,
            &CampaignOptions {
                moa: MoaOptions::default().with_degrade(true),
                budget: FaultBudget::none().with_work_limit(1),
                audit: Some(CampaignAudit::default()),
                ..Default::default()
            },
        );
        assert!(degraded.degraded > 0, "the expansion faults must step down the ladder");
        assert_eq!(
            degraded.budget_exceeded, 0,
            "every budget trip is upgraded to a partial verdict"
        );
        assert_eq!(
            degraded.audit_failed, 0,
            "partial detections carry replayable certificates"
        );
        // Degradation only ever removes detection power: sound.
        assert!(degraded.detected_total() <= unlimited.detected_total());
        // Conventional detections never consume budget.
        assert_eq!(degraded.conventional, unlimited.conventional);
        for status in &degraded.statuses {
            if let FaultStatus::PartialVerdict { work_spent, .. } = status {
                assert!(*work_spent > 0);
            }
        }
        let summary = degraded.partial_summary();
        assert_eq!(summary.partial, degraded.degraded);
        assert_eq!(
            summary.detected + summary.not_detected + summary.unknown,
            summary.partial
        );
        assert!(
            degraded.coverage_lower_bound() <= unlimited.coverage_lower_bound(),
            "the lower bound never exceeds the full-pipeline coverage"
        );
    }

    #[test]
    fn adaptive_degradation_is_inert_under_a_generous_budget() {
        // With a budget no rung ever trips, the ladder is never entered, so
        // the cost model must change nothing: results are fully identical.
        let (c, seq) = toggle();
        let faults = full_fault_list(&c);
        let base = CampaignOptions {
            moa: MoaOptions::default().with_degrade(true),
            budget: FaultBudget::none().with_work_limit(1 << 20),
            threads: 1,
            ..Default::default()
        };
        let plain = run_campaign(&c, &seq, &faults, &base);
        let adaptive = run_campaign(
            &c,
            &seq,
            &faults,
            &CampaignOptions {
                moa: base.moa.clone().with_degrade_adaptive(true),
                ..base
            },
        );
        assert_eq!(plain, adaptive);
        assert_eq!(plain.degraded, 0);
    }

    #[test]
    fn adaptive_degradation_locks_the_detected_set_under_pressure() {
        // Under a starvation budget the adaptive skip may relabel *how* a
        // fault degraded, but which faults count as detected must not move:
        // skipping only ever happens on rungs predicted to trip the budget.
        let (c, seq) = toggle();
        let faults = full_fault_list(&c);
        let base = CampaignOptions {
            moa: MoaOptions::default().with_degrade(true),
            budget: FaultBudget::none().with_work_limit(1),
            threads: 1,
            audit: Some(CampaignAudit::default()),
            ..Default::default()
        };
        let plain = run_campaign(&c, &seq, &faults, &base);
        let adaptive = run_campaign(
            &c,
            &seq,
            &faults,
            &CampaignOptions {
                moa: base.moa.clone().with_degrade_adaptive(true),
                ..base
            },
        );
        assert_eq!(plain.total_faults, adaptive.total_faults);
        assert_eq!(plain.conventional, adaptive.conventional);
        assert_eq!(plain.detected_total(), adaptive.detected_total());
        for (index, (p, a)) in plain
            .statuses
            .iter()
            .zip(&adaptive.statuses)
            .enumerate()
        {
            assert_eq!(
                p.is_detected(),
                a.is_detected(),
                "fault {index} changed detection verdict under adaptive skipping"
            );
        }
        assert_eq!(adaptive.audit_failed, 0);
        assert_eq!(adaptive.budget_exceeded, 0, "trips still become partials");
    }

    #[test]
    fn resume_skips_corrupt_checkpoint_records_and_heals_them() {
        let (c, seq) = toggle();
        let faults = full_fault_list(&c);
        let dir = std::env::temp_dir().join("moa-campaign-corrupt-resume-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corrupt.checkpoint");
        let _ = std::fs::remove_file(&path);

        let reference = run_campaign(&c, &seq, &faults, &CampaignOptions::new());
        run_campaign(
            &c,
            &seq,
            &faults,
            &CampaignOptions {
                checkpoint: Some(path.clone()),
                ..Default::default()
            },
        );

        // Flip a bit of the last record (just before the 13-byte trailer),
        // as bit rot might.
        let mut bytes = std::fs::read(&path).unwrap();
        let target = bytes.len() - 13 - 2;
        bytes[target] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let resumed = run_campaign(
            &c,
            &seq,
            &faults,
            &CampaignOptions {
                checkpoint: Some(path.clone()),
                resume: true,
                ..Default::default()
            },
        );
        assert_eq!(resumed.resume_skipped.len(), 1, "{:?}", resumed.resume_skipped);
        assert!(resumed.resume_skipped[0].record > 0, "damage is in a record");
        assert_eq!(reference, resumed, "the skipped record is simply re-simulated");
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn dying_workers_are_respawned_and_no_fault_is_lost() {
        use crate::failpoint::{self, ChaosSchedule, FailAction, SitePlan};
        let _serial = failpoint::test_lock();
        failpoint::clear();
        let (c, seq) = toggle();
        let faults = full_fault_list(&c);
        let options = CampaignOptions {
            threads: 4,
            ..Default::default()
        };
        let clean = run_campaign(&c, &seq, &faults, &options);
        // p=1.0 makes the outcome schedule-independent: the first two spawn
        // attempts are refused and the first two workers to reach the run
        // site die, regardless of thread interleaving.
        failpoint::install_scoped(
            ChaosSchedule::empty(11)
                .with_site(
                    "fp/campaign.worker.spawn",
                    SitePlan::new(1.0, vec![FailAction::Error]).with_max_fires(2),
                )
                .with_site(
                    "fp/campaign.worker.run",
                    SitePlan::new(1.0, vec![FailAction::Panic]).with_max_fires(2),
                ),
        );
        let chaotic = run_campaign(&c, &seq, &faults, &options);
        let combos = failpoint::fired_combos();
        failpoint::clear();
        assert_eq!(clean, chaotic, "worker deaths must not change any verdict");
        assert!(chaotic.perf.worker_respawns >= 4, "{:?}", chaotic.perf);
        assert_eq!(combos.len(), 2, "{combos:?}");
    }

    #[test]
    fn collapsed_campaign_matches_plain_run_bit_identically() {
        let (c, seq) = toggle();
        let faults = full_fault_list(&c);
        let plain = run_campaign(&c, &seq, &faults, &CampaignOptions::new());
        let collapsed = run_campaign(
            &c,
            &seq,
            &faults,
            &CampaignOptions {
                collapse: true,
                ..Default::default()
            },
        );
        assert_eq!(plain, collapsed, "collapse must not change any verdict");
        assert_eq!(
            crate::canon::verdict_digest(&plain),
            crate::canon::verdict_digest(&collapsed),
        );
        assert!(plain.collapse.is_none(), "plain runs carry no report");
        let report = collapsed.collapse.as_ref().expect("collapse report");
        assert_eq!(report.total, faults.len());
        assert!(report.classes < report.total, "{report:?}");
        assert_eq!(report.collapsed(), report.total - report.classes);
        assert_eq!(
            report.inherited + report.fallback,
            report.collapsed(),
            "every non-representative either inherits or falls back: {report:?}"
        );
        assert!(report.inherited >= 1, "{report:?}");
        assert_eq!(report.representative.len(), faults.len());
        for (i, &rep) in report.representative.iter().enumerate() {
            assert!(rep <= i, "representatives are lowest-index members");
            assert_eq!(report.representative[rep], rep, "rep is its own rep");
        }
        // The provenance sidecar never participates in result equality.
        let mut stripped = collapsed.clone();
        stripped.collapse = None;
        assert_eq!(collapsed, stripped);
    }

    #[test]
    fn collapsed_campaign_agrees_across_thread_counts() {
        let (c, seq) = toggle();
        let faults = full_fault_list(&c);
        let serial = run_campaign(
            &c,
            &seq,
            &faults,
            &CampaignOptions {
                collapse: true,
                threads: 1,
                ..Default::default()
            },
        );
        let parallel = run_campaign(
            &c,
            &seq,
            &faults,
            &CampaignOptions {
                collapse: true,
                threads: 4,
                ..Default::default()
            },
        );
        assert_eq!(serial, parallel);
        assert_eq!(serial.collapse, parallel.collapse, "the report is schedule-free");
    }

    #[test]
    fn collapsed_audited_campaign_replays_member_certificates() {
        let (c, seq) = toggle();
        let faults = full_fault_list(&c);
        let plain = run_campaign(&c, &seq, &faults, &CampaignOptions::new());
        let audited = run_campaign(
            &c,
            &seq,
            &faults,
            &CampaignOptions {
                collapse: true,
                audit: Some(CampaignAudit::default()),
                ..Default::default()
            },
        );
        assert_eq!(audited.audit_failed, 0, "inherited detections audit clean");
        assert_eq!(plain, audited, "a clean audit must not change any result");
        let report = audited.collapse.as_ref().expect("collapse report");
        assert!(
            report.audited > 0,
            "inherited conventional detections must be replayed: {report:?}"
        );
    }

    #[test]
    fn collapsed_checkpointed_run_resumes_identically() {
        let (c, seq) = toggle();
        let faults = full_fault_list(&c);
        let dir = std::env::temp_dir().join("moa-campaign-collapse-checkpoint-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("collapsed.checkpoint");
        let _ = std::fs::remove_file(&path);

        let plain = run_campaign(&c, &seq, &faults, &CampaignOptions::new());
        let options = CampaignOptions {
            collapse: true,
            checkpoint: Some(path.clone()),
            checkpoint_every: 2,
            ..Default::default()
        };
        let first = run_campaign(&c, &seq, &faults, &options);
        assert_eq!(plain, first, "checkpointed collapse stays bit-identical");

        // The finished checkpoint is complete: a resume re-simulates nothing
        // and still rebuilds the (static) collapse report.
        let resumed = run_campaign(
            &c,
            &seq,
            &faults,
            &CampaignOptions {
                resume: true,
                fault_hook: Some(Arc::new(|index, _fault: &Fault| {
                    panic!("fault {index} re-simulated after a complete checkpoint");
                })),
                isolate_panics: false,
                ..options
            },
        );
        assert_eq!(plain, resumed);
        let report = resumed.collapse.as_ref().expect("report survives resume");
        assert_eq!(report.total, faults.len());
    }

    #[test]
    fn cancelled_collapsed_campaign_resumes_to_identical_result() {
        let (c, seq) = toggle();
        let faults = full_fault_list(&c);
        let dir = std::env::temp_dir().join("moa-campaign-collapse-cancel-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("collapsed-cancel.checkpoint");
        let _ = std::fs::remove_file(&path);

        let plain = run_campaign(&c, &seq, &faults, &CampaignOptions::new());
        let polls = Arc::new(AtomicUsize::new(0));
        let probe_polls = Arc::clone(&polls);
        let err = try_run_campaign(
            &c,
            &seq,
            &faults,
            &CampaignOptions {
                collapse: true,
                checkpoint: Some(path.clone()),
                checkpoint_every: 2,
                threads: 1,
                cancel: Some(Arc::new(move || {
                    probe_polls.fetch_add(1, Ordering::SeqCst) >= 1
                })),
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, Error::Interrupted { .. }), "{err}");

        // The resume inherits from *restored* representative slots where the
        // first attempt got far enough, and re-simulates the rest.
        let resumed = run_campaign(
            &c,
            &seq,
            &faults,
            &CampaignOptions {
                collapse: true,
                checkpoint: Some(path.clone()),
                resume: true,
                ..Default::default()
            },
        );
        assert_eq!(plain, resumed, "interrupted collapse resumes bit-identically");
    }

    #[test]
    fn fault_order_variants_never_move_the_verdicts() {
        let (c, seq) = toggle();
        let faults = full_fault_list(&c);
        let reference = run_campaign(&c, &seq, &faults, &CampaignOptions::new());
        for order in [
            FaultOrder::Natural,
            FaultOrder::ScoapHardFirst,
            FaultOrder::ScoapCheapFirst,
            FaultOrder::ConeCluster,
        ] {
            for collapse in [false, true] {
                let ordered = run_campaign(
                    &c,
                    &seq,
                    &faults,
                    &CampaignOptions {
                        collapse,
                        order,
                        ..Default::default()
                    },
                );
                assert_eq!(
                    reference, ordered,
                    "{order} (collapse={collapse}) must not change results"
                );
                assert_eq!(
                    crate::canon::verdict_digest(&reference),
                    crate::canon::verdict_digest(&ordered),
                    "{order} (collapse={collapse})"
                );
            }
        }
    }

    #[test]
    fn fault_order_parses_its_own_names() {
        for order in [
            FaultOrder::Natural,
            FaultOrder::ScoapHardFirst,
            FaultOrder::ScoapCheapFirst,
            FaultOrder::ConeCluster,
        ] {
            assert_eq!(FaultOrder::parse(order.name()), Some(order));
            assert_eq!(order.to_string(), order.name());
        }
        assert_eq!(FaultOrder::parse("bogus"), None);
        assert_eq!(FaultOrder::default(), FaultOrder::Natural);
    }

    #[test]
    fn fully_untestable_fault_list_finishes_with_zero_gate_evals() {
        // Both proof kinds in one netlist: `w` is a dead cone (unobservable)
        // and `x` is statically constant 0 but observable through `z`. A
        // fault list holding only proven faults must finish without a single
        // gate evaluation — no screening, no good-trace frames, no per-fault
        // simulation — under both the plain and the collapsed campaign.
        let mut b = CircuitBuilder::new("allproven");
        b.add_input("a").unwrap();
        b.add_input("r").unwrap();
        b.add_gate(GateKind::Not, "na", &["a"]).unwrap();
        b.add_gate(GateKind::And, "x", &["a", "na"]).unwrap();
        b.add_gate(GateKind::Not, "w", &["a"]).unwrap();
        b.add_gate(GateKind::Or, "z", &["r", "x"]).unwrap();
        b.add_output("z");
        let c = b.finish().unwrap();
        let seq = TestSequence::from_words(&["00", "10", "01"]).unwrap();
        let w = c.find_net("w").unwrap();
        let x = c.find_net("x").unwrap();
        let faults = vec![
            Fault::stem(w, false),
            Fault::stem(w, true),
            Fault::stem(x, false),
        ];
        for collapse in [false, true] {
            let result = run_campaign(
                &c,
                &seq,
                &faults,
                &CampaignOptions {
                    prune_untestable: true,
                    collapse,
                    ..Default::default()
                },
            );
            assert_eq!(result.untestable, faults.len(), "collapse={collapse}");
            assert_eq!(result.detected_total(), 0, "collapse={collapse}");
            assert_eq!(
                result.perf.gate_evals, 0,
                "collapse={collapse}: {:?}",
                result.perf
            );
            let tags: Vec<String> = result
                .statuses
                .iter()
                .map(|s| match s {
                    FaultStatus::Untestable { proof } => proof.tag(),
                    other => panic!("expected Untestable, got {other:?}"),
                })
                .collect();
            assert_eq!(tags, ["unobservable", "unobservable", "constant-0"]);
        }
    }

    #[test]
    fn collapsed_pruned_campaign_never_inherits_untestable_proofs() {
        // Untestable proofs carry member-specific payload (the constant
        // value, the proof tag); pruning runs per-fault before collapse and
        // the expansion stage must leave pruned slots alone.
        let mut b = CircuitBuilder::new("deadend");
        b.add_input("a").unwrap();
        b.add_input("b").unwrap();
        b.add_gate(GateKind::And, "m", &["a", "b"]).unwrap();
        b.add_gate(GateKind::Buf, "dead", &["m"]).unwrap();
        b.add_gate(GateKind::Buf, "z", &["a"]).unwrap();
        b.add_output("z");
        let c = b.finish().unwrap();
        let seq = TestSequence::from_words(&["00", "11", "10"]).unwrap();
        let faults = full_fault_list(&c);
        let plain = run_campaign(
            &c,
            &seq,
            &faults,
            &CampaignOptions {
                prune_untestable: true,
                ..Default::default()
            },
        );
        let collapsed = run_campaign(
            &c,
            &seq,
            &faults,
            &CampaignOptions {
                prune_untestable: true,
                collapse: true,
                ..Default::default()
            },
        );
        assert_eq!(plain, collapsed);
        assert!(plain.untestable > 0, "the dead cone must be pruned");
    }
}
