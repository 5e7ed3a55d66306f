//! Per-fault resource budgets: wall-clock deadlines and work-unit ceilings.
//!
//! A [`FaultBudget`] bounds how much effort the expansion machinery may spend
//! on one fault; a [`BudgetMeter`] is its per-fault runtime counterpart,
//! charged as work happens. One *work unit* is one implication-engine run
//! (collection), one state-sequence copy created by a split (expansion), or
//! one sequence-frame advanced during resimulation — each still-undecided
//! sequence costs one unit per time frame up to and including the frame that
//! decides it, charged identically by the scalar and packed resimulation
//! paths so both exhaust a limit at the same spent count. These are the
//! three quantities that dominate per-fault cost and that
//! [`MoaOptions::max_implication_runs`](crate::MoaOptions::max_implication_runs)
//! alone does not bound.
//!
//! Work units, like [`PerfCounters::gate_evals`], are **lane-invariant**: a
//! packed frame charges per word pass, never per lane, so changing the
//! screening lane width ([`ScreenLanes`](crate::ScreenLanes)) or thread
//! count never shifts when a budget runs out. A budget therefore decides
//! the same faults the same way under every execution configuration —
//! budgets bound *work*, and execution knobs only change how fast the same
//! work happens.
//!
//! Exceeding a budget is not an error: the fault is reported as
//! [`FaultStatus::BudgetExceeded`](crate::FaultStatus::BudgetExceeded), which
//! is a *not detected* verdict — the sound fallback, identical to what
//! conventional simulation alone concluded (a fault only reaches the budgeted
//! stages after surviving conventional simulation undetected).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::PerfCounters;

/// Deadline checks call [`Instant::now`]; amortize the cost by only checking
/// once per this many charge calls.
const DEADLINE_CHECK_INTERVAL: u32 = 64;

/// Resource limits for a single fault's simulation. The default is
/// unlimited — both knobs off.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultBudget {
    /// Wall-clock deadline measured from the start of the fault's procedure.
    pub deadline: Option<Duration>,
    /// Ceiling on total work units (see the module docs for the unit).
    pub max_work: Option<u64>,
}

impl FaultBudget {
    /// No limits (the default).
    pub fn none() -> Self {
        Self::default()
    }

    /// Returns a copy with a wall-clock deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Returns a copy with a work-unit ceiling.
    #[must_use]
    pub fn with_work_limit(mut self, max_work: u64) -> Self {
        self.max_work = Some(max_work);
        self
    }

    /// `true` when neither limit is set.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_work.is_none()
    }
}

/// The stage of the per-fault procedure in which a budget ran out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BudgetStage {
    /// Section 3.1 — collecting backward implications.
    Collection,
    /// Section 3.3 / Procedure 2 — state expansion.
    Expansion,
    /// Section 3.4 — resimulating the expanded sequences.
    Resimulation,
}

impl std::fmt::Display for BudgetStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BudgetStage::Collection => "collection",
            BudgetStage::Expansion => "expansion",
            BudgetStage::Resimulation => "resimulation",
        })
    }
}

/// Campaign-wide running statistics on how much the degradation ladder's
/// fallback rung costs per fault, shared between worker threads.
///
/// The adaptive-degradation mode
/// ([`MoaOptions::degrade_adaptive`](crate::MoaOptions::degrade_adaptive))
/// uses the exponential moving average to *reorder* the ladder per fault:
/// when the observed rung cost predicts the rung would blow through the
/// per-fault work limit anyway, the rung is skipped and the fault drops
/// straight to the conventional-only partial verdict. Skipping a rung never
/// changes a detected verdict into a missed one — it only trades one sound
/// lower bound for a cheaper, looser one.
///
/// The EMA uses α = 1/8 in integer arithmetic (`ema ← ema − ema/8 +
/// sample/8`), seeded with the first sample, and is only consulted once at
/// least [`LadderStats::MIN_SAMPLES`] faults have reported.
#[derive(Debug)]
pub(crate) struct LadderStats {
    /// Exponential moving average of the rung's work-unit spend.
    ema: AtomicU64,
    /// Number of samples folded in so far.
    samples: AtomicU64,
}

impl LadderStats {
    /// Samples required before [`predicts_over`](Self::predicts_over) may
    /// return `true`.
    const MIN_SAMPLES: u64 = 4;

    pub(crate) fn new() -> Self {
        LadderStats { ema: AtomicU64::new(0), samples: AtomicU64::new(0) }
    }

    /// Folds one fault's observed rung spend into the moving average.
    pub(crate) fn record(&self, spent: u64) {
        let n = self.samples.fetch_add(1, Ordering::Relaxed);
        if n == 0 {
            self.ema.store(spent, Ordering::Relaxed);
            return;
        }
        // fetch_update never fails with an always-Some closure; the retry
        // loop just resolves races between worker threads.
        let _ = self.ema.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |ema| {
            Some(ema - ema / 8 + spent / 8)
        });
    }

    /// `true` when enough samples exist and the average rung cost is far
    /// (2×) beyond `max` — the signal that running the rung for this fault
    /// would almost certainly just burn its budget slice.
    pub(crate) fn predicts_over(&self, max: u64) -> bool {
        self.samples.load(Ordering::Relaxed) >= Self::MIN_SAMPLES
            && self.ema.load(Ordering::Relaxed) > max.saturating_mul(2)
    }
}

/// Runtime meter charging work against one fault's [`FaultBudget`].
///
/// Once exhausted it stays exhausted; callers bail out of their stage and the
/// procedure converts the state into a
/// [`FaultStatus::BudgetExceeded`](crate::FaultStatus::BudgetExceeded)
/// verdict.
#[derive(Debug)]
pub struct BudgetMeter {
    start: Instant,
    deadline: Option<Duration>,
    max_work: Option<u64>,
    spent: u64,
    charges_since_deadline_check: u32,
    exhausted: bool,
    /// Shared campaign-wide ladder-cost statistics, present only when the
    /// campaign runs with adaptive degradation. Not copied by
    /// [`fresh_like`](Self::fresh_like) — rung meters must not consult or
    /// feed the statistics they are being measured by.
    ladder: Option<Arc<LadderStats>>,
    /// Performance tallies accumulated by the stages as they run; drained by
    /// the caller after the fault completes. Not part of the budget itself —
    /// the meter is simply the one object already threaded through every
    /// stage.
    pub perf: PerfCounters,
}

impl BudgetMeter {
    /// A meter for `budget`, starting its deadline clock now.
    pub fn new(budget: &FaultBudget) -> Self {
        BudgetMeter {
            start: Instant::now(),
            deadline: budget.deadline,
            max_work: budget.max_work,
            spent: 0,
            charges_since_deadline_check: 0,
            exhausted: false,
            ladder: None,
            perf: PerfCounters::new(),
        }
    }

    /// A meter that never exhausts — the cost of the unlimited fast path is
    /// one branch per charge.
    pub fn unlimited() -> Self {
        Self::new(&FaultBudget::none())
    }

    /// Records `units` of work. Returns `false` once the budget is
    /// exhausted; callers should then stop their stage.
    #[must_use]
    pub fn charge(&mut self, units: u64) -> bool {
        self.spent += units;
        // Stickiness is checked before the unlimited fast path so that
        // `exhaust()` (the frontier-memory cap) works on unlimited budgets.
        if self.exhausted {
            return false;
        }
        if self.deadline.is_none() && self.max_work.is_none() {
            return true;
        }
        if let Some(max) = self.max_work {
            if self.spent > max {
                self.exhausted = true;
                return false;
            }
        }
        if let Some(deadline) = self.deadline {
            self.charges_since_deadline_check += 1;
            if self.charges_since_deadline_check >= DEADLINE_CHECK_INTERVAL {
                self.charges_since_deadline_check = 0;
                if self.start.elapsed() >= deadline {
                    self.exhausted = true;
                    return false;
                }
            }
        }
        true
    }

    /// `true` once any limit has been hit.
    pub fn is_exhausted(&self) -> bool {
        self.exhausted
    }

    /// Marks the meter exhausted directly — used by resource caps that are
    /// not work-unit counts, such as
    /// [`MoaOptions::max_frontier_states`](crate::MoaOptions::max_frontier_states).
    /// Works even on unlimited budgets.
    pub fn exhaust(&mut self) {
        self.exhausted = true;
    }

    /// Total work units charged so far.
    pub fn spent(&self) -> u64 {
        self.spent
    }

    /// Records `states` as the current faulty-state frontier size, updating
    /// the campaign-wide high-water mark
    /// ([`PerfCounters::max_frontier`](crate::PerfCounters)).
    pub fn note_frontier(&mut self, states: usize) {
        self.perf.max_frontier = self.perf.max_frontier.max(states as u64);
    }

    /// A fresh meter with the same limits but zero spend and a restarted
    /// deadline clock — the degradation ladder's per-rung budget slice.
    /// Perf counters start empty; fold them back with [`absorb`](Self::absorb).
    #[must_use]
    pub fn fresh_like(&self) -> Self {
        BudgetMeter {
            start: Instant::now(),
            deadline: self.deadline,
            max_work: self.max_work,
            spent: 0,
            charges_since_deadline_check: 0,
            exhausted: false,
            ladder: None,
            perf: PerfCounters::new(),
        }
    }

    /// Attaches shared adaptive-degradation statistics to this meter.
    pub(crate) fn set_ladder(&mut self, stats: Arc<LadderStats>) {
        self.ladder = Some(stats);
    }

    /// `true` when adaptive statistics predict that running the fallback
    /// rung for this fault would exceed its work limit anyway. Always `false`
    /// without attached statistics or without a work limit (deadlines are
    /// wall-clock, not work units, so the EMA cannot speak to them).
    pub(crate) fn rung_predicted_hopeless(&self) -> bool {
        match (&self.ladder, self.max_work) {
            (Some(stats), Some(max)) => stats.predicts_over(max),
            _ => false,
        }
    }

    /// Reports one fault's observed rung cost into the shared statistics,
    /// if any are attached.
    pub(crate) fn record_rung_cost(&self, spent: u64) {
        if let Some(stats) = &self.ladder {
            stats.record(spent);
        }
    }

    /// Folds a ladder rung's meter back into this one: work spend adds up,
    /// perf counters accumulate. Exhaustion of the rung does *not* re-exhaust
    /// `self` — the caller decides what the rung's outcome means.
    pub fn absorb(&mut self, rung: &BudgetMeter) {
        self.spent += rung.spent;
        self.perf += rung.perf;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_exhausts() {
        let mut m = BudgetMeter::unlimited();
        for _ in 0..10_000 {
            assert!(m.charge(1));
        }
        assert!(!m.is_exhausted());
        assert_eq!(m.spent(), 10_000);
    }

    #[test]
    fn work_limit_trips_and_sticks() {
        let mut m = BudgetMeter::new(&FaultBudget::none().with_work_limit(5));
        assert!(m.charge(3));
        assert!(m.charge(2)); // exactly at the ceiling is still within budget
        assert!(!m.charge(1));
        assert!(m.is_exhausted());
        assert!(!m.charge(0), "exhaustion is sticky");
        assert_eq!(m.spent(), 6);
    }

    #[test]
    fn zero_deadline_trips_after_check_interval() {
        let mut m = BudgetMeter::new(&FaultBudget::none().with_deadline(Duration::ZERO));
        let mut survived = 0u32;
        while m.charge(1) {
            survived += 1;
            assert!(survived <= DEADLINE_CHECK_INTERVAL, "deadline never checked");
        }
        assert!(m.is_exhausted());
    }

    #[test]
    fn budget_builders() {
        let b = FaultBudget::none()
            .with_deadline(Duration::from_millis(10))
            .with_work_limit(100);
        assert_eq!(b.deadline, Some(Duration::from_millis(10)));
        assert_eq!(b.max_work, Some(100));
        assert!(!b.is_unlimited());
        assert!(FaultBudget::default().is_unlimited());
    }

    #[test]
    fn exhaust_sticks_even_when_unlimited() {
        let mut m = BudgetMeter::unlimited();
        assert!(m.charge(1));
        m.exhaust();
        assert!(m.is_exhausted());
        assert!(!m.charge(1), "exhaust() must stick on unlimited budgets");
    }

    #[test]
    fn fresh_like_and_absorb_slice_the_budget() {
        let mut m = BudgetMeter::new(&FaultBudget::none().with_work_limit(5));
        while m.charge(1) {}
        assert!(m.is_exhausted());
        let mut rung = m.fresh_like();
        assert!(!rung.is_exhausted());
        assert_eq!(rung.spent(), 0);
        assert!(rung.charge(4));
        rung.note_frontier(17);
        let before = m.spent();
        m.absorb(&rung);
        assert_eq!(m.spent(), before + 4);
        assert_eq!(m.perf.max_frontier, 17);
        assert!(m.is_exhausted(), "absorb never clears exhaustion");
    }

    #[test]
    fn note_frontier_tracks_the_high_water_mark() {
        let mut m = BudgetMeter::unlimited();
        m.note_frontier(4);
        m.note_frontier(32);
        m.note_frontier(8);
        assert_eq!(m.perf.max_frontier, 32);
    }

    #[test]
    fn ladder_stats_need_samples_before_predicting() {
        let stats = LadderStats::new();
        for _ in 0..3 {
            stats.record(1_000_000);
        }
        assert!(!stats.predicts_over(10), "3 samples are not enough to predict");
        stats.record(1_000_000);
        assert!(stats.predicts_over(10));
        assert!(!stats.predicts_over(1_000_000), "ema is not > 2x the limit");
    }

    #[test]
    fn ladder_stats_ema_tracks_recent_costs() {
        let stats = LadderStats::new();
        stats.record(800);
        for _ in 0..100 {
            stats.record(8);
        }
        assert!(!stats.predicts_over(100), "ema must decay toward the cheap samples");
    }

    #[test]
    fn meter_consults_ladder_only_with_a_work_limit() {
        let stats = Arc::new(LadderStats::new());
        for _ in 0..8 {
            stats.record(1_000);
        }
        let mut limited = BudgetMeter::new(&FaultBudget::none().with_work_limit(10));
        assert!(!limited.rung_predicted_hopeless(), "no ladder attached yet");
        limited.set_ladder(Arc::clone(&stats));
        assert!(limited.rung_predicted_hopeless());
        let mut unlimited = BudgetMeter::unlimited();
        unlimited.set_ladder(Arc::clone(&stats));
        assert!(!unlimited.rung_predicted_hopeless(), "no work limit, nothing to predict");
        assert!(limited.fresh_like().ladder.is_none(), "rung meters must not carry the stats");
    }

    #[test]
    fn stage_display_names() {
        assert_eq!(BudgetStage::Collection.to_string(), "collection");
        assert_eq!(BudgetStage::Expansion.to_string(), "expansion");
        assert_eq!(BudgetStage::Resimulation.to_string(), "resimulation");
    }
}
