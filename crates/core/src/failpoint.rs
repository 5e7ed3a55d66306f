//! Deterministic failure injection for chaos-testing the campaign engine.
//!
//! Only compiled with the `failpoints` cargo feature. Every fragile or hot
//! path in the crate carries a *named site* (the crate-internal `fail_hit!`
//! macro or an explicit [`io_error`] call); without the feature the macro
//! expands to nothing and the release binary contains no trace of this
//! module — CI's `chaos-smoke` job asserts the site names are absent from
//! the stripped binary.
//!
//! A [`ChaosSchedule`] arms sites with per-site [`SitePlan`]s. Whether the
//! `n`-th hit of a site fires — and which [`FailAction`] it takes — is a
//! pure function of `(seed, site, n)`, so a chaos run is reproducible from
//! its seed alone no matter how worker threads interleave: each site's hit
//! counter is global and the *set* of fired `(site, hit)` pairs is
//! identical across runs (which fault observes a given fire may differ
//! under multithreading, which is exactly the nondeterminism the soak
//! tests tolerate).
//!
//! # Sites
//!
//! | site | threaded through | supported actions |
//! |---|---|---|
//! | `fp/expand.split` | Procedure 2 frontier growth | panic, delay, inflate |
//! | `fp/imply.pass` | every implication-engine pass | panic, delay |
//! | `fp/resim.frame` | resimulation frame stepping | panic, delay, inflate |
//! | `fp/checkpoint.write` | campaign checkpoint serialization + fsync | error, panic, delay |
//! | `fp/checkpoint.rename` | the atomic rename publishing a checkpoint | error, panic, delay |
//! | `fp/checkpoint.resume` | checkpoint parsing on resume | error, panic, delay |
//! | `fp/campaign.worker.spawn` | campaign worker thread creation | error (spawn refusal) |
//! | `fp/campaign.worker.run` | worker loop, *outside* per-fault isolation | panic, delay |
//! | `fp/bench.parse` | `.bench` ingestion (`moa_netlist::parse_bench`) | error, panic, delay |
//! | `fp/analyze.pass` | each `moa_analyze` pass in `run_passes` | panic, delay |
//! | `fp/shard.write` | shard-file serialization + fsync | error, panic, delay |
//! | `fp/shard.read` | strict shard reading during merge | error, panic, delay |
//! | `fp/shard.run` | shard-worker entry, under the supervisor | panic, delay |
//! | `fp/serve.send` | daemon/worker protocol line writes (CLI) | error, panic, delay |
//! | `fp/serve.recv` | daemon/worker protocol line reads (CLI) | error, panic, delay |
//! | `fp/dispatch.lease` | dispatch-table lease grants | error, panic, delay |
//!
//! # Scope
//!
//! [`install`] arms a schedule for the whole process: every thread that
//! reaches a site draws from it (the daemon soaks and `--chaos-seed` rely
//! on that). [`install_scoped`] arms it only for the installing thread and
//! the threads that enter its [`Scope`] — the campaign's worker threads and
//! the shard supervisor's watched workers do so when they are spawned — so
//! a unit test's schedule never fires in, or loses fires to, the campaigns
//! other tests run concurrently in the same process.
//!
//! The `fp/bench.parse` and `fp/analyze.pass` sites live in crates that
//! cannot depend on this one; [`install`]/[`clear`] wire them up through
//! function-pointer hooks those crates expose behind their own
//! `failpoints` features (enabled transitively by this crate's).
//!
//! # Example
//!
//! ```
//! use moa_core::failpoint;
//!
//! failpoint::install(failpoint::ChaosSchedule::seeded(42));
//! assert!(failpoint::is_armed());
//! failpoint::clear();
//! assert!(!failpoint::is_armed());
//! ```

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::budget::BudgetMeter;

/// Every named injection site in the crate, in stable order.
pub const SITES: &[&str] = &[
    "fp/expand.split",
    "fp/imply.pass",
    "fp/resim.frame",
    "fp/checkpoint.write",
    "fp/checkpoint.rename",
    "fp/checkpoint.resume",
    "fp/campaign.worker.spawn",
    "fp/campaign.worker.run",
    "fp/bench.parse",
    "fp/analyze.pass",
    "fp/shard.write",
    "fp/shard.read",
    "fp/shard.run",
    "fp/spool.admit",
    "fp/spool.store",
    "fp/spool.scan",
    "fp/serve.submit",
    "fp/serve.worker",
    "fp/serve.recover",
    "fp/serve.send",
    "fp/serve.recv",
    "fp/dispatch.lease",
];

/// What a firing failpoint does to its call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAction {
    /// Panic with a message naming the site (exercises panic isolation and
    /// worker respawn).
    Panic,
    /// Sleep for the given duration (exercises deadline budgets and stalls).
    Delay(Duration),
    /// Return an injected `std::io::Error` — only honoured by I/O sites
    /// ([`io_error`]); ignored elsewhere.
    Error,
    /// Charge this many extra work units against the site's
    /// [`BudgetMeter`](crate::BudgetMeter) (exercises budget exhaustion and
    /// the degradation ladder). Ignored at sites without a meter.
    InflateWork(u64),
}

impl FailAction {
    /// Short stable label, used to key fired `(site, action)` combinations.
    pub fn kind(self) -> &'static str {
        match self {
            FailAction::Panic => "panic",
            FailAction::Delay(_) => "delay",
            FailAction::Error => "error",
            FailAction::InflateWork(_) => "inflate",
        }
    }
}

/// Per-site firing plan.
#[derive(Debug, Clone, PartialEq)]
pub struct SitePlan {
    /// Probability in `[0, 1]` that any single hit fires.
    pub probability: f64,
    /// Actions drawn from (uniformly, by the deterministic stream) when a
    /// hit fires. An empty list never fires.
    pub actions: Vec<FailAction>,
    /// Cap on total fires at this site; `0` means unlimited.
    pub max_fires: u64,
}

impl SitePlan {
    /// A plan firing every `actions` entry with `probability`, unlimited.
    pub fn new(probability: f64, actions: Vec<FailAction>) -> Self {
        SitePlan {
            probability,
            actions,
            max_fires: 0,
        }
    }

    /// Returns a copy capped at `max_fires` total fires.
    #[must_use]
    pub fn with_max_fires(mut self, max_fires: u64) -> Self {
        self.max_fires = max_fires;
        self
    }
}

/// A deterministic, seeded schedule of failpoint firings.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosSchedule {
    seed: u64,
    sites: HashMap<String, SitePlan>,
}

impl ChaosSchedule {
    /// An empty schedule (no site armed) with the given seed — the starting
    /// point for targeted tests that arm one site at a time.
    pub fn empty(seed: u64) -> Self {
        ChaosSchedule {
            seed,
            sites: HashMap::new(),
        }
    }

    /// The default chaos mix: every known site armed with a plan matched to
    /// how often it is hit. Hot per-frame sites fire rarely (mostly work
    /// inflation and delays, occasionally a panic); checkpoint I/O sites
    /// fire often with injected errors; worker sites exercise spawn
    /// refusal and worker death.
    pub fn seeded(seed: u64) -> Self {
        let ms = Duration::from_millis;
        Self::empty(seed)
            .with_site(
                "fp/expand.split",
                SitePlan::new(
                    0.02,
                    vec![
                        FailAction::InflateWork(1 << 14),
                        FailAction::InflateWork(1 << 16),
                        FailAction::Delay(ms(1)),
                        FailAction::Panic,
                    ],
                ),
            )
            .with_site(
                "fp/imply.pass",
                SitePlan::new(0.002, vec![FailAction::Delay(ms(1)), FailAction::Panic])
                    .with_max_fires(64),
            )
            .with_site(
                "fp/resim.frame",
                SitePlan::new(
                    0.005,
                    vec![
                        FailAction::InflateWork(1 << 14),
                        FailAction::Delay(ms(1)),
                        FailAction::Panic,
                    ],
                )
                .with_max_fires(64),
            )
            .with_site(
                "fp/checkpoint.write",
                SitePlan::new(0.25, vec![FailAction::Error, FailAction::Delay(ms(2))]),
            )
            .with_site(
                "fp/checkpoint.rename",
                SitePlan::new(0.25, vec![FailAction::Error, FailAction::Delay(ms(2))]),
            )
            .with_site(
                "fp/checkpoint.resume",
                SitePlan::new(0.2, vec![FailAction::Error]),
            )
            .with_site(
                "fp/campaign.worker.spawn",
                SitePlan::new(0.15, vec![FailAction::Error]),
            )
            .with_site(
                "fp/campaign.worker.run",
                SitePlan::new(0.03, vec![FailAction::Panic, FailAction::Delay(ms(1))]),
            )
            .with_site(
                "fp/bench.parse",
                SitePlan::new(0.2, vec![FailAction::Error]).with_max_fires(2),
            )
            // Delay only: a panic here would kill `moa analyze` outright
            // (the passes run outside any isolation); the panic path is
            // exercised by a targeted unit test instead.
            .with_site(
                "fp/analyze.pass",
                SitePlan::new(0.05, vec![FailAction::Delay(ms(1))]).with_max_fires(8),
            )
            .with_site(
                "fp/shard.write",
                SitePlan::new(0.2, vec![FailAction::Error, FailAction::Delay(ms(2))])
                    .with_max_fires(6),
            )
            .with_site(
                "fp/shard.read",
                SitePlan::new(0.2, vec![FailAction::Error]).with_max_fires(4),
            )
            .with_site(
                "fp/shard.run",
                SitePlan::new(0.1, vec![FailAction::Panic, FailAction::Delay(ms(1))])
                    .with_max_fires(3),
            )
            // Spool I/O sites honour `Error` (admit/store/scan all return
            // structured errors); the daemon surfaces them as rejected
            // submissions or poisoned jobs, never a crash.
            .with_site(
                "fp/spool.admit",
                SitePlan::new(0.2, vec![FailAction::Error]).with_max_fires(4),
            )
            .with_site(
                "fp/spool.store",
                SitePlan::new(0.2, vec![FailAction::Error, FailAction::Delay(ms(2))])
                    .with_max_fires(4),
            )
            .with_site(
                "fp/spool.scan",
                SitePlan::new(0.2, vec![FailAction::Error]).with_max_fires(2),
            )
            // Daemon sites: a panicking submit handler must only drop that
            // connection; a panicking worker run must count against the
            // job's poison limit, not kill the daemon.
            .with_site(
                "fp/serve.submit",
                SitePlan::new(0.1, vec![FailAction::Panic, FailAction::Delay(ms(1))])
                    .with_max_fires(4),
            )
            .with_site(
                "fp/serve.worker",
                SitePlan::new(0.15, vec![FailAction::Panic, FailAction::Delay(ms(1))])
                    .with_max_fires(4),
            )
            .with_site(
                "fp/serve.recover",
                SitePlan::new(0.2, vec![FailAction::Delay(ms(1))]).with_max_fires(2),
            )
            // Network-path sites: an injected send/recv error drops one
            // protocol exchange (the peer reconnects or retries); a lease
            // refusal is a transient dispatch error the worker backs off
            // from. None of them may corrupt results — at-least-once
            // delivery plus the strict merge absorbs every one.
            .with_site(
                "fp/serve.send",
                SitePlan::new(0.1, vec![FailAction::Error, FailAction::Delay(ms(1))])
                    .with_max_fires(4),
            )
            .with_site(
                "fp/serve.recv",
                SitePlan::new(0.1, vec![FailAction::Error, FailAction::Delay(ms(1))])
                    .with_max_fires(4),
            )
            .with_site(
                "fp/dispatch.lease",
                SitePlan::new(0.2, vec![FailAction::Error, FailAction::Delay(ms(1))])
                    .with_max_fires(4),
            )
    }

    /// Returns a copy with `site` armed under `plan` (replacing any prior
    /// plan for the site).
    #[must_use]
    pub fn with_site(mut self, site: &str, plan: SitePlan) -> Self {
        self.sites.insert(site.to_owned(), plan);
        self
    }
}

struct Armed {
    schedule: ChaosSchedule,
    /// The [`Scope`] the schedule is confined to; `None` arms every thread.
    scope: Option<u64>,
    /// Per-site hit counters (how many times each site was reached).
    hits: HashMap<String, u64>,
    /// Fired `(site, action-kind)` combinations with their counts.
    fired: BTreeMap<(String, &'static str), u64>,
}

static ARMED: Mutex<Option<Armed>> = Mutex::new(None);

/// Source of fresh scope tokens (0 is "no scope").
static NEXT_SCOPE: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The scope token this thread belongs to (0: none).
    static THREAD_SCOPE: Cell<u64> = const { Cell::new(0) };
}

/// The failpoint scope of a thread: a thread that spawns workers captures
/// its [`Scope::current`] and each worker [`Scope::enter`]s it, so a
/// schedule armed by [`install_scoped`] follows the work onto the workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scope(u64);

impl Scope {
    /// The calling thread's scope.
    pub fn current() -> Scope {
        Scope(THREAD_SCOPE.with(Cell::get))
    }

    /// Moves the calling thread into this scope.
    pub fn enter(self) {
        THREAD_SCOPE.with(|scope| scope.set(self.0));
    }
}

fn lock() -> std::sync::MutexGuard<'static, Option<Armed>> {
    // A panic raised *by* a failpoint never holds this lock (actions are
    // applied after the draw releases it), so a poisoned mutex only means
    // some unrelated thread died mid-install; the data is still sound.
    ARMED.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Installs `schedule` globally, resetting all hit and fire counters, and
/// wires up the cross-crate hook sites (`fp/bench.parse`,
/// `fp/analyze.pass`).
pub fn install(schedule: ChaosSchedule) {
    arm(schedule, None);
}

/// Like [`install`], but arms `schedule` only for the calling thread and
/// the threads that enter its [`Scope`]; every other thread passes the
/// sites untouched, and its hits are not counted.
pub fn install_scoped(schedule: ChaosSchedule) {
    let token = NEXT_SCOPE.fetch_add(1, Ordering::Relaxed);
    Scope(token).enter();
    arm(schedule, Some(token));
}

fn arm(schedule: ChaosSchedule, scope: Option<u64>) {
    *lock() = Some(Armed {
        schedule,
        scope,
        hits: HashMap::new(),
        fired: BTreeMap::new(),
    });
    moa_netlist::failpoint::set_parse_hook(Some(bench_parse_hook));
    moa_analyze::failpoint::set_pass_hook(Some(analyze_pass_hook));
}

/// Disarms every site (including the cross-crate hooks). Idempotent.
pub fn clear() {
    *lock() = None;
    moa_netlist::failpoint::set_parse_hook(None);
    moa_analyze::failpoint::set_pass_hook(None);
}

/// Bridge for the `fp/bench.parse` site: drawn through this crate's
/// registry, surfaced to `moa_netlist` as an injected parse-error message.
fn bench_parse_hook() -> Option<String> {
    io_error("fp/bench.parse").map(|e| e.to_string())
}

/// Bridge for the `fp/analyze.pass` site.
fn analyze_pass_hook() {
    apply("fp/analyze.pass", None);
}

/// `true` while a schedule is installed.
pub fn is_armed() -> bool {
    lock().is_some()
}

/// The `(site, action-kind)` combinations that have fired since
/// [`install`], with their fire counts — the soak tests assert coverage
/// breadth on this.
pub fn fired_combos() -> Vec<((String, &'static str), u64)> {
    lock()
        .as_ref()
        .map(|armed| {
            armed
                .fired
                .iter()
                .map(|(k, &v)| (k.clone(), v))
                .collect()
        })
        .unwrap_or_default()
}

/// SplitMix64 finalizer — the usual well-mixed 64-bit avalanche.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over the site name, so each site gets an independent stream.
fn site_hash(site: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in site.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The pure decision: does hit `hit` of `site` fire, and with which action?
fn decide(seed: u64, site: &str, hit: u64, plan: &SitePlan) -> Option<FailAction> {
    if plan.actions.is_empty() {
        return None;
    }
    let word = mix(seed ^ site_hash(site) ^ hit.wrapping_mul(0xD1B5_4A32_D192_ED03));
    // 53 significand bits → uniform in [0, 1).
    let roll = (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    if roll >= plan.probability {
        return None;
    }
    let index = (mix(word) % plan.actions.len() as u64) as usize;
    Some(plan.actions[index])
}

/// Records one hit of `site` and returns the action to take, if any. The
/// lock is released before the caller applies the action, so an injected
/// panic never poisons the registry.
fn draw(site: &str) -> Option<FailAction> {
    let mut guard = lock();
    let armed = guard.as_mut()?;
    if armed.scope.is_some_and(|owner| owner != Scope::current().0) {
        return None;
    }
    let plan = armed.schedule.sites.get(site)?;
    let hit = armed.hits.entry(site.to_owned()).or_insert(0);
    let this_hit = *hit;
    *hit += 1;
    if plan.max_fires > 0 {
        let fired_so_far: u64 = armed
            .fired
            .iter()
            .filter(|((s, _), _)| s == site)
            .map(|(_, &n)| n)
            .sum();
        if fired_so_far >= plan.max_fires {
            return None;
        }
    }
    let action = decide(armed.schedule.seed, site, this_hit, plan)?;
    *armed
        .fired
        .entry((site.to_owned(), action.kind()))
        .or_insert(0) += 1;
    Some(action)
}

/// The `fail_hit!` backend: applies a fired non-I/O action inline.
/// `Error` actions are meaningless outside I/O paths and are ignored here.
pub fn apply(site: &str, meter: Option<&mut BudgetMeter>) {
    let Some(action) = draw(site) else { return };
    match action {
        FailAction::Panic => panic!("failpoint `{site}`: injected panic"),
        FailAction::Delay(d) => std::thread::sleep(d),
        FailAction::InflateWork(units) => {
            if let Some(m) = meter {
                let _ = m.charge(units);
            }
        }
        FailAction::Error => {}
    }
}

/// The I/O-site backend: returns an injected error when an `Error` action
/// fires; applies `Panic`/`Delay` inline like [`apply`].
pub fn io_error(site: &str) -> Option<std::io::Error> {
    match draw(site)? {
        FailAction::Error => Some(std::io::Error::other(format!(
            "failpoint `{site}`: injected I/O error"
        ))),
        FailAction::Panic => panic!("failpoint `{site}`: injected panic"),
        FailAction::Delay(d) => {
            std::thread::sleep(d);
            None
        }
        FailAction::InflateWork(_) => None,
    }
}

/// `true` when an `Error` action fires at `site` — for sites (worker spawn)
/// whose "error" is a refusal rather than an `io::Error`.
pub fn fires_error(site: &str) -> bool {
    matches!(draw(site), Some(FailAction::Error))
}

/// Serializes tests that install schedules: the registry is process-global,
/// so concurrent installs would trample each other. Shared by this module's
/// unit tests and the chaos tests elsewhere in the crate.
#[doc(hidden)]
pub fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn guard() -> std::sync::MutexGuard<'static, ()> {
        test_lock()
    }

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let plan = SitePlan::new(0.5, vec![FailAction::Panic, FailAction::Error]);
        let a: Vec<_> = (0..256).map(|h| decide(7, "fp/x", h, &plan)).collect();
        let b: Vec<_> = (0..256).map(|h| decide(7, "fp/x", h, &plan)).collect();
        assert_eq!(a, b);
        let c: Vec<_> = (0..256).map(|h| decide(8, "fp/x", h, &plan)).collect();
        assert_ne!(a, c, "a different seed must reshuffle the schedule");
        let fires = a.iter().filter(|d| d.is_some()).count();
        assert!(fires > 64 && fires < 192, "p=0.5 fires about half: {fires}");
    }

    #[test]
    fn sites_are_independent_streams() {
        let plan = SitePlan::new(0.5, vec![FailAction::Panic]);
        let a: Vec<_> = (0..128).map(|h| decide(7, "fp/a", h, &plan).is_some()).collect();
        let b: Vec<_> = (0..128).map(|h| decide(7, "fp/b", h, &plan).is_some()).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn install_draw_clear_roundtrip() {
        let _g = guard();
        install_scoped(ChaosSchedule::empty(1).with_site(
            "fp/test.always",
            SitePlan::new(1.0, vec![FailAction::Error]),
        ));
        assert!(is_armed());
        assert!(fires_error("fp/test.always"));
        assert!(!fires_error("fp/test.unarmed"), "unarmed sites never fire");
        assert_eq!(fired_combos().len(), 1);
        assert_eq!(fired_combos()[0].0 .1, "error");
        clear();
        assert!(!is_armed());
        assert!(!fires_error("fp/test.always"));
        assert!(fired_combos().is_empty());
    }

    #[test]
    fn scoped_schedule_fires_only_inside_its_scope() {
        let _g = guard();
        install_scoped(ChaosSchedule::empty(2).with_site(
            "fp/test.scoped",
            SitePlan::new(1.0, vec![FailAction::Error]),
        ));
        let scope = Scope::current();
        std::thread::scope(|s| {
            let outsider = s.spawn(|| fires_error("fp/test.scoped"));
            assert!(!outsider.join().expect("outsider"), "other threads pass untouched");
            let member = s.spawn(move || {
                scope.enter();
                fires_error("fp/test.scoped")
            });
            assert!(member.join().expect("member"), "a thread that entered the scope draws");
        });
        assert!(fires_error("fp/test.scoped"), "the installing thread draws");
        assert_eq!(fired_combos(), vec![(("fp/test.scoped".to_owned(), "error"), 2)]);
        clear();
    }

    #[test]
    fn max_fires_caps_a_site() {
        let _g = guard();
        install_scoped(ChaosSchedule::empty(3).with_site(
            "fp/test.capped",
            SitePlan::new(1.0, vec![FailAction::Error]).with_max_fires(2),
        ));
        let fires = (0..10).filter(|_| fires_error("fp/test.capped")).count();
        assert_eq!(fires, 2);
        clear();
    }

    #[test]
    fn inflate_charges_the_meter() {
        let _g = guard();
        install_scoped(ChaosSchedule::empty(4).with_site(
            "fp/test.inflate",
            SitePlan::new(1.0, vec![FailAction::InflateWork(100)]),
        ));
        let mut meter = BudgetMeter::unlimited();
        apply("fp/test.inflate", Some(&mut meter));
        assert_eq!(meter.spent(), 100);
        apply("fp/test.inflate", None); // no meter: a no-op, not a panic
        clear();
    }

    #[test]
    fn seeded_schedule_arms_every_known_site() {
        let schedule = ChaosSchedule::seeded(0);
        for site in SITES {
            assert!(schedule.sites.contains_key(*site), "{site} unarmed");
        }
        assert_eq!(schedule.sites.len(), SITES.len(), "no unknown sites");
    }

    #[test]
    fn bench_parse_site_injects_a_located_parse_error() {
        let _g = guard();
        // Parse once before arming to prove the baseline succeeds.
        let src = "INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n";
        assert!(moa_netlist::parse_bench(src).is_ok());
        install_scoped(ChaosSchedule::empty(5).with_site(
            "fp/bench.parse",
            SitePlan::new(1.0, vec![FailAction::Error]).with_max_fires(1),
        ));
        let err = moa_netlist::parse_bench(src).expect_err("armed parse must fail");
        assert!(
            err.to_string().contains("injected I/O error"),
            "the injected message must surface: {err}"
        );
        // The fire cap is spent: parsing works again even while armed.
        assert!(moa_netlist::parse_bench(src).is_ok());
        clear();
        assert!(moa_netlist::parse_bench(src).is_ok());
    }

    #[test]
    fn analyze_pass_site_fires_through_the_hook() {
        let _g = guard();
        let circuit =
            moa_netlist::parse_bench("INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n").expect("valid bench");
        install_scoped(ChaosSchedule::empty(6).with_site(
            "fp/analyze.pass",
            SitePlan::new(1.0, vec![FailAction::Delay(Duration::from_millis(1))]),
        ));
        let _report = moa_analyze::analyze_circuit(&circuit);
        let combos = fired_combos();
        assert!(
            combos
                .iter()
                .any(|((site, kind), n)| site == "fp/analyze.pass" && *kind == "delay" && *n > 0),
            "every pass consults the hook: {combos:?}"
        );
        // The panic path: a pass hook panic propagates out of run_passes
        // (there is no isolation inside `moa analyze`).
        install_scoped(ChaosSchedule::empty(6).with_site(
            "fp/analyze.pass",
            SitePlan::new(1.0, vec![FailAction::Panic]).with_max_fires(1),
        ));
        let result = std::panic::catch_unwind(|| moa_analyze::analyze_circuit(&circuit));
        assert!(result.is_err(), "the injected panic must propagate");
        clear();
        let _report = moa_analyze::analyze_circuit(&circuit);
    }
}
