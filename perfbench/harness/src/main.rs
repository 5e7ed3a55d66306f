//! Benchmark harness: drives the moa crates through their public APIs and
//! times each layer from outside.
//!
//! Subcommands (each prints one JSON object on stdout):
//!
//! ```text
//! perfbench-harness specs  --seed S --count N --out FILE
//! perfbench-harness verify --specs FILE --count N --threads T --trace 0|1
//!                          --scratch DIR [--spans FILE]
//! ```
//!
//! `specs` writes the job specs of the workloads (one JSON object per
//! line). `verify` runs each of the first N specs as a direct full-list
//! campaign and reports its verdict digest, the reference a daemon job's
//! digest must equal.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use moa_core::{
    audit_certificate, merge_shards, read_shard, run_shard, shard_path, simulate_fault_certified,
    try_run_campaign, verdict_digest, write_checkpoint_v2, AuditOptions, AuditStatus, BudgetMeter,
    CampaignAudit, CampaignOptions, CampaignResult, CheckpointHeader, FaultResult, FaultStatus,
    CanonHash, JobSpec, MoaOptions, ScreenLanes,
};
use moa_netlist::{collapse_faults, full_fault_list, parse_bench, write_bench, Circuit, Fault};
use moa_sim::{screen_faults_wide, simulate, TestSequence};

/// Sequence length of a job.
const JOB_SEQ_LEN: usize = 128;
/// Circuit of a job.
const JOB_CIRCUIT: &str = "s298";
/// `N_states` of a deep job.
const DEEP_N_STATES: usize = 1024;
/// Audit sample rate of an audited job: every 32nd detected fault.
const AUDIT_SAMPLE_RATE: usize = 32;

type Res<T> = Result<T, String>;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("specs") => specs(&Args::parse(&args[1..])),
        Some("verify") => verify(&Args::parse(&args[1..])),
        _ => Err("usage: perfbench-harness specs|verify [--flag value]...".into()),
    };
    match outcome {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("perfbench-harness: {e}");
            std::process::exit(1);
        }
    }
}

// ---------------------------------------------------------------------------
// Arguments, JSON output, timing
// ---------------------------------------------------------------------------

struct Args(BTreeMap<String, String>);

impl Args {
    fn parse(raw: &[String]) -> Args {
        let mut map = BTreeMap::new();
        for pair in raw.chunks(2) {
            if let [flag, value] = pair {
                map.insert(flag.trim_start_matches("--").to_owned(), value.clone());
            }
        }
        Args(map)
    }

    fn str(&self, key: &str) -> Res<&str> {
        self.0
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{key}"))
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Res<T> {
        self.str(key)?
            .parse()
            .map_err(|_| format!("--{key} expects a number"))
    }
}

/// A JSON object built field by field; values are rendered on insertion.
#[derive(Default)]
struct Obj(Vec<(String, String)>);

impl Obj {
    fn num(&mut self, key: &str, value: f64) -> &mut Self {
        let text = if value.is_finite() {
            format!("{value}")
        } else {
            "0".into()
        };
        self.0.push((key.to_owned(), text));
        self
    }
    fn int(&mut self, key: &str, value: u64) -> &mut Self {
        self.0.push((key.to_owned(), value.to_string()));
        self
    }
    fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.0.push((key.to_owned(), quote(value)));
        self
    }
    fn raw(&mut self, key: &str, json: String) -> &mut Self {
        self.0.push((key.to_owned(), json));
        self
    }
    fn render(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("{}:{v}", quote(k)))
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A subcommand's output: `metrics` holds measured values, `check` the
/// digests and counts the correctness gate compares.
#[derive(Default)]
struct Report {
    metrics: Obj,
    check: Obj,
}

impl Report {
    fn render(&self) -> String {
        format!(
            "{{\"metrics\":{},\"check\":{}}}",
            self.metrics.render(),
            self.check.render()
        )
    }
}

fn json_list<T: ToString>(items: &[T]) -> String {
    let body: Vec<String> = items.iter().map(ToString::to_string).collect();
    format!("[{}]", body.join(","))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn nanos_ms(n: u64) -> f64 {
    n as f64 / 1e6
}

fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples.
fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `num / den`, or 0 when there is nothing to divide by.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

/// The in-memory span log of a traced run, written out when the run ends.
/// `group` ties together the spans of one fault or job.
struct Spans {
    origin: Instant,
    rows: Vec<String>,
}

impl Spans {
    fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            rows: Vec::new(),
        }
    }

    /// Records a span and returns its id.
    fn add(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        group: &str,
    ) -> usize {
        let origin = self.origin;
        let id = self.rows.len() + 1;
        let us = |t: Instant| t.saturating_duration_since(origin).as_micros();
        let mut o = Obj::default();
        o.int("id", id as u64)
            .str("name", name)
            .int("start_us", us(start) as u64)
            .int("end_us", us(end) as u64)
            .raw("parent", parent.map_or("null".into(), |p| p.to_string()))
            .str("group", group);
        self.rows.push(o.render());
        id
    }

    fn write(&self, path: Option<&str>) -> Res<()> {
        let Some(path) = path else { return Ok(()) };
        let text = format!("[\n{}\n]\n", self.rows.join(",\n"));
        std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
    }
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// Builds an embedded suite circuit exactly as `moa campaign suite:NAME`
/// does: built, then normalized through the `.bench` round trip.
fn load_suite(name: &str) -> Res<Circuit> {
    let entry =
        moa_circuits::suite::entry(name).ok_or_else(|| format!("no suite circuit {name}"))?;
    parse_bench(&write_bench(&entry.build())).map_err(|e| format!("{name}: {e}"))
}

/// The per-fault options `moa campaign` uses by default, with `--n-states`.
fn moa_options(n_states: usize) -> MoaOptions {
    MoaOptions::default()
        .with_n_states(n_states)
        .with_backward_time_units(1)
        .with_implication_rounds(1)
        .with_max_implication_runs(4096)
}

/// Deterministic per-campaign tallies checked by the correctness gate.
#[derive(Default, Clone, Copy)]
struct Tally {
    faults: usize,
    faulted: usize,
    audit_failed: usize,
}

impl Tally {
    fn add(&mut self, r: &CampaignResult) {
        self.faults += r.total_faults;
        self.faulted += r.faulted;
        self.audit_failed += r.audit_failed;
    }
}

/// Layer tallies of a traced run, summed over jobs.
#[derive(Default)]
struct Layers {
    good_ms: f64,
    screen_ms: f64,
    screen_faults: u64,
    screen_detected: u64,
    screen_nanos: u64,
    collect_nanos: u64,
    imply_nanos: u64,
    expand_nanos: u64,
    resim_nanos: u64,
    gate_evals: u64,
    max_frontier: u64,
    condc_skipped: u64,
    collect_faults: u64,
    expand_sequences: u64,
    resim_faults: u64,
    expand_detected: u64,
    fault_us: Vec<f64>,
    audit_ms: f64,
    audit_certs: u64,
    audit_confirmed: u64,
    checkpoint_ms: f64,
    checkpoint_flushes: u64,
    checkpoint_bytes: u64,
    canon_ms: Vec<f64>,
    shard_ms: f64,
    merge_ms: f64,
    traced_wall_ms: f64,
    untraced_wall_ms: f64,
    /// Audit time spent inside the traced campaigns (timed by standalone
    /// replays), as opposed to standalone probes.
    in_campaign_ms: f64,
}

impl Layers {
    /// Folds in a traced campaign's counters and per-fault statuses.
    fn add_campaign(&mut self, r: &CampaignResult) {
        let p = &r.perf;
        self.screen_nanos += p.screen_nanos;
        self.collect_nanos += p.collect_nanos;
        self.imply_nanos += p.imply_nanos;
        self.expand_nanos += p.expand_nanos;
        self.resim_nanos += p.resim_nanos;
        self.gate_evals += p.gate_evals;
        self.max_frontier = self.max_frontier.max(p.max_frontier);
        for status in &r.statuses {
            match status {
                FaultStatus::SkippedConditionC => self.condc_skipped += 1,
                FaultStatus::DetectedConventional(_) | FaultStatus::Untestable { .. } => {}
                _ => self.collect_faults += 1,
            }
            let sequences = match status {
                FaultStatus::DetectedByExpansion { sequences }
                | FaultStatus::NotDetected { sequences, .. } => *sequences,
                _ => 0,
            };
            if sequences > 0 {
                self.expand_sequences += sequences as u64;
                self.resim_faults += 1;
            }
            if matches!(status, FaultStatus::DetectedByExpansion { .. }) {
                self.expand_detected += 1;
            }
        }
    }

    /// Times the good machine and the packed screen kernel standalone on
    /// the campaign's own inputs.
    fn add_kernels(&mut self, circuit: &Circuit, seq: &TestSequence, faults: &[Fault]) {
        let mut good_ms = Vec::new();
        let mut screen_ms = Vec::new();
        for _ in 0..3 {
            let (good, t) = timed(|| simulate(circuit, seq, None));
            good_ms.push(ms(t));
            let (screen, t) =
                timed(|| screen_faults_wide(circuit, seq, &good, faults, ScreenLanes::L64, 1));
            screen_ms.push(ms(t));
            if screen_ms.len() == 1 {
                self.screen_faults += faults.len() as u64;
                self.screen_detected +=
                    screen.detections.iter().filter(|d| d.is_some()).count() as u64;
            }
        }
        self.good_ms += median(&good_ms);
        self.screen_ms += median(&screen_ms);
    }

    fn replay_ms(&self) -> f64 {
        (nanos_ms(self.screen_nanos) - self.screen_ms).max(0.0)
    }

    fn replay_faults(&self) -> u64 {
        self.screen_faults - self.screen_detected
    }

    /// Wall time of the traced campaigns covered by some layer's self time.
    fn attributed_ms(&self) -> f64 {
        nanos_ms(self.screen_nanos + self.collect_nanos + self.expand_nanos + self.resim_nanos)
            + self.in_campaign_ms
    }

    fn emit(&self, out: &mut Obj) {
        let replay_ms = self.replay_ms();
        let wall = self.traced_wall_ms;
        out.num("sim.good_ms", self.good_ms)
            .num("sim.screen_ms", self.screen_ms)
            .int("sim.screen_faults", self.screen_faults)
            .int("sim.screen_detected", self.screen_detected)
            .num("core.replay_ms", replay_ms)
            .int("core.replay_faults", self.replay_faults())
            .int("core.collect_faults", self.collect_faults)
            .num(
                "core.replay_useful_ratio",
                ratio(self.collect_faults as f64, self.replay_faults() as f64),
            )
            .num("core.replay_share", ratio(replay_ms, wall))
            .int("core.condc_skipped", self.condc_skipped)
            .num(
                "core.collect_ms",
                nanos_ms(self.collect_nanos - self.imply_nanos),
            )
            .num("core.imply_ms", nanos_ms(self.imply_nanos))
            .num("core.expand_ms", nanos_ms(self.expand_nanos))
            .int("core.expand_sequences", self.expand_sequences)
            .int("core.max_frontier", self.max_frontier)
            .num("core.resim_ms", nanos_ms(self.resim_nanos))
            .int("core.resim_faults", self.resim_faults)
            .int("core.expand_detected", self.expand_detected)
            .num(
                "core.resim_useful_ratio",
                ratio(self.expand_detected as f64, self.resim_faults as f64),
            )
            .num("core.fault_p50_us", percentile(&self.fault_us, 50.0))
            .num("core.fault_tail_us", percentile(&self.fault_us, 99.0))
            .num("core.fault_max_ms", percentile(&self.fault_us, 100.0) / 1e3)
            .int("core.gate_evals", self.gate_evals)
            .num("core.audit_ms", self.audit_ms)
            .int("core.audit_certs", self.audit_certs)
            .int("core.audit_confirmed", self.audit_confirmed)
            .num(
                "core.audit_confirmed_ratio",
                ratio(self.audit_confirmed as f64, self.audit_certs as f64),
            )
            .num("core.checkpoint_ms", self.checkpoint_ms)
            .int("core.checkpoint_flushes", self.checkpoint_flushes)
            .int("core.checkpoint_bytes", self.checkpoint_bytes)
            .num("core.shard_ms", self.shard_ms)
            .num("core.merge_ms", self.merge_ms)
            .num("core.canon_ms", median(&self.canon_ms))
            .num("trace.wall_ms", wall)
            .num("trace.untraced_wall_ms", self.untraced_wall_ms)
            .num("trace.attributed_ms", self.attributed_ms())
            .num(
                "trace.overhead_ratio",
                ratio(wall - self.untraced_wall_ms, self.untraced_wall_ms),
            )
            .num(
                "trace.unattributed_ratio",
                ratio(wall - self.attributed_ms(), wall),
            );
    }
}

/// Per-fault stamps taken by a `fault_hook`.
#[derive(Default)]
struct Probe {
    stamps: Mutex<Vec<(usize, Instant)>>,
}

/// Instruments `options` with a fault hook that stamps each fault's start.
fn instrument(options: &mut CampaignOptions) -> Arc<Probe> {
    let probe = Arc::new(Probe::default());
    let hook = Arc::clone(&probe);
    options.fault_hook = Some(Arc::new(move |index, _fault: &Fault| {
        if let Ok(mut stamps) = hook.stamps.lock() {
            stamps.push((index, Instant::now()));
        }
    }));
    probe
}

/// Gives `options` a cancel probe that never cancels and counts its polls.
/// The campaign polls it once before every checkpoint batch and flushes the
/// checkpoint after every batch, so the count is the number of flushes.
fn count_batches(options: &mut CampaignOptions) -> Arc<AtomicU64> {
    let batches = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&batches);
    options.cancel = Some(Arc::new(move || {
        counter.fetch_add(1, Ordering::Relaxed);
        false
    }));
    batches
}

/// Turns hook stamps into per-fault spans (a fault runs from its stamp to
/// the next one, the last to the campaign's end) and their durations.
fn fault_spans(
    probe: &Probe,
    end: Instant,
    parent: usize,
    prefix: &str,
    spans: &mut Spans,
    durations: &mut Vec<f64>,
) {
    let stamps = probe.stamps.lock().map(|s| s.clone()).unwrap_or_default();
    for (k, &(index, start)) in stamps.iter().enumerate() {
        let stop = stamps.get(k + 1).map_or(end, |&(_, t)| t);
        durations.push(stop.saturating_duration_since(start).as_secs_f64() * 1e6);
        spans.add(
            "core.fault",
            start,
            stop,
            Some(parent),
            &format!("{prefix}fault-{index}"),
        );
    }
}

/// Replays a shard's checkpoint flushes standalone: `flushes` v2 writes of
/// the shard file's records, each with `every` more faults than the last,
/// as `run_shard` made them. Returns the time spent writing.
fn replay_flushes(file: &Path, flushes: u64, every: usize, scratch: &Path) -> Res<Duration> {
    let shard = read_shard(file).map_err(|e| e.to_string())?;
    let len = shard.shard.len as usize;
    let header = CheckpointHeader {
        total_faults: len,
        ..shard.header
    };
    let mut records: Vec<Option<FaultResult>> = vec![None; len];
    for (index, result) in shard.records {
        records[(index - shard.shard.offset) as usize] = Some(result);
    }
    let target = scratch.join("replay.ckpt");
    let mut slots = vec![None; len];
    let mut total = Duration::ZERO;
    for batch in 0..flushes as usize {
        let done = (batch * every).min(len)..((batch + 1) * every).min(len);
        slots[done.clone()].clone_from_slice(&records[done]);
        let (written, t) =
            timed(|| write_checkpoint_v2(&target, &header, Some(&shard.shard), &slots));
        written.map_err(|e| e.to_string())?;
        total += t;
    }
    let _ = std::fs::remove_file(&target);
    Ok(total)
}

/// Audits the sampled detections of `r` standalone, the ones an audited
/// campaign with `sample_rate` audits (every detected fault whose index is
/// a multiple of the rate). A certified campaign emits its certificates as
/// part of the procedure, so only the concrete replay (`audit_certificate`)
/// is timed as the audit layer. Returns the time spent in it.
fn audit_sample(
    spec: &JobSpec,
    faults: &[Fault],
    sample_rate: usize,
    r: &CampaignResult,
    layers: &mut Layers,
) -> f64 {
    let (circuit, seq) = (&spec.circuit, &spec.seq);
    let good = simulate(circuit, seq, None);
    let mut spent = 0.0;
    for (index, (fault, status)) in faults.iter().zip(&r.statuses).enumerate() {
        if !status.is_detected() || !index.is_multiple_of(sample_rate) {
            continue;
        }
        let mut meter = BudgetMeter::unlimited();
        let (_, cert) =
            simulate_fault_certified(circuit, seq, &good, fault, &spec.options.moa, None, &mut meter);
        let Some(cert) = cert else { continue };
        layers.audit_certs += 1;
        let (verdict, t) = timed(|| {
            audit_certificate(circuit, seq, &good, fault, &cert, &AuditOptions::default())
        });
        spent += ms(t);
        if matches!(verdict, AuditStatus::Confirmed { .. }) {
            layers.audit_confirmed += 1;
        }
    }
    layers.audit_ms += spent;
    spent
}

/// The collapse ratio with its numerator and denominator.
fn emit_collapse(metrics: &mut Obj, full: usize, classes: usize) {
    metrics
        .int("analyze.faults_full", full as u64)
        .int("analyze.classes", classes as u64)
        .num(
            "analyze.collapse_ratio",
            1.0 - ratio(classes as f64, full as f64),
        );
}

// ---------------------------------------------------------------------------
// specs / verify
// ---------------------------------------------------------------------------

/// The seed of job `index`'s random sequence: distinct per (seed, index).
fn job_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(index as u64)
}

/// The options of job `index`. Jobs cycle through three kinds: collapsed
/// (`--collapse`: one representative per fault class is simulated, the
/// class verdicts are expanded to the full list), deep (`--n-states 1024`:
/// expansion and resimulation take most of the time) and audited
/// (`--audit=32`: the certificate audit, replayed again by the merge).
/// Every job runs on one thread.
fn job_options(index: usize) -> CampaignOptions {
    let (collapse, n_states, audit) = match index % 3 {
        0 => (true, 64, None),
        1 => (false, DEEP_N_STATES, None),
        _ => (
            false,
            64,
            Some(CampaignAudit {
                sample_rate: AUDIT_SAMPLE_RATE,
                ..CampaignAudit::default()
            }),
        ),
    };
    CampaignOptions {
        moa: moa_options(n_states),
        threads: 1,
        collapse,
        audit,
        ..CampaignOptions::default()
    }
}

/// The job spec `moa submit suite:s298 --random 128 --seed <job seed>`
/// sends, with the options of the job's kind.
fn job_spec(circuit: &Circuit, bench: &str, seed: u64, index: usize) -> Res<JobSpec> {
    let seq = moa_tpg::random_sequence(circuit, JOB_SEQ_LEN, job_seed(seed, index));
    JobSpec::new(bench, &seq.to_text(), job_options(index)).map_err(|e| e.to_string())
}

fn specs(args: &Args) -> Res<String> {
    let seed: u64 = args.num("seed")?;
    let count: usize = args.num("count")?;
    let out = args.str("out")?;
    let circuit = load_suite(JOB_CIRCUIT)?;
    let bench = write_bench(&circuit);
    let mut text = String::new();
    for index in 0..count {
        let spec = job_spec(&circuit, &bench, seed, index)?;
        let mut o = Obj::default();
        o.int("index", index as u64)
            .str("job", &spec.hash().to_string())
            .str("spec", &spec.to_text());
        text.push_str(&o.render());
        text.push('\n');
    }
    std::fs::write(out, text).map_err(|e| format!("cannot write {out}: {e}"))?;
    let mut report = Report::default();
    report
        .check
        .int("specs", count as u64)
        .int("faults_per_job", full_fault_list(&circuit).len() as u64);
    Ok(report.render())
}

/// Reads the `spec` field of each line written by `specs` and parses it
/// (circuit included), returning each spec with its parse time.
fn read_specs(path: &str, count: usize) -> Res<Vec<(JobSpec, Duration)>> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    text.lines()
        .take(count)
        .map(|line| {
            let start = line.find("\"spec\":\"").ok_or("spec line without a spec")? + 8;
            let body = unquote(&line[start..line.len() - 2]);
            let (spec, t) = timed(|| JobSpec::parse(&body));
            Ok((spec.map_err(|e| e.to_string())?, t))
        })
        .collect()
}

fn unquote(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('u') => {
                let hex: String = chars.by_ref().take(4).collect();
                if let Some(c) = u32::from_str_radix(&hex, 16).ok().and_then(char::from_u32) {
                    out.push(c);
                }
            }
            Some(c) => out.push(c),
            None => {}
        }
    }
    out
}

/// Direct reference runs of the daemon jobs: the full fault list, no
/// collapsing — the verdicts a daemon job must reproduce bit for bit. A
/// traced run also runs the first `TRACED_JOBS` jobs with their own options,
/// untraced and instrumented, and times the other layers standalone on the
/// same specs.
fn verify(args: &Args) -> Res<String> {
    /// Jobs a traced run also runs instrumented (bounds the run's length).
    const TRACED_JOBS: usize = 30;
    /// Jobs whose shard path a traced run times: one of each kind.
    const SHARD_JOBS: usize = 3;
    let count: usize = args.num("count")?;
    let threads: usize = args.num("threads")?;
    let trace: u8 = args.num("trace")?;
    let scratch = PathBuf::from(args.str("scratch")?);
    let jobs = read_specs(args.str("specs")?, count)?;
    let mut spans = Spans::new();
    let mut layers = Layers::default();
    let (mut digests, mut gate_evals) = (Vec::new(), Vec::new());
    let mut tally = Tally::default();
    let (mut load_ms, mut collapse_ms) = (Vec::new(), Vec::new());
    let (mut full, mut classes) = (0, 0);
    for (index, (spec, parse)) in jobs.iter().enumerate() {
        let faults = full_fault_list(&spec.circuit);
        let reference = CampaignOptions {
            threads,
            collapse: false,
            ..spec.options.clone()
        };
        let (r, t) = timed(|| try_run_campaign(&spec.circuit, &spec.seq, &faults, &reference));
        let r = r.map_err(|e| format!("job {index}: {e}"))?;
        tally.add(&r);
        let digest = verdict_digest(&r);
        digests.push(quote(&digest.to_string()));
        gate_evals.push(r.perf.gate_evals);
        if trace == 0 || index >= TRACED_JOBS {
            continue;
        }
        let plain = CampaignOptions {
            threads: 1,
            ..spec.options.clone()
        };
        let t = if plain.collapse {
            let (u, t) = timed(|| try_run_campaign(&spec.circuit, &spec.seq, &faults, &plain));
            tally.add(&u.map_err(|e| format!("job {index}: {e}"))?);
            t
        } else {
            t
        };
        layers.untraced_wall_ms += ms(t);
        let mut options = plain.clone();
        let probe = instrument(&mut options);
        let start = Instant::now();
        let traced = try_run_campaign(&spec.circuit, &spec.seq, &faults, &options)
            .map_err(|e| format!("job {index}: {e}"))?;
        let end = Instant::now();
        if verdict_digest(&traced) != digest {
            return Err(format!("job {index}: traced and untraced verdicts differ"));
        }
        layers.traced_wall_ms += ms(end - start);
        let group = format!("job-{index}");
        let campaign = spans.add("core.campaign", start, end, None, &group);
        fault_spans(
            &probe,
            end,
            campaign,
            &format!("{group}/"),
            &mut spans,
            &mut layers.fault_us,
        );
        layers.add_campaign(&traced);
        let s = Instant::now();
        layers.add_kernels(&spec.circuit, &spec.seq, &faults);
        spans.add("sim.kernels", s, Instant::now(), None, &group);
        if let Some(audit) = &spec.options.audit {
            let s = Instant::now();
            layers.in_campaign_ms +=
                audit_sample(spec, &faults, audit.sample_rate, &traced, &mut layers);
            spans.add("core.audit", s, Instant::now(), None, &group);
        }
        let reps: Vec<f64> = (0..5).map(|_| ms(timed(|| spec.hash()).1)).collect();
        layers.canon_ms.push(median(&reps));
        load_ms.push(ms(*parse));
        let (collapsed, t) = timed(|| collapse_faults(&spec.circuit, &faults));
        collapse_ms.push(ms(t));
        full += faults.len();
        classes += collapsed.representatives().len();
        if index < SHARD_JOBS {
            shard_layers(index, spec, &digest, &scratch, &mut layers, &mut spans)?;
        }
    }
    let mut out = Report::default();
    if trace == 1 {
        layers.emit(&mut out.metrics);
        out.metrics
            .num("netlist.load_ms", median(&load_ms))
            .num("analyze.collapse_ms", median(&collapse_ms));
        emit_collapse(&mut out.metrics, full, classes);
        spans.write(args.0.get("spans").map(String::as_str))?;
        out.check
            .int("checkpoint_flushes", layers.checkpoint_flushes)
            .int("checkpoint_bytes", layers.checkpoint_bytes);
    }
    out.check
        .raw("digests", json_list(&digests))
        .raw("gate_evals", json_list(&gate_evals))
        .int("faults", tally.faults as u64)
        .int("faulted", tally.faulted as u64)
        .int("audit_failed", tally.audit_failed as u64);
    Ok(out.render())
}

/// The daemon's shard path on one job, timed standalone: `run_shard` for
/// both shards, whose cancel probes count the checkpoint flushes; those
/// flushes replayed with `write_checkpoint_v2`; then `merge_shards`, which
/// replays an audited job's audit. The merged verdicts must equal the
/// direct run's `digest`.
fn shard_layers(
    index: usize,
    spec: &JobSpec,
    digest: &CanonHash,
    scratch: &Path,
    layers: &mut Layers,
    spans: &mut Spans,
) -> Res<()> {
    const SHARDS: usize = 2;
    let faults = full_fault_list(&spec.circuit);
    let dir = scratch.join(format!("shards-{index}"));
    let _ = std::fs::remove_dir_all(&dir);
    let group = format!("job-{index}");
    let mut flushes = Vec::new();
    let s = Instant::now();
    for shard in 0..SHARDS {
        let mut options = spec.options.clone();
        let batches = count_batches(&mut options);
        run_shard(
            &spec.circuit,
            &spec.seq,
            &faults,
            &options,
            SHARDS,
            shard,
            &dir,
        )
        .map_err(|e| format!("job {index}: run_shard {shard}: {e}"))?;
        flushes.push(batches.load(Ordering::Relaxed));
    }
    layers.shard_ms += ms(s.elapsed());
    spans.add("core.shard", s, Instant::now(), None, &group);
    let files: Vec<PathBuf> = (0..SHARDS).map(|k| shard_path(&dir, k)).collect();
    let s = Instant::now();
    for (file, &n) in files.iter().zip(&flushes) {
        layers.checkpoint_bytes += std::fs::metadata(file).map(|m| m.len()).unwrap_or(0);
        layers.checkpoint_flushes += n;
        layers.checkpoint_ms += ms(replay_flushes(
            file,
            n,
            spec.options.checkpoint_every.max(1),
            &dir,
        )?);
    }
    spans.add("core.checkpoint", s, Instant::now(), None, &group);
    let s = Instant::now();
    let merged = merge_shards(&spec.circuit, &spec.seq, &faults, &spec.options, &files)
        .map_err(|e| format!("job {index}: merge_shards: {e}"))?;
    layers.merge_ms += ms(s.elapsed());
    spans.add("core.merge", s, Instant::now(), None, &group);
    if verdict_digest(&merged.result) != *digest {
        return Err(format!(
            "job {index}: merged shard verdicts differ from the direct run"
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
