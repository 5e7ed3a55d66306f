//! Process-level tests of the `moa` binary (exit codes, stdout/stderr
//! separation) — the library-level command tests cover the logic; these
//! cover the executable contract.

use std::path::PathBuf;
use std::process::Command;

fn moa() -> Command {
    Command::new(env!("CARGO_BIN_EXE_moa"))
}

/// A scratch directory owned by one test of this process, named after the
/// test and the process id: neither the other tests (which run in parallel
/// threads) nor a concurrent run of this suite ever touch its files.
/// Removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new(test: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("moa-bin-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }

    /// Writes the s27 fixture into this directory and returns its path. It
    /// is written once, before any child process of the test reads it.
    fn s27(&self) -> String {
        let path = self.path("s27.bench");
        std::fs::write(&path, moa_circuits::iscas::S27_BENCH).unwrap();
        path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Drops timing lines (they carry `(...)`, as do resume warnings) so two
/// reports can be compared.
fn strip_timings(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes)
        .lines()
        .filter(|l| !l.contains('('))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Byte offset where a v2 checkpoint's record stream starts: the 12-byte
/// magic, then the length-prefixed, checksummed header.
fn v2_body_start(bytes: &[u8]) -> usize {
    let header_len = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    12 + 4 + header_len + 4
}

#[test]
fn help_exits_zero() {
    let out = moa().arg("help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn unknown_command_exits_two() {
    let out = moa().arg("frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn missing_file_exits_one() {
    let out = moa().args(["stats", "/no/such/file.bench"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn stats_pipeline_works_end_to_end() {
    let scratch = Scratch::new("stats");
    let out = moa().args(["stats", &scratch.s27()]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("circuit : s27"));
    assert!(out.stderr.is_empty(), "reports go to stdout");
}

#[test]
fn campaign_resume_from_missing_checkpoint_exits_one() {
    let scratch = Scratch::new("missing-checkpoint");
    let out = moa()
        .args([
            "campaign",
            &scratch.s27(),
            "--random",
            "8",
            "--proposed",
            "--checkpoint",
            &scratch.path("no-such.checkpoint"),
            "--resume",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "clean failure, not a panic");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("checkpoint"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

/// Only with the `failpoints` feature: the chaos registry is process-global,
/// so this runs against the binary (its own process) rather than in-process,
/// keeping the library tests deterministic.
#[cfg(feature = "failpoints")]
#[test]
fn campaign_chaos_seed_runs_and_reports_fired_sites() {
    let scratch = Scratch::new("chaos-seed");
    let out = moa()
        .args([
            "campaign",
            &scratch.s27(),
            "--random",
            "16",
            "--seed",
            "7",
            "--proposed",
            "--chaos-seed",
            "42",
        ])
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{err}");
    assert!(text.contains("chaos:"), "{text}");
}

/// `moa campaign` over s27 with a plain checkpoint at `ckpt`, optionally
/// resuming from it.
fn checkpointed_campaign(s27: &str, ckpt: &str, resume: bool) -> std::process::Output {
    let mut cmd = moa();
    cmd.args([
        "campaign",
        s27,
        "--random",
        "16",
        "--seed",
        "7",
        "--proposed",
        "--checkpoint",
        ckpt,
    ]);
    if resume {
        cmd.arg("--resume");
    }
    cmd.output().unwrap()
}

#[test]
fn campaign_resume_heals_a_corrupt_interior_record_with_a_warning() {
    // A damaged body record does not abort the resume: the record is
    // skipped with a located warning and its fault is re-simulated.
    let scratch = Scratch::new("corrupt-record");
    let s27 = scratch.s27();
    let ckpt = scratch.path("corrupt.checkpoint");
    let full = checkpointed_campaign(&s27, &ckpt, false);
    assert!(full.status.success());

    // Flip a bit inside the first record's payload (past its tag and length).
    let mut bytes = std::fs::read(&ckpt).unwrap();
    let first = v2_body_start(&bytes);
    bytes[first + 5 + 8] ^= 0x01;
    std::fs::write(&ckpt, &bytes).unwrap();

    let out = checkpointed_campaign(&s27, &ckpt, true);
    let text = String::from_utf8_lossy(&out.stdout);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "corruption is healed, not fatal: {err}");
    let warning = text
        .lines()
        .find(|l| l.contains("skipped corrupt checkpoint record"))
        .unwrap_or_else(|| panic!("no skip warning: {text}"));
    assert!(
        warning.contains(&format!("record 1 at byte {first}: checksum mismatch")),
        "the warning locates the damage: {warning}"
    );
    assert_eq!(
        warning.matches("at byte").count(),
        1,
        "located once: {warning}"
    );
    assert_eq!(
        strip_timings(&full.stdout),
        strip_timings(&out.stdout),
        "the re-simulated fault must reproduce the full run's report"
    );
}

#[test]
fn campaign_resume_from_damaged_header_exits_one() {
    // Header damage is still a hard error — the file cannot be trusted to
    // describe this campaign at all. A file in the retired v1 text format
    // is refused by name.
    let scratch = Scratch::new("bad-header");
    let s27 = scratch.s27();
    for (contents, expect) in [
        ("not-a-checkpoint\n", "not a checkpoint file"),
        (
            "moa-checkpoint v1\ncircuit s27\nfaults 32\nseq-len 16\n",
            "format v1 (`moa-checkpoint v1`) is no longer supported",
        ),
    ] {
        let ckpt = scratch.path("bad-header.checkpoint");
        std::fs::write(&ckpt, contents).unwrap();
        let out = checkpointed_campaign(&s27, &ckpt, true);
        assert_eq!(out.status.code(), Some(1), "clean failure, not a panic");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(expect), "{err}");
        assert!(!err.contains("panicked"), "{err}");
    }
}

#[test]
fn campaign_checkpoint_resume_round_trip_via_binary() {
    let scratch = Scratch::new("roundtrip");
    let s27 = scratch.s27();
    let ckpt = scratch.path("roundtrip.checkpoint");
    let first = checkpointed_campaign(&s27, &ckpt, false);
    assert!(first.status.success());
    let second = checkpointed_campaign(&s27, &ckpt, true);
    assert!(second.status.success());
    assert_eq!(strip_timings(&first.stdout), strip_timings(&second.stdout));
}

#[test]
fn campaign_resume_tolerates_torn_checkpoint_tail() {
    // A checkpoint cut off mid-record (kill -9 during a non-atomic copy, a
    // filesystem without rename atomicity) must not brick the resume: the
    // partial final record is dropped and its fault re-simulated.
    let scratch = Scratch::new("torn");
    let s27 = scratch.s27();
    let ckpt = scratch.path("torn.checkpoint");
    let full = checkpointed_campaign(&s27, &ckpt, false);
    assert!(full.status.success());

    // Emulate the torn write: drop the 13-byte trailer and the last four
    // bytes of the final record.
    let bytes = std::fs::read(&ckpt).unwrap();
    std::fs::write(&ckpt, &bytes[..bytes.len() - 13 - 4]).unwrap();

    let resumed = checkpointed_campaign(&s27, &ckpt, true);
    assert!(
        resumed.status.success(),
        "resume must survive a torn tail: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let text = String::from_utf8_lossy(&resumed.stdout);
    assert!(text.contains("missing end-of-shard trailer"), "{text}");
    assert_eq!(
        strip_timings(&full.stdout),
        strip_timings(&resumed.stdout),
        "the re-simulated fault must reproduce the full run's report"
    );
}

#[test]
fn campaign_audit_flag_via_binary() {
    let scratch = Scratch::new("audit-flag");
    let out = moa()
        .args([
            "campaign",
            &scratch.s27(),
            "--random",
            "16",
            "--seed",
            "7",
            "--proposed",
            "--audit",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("auditing detections"), "{text}");
    assert!(!text.contains("AUDIT FAILED"), "{text}");
}

/// Keeps only the lines whose content must be identical between a sharded
/// and an unsharded run: verdict and summary lines, not timings or the
/// shard-orchestration narration.
fn verdict_lines(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes)
        .lines()
        .filter(|l| {
            !l.is_empty()
                && !l.contains('(')
                && !l.starts_with("supervised")
                && !l.starts_with("merged")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn sharded_campaign_via_binary_is_bit_identical_to_unsharded() {
    let scratch = Scratch::new("shards");
    let s27 = scratch.s27();
    let dir_str = scratch.path("shards");
    let common = [
        "campaign",
        &s27,
        "--random",
        "24",
        "--seed",
        "7",
        "--proposed",
        "--audit",
    ];

    let plain = moa().args(common).output().unwrap();
    assert!(plain.status.success(), "{}", String::from_utf8_lossy(&plain.stderr));

    let sharded = moa()
        .args(common)
        .args(["--shards", "4", "--shard-dir", &dir_str])
        .output()
        .unwrap();
    assert!(
        sharded.status.success(),
        "{}",
        String::from_utf8_lossy(&sharded.stderr)
    );
    let text = String::from_utf8_lossy(&sharded.stdout);
    assert!(text.contains("supervised 4 shard(s)"), "{text}");
    assert!(text.contains("re-audited"), "{text}");
    assert_eq!(
        verdict_lines(&plain.stdout),
        verdict_lines(&sharded.stdout),
        "the merged sharded campaign must reproduce the unsharded verdicts"
    );

    // The shard files survive the run, so a standalone --merge reassembles
    // the same result without re-simulating anything.
    let merged = moa()
        .args(common)
        .args(["--shards", "4", "--shard-dir", &dir_str, "--merge"])
        .output()
        .unwrap();
    assert!(
        merged.status.success(),
        "{}",
        String::from_utf8_lossy(&merged.stderr)
    );
    assert_eq!(verdict_lines(&plain.stdout), verdict_lines(&merged.stdout));

    // Corrupt one record in one shard file: the merge must refuse with a
    // located checksum error rather than quietly mis-merging.
    let victim = format!("{dir_str}/shard-2.ckpt");
    let mut bytes = std::fs::read(&victim).unwrap();
    let at = bytes.len() - 20;
    bytes[at] ^= 0x40;
    std::fs::write(&victim, &bytes).unwrap();
    let refused = moa()
        .args(common)
        .args(["--shards", "4", "--shard-dir", &dir_str, "--merge"])
        .output()
        .unwrap();
    assert_eq!(refused.status.code(), Some(1), "corrupt merge is a clean failure");
    let err = String::from_utf8_lossy(&refused.stderr);
    assert!(err.contains("checksum mismatch"), "{err}");
    assert!(err.contains("shard-2.ckpt"), "the error locates the file: {err}");
}

#[test]
fn campaign_on_s27_detects_faults() {
    let scratch = Scratch::new("s27-detects");
    let out = moa()
        .args([
            "campaign",
            &scratch.s27(),
            "--random",
            "32",
            "--seed",
            "7",
            "--proposed",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("detected total"));
}
