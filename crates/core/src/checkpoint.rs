//! Campaign checkpointing: periodic serialization of per-fault results to a
//! sidecar file, so an interrupted campaign can resume where it left off.
//! The same format carries shard files between processes and machines
//! ([`crate::shard`], [`crate::dispatch`]) and the daemon's spooled results.
//!
//! # Format v2 (binary, checksummed)
//!
//! Packed binary, little-endian, with a CRC32 over every header and record
//! payload and an explicit end-of-shard trailer carrying the record count —
//! a flipped bit inside a numeric field is caught, not parsed:
//!
//! ```text
//! "moa-ckpt-v2\n"                                   12-byte magic
//! u32 len | header payload | u32 crc32(payload)     header
//!     payload: u32 name-len, circuit name bytes,
//!              u64 total-faults (campaign-global), u64 seq-len,
//!              u32 shard-id, u32 shard-count, u64 offset, u64 len
//! 0x01 | u32 len | record payload | u32 crc32       one per completed fault
//!     payload: u64 global-index, u64 runs,
//!              u64 n_det, u64 n_conf, u64 n_extra,
//!              u8 status-code, status fields…
//! 0x02 | u64 record-count | u32 crc32(count)        end-of-shard trailer
//! ```
//!
//! One record per *completed* fault, in any order; unfinished faults simply
//! have no record. An unsharded checkpoint is the trivial shard 0 of 1
//! covering `[0, total)`. The header identity (circuit, fault count,
//! sequence length, shard geometry) guards a resume against being pointed
//! at a checkpoint from a different campaign. Statuses round-trip exactly
//! ([`FaultStatus`] is `Eq`), so a resumed campaign aggregates a
//! [`CampaignResult`](crate::CampaignResult) identical to an uninterrupted
//! run. [`write_checkpoint_v2`] goes through a temp file that is flushed
//! *and fsynced* before the atomic rename, so neither an interrupt mid-write
//! nor a machine crash shortly after the rename can publish a half-written
//! file.
//!
//! The earlier line-oriented `moa-checkpoint v1` format is not read: such a
//! file is refused with an error naming the format.
//!
//! # Corruption tolerance
//!
//! Two readers share the decoder but differ in temperament:
//!
//! - the *lenient* resume path ([`read_checkpoint`] /
//!   [`read_checkpoint_sharded`]): header damage or a campaign-identity
//!   mismatch is a hard [`Error::Checkpoint`], because nothing in the body
//!   can be trusted without it; a record with a bad checksum, a malformed
//!   payload, an out-of-range index or a duplicate index is skipped with a
//!   located [`CheckpointSkip`] (returned in [`CheckpointLoad::skipped`] and
//!   surfaced through
//!   [`CampaignResult::resume_skipped`](crate::CampaignResult::resume_skipped))
//!   and its fault is re-simulated; a torn tail is dropped;
//! - the *strict* merge path ([`read_shard`]) treats **any** damage —
//!   checksum mismatch, torn record, missing or lying trailer, duplicate or
//!   out-of-range index — as a located hard error, because a merge must
//!   never paper over a corrupt transfer.

use std::fs;
use std::io::Write as _;
use std::path::Path;

use moa_sim::Detection;

use crate::budget::BudgetStage;
use crate::collect::PairKey;
use crate::counters::Counters;
use crate::error::Error;
use crate::procedure::{DegradeStage, FaultResult, FaultStatus, PartialBound};

/// Campaign identity stamped into a checkpoint header and validated on
/// resume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointHeader {
    /// The circuit's name.
    pub circuit: String,
    /// Number of faults in the campaign's fault list.
    pub total_faults: usize,
    /// Length of the test sequence.
    pub seq_len: usize,
}

/// A corrupt checkpoint record that resume skipped instead of aborting on.
/// The record's fault is simply re-simulated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointSkip {
    /// 1-based ordinal of the damaged record in the file's record stream;
    /// `0` for damage not tied to one record (the trailer, an unrecognized
    /// tag, a missing trailer).
    pub record: usize,
    /// What was wrong with it, located by record ordinal and byte offset.
    pub message: String,
}

impl std::fmt::Display for CheckpointSkip {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

/// A successfully loaded checkpoint: the per-fault slots plus any damaged
/// records that were skipped along the way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointLoad {
    /// One entry per fault; `None` = not yet simulated (or its record was
    /// damaged and dropped).
    pub slots: Vec<Option<FaultResult>>,
    /// Corrupt interior records skipped with their locations, in file
    /// order.
    pub skipped: Vec<CheckpointSkip>,
}

/// Reads an unsharded checkpoint (shard 0 of 1) back, validating it against
/// the expected campaign identity. Header problems are hard errors; damaged
/// body records are skipped and reported in [`CheckpointLoad::skipped`].
pub fn read_checkpoint(path: &Path, expected: &CheckpointHeader) -> Result<CheckpointLoad, Error> {
    read_checkpoint_impl(path, expected, None)
}

/// Reads one shard's checkpoint leniently for a *resume* of that shard's
/// campaign: `expected` is the shard-local identity (its `total_faults` is
/// the shard's fault count) and `shard` the shard's place in the global
/// campaign. Record indices are translated from global to shard-local.
///
/// Damage handling matches [`read_checkpoint`]; the strict cross-shard
/// reader for merges is [`read_shard`].
pub fn read_checkpoint_sharded(
    path: &Path,
    expected: &CheckpointHeader,
    shard: &ShardInfo,
) -> Result<CheckpointLoad, Error> {
    read_checkpoint_impl(path, expected, Some(shard))
}

fn read_checkpoint_impl(
    path: &Path,
    expected: &CheckpointHeader,
    shard: Option<&ShardInfo>,
) -> Result<CheckpointLoad, Error> {
    let err = |message: String| Error::Checkpoint {
        path: path.display().to_string(),
        message,
    };
    #[cfg(feature = "failpoints")]
    if let Some(e) = crate::failpoint::io_error("fp/checkpoint.resume") {
        return Err(err(format!("cannot read checkpoint: {e}")));
    }
    let bytes = fs::read(path).map_err(|e| err(format!("cannot read checkpoint: {e}")))?;
    decode_lenient(path, &bytes, expected, shard)
}

/// Why a file without the v2 magic is refused, naming the retired v1 text
/// format when that is what the file holds.
fn not_v2_message(bytes: &[u8]) -> String {
    if bytes.starts_with(b"moa-checkpoint v1") {
        "checkpoint format v1 (`moa-checkpoint v1`) is no longer supported; \
         delete the file and run the campaign again without resuming"
            .into()
    } else {
        "not a checkpoint file (missing `moa-ckpt-v2` magic)".into()
    }
}

/// Magic prefix of a v2 checkpoint / shard file.
const MAGIC_V2: &[u8] = b"moa-ckpt-v2\n";
/// Body tag: one completed fault record.
const TAG_RECORD: u8 = 0x01;
/// Body tag: the end-of-shard trailer.
const TAG_TRAILER: u8 = 0x02;

/// IEEE CRC32 (polynomial `0xEDB8_8320`), table-driven; the table is built
/// at compile time so the checksum costs one lookup per byte.
const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut n = 0;
    while n < 256 {
        let mut crc = n as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[n] = crc;
        n += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC32 of `bytes` (IEEE, init and final XOR `0xFFFF_FFFF`).
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

/// A shard's place inside a partitioned campaign, stamped into every v2
/// header: this shard covers the contiguous global fault-index range
/// `[offset, offset + len)` of a campaign with `total_faults` faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardInfo {
    /// This shard's id, `0 ≤ shard_id < shard_count`.
    pub shard_id: u32,
    /// Number of shards the campaign was partitioned into.
    pub shard_count: u32,
    /// Global index of this shard's first fault.
    pub offset: u64,
    /// Number of faults in this shard.
    pub len: u64,
    /// Fault count of the *whole* campaign (all shards together).
    pub total_faults: u64,
}

impl ShardInfo {
    /// The trivial partition: one shard covering the whole campaign.
    pub fn unsharded(total_faults: usize) -> Self {
        ShardInfo {
            shard_id: 0,
            shard_count: 1,
            offset: 0,
            len: total_faults as u64,
            total_faults: total_faults as u64,
        }
    }
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn budget_stage_code(stage: BudgetStage) -> u8 {
    match stage {
        BudgetStage::Collection => 0,
        BudgetStage::Expansion => 1,
        BudgetStage::Resimulation => 2,
    }
}

fn budget_stage_from_code(code: u8) -> Result<BudgetStage, String> {
    match code {
        0 => Ok(BudgetStage::Collection),
        1 => Ok(BudgetStage::Expansion),
        2 => Ok(BudgetStage::Resimulation),
        other => Err(format!("bad budget-stage code {other}")),
    }
}

fn degrade_stage_code(stage: DegradeStage) -> u8 {
    match stage {
        DegradeStage::ExpansionOnly => 0,
        DegradeStage::Conventional => 1,
    }
}

fn degrade_stage_from_code(code: u8) -> Result<DegradeStage, String> {
    match code {
        0 => Ok(DegradeStage::ExpansionOnly),
        1 => Ok(DegradeStage::Conventional),
        other => Err(format!("bad degrade-stage code {other}")),
    }
}

/// Appends the binary encoding of `status` (code byte + fields).
pub(crate) fn encode_status(buf: &mut Vec<u8>, status: &FaultStatus) {
    match status {
        FaultStatus::DetectedConventional(d) => {
            buf.push(0);
            put_u64(buf, d.time as u64);
            put_u64(buf, d.output as u64);
        }
        FaultStatus::SkippedConditionC => buf.push(1),
        FaultStatus::DetectedByImplications(k) => {
            buf.push(2);
            put_u64(buf, k.u as u64);
            put_u64(buf, k.i as u64);
        }
        FaultStatus::DetectedByForcedAssignments => buf.push(3),
        FaultStatus::DetectedByExpansion { sequences } => {
            buf.push(4);
            put_u64(buf, *sequences as u64);
        }
        FaultStatus::NotDetected {
            undecided,
            sequences,
            truncated,
            aborted,
        } => {
            buf.push(5);
            put_u64(buf, *undecided as u64);
            put_u64(buf, *sequences as u64);
            buf.push(u8::from(*truncated));
            buf.push(u8::from(*aborted));
        }
        FaultStatus::Untestable { proof } => {
            buf.push(6);
            buf.push(match proof {
                moa_analyze::UntestableProof::Unobservable => 0,
                moa_analyze::UntestableProof::ConstantLine { value: false } => 1,
                moa_analyze::UntestableProof::ConstantLine { value: true } => 2,
            });
        }
        FaultStatus::BudgetExceeded { stage, work } => {
            buf.push(7);
            buf.push(budget_stage_code(*stage));
            put_u64(buf, *work);
        }
        FaultStatus::PartialVerdict {
            lower_bound,
            stage_reached,
            tripped,
            work_spent,
        } => {
            buf.push(8);
            buf.push(degrade_stage_code(*stage_reached));
            buf.push(budget_stage_code(*tripped));
            put_u64(buf, *work_spent);
            match lower_bound {
                PartialBound::Detected { sequences } => {
                    buf.push(0);
                    put_u64(buf, *sequences as u64);
                }
                PartialBound::NotDetected {
                    undecided,
                    sequences,
                } => {
                    buf.push(1);
                    put_u64(buf, *undecided as u64);
                    put_u64(buf, *sequences as u64);
                }
                PartialBound::Unknown => buf.push(2),
            }
        }
        FaultStatus::Faulted { message } => {
            buf.push(9);
            put_str(buf, message);
        }
        FaultStatus::AuditFailed { reason } => {
            buf.push(10);
            put_str(buf, reason);
        }
    }
}

/// A bounds-checked little-endian read cursor over a byte slice; every
/// method fails with a message instead of panicking, so damaged payloads
/// become located skip warnings or errors.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| format!("truncated {what}"))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self, what: &str) -> Result<u8, String> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32, String> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &str) -> Result<u64, String> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn string(&mut self, what: &str) -> Result<String, String> {
        let len = self.u32(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| format!("{what} is not UTF-8"))
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

/// Decodes a status (code byte + fields) from `cur`.
fn decode_status(cur: &mut Cursor<'_>) -> Result<FaultStatus, String> {
    let code = cur.u8("status code")?;
    Ok(match code {
        0 => FaultStatus::DetectedConventional(Detection {
            time: cur.u64("detection time")? as usize,
            output: cur.u64("detection output")? as usize,
        }),
        1 => FaultStatus::SkippedConditionC,
        2 => FaultStatus::DetectedByImplications(PairKey {
            u: cur.u64("pair u")? as usize,
            i: cur.u64("pair i")? as usize,
        }),
        3 => FaultStatus::DetectedByForcedAssignments,
        4 => FaultStatus::DetectedByExpansion {
            sequences: cur.u64("sequence count")? as usize,
        },
        5 => FaultStatus::NotDetected {
            undecided: cur.u64("undecided count")? as usize,
            sequences: cur.u64("sequence count")? as usize,
            truncated: cur.u8("truncated flag")? != 0,
            aborted: cur.u8("aborted flag")? != 0,
        },
        6 => FaultStatus::Untestable {
            proof: match cur.u8("untestable proof")? {
                0 => moa_analyze::UntestableProof::Unobservable,
                1 => moa_analyze::UntestableProof::ConstantLine { value: false },
                2 => moa_analyze::UntestableProof::ConstantLine { value: true },
                other => return Err(format!("bad untestable-proof code {other}")),
            },
        },
        7 => FaultStatus::BudgetExceeded {
            stage: budget_stage_from_code(cur.u8("budget stage")?)?,
            work: cur.u64("work count")?,
        },
        8 => {
            let stage_reached = degrade_stage_from_code(cur.u8("degrade stage")?)?;
            let tripped = budget_stage_from_code(cur.u8("tripped stage")?)?;
            let work_spent = cur.u64("work count")?;
            let lower_bound = match cur.u8("bound kind")? {
                0 => PartialBound::Detected {
                    sequences: cur.u64("sequence count")? as usize,
                },
                1 => PartialBound::NotDetected {
                    undecided: cur.u64("undecided count")? as usize,
                    sequences: cur.u64("sequence count")? as usize,
                },
                2 => PartialBound::Unknown,
                other => return Err(format!("bad bound-kind code {other}")),
            };
            FaultStatus::PartialVerdict {
                lower_bound,
                stage_reached,
                tripped,
                work_spent,
            }
        }
        9 => FaultStatus::Faulted {
            message: cur.string("panic message")?,
        },
        10 => FaultStatus::AuditFailed {
            reason: cur.string("audit reason")?,
        },
        other => return Err(format!("bad status code {other}")),
    })
}

/// Decodes one record payload into `(global fault index, result)`.
fn decode_record_payload(payload: &[u8]) -> Result<(u64, FaultResult), String> {
    let mut cur = Cursor::new(payload);
    let index = cur.u64("fault index")?;
    let runs = cur.u64("run count")? as usize;
    let counters = Counters {
        n_det: cur.u64("n_det")?,
        n_conf: cur.u64("n_conf")?,
        n_extra: cur.u64("n_extra")?,
    };
    let status = decode_status(&mut cur)?;
    if !cur.done() {
        return Err("trailing bytes after the status".into());
    }
    Ok((
        index,
        FaultResult {
            status,
            counters,
            runs,
        },
    ))
}

/// Serializes the completed slice of a campaign in format v2.
///
/// `header` is the identity of the *writing* campaign: for a shard that is
/// the shard-local fault list (`header.total_faults == shard.len`). The
/// file's header always records the global campaign identity, and record
/// indices are written as global indices (`shard.offset + local`). With
/// `shard == None` the file is the trivial shard 0 of 1.
///
/// Written atomically: temp file, `fsync`, rename.
pub fn write_checkpoint_v2(
    path: &Path,
    header: &CheckpointHeader,
    shard: Option<&ShardInfo>,
    results: &[Option<FaultResult>],
) -> Result<(), Error> {
    let bytes = encode_v2(header, shard, results);
    let write_err = |source: std::io::Error| Error::CheckpointWrite {
        path: path.display().to_string(),
        source,
    };
    let tmp = path.with_extension("tmp");
    // Campaign checkpoints and shard files keep separate chaos sites.
    #[cfg(feature = "failpoints")]
    if let Some(e) = crate::failpoint::io_error(if shard.is_some() {
        "fp/shard.write"
    } else {
        "fp/checkpoint.write"
    }) {
        return Err(write_err(e));
    }
    let mut file = fs::File::create(&tmp).map_err(write_err)?;
    file.write_all(&bytes).map_err(write_err)?;
    // Durability before visibility: fsync the temp file so the rename below
    // can never publish a checkpoint whose data is still in page cache —
    // otherwise a crash after the rename could leave a *named* but empty or
    // partial file, defeating the atomic-replace guarantee.
    file.sync_all().map_err(write_err)?;
    drop(file);
    #[cfg(feature = "failpoints")]
    if let Some(e) = crate::failpoint::io_error("fp/checkpoint.rename") {
        return Err(write_err(e));
    }
    fs::rename(&tmp, path).map_err(write_err)
}

/// Serializes `results` into the bytes of a v2 file (see
/// [`write_checkpoint_v2`] for the meaning of `header` and `shard`).
fn encode_v2(
    header: &CheckpointHeader,
    shard: Option<&ShardInfo>,
    results: &[Option<FaultResult>],
) -> Vec<u8> {
    let info = match shard {
        Some(info) => *info,
        None => ShardInfo::unsharded(header.total_faults),
    };
    debug_assert_eq!(
        header.total_faults as u64, info.len,
        "the writing campaign's fault list is the shard's slice"
    );

    let mut bytes = Vec::with_capacity(64 + results.len() * 64);
    bytes.extend_from_slice(MAGIC_V2);
    let mut payload = Vec::with_capacity(64);
    put_str(&mut payload, &header.circuit);
    put_u64(&mut payload, info.total_faults);
    put_u64(&mut payload, header.seq_len as u64);
    put_u32(&mut payload, info.shard_id);
    put_u32(&mut payload, info.shard_count);
    put_u64(&mut payload, info.offset);
    put_u64(&mut payload, info.len);
    put_u32(&mut bytes, payload.len() as u32);
    bytes.extend_from_slice(&payload);
    put_u32(&mut bytes, crc32(&payload));

    let mut record_count = 0u64;
    for (local, result) in results.iter().enumerate() {
        let Some(r) = result else { continue };
        push_record(&mut bytes, info.offset + local as u64, r);
        record_count += 1;
    }
    bytes.push(TAG_TRAILER);
    let count_bytes = record_count.to_le_bytes();
    bytes.extend_from_slice(&count_bytes);
    put_u32(&mut bytes, crc32(&count_bytes));
    bytes
}

/// Appends one tagged, length-prefixed, checksummed record frame.
fn push_record(bytes: &mut Vec<u8>, global: u64, r: &FaultResult) {
    bytes.push(TAG_RECORD);
    let len_at = bytes.len();
    put_u32(bytes, 0);
    let start = bytes.len();
    put_u64(bytes, global);
    put_u64(bytes, r.runs as u64);
    put_u64(bytes, r.counters.n_det);
    put_u64(bytes, r.counters.n_conf);
    put_u64(bytes, r.counters.n_extra);
    encode_status(bytes, &r.status);
    let len = (bytes.len() - start) as u32;
    bytes[len_at..start].copy_from_slice(&len.to_le_bytes());
    let crc = crc32(&bytes[start..]);
    put_u32(bytes, crc);
}

/// The strictly-validated contents of one v2 shard file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardFile {
    /// The *global* campaign identity (circuit, total faults across all
    /// shards, sequence length).
    pub header: CheckpointHeader,
    /// This file's place in the partition.
    pub shard: ShardInfo,
    /// `(global fault index, result)` pairs in file order; every index lies
    /// in the shard's range and appears at most once.
    pub records: Vec<(u64, FaultResult)>,
}

/// Parses and validates a v2 header, returning the global identity, the
/// shard info and the byte offset where the body starts.
fn read_v2_header(
    path: &Path,
    bytes: &[u8],
) -> Result<(CheckpointHeader, ShardInfo, usize), Error> {
    let err = |message: String| Error::Checkpoint {
        path: path.display().to_string(),
        message,
    };
    let mut cur = Cursor::new(bytes);
    cur.take(MAGIC_V2.len(), "magic").map_err(err)?;
    let header_len = cur.u32("header length").map_err(err)? as usize;
    let payload = cur.take(header_len, "header").map_err(err)?;
    let stored = cur.u32("header checksum").map_err(err)?;
    let computed = crc32(payload);
    if stored != computed {
        return Err(err(format!(
            "header checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
        )));
    }
    let mut h = Cursor::new(payload);
    let circuit = h.string("circuit name").map_err(err)?;
    let total_faults = h.u64("total fault count").map_err(err)?;
    let seq_len = h.u64("sequence length").map_err(err)?;
    let shard = ShardInfo {
        shard_id: h.u32("shard id").map_err(err)?,
        shard_count: h.u32("shard count").map_err(err)?,
        offset: h.u64("shard offset").map_err(err)?,
        len: h.u64("shard length").map_err(err)?,
        total_faults,
    };
    if !h.done() {
        return Err(err("trailing bytes in the header payload".into()));
    }
    if shard.shard_count == 0
        || shard.shard_id >= shard.shard_count
        || shard.offset.checked_add(shard.len).is_none_or(|end| end > shard.total_faults)
    {
        return Err(err(format!(
            "inconsistent shard header: shard {} of {}, faults [{}, {}+{}) of {}",
            shard.shard_id,
            shard.shard_count,
            shard.offset,
            shard.offset,
            shard.len,
            shard.total_faults
        )));
    }
    let header = CheckpointHeader {
        circuit,
        total_faults: total_faults as usize,
        seq_len: seq_len as usize,
    };
    Ok((header, shard, cur.pos))
}

/// One step of the shared v2 body walk.
enum V2Item {
    /// A record payload slice: `(record ordinal, byte offset, payload
    /// result)` where the result is the decoded record or the damage
    /// message (bad checksum, malformed payload).
    Record(u64, usize, Result<(u64, FaultResult), String>),
    /// The trailer, carrying its record count, or its damage message.
    Trailer(usize, Result<u64, String>),
    /// The file ends mid-record or mid-trailer at this byte offset (torn
    /// tail).
    Torn(usize),
    /// An unrecognized tag byte at this offset — the record stream cannot
    /// be re-synchronized past it.
    BadTag(usize, u8),
}

/// Walks the v2 body, yielding one [`V2Item`] per frame. Stops after the
/// trailer, a torn tail or a bad tag; the caller decides what is fatal.
fn walk_v2_body(bytes: &[u8], body_start: usize, mut visit: impl FnMut(V2Item) -> bool) {
    let mut cur = Cursor::new(bytes);
    cur.pos = body_start;
    let mut ordinal = 0u64;
    loop {
        let at = cur.pos;
        if cur.done() {
            return;
        }
        let Ok(tag) = cur.u8("tag") else {
            let _ = visit(V2Item::Torn(at));
            return;
        };
        match tag {
            TAG_RECORD => {
                ordinal += 1;
                let frame = cur
                    .u32("record length")
                    .and_then(|len| {
                        let payload = cur.take(len as usize, "record payload")?;
                        let stored = cur.u32("record checksum")?;
                        Ok((payload, stored))
                    });
                let Ok((payload, stored)) = frame else {
                    let _ = visit(V2Item::Torn(at));
                    return;
                };
                let computed = crc32(payload);
                let decoded = if stored == computed {
                    decode_record_payload(payload)
                } else {
                    Err(format!(
                        "checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
                    ))
                };
                if !visit(V2Item::Record(ordinal, at, decoded)) {
                    return;
                }
            }
            TAG_TRAILER => {
                let frame = cur.u64("trailer count").and_then(|count| {
                    let stored = cur.u32("trailer checksum")?;
                    Ok((count, stored))
                });
                let item = match frame {
                    Err(_) => V2Item::Trailer(at, Err("torn end-of-shard trailer".into())),
                    Ok((count, stored)) => {
                        let computed = crc32(&count.to_le_bytes());
                        if stored != computed {
                            V2Item::Trailer(
                                at,
                                Err(format!(
                                    "trailer checksum mismatch \
                                     (stored {stored:#010x}, computed {computed:#010x})"
                                )),
                            )
                        } else if !cur.done() {
                            V2Item::Trailer(
                                at,
                                Err(format!(
                                    "{} trailing byte(s) after the end-of-shard trailer",
                                    cur.bytes.len() - cur.pos
                                )),
                            )
                        } else {
                            V2Item::Trailer(at, Ok(count))
                        }
                    }
                };
                let _ = visit(item);
                return;
            }
            other => {
                let _ = visit(V2Item::BadTag(at, other));
                return;
            }
        }
    }
}

/// The lenient resume decoder over a file's bytes (see the module docs for
/// the damage policy); `path` only labels errors. `expected` is the resuming
/// campaign's identity — shard-local when `shard` is given, global
/// otherwise.
fn decode_lenient(
    path: &Path,
    bytes: &[u8],
    expected: &CheckpointHeader,
    shard: Option<&ShardInfo>,
) -> Result<CheckpointLoad, Error> {
    let err = |message: String| Error::Checkpoint {
        path: path.display().to_string(),
        message,
    };
    if !bytes.starts_with(MAGIC_V2) {
        return Err(err(not_v2_message(bytes)));
    }
    let (header, info, body_start) = read_v2_header(path, bytes)?;
    match shard {
        None => {
            if info.shard_count != 1 {
                return Err(err(format!(
                    "checkpoint is shard {} of {}; expected an unsharded checkpoint",
                    info.shard_id, info.shard_count
                )));
            }
            if header != *expected {
                return Err(err(mismatch_message(&header, expected)));
            }
        }
        Some(want) => {
            let local = CheckpointHeader {
                circuit: header.circuit.clone(),
                total_faults: info.len as usize,
                seq_len: header.seq_len,
            };
            if local != *expected || info != *want {
                return Err(err(format!(
                    "shard checkpoint belongs to a different campaign: file has \
                     circuit `{}`, shard {} of {} covering [{}, {}) of {} faults, \
                     sequence length {}; expected circuit `{}`, shard {} of {} \
                     covering [{}, {}) of {} faults, sequence length {}",
                    header.circuit,
                    info.shard_id,
                    info.shard_count,
                    info.offset,
                    info.offset + info.len,
                    info.total_faults,
                    header.seq_len,
                    expected.circuit,
                    want.shard_id,
                    want.shard_count,
                    want.offset,
                    want.offset + want.len,
                    want.total_faults,
                    expected.seq_len,
                )));
            }
        }
    }

    let mut slots: Vec<Option<FaultResult>> = vec![None; expected.total_faults];
    let mut skipped: Vec<CheckpointSkip> = Vec::new();
    let mut saw_trailer = false;
    let mut stored_count = 0u64;
    let mut frames = 0u64;
    walk_v2_body(bytes, body_start, |item| match item {
        V2Item::Record(ordinal, at, decoded) => {
            frames = ordinal;
            match decoded {
                Ok((global, result)) => {
                    let local = global
                        .checked_sub(info.offset)
                        .filter(|&l| l < info.len)
                        .map(|l| l as usize);
                    match local {
                        None => skipped.push(CheckpointSkip {
                            record: ordinal as usize,
                            message: format!(
                                "record {ordinal} at byte {at}: fault index {global} outside \
                                 the shard range [{}, {})",
                                info.offset,
                                info.offset + info.len
                            ),
                        }),
                        Some(local) if slots[local].is_some() => skipped.push(CheckpointSkip {
                            record: ordinal as usize,
                            message: format!(
                                "record {ordinal} at byte {at}: duplicate record for fault \
                                 {global} (keeping the first)"
                            ),
                        }),
                        Some(local) => slots[local] = Some(result),
                    }
                }
                Err(message) => skipped.push(CheckpointSkip {
                    record: ordinal as usize,
                    message: format!("record {ordinal} at byte {at}: {message}"),
                }),
            }
            true
        }
        V2Item::Trailer(at, outcome) => {
            match outcome {
                Ok(count) => {
                    saw_trailer = true;
                    stored_count = count;
                }
                Err(message) => skipped.push(CheckpointSkip {
                    record: 0,
                    message: format!("byte {at}: {message}"),
                }),
            }
            false
        }
        // A torn tail is dropped silently: the missing-trailer warning below
        // records the cut.
        V2Item::Torn(_) => false,
        V2Item::BadTag(at, tag) => {
            skipped.push(CheckpointSkip {
                record: 0,
                message: format!(
                    "byte {at}: unrecognized tag {tag:#04x}; dropping the rest of the \
                     record stream"
                ),
            });
            false
        }
    });
    if !saw_trailer {
        skipped.push(CheckpointSkip {
            record: 0,
            message: "missing end-of-shard trailer (torn file?); kept the records that \
                      checksummed clean"
                .into(),
        });
    } else if stored_count != frames {
        skipped.push(CheckpointSkip {
            record: 0,
            message: format!(
                "end-of-shard trailer promises {stored_count} record(s), found {frames}"
            ),
        });
    }
    Ok(CheckpointLoad { slots, skipped })
}

/// Reads a v2 shard file **strictly** for an integrity-verified merge: any
/// damage — bad checksum anywhere, malformed payload, torn record, missing
/// or mismatching trailer, duplicate or out-of-range fault index — is a
/// located hard [`Error::Checkpoint`]: the message names the record ordinal
/// and byte offset where applicable.
pub fn read_shard(path: &Path) -> Result<ShardFile, Error> {
    let err = |message: String| Error::Checkpoint {
        path: path.display().to_string(),
        message,
    };
    #[cfg(feature = "failpoints")]
    if let Some(e) = crate::failpoint::io_error("fp/shard.read") {
        return Err(err(format!("cannot read shard file: {e}")));
    }
    let bytes = fs::read(path).map_err(|e| err(format!("cannot read shard file: {e}")))?;
    decode_shard(path, &bytes)
}

/// The strict decoder behind [`read_shard`]; `path` only labels errors.
fn decode_shard(path: &Path, bytes: &[u8]) -> Result<ShardFile, Error> {
    let err = |message: String| Error::Checkpoint {
        path: path.display().to_string(),
        message,
    };
    if !bytes.starts_with(MAGIC_V2) {
        return Err(err(not_v2_message(bytes)));
    }
    let (header, shard, body_start) = read_v2_header(path, bytes)?;
    let mut records: Vec<(u64, FaultResult)> = Vec::new();
    // A set, not a bitmap sized by the header: the shard length is read from
    // the file and must not decide an allocation.
    let mut seen = std::collections::HashSet::new();
    let mut fatal: Option<Error> = None;
    let mut trailer: Option<u64> = None;
    walk_v2_body(bytes, body_start, |item| match item {
        V2Item::Record(ordinal, at, decoded) => match decoded {
            Ok((global, result)) => {
                let local = global
                    .checked_sub(shard.offset)
                    .filter(|&l| l < shard.len);
                match local {
                    None => {
                        fatal = Some(err(
                            format!(
                                "record {ordinal} at byte {at}: fault index {global} outside \
                                 the shard range [{}, {})",
                                shard.offset,
                                shard.offset + shard.len
                            ),
                        ));
                        false
                    }
                    Some(local) if !seen.insert(local) => {
                        fatal = Some(err(
                            format!(
                                "record {ordinal} at byte {at}: duplicate record for \
                                 fault {global}"
                            ),
                        ));
                        false
                    }
                    Some(_) => {
                        records.push((global, result));
                        true
                    }
                }
            }
            Err(message) => {
                fatal = Some(err(format!("record {ordinal} at byte {at}: {message}")));
                false
            }
        },
        V2Item::Trailer(at, outcome) => {
            match outcome {
                Ok(count) => trailer = Some(count),
                Err(message) => fatal = Some(err(format!("byte {at}: {message}"))),
            }
            false
        }
        V2Item::Torn(at) => {
            fatal = Some(err(format!(
                "torn shard file: cut off mid-record at byte {at}"
            )));
            false
        }
        V2Item::BadTag(at, tag) => {
            fatal = Some(err(format!("unrecognized tag {tag:#04x} at byte {at}")));
            false
        }
    });
    if let Some(e) = fatal {
        return Err(e);
    }
    match trailer {
        None => {
            return Err(err("torn shard file: missing end-of-shard trailer".into()))
        }
        Some(count) if count != records.len() as u64 => {
            return Err(err(format!(
                "end-of-shard trailer promises {count} record(s), found {}",
                records.len()
            )))
        }
        Some(_) => {}
    }
    Ok(ShardFile {
        header,
        shard,
        records,
    })
}

/// The "different campaign" message, shared by the resume reader and the
/// shard merge.
pub(crate) fn mismatch_message(found: &CheckpointHeader, expected: &CheckpointHeader) -> String {
    format!(
        "checkpoint belongs to a different campaign: \
         file has circuit `{}`, {} faults, sequence length {}; \
         expected circuit `{}`, {} faults, sequence length {}",
        found.circuit,
        found.total_faults,
        found.seq_len,
        expected.circuit,
        expected.total_faults,
        expected.seq_len
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A per-test, per-process scratch directory, removed when dropped, so
    /// concurrent test runs never share a file.
    struct TestDir(std::path::PathBuf);

    impl TestDir {
        fn new(tag: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("moa-checkpoint-{tag}-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            TestDir(dir)
        }

        fn join(&self, name: &str) -> std::path::PathBuf {
            self.0.join(name)
        }
    }

    impl Drop for TestDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn header() -> CheckpointHeader {
        header_for(5)
    }

    fn header_for(total_faults: usize) -> CheckpointHeader {
        CheckpointHeader {
            circuit: "s27".into(),
            total_faults,
            seq_len: 32,
        }
    }

    fn done(status: FaultStatus, runs: usize) -> FaultResult {
        FaultResult {
            status,
            counters: Counters {
                n_det: 1,
                n_conf: 2,
                n_extra: 3,
            },
            runs,
        }
    }

    fn sample_results() -> Vec<Option<FaultResult>> {
        vec![
            Some(done(
                FaultStatus::DetectedConventional(Detection { time: 4, output: 1 }),
                7,
            )),
            None,
            Some(done(
                FaultStatus::NotDetected {
                    undecided: 2,
                    sequences: 8,
                    truncated: true,
                    aborted: false,
                },
                7,
            )),
            Some(done(
                FaultStatus::BudgetExceeded {
                    stage: BudgetStage::Resimulation,
                    work: 12345,
                },
                7,
            )),
            Some(done(
                FaultStatus::Faulted {
                    message: "boom\nwith \\ newline".into(),
                },
                7,
            )),
        ]
    }

    /// One slot of every status shape (and one unfinished slot).
    fn every_status() -> Vec<Option<FaultResult>> {
        let mut slots = sample_results();
        slots.extend([
            Some(done(
                FaultStatus::DetectedByImplications(PairKey { u: 3, i: 1 }),
                2,
            )),
            Some(done(FaultStatus::SkippedConditionC, 0)),
            Some(done(FaultStatus::DetectedByForcedAssignments, 1)),
            Some(done(FaultStatus::DetectedByExpansion { sequences: 64 }, 9)),
            Some(done(
                FaultStatus::AuditFailed {
                    reason: "cube (1,0)=1 state 3: output 0 at time 2\nnot covered".into(),
                },
                4,
            )),
            Some(done(
                FaultStatus::PartialVerdict {
                    lower_bound: PartialBound::Detected { sequences: 16 },
                    stage_reached: DegradeStage::ExpansionOnly,
                    tripped: BudgetStage::Collection,
                    work_spent: 9001,
                },
                3,
            )),
            Some(done(
                FaultStatus::PartialVerdict {
                    lower_bound: PartialBound::NotDetected {
                        undecided: 4,
                        sequences: 32,
                    },
                    stage_reached: DegradeStage::ExpansionOnly,
                    tripped: BudgetStage::Resimulation,
                    work_spent: 77,
                },
                0,
            )),
            Some(done(
                FaultStatus::PartialVerdict {
                    lower_bound: PartialBound::Unknown,
                    stage_reached: DegradeStage::Conventional,
                    tripped: BudgetStage::Expansion,
                    work_spent: 123,
                },
                0,
            )),
            Some(done(
                FaultStatus::Untestable {
                    proof: moa_analyze::UntestableProof::Unobservable,
                },
                0,
            )),
            Some(done(
                FaultStatus::Untestable {
                    proof: moa_analyze::UntestableProof::ConstantLine { value: false },
                },
                0,
            )),
            Some(done(
                FaultStatus::Untestable {
                    proof: moa_analyze::UntestableProof::ConstantLine { value: true },
                },
                0,
            )),
        ]);
        slots
    }

    /// Byte offsets of the record frames of a valid file, in file order.
    fn record_offsets(bytes: &[u8]) -> Vec<usize> {
        let (_, _, body_start) = read_v2_header(Path::new("x"), bytes).unwrap();
        let mut offsets = Vec::new();
        walk_v2_body(bytes, body_start, |item| {
            if let V2Item::Record(_, at, _) = item {
                offsets.push(at);
            }
            true
        });
        offsets
    }

    /// Appends a well-formed record for `global` to a valid file: the frame
    /// is inserted before the trailer and the trailer's count (and checksum)
    /// is bumped, so only the record's *content* is wrong.
    fn with_extra_record(bytes: &[u8], global: u64, result: &FaultResult) -> Vec<u8> {
        let trailer_at = bytes.len() - 13;
        let count = u64::from_le_bytes(bytes[trailer_at + 1..trailer_at + 9].try_into().unwrap());
        let mut out = bytes[..trailer_at].to_vec();
        push_record(&mut out, global, result);
        out.push(TAG_TRAILER);
        let count_bytes = (count + 1).to_le_bytes();
        out.extend_from_slice(&count_bytes);
        put_u32(&mut out, crc32(&count_bytes));
        out
    }

    #[test]
    fn round_trips_every_status() {
        let dir = TestDir::new("roundtrip");
        let path = dir.join("cp.ckpt");
        let results = every_status();
        let header = header_for(results.len());
        write_checkpoint_v2(&path, &header, None, &results).unwrap();
        let loaded = read_checkpoint(&path, &header).unwrap();
        assert_eq!(loaded.slots, results);
        assert!(loaded.skipped.is_empty());
    }

    #[test]
    fn rejects_mismatched_campaign() {
        let dir = TestDir::new("mismatch");
        let path = dir.join("cp.ckpt");
        write_checkpoint_v2(&path, &header(), None, &sample_results()).unwrap();
        let other = CheckpointHeader {
            circuit: "s208".into(),
            ..header()
        };
        let e = read_checkpoint(&path, &other).unwrap_err();
        assert!(e.to_string().contains("different campaign"), "{e}");

        // A shard file is not an unsharded campaign's checkpoint.
        let (local, info) = shard_fixture();
        write_checkpoint_v2(&path, &local, Some(&info), &sample_results()).unwrap();
        let e = read_checkpoint(&path, &header()).unwrap_err();
        assert!(
            e.to_string().contains("expected an unsharded checkpoint"),
            "{e}"
        );
    }

    #[test]
    fn header_damage_is_still_a_hard_error() {
        let dir = TestDir::new("corrupt");

        let missing = dir.join("does-not-exist.ckpt");
        assert!(read_checkpoint(&missing, &header()).is_err());

        let garbage = dir.join("garbage.ckpt");
        std::fs::write(&garbage, "hello world\n").unwrap();
        let e = read_checkpoint(&garbage, &header()).unwrap_err();
        assert!(e.to_string().contains("not a checkpoint file"), "{e}");

        // The retired text format is refused by name.
        let v1 = dir.join("v1.ckpt");
        std::fs::write(
            &v1,
            "moa-checkpoint v1\ncircuit s27\nfaults 5\nseq-len 32\n",
        )
        .unwrap();
        for e in [
            read_checkpoint(&v1, &header()).unwrap_err(),
            read_shard(&v1).unwrap_err(),
        ] {
            let text = e.to_string();
            assert!(text.contains("format v1 (`moa-checkpoint v1`)"), "{text}");
            assert!(text.contains("no longer supported"), "{text}");
        }

        let path = dir.join("header.ckpt");
        write_checkpoint_v2(&path, &header(), None, &sample_results()).unwrap();
        let valid = std::fs::read(&path).unwrap();
        // Inside the header payload: magic, then the u32 payload length.
        let mut flipped = valid.clone();
        flipped[MAGIC_V2.len() + 4 + 6] ^= 0x01;
        std::fs::write(&path, &flipped).unwrap();
        let e = read_checkpoint(&path, &header()).unwrap_err();
        assert!(e.to_string().contains("header checksum mismatch"), "{e}");

        std::fs::write(&path, &valid[..MAGIC_V2.len() + 10]).unwrap();
        let e = read_checkpoint(&path, &header()).unwrap_err();
        assert!(e.to_string().contains("truncated header"), "{e}");
    }

    #[test]
    fn corrupt_interior_records_are_skipped_with_located_warnings() {
        let dir = TestDir::new("skip");
        let path = dir.join("cp.ckpt");
        write_checkpoint_v2(&path, &header(), None, &sample_results()).unwrap();
        let valid = std::fs::read(&path).unwrap();

        // Damage the second of four records (fault 2): it is skipped with
        // its ordinal and byte offset, and the records after it still land.
        let at = record_offsets(&valid)[1];
        let mut bytes = valid.clone();
        bytes[at + 5] ^= 0x04;
        std::fs::write(&path, &bytes).unwrap();
        let loaded = read_checkpoint(&path, &header()).unwrap();
        let mut expected = sample_results();
        expected[2] = None;
        assert_eq!(
            loaded.slots, expected,
            "records after the damage still load"
        );
        assert_eq!(loaded.skipped.len(), 1, "{:?}", loaded.skipped);
        let skip = &loaded.skipped[0];
        assert_eq!(skip.record, 2, "located at the record ordinal");
        assert!(skip.message.contains("checksum mismatch"), "{skip}");
        let shown = skip.to_string();
        assert!(
            shown.starts_with(&format!("record 2 at byte {at}: ")),
            "{shown}"
        );
        assert_eq!(
            shown.matches("record").count(),
            1,
            "location printed once: {shown}"
        );

        // A well-formed record for a fault outside the campaign is skipped.
        let skip_c = done(FaultStatus::SkippedConditionC, 0);
        std::fs::write(&path, with_extra_record(&valid, 99, &skip_c)).unwrap();
        let loaded = read_checkpoint(&path, &header()).unwrap();
        assert_eq!(loaded.slots, sample_results());
        assert_eq!(loaded.skipped.len(), 1, "{:?}", loaded.skipped);
        assert_eq!(loaded.skipped[0].record, 5);
        assert!(loaded.skipped[0]
            .message
            .contains("outside the shard range"));

        // A duplicate record keeps the first occurrence and warns.
        let forced = done(FaultStatus::DetectedByForcedAssignments, 9);
        std::fs::write(&path, with_extra_record(&valid, 0, &forced)).unwrap();
        let loaded = read_checkpoint(&path, &header()).unwrap();
        assert_eq!(loaded.slots, sample_results(), "first record wins");
        assert_eq!(loaded.skipped.len(), 1);
        assert!(loaded.skipped[0].message.contains("duplicate"));
        let e = decode_shard(&path, &with_extra_record(&valid, 0, &forced)).unwrap_err();
        assert!(e.to_string().contains("record 5 at byte"), "{e}");
    }

    /// Shard 1 of 3 of a 12-fault campaign, covering faults [4, 9). The
    /// local header matches `sample_results()` (5 slots).
    fn shard_fixture() -> (CheckpointHeader, ShardInfo) {
        let info = ShardInfo {
            shard_id: 1,
            shard_count: 3,
            offset: 4,
            len: 5,
            total_faults: 12,
        };
        (header(), info)
    }

    #[test]
    fn v2_round_trips_unsharded() {
        let dir = TestDir::new("v2-roundtrip");
        let path = dir.join("cp.ckpt");
        let results = sample_results();
        write_checkpoint_v2(&path, &header(), None, &results).unwrap();
        assert!(!path.with_extension("tmp").exists(), "temp file renamed away");

        let loaded = read_checkpoint(&path, &header()).unwrap();
        assert_eq!(loaded.slots, results);
        assert!(loaded.skipped.is_empty());

        // The strict reader sees the trivial shard 0 of 1.
        let file = read_shard(&path).unwrap();
        assert_eq!(file.header, header());
        assert_eq!(file.shard, ShardInfo::unsharded(5));
        let indices: Vec<u64> = file.records.iter().map(|(i, _)| *i).collect();
        assert_eq!(indices, vec![0, 2, 3, 4], "None slots write no record");
    }

    #[test]
    fn v2_shard_records_carry_global_indices() {
        let dir = TestDir::new("v2-sharded");
        let path = dir.join("shard-1.ckpt");
        let (local, info) = shard_fixture();
        let results = sample_results();
        write_checkpoint_v2(&path, &local, Some(&info), &results).unwrap();

        let loaded = read_checkpoint_sharded(&path, &local, &info).unwrap();
        assert_eq!(loaded.slots, results, "slots come back shard-local");
        assert!(loaded.skipped.is_empty());

        let file = read_shard(&path).unwrap();
        assert_eq!(file.header.total_faults, 12, "header keeps the global identity");
        assert_eq!(file.shard, info);
        let indices: Vec<u64> = file.records.iter().map(|(i, _)| *i).collect();
        assert_eq!(indices, vec![4, 6, 7, 8], "offset + local slot");

        // Pointing the resume at the wrong slice of the partition is fatal.
        let other = ShardInfo {
            shard_id: 0,
            offset: 0,
            len: 4,
            ..info
        };
        let wrong = CheckpointHeader {
            total_faults: 4,
            ..local.clone()
        };
        let e = read_checkpoint_sharded(&path, &wrong, &other).unwrap_err();
        assert!(e.to_string().contains("different campaign"), "{e}");
    }

    #[test]
    fn v2_single_bit_flip_is_caught_by_the_record_checksum() {
        let dir = TestDir::new("v2-bitflip");
        let path = dir.join("shard-1.ckpt");
        let (local, info) = shard_fixture();
        let results = sample_results();
        write_checkpoint_v2(&path, &local, Some(&info), &results).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // The trailer is the last 13 bytes (tag + u64 count + u32 crc);
        // 20 bytes before the end lands inside the last record's payload.
        let target = bytes.len() - 20;
        bytes[target] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();

        // Lenient resume: the damaged record is skipped with a located
        // warning and its fault re-simulates; everything else loads.
        let loaded = read_checkpoint_sharded(&path, &local, &info).unwrap();
        let mut expected = results;
        expected[4] = None;
        assert_eq!(loaded.slots, expected);
        assert_eq!(loaded.skipped.len(), 1, "{:?}", loaded.skipped);
        assert!(loaded.skipped[0].message.contains("checksum mismatch"));
        assert_eq!(loaded.skipped[0].record, 4, "located at the record ordinal");

        // Strict merge read: the same damage is a located hard error.
        let e = read_shard(&path).unwrap_err();
        let text = e.to_string();
        assert!(text.contains("checksum mismatch"), "{text}");
        assert!(text.contains("record 4"), "{text}");
        assert!(text.contains("shard-1.ckpt"), "the error names the file: {text}");
    }

    #[test]
    fn v2_torn_trailer_warns_on_resume_and_fails_the_merge() {
        let dir = TestDir::new("v2-torn-trailer");
        let path = dir.join("shard-1.ckpt");
        let (local, info) = shard_fixture();
        let results = sample_results();
        write_checkpoint_v2(&path, &local, Some(&info), &results).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Cut into the trailer: all records are intact, the end-of-shard
        // marker is not.
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();

        let loaded = read_checkpoint_sharded(&path, &local, &info).unwrap();
        assert_eq!(loaded.slots, results, "every record still loads");
        assert!(
            loaded.skipped.iter().any(|s| s.message.contains("trailer")),
            "{:?}",
            loaded.skipped
        );

        let e = read_shard(&path).unwrap_err();
        assert!(e.to_string().contains("trailer"), "{e}");
    }

    #[test]
    fn v2_torn_record_drops_the_tail_on_resume_and_fails_the_merge() {
        let dir = TestDir::new("v2-torn-record");
        let path = dir.join("shard-1.ckpt");
        let (local, info) = shard_fixture();
        let results = sample_results();
        write_checkpoint_v2(&path, &local, Some(&info), &results).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Cut off mid-way through the last record (before the trailer).
        std::fs::write(&path, &bytes[..bytes.len() - 13 - 6]).unwrap();

        let loaded = read_checkpoint_sharded(&path, &local, &info).unwrap();
        let mut expected = results;
        expected[4] = None;
        assert_eq!(loaded.slots, expected, "the torn record re-simulates");
        assert!(
            loaded
                .skipped
                .iter()
                .any(|s| s.message.contains("missing end-of-shard trailer")),
            "{:?}",
            loaded.skipped
        );

        let e = read_shard(&path).unwrap_err();
        assert!(e.to_string().contains("torn shard file"), "{e}");
    }

    #[test]
    fn v2_trailer_count_mismatch_is_a_lie_the_merge_rejects() {
        let dir = TestDir::new("v2-lying-trailer");
        let path = dir.join("shard-1.ckpt");
        let (local, info) = shard_fixture();
        write_checkpoint_v2(&path, &local, Some(&info), &sample_results()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Rewrite the trailer to promise one extra record, with a *valid*
        // checksum — only the count cross-check can catch this.
        let trailer_at = bytes.len() - 13;
        let count = 5u64.to_le_bytes();
        bytes[trailer_at + 1..trailer_at + 9].copy_from_slice(&count);
        bytes[trailer_at + 9..].copy_from_slice(&crc32(&count).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();

        let e = read_shard(&path).unwrap_err();
        assert!(
            e.to_string().contains("promises 5 record(s), found 4"),
            "{e}"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        #[test]
        fn v2_round_trips_arbitrary_results(
            results in proptest::collection::vec(arb_slot(), 1..20),
            offset in 0u64..50,
        ) {
            let total = offset + results.len() as u64 + 3;
            let info = ShardInfo {
                shard_id: 0,
                shard_count: 2,
                offset,
                len: results.len() as u64,
                total_faults: total,
            };
            let local = CheckpointHeader {
                circuit: "prop".into(),
                total_faults: results.len(),
                seq_len: 17,
            };
            let dir = TestDir::new("v2-prop");
            let path = dir.join("cp.ckpt");
            write_checkpoint_v2(&path, &local, Some(&info), &results).unwrap();
            let loaded = read_checkpoint_sharded(&path, &local, &info).unwrap();
            proptest::prop_assert_eq!(&loaded.slots, &results);
            proptest::prop_assert!(loaded.skipped.is_empty());
            let file = read_shard(&path).unwrap();
            let live = results.iter().filter(|r| r.is_some()).count();
            proptest::prop_assert_eq!(file.records.len(), live);
            for (global, _) in &file.records {
                proptest::prop_assert!(
                    *global >= offset && *global < offset + results.len() as u64
                );
            }
        }
    }

    /// `true` when `e` names the file and where in it the damage is.
    fn is_located(e: &Error, path: &Path) -> bool {
        let text = e.to_string();
        text.starts_with(&format!("checkpoint {}: ", path.display()))
            && ["byte", "record", "header", "magic", "trailer"]
                .iter()
                .any(|word| text.contains(word))
    }

    /// Feeds one damaged file to both decoders. The lenient one must not
    /// panic, and whatever it loads must be a record of `original` — damage
    /// drops a record, never misreads one. The strict one must refuse the
    /// file with a located error.
    fn assert_damage_is_caught(
        bytes: &[u8],
        header: &CheckpointHeader,
        original: &[Option<FaultResult>],
    ) {
        let path = Path::new("fuzz.ckpt");
        if let Ok(load) = decode_lenient(path, bytes, header, None) {
            for (index, (slot, want)) in load.slots.iter().zip(original).enumerate() {
                assert!(
                    slot.is_none() || slot == want,
                    "slot {index} misread: {slot:?}"
                );
            }
        }
        match decode_shard(path, bytes) {
            Ok(file) => panic!("the strict decoder accepted a damaged file: {file:?}"),
            Err(e) => assert!(is_located(&e, path), "unlocated error: {e}"),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]
        #[test]
        fn every_bit_flip_and_truncation_of_a_valid_file_is_caught(
            results in proptest::collection::vec(arb_slot(), 1..6),
        ) {
            let header = header_for(results.len());
            let bytes = encode_v2(&header, None, &results);
            for len in 0..bytes.len() {
                assert_damage_is_caught(&bytes[..len], &header, &results);
            }
            for bit in 0..bytes.len() * 8 {
                let mut flipped = bytes.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_damage_is_caught(&flipped, &header, &results);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]
        #[test]
        fn decoders_never_panic_on_random_bytes(
            tail in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..256),
            prefix in 0usize..3,
        ) {
            // The random tail follows nothing, the magic, or a valid header.
            let header = header();
            let valid = encode_v2(&header, None, &[]);
            let mut bytes = match prefix {
                0 => Vec::new(),
                1 => MAGIC_V2.to_vec(),
                _ => valid[..valid.len() - 13].to_vec(),
            };
            bytes.extend_from_slice(&tail);
            assert_damage_is_caught(&bytes, &header, &[None, None, None, None, None]);
        }
    }

    /// `Some(result)` three times as often as the `None` (not yet
    /// simulated) slot.
    fn arb_slot() -> impl proptest::prelude::Strategy<Value = Option<FaultResult>> {
        use proptest::prelude::*;
        prop_oneof![
            Just(None),
            arb_fault_result().prop_map(Some),
            arb_fault_result().prop_map(Some),
            arb_fault_result().prop_map(Some),
        ]
    }

    /// A strategy over every [`FaultStatus`] shape, with messages that
    /// exercise the string escaping (newlines, backslashes, spaces).
    fn arb_fault_result() -> impl proptest::prelude::Strategy<Value = FaultResult> {
        use proptest::prelude::*;
        let message = "([a-z]|\\\\|\n| ){0,12}";
        let status = prop_oneof![
            (any::<u16>(), any::<u8>()).prop_map(|(time, output)| {
                FaultStatus::DetectedConventional(Detection {
                    time: time as usize,
                    output: output as usize,
                })
            }),
            Just(FaultStatus::SkippedConditionC),
            (any::<u16>(), any::<u16>()).prop_map(|(u, i)| {
                FaultStatus::DetectedByImplications(PairKey {
                    u: u as usize,
                    i: i as usize,
                })
            }),
            Just(FaultStatus::DetectedByForcedAssignments),
            (1u16..65).prop_map(|sequences| FaultStatus::DetectedByExpansion {
                sequences: sequences as usize,
            }),
            (any::<u8>(), any::<u8>(), any::<bool>(), any::<bool>()).prop_map(
                |(undecided, sequences, truncated, aborted)| FaultStatus::NotDetected {
                    undecided: undecided as usize,
                    sequences: sequences as usize,
                    truncated,
                    aborted,
                }
            ),
            prop_oneof![
                Just(moa_analyze::UntestableProof::Unobservable),
                any::<bool>().prop_map(|value| {
                    moa_analyze::UntestableProof::ConstantLine { value }
                }),
            ]
            .prop_map(|proof| FaultStatus::Untestable { proof }),
            (arb_budget_stage(), any::<u32>()).prop_map(|(stage, work)| {
                FaultStatus::BudgetExceeded {
                    stage,
                    work: u64::from(work),
                }
            }),
            (arb_partial_bound(), arb_budget_stage(), any::<bool>(), any::<u32>()).prop_map(
                |(lower_bound, tripped, expansion_only, work_spent)| {
                    FaultStatus::PartialVerdict {
                        lower_bound,
                        stage_reached: if expansion_only {
                            DegradeStage::ExpansionOnly
                        } else {
                            DegradeStage::Conventional
                        },
                        tripped,
                        work_spent: u64::from(work_spent),
                    }
                }
            ),
            message.prop_map(|message| FaultStatus::Faulted { message }),
            message.prop_map(|reason| FaultStatus::AuditFailed { reason }),
        ];
        (status, any::<u8>(), any::<u16>(), any::<u16>(), any::<u16>()).prop_map(
            |(status, runs, n_det, n_conf, n_extra)| FaultResult {
                status,
                counters: Counters {
                    n_det: u64::from(n_det),
                    n_conf: u64::from(n_conf),
                    n_extra: u64::from(n_extra),
                },
                runs: runs as usize,
            },
        )
    }

    fn arb_budget_stage() -> impl proptest::prelude::Strategy<Value = BudgetStage> {
        use proptest::prelude::*;
        prop_oneof![
            Just(BudgetStage::Collection),
            Just(BudgetStage::Expansion),
            Just(BudgetStage::Resimulation),
        ]
    }

    fn arb_partial_bound() -> impl proptest::prelude::Strategy<Value = PartialBound> {
        use proptest::prelude::*;
        prop_oneof![
            (1u8..65).prop_map(|sequences| PartialBound::Detected {
                sequences: sequences as usize,
            }),
            (any::<u8>(), any::<u8>()).prop_map(|(undecided, sequences)| {
                PartialBound::NotDetected {
                    undecided: undecided as usize,
                    sequences: sequences as usize,
                }
            }),
            Just(PartialBound::Unknown),
        ]
    }
}
