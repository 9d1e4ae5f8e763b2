//! The content-addressed artifact store.
//!
//! One sweep run owns one directory:
//!
//! ```text
//! <run-dir>/
//!   manifest.json                  # spec + per-job status and summaries
//!   table2.csv                     # the paper's Table 2 layout, one row per cell
//!   jobs/<key>.json                # analysis result, keyed by content hash
//!   jobs/<key>.samples.slog        # chunk log of a pub_tac fit's campaign sample
//!   stages/<digest>.json           # per-stage intermediate artifacts
//!   stages/<digest>.samples.slog   # streamed campaign chunk logs (checkpoints)
//! ```
//!
//! A job artifact carries the summary and the analysis result without its
//! bulk: no raw sample and no ECCDF values. The sample is read back from
//! the job's chunk log ([`ArtifactStore::load_job_sample`]), and any
//! curve is rebuilt from it.
//!
//! Job keys hash everything result-affecting ([`crate::JobSpec::key`]), so
//! a job artifact of the current schema is, by construction, the artifact
//! a re-run would produce ([`ArtifactStore::has_job_result`]). Stage
//! artifacts are keyed by stage digest ([`mbcr::stage::StageDigests`])
//! and shared across sweeps in the same store — a warm re-run after a
//! knob change resumes from the last stage the change did not invalidate.
//!
//! JSON artifacts are streamed into a unique temp file and renamed into
//! place, so an interrupted sweep never leaves torn documents behind; readers
//! additionally validate schema tags before treating any file as a cache
//! hit. Campaign samples are different: they stream through [`SampleLog`],
//! an append-only, CRC-framed chunk log that is never rewritten whole —
//! an interrupted writer loses at most its torn final frame, and the valid
//! prefix seeds the resumed campaign.

use std::fs;
use std::io::{self, Read as _, Seek as _, Write as _};
use std::path::{Path, PathBuf};

use mbcr::stage::StageStore;
use mbcr_json::{csv_field, Json};

use crate::JobSummary;

/// Handle on a run directory.
///
/// A store separates two concerns: the **content root** (`jobs/`,
/// `stages/` — content-addressed, shareable across sweeps) and the **run
/// scope** (`manifest.json`, `table2.csv` — the description of *one*
/// sweep). A store opened with [`ArtifactStore::open`] keeps both at the
/// same directory, which is the single-sweep layout every `mbcr sweep`
/// run produces. A multi-sweep service derives one scope per submitted
/// sweep with [`ArtifactStore::run_scope`]: all scopes share the content
/// root (so identical stages execute once, store-wide), while each keeps
/// its own manifest and table under `sweeps/<id>/`.
#[derive(Debug, Clone)]
pub struct ArtifactStore {
    root: PathBuf,
    run_dir: PathBuf,
}

impl ArtifactStore {
    /// Opens (creating if needed) a run directory.
    ///
    /// # Errors
    ///
    /// [`io::Error`] if the directories cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        fs::create_dir_all(root.join("jobs"))?;
        fs::create_dir_all(root.join("stages"))?;
        let run_dir = root.clone();
        Ok(Self { root, run_dir })
    }

    /// A scope over the same content root whose run-level artifacts
    /// (manifest, Table 2, record journal) live under `sweeps/<id>/` —
    /// the per-sweep view a multi-sweep service finalizes into. Content
    /// paths (`jobs/`, `stages/`) are unchanged, so every scope of one
    /// store shares one content-addressed artifact universe.
    ///
    /// # Errors
    ///
    /// [`io::Error`] if the scope directory cannot be created.
    pub fn run_scope(&self, id: &str) -> io::Result<Self> {
        let run_dir = self.root.join("sweeps").join(id);
        fs::create_dir_all(&run_dir)?;
        Ok(Self {
            root: self.root.clone(),
            run_dir,
        })
    }

    /// The content root (shared by every run scope of this store).
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The run-scope directory holding this scope's manifest and table
    /// (equals [`ArtifactStore::root`] for stores opened directly).
    #[must_use]
    pub fn run_dir(&self) -> &Path {
        &self.run_dir
    }

    /// The service queue directory (`queue/` under the content root):
    /// one JSON entry per submitted sweep, the durable state a killed
    /// service daemon resumes its whole queue from.
    #[must_use]
    pub fn queue_dir(&self) -> PathBuf {
        self.root.join("queue")
    }

    /// Path of this scope's completed-job journal: one JSON line per
    /// terminal job record, appended as the sweep progresses, so a
    /// restarted daemon resumes mid-sweep with truthful statuses.
    #[must_use]
    pub fn records_path(&self) -> PathBuf {
        self.run_dir.join("records.jsonl")
    }

    /// Path of a job's JSON artifact.
    #[must_use]
    pub fn job_path(&self, key: &str) -> PathBuf {
        self.root.join("jobs").join(format!("{key}.json"))
    }

    /// Path of a job's sample chunk log.
    #[must_use]
    pub fn sample_path(&self, key: &str) -> PathBuf {
        self.root.join("jobs").join(format!("{key}.samples.slog"))
    }

    /// Path of a stage artifact (content-addressed by stage digest).
    #[must_use]
    pub fn stage_path(&self, digest: u64) -> PathBuf {
        self.root.join("stages").join(format!("{digest:016x}.json"))
    }

    /// Path of a stage's streamed sample chunk log (the campaign stage's
    /// intra-stage checkpoints live here).
    #[must_use]
    pub fn stage_samples_path(&self, digest: u64) -> PathBuf {
        self.root
            .join("stages")
            .join(format!("{digest:016x}.samples.slog"))
    }

    /// Path of the manifest (scoped — see [`ArtifactStore::run_scope`]).
    #[must_use]
    pub fn manifest_path(&self) -> PathBuf {
        self.run_dir.join("manifest.json")
    }

    /// Path of the Table 2 CSV (scoped — see [`ArtifactStore::run_scope`]).
    #[must_use]
    pub fn table2_path(&self) -> PathBuf {
        self.run_dir.join("table2.csv")
    }

    /// Runs per frame of a job-level sample log.
    pub const JOB_SAMPLE_CHUNK: usize = 65_536;

    /// Whether `jobs/` holds a complete result for `key`: a job artifact
    /// of this schema whose summary parses ([`Self::load_summary`]) and,
    /// when `sample_runs` is given, a sample log covering that many runs
    /// (a CRC-checked header scan; nothing is decoded).
    #[must_use]
    pub fn has_job_result(&self, key: &str, sample_runs: Option<u64>) -> bool {
        self.load_summary(key).is_some()
            && sample_runs.is_none_or(|runs| {
                SampleLog::at(self.sample_path(key))
                    .meta()
                    .is_some_and(|(logged, _)| logged >= runs)
            })
    }

    /// Loads a job's sample from its chunk log (the valid prefix; a torn
    /// tail is discarded). `None` when no log exists.
    #[must_use]
    pub fn load_job_sample(&self, key: &str) -> Option<Vec<u64>> {
        SampleLog::at(self.sample_path(key))
            .load()
            .map(|c| c.samples)
    }

    /// Scans `stages/` for streamed campaign chunk logs and reports each
    /// one's progress, in digest order. Works with or without a manifest
    /// (an interrupted first sweep has only logs), and ignores stray
    /// `*.tmpN` files left behind by crashed writers.
    #[must_use]
    pub fn campaign_progress(&self) -> Vec<CampaignProgress> {
        let mut out = Vec::new();
        let Ok(entries) = fs::read_dir(self.root.join("stages")) else {
            return out;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(hex) = name.to_str().and_then(|n| n.strip_suffix(".samples.slog")) else {
                continue; // stage JSON, temp files, foreign strays
            };
            let Ok(digest) = u64::from_str_radix(hex, 16) else {
                continue;
            };
            // Decode-free header scan: progress needs run counts, not the
            // samples themselves.
            if let Some((collected, total)) = SampleLog::at(entry.path()).meta() {
                out.push(CampaignProgress {
                    digest,
                    collected: usize::try_from(collected).unwrap_or(usize::MAX),
                    total,
                });
            }
        }
        out.sort_by_key(|p| p.digest);
        out
    }

    /// Writes a job artifact (atomically: temp file + rename) and, when
    /// given, its sample chunk log. Samples are appended frame by frame
    /// ([`Self::JOB_SAMPLE_CHUNK`] runs each) and only past the log's
    /// valid prefix — a re-run over an existing log appends nothing.
    ///
    /// # Errors
    ///
    /// [`io::Error`] on filesystem failures.
    pub fn write_job(
        &self,
        key: &str,
        summary: &JobSummary,
        result: Json,
        sample: Option<&[u64]>,
    ) -> io::Result<()> {
        if let Some(sample) = sample {
            let log = SampleLog::at(self.sample_path(key));
            let mut at = log.load().map_or(0, |c| c.samples.len());
            while at < sample.len() {
                let end = (at + Self::JOB_SAMPLE_CHUNK).min(sample.len());
                log.append(at, sample.len(), &sample[at..end])?;
                at = end;
            }
        }
        let artifact = Json::Obj(vec![
            ("schema".to_string(), crate::SCHEMA.into()),
            (
                "summary".to_string(),
                mbcr_json::Serialize::to_json(summary),
            ),
            ("result".to_string(), result),
        ]);
        write_json_atomic(&self.job_path(key), &artifact)
    }

    /// Loads the summary block of a cached artifact. Returns `None` when
    /// the artifact is missing, unparsable, or from another schema — the
    /// caller then simply re-executes the job.
    #[must_use]
    pub fn load_summary(&self, key: &str) -> Option<JobSummary> {
        let text = fs::read_to_string(self.job_path(key)).ok()?;
        let doc = mbcr_json::parse(&text).ok()?;
        if doc.get("schema")?.as_str()? != crate::SCHEMA {
            return None;
        }
        JobSummary::from_json(doc.get("summary")?)
    }

    /// Writes the run manifest.
    ///
    /// # Errors
    ///
    /// [`io::Error`] on filesystem failures.
    pub fn write_manifest(&self, manifest: &Json) -> io::Result<()> {
        write_json_atomic(&self.manifest_path(), manifest)
    }

    /// Loads the run manifest, if one exists and parses.
    #[must_use]
    pub fn load_manifest(&self) -> Option<Json> {
        let text = fs::read_to_string(self.manifest_path()).ok()?;
        mbcr_json::parse(&text).ok()
    }

    /// Writes the Table 2 CSV (the paper's layout, plus provenance
    /// columns).
    ///
    /// # Errors
    ///
    /// [`io::Error`] on filesystem failures.
    pub fn write_table2(&self, rows: &[Table2Row]) -> io::Result<()> {
        let mut csv = String::from(
            "benchmark,input,geometry,seed,R_orig,R_pub,R_tac,R_pub_tac,\
             pwcet_orig,pwcet_pub,pwcet_pub_tac,pwcet_multipath\n",
        );
        for row in rows {
            csv.push_str(&row.csv_line());
            csv.push('\n');
        }
        write_atomic(&self.table2_path(), csv.as_bytes())
    }
}

impl StageStore for ArtifactStore {
    /// Loads a stage artifact. Returns `None` when the file is missing or
    /// does not parse — a torn write is never a cache hit (the caller
    /// additionally validates the schema/digest envelope).
    fn load_stage(&self, digest: u64) -> Option<Json> {
        let text = fs::read_to_string(self.stage_path(digest)).ok()?;
        mbcr_json::parse(&text).ok()
    }

    fn save_stage(&self, digest: u64, artifact: &Json) -> io::Result<()> {
        write_json_atomic(&self.stage_path(digest), artifact)
    }

    /// Loads the valid prefix of the stage's streamed sample chunk log —
    /// a torn final chunk is discarded, never part of the prefix.
    fn load_samples(&self, digest: u64) -> Option<Vec<u64>> {
        SampleLog::at(self.stage_samples_path(digest))
            .load()
            .map(|c| c.samples)
    }

    fn append_samples(
        &self,
        digest: u64,
        start: usize,
        total: usize,
        samples: &[u64],
    ) -> io::Result<()> {
        let _span = mbcr_obs::span(mbcr_obs::SpanKind::CampaignChunk, "store-append")
            .field("digest", format!("{digest:016x}"))
            .field("runs", samples.len().to_string());
        SampleLog::at(self.stage_samples_path(digest)).append(start, total, samples)
    }

    fn reset_samples(&self, digest: u64) -> io::Result<()> {
        SampleLog::at(self.stage_samples_path(digest)).reset()
    }
}

/// Magic prefix of a sample chunk log.
const SLOG_MAGIC: &[u8; 8] = b"MBCRSLG1";
/// Frame header: start `u64` + total `u64` + count `u32` + payload length
/// `u32` + encoding `u8` + CRC-32 `u32`, all little-endian.
const FRAME_HEADER: usize = 8 + 8 + 4 + 4 + 1 + 4;
/// Payload is raw little-endian `u64`s.
const ENC_RAW: u8 = 0;
/// Payload is a LEB128 varint first value followed by zigzag-varint deltas
/// — the "compression" that makes 500k-run cycle samples fit comfortably.
const ENC_DELTA: u8 = 1;

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320), table-driven — appends
/// re-validate the whole log, so the byte loop sits on the checkpoint
/// hot path.
fn crc32(seed: u32, bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut crc = i as u32;
            let mut bit = 0;
            while bit < 8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
                bit += 1;
            }
            table[i] = crc;
            i += 1;
        }
        table
    };
    let mut crc = !seed;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn read_varint(bytes: &[u8], at: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *bytes.get(*at)?;
        *at += 1;
        if shift >= 64 || (shift == 63 && byte > 1) {
            return None; // overlong encoding
        }
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn encode_raw(samples: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(samples.len() * 8);
    for &v in samples {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn encode_delta(samples: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(samples.len() * 3);
    let mut prev = 0u64;
    for (i, &v) in samples.iter().enumerate() {
        if i == 0 {
            push_varint(&mut out, v);
        } else {
            push_varint(&mut out, zigzag(v.wrapping_sub(prev) as i64));
        }
        prev = v;
    }
    out
}

fn decode_payload(encoding: u8, payload: &[u8], count: usize) -> Option<Vec<u64>> {
    match encoding {
        ENC_RAW => {
            if count.checked_mul(8) != Some(payload.len()) {
                return None;
            }
            Some(
                payload
                    .chunks_exact(8)
                    .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
                    .collect(),
            )
        }
        ENC_DELTA => {
            // Every varint is at least one byte, so a count beyond the
            // payload length is bogus — reject before allocating.
            if count > payload.len() {
                return None;
            }
            let mut out = Vec::with_capacity(count);
            let mut at = 0usize;
            let mut prev = 0u64;
            for i in 0..count {
                let raw = read_varint(payload, &mut at)?;
                let v = if i == 0 {
                    raw
                } else {
                    prev.wrapping_add(unzigzag(raw) as u64)
                };
                out.push(v);
                prev = v;
            }
            (at == payload.len()).then_some(out)
        }
        _ => None,
    }
}

/// What a scan of a chunk log recovered: the valid, contiguous sample
/// prefix (a torn or corrupt tail is discarded, never returned).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleLogContents {
    /// Decoded samples, in run-index order.
    pub samples: Vec<u64>,
    /// The campaign's resolved run count, as recorded by the last valid
    /// frame (`0` when the log has no frames yet).
    pub total: u64,
}

/// How much of each frame a scan materializes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScanDepth {
    /// Decode every payload into samples (reads).
    Decode,
    /// CRC-validate frames but keep only run counts — what an append
    /// needs, without re-decoding the whole log on every checkpoint.
    MetaOnly,
}

/// Result of scanning a log file: decoded contents plus where the valid
/// byte prefix ends (everything after is a torn tail to truncate away).
struct LogScan {
    /// Decoded samples (empty under [`ScanDepth::MetaOnly`]).
    contents: SampleLogContents,
    /// Valid runs covered by the frame prefix (== `contents.samples.len()`
    /// under [`ScanDepth::Decode`]).
    run_count: u64,
    valid_bytes: u64,
    magic_ok: bool,
}

/// An append-only, CRC-framed chunk log of campaign execution times.
///
/// Layout: an 8-byte magic, then zero or more frames. Each frame carries
/// the absolute run index of its first sample, the campaign's resolved
/// run count (for progress reporting), a sample count, a payload length,
/// a payload encoding (raw little-endian `u64`s, or delta-varint
/// compressed — the writer picks whichever is smaller, deterministically)
/// and a CRC-32 over header and payload. Readers accept the longest valid,
/// contiguous frame prefix and discard everything after the first invalid
/// byte — a torn final frame from a killed writer is dropped, never
/// trusted. Appends are idempotent (a frame entirely covered by logged
/// runs is a no-op, a partially covered one appends only the uncovered
/// tail) and reject gaps, so replayed or checkpoint-interval-shifted
/// writers of the same content-addressed log converge on the same decoded
/// runs — and writers sharing one interval on identical bytes.
#[derive(Debug, Clone)]
pub struct SampleLog {
    path: PathBuf,
}

impl SampleLog {
    /// A handle on the log at `path` (nothing is opened until used).
    #[must_use]
    pub fn at(path: impl Into<PathBuf>) -> Self {
        Self { path: path.into() }
    }

    /// The log's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn scan(&self, depth: ScanDepth) -> io::Result<LogScan> {
        Ok(Self::scan_bytes(&fs::read(&self.path)?, depth))
    }

    fn scan_bytes(bytes: &[u8], depth: ScanDepth) -> LogScan {
        let magic_ok =
            bytes.len() >= SLOG_MAGIC.len() && bytes[..SLOG_MAGIC.len()] == SLOG_MAGIC[..];
        let mut scan = LogScan {
            contents: SampleLogContents {
                samples: Vec::new(),
                total: 0,
            },
            run_count: 0,
            valid_bytes: if magic_ok { SLOG_MAGIC.len() as u64 } else { 0 },
            magic_ok,
        };
        if !magic_ok {
            return scan;
        }
        // Nothing in the file is trusted until proven: header fields are
        // range-checked with overflow-safe arithmetic even after the CRC
        // passes (the CRC is integrity against torn writes, not a
        // guarantee a foreign tool wrote sane values).
        let mut at = SLOG_MAGIC.len();
        while bytes.len() >= at + FRAME_HEADER {
            let h = &bytes[at..at + FRAME_HEADER];
            let start = u64::from_le_bytes(h[0..8].try_into().expect("8 bytes"));
            let total = u64::from_le_bytes(h[8..16].try_into().expect("8 bytes"));
            let count = u32::from_le_bytes(h[16..20].try_into().expect("4 bytes")) as u64;
            let payload_len = u32::from_le_bytes(h[20..24].try_into().expect("4 bytes")) as usize;
            let encoding = h[24];
            let crc = u32::from_le_bytes(h[25..29].try_into().expect("4 bytes"));
            let Some(payload_end) = (at + FRAME_HEADER).checked_add(payload_len) else {
                break;
            };
            if bytes.len() < payload_end {
                break; // truncated payload: torn tail
            }
            let payload = &bytes[at + FRAME_HEADER..payload_end];
            let crc_input = crc32(crc32(0, &h[0..25]), payload);
            if crc_input != crc {
                break;
            }
            let Some(frame_end) = start.checked_add(count) else {
                break;
            };
            if count == 0 {
                break; // writers never emit empty frames
            }
            let have = scan.run_count;
            if start > have {
                break; // gap: treat the rest as invalid
            }
            if depth == ScanDepth::Decode && frame_end > have {
                let Some(samples) = decode_payload(encoding, payload, count as usize) else {
                    break;
                };
                // `have - start` samples of this frame are already held
                // (a replayed or interval-shifted writer); append only
                // the uncovered tail — content-addressing guarantees the
                // overlap carries identical values.
                scan.contents
                    .samples
                    .extend_from_slice(&samples[(have - start) as usize..]);
            }
            scan.run_count = scan.run_count.max(frame_end);
            scan.contents.total = total;
            scan.valid_bytes = payload_end as u64;
            at = payload_end;
        }
        scan
    }

    /// Loads the valid prefix of the log; `None` when the file does not
    /// exist or is not a chunk log (bad magic).
    #[must_use]
    pub fn load(&self) -> Option<SampleLogContents> {
        let scan = self.scan(ScanDepth::Decode).ok()?;
        scan.magic_ok.then_some(scan.contents)
    }

    /// The log's progress — `(valid runs, campaign total)` — from a
    /// CRC-validated, decode-free header scan. `None` when the file does
    /// not exist or is not a chunk log.
    #[must_use]
    pub fn meta(&self) -> Option<(u64, u64)> {
        let scan = self.scan(ScanDepth::MetaOnly).ok()?;
        scan.magic_ok
            .then_some((scan.run_count, scan.contents.total))
    }

    /// Deletes the log wholesale — the recovery path when a log's content
    /// diverges from what its digest demands (corruption that slipped past
    /// the CRC, or a foreign file): the rewriting campaign then recreates
    /// it from scratch instead of leaving poisoned bytes behind.
    ///
    /// # Errors
    ///
    /// Filesystem failures other than the file already being gone.
    pub fn reset(&self) -> io::Result<()> {
        match fs::remove_file(&self.path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            other => other,
        }
    }

    /// Appends runs `start .. start + samples.len()` (of a campaign with
    /// `total` resolved runs) as one frame, discarding any torn tail
    /// first. Idempotent: an append entirely covered by logged runs is a
    /// no-op, and one partially covered (a writer resuming under a
    /// different checkpoint interval) appends only the uncovered tail.
    /// An exclusive advisory lock is held across the validate-truncate-
    /// write sequence, so concurrent same-digest writers (two processes
    /// sharing one store) serialize instead of truncating each other's
    /// in-flight frames.
    ///
    /// # Errors
    ///
    /// Filesystem failures, or an append that would leave a gap behind
    /// the logged prefix.
    pub fn append(&self, start: usize, total: usize, samples: &[u64]) -> io::Result<()> {
        if let Some(parent) = self.path.parent() {
            fs::create_dir_all(parent)?;
        }
        let mut file = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&self.path)?;
        file.lock()?; // released when `file` drops
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        // Metadata-only scan: an append needs the valid byte/run prefix,
        // not the decoded samples — checkpointing stays O(file bytes),
        // not O(file bytes × decode) per interval.
        let scan = Self::scan_bytes(&bytes, ScanDepth::MetaOnly);
        let have = usize::try_from(scan.run_count).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                "sample log beyond addressable size",
            )
        })?;
        if have >= start + samples.len() {
            return Ok(()); // replayed append, already durable
        }
        if have < start {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "sample-log {}: have {have} runs, append covers {start}..{}",
                    self.path.display(),
                    start + samples.len()
                ),
            ));
        }
        // Partial overlap: keep the durable prefix, append the rest.
        let samples = &samples[have - start..];
        let start = have;

        let raw = encode_raw(samples);
        let delta = encode_delta(samples);
        let (encoding, payload) = if delta.len() < raw.len() {
            (ENC_DELTA, delta)
        } else {
            (ENC_RAW, raw)
        };
        let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
        frame.extend_from_slice(&(start as u64).to_le_bytes());
        frame.extend_from_slice(&(total as u64).to_le_bytes());
        frame.extend_from_slice(&u32::try_from(samples.len()).map_err(too_big)?.to_le_bytes());
        frame.extend_from_slice(&u32::try_from(payload.len()).map_err(too_big)?.to_le_bytes());
        frame.push(encoding);
        let crc = crc32(crc32(0, &frame), &payload);
        frame.extend_from_slice(&crc.to_le_bytes());
        frame.extend_from_slice(&payload);

        if scan.magic_ok {
            // Drop the torn tail (if any), then append after the valid
            // prefix.
            file.set_len(scan.valid_bytes)?;
            file.seek(io::SeekFrom::End(0))?;
        } else {
            // Fresh or foreign file: (re)initialize the log wholesale.
            // (The cursor sits wherever read_to_end left it — rewind, or
            // the magic would land past a sparse hole.)
            file.set_len(0)?;
            file.seek(io::SeekFrom::Start(0))?;
            file.write_all(SLOG_MAGIC)?;
        }
        file.write_all(&frame)?;
        file.sync_all()
    }
}

fn too_big(e: std::num::TryFromIntError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("chunk too large: {e}"))
}

/// Progress of one streamed campaign, recovered by scanning a store's
/// chunk logs — readable while (or after) a sweep runs, manifest or not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignProgress {
    /// The campaign stage's content digest (the log's address).
    pub digest: u64,
    /// Valid runs on disk.
    pub collected: usize,
    /// The campaign's resolved run count.
    pub total: u64,
}

fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    write_atomic_with(path, |w| w.write_all(bytes))
}

/// Writes `doc` atomically, streamed straight into the temp file: the
/// bytes equal `doc.to_pretty()`, but no rendered copy is ever held in
/// memory next to the tree.
pub(crate) fn write_json_atomic(path: &Path, doc: &Json) -> io::Result<()> {
    write_atomic_with(path, |w| doc.write_pretty(w))
}

/// The one atomic-write path: `write` fills a buffered unique temp file,
/// which is fsync'd and renamed over `path`, so readers see either the
/// old file or the whole new one. A failed write removes its temp file.
fn write_atomic_with(
    path: &Path,
    write: impl FnOnce(&mut io::BufWriter<fs::File>) -> io::Result<()>,
) -> io::Result<()> {
    // Self-healing: a run dir shipped without one of its subdirectories
    // (e.g. only the content-addressed stages/ tree was copied) grows the
    // missing directory back instead of failing the job.
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    // Unique per writer: two pool workers may target the same path (e.g. a
    // spec that names the same cell twice), and sharing one temp file would
    // interleave their bytes.
    static WRITER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let serial = WRITER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let tmp = path.with_extension(format!("tmp{serial}"));
    let result = (|| {
        let mut w = io::BufWriter::with_capacity(64 * 1024, fs::File::create(&tmp)?);
        write(&mut w)?;
        let f = w.into_inner().map_err(io::IntoInnerError::into_error)?;
        f.sync_all()?;
        fs::rename(&tmp, path)
    })();
    if result.is_err() {
        // A failed write must not leak its temp file; crashed processes
        // still can (no chance to clean up), which is why store scans
        // ignore `*.tmpN` strays.
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// One row of the Table 2 aggregation: a (benchmark, input, geometry,
/// seed) cell with the paper's run-count and pWCET columns. Columns a cell
/// did not compute (e.g. `R_orig` in a PUB-only sweep) stay empty.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Input-vector name.
    pub input: String,
    /// Geometry label.
    pub geometry: String,
    /// Master seed of the cell.
    pub seed: u64,
    /// Runs to plain-MBPTA convergence on the original program.
    pub r_orig: Option<u64>,
    /// Runs to MBPTA convergence on the pubbed path.
    pub r_pub: Option<u64>,
    /// TAC's representativeness requirement.
    pub r_tac: Option<u64>,
    /// `max(R_pub, R_tac)`.
    pub r_pub_tac: Option<u64>,
    /// pWCET of the original program (baseline column).
    pub pwcet_orig: Option<f64>,
    /// pWCET after PUB only.
    pub pwcet_pub: Option<f64>,
    /// pWCET after PUB + TAC (the paper's "P+T" column).
    pub pwcet_pub_tac: Option<f64>,
    /// Corollary 2 multipath combination, when computed.
    pub pwcet_multipath: Option<f64>,
}

impl Table2Row {
    fn fmt_u64(v: Option<u64>) -> String {
        v.map(|v| v.to_string()).unwrap_or_default()
    }

    fn fmt_f64(v: Option<f64>) -> String {
        v.filter(|v| v.is_finite())
            .map(|v| format!("{v:.1}"))
            .unwrap_or_default()
    }

    /// The row's 12 column values, unquoted, in header order.
    #[must_use]
    pub fn cells(&self) -> [String; 12] {
        [
            self.benchmark.clone(),
            self.input.clone(),
            self.geometry.clone(),
            self.seed.to_string(),
            Self::fmt_u64(self.r_orig),
            Self::fmt_u64(self.r_pub),
            Self::fmt_u64(self.r_tac),
            Self::fmt_u64(self.r_pub_tac),
            Self::fmt_f64(self.pwcet_orig),
            Self::fmt_f64(self.pwcet_pub),
            Self::fmt_f64(self.pwcet_pub_tac),
            Self::fmt_f64(self.pwcet_multipath),
        ]
    }

    /// The row as a CSV line (no trailing newline; fields quoted per
    /// RFC 4180 where needed).
    #[must_use]
    pub fn csv_line(&self) -> String {
        self.cells().map(|cell| csv_field(&cell)).join(",")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GeometrySpec, JobKind, JobSpec};

    fn tmp_store(tag: &str) -> ArtifactStore {
        let dir =
            std::env::temp_dir().join(format!("mbcr-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        ArtifactStore::open(dir).expect("open store")
    }

    fn demo_summary(store_key: &str) -> JobSummary {
        let job = JobSpec {
            benchmark: "bs".into(),
            geometry: GeometrySpec::paper_l1(),
            master_seed: 1,
            kind: JobKind::pub_tac_stage(mbcr::stage::StageKind::Fit, "default"),
        };
        let mut s = JobSummary::empty(store_key.to_string(), &job);
        s.pwcet = 1000.5;
        s.r_pub = Some(300);
        s
    }

    #[test]
    fn artifact_roundtrip_and_cache_check() {
        let store = tmp_store("roundtrip");
        let key = "00112233445566778899aabbccddeeff";
        assert!(!store.has_job_result(key, None));
        let summary = demo_summary(key);
        store
            .write_job(key, &summary, Json::Obj(vec![]), Some(&[10, 20, 30]))
            .expect("write");
        assert!(store.has_job_result(key, Some(3)));
        assert!(!store.has_job_result(key, Some(4)), "the log covers 3 runs");
        assert_eq!(store.load_summary(key).expect("summary"), summary);
        assert_eq!(store.load_job_sample(key), Some(vec![10, 20, 30]));
        // Re-writing appends nothing: the log bytes are already complete.
        let before = fs::read(store.sample_path(key)).expect("log bytes");
        store
            .write_job(key, &summary, Json::Obj(vec![]), Some(&[10, 20, 30]))
            .expect("rewrite");
        assert_eq!(fs::read(store.sample_path(key)).expect("log bytes"), before);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn run_scopes_share_content_but_split_run_artifacts() {
        let store = tmp_store("scopes");
        let scope = store.run_scope("s000-demo").expect("scope");
        // Content paths are shared across scopes...
        assert_eq!(scope.job_path("ab"), store.job_path("ab"));
        assert_eq!(scope.stage_path(0x1), store.stage_path(0x1));
        assert_eq!(scope.queue_dir(), store.queue_dir());
        // ...run-level paths are not.
        assert_ne!(scope.manifest_path(), store.manifest_path());
        assert_eq!(
            scope.manifest_path(),
            store
                .root()
                .join("sweeps")
                .join("s000-demo")
                .join("manifest.json")
        );
        assert_eq!(store.manifest_path(), store.root().join("manifest.json"));
        assert!(scope.run_dir().is_dir(), "scope dir is created");
        // A stage saved through one scope is visible through the other.
        scope.save_stage(0x42, &Json::Obj(vec![])).expect("save");
        assert!(store.load_stage(0x42).is_some());
        // Manifests stay scoped.
        scope
            .write_manifest(&Json::Obj(vec![("a".to_string(), Json::UInt(1))]))
            .expect("manifest");
        assert!(scope.load_manifest().is_some());
        assert!(store.load_manifest().is_none());
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn partial_write_is_not_a_cache_hit() {
        // Simulate an interrupted writer: a truncated JSON document at the
        // artifact paths. Readers must treat both as cache misses.
        let store = tmp_store("torn");
        let key = "deadbeef";
        fs::write(store.job_path(key), "{\"schema\": \"mbcr-eng").expect("write");
        assert!(
            store.job_path(key).is_file(),
            "the torn file exists on disk (atomic writes make this state \
             unreachable in practice, but readers still validate)"
        );
        assert!(!store.has_job_result(key, None));
        assert!(
            store.load_summary(key).is_none(),
            "a torn job artifact must not parse into a summary"
        );
        let digest = 0x1234_u64;
        fs::write(store.stage_path(digest), "{\"schema\": \"mbcr-sta").expect("write");
        assert!(
            store.load_stage(digest).is_none(),
            "a torn stage artifact must not be a cache hit"
        );
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn stage_artifacts_roundtrip_through_the_store() {
        let store = tmp_store("stage-rt");
        let digest = 0xABCD_u64;
        assert!(store.load_stage(digest).is_none());
        let doc = Json::Obj(vec![("x".to_string(), Json::UInt(7))]);
        store.save_stage(digest, &doc).expect("save");
        assert_eq!(store.load_stage(digest), Some(doc));
        assert!(store.stage_path(digest).is_file());
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn foreign_schema_is_not_a_cache_hit() {
        let store = tmp_store("schema");
        let key = "f00d";
        fs::write(
            store.job_path(key),
            r#"{"schema": "other/9", "summary": {}}"#,
        )
        .expect("write");
        assert!(store.load_summary(key).is_none());
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn sample_log_roundtrips_across_encodings() {
        let dir = tmp_store("slog-rt");
        let path = dir.root().join("jobs").join("x.samples.slog");
        let log = SampleLog::at(&path);
        assert!(log.load().is_none(), "missing file is no log");

        // Monotone-ish cycle counts: the delta encoding wins and must
        // round-trip exactly.
        let smooth: Vec<u64> = (0..1000).map(|i| 9_000 + (i % 37) * 100).collect();
        log.append(0, 1500, &smooth).expect("append");
        let contents = log.load().expect("load");
        assert_eq!(contents.samples, smooth);
        assert_eq!(contents.total, 1500);
        assert!(
            fs::metadata(&path).expect("meta").len() < (smooth.len() * 8) as u64,
            "delta-varint must beat raw for smooth samples"
        );

        // Adversarial values (extremes, wrapping deltas) must round-trip
        // exactly whatever encoding the writer picks.
        let wild = vec![u64::MAX, 0, u64::MAX - 1, 1, u64::MAX / 2];
        log.append(1000, 1500, &wild).expect("append wild");
        let contents = log.load().expect("load");
        assert_eq!(contents.samples[1000..], wild[..]);
        assert_eq!(contents.samples[..1000], smooth[..]);
        let _ = fs::remove_dir_all(dir.root());
    }

    #[test]
    fn sample_log_appends_are_idempotent_and_reject_gaps() {
        let dir = tmp_store("slog-idem");
        let log = SampleLog::at(dir.root().join("stages").join("ab.samples.slog"));
        log.append(0, 300, &[1, 2, 3]).expect("first");
        let bytes = fs::read(log.path()).expect("bytes");
        // A replayed append (same or covered range) changes nothing.
        log.append(0, 300, &[1, 2, 3]).expect("replay");
        assert_eq!(fs::read(log.path()).expect("bytes"), bytes);
        // A gap is refused outright.
        let err = log.append(7, 300, &[9]).expect_err("gap");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Contiguous extension works.
        log.append(3, 300, &[4, 5]).expect("extend");
        assert_eq!(log.load().expect("load").samples, vec![1, 2, 3, 4, 5]);
        let _ = fs::remove_dir_all(dir.root());
    }

    #[test]
    fn sample_log_discards_torn_tails_at_every_cut_point() {
        let dir = tmp_store("slog-torn");
        let log = SampleLog::at(dir.root().join("stages").join("cd.samples.slog"));
        log.append(0, 96, &(0..64u64).collect::<Vec<_>>())
            .expect("frame 1");
        let frame1_end = fs::metadata(log.path()).expect("meta").len();
        log.append(64, 96, &(64..96u64).collect::<Vec<_>>())
            .expect("frame 2");
        let full = fs::read(log.path()).expect("bytes");

        // Cut the file at every byte boundary: the loaded prefix must be
        // exactly the frames that survived whole — never a partial frame,
        // never garbage.
        for cut in 0..full.len() {
            fs::write(log.path(), &full[..cut]).expect("truncate");
            let loaded = SampleLog::at(log.path()).load();
            if (cut as u64) < 8 {
                assert!(loaded.is_none(), "cut {cut}: magic gone");
            } else {
                let samples = loaded.expect("valid prefix").samples;
                let expect = if (cut as u64) >= frame1_end { 64 } else { 0 };
                assert_eq!(samples.len(), expect, "cut at byte {cut}");
                assert!(samples.iter().copied().eq(0..expect as u64));
            }
        }

        // And appending over a torn tail truncates it, then extends — a
        // resumed writer reproduces the uninterrupted byte stream.
        fs::write(log.path(), &full[..full.len() - 5]).expect("tear");
        log.append(64, 96, &(64..96u64).collect::<Vec<_>>())
            .expect("repair");
        assert_eq!(fs::read(log.path()).expect("bytes"), full);
        let _ = fs::remove_dir_all(dir.root());
    }

    #[test]
    fn sample_log_corrupt_crc_invalidates_the_tail() {
        let dir = tmp_store("slog-crc");
        let log = SampleLog::at(dir.root().join("stages").join("ef.samples.slog"));
        log.append(0, 8, &[10, 20, 30, 40]).expect("frame 1");
        let frame1_end = fs::metadata(log.path()).expect("meta").len() as usize;
        log.append(4, 8, &[50, 60, 70, 80]).expect("frame 2");
        let mut bytes = fs::read(log.path()).expect("bytes");
        // Flip one payload byte of frame 2.
        let at = frame1_end + FRAME_HEADER;
        bytes[at] ^= 0xFF;
        fs::write(log.path(), &bytes).expect("corrupt");
        assert_eq!(
            log.load().expect("load").samples,
            vec![10, 20, 30, 40],
            "a CRC mismatch must cut the valid prefix before the bad frame"
        );
        let _ = fs::remove_dir_all(dir.root());
    }

    #[test]
    fn campaign_progress_scans_logs_and_ignores_strays() {
        let store = tmp_store("progress");
        store
            .append_samples(0xBEEF, 0, 500, &[7; 120])
            .expect("partial log");
        store
            .append_samples(0xF00D, 0, 64, &[9; 64])
            .expect("complete log");
        // Strays that crashed writers can leave behind: a temp file and a
        // foreign file. Both must be ignored.
        fs::write(store.root().join("stages").join("0000beef.tmp17"), b"junk").expect("tmp");
        fs::write(store.root().join("stages").join("notes.txt"), b"hi").expect("txt");
        fs::write(
            store.root().join("stages").join("zzzz.samples.slog"),
            b"not-hex",
        )
        .expect("bad name");
        let progress = store.campaign_progress();
        assert_eq!(
            progress,
            vec![
                CampaignProgress {
                    digest: 0xBEEF,
                    collected: 120,
                    total: 500
                },
                CampaignProgress {
                    digest: 0xF00D,
                    collected: 64,
                    total: 64
                },
            ]
        );
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn failed_atomic_write_leaves_no_temp_file() {
        let store = tmp_store("tmp-clean");
        // Make the rename fail: the destination is an (occupied) directory.
        let path = store.stage_path(0x77);
        fs::create_dir_all(path.join("occupied")).expect("block destination");
        assert!(store.save_stage(0x77, &Json::Obj(vec![])).is_err());
        let strays: Vec<String> = fs::read_dir(store.root().join("stages"))
            .expect("stages dir")
            .filter_map(|e| e.ok().map(|e| e.file_name().to_string_lossy().into_owned()))
            .filter(|n| n.contains(".tmp"))
            .collect();
        assert!(strays.is_empty(), "temp files leaked: {strays:?}");
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn streamed_json_artifacts_match_the_pretty_rendering() {
        let store = tmp_store("streamed");
        // Larger than the write buffer, so the rendering flushes mid-way.
        let doc = Json::Obj(vec![
            ("kinds".to_string(), "fé€😀\n".repeat(20_000).into()),
            (
                "sample".to_string(),
                Json::Arr((0..50_000u64).map(Json::UInt).collect()),
            ),
        ]);
        store.save_stage(0x5, &doc).unwrap();
        assert_eq!(
            fs::read_to_string(store.stage_path(0x5)).unwrap(),
            doc.to_pretty()
        );
        store.write_manifest(&doc).unwrap();
        assert_eq!(
            fs::read_to_string(store.manifest_path()).unwrap(),
            doc.to_pretty()
        );
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn table2_rows_render_empty_columns() {
        let row = Table2Row {
            benchmark: "bs".into(),
            input: "default".into(),
            geometry: "4096B-2w-32B".into(),
            seed: 42,
            r_orig: Some(310),
            r_pub: Some(300),
            r_tac: None,
            r_pub_tac: None,
            pwcet_orig: Some(9170.0),
            pwcet_pub: None,
            pwcet_pub_tac: None,
            pwcet_multipath: None,
        };
        assert_eq!(
            row.csv_line(),
            "bs,default,4096B-2w-32B,42,310,300,,,9170.0,,,"
        );
    }
}
