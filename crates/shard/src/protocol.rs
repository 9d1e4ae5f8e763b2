//! The `mbcr-shard` wire protocol: length-prefixed, checksummed
//! [`mbcr_json`] frames over a byte stream.
//!
//! ```text
//! frame := magic(4: "MBW1") | payload_len(u32 LE) | fnv1a64(u64 LE) | payload
//! ```
//!
//! The payload is one compact-JSON [`Message`]. Framing follows the same
//! hardened-header discipline as the sample chunk log (`SampleLog` in
//! `mbcr-engine`): nothing in a header is trusted until proven — the
//! magic must match, the length is range-checked against [`MAX_FRAME`]
//! *before* any allocation (an attacker-controlled 4 GiB length prefix
//! must not reserve 4 GiB), the payload hash must match, and a short read
//! anywhere is a torn frame, never a partial message. A clean EOF at a
//! frame boundary is the one non-error ending ([`read_frame`] returns
//! `None`); EOF anywhere inside a frame is an error.

use std::io::{self, Read, Write};
use std::time::Duration;

use mbcr_engine::{
    AnalysisKnobs, CampaignProgress, JobSpec, JobSummary, SweepSnapshot, SweepState, SweepStatus,
};
use mbcr_json::{fnv1a_bytes, Json, Serialize, FNV_OFFSET};

/// Protocol identity exchanged in the handshake: wire layout + the engine
/// schema whose artifacts travel over it. Either side rejects a peer with
/// a different spelling. Versions:
///
/// * `/2` — the service redesign: jobs are sweep-tagged and
///   self-describing.
/// * `/3` — the gateway: submissions carry priority and
///   concurrency-quota knobs.
/// * `/4` — clients moved to HTTP: the grammar carries worker frames
///   only.
/// * `/5` — parked claims: the service holds a [`Message::Request`] for
///   up to [`PARK_BOUND`] before answering [`Message::Wait`], so a worker
///   asks again at once. A `/5` worker would spin against a `/4` service,
///   which answers `Wait` immediately; the handshake refuses the pair.
#[must_use]
pub fn wire_schema() -> String {
    format!("mbcr-shard/5|{}", mbcr_engine::SCHEMA)
}

/// How long the service parks a [`Message::Request`] that finds nothing
/// claimable before it answers [`Message::Wait`]. Work that becomes
/// claimable meanwhile (a submission, a requeue, a sibling's claim that
/// leaves jobs behind) is handed out at once. The bound keeps an idle
/// worker's SIGTERM drain prompt, lets the service read the heartbeats
/// queued behind the request, and stays far inside the lease TTL.
pub const PARK_BOUND: Duration = Duration::from_secs(1);

/// Magic prefix of every frame.
pub const FRAME_MAGIC: &[u8; 4] = b"MBW1";

/// Frame header bytes: magic + payload length + payload hash.
pub const FRAME_HEADER: usize = 4 + 4 + 8;

/// Upper bound on a payload. Generous for the largest legitimate frame (a
/// stage-job ship with a full trace artifact and campaign prefix), small
/// enough that a hostile length prefix cannot balloon allocation.
pub const MAX_FRAME: usize = 64 << 20;

/// Writes one frame. The whole frame is assembled first and written with
/// a single `write_all`, so concurrent writers serializing on an outer
/// lock never interleave partial frames.
///
/// # Errors
///
/// I/O failures of the underlying stream, or a message beyond
/// [`MAX_FRAME`].
pub fn write_frame(to: &mut impl Write, message: &Json) -> io::Result<()> {
    let span = mbcr_obs::span(mbcr_obs::SpanKind::WireFrame, "send");
    let payload = message.to_compact();
    let payload = payload.as_bytes();
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame payload of {} bytes exceeds MAX_FRAME", payload.len()),
        ));
    }
    let _span = span.field("bytes", payload.len().to_string());
    mbcr_obs::count("mbcr_wire_frames_sent_total", &[], 1);
    mbcr_obs::observe(
        "mbcr_wire_frame_sent_bytes",
        &[],
        (FRAME_HEADER + payload.len()) as u64,
    );
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
    frame.extend_from_slice(FRAME_MAGIC);
    frame.extend_from_slice(&u32::try_from(payload.len()).expect("checked").to_le_bytes());
    frame.extend_from_slice(&fnv1a_bytes(FNV_OFFSET, payload).to_le_bytes());
    frame.extend_from_slice(payload);
    to.write_all(&frame)?;
    to.flush()
}

/// How many read-timeout ticks a peer may stall *inside* a frame before
/// the connection is declared broken. At the coordinator's 500 ms socket
/// timeout this allows a two-minute mid-frame network stall — far beyond
/// any healthy link, well below "hold a handler thread forever".
const MID_FRAME_STALL_BUDGET: usize = 240;

/// What a timeout-aware receive produced.
#[derive(Debug)]
pub enum Received {
    /// A whole, valid message.
    Message(Message),
    /// The socket's read timeout elapsed with **no frame started** — an
    /// idle tick, not an error. Only possible on streams with a read
    /// timeout configured.
    Idle,
    /// The peer closed cleanly at a frame boundary.
    Closed,
}

enum Fill {
    Done,
    Idle,
    Eof,
}

/// Fills `buf` completely, tolerating read-timeout ticks: before any byte
/// of the current frame has arrived (`frame_started` false) a tick
/// surfaces as [`Fill::Idle`]; after that, ticks are retried against the
/// stall budget — a timeout must never tear a frame in half.
fn fill(
    from: &mut impl Read,
    buf: &mut [u8],
    frame_started: &mut bool,
    stalls: &mut usize,
) -> io::Result<Fill> {
    let mut at = 0usize;
    while at < buf.len() {
        match from.read(&mut buf[at..]) {
            Ok(0) => {
                if at == 0 && !*frame_started {
                    return Ok(Fill::Eof);
                }
                return Err(bad_frame("torn frame: peer closed mid-frame"));
            }
            Ok(n) => {
                at += n;
                *frame_started = true;
                *stalls = 0;
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if !*frame_started {
                    return Ok(Fill::Idle);
                }
                *stalls += 1;
                if *stalls > MID_FRAME_STALL_BUDGET {
                    return Err(bad_frame("peer stalled mid-frame"));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(Fill::Done)
}

enum RawFrame {
    Doc(Json),
    Idle,
    Closed,
}

fn read_frame_raw(from: &mut impl Read) -> io::Result<RawFrame> {
    let mut frame_started = false;
    let mut stalls = 0usize;
    let mut header = [0u8; FRAME_HEADER];
    match fill(from, &mut header, &mut frame_started, &mut stalls)? {
        Fill::Done => {}
        Fill::Idle => return Ok(RawFrame::Idle),
        Fill::Eof => return Ok(RawFrame::Closed),
    }
    if &header[0..4] != FRAME_MAGIC {
        return Err(bad_frame("bad frame magic"));
    }
    let len = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes")) as usize;
    if len > MAX_FRAME {
        return Err(bad_frame(&format!("frame length {len} exceeds MAX_FRAME")));
    }
    let want = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
    // The span starts once the header is in hand, so it measures payload
    // transfer + verify + decode — not time spent blocked between frames.
    let _span =
        mbcr_obs::span(mbcr_obs::SpanKind::WireFrame, "receive").field("bytes", len.to_string());
    mbcr_obs::count("mbcr_wire_frames_received_total", &[], 1);
    mbcr_obs::observe(
        "mbcr_wire_frame_received_bytes",
        &[],
        (FRAME_HEADER + len) as u64,
    );
    let mut payload = vec![0u8; len];
    match fill(from, &mut payload, &mut frame_started, &mut stalls)? {
        Fill::Done => {}
        Fill::Idle | Fill::Eof => unreachable!("frame_started is set by the header"),
    }
    if fnv1a_bytes(FNV_OFFSET, &payload) != want {
        return Err(bad_frame("frame checksum mismatch"));
    }
    let text = std::str::from_utf8(&payload).map_err(|_| bad_frame("frame is not UTF-8"))?;
    mbcr_json::parse(text)
        .map(RawFrame::Doc)
        .map_err(|e| bad_frame(&format!("frame is not JSON: {e}")))
}

/// Reads one frame, blocking until it is whole. `Ok(None)` on a clean
/// EOF at a frame boundary; everything else that is not a whole, valid
/// frame is an error — torn headers, torn payloads, bad magic, oversized
/// or overflowing lengths, hash mismatches, non-UTF-8 or non-JSON
/// payloads. On a stream with a read timeout, timeouts are swallowed
/// (the read simply continues); use [`receive_or_idle`] to observe them.
///
/// # Errors
///
/// I/O failures, or [`io::ErrorKind::InvalidData`] on a malformed frame.
pub fn read_frame(from: &mut impl Read) -> io::Result<Option<Json>> {
    loop {
        match read_frame_raw(from)? {
            RawFrame::Doc(doc) => return Ok(Some(doc)),
            RawFrame::Idle => {} // timeout tick between frames: keep waiting
            RawFrame::Closed => return Ok(None),
        }
    }
}

fn bad_frame(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.to_string())
}

/// A campaign chunk-log prefix shipped with a job so the receiving worker
/// adopts an in-flight campaign (its own, resumed, or a dead sibling's).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SamplePrefix {
    /// The campaign stage's content digest — the log's address.
    pub digest: u64,
    /// The valid runs the coordinator's log already holds.
    pub samples: Vec<u64>,
}

/// One stage job as shipped to a worker. Self-describing: with the
/// [`AnalysisKnobs`] riding along, a worker reconstructs the exact
/// analysis config without ever knowing which sweep the job belongs to —
/// one fleet serves any number of concurrent sweeps.
#[derive(Debug, Clone)]
pub struct WireJob {
    /// Id of the sweep the job belongs to (echoed in [`Message::Done`]).
    pub sweep: String,
    /// Node index in that sweep's plan.
    pub job: usize,
    /// The job's content-hash artifact key.
    pub key: String,
    /// The job spec (benchmark, geometry, seed, kind).
    pub spec: JobSpec,
    /// The owning sweep's analysis knobs.
    pub knobs: AnalysisKnobs,
    /// Upstream stage artifacts (full envelopes), in dataflow order.
    pub artifacts: Vec<Json>,
    /// Campaign log prefix to adopt, when the job has one.
    pub prefix: Option<SamplePrefix>,
}

/// What a worker produced for one job.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The sweep id the coordinator shipped.
    pub sweep: String,
    /// The node index the coordinator shipped.
    pub job: usize,
    /// Failure message; `None` means the job executed.
    pub error: Option<String>,
    /// The result summary (present exactly when `error` is `None`).
    pub summary: Option<JobSummary>,
    /// Stage artifacts computed by this execution (full envelopes).
    pub stage_docs: Vec<Json>,
    /// For terminal fit nodes: the full result document and — for pub_tac
    /// — the final campaign sample, destined for the job-artifact layout.
    pub fit: Option<(Json, Option<Vec<u64>>)>,
}

/// Every message of the worker conversation: a worker opens with
/// [`Message::Hello`], then runs the request/job/done loop. Clients never
/// speak this grammar; they submit, query, cancel and follow sweeps over
/// the daemon's HTTP gateway (`mbcr serve --http`).
#[derive(Debug, Clone)]
pub enum Message {
    /// Peer → service: handshake.
    Hello {
        /// Must equal [`wire_schema`].
        schema: String,
    },
    /// Service → peer: handshake accepted. Jobs are self-describing
    /// (spec + knobs travel with each one), so the welcome carries only
    /// the protocol identity.
    Welcome {
        /// Must equal [`wire_schema`].
        schema: String,
    },
    /// Service → peer: the handshake was refused (schema mismatch,
    /// malformed hello). Workers report `reason` and exit nonzero — a
    /// misconfigured fleet must be loud, not idle.
    Reject {
        /// Human-readable refusal reason.
        reason: String,
    },
    /// Worker → service: give me a job.
    Request,
    /// Service → worker: run this stage job.
    Job(Box<WireJob>),
    /// Service → worker: the request stayed parked for [`PARK_BOUND`]
    /// and nothing became claimable; ask again at once (the park is the
    /// backoff).
    Wait,
    /// Service → worker: no further work will come; disconnect.
    Shutdown,
    /// Worker → service: a campaign checkpoint chunk (runs
    /// `start .. start + samples.len()` of a campaign with `total`
    /// resolved runs), streamed as simulation produces it.
    Chunk {
        /// The campaign stage's content digest.
        digest: u64,
        /// Absolute index of the first run in `samples`.
        start: usize,
        /// The campaign's resolved run count.
        total: usize,
        /// The chunk's execution times.
        samples: Vec<u64>,
    },
    /// Worker → service: discard the chunk log under `digest` (the
    /// worker found its content divergent and is rewriting from scratch).
    ResetLog {
        /// The log's digest.
        digest: u64,
    },
    /// Worker → service: liveness while a long stage executes.
    Heartbeat,
    /// Worker → service: job finished (either way).
    Done(Box<JobResult>),
    /// Worker → service: graceful drain (SIGTERM). The worker has
    /// flushed its in-flight campaign chunk and is leaving; requeue its
    /// leases now instead of waiting for the connection or lease TTL.
    Drain,
}

impl Message {
    fn tag(&self) -> &'static str {
        match self {
            Message::Hello { .. } => "hello",
            Message::Welcome { .. } => "welcome",
            Message::Reject { .. } => "reject",
            Message::Request => "request",
            Message::Job(_) => "job",
            Message::Wait => "wait",
            Message::Shutdown => "shutdown",
            Message::Chunk { .. } => "chunk",
            Message::ResetLog { .. } => "reset_log",
            Message::Heartbeat => "heartbeat",
            Message::Done(_) => "done",
            Message::Drain => "drain",
        }
    }

    /// The message's JSON form.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut members = vec![("type".to_string(), self.tag().into())];
        match self {
            Message::Hello { schema } => {
                members.push(("schema".to_string(), schema.as_str().into()));
            }
            Message::Reject { reason } => {
                members.push(("reason".to_string(), reason.as_str().into()));
            }
            Message::Welcome { schema } => {
                members.push(("schema".to_string(), schema.as_str().into()));
            }
            Message::Request
            | Message::Wait
            | Message::Shutdown
            | Message::Heartbeat
            | Message::Drain => {}
            Message::Job(job) => {
                members.push(("sweep".to_string(), job.sweep.as_str().into()));
                members.push(("job".to_string(), Json::UInt(job.job as u64)));
                members.push(("key".to_string(), job.key.as_str().into()));
                members.push(("spec".to_string(), job.spec.to_json()));
                members.push(("knobs".to_string(), job.knobs.to_json()));
                members.push(("artifacts".to_string(), Json::Arr(job.artifacts.clone())));
                members.push((
                    "prefix".to_string(),
                    match &job.prefix {
                        None => Json::Null,
                        Some(p) => Json::Obj(vec![
                            ("digest".to_string(), Json::UInt(p.digest)),
                            ("samples".to_string(), samples_json(&p.samples)),
                        ]),
                    },
                ));
            }
            Message::Chunk {
                digest,
                start,
                total,
                samples,
            } => {
                members.push(("digest".to_string(), Json::UInt(*digest)));
                members.push(("start".to_string(), Json::UInt(*start as u64)));
                members.push(("total".to_string(), Json::UInt(*total as u64)));
                members.push(("samples".to_string(), samples_json(samples)));
            }
            Message::ResetLog { digest } => {
                members.push(("digest".to_string(), Json::UInt(*digest)));
            }
            Message::Done(result) => {
                members.push(("sweep".to_string(), result.sweep.as_str().into()));
                members.push(("job".to_string(), Json::UInt(result.job as u64)));
                members.push(("error".to_string(), Serialize::to_json(&result.error)));
                members.push((
                    "summary".to_string(),
                    match &result.summary {
                        None => Json::Null,
                        Some(s) => Serialize::to_json(s),
                    },
                ));
                members.push((
                    "stage_docs".to_string(),
                    Json::Arr(result.stage_docs.clone()),
                ));
                members.push((
                    "fit".to_string(),
                    match &result.fit {
                        None => Json::Null,
                        Some((doc, sample)) => Json::Obj(vec![
                            ("result".to_string(), doc.clone()),
                            (
                                "sample".to_string(),
                                match sample {
                                    None => Json::Null,
                                    Some(s) => samples_json(s),
                                },
                            ),
                        ]),
                    },
                ));
            }
        }
        Json::Obj(members)
    }

    /// Inverse of [`Message::to_json`]. `None` on anything malformed —
    /// the receiver treats that as a protocol error and drops the peer.
    #[must_use]
    pub fn from_json(v: &Json) -> Option<Self> {
        let text = |k: &str| v.get(k).and_then(Json::as_str).map(str::to_string);
        Some(match v.get("type")?.as_str()? {
            "hello" => Message::Hello {
                schema: text("schema")?,
            },
            "reject" => Message::Reject {
                reason: text("reason")?,
            },
            "welcome" => Message::Welcome {
                schema: text("schema")?,
            },
            "request" => Message::Request,
            "wait" => Message::Wait,
            "shutdown" => Message::Shutdown,
            "heartbeat" => Message::Heartbeat,
            "drain" => Message::Drain,
            "job" => Message::Job(Box::new(WireJob {
                sweep: text("sweep")?,
                job: v.get("job")?.as_usize()?,
                key: text("key")?,
                spec: JobSpec::from_json(v.get("spec")?)?,
                knobs: AnalysisKnobs::from_json(v.get("knobs")?)?,
                artifacts: v.get("artifacts")?.as_array()?.to_vec(),
                prefix: match v.get("prefix") {
                    None | Some(Json::Null) => None,
                    Some(p) => Some(SamplePrefix {
                        digest: p.get("digest")?.as_u64()?,
                        samples: samples_from_json(p.get("samples")?)?,
                    }),
                },
            })),
            "chunk" => Message::Chunk {
                digest: v.get("digest")?.as_u64()?,
                start: v.get("start")?.as_usize()?,
                total: v.get("total")?.as_usize()?,
                samples: samples_from_json(v.get("samples")?)?,
            },
            "reset_log" => Message::ResetLog {
                digest: v.get("digest")?.as_u64()?,
            },
            "done" => {
                let error = match v.get("error") {
                    None | Some(Json::Null) => None,
                    Some(other) => Some(other.as_str()?.to_string()),
                };
                let summary = match v.get("summary") {
                    None | Some(Json::Null) => None,
                    Some(other) => Some(JobSummary::from_json(other)?),
                };
                if error.is_none() == summary.is_none() {
                    return None; // exactly one of error/summary
                }
                Message::Done(Box::new(JobResult {
                    sweep: text("sweep")?,
                    job: v.get("job")?.as_usize()?,
                    error,
                    summary,
                    stage_docs: v.get("stage_docs")?.as_array()?.to_vec(),
                    fit: match v.get("fit") {
                        None | Some(Json::Null) => None,
                        Some(f) => Some((
                            f.get("result")?.clone(),
                            match f.get("sample") {
                                None | Some(Json::Null) => None,
                                Some(s) => Some(samples_from_json(s)?),
                            },
                        )),
                    },
                }))
            }
            _ => return None,
        })
    }
}

/// JSON form of one [`SweepStatus`] row: the gateway's `GET /v1/sweeps`
/// body, parsed back by the CLI's HTTP client with [`status_from_json`].
#[must_use]
pub fn status_json(status: &SweepStatus) -> Json {
    Json::Obj(vec![
        ("id".to_string(), status.id.as_str().into()),
        ("name".to_string(), status.name.as_str().into()),
        ("state".to_string(), status.state.name().into()),
        ("total".to_string(), Json::UInt(status.total as u64)),
        ("done".to_string(), Json::UInt(status.done as u64)),
        ("executed".to_string(), Json::UInt(status.executed as u64)),
        ("skipped".to_string(), Json::UInt(status.skipped as u64)),
        ("failed".to_string(), Json::UInt(status.failed as u64)),
    ])
}

/// Inverse of [`status_json`].
#[must_use]
pub fn status_from_json(v: &Json) -> Option<SweepStatus> {
    let number = |k: &str| v.get(k).and_then(Json::as_usize);
    Some(SweepStatus {
        id: v.get("id")?.as_str()?.to_string(),
        name: v.get("name")?.as_str()?.to_string(),
        state: SweepState::parse(v.get("state")?.as_str()?)?,
        total: number("total")?,
        done: number("done")?,
        executed: number("executed")?,
        skipped: number("skipped")?,
        failed: number("failed")?,
    })
}

/// JSON form of one [`SweepSnapshot`]: the gateway's snapshot and SSE
/// `progress` payloads, parsed back with [`snapshot_from_json`].
#[must_use]
pub fn snapshot_json(snapshot: &SweepSnapshot) -> Json {
    Json::Obj(vec![
        ("id".to_string(), snapshot.id.as_str().into()),
        ("name".to_string(), snapshot.name.as_str().into()),
        ("state".to_string(), snapshot.state.name().into()),
        ("total".to_string(), Json::UInt(snapshot.total as u64)),
        (
            "jobs".to_string(),
            Json::Arr(
                snapshot
                    .jobs
                    .iter()
                    .map(|(label, status, resumed)| {
                        Json::Obj(vec![
                            ("label".to_string(), label.as_str().into()),
                            ("status".to_string(), status.as_str().into()),
                            ("resumed".to_string(), Json::UInt(*resumed)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "campaigns".to_string(),
            Json::Arr(
                snapshot
                    .campaigns
                    .iter()
                    .map(|c| {
                        Json::Obj(vec![
                            ("digest".to_string(), Json::UInt(c.digest)),
                            ("collected".to_string(), Json::UInt(c.collected as u64)),
                            ("total".to_string(), Json::UInt(c.total)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Inverse of [`snapshot_json`].
#[must_use]
pub fn snapshot_from_json(v: &Json) -> Option<SweepSnapshot> {
    Some(SweepSnapshot {
        id: v.get("id")?.as_str()?.to_string(),
        name: v.get("name")?.as_str()?.to_string(),
        state: SweepState::parse(v.get("state")?.as_str()?)?,
        total: v.get("total")?.as_usize()?,
        jobs: v
            .get("jobs")?
            .as_array()?
            .iter()
            .map(|j| {
                Some((
                    j.get("label")?.as_str()?.to_string(),
                    j.get("status")?.as_str()?.to_string(),
                    j.get("resumed")?.as_u64()?,
                ))
            })
            .collect::<Option<Vec<_>>>()?,
        campaigns: v
            .get("campaigns")?
            .as_array()?
            .iter()
            .map(|c| {
                Some(CampaignProgress {
                    digest: c.get("digest")?.as_u64()?,
                    collected: c.get("collected")?.as_usize()?,
                    total: c.get("total")?.as_u64()?,
                })
            })
            .collect::<Option<Vec<_>>>()?,
    })
}

fn samples_json(samples: &[u64]) -> Json {
    Json::Arr(samples.iter().map(|&v| Json::UInt(v)).collect())
}

fn samples_from_json(v: &Json) -> Option<Vec<u64>> {
    v.as_array()?.iter().map(Json::as_u64).collect()
}

/// Writes `message` as one frame.
///
/// # Errors
///
/// See [`write_frame`].
pub fn send(to: &mut impl Write, message: &Message) -> io::Result<()> {
    write_frame(to, &message.to_json())
}

/// Reads one message; `Ok(None)` on clean EOF.
///
/// # Errors
///
/// See [`read_frame`]; a frame that parses as JSON but not as a
/// [`Message`] is [`io::ErrorKind::InvalidData`] too.
pub fn receive(from: &mut impl Read) -> io::Result<Option<Message>> {
    match read_frame(from)? {
        None => Ok(None),
        Some(doc) => Message::from_json(&doc)
            .map(Some)
            .ok_or_else(|| bad_frame(&format!("unknown or malformed message: {doc}"))),
    }
}

/// Reads one message on a stream with a read timeout configured,
/// surfacing between-frame timeouts as [`Received::Idle`] so the caller
/// can run periodic work. A timeout landing *inside* a frame never tears
/// it: the read resumes where it stopped (up to the stall budget).
///
/// # Errors
///
/// See [`read_frame`].
pub fn receive_or_idle(from: &mut impl Read) -> io::Result<Received> {
    match read_frame_raw(from)? {
        RawFrame::Idle => Ok(Received::Idle),
        RawFrame::Closed => Ok(Received::Closed),
        RawFrame::Doc(doc) => Message::from_json(&doc)
            .map(Received::Message)
            .ok_or_else(|| bad_frame(&format!("unknown or malformed message: {doc}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn roundtrip(message: &Message) -> Message {
        let mut bytes = Vec::new();
        send(&mut bytes, message).expect("send");
        receive(&mut Cursor::new(bytes))
            .expect("receive")
            .expect("not EOF")
    }

    fn demo_job() -> WireJob {
        WireJob {
            sweep: "s007-demo".to_string(),
            job: 7,
            key: "ab".repeat(16),
            spec: JobSpec {
                benchmark: "bs".into(),
                geometry: mbcr_engine::GeometrySpec::paper_l1(),
                master_seed: 42,
                kind: mbcr_engine::JobKind::pub_tac_stage(mbcr_engine::StageKind::Campaign, "v1"),
            },
            knobs: AnalysisKnobs {
                quick: true,
                max_campaign_runs: Some(60_000),
                exceedance: 1e-12,
                checkpoint_interval: Some(500),
                batch_width: Some(8),
            },
            artifacts: vec![Json::Obj(vec![("digest".to_string(), Json::UInt(9))])],
            prefix: Some(SamplePrefix {
                digest: 0xD1,
                samples: vec![u64::MAX, 0, 17],
            }),
        }
    }

    fn demo_snapshot() -> SweepSnapshot {
        SweepSnapshot {
            id: "s001-demo".to_string(),
            name: "demo".to_string(),
            state: SweepState::Running,
            total: 9,
            jobs: vec![
                (
                    "pub_tac:pub/bs/4096B-2w-32B/s1".to_string(),
                    "executed".to_string(),
                    0,
                ),
                (
                    "pub_tac:campaign/bs:v1/4096B-2w-32B/s1".to_string(),
                    "executed".to_string(),
                    4500,
                ),
            ],
            campaigns: vec![CampaignProgress {
                digest: 0xBEEF,
                collected: 120,
                total: 500,
            }],
        }
    }

    /// Every message kind the protocol knows, with representative payloads.
    fn every_message() -> Vec<Message> {
        vec![
            Message::Hello {
                schema: wire_schema(),
            },
            Message::Welcome {
                schema: wire_schema(),
            },
            Message::Reject {
                reason: "schema mismatch".to_string(),
            },
            Message::Request,
            Message::Job(Box::new(demo_job())),
            Message::Wait,
            Message::Shutdown,
            Message::Heartbeat,
            Message::Drain,
            Message::Chunk {
                digest: 1,
                start: 128,
                total: 500,
                samples: vec![3, 2, 1],
            },
            Message::ResetLog { digest: 5 },
        ]
    }

    #[test]
    fn frames_roundtrip_every_message_kind() {
        let job = demo_job();
        match roundtrip(&Message::Job(Box::new(job.clone()))) {
            Message::Job(back) => {
                assert_eq!(back.sweep, job.sweep);
                assert_eq!(back.job, job.job);
                assert_eq!(back.key, job.key);
                assert_eq!(back.spec, job.spec);
                assert_eq!(back.knobs, job.knobs);
                assert_eq!(back.artifacts, job.artifacts);
                assert_eq!(back.prefix, job.prefix);
            }
            other => panic!("wrong kind: {other:?}"),
        }
        for msg in every_message() {
            let back = roundtrip(&msg);
            assert_eq!(back.to_json().to_compact(), msg.to_json().to_compact());
        }
    }

    #[test]
    fn clean_eof_is_none_and_mid_frame_eof_is_torn_for_every_message_kind() {
        for msg in every_message() {
            let mut bytes = Vec::new();
            send(&mut bytes, &msg).expect("send");
            // Clean boundary.
            assert!(matches!(receive(&mut Cursor::new(&bytes[..0])), Ok(None)));
            // Every proper prefix of the frame is torn, never a message
            // and never a clean EOF.
            for cut in 1..bytes.len() {
                let err = receive(&mut Cursor::new(&bytes[..cut])).expect_err("torn");
                assert_eq!(
                    err.kind(),
                    io::ErrorKind::InvalidData,
                    "{} cut {cut}",
                    msg.tag()
                );
            }
        }
    }

    #[test]
    fn checksum_flip_is_rejected_for_every_message_kind() {
        for msg in every_message() {
            let mut bytes = Vec::new();
            send(&mut bytes, &msg).expect("send");
            // Flip one payload byte: the frame hash must catch it (the
            // header length/hash fields are covered by the other tests).
            for at in [FRAME_HEADER, bytes.len() - 1] {
                let mut bad = bytes.clone();
                bad[at] ^= 0xFF;
                let err = receive(&mut Cursor::new(bad)).expect_err("corrupt");
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{}", msg.tag());
            }
        }
    }

    #[test]
    fn new_messages_reject_malformed_fields() {
        // A job without its sweep tag or knobs (the v1 layout).
        let v1_job = Json::Obj(vec![
            ("type".to_string(), "job".into()),
            ("job".to_string(), Json::UInt(0)),
            ("key".to_string(), "ab".into()),
        ]);
        assert!(Message::from_json(&v1_job).is_none());
    }

    fn demo_status() -> SweepStatus {
        SweepStatus {
            id: "s000-wire".to_string(),
            name: "wire".to_string(),
            state: SweepState::Queued,
            total: 7,
            done: 3,
            executed: 2,
            skipped: 1,
            failed: 0,
        }
    }

    /// The HTTP bodies' round trip: rendered compact, parsed back.
    fn reparse(doc: &Json) -> Json {
        mbcr_json::parse(&doc.to_compact()).expect("compact JSON parses")
    }

    #[test]
    fn status_rows_and_snapshots_roundtrip_through_their_json_forms() {
        let row = reparse(&status_json(&demo_status()));
        assert_eq!(status_from_json(&row), Some(demo_status()));
        let snapshot = reparse(&snapshot_json(&demo_snapshot()));
        assert_eq!(snapshot_from_json(&snapshot), Some(demo_snapshot()));
    }

    #[test]
    fn unknown_states_and_truncated_snapshots_are_rejected() {
        let row = Json::Obj(
            [
                ("id", "s0".into()),
                ("name", "x".into()),
                ("state", "nope".into()),
                ("total", Json::UInt(1)),
                ("done", Json::UInt(0)),
                ("executed", Json::UInt(0)),
                ("skipped", Json::UInt(0)),
                ("failed", Json::UInt(0)),
            ]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        );
        assert_eq!(status_from_json(&row), None, "unknown state");
        let truncated = Json::Obj(vec![("id".to_string(), "s0".into())]);
        assert_eq!(snapshot_from_json(&truncated), None, "truncated snapshot");
    }

    #[test]
    fn oversized_and_overflowing_length_prefixes_are_rejected_before_allocating() {
        for len in [MAX_FRAME as u32 + 1, u32::MAX] {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(FRAME_MAGIC);
            bytes.extend_from_slice(&len.to_le_bytes());
            bytes.extend_from_slice(&0u64.to_le_bytes());
            // No payload at all: if the length were trusted, read_exact
            // would try to fill a `len`-byte buffer.
            let err = receive(&mut Cursor::new(bytes)).expect_err("oversized");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("MAX_FRAME"), "{err}");
        }
    }

    #[test]
    fn bad_magic_checksum_and_payload_are_rejected() {
        let mut good = Vec::new();
        send(&mut good, &Message::Request).expect("send");

        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        assert!(receive(&mut Cursor::new(bad_magic)).is_err());

        let mut bad_crc = good.clone();
        let last = bad_crc.len() - 1;
        bad_crc[last] ^= 0xFF; // payload byte flip -> hash mismatch
        let err = receive(&mut Cursor::new(bad_crc)).expect_err("checksum");
        assert!(err.to_string().contains("checksum"), "{err}");

        // A frame whose payload hashes correctly but is not JSON.
        let payload = b"\xFF\xFEnot json";
        let mut frame = Vec::new();
        frame.extend_from_slice(FRAME_MAGIC);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&fnv1a_bytes(FNV_OFFSET, payload).to_le_bytes());
        frame.extend_from_slice(payload);
        assert!(receive(&mut Cursor::new(frame)).is_err());

        // Valid JSON that is not a known message.
        let mut unknown = Vec::new();
        write_frame(
            &mut unknown,
            &Json::Obj(vec![("type".to_string(), "nope".into())]),
        )
        .expect("write");
        let err = receive(&mut Cursor::new(unknown)).expect_err("unknown type");
        assert!(err.to_string().contains("malformed message"), "{err}");
    }

    #[test]
    fn done_requires_a_sweep_tag_and_exactly_one_of_error_and_summary() {
        let done = |members: Vec<(&str, Json)>| {
            let mut fields = vec![
                ("type".to_string(), Json::from("done")),
                ("job".to_string(), Json::UInt(0)),
                ("stage_docs".to_string(), Json::Arr(vec![])),
                ("fit".to_string(), Json::Null),
            ];
            fields.extend(members.into_iter().map(|(k, v)| (k.to_string(), v)));
            Json::Obj(fields)
        };
        let neither = done(vec![
            ("sweep", "s0".into()),
            ("error", Json::Null),
            ("summary", Json::Null),
        ]);
        assert!(Message::from_json(&neither).is_none());
        let untagged = done(vec![("error", "boom".into()), ("summary", Json::Null)]);
        assert!(
            Message::from_json(&untagged).is_none(),
            "sweep tag required"
        );
        let ok = done(vec![
            ("sweep", "s0".into()),
            ("error", "boom".into()),
            ("summary", Json::Null),
        ]);
        assert!(Message::from_json(&ok).is_some());
    }
}
