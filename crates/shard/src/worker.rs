//! The shard worker: a thin loop around the engine's stage executor.
//!
//! Each job slot holds its own TCP connection and runs
//! request → execute → done. A job arrives **self-describing**: its spec,
//! the owning sweep's analysis knobs (from which the exact
//! [`mbcr::AnalysisConfig`] is rebuilt), the upstream stage artifacts its
//! session will load (so nothing is recomputed) and, for campaign work,
//! the chunk-log prefix the coordinator already holds — the worker seeds
//! a [`WireStore`] with all of it and then runs the *same*
//! [`mbcr_engine::execute_stage`] code path as a single-process sweep.
//! The worker never knows (or cares) which sweep a job belongs to beyond
//! echoing its tag, which is what lets one fleet serve many concurrent
//! sweeps of a service daemon.
//!
//! An idle slot neither sleeps nor polls. When nothing is claimable the
//! coordinator parks the request and answers with a job the moment one
//! appears; only after [`protocol::PARK_BOUND`] with nothing does it say
//! [`Message::Wait`], and the slot asks again at once.
//!
//! Campaign checkpoints stream back to the coordinator as they are
//! written locally, so coordinator-side resume granularity equals the
//! single-process `checkpoint_interval` guarantee; a send failure aborts
//! the simulation early rather than burning hours on a result nobody can
//! receive.
//!
//! **Graceful drain:** on SIGTERM the worker finishes cheap stages
//! normally, but an in-flight campaign stops at its next checkpoint
//! boundary — the boundary chunk is already flushed to the coordinator —
//! and the slot sends a [`Message::Drain`] frame before disconnecting,
//! so the coordinator requeues its leases immediately (the next claimer
//! adopts the campaign from the flushed prefix) instead of waiting for
//! connection teardown or a lease TTL. An idle slot drains within one
//! park bound: the `Wait` that ends its parked request is its cue.
//!
//! A heartbeat thread per connection keeps the lease alive through long,
//! otherwise-silent stages (convergence can run minutes without a
//! checkpoint).

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use mbcr::stage::{MemoryStageStore, StageStore};
use mbcr_engine::{execute_stage, Registry};
use mbcr_json::Json;

use crate::protocol::{self, JobResult, Message, Received, WireJob};

/// How often an executing worker proves liveness.
const HEARTBEAT_EVERY: Duration = Duration::from_millis(1000);
/// Connection retry budget: a worker may start before its coordinator.
const CONNECT_RETRIES: usize = 80;
const CONNECT_BACKOFF: Duration = Duration::from_millis(250);

/// The marker a drain-aborted campaign carries in its local error — the
/// slot recognizes it and deregisters instead of reporting a failure.
const DRAIN_SENTINEL: &str = "worker draining on SIGTERM";

/// Most stage envelopes one slot keeps across jobs. FIFO eviction: the
/// coordinator tracks the same digests (its residency table) and may
/// elide a shipped artifact this cache already dropped — the session
/// then recomputes it deterministically, so eviction costs time, never
/// bytes.
const SLOT_CACHE_CAP: usize = 256;

/// The slot-persistent artifact cache backing cache-aware placement:
/// every stage envelope shipped to or computed by this slot, keyed by
/// content digest. Content addressing makes staleness impossible; the
/// cap bounds memory on long-lived fleets.
#[derive(Default)]
struct SlotCache {
    docs: HashMap<u64, Json>,
    order: VecDeque<u64>,
}

impl SlotCache {
    fn get(&self, digest: u64) -> Option<Json> {
        self.docs.get(&digest).cloned()
    }

    fn put(&mut self, digest: u64, doc: &Json) {
        if self.docs.insert(digest, doc.clone()).is_none() {
            self.order.push_back(digest);
            if self.order.len() > SLOT_CACHE_CAP {
                if let Some(evicted) = self.order.pop_front() {
                    self.docs.remove(&evicted);
                }
            }
        }
    }
}

/// Set by the SIGTERM handler; every slot and checkpoint write checks it.
static DRAIN: AtomicBool = AtomicBool::new(false);

/// Whether a graceful drain was requested (SIGTERM received).
#[must_use]
pub fn drain_requested() -> bool {
    DRAIN.load(Ordering::Acquire)
}

/// Installs the SIGTERM handler that flips the drain flag. The handler
/// body is a single atomic store — async-signal-safe by construction.
#[cfg(unix)]
fn install_drain_handler() {
    extern "C" fn on_sigterm(_signum: i32) {
        DRAIN.store(true, Ordering::Release);
    }
    // Declared by hand (no libc crate in the offline workspace); libc
    // itself is already linked by std on every unix target.
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_sigterm);
    }
}

#[cfg(not(unix))]
fn install_drain_handler() {}

/// What one worker process executed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerOutcome {
    /// Jobs that executed successfully.
    pub executed: usize,
    /// Jobs that failed (reported to the coordinator as failed).
    pub failed: usize,
}

/// Runs `slots` parallel job loops against the coordinator at `addr`,
/// returning the summed outcome once the coordinator shuts the fleet
/// down — or once a SIGTERM drain completes (in-flight campaigns
/// checkpointed and flushed, leases handed back).
///
/// # Errors
///
/// Connection or protocol failures of any slot, including a coordinator
/// that never answers the handshake within the connect budget (~20 s).
/// A coordinator that simply closes the socket (it exited after
/// finalizing) ends the slot cleanly instead.
pub fn run_worker(addr: &str, slots: usize) -> io::Result<WorkerOutcome> {
    install_drain_handler();
    let slots = slots.max(1);
    if slots == 1 {
        let outcome = worker_slot(addr);
        dump_recorder_on_drain();
        return outcome;
    }
    let outcome = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..slots)
            .map(|_| scope.spawn(|| worker_slot(addr)))
            .collect();
        let mut total = WorkerOutcome::default();
        let mut first_error = None;
        for handle in handles {
            match handle.join().expect("worker slot panicked") {
                Ok(outcome) => {
                    total.executed += outcome.executed;
                    total.failed += outcome.failed;
                }
                Err(e) => first_error = first_error.or(Some(e)),
            }
        }
        match first_error {
            Some(e) => Err(e),
            None => Ok(total),
        }
    });
    dump_recorder_on_drain();
    outcome
}

/// Persists the flight recorder after a SIGTERM drain completes, if a
/// dump path is configured (`MBCR_OBS_DIR`). This runs on the normal
/// drain exit path — the signal handler itself only flips an atomic.
fn dump_recorder_on_drain() {
    if drain_requested() {
        if let Ok(Some(path)) = mbcr_obs::dump_now() {
            eprintln!("worker: flight recorder dumped to {}", path.display());
        }
    }
}

fn connect_with_retry(addr: &str) -> io::Result<TcpStream> {
    let mut last = None;
    for _ in 0..CONNECT_RETRIES {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) => last = Some(e),
        }
        std::thread::sleep(CONNECT_BACKOFF);
    }
    Err(last.unwrap_or_else(|| io::Error::other("no connection attempt made")))
}

fn protocol_error(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

fn worker_slot(addr: &str) -> io::Result<WorkerOutcome> {
    let stream = connect_with_retry(addr)?;
    stream.set_nodelay(true)?;
    // One socket, two handles: the slot loop reads; every write (requests,
    // results, chunks, heartbeats) serializes on the writer lock so frames
    // never interleave.
    let writer = Arc::new(Mutex::new(stream.try_clone()?));
    let mut reader = stream;
    send(
        &writer,
        &Message::Hello {
            schema: protocol::wire_schema(),
        },
    )?;
    // A listener that is bound but never accepts still completes the TCP
    // connect, so the Welcome read gets the same budget as the connect
    // retries instead of blocking until that listener closes.
    let handshake_budget = CONNECT_BACKOFF * CONNECT_RETRIES as u32;
    reader.set_read_timeout(Some(handshake_budget))?;
    match protocol::receive_or_idle(&mut reader)? {
        Received::Message(Message::Welcome { schema }) => {
            if schema != protocol::wire_schema() {
                return Err(protocol_error(format!(
                    "coordinator speaks '{schema}', this worker '{}'",
                    protocol::wire_schema()
                )));
            }
        }
        Received::Message(Message::Reject { reason }) => {
            return Err(protocol_error(format!(
                "coordinator refused the handshake: {reason}"
            )))
        }
        Received::Message(other) => {
            return Err(protocol_error(format!(
                "expected welcome, got {}",
                other.to_json().to_compact()
            )))
        }
        // A close before Welcome is a refusal, not a finished fleet — be
        // loud so misconfiguration never idles silently.
        Received::Closed => {
            return Err(protocol_error(
                "coordinator closed the connection during the handshake",
            ))
        }
        Received::Idle => {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!(
                    "coordinator never answered the handshake within {} s",
                    handshake_budget.as_secs()
                ),
            ))
        }
    }
    reader.set_read_timeout(None)?;

    let registry = Registry::malardalen();
    // Dropping `stop` ends the heartbeat thread at once, not at its next
    // beat, so a slot leaves as soon as its loop does.
    let (stop, stopped) = mpsc::channel::<()>();
    let heartbeat = {
        let writer = Arc::clone(&writer);
        std::thread::spawn(move || {
            while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(HEARTBEAT_EVERY) {
                if send(&writer, &Message::Heartbeat).is_err() {
                    break;
                }
                mbcr_obs::count("mbcr_heartbeats_sent_total", &[], 1);
            }
        })
    };

    let run = (|| -> io::Result<WorkerOutcome> {
        let mut outcome = WorkerOutcome::default();
        // Survives across jobs on this slot; the coordinator's residency
        // table for this connection mirrors what lands in here.
        let cache = Mutex::new(SlotCache::default());
        loop {
            if drain_requested() {
                // Deregister loudly: the coordinator requeues this slot's
                // leases now instead of on the lease TTL.
                let _ = send(&writer, &Message::Drain);
                return Ok(outcome);
            }
            send(&writer, &Message::Request)?;
            match protocol::receive(&mut reader)? {
                // A vanished coordinator after a finalized sweep is a
                // normal ending — it may exit before every worker polls.
                None | Some(Message::Shutdown) => return Ok(outcome),
                // The request sat parked for the bound and nothing came:
                // the park was the backoff, so ask again at once.
                Some(Message::Wait) => {}
                Some(Message::Job(job)) => {
                    let result = run_job(*job, &registry, &writer, &cache);
                    if drain_aborted(&result) {
                        // The campaign stopped at a checkpoint boundary
                        // and the boundary chunk is already flushed; hand
                        // the lease back instead of reporting a failure.
                        let _ = send(&writer, &Message::Drain);
                        return Ok(outcome);
                    }
                    if result.error.is_none() {
                        outcome.executed += 1;
                    } else {
                        outcome.failed += 1;
                    }
                    send(&writer, &Message::Done(Box::new(result)))?;
                }
                Some(other) => {
                    return Err(protocol_error(format!(
                        "unexpected frame: {}",
                        other.to_json().to_compact()
                    )))
                }
            }
        }
    })();
    drop(stop);
    let _ = heartbeat.join();
    run
}

/// Whether a job result is the drain sentinel rather than a real
/// analysis failure.
fn drain_aborted(result: &JobResult) -> bool {
    drain_requested()
        && result
            .error
            .as_deref()
            .is_some_and(|e| e.contains(DRAIN_SENTINEL))
}

fn send(writer: &Mutex<TcpStream>, message: &Message) -> io::Result<()> {
    let mut stream = writer.lock().expect("writer poisoned");
    protocol::send(&mut *stream, message)
}

/// Executes one shipped stage job against a local wire-backed store and
/// packages the result. Never returns an error: failures travel back in
/// the [`JobResult`] like any analysis failure.
fn run_job(
    wire: WireJob,
    registry: &Registry,
    writer: &Arc<Mutex<TcpStream>>,
    cache: &Mutex<SlotCache>,
) -> JobResult {
    let fail = |error: String| JobResult {
        sweep: wire.sweep.clone(),
        job: wire.job,
        error: Some(error),
        summary: None,
        stage_docs: Vec::new(),
        fit: None,
    };
    let store = WireStore::new(writer, cache);
    for doc in &wire.artifacts {
        let Some(digest) = doc.get("digest").and_then(Json::as_u64) else {
            return fail("shipped artifact without a digest".to_string());
        };
        if store.local.save_stage(digest, doc).is_err() {
            return fail("seeding the local store failed".to_string());
        }
        store.remember(digest, doc);
    }
    if let Some(prefix) = &wire.prefix {
        // Seed the *local* store directly: the coordinator already holds
        // these runs, so they must not echo back as chunks.
        if let Err(e) =
            store
                .local
                .append_samples(prefix.digest, 0, prefix.samples.len(), &prefix.samples)
        {
            return fail(format!("seeding the campaign prefix failed: {e}"));
        }
    }
    let cfg = match wire.knobs.config(&wire.spec.geometry, wire.spec.job_seed()) {
        Ok(cfg) => cfg,
        Err(e) => return fail(e.to_string()),
    };
    match execute_stage(&wire.spec, &wire.key, &cfg, registry, &store, false) {
        Ok(outcome) => JobResult {
            sweep: wire.sweep,
            job: wire.job,
            error: None,
            summary: Some(outcome.summary),
            stage_docs: store.computed_docs(),
            fit: outcome.fit,
        },
        Err(e) => JobResult {
            sweep: wire.sweep,
            job: wire.job,
            error: Some(e.to_string()),
            summary: None,
            // Partial progress still ships: upstream stages the session
            // had to recompute are content-addressed and reusable.
            stage_docs: store.computed_docs(),
            fit: None,
        },
    }
}

/// The worker-side [`StageStore`]: an in-memory mirror seeded with the
/// shipped artifacts, forwarding every sample-log mutation to the
/// coordinator as it happens. Loads hit the per-job store first, then
/// the slot cache (artifacts the coordinator elided because this slot
/// already held them); anything in neither is recomputed by the session,
/// byte-identically. Saves are recorded so the finished job can ship
/// exactly the artifacts this execution computed.
struct WireStore<'a> {
    local: MemoryStageStore,
    writer: &'a Arc<Mutex<TcpStream>>,
    cache: &'a Mutex<SlotCache>,
    computed: Mutex<Vec<u64>>,
}

impl<'a> WireStore<'a> {
    fn new(writer: &'a Arc<Mutex<TcpStream>>, cache: &'a Mutex<SlotCache>) -> Self {
        Self {
            local: MemoryStageStore::default(),
            writer,
            cache,
            computed: Mutex::new(Vec::new()),
        }
    }

    /// Caches a doc across jobs without marking it computed (it was
    /// shipped, not produced here).
    fn remember(&self, digest: u64, doc: &Json) {
        self.cache
            .lock()
            .expect("slot cache poisoned")
            .put(digest, doc);
    }

    /// The stage envelopes this execution computed, in completion order.
    fn computed_docs(&self) -> Vec<Json> {
        self.computed
            .lock()
            .expect("computed poisoned")
            .iter()
            .filter_map(|&digest| self.local.load_stage(digest))
            .collect()
    }
}

impl StageStore for WireStore<'_> {
    fn load_stage(&self, digest: u64) -> Option<Json> {
        if let Some(doc) = self.local.load_stage(digest) {
            return Some(doc);
        }
        // Elided artifact: the coordinator knows this slot held it. On a
        // hit, promote it into the per-job store so the session's later
        // loads stay lock-free; on a miss (evicted), the session simply
        // recomputes the stage.
        let doc = self
            .cache
            .lock()
            .expect("slot cache poisoned")
            .get(digest)?;
        let _ = self.local.save_stage(digest, &doc);
        Some(doc)
    }

    fn save_stage(&self, digest: u64, artifact: &Json) -> io::Result<()> {
        self.local.save_stage(digest, artifact)?;
        self.remember(digest, artifact);
        let mut computed = self.computed.lock().expect("computed poisoned");
        if !computed.contains(&digest) {
            computed.push(digest);
        }
        Ok(())
    }

    fn load_samples(&self, digest: u64) -> Option<Vec<u64>> {
        self.local.load_samples(digest)
    }

    fn append_samples(
        &self,
        digest: u64,
        start: usize,
        total: usize,
        samples: &[u64],
    ) -> io::Result<()> {
        let _span = mbcr_obs::span(mbcr_obs::SpanKind::CampaignChunk, "wire-append")
            .field("digest", format!("{digest:016x}"))
            .field("runs", samples.len().to_string());
        self.local.append_samples(digest, start, total, samples)?;
        // Forward the identical append; the coordinator's log applies the
        // same idempotent-overlap rules, so replays and adopted prefixes
        // converge. A send failure aborts the campaign early (the
        // checkpoint writer treats it like any store failure).
        send(
            self.writer,
            &Message::Chunk {
                digest,
                start,
                total,
                samples: samples.to_vec(),
            },
        )?;
        // Graceful drain: this checkpoint chunk is durable at the
        // coordinator, which makes *now* the cheapest possible moment to
        // stop — the next claimer adopts the campaign from exactly here.
        if drain_requested() {
            return Err(io::Error::other(DRAIN_SENTINEL));
        }
        Ok(())
    }

    fn reset_samples(&self, digest: u64) -> io::Result<()> {
        self.local.reset_samples(digest)?;
        send(self.writer, &Message::ResetLog { digest })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_cache_is_fifo_capped_and_idempotent_on_reinsert() {
        let mut cache = SlotCache::default();
        for digest in 0..(SLOT_CACHE_CAP as u64 + 10) {
            cache.put(digest, &Json::UInt(digest));
        }
        assert_eq!(cache.docs.len(), SLOT_CACHE_CAP);
        assert_eq!(cache.order.len(), SLOT_CACHE_CAP);
        assert_eq!(cache.get(0), None, "oldest entries evicted first");
        assert_eq!(cache.get(10), Some(Json::UInt(10)));
        // Re-inserting a cached digest must not duplicate its FIFO slot
        // (which would let `order` grow without bound and evict early).
        cache.put(20, &Json::UInt(20));
        assert_eq!(cache.docs.len(), SLOT_CACHE_CAP);
        assert_eq!(cache.order.len(), SLOT_CACHE_CAP);
    }
}
