//! The sweep service: a coordinator that owns N concurrent sweeps over
//! one shared worker fleet and one artifact store.
//!
//! There is no one-coordinator-one-sweep assumption: the accept loop
//! serves **workers** (request → job → done over the framed shard
//! protocol) on the binary listener and **clients** (submit / status /
//! cancel / follow) on the optional HTTP gateway, and all scheduling
//! state lives in an engine-level [`SweepRegistry`] — fair-share across
//! sweeps, cross-sweep stage dedup by content digest, the whole queue
//! persisted in the store so a `kill -9`'d daemon resumes every queued
//! and mid-campaign sweep.
//!
//! Two driving modes share every line of the machinery:
//!
//! * [`serve`] — the one-shot path behind `mbcr sweep --shards N`:
//!   submit one ephemeral sweep, drain the registry, finalize at the
//!   store root (byte-identical to a single-process `mbcr sweep`),
//!   return its outcome.
//! * [`serve_daemon_with`] — `mbcr serve --listen [--http]`: resume the
//!   persisted queue, then run until killed, accepting submissions and
//!   streaming progress to `mbcr report --follow` over the gateway.
//!
//! Worker death is detected three ways: a closed connection requeues the
//! worker's leases immediately, a [`Message::Drain`] frame (graceful
//! SIGTERM drain) does the same after the worker flushed its in-flight
//! campaign chunk, and a lease TTL ([`CoordSettings::lease_ttl`]) catches
//! hung-but-connected workers. Duplicate results from a presumed-dead
//! worker are absorbed: artifacts are content-addressed (idempotent to
//! re-save) and the registry's first record wins.

mod http;
mod scale;

use std::collections::{HashMap, HashSet, VecDeque};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use mbcr::stage::StageKind;
use mbcr_engine::{
    execute_combine, ArtifactStore, EngineError, JobKind, JobRecord, JobStatus, JobSummary,
    Registry, RunOptions, ServiceClaim, StageStore, SubmitOptions, SweepOutcome, SweepRegistry,
    SweepSnapshot, SweepSpec,
};
use mbcr_json::Json;

use crate::lease::LeaseTable;
use crate::protocol::{self, JobResult, Message, Received, SamplePrefix, WireJob};

/// Coordinator knobs orthogonal to any one sweep's spec.
#[derive(Debug, Clone, Copy)]
pub struct CoordSettings {
    /// Execution options for the one-shot submission of [`serve`]
    /// (thread count is ignored — parallelism is the worker fleet).
    /// Daemon submissions carry their own force/checkpoint options.
    pub run: RunOptions,
    /// Declare a silent worker dead (and requeue its leases) after this
    /// long. Connection loss is detected immediately regardless.
    pub lease_ttl: Duration,
}

impl Default for CoordSettings {
    fn default() -> Self {
        Self {
            run: RunOptions::default(),
            lease_ttl: Duration::from_secs(30),
        }
    }
}

/// How often an SSE follow stream re-checks for progress.
const FOLLOW_TICK: Duration = Duration::from_millis(200);

/// Most artifact digests remembered as resident per worker. FIFO
/// eviction: an elided-but-evicted artifact merely recomputes on the
/// worker (deterministically, so byte-identity is untouchable by any
/// placement decision) — the cap only bounds coordinator memory.
const RESIDENT_CAP: usize = 256;

/// Which artifact digests one worker is believed to hold (shipped to it
/// or produced by it). Purely advisory: placement prefers claims whose
/// inputs are resident, and shipment elides resident artifacts, but a
/// wrong guess costs a recompute, never a wrong byte.
#[derive(Default)]
struct Residency {
    set: HashSet<u64>,
    order: VecDeque<u64>,
}

impl Residency {
    fn insert(&mut self, digest: u64) {
        if self.set.insert(digest) {
            self.order.push_back(digest);
            if self.order.len() > RESIDENT_CAP {
                if let Some(evicted) = self.order.pop_front() {
                    self.set.remove(&evicted);
                }
            }
        }
    }
}

struct State {
    sweeps: SweepRegistry,
    leases: LeaseTable,
    /// Whether any worker ever connected (a coordinator may legitimately
    /// start before its fleet).
    ever_connected: bool,
    /// Last instant at which at least one worker was live (or work was
    /// still possible without one).
    last_live: Instant,
}

struct Service<'a> {
    registry: &'a Registry,
    store: &'a ArtifactStore,
    settings: CoordSettings,
    /// Runs forever accepting submissions (`true`), or drains the
    /// registry and returns (`false`, the one-shot mode of [`serve`]).
    daemon: bool,
    state: Mutex<State>,
    /// Set when the accept loop exits (success or error): handlers wind
    /// down instead of serving.
    shutdown: AtomicBool,
    /// The HTTP/JSON + SSE face (`mbcr serve --http`), polled by the
    /// same accept loop as the binary listener.
    http: Option<TcpListener>,
    /// Local worker autoscaling (`mbcr serve --spawn-workers`).
    scaler: Option<scale::Autoscaler>,
    /// Per-worker artifact residency, keyed by peer id. Its own lock,
    /// taken strictly *outside* (never while holding) the state lock.
    residency: Mutex<HashMap<u64, Residency>>,
    /// Upstream-artifact bytes actually shipped in wire jobs.
    shipped_bytes: AtomicU64,
    /// Upstream-artifact bytes elided because the claiming worker
    /// already held them.
    elided_bytes: AtomicU64,
}

/// Runs one sweep by serving its jobs to TCP workers until every node
/// completes, then finalizes the manifest and Table 2 at the store root
/// exactly like [`mbcr_engine::run_sweep`] — byte-identical outputs are
/// the contract. Any sweeps found persisted in the store's queue resume
/// alongside (into their own `sweeps/<id>/` scopes).
///
/// The listener should already be bound; workers may connect at any time,
/// including after a sweep is underway (elastic fleets) or after earlier
/// workers died (their leases requeue).
///
/// # Errors
///
/// Planning and store I/O errors, a listener failure, or every worker
/// disconnecting with work still pending (after a grace of the lease
/// TTL). Analysis failures do not fail the sweep; they mark jobs failed,
/// as in a single-process run.
pub fn serve(
    spec: &SweepSpec,
    registry: &Registry,
    store: &ArtifactStore,
    settings: &CoordSettings,
    listener: &TcpListener,
) -> Result<SweepOutcome, EngineError> {
    let mut sweeps = SweepRegistry::open(store, registry)?;
    let id = sweeps.submit(
        spec.clone(),
        SubmitOptions {
            force: settings.run.force,
            checkpoint_interval: settings.run.checkpoint_interval,
            batch_width: settings.run.batch_width,
            persist: false,
            ..SubmitOptions::default()
        },
        registry,
    )?;
    let service = Service::new(
        registry,
        store,
        *settings,
        false,
        sweeps,
        GatewayOptions::default(),
    );
    service.run(listener)?;
    let state = service.state.into_inner().expect("state poisoned");
    state
        .sweeps
        .outcome(&id)
        .cloned()
        .ok_or_else(|| EngineError::Analysis(format!("sweep {id} never finalized")))
}

/// Service-plane extras for [`serve_daemon_with`], all off by default.
#[derive(Debug, Default)]
pub struct GatewayOptions {
    /// A bound listener for the HTTP/JSON + SSE gateway
    /// (`mbcr serve --http`): the daemon's client surface, served from
    /// the same process and registry as the worker listener. Without it
    /// the daemon takes no submissions and only works off the queue it
    /// resumed.
    pub http: Option<TcpListener>,
    /// `Some((min, max))` spawns and reaps local worker processes from
    /// queue depth (`mbcr serve --spawn-workers min..max`).
    pub spawn_workers: Option<(usize, usize)>,
}

/// Runs the long-lived service daemon (`mbcr serve`): resumes the
/// store's persisted sweep queue, then serves workers on `listener` and
/// clients on the gateway's HTTP listener until the process dies, with a
/// local worker autoscaler when asked. Submissions are durable before
/// they are acknowledged, so a `kill -9` loses nothing a restart cannot
/// resume.
///
/// # Errors
///
/// Queue-resume and listener failures. (Per-sweep analysis failures are
/// recorded in that sweep's manifest, never fatal to the daemon.)
pub fn serve_daemon_with(
    registry: &Registry,
    store: &ArtifactStore,
    settings: &CoordSettings,
    listener: &TcpListener,
    gateway: GatewayOptions,
) -> Result<(), EngineError> {
    let sweeps = SweepRegistry::open(store, registry)?;
    let service = Service::new(registry, store, *settings, true, sweeps, gateway);
    service.run(listener)
}

impl<'a> Service<'a> {
    fn new(
        registry: &'a Registry,
        store: &'a ArtifactStore,
        settings: CoordSettings,
        daemon: bool,
        sweeps: SweepRegistry,
        gateway: GatewayOptions,
    ) -> Self {
        Self {
            registry,
            store,
            settings,
            daemon,
            state: Mutex::new(State {
                sweeps,
                leases: LeaseTable::new(settings.lease_ttl),
                ever_connected: false,
                last_live: Instant::now(),
            }),
            shutdown: AtomicBool::new(false),
            http: gateway.http,
            scaler: gateway
                .spawn_workers
                .map(|(min, max)| scale::Autoscaler::new(min, max)),
            residency: Mutex::new(HashMap::new()),
            shipped_bytes: AtomicU64::new(0),
            elided_bytes: AtomicU64::new(0),
        }
    }

    /// The accept loop: hand each connection to a handler thread, reap
    /// expired leases, and — in drain mode — stop once the registry has
    /// no unfinished sweep left.
    fn run(&self, listener: &TcpListener) -> Result<(), EngineError> {
        listener.set_nonblocking(true)?;
        if let Some(http) = &self.http {
            http.set_nonblocking(true)?;
        }
        // Workers the autoscaler spawns connect back over the binary
        // listener; an unspecified bind address (0.0.0.0) is rewritten
        // to loopback since those workers are by definition local.
        let connect = listener.local_addr().map(|addr| {
            if addr.ip().is_unspecified() {
                format!("127.0.0.1:{}", addr.port())
            } else {
                addr.to_string()
            }
        })?;
        let result = std::thread::scope(|scope| {
            let mut next_peer = 0u64;
            let mut next_finalize_retry = Instant::now();
            let mut next_scale_tick = Instant::now();
            let result = loop {
                if !self.daemon && self.finished() {
                    break Ok(());
                }
                match listener.accept() {
                    Ok((stream, _)) => {
                        next_peer += 1;
                        let peer = next_peer;
                        let service = &*self;
                        scope.spawn(move || handle_connection(service, stream, peer));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                    Err(e) => break Err(EngineError::Io(e)),
                }
                // Drain every pending HTTP connection this tick: a load
                // storm of short requests must not be throttled to one
                // accept per 20 ms sleep. Accept errors are logged, not
                // fatal — the gateway is an auxiliary face of the daemon.
                while let Some(http) = &self.http {
                    match http.accept() {
                        Ok((stream, _)) => {
                            let service = &*self;
                            scope.spawn(move || http::handle(service, stream));
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) => {
                            eprintln!("coordinator: http accept failed: {e}");
                            break;
                        }
                    }
                }
                let now = Instant::now();
                if let Some(scaler) = &self.scaler {
                    if now >= next_scale_tick {
                        next_scale_tick = now + Duration::from_secs(1);
                        let (ready, leased) = {
                            let state = self.lock();
                            let metrics = state.sweeps.metrics();
                            (metrics.ready, metrics.leased)
                        };
                        scaler.tick(ready, leased, now, &connect);
                    }
                }
                self.reap_expired(now);
                // A drained sweep whose manifest write failed (ENOSPC,
                // transient store trouble) gets no further records to
                // retry finalization from — re-attempt it here. One-shot
                // services propagate the failure (the old `serve`
                // semantics); daemons log and keep retrying.
                if now >= next_finalize_retry {
                    next_finalize_retry = now + Duration::from_secs(2);
                    if let Err(e) = self.lock().sweeps.retry_finalize() {
                        if self.daemon {
                            eprintln!("coordinator: finalization still failing: {e}");
                        } else {
                            break Err(e);
                        }
                    }
                }
                if !self.daemon {
                    if let Some(stall) = self.stalled(now) {
                        break Err(stall);
                    }
                }
                std::thread::sleep(Duration::from_millis(20));
            };
            // Handlers notice the flag within one read timeout and deliver
            // a final Shutdown (or SSE `end`) to their peer; the scope then
            // joins them.
            self.shutdown.store(true, Ordering::Release);
            result
        });
        if let Some(scaler) = &self.scaler {
            scaler.shutdown();
        }
        result
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("state poisoned")
    }

    fn residency_lock(&self) -> std::sync::MutexGuard<'_, HashMap<u64, Residency>> {
        self.residency.lock().expect("residency poisoned")
    }

    /// A snapshot of the digests believed resident on `worker` (`None`
    /// when nothing is known). Cloned *before* the state lock is taken,
    /// so affinity scoring inside the claim never nests the two locks.
    fn resident_digests(&self, worker: u64) -> Option<HashSet<u64>> {
        let residency = self.residency_lock();
        residency
            .get(&worker)
            .filter(|r| !r.set.is_empty())
            .map(|r| r.set.clone())
    }

    /// Marks `digests` resident on `worker` (shipped to it, or received
    /// back from it).
    fn mark_resident(&self, worker: u64, digests: &[u64]) {
        if digests.is_empty() {
            return;
        }
        let mut residency = self.residency_lock();
        let entry = residency.entry(worker).or_default();
        for &digest in digests {
            entry.insert(digest);
        }
    }

    fn finished(&self) -> bool {
        self.lock().sweeps.finished()
    }

    fn winding_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    fn register(&self, worker: u64) {
        let mut state = self.lock();
        state.ever_connected = true;
        state.leases.touch(worker, Instant::now());
    }

    fn touch(&self, worker: u64) {
        let mut state = self.lock();
        state.leases.touch(worker, Instant::now());
    }

    /// A worker's connection ended (or it drained): evict it and requeue
    /// its leases across every sweep.
    fn drop_worker(&self, worker: u64, how: &str) {
        self.residency_lock().remove(&worker);
        let mut state = self.lock();
        state.leases.remove(worker);
        let requeued = state.sweeps.requeue_worker(worker);
        if !requeued.is_empty() {
            mbcr_obs::count("mbcr_lease_requeues_total", &[], requeued.len() as u64);
            eprintln!(
                "coordinator: worker {worker} {how} with {} leased job(s); requeued",
                requeued.len()
            );
        }
    }

    /// Requeues the leases of workers whose TTL lapsed (hung process,
    /// partitioned host — connection loss is handled by `drop_worker`).
    fn reap_expired(&self, now: Instant) {
        let mut state = self.lock();
        for worker in state.leases.expired(now) {
            let requeued = state.sweeps.requeue_worker(worker);
            mbcr_obs::count("mbcr_lease_requeues_total", &[], requeued.len() as u64);
            eprintln!(
                "coordinator: worker {worker} lease expired with {} job(s); requeued",
                requeued.len()
            );
        }
    }

    /// An error once every worker is gone and stayed gone for a lease TTL
    /// with work still pending — better than hanging a one-shot sweep
    /// forever. (Daemons never stall out: an empty fleet is a legitimate
    /// idle state for them.)
    fn stalled(&self, now: Instant) -> Option<EngineError> {
        let mut state = self.lock();
        if state.sweeps.finished() || !state.ever_connected || state.leases.live() > 0 {
            state.last_live = now;
            return None;
        }
        let grace = self.settings.lease_ttl.max(Duration::from_secs(5));
        if now.duration_since(state.last_live) <= grace {
            return None;
        }
        Some(EngineError::Analysis(
            "all workers disconnected with jobs unfinished".to_string(),
        ))
    }

    /// Records a job's terminal state in the registry (which unblocks
    /// dependents and cross-sweep waiters and finalizes the sweep when
    /// drained). The fsync'd journal append happens *before* the state
    /// lock is taken, so the fleet never queues behind per-record fsync
    /// latency.
    fn record(
        &self,
        claim: &ServiceClaim,
        status: JobStatus,
        error: Option<String>,
        summary: Option<JobSummary>,
    ) {
        let record = JobRecord {
            key: claim.plan.keys[claim.job].clone(),
            label: claim.plan.graph.jobs[claim.job].label(),
            status,
            error,
            summary,
        };
        self.record_journaled(&claim.sweep, claim.job, claim.persist, record);
    }

    /// Journals (outside the lock, persistent sweeps only), then records.
    fn record_journaled(&self, sweep: &str, job: usize, persist: bool, record: JobRecord) {
        if persist {
            if let Err(e) = SweepRegistry::journal_record(self.store, sweep, job, &record) {
                eprintln!(
                    "coordinator: journaling job {job} of {sweep} failed: {e} \
                     (a restart will re-run it)"
                );
            }
        }
        let mut state = self.lock();
        if let Err(e) = state.sweeps.record(sweep, job, record, true) {
            eprintln!("coordinator: finalizing after job {job} of {sweep} failed: {e}");
        }
    }

    /// Answers one job request: skips cached nodes, runs combine nodes
    /// inline, and ships the first stage node that actually needs a
    /// worker. `Wait` when everything runnable is leased elsewhere (or a
    /// daemon is idle), `Shutdown` when a one-shot service drained.
    ///
    /// Only the lease transition itself holds the state lock — cache
    /// probes, combine writes and wire-job assembly all do store I/O and
    /// must not stall every other peer's request (a paper-scale fit job
    /// ships a multi-megabyte chunk log). That is safe because the
    /// claimed node is leased to this worker: nobody else touches it
    /// until it is recorded or the lease is revoked.
    fn claim(&self, worker: u64) -> Message {
        loop {
            // Residency is cloned before the state lock so the affinity
            // closure touches no second lock while scoring ready jobs.
            let resident = self.resident_digests(worker);
            let claim = {
                let mut state = self.lock();
                if self.winding_down() {
                    return Message::Shutdown;
                }
                let claimed = match &resident {
                    Some(held) => {
                        let held = |digest: u64| held.contains(&digest);
                        state.sweeps.claim_with(worker, Some(&held))
                    }
                    None => state.sweeps.claim(worker),
                };
                match claimed {
                    Some(claim) => claim,
                    None => {
                        if !self.daemon && state.sweeps.finished() {
                            return Message::Shutdown;
                        }
                        return Message::Wait;
                    }
                }
            };
            if !claim.force {
                if let Some(summary) = claim.plan.cached_summary(claim.job, self.store) {
                    self.record(&claim, JobStatus::Skipped, None, Some(summary));
                    continue;
                }
            }
            match &claim.plan.graph.jobs[claim.job].kind {
                JobKind::MultipathCombine => {
                    let deps = self.lock().sweeps.dep_summaries(&claim.sweep, claim.job);
                    let job = &claim.plan.graph.jobs[claim.job];
                    let key = &claim.plan.keys[claim.job];
                    let outcome = execute_combine(job, key, &deps).and_then(|(summary, result)| {
                        self.store.write_job(key, &summary, result, None)?;
                        Ok(summary)
                    });
                    match outcome {
                        Ok(summary) => {
                            self.record(&claim, JobStatus::Executed, None, Some(summary));
                        }
                        Err(e) => {
                            self.record(&claim, JobStatus::Failed, Some(e.to_string()), None);
                        }
                    }
                }
                JobKind::Stage { .. } => match self.build_wire_job(&claim, worker) {
                    Ok(wire) => return Message::Job(Box::new(wire)),
                    Err(e) => {
                        self.record(&claim, JobStatus::Failed, Some(e.to_string()), None);
                    }
                },
            }
        }
    }

    /// Assembles the shipment for one stage job: every upstream stage
    /// artifact present in the store (the worker's session loads them
    /// instead of recomputing), plus the campaign chunk-log prefix when
    /// the job is at or past the campaign stage — the adoption path for
    /// re-leased in-flight campaigns — and the sweep's analysis knobs,
    /// which keep the worker sweep-agnostic.
    ///
    /// Artifacts already resident on `peer` (shipped to it before, or
    /// produced by it) are elided from the shipment: the worker's slot
    /// cache serves them, and if it evicted one, the session recomputes
    /// it byte-identically — elision can change bytes on the wire, never
    /// bytes in the store. The campaign chunk-log prefix always ships;
    /// it is mutable state, not a content-addressed artifact.
    fn build_wire_job(&self, claim: &ServiceClaim, peer: u64) -> Result<WireJob, EngineError> {
        let plan = &claim.plan;
        let spec = plan.graph.jobs[claim.job].clone();
        let target = spec.kind.stage().expect("stage node");
        let digests = plan
            .stage_digests(claim.job, self.registry)?
            .expect("stage node");
        let stages = digests.pipeline().stages();
        let at = stages
            .iter()
            .position(|&s| s == target)
            .expect("target in pipeline");
        let resident = self.resident_digests(peer).unwrap_or_default();
        let mut artifacts = Vec::new();
        let mut shipped = Vec::new();
        for &stage in &stages[..at] {
            let Some(digest) = digests.get(stage) else {
                continue;
            };
            let Some(doc) = self.store.load_stage(digest) else {
                continue;
            };
            let bytes = doc.to_compact().len() as u64;
            if resident.contains(&digest) {
                self.elided_bytes.fetch_add(bytes, Ordering::Relaxed);
            } else {
                self.shipped_bytes.fetch_add(bytes, Ordering::Relaxed);
                shipped.push(digest);
                artifacts.push(doc);
            }
        }
        self.mark_resident(peer, &shipped);
        let mut prefix = None;
        if let Some(digest) = digests.get(StageKind::Campaign) {
            let campaign_at = stages
                .iter()
                .position(|&s| s == StageKind::Campaign)
                .expect("campaign digest implies a campaign stage");
            if claim.force && target == StageKind::Campaign {
                // Force means re-simulate from scratch: discard the log so
                // the fresh run rewrites it (the single-process repair
                // semantics), and ship no prefix.
                self.store.reset_samples(digest)?;
            } else if at >= campaign_at {
                prefix = StageStore::load_samples(self.store, digest)
                    .filter(|samples| !samples.is_empty())
                    .map(|samples| SamplePrefix { digest, samples });
            }
        }
        Ok(WireJob {
            sweep: claim.sweep.clone(),
            job: claim.job,
            key: plan.keys[claim.job].clone(),
            spec,
            knobs: claim.knobs,
            artifacts,
            prefix,
        })
    }

    /// Streams a worker's campaign checkpoint chunk into the store's
    /// chunk log. Append failures are logged, not fatal: a gap (a reset
    /// raced a zombie writer) only costs the marker its cache-hit, which
    /// the validation layer already handles.
    fn chunk(&self, digest: u64, start: usize, total: usize, samples: &[u64]) {
        if let Err(e) = self.store.append_samples(digest, start, total, samples) {
            eprintln!("coordinator: chunk append for {digest:016x} failed: {e}");
        }
    }

    fn reset_log(&self, digest: u64) {
        if let Err(e) = self.store.reset_samples(digest) {
            eprintln!("coordinator: log reset for {digest:016x} failed: {e}");
        }
    }

    /// Merges a worker's finished job: persist its stage artifacts
    /// (content-addressed — racing duplicates are harmless) and fit
    /// payload, then record it with the registry. Returns `false` when
    /// the result is malformed (unknown sweep, out-of-range or
    /// never-leased node) and the peer should be dropped.
    fn complete_remote(&self, result: JobResult, peer: u64) -> bool {
        let (plausible, plan, persist) = {
            let state = self.lock();
            (
                state.sweeps.result_plausible(&result.sweep, result.job),
                state.sweeps.plan(&result.sweep),
                state.sweeps.persistent(&result.sweep),
            )
        };
        if plausible != Some(true) {
            return false;
        }
        let mut error = result.error;
        let mut summary = result.summary;
        let mut produced = Vec::new();
        for doc in &result.stage_docs {
            let Some(digest) = doc.get("digest").and_then(Json::as_u64) else {
                continue; // not a stage envelope; ignore
            };
            if let Err(e) = self.store.save_stage(digest, doc) {
                error = Some(format!("persisting stage artifact {digest:016x}: {e}"));
                summary = None;
                break;
            }
            produced.push(digest);
        }
        // The worker that computed these artifacts holds them in its
        // slot cache: future claims on this peer can elide them.
        self.mark_resident(peer, &produced);
        let Some(plan) = plan else {
            return true; // terminal sweep: absorb the late result
        };
        if error.is_none() {
            if let (Some(s), Some((doc, sample))) = (&summary, &result.fit) {
                if let Err(e) =
                    self.store
                        .write_job(&plan.keys[result.job], s, doc.clone(), sample.as_deref())
                {
                    error = Some(format!("persisting job artifact: {e}"));
                    summary = None;
                }
            }
        }
        let status = if error.is_none() {
            JobStatus::Executed
        } else {
            JobStatus::Failed
        };
        let record = JobRecord {
            key: plan.keys[result.job].clone(),
            label: plan.graph.jobs[result.job].label(),
            status,
            error,
            summary,
        };
        self.record_journaled(&result.sweep, result.job, persist, record);
        true
    }

    /// Handles a client submission (`POST /v1/sweeps`):
    /// durable-then-acknowledged.
    fn submit_sweep(&self, spec: &Json, opts: SubmitOptions) -> Result<String, String> {
        let spec = SweepSpec::from_json(spec).map_err(|e| format!("bad sweep spec: {e}"))?;
        let mut state = self.lock();
        state
            .sweeps
            .submit(spec, opts, self.registry)
            .map_err(|e| e.to_string())
    }

    /// The follow loop behind SSE followers: emit each changed snapshot
    /// of sweep `id` (as compact JSON) — job completions *and* campaign
    /// chunk-log growth — until it is terminal or the service winds
    /// down. Emit failures (the peer vanished) end the stream.
    ///
    /// The state lock is held only for in-memory reads, and only on
    /// ticks where the registry's revision moved; campaign chunk-log
    /// scans (real disk I/O, one per campaign node) always run *outside*
    /// the lock, so a follower can never stall the worker fleet.
    fn follow_stream(
        &self,
        id: &str,
        emit: &mut dyn FnMut(&str) -> io::Result<()>,
    ) -> io::Result<()> {
        let mut sent = String::new();
        let mut shell: Option<(SweepSnapshot, Vec<u64>)> = None;
        let mut seen_revision = None;
        loop {
            let revision = { self.lock().sweeps.revision() };
            if seen_revision != Some(revision) {
                seen_revision = Some(revision);
                let state = self.lock();
                shell = state
                    .sweeps
                    .snapshot(id)
                    .map(|shell| (shell, state.sweeps.campaign_digests(id)));
            }
            let Some((shell, digests)) = &shell else {
                return Ok(());
            };
            let mut snapshot = shell.clone();
            snapshot.campaigns = mbcr_engine::campaign_progress_for(self.store, digests);
            let rendered = protocol::snapshot_json(&snapshot).to_compact();
            if rendered != sent {
                emit(&rendered)?;
                sent = rendered;
            }
            if shell.state.terminal() || self.winding_down() {
                return Ok(());
            }
            std::thread::sleep(FOLLOW_TICK);
        }
    }
}

fn handle_connection(service: &Service<'_>, mut stream: TcpStream, peer: u64) {
    let _ = stream.set_nodelay(true);
    // The read timeout only bounds how often this handler checks the
    // wind-down flag; `receive_or_idle` guarantees a timeout landing
    // inside a frame resumes the read instead of tearing it.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    // Handshake: a peer speaking another schema is refused — loudly, so
    // a misconfigured fleet fails instead of idling — and a connection
    // that never says hello is dropped after ~20 s.
    let mut idle_ticks = 0usize;
    loop {
        match protocol::receive_or_idle(&mut stream) {
            Ok(Received::Message(Message::Hello { schema })) => {
                if schema == protocol::wire_schema() {
                    break;
                }
                let _ = protocol::send(
                    &mut stream,
                    &Message::Reject {
                        reason: format!(
                            "schema mismatch: peer speaks '{schema}', service '{}'",
                            protocol::wire_schema()
                        ),
                    },
                );
                return;
            }
            Ok(Received::Idle) => {
                idle_ticks += 1;
                if idle_ticks > 40 || service.winding_down() {
                    return;
                }
            }
            Ok(Received::Message(_)) => {
                let _ = protocol::send(
                    &mut stream,
                    &Message::Reject {
                        reason: "handshake must start with hello".to_string(),
                    },
                );
                return;
            }
            Ok(Received::Closed) | Err(_) => return,
        }
    }
    let welcome = Message::Welcome {
        schema: protocol::wire_schema(),
    };
    if protocol::send(&mut stream, &welcome).is_err() {
        return;
    }
    // Only workers speak this protocol (clients use the HTTP gateway), so
    // a completed handshake enters the lease table.
    service.register(peer);
    let mut drained = false;
    loop {
        match protocol::receive_or_idle(&mut stream) {
            Ok(Received::Message(message)) => {
                service.touch(peer);
                match message {
                    Message::Request => {
                        let response = service.claim(peer);
                        let shutdown = matches!(response, Message::Shutdown);
                        if protocol::send(&mut stream, &response).is_err() || shutdown {
                            break;
                        }
                    }
                    Message::Chunk {
                        digest,
                        start,
                        total,
                        samples,
                    } => service.chunk(digest, start, total, &samples),
                    Message::ResetLog { digest } => service.reset_log(digest),
                    Message::Heartbeat => mbcr_obs::count("mbcr_heartbeats_total", &[], 1),
                    Message::Done(result) => {
                        if !service.complete_remote(*result, peer) {
                            break;
                        }
                    }
                    Message::Drain => {
                        drained = true;
                        break;
                    }
                    other => {
                        eprintln!(
                            "coordinator: peer {peer} sent unexpected {:?} frame; dropping",
                            other.to_json().get("type")
                        );
                        break;
                    }
                }
            }
            Ok(Received::Idle) => {
                if service.winding_down() {
                    // Idle peer after the service ended (or aborted):
                    // release it and wind the handler down.
                    let _ = protocol::send(&mut stream, &Message::Shutdown);
                    break;
                }
            }
            Ok(Received::Closed) => break,
            Err(e) => {
                eprintln!("coordinator: peer {peer} connection failed: {e}");
                break;
            }
        }
    }
    service.drop_worker(peer, if drained { "drained" } else { "lost" });
}
