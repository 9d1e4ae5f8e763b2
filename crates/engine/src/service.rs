//! The multi-sweep service layer: a [`SweepRegistry`] owns N concurrent
//! sweeps against one artifact store and one worker fleet.
//!
//! This dissolves the one-coordinator-one-sweep assumption: where
//! [`crate::run_sweep`] (and the shard coordinator before this layer)
//! was born holding exactly one [`SweepPlan`] and died when it drained,
//! the registry accepts a *stream* of sweep submissions, schedules their
//! jobs fair-share across whatever claims work, and finalizes each sweep
//! into its own run scope ([`crate::ArtifactStore::run_scope`]) as it
//! drains — manifest and Table 2 byte-identical to a single-process run
//! of the same spec against the same store.
//!
//! Three mechanisms carry the design:
//!
//! * **Fair-share claiming** — [`SweepRegistry::claim`] round-robins
//!   across active sweeps, so one huge campaign cannot starve a small
//!   sweep submitted behind it. Workers stay sweep-agnostic: a claim is
//!   just (sweep id, job index, plan).
//! * **Cross-sweep stage dedup** — stage digests are content addresses,
//!   so when sweep B plans a job whose digest sweep A is already
//!   executing, B's job is parked ([`crate::JobScheduler::hold`]) until
//!   A's completes, then released to cache-probe the shared store: the
//!   stage executes once, both manifests reference it, and B's record
//!   says `skipped` — exactly what a sequential A-then-B run of the two
//!   specs against one store would produce.
//! * **Queue persistence** — every submission is durable before it is
//!   acknowledged (`queue/<id>.json`), and every terminal job record is
//!   journaled (`sweeps/<id>/records.jsonl`) as it lands. A `kill -9`'d
//!   daemon therefore resumes its *whole* queue: completed jobs replay
//!   with their original statuses (a pre-kill `executed` stays
//!   `executed`), in-flight campaigns resume from their chunk logs, and
//!   the final artifacts are byte-identical to an uninterrupted run —
//!   the only manifest delta a truthful `campaign_resumed` count.

use std::collections::HashMap;
use std::fs;
use std::io::{self, Write as _};
use std::sync::Arc;
use std::time::Instant;

use mbcr_json::{Json, Serialize};

use crate::store::write_json_atomic;
use crate::{
    finalize_sweep, AnalysisKnobs, ArtifactStore, CampaignProgress, EngineError, JobRecord,
    JobScheduler, JobSummary, Registry, RunOptions, SampleLog, StageKind, SweepOutcome, SweepPlan,
    SweepSpec,
};

/// Where one submitted sweep is in its life cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepState {
    /// Accepted and planned; no job handed out yet.
    Queued,
    /// At least one job claimed.
    Running,
    /// Every job terminal; manifest and Table 2 written.
    Done,
    /// Cancelled by a client; never finalized.
    Canceled,
}

impl SweepState {
    /// Stable spelling for queue entries and status reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SweepState::Queued => "queued",
            SweepState::Running => "running",
            SweepState::Done => "done",
            SweepState::Canceled => "canceled",
        }
    }

    /// Inverse of [`SweepState::name`].
    #[must_use]
    pub fn parse(text: &str) -> Option<Self> {
        match text {
            "queued" => Some(SweepState::Queued),
            "running" => Some(SweepState::Running),
            "done" => Some(SweepState::Done),
            "canceled" => Some(SweepState::Canceled),
            _ => None,
        }
    }

    /// Whether the sweep can make no further progress.
    #[must_use]
    pub fn terminal(self) -> bool {
        matches!(self, SweepState::Done | SweepState::Canceled)
    }
}

/// Per-submission execution options.
#[derive(Debug, Clone, Copy)]
pub struct SubmitOptions {
    /// Re-execute jobs even when cached artifacts exist.
    pub force: bool,
    /// Checkpoint-interval override for this sweep's campaigns.
    pub checkpoint_interval: Option<usize>,
    /// Batch-width override for this sweep; it picks no kernel and changes
    /// no sample (see [`crate::RunOptions::batch_width`]).
    pub batch_width: Option<usize>,
    /// Persist the submission (queue entry + record journal) and
    /// finalize into `sweeps/<id>/`. `false` is the mode of the one-shot
    /// `sweep --shards` path: the sweep is
    /// ephemeral (dies with the process, resumes from artifact caching
    /// alone) and finalizes at the store root, exactly where a
    /// single-process sweep writes its manifest.
    pub persist: bool,
    /// Fair-share weight (stride scheduling): a priority-3 sweep claims
    /// three jobs for every one a priority-1 sweep claims while both
    /// have ready work. `0` is normalized to `1`.
    pub priority: u32,
    /// Cap on this sweep's concurrently leased jobs (`None` = no cap).
    pub max_concurrent: Option<usize>,
}

impl Default for SubmitOptions {
    fn default() -> Self {
        Self {
            force: false,
            checkpoint_interval: None,
            batch_width: None,
            persist: false,
            priority: 1,
            max_concurrent: None,
        }
    }
}

/// One fair-share scheduling decision: which job of which sweep a worker
/// should run, plus everything the (sweep-agnostic) executor needs.
#[derive(Debug, Clone)]
pub struct ServiceClaim {
    /// The owning sweep's id.
    pub sweep: String,
    /// Node index within that sweep's plan.
    pub job: usize,
    /// The sweep's plan (keys, configs, graph).
    pub plan: Arc<SweepPlan>,
    /// Whether the sweep runs with `--force`.
    pub force: bool,
    /// Whether the sweep journals its records (drivers pre-journal
    /// outside their lock exactly when this is set).
    pub persist: bool,
    /// The sweep's analysis knobs (what a remote worker rebuilds the
    /// job's config from).
    pub knobs: AnalysisKnobs,
}

/// A summary row of one sweep, for status reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepStatus {
    /// Sweep id (unique per submission, stable across daemon restarts).
    pub id: String,
    /// The spec's campaign name.
    pub name: String,
    /// Life-cycle state.
    pub state: SweepState,
    /// Jobs in the plan.
    pub total: usize,
    /// Jobs terminal so far.
    pub done: usize,
    /// Of those: executed here.
    pub executed: usize,
    /// Of those: satisfied from the store.
    pub skipped: usize,
    /// Of those: failed.
    pub failed: usize,
}

/// A full progress snapshot of one sweep: per-job statuses (what the
/// status table renders) plus per-campaign chunk-log progress — the
/// payload of the SSE `progress` events `mbcr report --follow` renders.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSnapshot {
    /// Sweep id.
    pub id: String,
    /// The spec's campaign name.
    pub name: String,
    /// Life-cycle state.
    pub state: SweepState,
    /// Per-job `(label, status, campaign_resumed)` rows, completed jobs
    /// only, in plan order.
    pub jobs: Vec<(String, String, u64)>,
    /// Jobs in the plan.
    pub total: usize,
    /// Progress of this sweep's streamed campaigns.
    pub campaigns: Vec<CampaignProgress>,
}

/// Scheduler-level telemetry of the whole registry — what an
/// autoscaler or load balancer polls (`GET /v1/metrics` on the gateway).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistryMetrics {
    /// Claimable jobs across all active sweeps (quota caps not applied).
    pub ready: usize,
    /// Jobs currently leased to workers across all active sweeps.
    pub leased: usize,
    /// Non-terminal sweeps.
    pub active: usize,
    /// Jobs ever parked behind another sweep's in-flight stage digest —
    /// each is an execution the cross-sweep dedup avoided.
    pub dedup_parked: u64,
    /// One row per sweep, in submission order.
    pub sweeps: Vec<SweepMetrics>,
}

/// Per-sweep scheduling telemetry (one [`RegistryMetrics`] row).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepMetrics {
    /// Sweep id.
    pub id: String,
    /// Life-cycle state.
    pub state: SweepState,
    /// Fair-share weight.
    pub priority: u32,
    /// Concurrency cap, if any.
    pub max_concurrent: Option<usize>,
    /// Jobs claimed from this sweep so far (fairness counter).
    pub claims: u64,
    /// Jobs currently claimable.
    pub ready: usize,
    /// Jobs currently leased.
    pub leased: usize,
    /// Jobs terminal so far.
    pub done: usize,
    /// Jobs in the plan.
    pub total: usize,
    /// Of the terminal jobs: satisfied from the store (dedup hits).
    pub skipped: usize,
}

/// `(executed, skipped, failed)` counts out of a manifest.
type Counts = (usize, usize, usize);

/// `(label, status, campaign_resumed)` rows out of a manifest.
type JobRows = Vec<(String, String, u64)>;

struct Entry {
    id: String,
    seq: u64,
    spec: SweepSpec,
    opts: SubmitOptions,
    state: SweepState,
    plan: Option<Arc<SweepPlan>>,
    sched: Option<JobScheduler>,
    records: Vec<Option<JobRecord>>,
    summaries: Vec<Option<JobSummary>>,
    outcome: Option<SweepOutcome>,
    started: Instant,
    /// Stride-scheduling virtual time: the active sweep with the lowest
    /// pass claims next; each claim advances it by `STRIDE_ONE/priority`.
    pass: u64,
    /// Jobs claimed from this sweep so far (fairness telemetry).
    claims: u64,
}

impl Entry {
    fn active(&self) -> bool {
        !self.state.terminal()
    }

    /// The stride one claim advances this sweep's pass by.
    fn stride(&self) -> u64 {
        STRIDE_ONE / u64::from(self.opts.priority.max(1))
    }
}

/// Schema tag of queue entries and record journals.
const QUEUE_SCHEMA: &str = "mbcr-queue/1";

/// Stride-scheduling quantum: a priority-`p` sweep's pass advances by
/// `STRIDE_ONE / p` per claim, so relative claim rates follow priority
/// ratios. Large enough that integer division keeps distinct strides
/// for any plausible priority.
const STRIDE_ONE: u64 = 1 << 20;

/// The multi-sweep scheduling and persistence layer (see the module
/// docs). One registry owns one store; callers drive it under their own
/// lock — like [`crate::JobScheduler`] it is deliberately thread-free
/// state, so the in-process and TCP-serving drivers share one rule set.
pub struct SweepRegistry {
    store: ArtifactStore,
    /// Benchmark registry sweeps were planned against — finalization
    /// resolves the manifest's path-coverage block against it.
    benchmarks: Registry,
    entries: Vec<Entry>,
    /// Stage digest → the latest job registered for it. A later sweep
    /// sharing the digest parks behind this job while it is pending and
    /// cache-probes the shared store once it completes.
    owners: HashMap<u64, (usize, usize)>,
    /// Owner job → the parked `(entry, job)`s released when it lands.
    waiters: HashMap<(usize, usize), Vec<(usize, usize)>>,
    next_seq: u64,
    revision: u64,
    /// Jobs ever parked behind another in-flight digest (dedup telemetry).
    dedup_parked: u64,
}

impl SweepRegistry {
    /// Opens the registry over `store`, resuming any persisted queue:
    /// every non-terminal queue entry is re-planned, its record journal
    /// replayed (original statuses preserved), its cross-sweep holds
    /// re-derived, and — when the journal already covers every job (the
    /// daemon died between the last record and the manifest write) — the
    /// sweep finalized on the spot.
    ///
    /// # Errors
    ///
    /// Store I/O and plan-expansion failures. A malformed queue entry or
    /// journal line is skipped, not fatal: the jobs it described simply
    /// re-execute (or cache-probe) like any other cold work.
    pub fn open(store: &ArtifactStore, registry: &Registry) -> Result<Self, EngineError> {
        let mut service = Self {
            store: store.clone(),
            benchmarks: registry.clone(),
            entries: Vec::new(),
            owners: HashMap::new(),
            waiters: HashMap::new(),
            next_seq: 0,
            revision: 0,
            dedup_parked: 0,
        };
        let mut persisted: Vec<(u64, String, SweepState, SubmitOptions, SweepSpec)> = Vec::new();
        if let Ok(entries) = fs::read_dir(service.store.queue_dir()) {
            for entry in entries.flatten() {
                let Some(name) = entry.file_name().to_str().map(str::to_string) else {
                    continue;
                };
                if !name.ends_with(".json") {
                    continue;
                }
                let Ok(text) = fs::read_to_string(entry.path()) else {
                    continue;
                };
                let Ok(doc) = mbcr_json::parse(&text) else {
                    continue;
                };
                if doc.get("schema").and_then(Json::as_str) != Some(QUEUE_SCHEMA) {
                    continue;
                }
                let parsed = (|| {
                    let id = doc.get("id")?.as_str()?.to_string();
                    let seq = doc.get("seq")?.as_u64()?;
                    let state = SweepState::parse(doc.get("state")?.as_str()?)?;
                    let spec = SweepSpec::from_json(doc.get("spec")?).ok()?;
                    let opts = SubmitOptions {
                        force: doc.get("force")?.as_bool()?,
                        checkpoint_interval: match doc.get("checkpoint_interval") {
                            None | Some(Json::Null) => None,
                            Some(other) => Some(other.as_usize()?),
                        },
                        batch_width: doc.get("batch_width").and_then(Json::as_usize),
                        persist: true,
                        // Pre-gateway queue entries lack the scheduling
                        // knobs; default them instead of dropping the sweep.
                        priority: doc
                            .get("priority")
                            .and_then(Json::as_u64)
                            .map_or(1, |v| u32::try_from(v).unwrap_or(u32::MAX)),
                        max_concurrent: doc.get("max_concurrent").and_then(Json::as_usize),
                    };
                    Some((seq, id, state, opts, spec))
                })();
                if let Some(row) = parsed {
                    persisted.push(row);
                }
            }
        }
        persisted.sort_by_key(|(seq, ..)| *seq);
        for (seq, id, state, opts, spec) in persisted {
            service.next_seq = service.next_seq.max(seq + 1);
            if state.terminal() {
                service.entries.push(Entry {
                    id,
                    seq,
                    spec,
                    opts,
                    state,
                    plan: None,
                    sched: None,
                    records: Vec::new(),
                    summaries: Vec::new(),
                    outcome: None,
                    started: Instant::now(),
                    pass: 0,
                    claims: 0,
                });
                continue;
            }
            // Per-sweep resume failures must not brick the whole queue: a
            // spec that no longer plans (a benchmark renamed between
            // binaries, say) parks as canceled in memory — the queue file
            // keeps its state, so a fixed binary resumes it later — and
            // every other sweep comes back normally. Journal and finalize
            // hiccups likewise degrade to re-running (artifacts are
            // content-addressed; re-runs are wasted work, never wrong).
            match service.activate(id.clone(), seq, spec.clone(), opts, registry) {
                Ok(at) => {
                    if let Err(e) = service.replay_journal(at) {
                        eprintln!(
                            "service: replaying records of sweep {id} failed: {e}; \
                             unreplayed jobs will re-run"
                        );
                    }
                    if let Err(e) = service.finalize_if_drained(at) {
                        eprintln!("service: finalizing resumed sweep {id} failed: {e}");
                    }
                }
                Err(e) => {
                    eprintln!("service: sweep {id} no longer plans ({e}); parking it");
                    service.entries.push(Entry {
                        id,
                        seq,
                        spec,
                        opts,
                        state: SweepState::Canceled,
                        plan: None,
                        sched: None,
                        records: Vec::new(),
                        summaries: Vec::new(),
                        outcome: None,
                        started: Instant::now(),
                        pass: 0,
                        claims: 0,
                    });
                }
            }
        }
        Ok(service)
    }

    /// Plans a sweep, registers its cross-sweep holds, and appends the
    /// entry. Shared by [`SweepRegistry::submit`] and queue resume.
    fn activate(
        &mut self,
        id: String,
        seq: u64,
        spec: SweepSpec,
        opts: SubmitOptions,
        registry: &Registry,
    ) -> Result<usize, EngineError> {
        let run = RunOptions {
            threads: 0,
            force: opts.force,
            checkpoint_interval: opts.checkpoint_interval,
            batch_width: opts.batch_width,
        };
        let plan = Arc::new(SweepPlan::new(&spec, registry, &run)?);
        let mut sched = JobScheduler::new(&plan.graph.deps);
        let at = self.entries.len();
        for (job, digest) in plan.graph.digests.iter().enumerate() {
            let Some(digest) = *digest else { continue };
            if let Some(&(oe, oj)) = self.owners.get(&digest) {
                // An owner in *this* plan (two named inputs resolving to
                // the same vector keep separate nodes with one digest) is
                // pending by construction — it cannot be indexed through
                // `entries` yet, this entry is not pushed until below.
                let pending = oe == at || self.pending_record(oe, oj);
                if pending {
                    // The digest is in flight elsewhere: park this job and
                    // chain ownership, so a third sweep parks behind *us*
                    // and the sequential A→B→C ordering is preserved.
                    sched.hold(job);
                    self.waiters.entry((oe, oj)).or_default().push((at, job));
                    self.dedup_parked += 1;
                }
            }
            self.owners.insert(digest, (at, job));
        }
        let n = plan.len();
        // A new sweep joins at the minimum active pass (the stride-
        // scheduling convention): it competes fairly from now on instead
        // of monopolizing claims to "catch up" on time before it existed.
        let pass = self
            .entries
            .iter()
            .filter(|e| e.active())
            .map(|e| e.pass)
            .min()
            .unwrap_or(0);
        self.entries.push(Entry {
            id,
            seq,
            spec,
            opts,
            state: SweepState::Queued,
            plan: Some(plan),
            sched: Some(sched),
            records: vec![None; n],
            summaries: vec![None; n],
            outcome: None,
            started: Instant::now(),
            pass,
            claims: 0,
        });
        self.revision += 1;
        Ok(at)
    }

    /// Whether entry `oe`'s job `oj` may still produce a record (the
    /// condition under which a same-digest job must park behind it).
    fn pending_record(&self, oe: usize, oj: usize) -> bool {
        let entry = &self.entries[oe];
        entry.active() && entry.records.get(oj).is_some_and(Option::is_none)
    }

    /// Accepts a sweep: plans it, persists the queue entry (when
    /// `opts.persist`), and returns the sweep id. The submission is
    /// durable before this returns — a daemon killed right after resumes
    /// it.
    ///
    /// # Errors
    ///
    /// Plan-expansion failures (unknown benchmarks/inputs, bad
    /// geometries) and store I/O.
    pub fn submit(
        &mut self,
        spec: SweepSpec,
        opts: SubmitOptions,
        registry: &Registry,
    ) -> Result<String, EngineError> {
        let seq = self.next_seq;
        let id = format!("s{seq:03}-{}", slug(&spec.name));
        let at = self.activate(id.clone(), seq, spec, opts, registry)?;
        self.next_seq = seq + 1;
        self.persist_entry(at)?;
        // A degenerate plan with no jobs is born drained.
        self.finalize_if_drained(at)?;
        Ok(id)
    }

    /// Leases the next job to `worker`, weighted-fair across active
    /// sweeps (stride scheduling over [`SubmitOptions::priority`], so no
    /// submission starves and a priority-3 sweep claims three jobs per
    /// priority-1 job while both have ready work), respecting each
    /// sweep's [`SubmitOptions::max_concurrent`] quota. `None` when
    /// nothing is ready anywhere (all blocked, parked, leased, quota-
    /// capped, or finished).
    pub fn claim(&mut self, worker: u64) -> Option<ServiceClaim> {
        self.claim_with(worker, None)
    }

    /// [`SweepRegistry::claim`] with cache-aware placement: when
    /// `resident` is given, the chosen sweep hands out the ready job with
    /// the most upstream stage artifacts already resident on the claiming
    /// worker (`resident(digest)`), ties oldest-first — so a worker that
    /// just computed `pub` is preferred for the dependent `trace` instead
    /// of re-shipping the artifact to a cold peer. Placement only ever
    /// reorders *within* the fair-share winner; priority, quota, and
    /// dedup semantics are identical to a plain claim, and artifact bytes
    /// are placement-independent by construction.
    pub fn claim_with(
        &mut self,
        worker: u64,
        resident: Option<&dyn Fn(u64) -> bool>,
    ) -> Option<ServiceClaim> {
        // Stride scheduling: of the sweeps with claimable work and quota
        // headroom, the lowest virtual time wins (ties oldest-first).
        let at = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.active())
            .filter(|(_, e)| {
                e.sched.as_ref().is_some_and(|s| {
                    s.ready_count() > 0
                        && e.opts
                            .max_concurrent
                            .is_none_or(|cap| s.leased_count() < cap)
                })
            })
            .min_by_key(|(_, e)| (e.pass, e.seq))
            .map(|(at, _)| at)?;
        let plan = Arc::clone(
            self.entries[at]
                .plan
                .as_ref()
                .expect("active entries carry a plan"),
        );
        let sched = self.entries[at]
            .sched
            .as_mut()
            .expect("active entries carry a scheduler");
        let job = match resident {
            Some(resident) => sched.claim_preferred(worker, |job| {
                plan.graph.deps[job]
                    .iter()
                    .filter(|&&dep| plan.graph.digests[dep].is_some_and(resident))
                    .count() as u64
            }),
            None => sched.claim(worker),
        }
        .expect("a sweep with ready_count > 0 has a claimable job");
        let stride = self.entries[at].stride();
        self.entries[at].pass = self.entries[at].pass.saturating_add(stride);
        self.entries[at].claims += 1;
        if self.entries[at].state == SweepState::Queued {
            self.entries[at].state = SweepState::Running;
            self.revision += 1;
            let _ = self.persist_entry(at);
        }
        let entry = &self.entries[at];
        Some(ServiceClaim {
            sweep: entry.id.clone(),
            job,
            plan,
            force: entry.opts.force,
            persist: entry.opts.persist,
            knobs: AnalysisKnobs::from_spec(
                &entry.spec,
                entry.opts.checkpoint_interval,
                entry.opts.batch_width,
            ),
        })
    }

    /// Scheduler-level telemetry: queue depth, lease counts, per-sweep
    /// fairness and dedup counters (see [`RegistryMetrics`]). I/O-free —
    /// safe to call under a driver's state lock.
    #[must_use]
    pub fn metrics(&self) -> RegistryMetrics {
        let mut metrics = RegistryMetrics {
            ready: 0,
            leased: 0,
            active: 0,
            dedup_parked: self.dedup_parked,
            sweeps: Vec::with_capacity(self.entries.len()),
        };
        for entry in &self.entries {
            let (ready, leased) = entry
                .sched
                .as_ref()
                .filter(|_| entry.active())
                .map_or((0, 0), |s| (s.ready_count(), s.leased_count()));
            metrics.ready += ready;
            metrics.leased += leased;
            metrics.active += usize::from(entry.active());
            let status = self.status_of(entry);
            metrics.sweeps.push(SweepMetrics {
                id: entry.id.clone(),
                state: entry.state,
                priority: entry.opts.priority.max(1),
                max_concurrent: entry.opts.max_concurrent,
                claims: entry.claims,
                ready,
                leased,
                done: status.done,
                total: status.total,
                skipped: status.skipped,
            });
        }
        metrics
    }

    /// Returns `worker`'s leases across every sweep to their ready
    /// queues (the worker died or drained), as `(sweep id, job)` pairs.
    pub fn requeue_worker(&mut self, worker: u64) -> Vec<(String, usize)> {
        let mut requeued = Vec::new();
        for entry in &mut self.entries {
            if let Some(sched) = entry.sched.as_mut() {
                for job in sched.requeue_worker(worker) {
                    requeued.push((entry.id.clone(), job));
                }
            }
        }
        requeued
    }

    /// Records a job's terminal state: journals it (persistent sweeps),
    /// completes it in the sweep's scheduler, releases any cross-sweep
    /// waiters parked on it, and finalizes the sweep when it drained.
    /// Duplicate records (a presumed-dead worker's late result) and
    /// records for terminal sweeps (a cancel race) are absorbed.
    ///
    /// Callers holding a contended lock around the registry should
    /// fsync the journal line *first* with [`SweepRegistry::
    /// journal_record`] (no lock needed) and then pass
    /// `journaled = true`, so the whole fleet never queues behind a
    /// per-record fsync.
    ///
    /// # Errors
    ///
    /// Store I/O during finalization. Journal-append failures are
    /// swallowed (the job still completes; a restart re-runs it — costly,
    /// never wrong).
    pub fn record(
        &mut self,
        sweep: &str,
        job: usize,
        record: JobRecord,
        journaled: bool,
    ) -> Result<(), EngineError> {
        let Some(at) = self.index_of(sweep) else {
            return Ok(()); // unknown sweep: a stale result, absorb
        };
        let fresh =
            self.entries[at].active() && matches!(self.entries[at].records.get(job), Some(None));
        if !fresh {
            // Terminal sweep, duplicate, or out-of-range: absorb. The
            // lease (if any) still releases so the scheduler can drain.
            if let Some(sched) = self.entries[at].sched.as_mut() {
                if job < sched.len() && !sched.is_blocked(job) {
                    sched.complete(job);
                }
            }
            return Ok(());
        }
        if !journaled && self.entries[at].opts.persist {
            if let Err(e) = Self::journal_record(&self.store, sweep, job, &record) {
                eprintln!(
                    "service: journaling job {job} of sweep {sweep} failed: {e} \
                     (a restart will re-run it)"
                );
            }
        }
        let entry = &mut self.entries[at];
        entry.summaries[job] = record.summary.clone();
        entry.records[job] = Some(record);
        entry
            .sched
            .as_mut()
            .expect("active entries carry a scheduler")
            .complete(job);
        self.revision += 1;
        if let Some(waiters) = self.waiters.remove(&(at, job)) {
            for (we, wj) in waiters {
                if let Some(sched) = self.entries[we].sched.as_mut() {
                    sched.release(wj);
                }
            }
        }
        self.finalize_if_drained(at)
    }

    /// Re-attempts finalization of any sweep that drained but whose
    /// manifest/table write failed (ENOSPC, transient store trouble) —
    /// [`SweepRegistry::record`] cannot retry on its own because the
    /// drained scheduler receives no further records. Drivers call this
    /// periodically; it is a no-op when nothing is stuck.
    ///
    /// # Errors
    ///
    /// The first finalization failure encountered (the remaining entries
    /// are still attempted).
    pub fn retry_finalize(&mut self) -> Result<(), EngineError> {
        let mut first_error = None;
        for at in 0..self.entries.len() {
            if let Err(e) = self.finalize_if_drained(at) {
                first_error = first_error.or(Some(e));
            }
        }
        match first_error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Cancels a sweep: it stops claiming, its parked dependents across
    /// other sweeps are released (they re-probe the store themselves),
    /// and in-flight results for it are absorbed. Returns the resulting
    /// state (terminal sweeps cancel to whatever they already were).
    ///
    /// # Errors
    ///
    /// [`EngineError::Spec`] on an unknown sweep id.
    pub fn cancel(&mut self, sweep: &str) -> Result<SweepState, EngineError> {
        let Some(at) = self.index_of(sweep) else {
            return Err(EngineError::Spec(format!("unknown sweep '{sweep}'")));
        };
        if self.entries[at].state.terminal() {
            return Ok(self.entries[at].state);
        }
        self.entries[at].state = SweepState::Canceled;
        let held: Vec<(usize, usize)> = self
            .waiters
            .keys()
            .filter(|(oe, _)| *oe == at)
            .copied()
            .collect();
        for key in held {
            if let Some(waiters) = self.waiters.remove(&key) {
                for (we, wj) in waiters {
                    if let Some(sched) = self.entries[we].sched.as_mut() {
                        sched.release(wj);
                    }
                }
            }
        }
        self.revision += 1;
        self.persist_entry(at).map_err(EngineError::Io)?;
        Ok(SweepState::Canceled)
    }

    /// Dependency summaries of one job (what a combine node consumes).
    #[must_use]
    pub fn dep_summaries(&self, sweep: &str, job: usize) -> Vec<Option<JobSummary>> {
        let Some(at) = self.index_of(sweep) else {
            return Vec::new();
        };
        let entry = &self.entries[at];
        let Some(plan) = entry.plan.as_ref() else {
            return Vec::new();
        };
        plan.graph.deps[job]
            .iter()
            .map(|&dep| entry.summaries[dep].clone())
            .collect()
    }

    /// Whether `job` of `sweep` was never handed out (a result for it is
    /// a protocol violation). `None` for unknown sweeps or out-of-range
    /// jobs.
    #[must_use]
    pub fn result_plausible(&self, sweep: &str, job: usize) -> Option<bool> {
        let at = self.index_of(sweep)?;
        let entry = &self.entries[at];
        if entry.state.terminal() {
            // Terminal sweeps absorb anything addressed to them.
            return Some(true);
        }
        let plan = entry.plan.as_ref()?;
        if job >= plan.len() {
            return Some(false);
        }
        Some(!entry.sched.as_ref()?.is_blocked(job))
    }

    /// The plan of an active sweep (`None` once terminal or unknown).
    #[must_use]
    pub fn plan(&self, sweep: &str) -> Option<Arc<SweepPlan>> {
        self.entries[self.index_of(sweep)?].plan.clone()
    }

    /// Whether every submitted sweep is terminal.
    #[must_use]
    pub fn finished(&self) -> bool {
        self.entries.iter().all(|e| e.state.terminal())
    }

    /// Monotone change counter: bumped on every submission, record and
    /// state transition. Pollers (the SSE follow stream) compare it to
    /// skip rebuilding record snapshots on no-change ticks; it does
    /// *not* cover campaign chunk-log growth, which streams into the
    /// store without touching the registry — poll
    /// [`campaign_progress_for`] for that.
    #[must_use]
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Whether a sweep journals its records (`SubmitOptions::persist`).
    /// `false` for unknown ids.
    #[must_use]
    pub fn persistent(&self, sweep: &str) -> bool {
        self.index_of(sweep)
            .is_some_and(|at| self.entries[at].opts.persist)
    }

    /// The finalized outcome of a sweep, once it drained.
    #[must_use]
    pub fn outcome(&self, sweep: &str) -> Option<&SweepOutcome> {
        self.entries[self.index_of(sweep)?].outcome.as_ref()
    }

    /// Sweep ids in submission order.
    #[must_use]
    pub fn ids(&self) -> Vec<String> {
        self.entries.iter().map(|e| e.id.clone()).collect()
    }

    /// One status row per sweep, in submission order.
    #[must_use]
    pub fn statuses(&self) -> Vec<SweepStatus> {
        self.entries.iter().map(|e| self.status_of(e)).collect()
    }

    fn status_of(&self, entry: &Entry) -> SweepStatus {
        let mut status = SweepStatus {
            id: entry.id.clone(),
            name: entry.spec.name.clone(),
            state: entry.state,
            total: entry.plan.as_ref().map_or(0, |p| p.len()),
            done: 0,
            executed: 0,
            skipped: 0,
            failed: 0,
        };
        for record in entry.records.iter().flatten() {
            status.done += 1;
            match record.status {
                crate::JobStatus::Executed => status.executed += 1,
                crate::JobStatus::Skipped => status.skipped += 1,
                crate::JobStatus::Failed => status.failed += 1,
            }
        }
        if entry.records.is_empty() && entry.state.terminal() {
            // Resumed-as-terminal entries keep no in-memory records; the
            // persisted manifest still has the truth.
            if let Some((jobs, counts)) = self.manifest_rows(entry) {
                status.total = jobs.len();
                status.done = jobs.len();
                status.executed = counts.0;
                status.skipped = counts.1;
                status.failed = counts.2;
            }
        }
        status
    }

    /// The progress snapshot of one sweep, or `None` for unknown ids.
    ///
    /// Deliberately I/O-free so drivers can call it under their state
    /// lock: `campaigns` comes back **empty** — fill it outside the lock
    /// from [`SweepRegistry::campaign_digests`] and the store's chunk
    /// logs (see [`campaign_progress_for`]). The one exception is a
    /// terminal sweep resumed without in-memory records, whose rows are
    /// read back from its persisted manifest (bounded, once per call).
    #[must_use]
    pub fn snapshot(&self, sweep: &str) -> Option<SweepSnapshot> {
        let entry = &self.entries[self.index_of(sweep)?];
        let mut snapshot = SweepSnapshot {
            id: entry.id.clone(),
            name: entry.spec.name.clone(),
            state: entry.state,
            jobs: Vec::new(),
            total: entry.plan.as_ref().map_or(0, |p| p.len()),
            campaigns: Vec::new(),
        };
        if entry.records.is_empty() && entry.state.terminal() {
            if let Some((jobs, _)) = self.manifest_rows(entry) {
                snapshot.total = jobs.len();
                snapshot.jobs = jobs;
            }
            return Some(snapshot);
        }
        for record in entry.records.iter().flatten() {
            snapshot.jobs.push((
                record.label.clone(),
                record.status.name().to_string(),
                record
                    .summary
                    .as_ref()
                    .and_then(|s| s.campaign_resumed)
                    .unwrap_or(0),
            ));
        }
        Some(snapshot)
    }

    /// The campaign-stage content digests of one sweep's plan — the
    /// addresses of its streamed chunk logs. Empty for unknown or
    /// plan-less (terminal-resumed) sweeps.
    #[must_use]
    pub fn campaign_digests(&self, sweep: &str) -> Vec<u64> {
        let Some(at) = self.index_of(sweep) else {
            return Vec::new();
        };
        let Some(plan) = self.entries[at].plan.as_ref() else {
            return Vec::new();
        };
        plan.graph
            .jobs
            .iter()
            .zip(&plan.graph.digests)
            .filter(|(job, _)| job.kind.stage() == Some(StageKind::Campaign))
            .filter_map(|(_, digest)| *digest)
            .collect()
    }

    /// Whether the registry knows this sweep id.
    #[must_use]
    pub fn contains(&self, sweep: &str) -> bool {
        self.index_of(sweep).is_some()
    }

    /// `(label, status, resumed)` rows and `(executed, skipped, failed)`
    /// counts out of a terminal sweep's persisted manifest.
    fn manifest_rows(&self, entry: &Entry) -> Option<(JobRows, Counts)> {
        let scope = self.store.run_scope(&entry.id).ok()?;
        let manifest = scope.load_manifest()?;
        let jobs = manifest.get("jobs")?.as_array()?;
        let rows = jobs
            .iter()
            .map(|j| {
                (
                    j.get("label")
                        .and_then(Json::as_str)
                        .unwrap_or("?")
                        .to_string(),
                    j.get("status")
                        .and_then(Json::as_str)
                        .unwrap_or("?")
                        .to_string(),
                    j.get("summary")
                        .and_then(|s| s.get("campaign_resumed"))
                        .and_then(Json::as_u64)
                        .unwrap_or(0),
                )
            })
            .collect();
        let count = |k: &str| {
            manifest
                .get("counts")
                .and_then(|c| c.get(k))
                .and_then(Json::as_u64)
                .map_or(0, |v| usize::try_from(v).unwrap_or(usize::MAX))
        };
        Some((rows, (count("executed"), count("skipped"), count("failed"))))
    }

    fn index_of(&self, sweep: &str) -> Option<usize> {
        self.entries.iter().position(|e| e.id == sweep)
    }

    /// Finalizes a drained sweep: manifest + Table 2 into its run scope
    /// (persistent submissions) or the store root (ephemeral
    /// compatibility submissions), byte-identical to a single-process
    /// run's.
    fn finalize_if_drained(&mut self, at: usize) -> Result<(), EngineError> {
        let ready = {
            let entry = &self.entries[at];
            entry.active() && entry.sched.as_ref().is_some_and(JobScheduler::finished)
        };
        if !ready {
            return Ok(());
        }
        let (spec, records, persist, id, elapsed) = {
            let entry = &self.entries[at];
            (
                entry.spec.clone(),
                entry
                    .records
                    .iter()
                    .cloned()
                    .map(|r| r.expect("drained sweeps have a record per job"))
                    .collect::<Vec<_>>(),
                entry.opts.persist,
                entry.id.clone(),
                entry.started.elapsed(),
            )
        };
        let scope = if persist {
            self.store.run_scope(&id)?
        } else {
            self.store.clone()
        };
        let outcome = finalize_sweep(&spec, records, &self.benchmarks, &scope, elapsed)?;
        self.entries[at].outcome = Some(outcome);
        self.entries[at].state = SweepState::Done;
        self.revision += 1;
        if persist {
            self.persist_entry(at)?;
        }
        Ok(())
    }

    /// Writes (or rewrites) a sweep's durable queue entry.
    fn persist_entry(&self, at: usize) -> io::Result<()> {
        let entry = &self.entries[at];
        if !entry.opts.persist {
            return Ok(());
        }
        let doc = Json::Obj(vec![
            ("schema".to_string(), QUEUE_SCHEMA.into()),
            ("id".to_string(), entry.id.as_str().into()),
            ("seq".to_string(), Json::UInt(entry.seq)),
            ("state".to_string(), entry.state.name().into()),
            ("force".to_string(), Json::Bool(entry.opts.force)),
            (
                "checkpoint_interval".to_string(),
                Serialize::to_json(&entry.opts.checkpoint_interval.map(|v| v as u64)),
            ),
            (
                "batch_width".to_string(),
                Serialize::to_json(&entry.opts.batch_width.map(|v| v as u64)),
            ),
            (
                "priority".to_string(),
                Json::UInt(u64::from(entry.opts.priority.max(1))),
            ),
            (
                "max_concurrent".to_string(),
                Serialize::to_json(&entry.opts.max_concurrent.map(|v| v as u64)),
            ),
            ("spec".to_string(), entry.spec.to_json()),
        ]);
        let path = self.store.queue_dir().join(format!("{}.json", entry.id));
        write_json_atomic(&path, &doc)
    }

    /// Appends one job record to a sweep's journal, fsync'd — the record
    /// is durable before the scheduler moves on. An associated function
    /// on purpose: it takes no registry state, so drivers run the fsync
    /// *outside* their registry lock and pass `journaled = true` to
    /// [`SweepRegistry::record`]. Concurrent appenders are safe — each
    /// line is one `O_APPEND` write, and replay dedups any duplicate
    /// line a record race produces.
    ///
    /// # Errors
    ///
    /// Filesystem failures (callers log and move on; an unjournaled job
    /// simply re-runs after a restart).
    pub fn journal_record(
        store: &ArtifactStore,
        sweep: &str,
        job: usize,
        record: &JobRecord,
    ) -> io::Result<()> {
        let scope = store.run_scope(sweep)?;
        let line = Json::Obj(vec![
            ("job".to_string(), Json::UInt(job as u64)),
            ("record".to_string(), Serialize::to_json(record)),
        ]);
        let mut text = line.to_compact();
        text.push('\n');
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(scope.records_path())?;
        file.write_all(text.as_bytes())?;
        file.sync_all()
    }

    /// Replays a resumed sweep's record journal: every whole, valid line
    /// restores its job's original record; a torn final line (the kill
    /// landed mid-append) or an out-of-order line is skipped — the job
    /// re-runs, which is safe because artifacts are content-addressed.
    fn replay_journal(&mut self, at: usize) -> Result<(), EngineError> {
        let scope = self.store.run_scope(&self.entries[at].id)?;
        let text = match fs::read_to_string(scope.records_path()) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(EngineError::Io(e)),
        };
        for line in text.lines() {
            let Ok(doc) = mbcr_json::parse(line) else {
                continue;
            };
            let Some((job, record)) = doc
                .get("job")
                .and_then(Json::as_usize)
                .zip(doc.get("record").and_then(JobRecord::from_json))
            else {
                continue;
            };
            let entry = &mut self.entries[at];
            if job >= entry.records.len() || entry.records[job].is_some() {
                continue;
            }
            let sched = entry.sched.as_mut().expect("resumed entries are active");
            if sched.is_blocked(job) {
                continue; // journal disagrees with the plan: re-run instead
            }
            entry.summaries[job] = record.summary.clone();
            entry.records[job] = Some(record);
            sched.complete(job);
            // Waiters cannot be parked on us yet during resume (later
            // sweeps activate after this replay), so no release pass.
        }
        self.revision += 1;
        Ok(())
    }
}

/// Reads the live progress of the chunk logs under `digests` — the
/// I/O half of a [`SweepRegistry::snapshot`], split out so drivers run
/// it *without* holding their registry lock (a paper-scale sweep has
/// hundreds of campaign logs; stalling every worker request behind
/// their metadata scans is exactly the lock-held store I/O the claim
/// path already avoids).
#[must_use]
pub fn campaign_progress_for(store: &ArtifactStore, digests: &[u64]) -> Vec<CampaignProgress> {
    digests
        .iter()
        .filter_map(|&digest| {
            SampleLog::at(store.stage_samples_path(digest))
                .meta()
                .map(|(collected, total)| CampaignProgress {
                    digest,
                    collected: usize::try_from(collected).unwrap_or(usize::MAX),
                    total,
                })
        })
        .collect()
}

/// A filesystem-safe slug of a campaign name for sweep ids.
fn slug(name: &str) -> String {
    let cleaned: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '-'
            }
        })
        .take(24)
        .collect();
    if cleaned.is_empty() {
        "sweep".to_string()
    } else {
        cleaned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{execute_combine, execute_stage, JobKind, JobStatus};

    fn tmp_store(tag: &str) -> ArtifactStore {
        let dir =
            std::env::temp_dir().join(format!("mbcr-service-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        ArtifactStore::open(dir).expect("open store")
    }

    fn quick_spec(name: &str, seeds: &[u64]) -> SweepSpec {
        SweepSpec {
            max_campaign_runs: Some(200),
            ..SweepSpec::new(name)
                .benchmarks(["bs"])
                .seeds(seeds.iter().copied())
                .analyses([crate::AnalysisKind::PubTac])
        }
    }

    /// Drives the registry to completion in-process, executing claims
    /// exactly like the shard coordinator's claim loop does.
    fn drain(service: &mut SweepRegistry, store: &ArtifactStore, registry: &Registry) {
        while let Some(claim) = service.claim(1) {
            let job = &claim.plan.graph.jobs[claim.job];
            let key = &claim.plan.keys[claim.job];
            if !claim.force {
                if let Some(summary) = claim.plan.cached_summary(claim.job, store) {
                    let record = JobRecord {
                        key: key.clone(),
                        label: job.label(),
                        status: JobStatus::Skipped,
                        error: None,
                        summary: Some(summary),
                    };
                    service
                        .record(&claim.sweep, claim.job, record, false)
                        .unwrap();
                    continue;
                }
            }
            let outcome = match &job.kind {
                JobKind::MultipathCombine => {
                    let deps = service.dep_summaries(&claim.sweep, claim.job);
                    execute_combine(job, key, &deps).and_then(|(summary, result)| {
                        store.write_job(key, &summary, result, None)?;
                        Ok(summary)
                    })
                }
                JobKind::Stage { .. } => {
                    let cfg = claim.knobs.config(&job.geometry, job.job_seed()).unwrap();
                    execute_stage(job, key, &cfg, registry, store, claim.force).and_then(|out| {
                        if let Some((result, sample)) = out.fit {
                            store.write_job(key, &out.summary, result, sample.as_deref())?;
                        }
                        Ok(out.summary)
                    })
                }
            };
            let record = match outcome {
                Ok(summary) => JobRecord {
                    key: key.clone(),
                    label: job.label(),
                    status: JobStatus::Executed,
                    error: None,
                    summary: Some(summary),
                },
                Err(e) => JobRecord {
                    key: key.clone(),
                    label: job.label(),
                    status: JobStatus::Failed,
                    error: Some(e.to_string()),
                    summary: None,
                },
            };
            service
                .record(&claim.sweep, claim.job, record, false)
                .unwrap();
        }
    }

    #[test]
    fn overlapping_sweeps_dedup_shared_stages_with_truthful_counts() {
        let store = tmp_store("dedup");
        let registry = Registry::malardalen();
        let mut service = SweepRegistry::open(&store, &registry).unwrap();
        let opts = SubmitOptions {
            persist: true,
            ..SubmitOptions::default()
        };
        // Same cell twice: every stage of b collides with a.
        let a = service
            .submit(quick_spec("alpha", &[7]), opts, &registry)
            .unwrap();
        let b = service
            .submit(quick_spec("beta", &[7]), opts, &registry)
            .unwrap();
        drain(&mut service, &store, &registry);
        assert!(service.finished());
        let statuses = service.statuses();
        let of = |id: &str| statuses.iter().find(|s| s.id == *id).unwrap();
        assert!(of(&a).executed > 0, "first sweep executes the work");
        assert_eq!(of(&a).failed, 0);
        assert_eq!(
            of(&b).executed,
            0,
            "second sweep executes nothing: every shared stage dedups"
        );
        assert_eq!(of(&b).skipped, of(&b).total);
        // Both manifests exist, in their own scopes, and agree on the
        // job keys (same content addresses).
        for id in [&a, &b] {
            let scope = store.run_scope(id).unwrap();
            assert!(scope.manifest_path().is_file(), "{id} manifest");
            assert!(scope.table2_path().is_file(), "{id} table2");
        }
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn killed_registry_resumes_queue_and_preserves_statuses() {
        let store = tmp_store("resume");
        let registry = Registry::malardalen();
        let opts = SubmitOptions {
            persist: true,
            ..SubmitOptions::default()
        };
        let (a, b) = {
            let mut service = SweepRegistry::open(&store, &registry).unwrap();
            let a = service
                .submit(quick_spec("first", &[1]), opts, &registry)
                .unwrap();
            let b = service
                .submit(quick_spec("second", &[2]), opts, &registry)
                .unwrap();
            // Execute a strict prefix of the work, then "die" (drop).
            for _ in 0..3 {
                let claim = service.claim(9).unwrap();
                let job = &claim.plan.graph.jobs[claim.job];
                let key = &claim.plan.keys[claim.job];
                let cfg = claim.knobs.config(&job.geometry, job.job_seed()).unwrap();
                let out = execute_stage(job, key, &cfg, &registry, &store, false).unwrap();
                let record = JobRecord {
                    key: key.clone(),
                    label: job.label(),
                    status: JobStatus::Executed,
                    error: None,
                    summary: Some(out.summary),
                };
                service
                    .record(&claim.sweep, claim.job, record, false)
                    .unwrap();
            }
            (a, b)
        };
        // A fresh registry over the same store: the queue and the
        // journaled records come back verbatim.
        let mut resumed = SweepRegistry::open(&store, &registry).unwrap();
        assert_eq!(resumed.ids(), vec![a.clone(), b.clone()]);
        let statuses = resumed.statuses();
        let done_before: usize = statuses.iter().map(|s| s.done).sum();
        assert_eq!(done_before, 3, "journaled records replay, not re-run");
        assert!(statuses.iter().all(|s| s.failed == 0));
        drain(&mut resumed, &store, &registry);
        assert!(resumed.finished());
        // The resumed statuses stay truthful: replayed jobs count as
        // executed (they did execute — in the previous life).
        let statuses = resumed.statuses();
        let of = |id: &str| statuses.iter().find(|s| s.id == *id).unwrap();
        assert_eq!(of(&a).done, of(&a).total);
        assert_eq!(of(&b).done, of(&b).total);
        assert_eq!(of(&a).failed + of(&b).failed, 0);
        // A third registry sees both as done without planning anything.
        let third = SweepRegistry::open(&store, &registry).unwrap();
        assert!(third.finished());
        assert!(third
            .statuses()
            .iter()
            .all(|s| s.state == SweepState::Done && s.done == s.total && s.total > 0));
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn same_digest_nodes_within_one_plan_chain_instead_of_panicking() {
        // Two *named* inputs resolving to the same vector keep separate
        // pipeline nodes that share every stage digest (the expansion's
        // documented NodeIndex behavior) — the registry must chain them
        // like cross-sweep duplicates, not index an entry it has not
        // pushed yet.
        let store = tmp_store("same-digest");
        let mut registry = Registry::empty();
        let mut benchmark = mbcr_malardalen::bs::benchmark();
        let twin = benchmark.default_input.clone();
        benchmark.input_vectors = vec![
            mbcr_malardalen::NamedInput {
                name: "a".to_string(),
                inputs: twin.clone(),
            },
            mbcr_malardalen::NamedInput {
                name: "b".to_string(),
                inputs: twin,
            },
        ];
        registry.insert(benchmark);
        let mut service = SweepRegistry::open(&store, &registry).unwrap();
        let spec = SweepSpec {
            max_campaign_runs: Some(200),
            ..SweepSpec::new("twins")
                .benchmarks(["bs"])
                .inputs(crate::InputSelection::All)
                .seeds([5])
                .analyses([crate::AnalysisKind::PubTac])
        };
        let opts = SubmitOptions {
            persist: true,
            ..SubmitOptions::default()
        };
        let id = service.submit(spec, opts, &registry).unwrap();
        drain(&mut service, &store, &registry);
        assert!(service.finished());
        let statuses = service.statuses();
        let status = statuses.iter().find(|s| s.id == id).unwrap();
        assert_eq!(status.done, status.total);
        assert_eq!(status.failed, 0);
        // Input `a` executes its pipeline; input `b`'s twin nodes chain
        // behind it and come back cached — deterministic, truthful.
        assert!(status.skipped > 0, "twin-input stages must dedup");
        let _ = fs::remove_dir_all(store.root());
    }

    /// A spec over `benchmark` whose stage digests are disjoint from any
    /// other benchmark's — for scheduling tests that need two sweeps
    /// with independent work (no cross-sweep parking).
    fn disjoint_spec(name: &str, benchmark: &str) -> SweepSpec {
        SweepSpec {
            max_campaign_runs: Some(200),
            ..SweepSpec::new(name)
                .benchmarks([benchmark])
                .seeds([7])
                .analyses([crate::AnalysisKind::PubTac])
        }
    }

    /// Completes a claim with a fabricated failed record — scheduling
    /// tests only care about claim order, never artifact content.
    fn complete_fake(service: &mut SweepRegistry, claim: &ServiceClaim) {
        let record = JobRecord {
            key: claim.plan.keys[claim.job].clone(),
            label: claim.plan.graph.jobs[claim.job].label(),
            status: JobStatus::Failed,
            error: Some("synthetic".to_string()),
            summary: None,
        };
        service
            .record(&claim.sweep, claim.job, record, false)
            .unwrap();
    }

    #[test]
    fn priority_weights_the_claim_interleaving() {
        let store = tmp_store("priority");
        let registry = Registry::malardalen();
        let mut service = SweepRegistry::open(&store, &registry).unwrap();
        let a = service
            .submit(
                disjoint_spec("slow", "bs"),
                SubmitOptions {
                    persist: true,
                    priority: 1,
                    ..SubmitOptions::default()
                },
                &registry,
            )
            .unwrap();
        let b = service
            .submit(
                disjoint_spec("fast", "cnt"),
                SubmitOptions {
                    persist: true,
                    priority: 3,
                    ..SubmitOptions::default()
                },
                &registry,
            )
            .unwrap();
        // Both pipelines are serial chains, so completing each claim
        // immediately keeps exactly one job of each sweep ready: the
        // interleaving is pure stride scheduling. Passes tie at 0 →
        // oldest (a) first; then b claims three times per a claim.
        let mut order = Vec::new();
        for _ in 0..8 {
            let claim = service.claim(1).expect("both sweeps have ready work");
            order.push(claim.sweep.clone());
            complete_fake(&mut service, &claim);
        }
        assert_eq!(order[0], a, "a pass tie goes to the older submission");
        let of = |id: &str| order.iter().filter(|s| *s == id).count();
        assert_eq!(
            (of(&a), of(&b)),
            (2, 6),
            "priority 3 sweep must claim three jobs per priority-1 job"
        );
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn max_concurrent_caps_outstanding_leases_per_sweep() {
        let store = tmp_store("quota");
        let registry = Registry::malardalen();
        let mut service = SweepRegistry::open(&store, &registry).unwrap();
        let a = service
            .submit(
                disjoint_spec("capped", "bs"),
                SubmitOptions {
                    persist: true,
                    max_concurrent: Some(1),
                    ..SubmitOptions::default()
                },
                &registry,
            )
            .unwrap();
        let b = service
            .submit(
                disjoint_spec("open", "cnt"),
                SubmitOptions {
                    persist: true,
                    ..SubmitOptions::default()
                },
                &registry,
            )
            .unwrap();
        let first = service.claim(1).expect("first claim");
        assert_eq!(first.sweep, a, "tie on pass goes to the older sweep");
        // a is at its cap while the lease is outstanding: the next claim
        // must come from b even though a still has the lower pass.
        let second = service.claim(2).expect("second claim");
        assert_eq!(second.sweep, b, "quota-capped sweep must be skipped");
        // Serial chains: with both heads leased, nothing is claimable.
        assert!(service.claim(3).is_none());
        complete_fake(&mut service, &first);
        let third = service.claim(3).expect("cap freed after completion");
        assert_eq!(third.sweep, a);
        let metrics = service.metrics();
        let row = |id: &str| metrics.sweeps.iter().find(|s| s.id == *id).unwrap().clone();
        assert_eq!(row(&a).max_concurrent, Some(1));
        assert_eq!(row(&a).leased, 1);
        assert_eq!(row(&a).claims, 2);
        assert_eq!(row(&b).leased, 1);
        assert_eq!(metrics.leased, 2);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn metrics_count_dedup_parking_and_fairness() {
        let store = tmp_store("metrics");
        let registry = Registry::malardalen();
        let mut service = SweepRegistry::open(&store, &registry).unwrap();
        let opts = SubmitOptions {
            persist: true,
            ..SubmitOptions::default()
        };
        let a = service
            .submit(quick_spec("owner", &[7]), opts, &registry)
            .unwrap();
        let b = service
            .submit(quick_spec("twin", &[7]), opts, &registry)
            .unwrap();
        let before = service.metrics();
        assert!(
            before.dedup_parked > 0,
            "the twin sweep must park behind the owner's digests"
        );
        assert_eq!(before.active, 2);
        assert!(before.ready > 0);
        drain(&mut service, &store, &registry);
        let after = service.metrics();
        assert_eq!(after.ready, 0);
        assert_eq!(after.leased, 0);
        assert_eq!(after.active, 0);
        let row = |id: &str| after.sweeps.iter().find(|s| s.id == *id).unwrap();
        assert!(row(&a).claims > 0);
        assert_eq!(
            row(&b).skipped,
            row(&b).total,
            "every twin job is a dedup hit"
        );
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn queue_entries_persist_scheduling_knobs_across_restarts() {
        let store = tmp_store("knobs");
        let registry = Registry::malardalen();
        let id = {
            let mut service = SweepRegistry::open(&store, &registry).unwrap();
            service
                .submit(
                    quick_spec("knobbed", &[3]),
                    SubmitOptions {
                        persist: true,
                        priority: 5,
                        max_concurrent: Some(2),
                        ..SubmitOptions::default()
                    },
                    &registry,
                )
                .unwrap()
        };
        let resumed = SweepRegistry::open(&store, &registry).unwrap();
        let metrics = resumed.metrics();
        let row = metrics.sweeps.iter().find(|s| s.id == id).unwrap();
        assert_eq!(row.priority, 5);
        assert_eq!(row.max_concurrent, Some(2));
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn cancel_releases_cross_sweep_waiters() {
        let store = tmp_store("cancel");
        let registry = Registry::malardalen();
        let mut service = SweepRegistry::open(&store, &registry).unwrap();
        let opts = SubmitOptions {
            persist: true,
            ..SubmitOptions::default()
        };
        let a = service
            .submit(quick_spec("owner", &[3]), opts, &registry)
            .unwrap();
        let b = service
            .submit(quick_spec("waiter", &[3]), opts, &registry)
            .unwrap();
        // Nothing of b is claimable while a owns every digest...
        let claim = service.claim(1).expect("a's first job");
        assert_eq!(claim.sweep, a);
        // ...but cancelling a releases b's parked jobs.
        assert_eq!(service.cancel(&a).unwrap(), SweepState::Canceled);
        drain(&mut service, &store, &registry);
        assert!(service.finished());
        let statuses = service.statuses();
        let of = |id: &str| statuses.iter().find(|s| s.id == *id).unwrap();
        assert_eq!(of(&a).state, SweepState::Canceled);
        assert_eq!(of(&b).state, SweepState::Done);
        assert_eq!(of(&b).done, of(&b).total);
        assert_eq!(of(&b).failed, 0);
        // The claim leased before the cancel reports late; it is absorbed.
        let record = JobRecord {
            key: claim.plan.keys[claim.job].clone(),
            label: claim.plan.graph.jobs[claim.job].label(),
            status: JobStatus::Executed,
            error: None,
            summary: None,
        };
        service.record(&a, claim.job, record, false).unwrap();
        assert_eq!(of(&a).state, SweepState::Canceled);
        let _ = fs::remove_dir_all(store.root());
    }
}
