//! The HTTP/JSON + SSE face of the service daemon (`mbcr serve --http`):
//! the only client surface. `mbcr submit`, `status`, `cancel` and
//! `report --connect` speak these routes; the binary listener serves
//! workers alone.
//!
//! Every route is a thin adapter over the [`Service`] the worker loop
//! drives — one registry, one durability contract. Handlers run in the
//! accept loop's thread scope, one request per connection; a slow or
//! hostile peer can stall only its own handler thread, never the claim
//! loop, because every route takes the state lock just long enough for
//! an in-memory read.
//!
//! Routes:
//!
//! | Method + path               | Action                                 |
//! |-----------------------------|----------------------------------------|
//! | `GET /v1/healthz`           | liveness: uptime, schemas, worker count|
//! | `GET /v1/metrics`           | queue depth, fairness, dedup, affinity |
//! | `GET /v1/metrics?format=prometheus` | text exposition of `mbcr-obs`  |
//! | `GET /v1/sweeps`            | status of every sweep                  |
//! | `POST /v1/sweeps`           | submit (durable before `201`)          |
//! | `GET /v1/sweeps/{id}`       | one sweep's full snapshot              |
//! | `DELETE /v1/sweeps/{id}`    | cancel                                 |
//! | `GET /v1/sweeps/{id}/events`| SSE progress stream until terminal     |

use std::io::{self, BufReader};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::Duration;

use mbcr::prelude::{CacheGeometry, Inputs};
use mbcr::stage::{cache_class, path_coverage, rollup_to_json};
use mbcr_engine::{EngineError, SubmitOptions, SweepMetrics};
use mbcr_gateway::{
    read_request, respond_error, respond_json, respond_text, sse_event, sse_headers, Request,
};
use mbcr_json::Json;

use super::Service;
use crate::protocol;

/// Serves one HTTP connection: parse (hardened), route, respond, close.
/// Malformed requests get a `400` and never disturb the daemon.
pub(super) fn handle(service: &Service<'_>, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    // The read timeout bounds header/body dribble; the write timeout is
    // what guarantees a never-reading SSE follower errors its handler
    // out instead of pinning it forever.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let Ok(reading) = stream.try_clone() else {
        return;
    };
    let request = match read_request(&mut BufReader::new(reading)) {
        Ok(Some(request)) => request,
        Ok(None) => return, // peer connected and left; nothing to answer
        Err(e) => {
            let _ = respond_error(&mut stream, 400, &e.to_string());
            return;
        }
    };
    let _ = route(service, &mut stream, &request);
}

fn route(service: &Service<'_>, stream: &mut TcpStream, request: &Request) -> io::Result<()> {
    let method = request.method.as_str();
    // `Request.path` keeps any query suffix verbatim; only `/v1/metrics`
    // interprets one (`?format=`), every other route ignores it.
    let (path, query) = match request.path.split_once('?') {
        Some((path, query)) => (path, Some(query)),
        None => (request.path.as_str(), None),
    };
    // Per-route request latency: the span name is the route *pattern*
    // (never the raw path — sweep ids would explode the cardinality).
    let _span = mbcr_obs::span(mbcr_obs::SpanKind::HttpRequest, route_pattern(method, path));
    match (method, path) {
        ("GET", "/v1/healthz") => respond_json(stream, 200, &healthz_doc(service)),
        ("GET", "/v1/metrics") => metrics(service, stream, query),
        ("GET", "/v1/sweeps") => {
            let statuses = { service.lock().sweeps.statuses() };
            let rows = statuses.iter().map(protocol::status_json).collect();
            respond_json(
                stream,
                200,
                &Json::Obj(vec![("sweeps".to_string(), Json::Arr(rows))]),
            )
        }
        ("POST", "/v1/sweeps") => submit(service, stream, request),
        (_, "/v1/healthz" | "/v1/metrics" | "/v1/sweeps") => {
            respond_error(stream, 405, &format!("{method} not allowed on {path}"))
        }
        _ => {
            let Some(rest) = path.strip_prefix("/v1/sweeps/") else {
                return respond_error(stream, 404, &format!("no route for {path}"));
            };
            if let Some(id) = rest.strip_suffix("/events") {
                return if method == "GET" {
                    follow_sse(service, stream, id)
                } else {
                    respond_error(stream, 405, &format!("{method} not allowed on {path}"))
                };
            }
            if rest.is_empty() || rest.contains('/') {
                return respond_error(stream, 404, &format!("no route for {path}"));
            }
            match method {
                "GET" => snapshot(service, stream, rest),
                "DELETE" => cancel(service, stream, rest),
                _ => respond_error(stream, 405, &format!("{method} not allowed on {path}")),
            }
        }
    }
}

/// The low-cardinality route pattern a request matched, for metric
/// labels: sweep ids collapse to `{id}`, unmatched paths to `{other}`.
fn route_pattern(method: &str, path: &str) -> String {
    let pattern = match path {
        "/v1/healthz" | "/v1/metrics" | "/v1/sweeps" => path,
        _ => match path.strip_prefix("/v1/sweeps/") {
            Some(rest) if rest.ends_with("/events") => "/v1/sweeps/{id}/events",
            Some(_) => "/v1/sweeps/{id}",
            None => "{other}",
        },
    };
    format!("{method} {pattern}")
}

/// `GET /v1/healthz`: liveness plus enough identity to triage a fleet —
/// uptime, the wire/engine schemas this daemon speaks, and how many
/// workers are currently connected.
fn healthz_doc(service: &Service<'_>) -> Json {
    let workers = { service.lock().leases.live() };
    Json::Obj(vec![
        ("ok".to_string(), Json::Bool(true)),
        (
            "uptime_seconds".to_string(),
            Json::UInt(mbcr_obs::uptime_seconds()),
        ),
        ("schema".to_string(), protocol::wire_schema().into()),
        ("engine_schema".to_string(), mbcr_engine::SCHEMA.into()),
        ("workers".to_string(), Json::UInt(workers as u64)),
    ])
}

/// `GET /v1/metrics[?format=json|prometheus]`: the JSON gauge document by
/// default, or the Prometheus text exposition of the `mbcr-obs` registry
/// plus the service gauges. Unknown formats are a `400` listing the
/// valid ones (mirroring the CLI's unknown-`--format` convention).
fn metrics(service: &Service<'_>, stream: &mut TcpStream, query: Option<&str>) -> io::Result<()> {
    let format = query
        .unwrap_or("")
        .split('&')
        .find_map(|pair| pair.strip_prefix("format="))
        .unwrap_or("json");
    match format {
        "json" => respond_json(stream, 200, &metrics_doc(service)),
        "prometheus" => respond_text(stream, 200, &prometheus_page(service)),
        other => respond_error(
            stream,
            400,
            &format!("unknown format '{other}' (valid: json, prometheus)"),
        ),
    }
}

/// The Prometheus exposition: every `mbcr-obs` histogram and counter,
/// followed by the service's point-in-time gauges.
fn prometheus_page(service: &Service<'_>) -> String {
    let (metrics, connected) = {
        let state = service.lock();
        (state.sweeps.metrics(), state.leases.live())
    };
    let mut out = mbcr_obs::global().prometheus();
    let mut gauge = |name: &str, help: &str, value: u64| {
        out.push_str(&format!(
            "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}\n"
        ));
    };
    gauge(
        "mbcr_ready_jobs",
        "jobs ready to claim",
        metrics.ready as u64,
    );
    gauge(
        "mbcr_leased_jobs",
        "jobs leased to workers",
        metrics.leased as u64,
    );
    gauge(
        "mbcr_active_sweeps",
        "sweeps not yet terminal",
        metrics.active as u64,
    );
    gauge(
        "mbcr_dedup_parked_jobs",
        "jobs parked behind an equivalent digest",
        metrics.dedup_parked,
    );
    gauge(
        "mbcr_workers_connected",
        "worker connections currently live",
        connected as u64,
    );
    gauge(
        "mbcr_affinity_shipped_bytes",
        "artifact bytes shipped to workers",
        service.shipped_bytes.load(Ordering::Relaxed),
    );
    gauge(
        "mbcr_affinity_elided_bytes",
        "artifact bytes elided by placement affinity",
        service.elided_bytes.load(Ordering::Relaxed),
    );
    gauge("mbcr_uptime_seconds", "seconds since process start", {
        mbcr_obs::uptime_seconds()
    });
    out
}

/// `POST /v1/sweeps`: body `{"spec": …, "force"?, "checkpoint_interval"?,
/// "batch_width"?, "priority"?, "max_concurrent"?}`. Durable before the
/// `201` is written.
fn submit(service: &Service<'_>, stream: &mut TcpStream, request: &Request) -> io::Result<()> {
    let body = match request.json() {
        Ok(body) => body,
        Err(e) => return respond_error(stream, 400, &e),
    };
    let Some(spec) = body.get("spec") else {
        return respond_error(stream, 400, "missing 'spec'");
    };
    let opts = SubmitOptions {
        force: body.get("force").and_then(Json::as_bool).unwrap_or(false),
        checkpoint_interval: body.get("checkpoint_interval").and_then(Json::as_usize),
        batch_width: body.get("batch_width").and_then(Json::as_usize),
        persist: true,
        priority: body
            .get("priority")
            .and_then(Json::as_u64)
            .map_or(1, |p| u32::try_from(p).unwrap_or(u32::MAX)),
        max_concurrent: body.get("max_concurrent").and_then(Json::as_usize),
    };
    match service.submit_sweep(spec, opts) {
        Ok(sweep) => respond_json(
            stream,
            201,
            &Json::Obj(vec![("sweep".to_string(), sweep.into())]),
        ),
        Err(reason) => respond_error(stream, 400, &reason),
    }
}

/// `GET /v1/sweeps/{id}`: the same snapshot an SSE `progress` event
/// carries, campaigns filled in outside the state lock.
fn snapshot(service: &Service<'_>, stream: &mut TcpStream, id: &str) -> io::Result<()> {
    let shell = {
        let state = service.lock();
        state
            .sweeps
            .snapshot(id)
            .map(|shell| (shell, state.sweeps.campaign_digests(id)))
    };
    let Some((mut snapshot, digests)) = shell else {
        return respond_error(stream, 404, &format!("unknown sweep '{id}'"));
    };
    snapshot.campaigns = mbcr_engine::campaign_progress_for(service.store, &digests);
    respond_json(stream, 200, &protocol::snapshot_json(&snapshot))
}

/// `DELETE /v1/sweeps/{id}`: cancel. A terminal sweep keeps its state
/// and answers `200` (idempotent); an unknown id is `404`; a cancel the
/// store failed to persist is `500`.
fn cancel(service: &Service<'_>, stream: &mut TcpStream, id: &str) -> io::Result<()> {
    let result = { service.lock().sweeps.cancel(id) };
    match result {
        Ok(state) => respond_json(
            stream,
            200,
            &Json::Obj(vec![
                ("sweep".to_string(), id.into()),
                ("state".to_string(), state.name().into()),
            ]),
        ),
        Err(e) => {
            let status = match e {
                EngineError::Spec(_) => 404,
                _ => 500,
            };
            respond_error(stream, status, &e.to_string())
        }
    }
}

/// `GET /v1/sweeps/{id}/events`: an SSE stream of `progress` events
/// (each one compact-JSON snapshot, the `GET /v1/sweeps/{id}` body)
/// until the sweep is terminal, then one `end` event. Runs
/// [`Service::follow_stream`], so no lock is held around its I/O.
fn follow_sse(service: &Service<'_>, stream: &mut TcpStream, id: &str) -> io::Result<()> {
    if !service.lock().sweeps.contains(id) {
        return respond_error(stream, 404, &format!("unknown sweep '{id}'"));
    }
    sse_headers(stream)?;
    let streamed = service.follow_stream(id, &mut |json| {
        // The span measures the write — i.e. how far this follower lags
        // behind the sweep's progress feed.
        let _span = mbcr_obs::span(mbcr_obs::SpanKind::SseEmit, "progress");
        sse_event(stream, "progress", json)
    });
    if streamed.is_err() {
        // The follower hung up (or stalled past the write timeout)
        // mid-stream.
        mbcr_obs::count("mbcr_sse_disconnects_total", &[], 1);
    }
    streamed?;
    sse_event(stream, "end", "{}")
}

/// `GET /v1/metrics`: the autoscaling/observability document — queue
/// depth, per-sweep fairness counters, dedup and affinity totals.
fn metrics_doc(service: &Service<'_>) -> Json {
    let (metrics, connected) = {
        let state = service.lock();
        (state.sweeps.metrics(), state.leases.live())
    };
    let sweeps = metrics.sweeps.iter().map(sweep_row).collect();
    Json::Obj(vec![
        ("schema".to_string(), protocol::wire_schema().into()),
        ("ready".to_string(), Json::UInt(metrics.ready as u64)),
        ("leased".to_string(), Json::UInt(metrics.leased as u64)),
        ("active".to_string(), Json::UInt(metrics.active as u64)),
        ("dedup_parked".to_string(), Json::UInt(metrics.dedup_parked)),
        (
            "workers".to_string(),
            Json::Obj(vec![
                ("connected".to_string(), Json::UInt(connected as u64)),
                (
                    "spawned".to_string(),
                    Json::UInt(service.scaler.as_ref().map_or(0, |s| s.spawned()) as u64),
                ),
            ]),
        ),
        (
            "affinity".to_string(),
            Json::Obj(vec![
                (
                    "shipped_bytes".to_string(),
                    Json::UInt(service.shipped_bytes.load(Ordering::Relaxed)),
                ),
                (
                    "elided_bytes".to_string(),
                    Json::UInt(service.elided_bytes.load(Ordering::Relaxed)),
                ),
            ]),
        ),
        ("sweeps".to_string(), Json::Arr(sweeps)),
        ("path_coverage".to_string(), coverage_section(service)),
        ("cache_class".to_string(), cache_class_section(service)),
    ])
}

/// The static-path-coverage section of `/v1/metrics`: one row per
/// registered benchmark relating its Ball–Larus static path count to the
/// paths its shipped input vectors exercise. Computed outside the state
/// lock and without the store, so a scrape never writes: a `GET` stays
/// read-only.
fn coverage_section(service: &Service<'_>) -> Json {
    let rows = service
        .registry
        .iter()
        .map(|b| {
            let inputs: Vec<Inputs> = b.input_vectors.iter().map(|v| v.inputs.clone()).collect();
            let value = match path_coverage(&b.program, &inputs, None) {
                Ok(coverage) => coverage.to_json(),
                Err(e) => Json::Obj(vec![("error".to_string(), e.to_string().into())]),
            };
            (b.name.to_string(), value)
        })
        .collect();
    Json::Obj(rows)
}

/// The static cache-classification section of `/v1/metrics`: one row per
/// registered benchmark with the abstract-interpretation hit/miss rollup
/// against the paper's L1 geometry (both caches). Like the coverage
/// section, it is computed without the store on every scrape.
fn cache_class_section(service: &Service<'_>) -> Json {
    let g = CacheGeometry::paper_l1();
    let rows = service
        .registry
        .iter()
        .map(|b| {
            let value = match cache_class(&b.program, g, g, None) {
                Ok(rollup) => rollup_to_json(&rollup),
                Err(e) => Json::Obj(vec![("error".to_string(), e.to_string().into())]),
            };
            (b.name.to_string(), value)
        })
        .collect();
    Json::Obj(rows)
}

fn sweep_row(metrics: &SweepMetrics) -> Json {
    Json::Obj(vec![
        ("id".to_string(), metrics.id.as_str().into()),
        ("state".to_string(), metrics.state.name().into()),
        (
            "priority".to_string(),
            Json::UInt(u64::from(metrics.priority)),
        ),
        (
            "max_concurrent".to_string(),
            metrics
                .max_concurrent
                .map_or(Json::Null, |cap| Json::UInt(cap as u64)),
        ),
        ("claims".to_string(), Json::UInt(metrics.claims)),
        ("ready".to_string(), Json::UInt(metrics.ready as u64)),
        ("leased".to_string(), Json::UInt(metrics.leased as u64)),
        ("done".to_string(), Json::UInt(metrics.done as u64)),
        ("total".to_string(), Json::UInt(metrics.total as u64)),
        ("skipped".to_string(), Json::UInt(metrics.skipped as u64)),
    ])
}
