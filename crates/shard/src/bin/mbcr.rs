//! `mbcr` — the command-line front end of the batch analysis engine, the
//! distributed sharding subsystem and the multi-sweep service daemon.
//!
//! ```text
//! mbcr list-benchmarks
//! mbcr analyze bs --seed 42
//! mbcr sweep --benchmarks bs,cnt --geometries 4096:2:32,2048:2:32 --seeds 1,2
//! mbcr sweep --spec campaign.json --out mbcr-runs/campaign
//! mbcr sweep --benchmarks bs --shards 4          # self-hosted sharding
//! mbcr serve --listen 127.0.0.1:4870 --http 127.0.0.1:4871 \
//!            --out mbcr-runs/service             # daemon: workers + clients
//! mbcr worker --connect 127.0.0.1:4870 --jobs 4  # on any host
//! mbcr submit --connect http://127.0.0.1:4871 --spec campaign.json
//! mbcr status --connect http://127.0.0.1:4871
//! mbcr cancel --connect http://127.0.0.1:4871 --sweep s001-campaign
//! mbcr report --connect http://127.0.0.1:4871 --follow --sweep s001-campaign
//! mbcr report --out mbcr-runs/campaign
//! ```
//!
//! Workers speak the framed shard protocol on the daemon's `--listen`
//! address; every client verb speaks HTTP to its `--http` gateway.
//!
//! Argument parsing is hand-rolled: the build environment is offline, so
//! no `clap`.

use std::io;
use std::net::TcpListener;
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use mbcr::{analyze_pub_tac, render_report, AnalysisConfig};
use mbcr_engine::{
    aggregate_rows, render_rows, run_sweep, AnalysisKind, ArtifactStore, EngineError, GeometrySpec,
    InputSelection, JobSummary, Registry, RunOptions, SweepOutcome, SweepSnapshot, SweepSpec,
    SweepState, SweepStatus,
};
use mbcr_ir::{
    classify, group_inputs_by_path, validate_classification, Diagnostic, Inputs, PathSpace,
};
use mbcr_json::{Json, Serialize};
use mbcr_malardalen::Benchmark;
use mbcr_pub::PubConfig;
use mbcr_shard::{
    lint_program, protocol, run_worker, serve, serve_daemon_with, CoordSettings, GatewayOptions,
};

/// Writes command output to stdout, the one path every command prints
/// through. When the reader has gone away (`mbcr lint --all | head -2`) the
/// command ends quietly with status 0, where `println!` would panic.
fn emit(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    match io::stdout().lock().write_fmt(args) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => panic!("failed printing to stdout: {e}"),
    }
}

/// `print!` through [`emit`].
macro_rules! out {
    ($($arg:tt)*) => {
        emit(format_args!($($arg)*))
    };
}

/// `println!` through [`emit`].
macro_rules! outln {
    () => {
        emit(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        emit(format_args!("{}\n", format_args!($($arg)*)))
    };
}

const USAGE: &str = "mbcr — batch PUB + TAC + MBPTA analysis engine (DAC'18 reproduction)

USAGE:
    mbcr <command> [options]

COMMANDS:
    list-benchmarks     List the registered benchmarks and their input vectors
    analyze <bench>     One PUB + TAC + MBPTA analysis, report on stdout
    paths <bench>       Static (Ball-Larus) path space of a benchmark: path
                        counts, per-path access signatures, and which paths
                        the shipped input vectors exercise
    lint                Statically verify PUB soundness invariants (program
                        validity, branch balance, innocuous-insertion
                        pairing); nonzero exit on any finding
    classify            Abstract-interpretation cache analysis: classify
                        every access site always-hit / always-miss /
                        first-miss / not-classified, with a simulator
                        cross-validation; nonzero exit on any CCA finding
    sweep               Run a batch campaign into an artifact store
    trace               Run a sweep with span tracing on and export the
                        merged timeline as Chrome-trace-event JSON
                        (chrome://tracing / Perfetto loadable)
    serve               Run the multi-sweep service daemon (workers connect
                        to --listen, clients to the --http gateway;
                        schedules submissions across one worker fleet,
                        resumes its queue after a kill)
    submit              Queue a sweep on a running daemon (over HTTP)
    status              Show a daemon's sweep queue (over HTTP)
    cancel              Cancel a queued/running sweep (over HTTP)
    worker              Execute stage jobs for a daemon or a sharded sweep
    report              Re-render the Table 2 summary of an existing run,
                        or follow a daemon's live progress (--follow)
    loadgen             Load-storm bench: spawn a daemon, submit a storm of
                        overlapping sweeps over HTTP plus many concurrent
                        SSE followers, report dedup hit rate, time-to-
                        first-event, fairness spread and affinity savings
    help                Show this message

PATHS OPTIONS:
    --limit N           Enumerate at most N static paths (default 64; spaces
                        larger than the limit print the summary only)

LINT OPTIONS:
    --all               Lint every registered benchmark
    --format FMT        'text' (default) or 'json': one machine-readable
                        object per diagnostic (code, benchmark,
                        construct, message)
    [bench...]          Or lint the named benchmarks only

CLASSIFY OPTIONS:
    --all               Classify every registered benchmark
    --geometry S:W:L    Geometry for both L1 caches, e.g. 4096:2:32
                        (default: paper)
    --limit N           Print at most N per-site rows per benchmark
                        (default 64; the rollup always prints)
    --format FMT        'text' (default) or 'json'
    [bench...]          Or classify the named benchmarks only

ANALYZE OPTIONS:
    --input NAME        Input vector (default: the benchmark default)
    --geometry S:W:L    Cache geometry, e.g. 4096:2:32 (default: paper)
    --seed N            Master seed (default: 42)
    --exceedance P      Reporting exceedance probability (default: 1e-12)
    --full              Paper-scale campaigns instead of the quick preset
    --json PATH         Also write the analysis as JSON: every reported
                        figure, without the raw sample or ECCDF values

SWEEP OPTIONS:
    --spec FILE         Load the campaign from a JSON spec file ('-' reads
                        the spec from stdin)
    --name NAME         Campaign name (default: 'sweep')
    --benchmarks A,B    Benchmarks (default: the whole suite)
    --inputs SEL        'default', 'all', or comma-separated vector names
    --geometries G,...  Geometries as SIZE:WAYS:LINE or 'paper'
    --seeds N,...       Master seeds (default: 1816360818)
    --analyses K,...    original, pub_tac, multipath (default: all three)
    --max-campaign-runs N  Cap measurement campaigns
    --full              Paper-scale campaigns instead of the quick preset
    --out DIR           Artifact store directory (default: mbcr-runs/<name>)
    --threads N         Worker threads (default: one per core)
    --force             Re-execute jobs even when cached artifacts exist
    --checkpoint-interval N  Checkpoint running campaigns every N runs
                        (0: only at completion; default: 10000). A killed
                        sweep resumes from its last campaign checkpoint.
    --batch-width W     Accepted for compatibility and ignored: campaigns
                        simulate one cache layout at a time, and samples
                        and artifacts are byte-identical at every width.
    --shards N          Shard across N self-hosted local worker processes
                        (spawns a coordinator plus N `mbcr worker`s);
                        results are byte-identical to a plain sweep

TRACE OPTIONS (all SWEEP spec options, plus):
    --out FILE          Trace output file (default: trace.json); written
                        outside the artifact store, which stays
                        byte-identical to an untraced sweep
    --store DIR         Artifact store directory for the traced sweep
                        (default: mbcr-runs/<name>)
    --threads N         Worker threads (default: one per core)
    --force             Re-execute jobs even when cached artifacts exist
                        (cached jobs emit no stage-execute spans)
    --format FMT        'chrome' (default): Chrome trace event JSON;
                        'events': raw span-event dump (mbcr-obs/1)

SERVE OPTIONS:
    --listen ADDR       TCP address workers connect to (e.g.
                        127.0.0.1:4870; port 0 picks one and prints it)
    --out DIR           The service's artifact store (default:
                        mbcr-runs/service). Holds the shared content-
                        addressed jobs/ and stages/, the durable sweep
                        queue, and one sweeps/<id>/ scope per submission
    --lease-ttl SECS    Declare a silent worker dead and requeue its jobs
                        after SECS (default: 30; connection loss requeues
                        immediately)
    --http ADDR         Serve the HTTP/JSON + SSE gateway on ADDR: the
                        client surface that submit, status, cancel and
                        report --connect talk to (POST/GET/DELETE
                        /v1/sweeps, /v1/sweeps/ID/events, /v1/metrics;
                        port 0 picks one and prints it). Without it the
                        daemon takes no submissions and only works off
                        the queue it resumed
    --spawn-workers MIN..MAX  Autoscale local worker processes between MIN
                        and MAX from queue depth (SIGTERM-drained back to
                        MIN when the queue empties)

SUBMIT OPTIONS (all SWEEP spec options, plus):
    --connect URL       The daemon's gateway, http://HOST:PORT (its
                        --http address)
    --force             Re-execute jobs even when cached artifacts exist
    --checkpoint-interval N  As for sweep, scoped to this submission
    --priority N        Fair-share weight (default 1): a priority-3 sweep
                        is offered claims ~3x as often as a priority-1 one
    --max-concurrent N  Cap this sweep's concurrently leased jobs

STATUS / CANCEL OPTIONS:
    --connect URL       The daemon's gateway, http://HOST:PORT
    --sweep ID          Restrict to (status) or target (cancel) one sweep.
                        status exits nonzero when the targeted sweep was
                        canceled or has failed jobs

WORKER OPTIONS:
    --connect ADDR      The daemon's --listen address (retries while it
                        comes up).
                        SIGTERM drains gracefully: the in-flight campaign
                        chunk is checkpointed and flushed, leases handed
                        back, and the worker exits cleanly
    --jobs N            Parallel job slots, one connection each (default 1)

REPORT OPTIONS:
    --out DIR           Artifact store directory to summarize; shows
                        per-campaign progress even without a manifest
    --sweep ID          With --out: summarize one sweeps/<id>/ scope of a
                        service store. With --connect: pick the sweep
    --connect URL       Ask a running daemon's gateway (http://HOST:PORT)
                        instead of reading a store. Exits nonzero when a
                        reported sweep was canceled or has failed jobs
    --follow            With --connect: stream live per-stage/per-campaign
                        progress (SSE) until the sweep completes — without
                        --sweep, each listed sweep in turn — reconnecting
                        with capped backoff across transient stream loss

LOADGEN OPTIONS:
    --sweeps N          Overlapping sweeps to submit over HTTP (default 6)
    --followers N       Concurrent SSE followers (default 8)
    --spawn-workers MIN..MAX  Autoscaling bounds for the spawned daemon
                        (default 1..2)
    --out DIR           Scratch store (default mbcr-runs/loadgen)
    --full              Paper-scale specs instead of the quick preset
";

fn main() -> ExitCode {
    // Telemetry first: MBCR_OBS=1 turns collection on for any command,
    // MBCR_OBS_DIR arms the flight recorder's panic dump. A pure side
    // channel either way — artifacts are byte-identical on or off.
    mbcr_obs::init_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("mbcr: {e}");
            ExitCode::from(1)
        }
    }
}

fn dispatch(args: &[String]) -> Result<ExitCode, EngineError> {
    match args.first().map(String::as_str) {
        Some("list-benchmarks") => list_benchmarks(),
        Some("analyze") => analyze(&args[1..]),
        Some("paths") => paths_cmd(&args[1..]),
        Some("lint") => lint_cmd(&args[1..]),
        Some("classify") => classify_cmd(&args[1..]),
        Some("sweep") => sweep(&args[1..]),
        Some("trace") => trace_cmd(&args[1..]),
        Some("serve") => serve_cmd(&args[1..]),
        Some("submit") => submit(&args[1..]),
        Some("status") => status(&args[1..]),
        Some("cancel") => cancel(&args[1..]),
        Some("worker") => worker(&args[1..]),
        Some("report") => report(&args[1..]),
        Some("loadgen") => loadgen(&args[1..]),
        Some("help" | "--help" | "-h") | None => {
            out!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        Some(other) => {
            eprintln!("mbcr: unknown command '{other}'\n");
            out!("{USAGE}");
            Ok(ExitCode::from(2))
        }
    }
}

/// Pulls `--flag value` pairs and bare `--switch`es out of an argument
/// list, leaving positionals.
struct Flags<'a> {
    args: &'a [String],
    consumed: Vec<bool>,
}

impl<'a> Flags<'a> {
    fn new(args: &'a [String]) -> Self {
        Self {
            args,
            consumed: vec![false; args.len()],
        }
    }

    fn value(&mut self, flag: &str) -> Result<Option<&'a str>, EngineError> {
        for i in 0..self.args.len() {
            if self.args[i] == flag && !self.consumed[i] {
                let value = self
                    .args
                    .get(i + 1)
                    .ok_or_else(|| EngineError::Spec(format!("{flag} needs a value")))?;
                self.consumed[i] = true;
                self.consumed[i + 1] = true;
                return Ok(Some(value));
            }
        }
        Ok(None)
    }

    fn switch(&mut self, flag: &str) -> bool {
        for i in 0..self.args.len() {
            if self.args[i] == flag && !self.consumed[i] {
                self.consumed[i] = true;
                return true;
            }
        }
        false
    }

    fn positionals(&self) -> Vec<&'a str> {
        self.args
            .iter()
            .enumerate()
            .filter(|&(i, a)| !self.consumed[i] && !a.starts_with("--"))
            .map(|(_, a)| a.as_str())
            .collect()
    }

    fn reject_unknown(&self) -> Result<(), EngineError> {
        for (i, a) in self.args.iter().enumerate() {
            if !self.consumed[i] && a.starts_with("--") {
                return Err(EngineError::Spec(format!("unknown option '{a}'")));
            }
        }
        Ok(())
    }
}

fn parse_u64(flag: &str, text: &str) -> Result<u64, EngineError> {
    text.parse()
        .map_err(|_| EngineError::Spec(format!("{flag}: '{text}' is not an integer")))
}

fn list_benchmarks() -> Result<ExitCode, EngineError> {
    let registry = Registry::malardalen();
    outln!("{:<12} {:<26} inputs", "name", "class");
    outln!("{}", "-".repeat(60));
    for b in registry.iter() {
        let vectors: Vec<&str> = b.input_vectors.iter().map(|v| v.name.as_str()).collect();
        let inputs = if vectors.is_empty() {
            "default".to_string()
        } else {
            vectors.join(", ")
        };
        outln!("{:<12} {:<26} {inputs}", b.name, format!("{:?}", b.class));
    }
    Ok(ExitCode::SUCCESS)
}

fn analyze(args: &[String]) -> Result<ExitCode, EngineError> {
    let mut flags = Flags::new(args);
    let input = flags.value("--input")?.unwrap_or("default").to_string();
    let geometry = match flags.value("--geometry")? {
        Some(text) => GeometrySpec::parse(text)?,
        None => GeometrySpec::paper_l1(),
    };
    let seed = match flags.value("--seed")? {
        Some(text) => parse_u64("--seed", text)?,
        None => 42,
    };
    let exceedance = match flags.value("--exceedance")? {
        Some(text) => text
            .parse::<f64>()
            .ok()
            .filter(|p| *p > 0.0 && *p < 1.0)
            .ok_or_else(|| EngineError::Spec(format!("--exceedance: bad value '{text}'")))?,
        None => 1e-12,
    };
    let full = flags.switch("--full");
    let json_path = flags.value("--json")?.map(str::to_string);
    flags.reject_unknown()?;
    let positionals = flags.positionals();
    let [bench_name] = positionals.as_slice() else {
        return Err(EngineError::Spec(
            "analyze needs exactly one benchmark name".into(),
        ));
    };

    let registry = Registry::malardalen();
    let benchmark = registry
        .get(bench_name)
        .ok_or_else(|| EngineError::UnknownBenchmark((*bench_name).to_string()))?;
    let inputs = if input == "default" {
        &benchmark.default_input
    } else {
        benchmark
            .input_vectors
            .iter()
            .find(|v| v.name == input)
            .map(|v| &v.inputs)
            .ok_or_else(|| EngineError::UnknownInput {
                benchmark: benchmark.name.to_string(),
                input: input.clone(),
            })?
    };
    let mut builder = AnalysisConfig::builder()
        .seed(seed)
        .l1_geometry(geometry.geometry()?)
        .exceedance(exceedance);
    if !full {
        builder = builder.quick();
    }
    let cfg = builder.build();
    let analysis = analyze_pub_tac(&benchmark.program, inputs, &cfg)
        .map_err(|e| EngineError::Analysis(e.to_string()))?;
    out!("{}", render_report(benchmark.name, &analysis));
    if let Some(path) = json_path {
        std::fs::write(&path, analysis.to_json().to_pretty())?;
        outln!("\nanalysis written to {path}");
    }
    Ok(ExitCode::SUCCESS)
}

/// `mbcr paths <bench>`: the static path space, the shipped vectors'
/// observed paths with their Ball–Larus ids and access signatures, and —
/// when the space fits under `--limit` — the full enumeration.
fn paths_cmd(args: &[String]) -> Result<ExitCode, EngineError> {
    let mut flags = Flags::new(args);
    let limit = match flags.value("--limit")? {
        Some(text) => usize::try_from(parse_u64("--limit", text)?)
            .map_err(|_| EngineError::Spec("--limit: too large".into()))?,
        None => 64,
    };
    flags.reject_unknown()?;
    let positionals = flags.positionals();
    let [bench_name] = positionals.as_slice() else {
        return Err(EngineError::Spec(
            "paths needs exactly one benchmark name".into(),
        ));
    };
    let registry = Registry::malardalen();
    let benchmark = match benchmark_or_exit2(&registry, bench_name) {
        Ok(benchmark) => benchmark,
        Err(code) => return Ok(code),
    };

    let space = PathSpace::of(&benchmark.program);
    let inputs: Vec<_> = benchmark
        .input_vectors
        .iter()
        .map(|v| v.inputs.clone())
        .collect();
    let groups = group_inputs_by_path(&benchmark.program, &inputs)
        .map_err(|e| EngineError::Analysis(e.to_string()))?;

    let static_text = if space.is_saturated() {
        "> 2^128 (saturated)".to_string()
    } else {
        space.num_paths().to_string()
    };
    outln!(
        "{}: {static_text} static paths (Ball-Larus)",
        benchmark.name
    );
    let coverage = if space.is_saturated() || space.num_paths() == 0 {
        "n/a".to_string()
    } else {
        #[allow(clippy::cast_precision_loss)]
        let f = groups.len() as f64 / space.num_paths() as f64;
        format!("{f:.4}")
    };
    outln!(
        "observed: {} distinct path(s) across {} input vector(s), coverage {coverage}\n",
        groups.len(),
        inputs.len()
    );

    outln!("{:>24}  {:>8}  {:>6}  vectors", "bl-id", "instrs", "data");
    for (record, members) in &groups {
        let id = space
            .index_of(record)
            .map_or_else(|_| "-".to_string(), |i| i.to_string());
        let sig = space
            .signature_of(record)
            .map_err(|e| EngineError::Analysis(e.to_string()))?;
        let names: Vec<&str> = members
            .iter()
            .map(|&i| benchmark.input_vectors[i].name.as_str())
            .collect();
        outln!(
            "{id:>24}  {:>8}  {:>6}  {}",
            sig.instr_fetches,
            sig.data_accesses,
            names.join(", ")
        );
    }

    if space.is_saturated() || space.num_paths() > limit as u128 {
        outln!("\n(enumeration skipped: path space exceeds --limit {limit})");
        return Ok(ExitCode::SUCCESS);
    }
    let observed: std::collections::HashSet<u128> = groups
        .iter()
        .filter_map(|(record, _)| space.index_of(record).ok())
        .collect();
    let all = space
        .enumerate_paths(limit)
        .map_err(|e| EngineError::Analysis(e.to_string()))?;
    outln!("\nenumeration ({} paths):", all.len());
    outln!("{:>24}  {:>8}  {:>6}  observed", "bl-id", "instrs", "data");
    for path in &all {
        outln!(
            "{:>24}  {:>8}  {:>6}  {}",
            path.index,
            path.signature.instr_fetches,
            path.signature.data_accesses,
            if observed.contains(&path.index) {
                "*"
            } else {
                ""
            }
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// Resolves a benchmark name, or prints the exit-2 contract: an unknown
/// name lists the valid ones on stderr and exits `2`, so scripts can
/// tell "bad name" (2) from "real findings" (1).
fn benchmark_or_exit2<'r>(registry: &'r Registry, name: &str) -> Result<&'r Benchmark, ExitCode> {
    registry.get(name).ok_or_else(|| {
        eprintln!(
            "mbcr: unknown benchmark '{name}' (valid: {})",
            registry.names().join(", ")
        );
        ExitCode::from(2)
    })
}

/// The machine-readable output format shared by `lint --format json`
/// and `classify --format json`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum OutputFormat {
    Text,
    Json,
}

impl OutputFormat {
    /// Same exit-2 contract as [`benchmark_or_exit2`]: an unknown format
    /// lists the valid ones on stderr and exits `2`, so scripts can tell
    /// "bad flag" (2) from "real findings" (1).
    fn from_flags(flags: &mut Flags<'_>) -> Result<Result<OutputFormat, ExitCode>, EngineError> {
        match flags.value("--format")? {
            None | Some("text") => Ok(Ok(OutputFormat::Text)),
            Some("json") => Ok(Ok(OutputFormat::Json)),
            Some(other) => {
                eprintln!("mbcr: --format: unknown format '{other}' (valid: text, json)");
                Ok(Err(ExitCode::from(2)))
            }
        }
    }
}

/// One diagnostics row of the `--format json` documents: the stable
/// code, which benchmark it fired on, the construct anchor, the text.
fn diag_json(benchmark: &str, d: &Diagnostic) -> Json {
    Json::Obj(vec![
        ("code".to_string(), d.code.as_str().into()),
        ("benchmark".to_string(), benchmark.into()),
        (
            "construct".to_string(),
            d.construct.map_or(Json::Null, |c| Json::UInt(u64::from(c))),
        ),
        ("message".to_string(), d.message.as_str().into()),
    ])
}

/// `mbcr lint [--all | bench...]`: static PUB-soundness verification via
/// [`mbcr_shard::lint_program`]. Exits nonzero when any benchmark has
/// findings, printing each diagnostic with its stable code (or, with
/// `--format json`, one document with every diagnostic as an object).
fn lint_cmd(args: &[String]) -> Result<ExitCode, EngineError> {
    let mut flags = Flags::new(args);
    let all = flags.switch("--all");
    let format = match OutputFormat::from_flags(&mut flags)? {
        Ok(format) => format,
        Err(code) => return Ok(code),
    };
    flags.reject_unknown()?;
    let registry = Registry::malardalen();
    let names: Vec<String> = if all {
        registry.names().iter().map(ToString::to_string).collect()
    } else {
        flags
            .positionals()
            .iter()
            .map(ToString::to_string)
            .collect()
    };
    if names.is_empty() {
        return Err(EngineError::Spec(
            "lint needs benchmark names or --all".into(),
        ));
    }
    let cfg = PubConfig::paper();
    let mut findings = 0usize;
    let mut rows = Vec::new();
    for name in &names {
        let benchmark = match benchmark_or_exit2(&registry, name) {
            Ok(benchmark) => benchmark,
            Err(code) => return Ok(code),
        };
        let diags = lint_program(&benchmark.program, &cfg);
        findings += diags.len();
        match format {
            OutputFormat::Text => {
                if diags.is_empty() {
                    outln!("{name}: ok");
                } else {
                    for d in &diags {
                        outln!("{name}: {d}");
                    }
                }
            }
            OutputFormat::Json => rows.extend(diags.iter().map(|d| diag_json(name, d))),
        }
    }
    if format == OutputFormat::Json {
        let doc = Json::Obj(vec![
            ("schema".to_string(), "mbcr-lint/1".into()),
            (
                "benchmarks".to_string(),
                Json::Arr(names.iter().map(|n| n.as_str().into()).collect()),
            ),
            ("findings".to_string(), Json::UInt(findings as u64)),
            ("diagnostics".to_string(), Json::Arr(rows)),
        ]);
        outln!("{}", doc.to_pretty());
    }
    if findings == 0 {
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("mbcr lint: {findings} finding(s)");
        Ok(ExitCode::from(1))
    }
}

/// `mbcr classify [--all | bench...]`: per-site hit/miss classification
/// from the abstract-interpretation cache analysis, cross-validated
/// against the LRU simulator over the benchmark's shipped input vectors.
/// Any CCA00x soundness finding exits `1`.
fn classify_cmd(args: &[String]) -> Result<ExitCode, EngineError> {
    let mut flags = Flags::new(args);
    let all = flags.switch("--all");
    let geometry = match flags.value("--geometry")? {
        Some(text) => GeometrySpec::parse(text)?,
        None => GeometrySpec::paper_l1(),
    };
    let limit = match flags.value("--limit")? {
        Some(text) => usize::try_from(parse_u64("--limit", text)?)
            .map_err(|_| EngineError::Spec("--limit: too large".into()))?,
        None => 64,
    };
    let format = match OutputFormat::from_flags(&mut flags)? {
        Ok(format) => format,
        Err(code) => return Ok(code),
    };
    flags.reject_unknown()?;
    let registry = Registry::malardalen();
    let names: Vec<String> = if all {
        registry.names().iter().map(ToString::to_string).collect()
    } else {
        flags
            .positionals()
            .iter()
            .map(ToString::to_string)
            .collect()
    };
    if names.is_empty() {
        return Err(EngineError::Spec(
            "classify needs benchmark names or --all".into(),
        ));
    }
    let g = geometry.geometry()?;
    let mut findings = 0usize;
    let mut docs = Vec::new();
    for (i, name) in names.iter().enumerate() {
        let benchmark = match benchmark_or_exit2(&registry, name) {
            Ok(benchmark) => benchmark,
            Err(code) => return Ok(code),
        };
        let cls = classify(&benchmark.program, g, g);
        let mut inputs: Vec<Inputs> = benchmark
            .input_vectors
            .iter()
            .map(|v| v.inputs.clone())
            .collect();
        if inputs.is_empty() {
            inputs.push(benchmark.default_input.clone());
        }
        let diags = validate_classification(&benchmark.program, &inputs, &cls)
            .map_err(|e| EngineError::Analysis(format!("{name}: {e}")))?;
        findings += diags.len();
        match format {
            OutputFormat::Text => {
                if i > 0 {
                    outln!();
                }
                print_classification(name, &geometry, &cls, &diags, inputs.len(), limit);
            }
            OutputFormat::Json => docs.push((
                name.clone(),
                classification_json(name, &cls, &diags, inputs.len()),
            )),
        }
    }
    if format == OutputFormat::Json {
        let doc = Json::Obj(vec![
            ("schema".to_string(), "mbcr-classify/1".into()),
            ("geometry".to_string(), geometry.label().into()),
            ("findings".to_string(), Json::UInt(findings as u64)),
            ("benchmarks".to_string(), Json::Obj(docs)),
        ]);
        outln!("{}", doc.to_pretty());
    }
    if findings == 0 {
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("mbcr classify: {findings} soundness finding(s)");
        Ok(ExitCode::from(1))
    }
}

fn rollup_side_line(side: &mbcr_ir::RollupSide) -> String {
    format!(
        "{} site(s) — AH {}, AM {}, FM {}, NC {}",
        side.sites, side.always_hit, side.always_miss, side.first_miss, side.not_classified
    )
}

/// The human-readable `classify` report: rollup per cache, then the
/// per-site table (truncated at `limit` rows), then the verdict of the
/// simulator cross-validation.
fn print_classification(
    name: &str,
    geometry: &GeometrySpec,
    cls: &mbcr_ir::CacheClassification,
    diags: &mbcr_ir::Diagnostics,
    vectors: usize,
    limit: usize,
) {
    outln!("{name} @ {}:", geometry.label());
    outln!("  il1: {}", rollup_side_line(&cls.rollup.il1));
    outln!("  dl1: {}", rollup_side_line(&cls.rollup.dl1));
    outln!(
        "\n  {:>4}  {:<5}  {:<5}  {:>9}  {:<18}  class",
        "site",
        "cache",
        "kind",
        "construct",
        "loc"
    );
    for row in cls.sites.iter().take(limit) {
        let construct = row
            .site
            .construct
            .map_or_else(|| "-".to_string(), |c| c.to_string());
        outln!(
            "  {:>4}  {:<5}  {:<5}  {construct:>9}  {:<18}  {}",
            row.site.id,
            row.site.cache_name(),
            row.site.kind_name(),
            row.site.loc.to_string(),
            row.class
        );
    }
    if cls.sites.len() > limit {
        outln!("  ... ({} more; raise --limit)", cls.sites.len() - limit);
    }
    if diags.is_empty() {
        outln!("\n  cross-validation: ok ({vectors} input vector(s), no CCA findings)");
    } else {
        for d in diags {
            outln!("\n  {name}: {d}");
        }
    }
}

/// One benchmark's entry in the `classify --format json` document.
fn classification_json(
    name: &str,
    cls: &mbcr_ir::CacheClassification,
    diags: &mbcr_ir::Diagnostics,
    vectors: usize,
) -> Json {
    let sites = cls
        .sites
        .iter()
        .map(|row| {
            Json::Obj(vec![
                ("site".to_string(), Json::UInt(u64::from(row.site.id))),
                ("cache".to_string(), row.site.cache_name().into()),
                ("kind".to_string(), row.site.kind_name().into()),
                (
                    "construct".to_string(),
                    row.site
                        .construct
                        .map_or(Json::Null, |c| Json::UInt(u64::from(c))),
                ),
                ("loc".to_string(), row.site.loc.to_string().into()),
                ("class".to_string(), row.class.code().into()),
                ("detail".to_string(), row.class.to_string().into()),
            ])
        })
        .collect();
    Json::Obj(vec![
        (
            "rollup".to_string(),
            mbcr::stage::rollup_to_json(&cls.rollup),
        ),
        ("sites".to_string(), Json::Arr(sites)),
        ("input_vectors".to_string(), Json::UInt(vectors as u64)),
        (
            "diagnostics".to_string(),
            Json::Arr(diags.iter().map(|d| diag_json(name, d)).collect()),
        ),
    ])
}

fn split_list(text: &str) -> Vec<String> {
    text.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect()
}

fn spec_from_flags(flags: &mut Flags<'_>) -> Result<SweepSpec, EngineError> {
    let mut spec = match flags.value("--spec")? {
        // `--spec -` reads the spec from stdin: `generate-spec | mbcr
        // submit --spec -` pipelines without touching the filesystem.
        Some("-") => {
            let text = io::read_to_string(io::stdin())
                .map_err(|e| EngineError::Spec(format!("reading the spec from stdin: {e}")))?;
            SweepSpec::from_json_text(&text)?
        }
        Some(path) => SweepSpec::load(path)?,
        None => SweepSpec::new("sweep"),
    };
    if let Some(name) = flags.value("--name")? {
        spec.name = name.to_string();
    }
    if let Some(benchmarks) = flags.value("--benchmarks")? {
        spec.benchmarks = split_list(benchmarks);
    }
    if let Some(inputs) = flags.value("--inputs")? {
        spec.inputs = match inputs {
            "default" => InputSelection::Default,
            "all" => InputSelection::All,
            names => InputSelection::Named(split_list(names)),
        };
    }
    if let Some(geometries) = flags.value("--geometries")? {
        spec.geometries = split_list(geometries)
            .iter()
            .map(|g| GeometrySpec::parse(g))
            .collect::<Result<Vec<_>, _>>()?;
    }
    if let Some(seeds) = flags.value("--seeds")? {
        spec.seeds = split_list(seeds)
            .iter()
            .map(|s| parse_u64("--seeds", s))
            .collect::<Result<Vec<_>, _>>()?;
    }
    if let Some(analyses) = flags.value("--analyses")? {
        spec.analyses = split_list(analyses)
            .iter()
            .map(|a| AnalysisKind::parse(a))
            .collect::<Result<Vec<_>, _>>()?;
    }
    if let Some(cap) = flags.value("--max-campaign-runs")? {
        spec.max_campaign_runs = Some(parse_u64("--max-campaign-runs", cap)? as usize);
    }
    if flags.switch("--full") {
        spec.quick = false;
    }
    Ok(spec)
}

fn sweep(args: &[String]) -> Result<ExitCode, EngineError> {
    let mut flags = Flags::new(args);
    let spec = spec_from_flags(&mut flags)?;
    let out = flags
        .value("--out")?
        .map_or_else(|| format!("mbcr-runs/{}", spec.name), str::to_string);
    let threads = match flags.value("--threads")? {
        Some(text) => parse_u64("--threads", text)? as usize,
        None => 0,
    };
    let checkpoint_interval = match flags.value("--checkpoint-interval")? {
        Some(text) => Some(parse_u64("--checkpoint-interval", text)? as usize),
        None => None,
    };
    let batch_width = match flags.value("--batch-width")? {
        Some(text) => Some(parse_u64("--batch-width", text)? as usize),
        None => None,
    };
    let shards = match flags.value("--shards")? {
        Some(text) => parse_u64("--shards", text)? as usize,
        None => 0,
    };
    let force = flags.switch("--force");
    flags.reject_unknown()?;
    if let Some(extra) = flags.positionals().first() {
        return Err(EngineError::Spec(format!("unexpected argument '{extra}'")));
    }

    let store = ArtifactStore::open(&out)?;
    let registry = Registry::malardalen();
    outln!(
        "sweep '{}': {} benchmark(s) × {} geometr(ies) × {} seed(s) -> {}{}",
        spec.name,
        if spec.benchmarks.is_empty() {
            registry.len()
        } else {
            spec.benchmarks.len()
        },
        spec.geometries.len(),
        spec.seeds.len(),
        store.root().display(),
        if shards > 0 {
            format!(" ({shards} local shard(s))")
        } else {
            String::new()
        },
    );
    let opts = RunOptions {
        threads,
        force,
        checkpoint_interval,
        batch_width,
    };
    let outcome = if shards > 0 {
        self_hosted_sharded_sweep(&spec, &registry, &store, &opts, shards)?
    } else {
        run_sweep(&spec, &registry, &store, &opts)?
    };
    print_outcome(&outcome, &store);
    Ok(if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// `mbcr sweep --shards N`: bind an ephemeral local coordinator, spawn
/// `N` worker processes of this same binary against it, serve the sweep,
/// then reap the fleet. Results are byte-identical to a plain sweep —
/// the coordinator plans, skips, merges and finalizes with the exact
/// code a single process runs.
fn self_hosted_sharded_sweep(
    spec: &SweepSpec,
    registry: &Registry,
    store: &ArtifactStore,
    opts: &RunOptions,
    shards: usize,
) -> Result<SweepOutcome, EngineError> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?.to_string();
    let exe = std::env::current_exe()?;
    let mut children = Vec::with_capacity(shards);
    for _ in 0..shards {
        children.push(
            std::process::Command::new(&exe)
                .args(["worker", "--connect", &addr, "--jobs", "1"])
                .stdout(std::process::Stdio::null())
                .spawn()?,
        );
    }
    let settings = CoordSettings {
        run: *opts,
        ..CoordSettings::default()
    };
    let outcome = serve(spec, registry, store, &settings, &listener);
    for child in &mut children {
        // Workers exit on the coordinator's Shutdown; the kill only mops
        // up stragglers (and the whole fleet when the sweep failed).
        let _ = child.kill();
        let _ = child.wait();
    }
    outcome
}

/// The trace export formats: Chrome trace events (the default, loadable
/// in `chrome://tracing` and Perfetto) or the raw span-event dump.
#[derive(Clone, Copy, PartialEq, Eq)]
enum TraceFormat {
    Chrome,
    Events,
}

impl TraceFormat {
    /// Exit-2 contract as for [`OutputFormat::from_flags`]: unknown
    /// formats list the valid ones on stderr and exit `2`.
    fn from_flags(flags: &mut Flags<'_>) -> Result<Result<TraceFormat, ExitCode>, EngineError> {
        match flags.value("--format")? {
            None | Some("chrome") => Ok(Ok(TraceFormat::Chrome)),
            Some("events") => Ok(Ok(TraceFormat::Events)),
            Some(other) => {
                eprintln!("mbcr: --format: unknown format '{other}' (valid: chrome, events)");
                Ok(Err(ExitCode::from(2)))
            }
        }
    }
}

/// `mbcr trace`: run a sweep with span tracing on and export the merged
/// timeline of every span (stage executions, scheduler claims, campaign
/// chunks) to `--out`. The trace file lands outside the artifact store,
/// which stays byte-identical to an untraced run of the same spec.
fn trace_cmd(args: &[String]) -> Result<ExitCode, EngineError> {
    let mut flags = Flags::new(args);
    let spec = spec_from_flags(&mut flags)?;
    let out = flags.value("--out")?.unwrap_or("trace.json").to_string();
    let store_dir = flags
        .value("--store")?
        .map_or_else(|| format!("mbcr-runs/{}", spec.name), str::to_string);
    let threads = match flags.value("--threads")? {
        Some(text) => parse_u64("--threads", text)? as usize,
        None => 0,
    };
    let force = flags.switch("--force");
    let format = match TraceFormat::from_flags(&mut flags)? {
        Ok(format) => format,
        Err(code) => return Ok(code),
    };
    flags.reject_unknown()?;
    if let Some(extra) = flags.positionals().first() {
        return Err(EngineError::Spec(format!("unexpected argument '{extra}'")));
    }

    let store = ArtifactStore::open(&store_dir)?;
    let registry = Registry::malardalen();
    mbcr_obs::set_enabled(true);
    mbcr_obs::start_capture();
    let opts = RunOptions {
        threads,
        force,
        checkpoint_interval: None,
        batch_width: None,
    };
    let outcome = run_sweep(&spec, &registry, &store, &opts)?;
    let (events, dropped) = mbcr_obs::finish_capture();
    let doc = match format {
        TraceFormat::Chrome => mbcr_obs::chrome_trace(&events),
        TraceFormat::Events => Json::Obj(vec![
            ("schema".to_string(), "mbcr-obs/1".into()),
            ("dropped".to_string(), Json::UInt(dropped)),
            (
                "events".to_string(),
                Json::Arr(events.iter().map(mbcr_obs::SpanEvent::to_json).collect()),
            ),
        ]),
    };
    if let Some(parent) = std::path::Path::new(&out).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(&out, format!("{}\n", doc.to_compact()))?;
    print_outcome(&outcome, &store);
    outln!(
        "trace: {} span event(s){} -> {out}",
        events.len(),
        if dropped > 0 {
            format!(" ({dropped} dropped)")
        } else {
            String::new()
        },
    );
    Ok(if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// `mbcr serve`: the long-lived multi-sweep daemon. Resumes any queue
/// persisted in the store, then serves workers on `--listen` and clients
/// on the `--http` gateway until killed.
fn serve_cmd(args: &[String]) -> Result<ExitCode, EngineError> {
    let mut flags = Flags::new(args);
    let listen = flags
        .value("--listen")?
        .ok_or_else(|| EngineError::Spec("serve needs --listen ADDR".into()))?
        .to_string();
    let out = flags
        .value("--out")?
        .unwrap_or("mbcr-runs/service")
        .to_string();
    let lease_ttl = match flags.value("--lease-ttl")? {
        Some(text) => Duration::from_secs(parse_u64("--lease-ttl", text)?),
        None => CoordSettings::default().lease_ttl,
    };
    let http = flags.value("--http")?.map(str::to_string);
    let spawn_workers = match flags.value("--spawn-workers")? {
        Some(text) => Some(parse_spawn_workers(text)?),
        None => None,
    };
    flags.reject_unknown()?;
    if let Some(extra) = flags.positionals().first() {
        return Err(EngineError::Spec(format!("unexpected argument '{extra}'")));
    }

    // Long-lived daemon: metrics live by default (MBCR_OBS=0 opts out),
    // so /v1/metrics?format=prometheus has data to scrape.
    mbcr_obs::enable_for_service();
    let store = ArtifactStore::open(&out)?;
    let registry = Registry::malardalen();
    let listener = TcpListener::bind(&listen)?;
    // Parseable by scripts (and by port-0 users who need the real port).
    outln!("service listening on {}", listener.local_addr()?);
    let http = match http {
        Some(addr) => {
            let http = TcpListener::bind(&addr)?;
            outln!("http listening on {}", http.local_addr()?);
            Some(http)
        }
        None => None,
    };
    let settings = CoordSettings {
        run: RunOptions::default(),
        lease_ttl,
    };
    let gateway = GatewayOptions {
        http,
        spawn_workers,
    };
    serve_daemon_with(&registry, &store, &settings, &listener, gateway)?;
    Ok(ExitCode::SUCCESS)
}

/// Parses `--spawn-workers MIN..MAX` (`0..4`, `2..2`, …).
fn parse_spawn_workers(text: &str) -> Result<(usize, usize), EngineError> {
    let bad = || EngineError::Spec(format!("--spawn-workers: '{text}' is not MIN..MAX"));
    let (min, max) = text.split_once("..").ok_or_else(bad)?;
    let min: usize = min.parse().map_err(|_| bad())?;
    let max: usize = max.parse().map_err(|_| bad())?;
    if max == 0 || max < min {
        return Err(bad());
    }
    Ok((min, max))
}

/// Resolves `--connect` to the `host:port` of a daemon's HTTP gateway.
/// Clients speak HTTP only, so a bare `host:port` (the worker listener's
/// form) is a usage error that names the URL form.
fn gateway_addr(connect: &str) -> Result<String, EngineError> {
    mbcr_gateway::parse_url(connect)
        .map(|(addr, _)| addr)
        .ok_or_else(|| {
            EngineError::Spec(format!(
                "--connect takes the daemon's gateway URL, http://HOST:PORT \
                 (its serve --http address), not '{connect}'"
            ))
        })
}

/// The required `--connect URL` of a client verb, resolved.
fn connect_flag(flags: &mut Flags<'_>, verb: &str) -> Result<String, EngineError> {
    let connect = flags
        .value("--connect")?
        .ok_or_else(|| EngineError::Spec(format!("{verb} needs --connect http://HOST:PORT")))?;
    gateway_addr(connect)
}

/// `POST /v1/sweeps`: submits `body` and returns the durable sweep id.
/// Shared by `submit` and `loadgen`.
fn post_sweep(addr: &str, body: &Json) -> Result<String, EngineError> {
    let fail = |what: String| EngineError::Analysis(format!("POST /v1/sweeps: {what}"));
    let response = mbcr_gateway::request(addr, "POST", "/v1/sweeps", Some(body))
        .map_err(|e| fail(e.to_string()))?;
    if response.status != 201 {
        return Err(fail(format!(
            "HTTP {}: {}",
            response.status,
            response.error_text()
        )));
    }
    response
        .json()
        .as_ref()
        .and_then(|doc| doc.get("sweep"))
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| fail("no 'sweep' id in the response".into()))
}

/// `GET /v1/sweeps`: one status row per sweep, in submission order.
/// Shared by `status`, `report --connect` and loadgen's poll.
fn fetch_statuses(addr: &str) -> Result<Vec<SweepStatus>, EngineError> {
    let fail = |what: String| EngineError::Analysis(format!("GET /v1/sweeps: {what}"));
    let response =
        mbcr_gateway::request(addr, "GET", "/v1/sweeps", None).map_err(|e| fail(e.to_string()))?;
    if response.status != 200 {
        return Err(fail(format!(
            "HTTP {}: {}",
            response.status,
            response.error_text()
        )));
    }
    response
        .json()
        .as_ref()
        .and_then(|doc| {
            doc.get("sweeps")?
                .as_array()?
                .iter()
                .map(protocol::status_from_json)
                .collect()
        })
        .ok_or_else(|| fail("malformed status body".into()))
}

/// The rows `status` and `report --connect` print: every sweep, or only
/// `sweep` (an unknown id is an error). The exit code is nonzero when
/// the targeted sweep was canceled or has failed jobs — so `--sweep ID`
/// doubles as a health probe for that sweep.
fn status_rows(
    addr: &str,
    sweep: Option<&str>,
) -> Result<(Vec<SweepStatus>, ExitCode), EngineError> {
    let mut rows = fetch_statuses(addr)?;
    let Some(id) = sweep else {
        return Ok((rows, ExitCode::SUCCESS));
    };
    rows.retain(|s| s.id == id);
    if rows.is_empty() {
        return Err(EngineError::Spec(format!("unknown sweep '{id}'")));
    }
    let unhealthy = rows
        .iter()
        .any(|s| s.state == SweepState::Canceled || s.failed > 0);
    Ok((
        rows,
        if unhealthy {
            ExitCode::from(1)
        } else {
            ExitCode::SUCCESS
        },
    ))
}

/// `mbcr submit`: queue a sweep on a running daemon. The sweep id printed
/// on success is durable — it survives daemon restarts and addresses
/// `report --follow`, `status` and `cancel`.
fn submit(args: &[String]) -> Result<ExitCode, EngineError> {
    let mut flags = Flags::new(args);
    let addr = connect_flag(&mut flags, "submit")?;
    let spec = spec_from_flags(&mut flags)?;
    let checkpoint_interval = match flags.value("--checkpoint-interval")? {
        Some(text) => Some(parse_u64("--checkpoint-interval", text)?),
        None => None,
    };
    let priority = match flags.value("--priority")? {
        Some(text) => parse_u64("--priority", text)?,
        None => 1,
    };
    let max_concurrent = match flags.value("--max-concurrent")? {
        Some(text) => Some(parse_u64("--max-concurrent", text)?),
        None => None,
    };
    let force = flags.switch("--force");
    flags.reject_unknown()?;
    if let Some(extra) = flags.positionals().first() {
        return Err(EngineError::Spec(format!("unexpected argument '{extra}'")));
    }

    let body = Json::Obj(vec![
        ("spec".to_string(), spec.to_json()),
        ("force".to_string(), Json::Bool(force)),
        (
            "checkpoint_interval".to_string(),
            Serialize::to_json(&checkpoint_interval),
        ),
        ("priority".to_string(), Json::UInt(priority)),
        (
            "max_concurrent".to_string(),
            Serialize::to_json(&max_concurrent),
        ),
    ]);
    outln!("submitted {}", post_sweep(&addr, &body)?);
    Ok(ExitCode::SUCCESS)
}

/// `mbcr status`: one row per sweep in the daemon's queue.
fn status(args: &[String]) -> Result<ExitCode, EngineError> {
    let mut flags = Flags::new(args);
    let addr = connect_flag(&mut flags, "status")?;
    let sweep = flags.value("--sweep")?;
    flags.reject_unknown()?;

    let (rows, code) = status_rows(&addr, sweep)?;
    outln!(
        "{:<24} {:<20} {:<9} {:>9} {:>9} {:>8} {:>7}",
        "sweep",
        "name",
        "state",
        "done",
        "executed",
        "cached",
        "failed"
    );
    outln!("{}", "-".repeat(92));
    for s in &rows {
        outln!(
            "{:<24} {:<20} {:<9} {:>5}/{:<3} {:>9} {:>8} {:>7}",
            s.id,
            s.name,
            s.state.name(),
            s.done,
            s.total,
            s.executed,
            s.skipped,
            s.failed
        );
    }
    Ok(code)
}

/// `mbcr cancel`: cancel one sweep on a daemon (`DELETE /v1/sweeps/{id}`).
fn cancel(args: &[String]) -> Result<ExitCode, EngineError> {
    let mut flags = Flags::new(args);
    let addr = connect_flag(&mut flags, "cancel")?;
    let sweep = flags
        .value("--sweep")?
        .ok_or_else(|| EngineError::Spec("cancel needs --sweep ID".into()))?;
    flags.reject_unknown()?;

    let path = format!("/v1/sweeps/{sweep}");
    let response = mbcr_gateway::request(&addr, "DELETE", &path, None)
        .map_err(|e| EngineError::Analysis(format!("DELETE {path}: {e}")))?;
    if response.status != 200 {
        eprintln!("mbcr: HTTP {}: {}", response.status, response.error_text());
        return Ok(ExitCode::from(1));
    }
    let doc = response.json();
    let state = doc
        .as_ref()
        .and_then(|doc| doc.get("state"))
        .and_then(Json::as_str)
        .ok_or_else(|| EngineError::Analysis(format!("DELETE {path}: no 'state' in the reply")))?;
    outln!("{sweep}: {state}");
    Ok(ExitCode::SUCCESS)
}

/// Renders one live progress snapshot (`report --follow`).
fn render_snapshot(snapshot: &SweepSnapshot) {
    outln!(
        "--- {} ({}) [{}]: {}/{} jobs done",
        snapshot.id,
        snapshot.name,
        snapshot.state.name(),
        snapshot.jobs.len(),
        snapshot.total,
    );
    if !snapshot.jobs.is_empty() {
        out!(
            "{}",
            render_stage_status(
                snapshot.jobs.iter().map(|(label, status, resumed)| (
                    label.as_str(),
                    status.as_str(),
                    *resumed
                )),
                &[],
            )
        );
    }
    if !snapshot.campaigns.is_empty() {
        out!("{}", render_campaign_progress(&snapshot.campaigns));
    }
}

/// Reconnect pacing for `report --follow`: a lost stream retries with
/// doubling backoff from 250 ms, capped at 5 s; this many *consecutive*
/// failures (any received event resets the count) give up.
const FOLLOW_RETRY_START: Duration = Duration::from_millis(250);
const FOLLOW_RETRY_CAP: Duration = Duration::from_secs(5);
const FOLLOW_RETRY_LIMIT: u32 = 8;

/// `mbcr report --connect URL --follow [--sweep ID]`: streams one sweep
/// until it ends — or, without `--sweep`, each sweep `GET /v1/sweeps`
/// lists, one after another. Exits nonzero when any followed sweep was
/// canceled or finished with failed jobs, so it doubles as a
/// wait-for-success in scripts and CI.
fn follow_sweeps(addr: &str, sweep: Option<&str>) -> Result<ExitCode, EngineError> {
    let ids = match sweep {
        Some(id) => vec![id.to_string()],
        None => fetch_statuses(addr)?.into_iter().map(|s| s.id).collect(),
    };
    let mut unhealthy = false;
    for id in &ids {
        unhealthy |= follow_sse(addr, id)?;
    }
    Ok(if unhealthy {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

/// Follows one sweep's SSE stream (`GET /v1/sweeps/{id}/events`) to its
/// `end` event, reconnecting with capped backoff when the stream dies
/// mid-sweep (daemon restart, transient network) — the registry is
/// durable, so a reconnect resumes exactly where the queue stands.
/// [`mbcr_gateway::SseReader`] surfaces a mid-event EOF as
/// `UnexpectedEof`, which lands in the retry path instead of trusting a
/// half-delivered frame; an HTTP refusal (an unknown sweep) is final.
/// Returns whether the sweep ended canceled or with failed jobs.
fn follow_sse(addr: &str, id: &str) -> Result<bool, EngineError> {
    let mut last = None;
    let mut backoff = FOLLOW_RETRY_START;
    let mut failures = 0u32;
    loop {
        match follow_sse_once(addr, id, &mut last, &mut failures) {
            Ok(()) => {
                return Ok(
                    last.is_some_and(|(state, failed)| state == SweepState::Canceled || failed > 0)
                )
            }
            // `open_sse` reports a non-200 answer as `Other`.
            Err(e) if e.kind() == io::ErrorKind::Other => {
                return Err(EngineError::Analysis(e.to_string()))
            }
            Err(e) => {
                failures += 1;
                if failures > FOLLOW_RETRY_LIMIT {
                    return Err(EngineError::Analysis(e.to_string()));
                }
                eprintln!("mbcr: follow stream lost ({e}); reconnecting in {backoff:?}");
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(FOLLOW_RETRY_CAP);
            }
        }
    }
}

/// One SSE follow attempt: renders each progress snapshot, recording the
/// latest (state, failed-job count) in `last`; any received snapshot
/// resets the caller's consecutive-failure count. An EOF before the
/// `end` event is the transient-loss signal the caller retries on.
fn follow_sse_once(
    addr: &str,
    id: &str,
    last: &mut Option<(SweepState, usize)>,
    failures: &mut u32,
) -> io::Result<()> {
    let mut events = mbcr_gateway::open_sse(addr, &format!("/v1/sweeps/{id}/events"))?;
    while let Some(event) = events.next_event()? {
        match event.event.as_str() {
            "progress" => {
                let Some(snapshot) = mbcr_json::parse(&event.data)
                    .ok()
                    .as_ref()
                    .and_then(protocol::snapshot_from_json)
                else {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "malformed progress event",
                    ));
                };
                *failures = 0;
                let failed = snapshot
                    .jobs
                    .iter()
                    .filter(|(_, s, _)| s == "failed")
                    .count();
                *last = Some((snapshot.state, failed));
                render_snapshot(&snapshot);
            }
            "end" => return Ok(()),
            _ => {}
        }
    }
    Err(io::Error::new(
        io::ErrorKind::UnexpectedEof,
        "follow stream closed before the end event",
    ))
}

fn worker(args: &[String]) -> Result<ExitCode, EngineError> {
    let mut flags = Flags::new(args);
    let connect = flags
        .value("--connect")?
        .ok_or_else(|| EngineError::Spec("worker needs --connect ADDR".into()))?
        .to_string();
    let jobs = match flags.value("--jobs")? {
        Some(text) => parse_u64("--jobs", text)? as usize,
        None => 1,
    };
    flags.reject_unknown()?;
    if let Some(extra) = flags.positionals().first() {
        return Err(EngineError::Spec(format!("unexpected argument '{extra}'")));
    }
    // Workers dump their flight recorder on SIGTERM drain; keep
    // collection on unless the user opted out.
    mbcr_obs::enable_for_service();
    // Not routed through EngineError: its Io variant renders as an
    // artifact-store failure, which a refused connection is not.
    let outcome = match run_worker(&connect, jobs) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("mbcr: worker: {e}");
            return Ok(ExitCode::from(1));
        }
    };
    outln!(
        "worker done: {} executed, {} failed",
        outcome.executed,
        outcome.failed
    );
    Ok(if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// The per-stage status table, Table 2, counts and failures of a
/// finished sweep — identical output for local and self-hosted sharded
/// runs.
fn print_outcome(outcome: &SweepOutcome, store: &ArtifactStore) {
    out!(
        "{}",
        render_stage_status(
            outcome.records.iter().map(|r| {
                (
                    r.label.as_str(),
                    r.status.name(),
                    r.summary
                        .as_ref()
                        .and_then(|s| s.campaign_resumed)
                        .unwrap_or(0),
                )
            }),
            &stage_wall_times(),
        )
    );
    outln!();
    out!("{}", render_rows(&outcome.rows));
    outln!(
        "\n{} executed, {} cached, {} failed in {:.1}s ({} artifacts under {})",
        outcome.executed,
        outcome.skipped,
        outcome.failed,
        outcome.elapsed.as_secs_f64(),
        outcome.records.len(),
        store.root().display(),
    );
    for record in outcome.records.iter().filter(|r| r.error.is_some()) {
        eprintln!(
            "failed: {} — {}",
            record.label,
            record.error.as_deref().unwrap_or("")
        );
    }
}

fn report(args: &[String]) -> Result<ExitCode, EngineError> {
    let mut flags = Flags::new(args);
    let out = flags.value("--out")?.map(str::to_string);
    let connect = flags.value("--connect")?.map(str::to_string);
    let sweep = flags.value("--sweep")?.map(str::to_string);
    let follow = flags.switch("--follow");
    flags.reject_unknown()?;

    if let Some(connect) = connect {
        if out.is_some() {
            return Err(EngineError::Spec(
                "report takes --out or --connect, not both".into(),
            ));
        }
        let addr = gateway_addr(&connect)?;
        if follow {
            return follow_sweeps(&addr, sweep.as_deref());
        }
        // A one-shot snapshot of the daemon's queue.
        let (rows, code) = status_rows(&addr, sweep.as_deref())?;
        for s in &rows {
            outln!(
                "{} ({}) [{}]: {}/{} done — {} executed, {} cached, {} failed",
                s.id,
                s.name,
                s.state.name(),
                s.done,
                s.total,
                s.executed,
                s.skipped,
                s.failed
            );
        }
        return Ok(code);
    }
    if follow {
        return Err(EngineError::Spec(
            "--follow needs --connect http://HOST:PORT".into(),
        ));
    }
    let out = out.ok_or_else(|| EngineError::Spec("report needs --out DIR or --connect".into()))?;

    let store = ArtifactStore::open(&out)?;
    // With --sweep, read the per-sweep scope of a service store (its
    // manifest and table live under sweeps/<id>/, the content at the
    // root).
    let store = match &sweep {
        Some(id) => store.run_scope(id)?,
        None => store,
    };
    let progress = store.campaign_progress();
    let Some(manifest) = store.load_manifest() else {
        // A sweep killed before its first completion leaves no manifest —
        // but its streamed campaign logs still tell how far it got.
        if progress.is_empty() {
            return Err(EngineError::Spec(format!("no manifest under '{out}'")));
        }
        outln!(
            "no manifest under '{out}' (sweep interrupted before completion?); \
             streamed campaign state:\n"
        );
        out!("{}", render_campaign_progress(&progress));
        return Ok(ExitCode::SUCCESS);
    };
    let spec_name = manifest
        .get("spec")
        .and_then(|s| s.get("name"))
        .and_then(Json::as_str)
        .unwrap_or("?");
    let empty: [Json; 0] = [];
    let jobs: &[Json] = manifest
        .get("jobs")
        .and_then(Json::as_array)
        .unwrap_or(&empty);
    let summaries: Vec<JobSummary> = jobs
        .iter()
        .filter_map(|j| j.get("summary").and_then(JobSummary::from_json))
        .collect();
    let counts = |k: &str| {
        manifest
            .get("counts")
            .and_then(|c| c.get(k))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    outln!(
        "run '{}' at {}: {} jobs ({} executed, {} cached, {} failed)\n",
        spec_name,
        store.root().display(),
        jobs.len(),
        counts("executed"),
        counts("skipped"),
        counts("failed"),
    );
    out!(
        "{}",
        render_stage_status(
            jobs.iter().map(|j| {
                (
                    j.get("label").and_then(Json::as_str).unwrap_or("?"),
                    j.get("status").and_then(Json::as_str).unwrap_or("?"),
                    j.get("summary")
                        .and_then(|s| s.get("campaign_resumed"))
                        .and_then(Json::as_u64)
                        .unwrap_or(0),
                )
            }),
            &stage_wall_times(),
        )
    );
    if !progress.is_empty() {
        outln!();
        out!("{}", render_campaign_progress(&progress));
    }
    outln!();
    out!("{}", render_rows(&aggregate_rows(&summaries)));
    Ok(ExitCode::SUCCESS)
}

/// Per-campaign progress: how many runs of each streamed campaign are
/// durable on disk, as a percentage of the campaign's resolved length —
/// readable mid-sweep, after a kill, or once everything completed.
fn render_campaign_progress(progress: &[mbcr_engine::CampaignProgress]) -> String {
    let mut out = String::from("campaign progress:\n");
    for p in progress {
        // A frame-less log (killed between magic and first frame) has
        // total == 0: that is zero progress, not completion.
        let pct = if p.total == 0 {
            0.0
        } else {
            100.0 * p.collected as f64 / p.total as f64
        };
        out.push_str(&format!(
            "  {:016x}  {:>9} / {:<9} {:>5.1}%\n",
            p.digest, p.collected, p.total, pct
        ));
    }
    out
}

/// Per-stage-kind wall time from the live telemetry registry: the summed
/// `mbcr_stage_execute_seconds{name=<kind>}` observations in nanoseconds.
/// Empty when tracing is off or nothing executed in this process — the
/// table's wall column renders `-` for kinds with no data.
fn stage_wall_times() -> Vec<(String, u64)> {
    let mut walls = Vec::new();
    for ((name, labels), metric) in &mbcr_obs::global().snapshot() {
        if name != "mbcr_stage_execute_seconds" {
            continue;
        }
        if let mbcr_obs::MetricSnapshot::Histogram(h) = metric {
            if let Some((_, kind)) = labels.iter().find(|(key, _)| key == "name") {
                walls.push((kind.clone(), h.sum()));
            }
        }
    }
    walls
}

/// Per-stage status: how many nodes of each stage kind executed (and, of
/// those, resumed from an intra-campaign checkpoint), came from cache, or
/// failed — the sweep's resume state at a glance. `walls` (stage kind →
/// summed execute time in nanoseconds, from [`stage_wall_times`]) fills
/// the wall column; kinds it does not cover render `-`.
fn render_stage_status<'a>(
    rows: impl Iterator<Item = (&'a str, &'a str, u64)>,
    walls: &[(String, u64)],
) -> String {
    // Kind name → [executed, resumed, cached, failed], in first-seen order.
    let mut kinds: Vec<(String, [u64; 4])> = Vec::new();
    for (label, status, resumed_runs) in rows {
        let kind = label.split('/').next().unwrap_or("?").to_string();
        let at = match kinds.iter().position(|(k, _)| *k == kind) {
            Some(at) => at,
            None => {
                kinds.push((kind, [0; 4]));
                kinds.len() - 1
            }
        };
        match status {
            "executed" => {
                kinds[at].1[0] += 1;
                if resumed_runs > 0 {
                    kinds[at].1[1] += 1;
                }
            }
            "skipped" => kinds[at].1[2] += 1,
            "failed" => kinds[at].1[3] += 1,
            _ => {}
        }
    }
    let width = kinds
        .iter()
        .map(|(k, _)| k.len())
        .max()
        .unwrap_or(5)
        .max("stage".len());
    let mut out = format!(
        "{:<width$}  executed  resumed  cached  failed  wall\n",
        "stage"
    );
    for (kind, [executed, resumed, cached, failed]) in &kinds {
        let wall = walls
            .iter()
            .find(|(k, _)| k == kind)
            .map_or_else(|| "-".to_string(), |&(_, ns)| fmt_dur_ns(ns));
        out.push_str(&format!(
            "{kind:<width$}  {executed:>8}  {resumed:>7}  {cached:>6}  {failed:>6}  {wall:>8}\n"
        ));
    }
    out
}

/// Renders a nanosecond duration human-readably (`412ns`, `3.2us`,
/// `18ms`, `2.41s`).
fn fmt_dur_ns(ns: u64) -> String {
    let ns = ns as f64;
    if ns < 1e3 {
        format!("{ns:.0}ns")
    } else if ns < 1e6 {
        format!("{:.1}us", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.1}ms", ns / 1e6)
    } else {
        format!("{:.2}s", ns / 1e9)
    }
}

/// `mbcr loadgen`: the service-plane load-storm bench. Spawns a daemon
/// (`serve --http … --spawn-workers …`), submits a storm of overlapping
/// sweeps over HTTP while many SSE followers stream their progress, and
/// reports what the gateway is for: dedup hit rate across the storm,
/// time-to-first-event under follower load, fair-share claim spread, and
/// the bytes cache-aware placement kept off the wire.
fn loadgen(args: &[String]) -> Result<ExitCode, EngineError> {
    let mut flags = Flags::new(args);
    let sweeps = match flags.value("--sweeps")? {
        Some(text) => (parse_u64("--sweeps", text)? as usize).max(1),
        None => 6,
    };
    let followers = match flags.value("--followers")? {
        Some(text) => parse_u64("--followers", text)? as usize,
        None => 8,
    };
    let spawn = flags
        .value("--spawn-workers")?
        .unwrap_or("1..2")
        .to_string();
    parse_spawn_workers(&spawn)?;
    let out = flags
        .value("--out")?
        .unwrap_or("mbcr-runs/loadgen")
        .to_string();
    let full = flags.switch("--full");
    flags.reject_unknown()?;

    let exe = std::env::current_exe().map_err(|e| EngineError::Analysis(e.to_string()))?;
    let mut daemon = Command::new(exe)
        .args([
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--http",
            "127.0.0.1:0",
            "--spawn-workers",
            &spawn,
            "--out",
            &out,
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| EngineError::Analysis(format!("spawning the daemon: {e}")))?;
    // The daemon under test dies with the bench, success or failure; its
    // registry is durable, so a re-run against the same --out resumes
    // rather than redoing finished work.
    let result = loadgen_run(&mut daemon, sweeps, followers, full);
    let _ = daemon.kill();
    let _ = daemon.wait();
    result
}

fn loadgen_run(
    daemon: &mut Child,
    sweeps: usize,
    followers: usize,
    full: bool,
) -> Result<ExitCode, EngineError> {
    use std::io::BufRead;
    let fail = |message: String| EngineError::Analysis(message);
    let stdout = daemon.stdout.take().expect("daemon stdout is piped");
    let mut lines = io::BufReader::new(stdout);
    let mut addr = None;
    let mut line = String::new();
    while addr.is_none() {
        line.clear();
        if lines
            .read_line(&mut line)
            .map_err(|e| fail(e.to_string()))?
            == 0
        {
            return Err(fail(
                "the daemon exited before printing its http address".into(),
            ));
        }
        if let Some(http) = line.trim().strip_prefix("http listening on ") {
            addr = Some(http.to_string());
        }
    }
    let addr = addr.expect("set by the loop above");
    // Keep draining the daemon's stdout so it can never block on a full
    // pipe mid-storm.
    std::thread::spawn(move || {
        let _ = io::copy(&mut lines, &mut io::sink());
    });

    // Request latencies go through mbcr-obs histograms so the report can
    // quote real quantiles instead of min/median/max over a tiny sample.
    let http_hist = mbcr_obs::Histogram::new();

    // The storm: overlapping sweeps alternating between two benchmarks.
    // Seed 11 is shared by every sweep on the same benchmark — that is
    // the cross-sweep dedup overlap — while the second seed is unique
    // work that keeps every sweep competing for claims.
    let cap = if full { 60_000 } else { 600 };
    let mut ids = Vec::new();
    for i in 0..sweeps {
        let mut spec = SweepSpec::new(format!("storm-{i:02}"));
        spec.benchmarks = vec![if i % 2 == 0 { "bs" } else { "cnt" }.to_string()];
        spec.seeds = vec![11, 100 + i as u64];
        spec.analyses = vec![AnalysisKind::PubTac];
        spec.quick = !full;
        spec.max_campaign_runs = Some(cap);
        let body = Json::Obj(vec![
            ("spec".to_string(), spec.to_json()),
            ("checkpoint_interval".to_string(), Json::UInt(200)),
            ("priority".to_string(), Json::UInt((i % 3 + 1) as u64)),
        ]);
        let posted = Instant::now();
        ids.push(post_sweep(&addr, &body)?);
        http_hist.record(dur_ns(posted.elapsed()));
    }
    outln!(
        "loadgen: {} overlapping sweeps submitted over http://{addr}, {} SSE followers",
        ids.len(),
        followers
    );

    // Followers stream while the storm runs; the main thread polls the
    // status endpoint until every submitted sweep is terminal.
    let follower_results: Vec<io::Result<(Option<Duration>, u64)>> =
        std::thread::scope(|scope| -> Result<_, EngineError> {
            let handles: Vec<_> = (0..followers)
                .map(|f| {
                    let addr = addr.clone();
                    let id = ids[f % ids.len()].clone();
                    scope.spawn(move || follow_first_event(&addr, &id))
                })
                .collect();
            poll_until_terminal(&addr, &ids, &http_hist)?;
            Ok(handles
                .into_iter()
                .map(|h| h.join().expect("follower panicked"))
                .collect())
        })?;

    let ttfe_hist = mbcr_obs::Histogram::new();
    for result in follower_results.iter().flatten() {
        if let (Some(first), _) = result {
            ttfe_hist.record(dur_ns(*first));
        }
    }

    let metrics = mbcr_gateway::request(&addr, "GET", "/v1/metrics", None)
        .map_err(|e| fail(format!("GET /v1/metrics: {e}")))?
        .json()
        .ok_or_else(|| fail("non-JSON body from /v1/metrics".into()))?;
    out!(
        "{}",
        loadgen_report(
            &metrics,
            &ids,
            &follower_results,
            &http_hist.snapshot(),
            &ttfe_hist.snapshot(),
        )
    );
    Ok(ExitCode::SUCCESS)
}

/// A `Duration` as the nanosecond unit mbcr-obs histograms record.
fn dur_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// One SSE follower of the load storm: time from connect to the first
/// `progress` event (`None` if the stream ended without one), plus the
/// number of events received.
fn follow_first_event(addr: &str, id: &str) -> io::Result<(Option<Duration>, u64)> {
    let start = Instant::now();
    let mut events = mbcr_gateway::open_sse(addr, &format!("/v1/sweeps/{id}/events"))?;
    let mut first = None;
    let mut count = 0u64;
    while let Some(event) = events.next_event()? {
        count += 1;
        match event.event.as_str() {
            "progress" if first.is_none() => first = Some(start.elapsed()),
            "end" => break,
            _ => {}
        }
    }
    Ok((first, count))
}

/// Polls `GET /v1/sweeps` until every id in `ids` reports a terminal
/// state (or ten minutes pass), recording each request's latency.
fn poll_until_terminal(
    addr: &str,
    ids: &[String],
    http_hist: &mbcr_obs::Histogram,
) -> Result<(), EngineError> {
    let deadline = Instant::now() + Duration::from_secs(600);
    loop {
        let sent = Instant::now();
        let rows = fetch_statuses(addr)?;
        http_hist.record(dur_ns(sent.elapsed()));
        if ids
            .iter()
            .all(|id| rows.iter().any(|s| &s.id == id && s.state.terminal()))
        {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err(EngineError::Analysis(
                "loadgen timed out waiting for the storm to finish".into(),
            ));
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// Renders the loadgen report from the daemon's `/v1/metrics` document,
/// the followers' measurements, and the bench's latency histograms.
fn loadgen_report(
    metrics: &Json,
    ids: &[String],
    followers: &[io::Result<(Option<Duration>, u64)>],
    http: &mbcr_obs::HistogramSnapshot,
    ttfe: &mbcr_obs::HistogramSnapshot,
) -> String {
    let empty: [Json; 0] = [];
    let rows: &[Json] = metrics
        .get("sweeps")
        .and_then(Json::as_array)
        .unwrap_or(&empty);
    let field = |row: &Json, key: &str| row.get(key).and_then(Json::as_u64).unwrap_or(0);
    let (mut total, mut skipped) = (0u64, 0u64);
    let mut claims: Vec<u64> = Vec::new();
    for row in rows.iter().filter(|row| {
        row.get("id")
            .and_then(Json::as_str)
            .is_some_and(|id| ids.iter().any(|ours| ours == id))
    }) {
        total += field(row, "total");
        skipped += field(row, "skipped");
        claims.push(field(row, "claims"));
    }
    let parked = metrics
        .get("dedup_parked")
        .and_then(Json::as_u64)
        .unwrap_or(0);
    let affinity = |key: &str| {
        metrics
            .get("affinity")
            .and_then(|a| a.get(key))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };

    let events: u64 = followers
        .iter()
        .filter_map(|r| r.as_ref().ok().map(|(_, n)| *n))
        .sum();
    let errors = followers.iter().filter(|r| r.is_err()).count();

    let mut out = String::from("loadgen report:\n");
    out.push_str(&format!(
        "  followers: {} streams, {events} events delivered, {errors} stream errors\n",
        followers.len(),
    ));
    // Quantiles are log-bucket upper bounds from mbcr-obs — coarse by
    // design, stable across sample counts.
    if ttfe.count() == 0 {
        out.push_str("  time-to-first-event: no progress events observed\n");
    } else {
        out.push_str(&format!(
            "  time-to-first-event: p50 {} / p95 {} / p99 {} over {} follower(s), max {}\n",
            fmt_dur_ns(ttfe.quantile(0.5)),
            fmt_dur_ns(ttfe.quantile(0.95)),
            fmt_dur_ns(ttfe.quantile(0.99)),
            ttfe.count(),
            fmt_dur_ns(ttfe.max()),
        ));
    }
    out.push_str(&format!(
        "  http requests: {} sent, latency p50 {} / p95 {} / p99 {}\n",
        http.count(),
        fmt_dur_ns(http.quantile(0.5)),
        fmt_dur_ns(http.quantile(0.95)),
        fmt_dur_ns(http.quantile(0.99)),
    ));
    let pct = if total == 0 {
        0.0
    } else {
        100.0 * skipped as f64 / total as f64
    };
    out.push_str(&format!(
        "  dedup: {skipped}/{total} jobs served from cache ({pct:.1}%), \
         {parked} claims parked behind in-flight stages\n"
    ));
    out.push_str(&format!(
        "  fairness: claims per sweep min {} / max {}\n",
        claims.iter().min().copied().unwrap_or(0),
        claims.iter().max().copied().unwrap_or(0),
    ));
    out.push_str(&format!(
        "  affinity: shipped {} bytes, elided {} bytes\n",
        affinity("shipped_bytes"),
        affinity("elided_bytes"),
    ));
    out
}
