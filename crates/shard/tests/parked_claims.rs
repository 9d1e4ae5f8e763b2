//! The service's waiting rules, driven over raw worker frames
//! (`mbcr_shard::protocol`) against a spawned `mbcr serve --http`:
//!
//! * a request that finds nothing claimable parks, and a sweep submitted
//!   while it waits is answered to it at once;
//! * with nothing to hand out, the request is answered `Wait` after the
//!   park bound, not before;
//! * a worker's `Done` wakes no parked peer: the reporting worker's own
//!   next request claims the dependent job, and the parked peer stays
//!   parked for the whole bound.

mod common;

use std::net::TcpStream;
use std::time::{Duration, Instant};

use common::{tmp_dir, Daemon};
use mbcr::stage::StageKind;
use mbcr_engine::{AnalysisKind, SweepSpec};
use mbcr_json::Json;
use mbcr_shard::protocol::{self, JobResult, Message, WireJob, PARK_BOUND};

/// A worker connection that speaks the frames by hand.
struct RawWorker {
    stream: TcpStream,
}

impl RawWorker {
    /// Connects and completes the handshake.
    fn connect(addr: &str) -> Self {
        let mut stream = TcpStream::connect(addr).expect("connect to the daemon");
        let hello = Message::Hello {
            schema: protocol::wire_schema(),
        };
        protocol::send(&mut stream, &hello).expect("send hello");
        match protocol::receive(&mut stream).expect("receive welcome") {
            Some(Message::Welcome { schema }) => assert_eq!(schema, protocol::wire_schema()),
            other => panic!("expected welcome, got {other:?}"),
        }
        Self { stream }
    }

    fn send(&mut self, message: &Message) {
        protocol::send(&mut self.stream, message).expect("send frame");
    }

    fn answer(&mut self) -> Message {
        protocol::receive(&mut self.stream)
            .expect("receive frame")
            .expect("the daemon closed the connection")
    }
}

/// A one-benchmark, one-seed pub_tac sweep: `pub` is its only root, and
/// every other stage waits on it.
fn one_seed_spec(name: &str, seed: u64) -> SweepSpec {
    let mut spec = SweepSpec::new(name);
    spec.benchmarks = vec!["bs".to_string()];
    spec.seeds = vec![seed];
    spec.analyses = vec![AnalysisKind::PubTac];
    spec.max_campaign_runs = Some(600);
    spec
}

/// Submits over `POST /v1/sweeps`, returning the sweep id.
fn submit(http: &str, spec: &SweepSpec) -> String {
    let body = Json::Obj(vec![("spec".to_string(), spec.to_json())]);
    let response =
        mbcr_gateway::request(http, "POST", "/v1/sweeps", Some(&body)).expect("POST /v1/sweeps");
    assert_eq!(response.status, 201, "{}", response.error_text());
    response
        .json()
        .as_ref()
        .and_then(|doc| doc.get("sweep"))
        .and_then(Json::as_str)
        .expect("the response names the sweep")
        .to_string()
}

fn expect_job(message: Message) -> WireJob {
    match message {
        Message::Job(job) => *job,
        other => panic!("expected a job, got {other:?}"),
    }
}

#[test]
fn a_parked_request_is_answered_with_a_sweep_submitted_while_it_waits() {
    let out = tmp_dir("park-submit");
    let daemon = Daemon::spawn(&out);
    let mut worker = RawWorker::connect(&daemon.addr);
    worker.send(&Message::Request);
    // The request is parked on an idle daemon when the sweep arrives.
    std::thread::sleep(Duration::from_millis(100));
    let id = submit(&daemon.http, &one_seed_spec("late", 31));
    let job = expect_job(worker.answer());
    assert_eq!(job.sweep, id, "the parked request gets the new sweep's job");
    assert_eq!(job.spec.kind.stage(), Some(StageKind::Pub));
    drop(daemon);
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn an_idle_request_is_answered_wait_after_the_park_bound() {
    let out = tmp_dir("park-bound");
    let daemon = Daemon::spawn(&out);
    let mut worker = RawWorker::connect(&daemon.addr);
    let asked = Instant::now();
    worker.send(&Message::Request);
    let answer = worker.answer();
    let waited = asked.elapsed();
    assert!(matches!(answer, Message::Wait), "got {answer:?}");
    assert!(
        waited >= PARK_BOUND,
        "Wait came after {waited:?}, before the {PARK_BOUND:?} park bound"
    );
    assert!(
        waited <= PARK_BOUND + Duration::from_secs(5),
        "Wait came after {waited:?}, long past the {PARK_BOUND:?} park bound"
    );
    drop(daemon);
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn a_done_wakes_no_parked_peer_and_its_sender_claims_the_dependent() {
    let out = tmp_dir("park-placement");
    let daemon = Daemon::spawn(&out);
    let id = submit(&daemon.http, &one_seed_spec("placement", 32));
    let mut a = RawWorker::connect(&daemon.addr);
    a.send(&Message::Request);
    let pub_job = expect_job(a.answer());
    assert_eq!(pub_job.sweep, id);
    assert_eq!(pub_job.spec.kind.stage(), Some(StageKind::Pub));

    // B finds nothing claimable (every other stage waits on pub) and parks.
    let mut b = RawWorker::connect(&daemon.addr);
    let b_asked = Instant::now();
    b.send(&Message::Request);
    std::thread::sleep(Duration::from_millis(150));

    // A reports pub and asks again. A failed result unblocks the
    // dependents just as a success would, without running the stage.
    a.send(&Message::Done(Box::new(JobResult {
        sweep: pub_job.sweep.clone(),
        job: pub_job.job,
        error: Some("not run by this test".to_string()),
        summary: None,
        stage_docs: Vec::new(),
        fit: None,
    })));
    a.send(&Message::Request);
    let trace_job = expect_job(a.answer());
    assert_eq!(trace_job.sweep, id);
    assert_eq!(
        trace_job.spec.kind.stage(),
        Some(StageKind::Trace),
        "the worker that reported pub claims its dependent"
    );

    // Nothing woke B: its request stays parked for the whole bound.
    let answer = b.answer();
    let waited = b_asked.elapsed();
    assert!(
        matches!(answer, Message::Wait),
        "the parked peer must not be handed work: got {answer:?}"
    );
    assert!(
        waited >= PARK_BOUND,
        "the parked peer was answered after {waited:?}, inside the park bound"
    );
    drop(daemon);
    let _ = std::fs::remove_dir_all(&out);
}
