//! A worker's handshake is bounded: a coordinator that never answers the
//! `Hello` costs the worker its connect budget (~20 s), not a hang until
//! the listener closes.

use std::net::TcpListener;
use std::sync::mpsc;
use std::time::Duration;

#[test]
fn a_listener_that_never_accepts_fails_the_handshake_within_the_connect_budget() {
    // Bound and listening but never accepted: the kernel still completes
    // the TCP connect, so only the Welcome read can notice that nobody
    // answers.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr").to_string();
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(mbcr_shard::run_worker(&addr, 1));
    });
    let outcome = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("the worker gives up on a silent coordinator within 30 s");
    let err = outcome.expect_err("a coordinator that never answers is an error");
    assert!(err.to_string().contains("never answered"), "{err}");
    worker.join().expect("worker thread");
    drop(listener);
}
