//! The in-process DAG executor: OS threads over the shared
//! [`JobScheduler`] state machine.
//!
//! Scheduling policy — which job may run when, lease bookkeeping, the
//! malformed-graph checks — lives in [`JobScheduler`], the same state
//! machine the `mbcr-shard` coordinator drives over TCP. This module adds
//! only what an in-process pool needs on top: worker threads, a condvar to
//! park claimers while everything runnable is leased elsewhere, and result
//! collection in submission order (so output is deterministic regardless
//! of the interleaving).
//!
//! Jobs here are whole analysis stages — milliseconds to minutes each —
//! so one central queue behind a mutex is the right trade: claims are
//! vanishingly rare next to job execution, and the earlier per-worker
//! deque design bought its stealing locality with a deadlock class
//! (guards held across sibling locks) that this design cannot express.

use std::sync::{Condvar, Mutex};
use std::time::Duration;

use crate::JobScheduler;

/// Executes `deps.len()` jobs respecting the dependency edges, with up to
/// `threads` workers. `run(i)` is called exactly once per job, only after
/// every job in `deps[i]` has completed; the result vector is indexed by
/// job.
///
/// # Panics
///
/// Panics on malformed graphs: out-of-range or self dependencies, or a
/// dependency cycle (rejected by [`JobScheduler::new`] before any worker
/// spawns).
pub fn execute_dag<R, F>(deps: &[Vec<usize>], threads: usize, run: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let n = deps.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.max(1).min(n);
    let sched = Mutex::new(JobScheduler::new(deps));
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let wake = Condvar::new();

    std::thread::scope(|scope| {
        for me in 0..threads {
            let run = &run;
            let sched = &sched;
            let results = &results;
            let wake = &wake;
            scope.spawn(move || loop {
                // The claim span covers lock acquisition and any parked
                // waiting — i.e. this worker's idle time between jobs.
                let claim_span = mbcr_obs::span(mbcr_obs::SpanKind::SchedulerClaim, "pool-claim");
                let job = {
                    let mut guard = sched.lock().expect("scheduler poisoned");
                    loop {
                        if guard.finished() {
                            wake.notify_all();
                            return;
                        }
                        if let Some(job) = guard.claim(me as u64) {
                            break job;
                        }
                        // Everything runnable is leased to siblings; park
                        // until a completion may have unblocked work. The
                        // timeout is belt-and-braces against a lost wake.
                        guard = wake
                            .wait_timeout(guard, Duration::from_millis(2))
                            .expect("scheduler poisoned")
                            .0;
                    }
                };
                drop(claim_span);
                let busy_start = if mbcr_obs::enabled() {
                    Some(mbcr_obs::now_ns())
                } else {
                    None
                };
                let result = run(job);
                if let Some(start) = busy_start {
                    let busy = mbcr_obs::now_ns().saturating_sub(start);
                    mbcr_obs::observe("mbcr_worker_busy_seconds", &[], busy);
                }
                *results[job].lock().expect("result slot poisoned") = Some(result);
                let (unblocked, finished) = {
                    let mut guard = sched.lock().expect("scheduler poisoned");
                    (guard.complete(job), guard.finished())
                };
                if unblocked > 0 || finished {
                    wake.notify_all();
                }
            });
        }
    });

    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("scheduler drained without running every job")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn empty_graph_is_fine() {
        let out: Vec<u32> = execute_dag(&[], 4, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn independent_jobs_all_run_once() {
        let deps: Vec<Vec<usize>> = vec![Vec::new(); 100];
        let calls = AtomicU64::new(0);
        let out = execute_dag(&deps, 8, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i * 2
        });
        assert_eq!(calls.load(Ordering::Relaxed), 100);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn dependencies_complete_first() {
        // Chain 0 -> 1 -> 2 plus a fan-in job 3 depending on everything.
        let deps = vec![vec![], vec![0], vec![1], vec![0, 1, 2]];
        let order = Mutex::new(Vec::new());
        execute_dag(&deps, 4, |i| {
            order.lock().unwrap().push(i);
        });
        let order = order.into_inner().unwrap();
        let position = |i: usize| order.iter().position(|&x| x == i).unwrap();
        assert!(position(0) < position(1));
        assert!(position(1) < position(2));
        assert_eq!(position(3), 3);
    }

    #[test]
    fn wide_diamond_under_contention() {
        // 1 source -> 200 middles -> 1 sink, 8 workers.
        let n = 202;
        let mut deps: Vec<Vec<usize>> = vec![Vec::new(); n];
        for middle in deps.iter_mut().take(201).skip(1) {
            *middle = vec![0];
        }
        deps[201] = (1..=200).collect();
        let out = execute_dag(&deps, 8, |i| i as u64);
        assert_eq!(out.len(), n);
        assert!(out.iter().enumerate().all(|(i, &v)| v == i as u64));
    }

    #[test]
    fn chains_under_idle_worker_pressure_do_not_deadlock() {
        // One long chain keeps at most one job runnable, so every other
        // worker constantly runs dry and parks — the shape that deadlocked
        // the old per-worker-deque pool (reliably so on a single-CPU
        // host). The watchdog turns a regression into a failure instead
        // of a hung suite.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for _round in 0..50 {
                let n = 40;
                let mut deps: Vec<Vec<usize>> = vec![Vec::new(); n];
                for (i, d) in deps.iter_mut().enumerate().skip(1) {
                    *d = vec![i - 1];
                }
                let out = execute_dag(&deps, 8, |i| i);
                assert_eq!(out.len(), n);
            }
            tx.send(()).expect("watchdog receiver gone");
        });
        rx.recv_timeout(std::time::Duration::from_secs(120))
            .expect("execute_dag deadlocked under idle-worker pressure");
    }

    #[test]
    fn single_thread_executes_in_topological_order() {
        let deps = vec![vec![1], vec![], vec![0]]; // 1 -> 0 -> 2
        let order = Mutex::new(Vec::new());
        execute_dag(&deps, 1, |i| {
            order.lock().unwrap().push(i);
        });
        assert_eq!(order.into_inner().unwrap(), vec![1, 0, 2]);
    }

    #[test]
    #[should_panic(expected = "out-of-range")]
    fn rejects_out_of_range_dependency() {
        execute_dag(&[vec![5]], 1, |_| ());
    }

    #[test]
    #[should_panic(expected = "depends on itself")]
    fn rejects_self_dependency() {
        execute_dag(&[vec![0]], 1, |_| ());
    }

    #[test]
    #[should_panic(expected = "dependency cycle")]
    fn rejects_cycles() {
        execute_dag(&[vec![1], vec![0]], 2, |_| ());
    }
}
