//! # mbcr-shard — distributed sweep sharding and the sweep service
//!
//! Scales sweeps out at stage boundaries: a **service coordinator**
//! owns any number of concurrently submitted sweeps (the engine's
//! [`mbcr_engine::SweepRegistry`]), serves ready stage jobs to TCP
//! **workers** over a length-prefixed [`mbcr_json`] wire protocol, and
//! answers **clients** (submit / status / cancel / follow) on a
//! zero-dependency HTTP/1.1 + JSON plane (`mbcr-gateway`, enabled with
//! `--http`) that maps the four verbs onto `POST/GET/DELETE /v1/sweeps`
//! plus a Server-Sent-Events follow stream and a `/v1/metrics` scrape.
//! It streams campaign checkpoints back into its content-addressed
//! store as workers produce them, and merges completed stage artifacts —
//! deduplicated by digest within *and across* sweeps, so two sweeps
//! sharing a pub/trace/tac stage execute it once.
//!
//! The design leans entirely on what the engine already guarantees:
//!
//! * stage digests make every intermediate result location-independent —
//!   a job ships as its spec plus the upstream artifacts, nothing more;
//! * campaign chunk logs make *partial* campaign state shippable — a
//!   coordinator re-leasing a dead worker's campaign hands the next
//!   worker the durable prefix, which adopts the in-flight campaign and
//!   re-simulates at most one `checkpoint_interval`;
//! * the shared [`mbcr_engine::JobScheduler`] state machine and
//!   [`mbcr_engine::finalize_sweep`] make the merged manifest, Table 2
//!   CSV and sample logs byte-identical to a single-process `mbcr sweep`
//!   (test-enforced in `tests/shard_sweep.rs`).
//!
//! The `mbcr` binary in this crate fronts everything:
//!
//! ```text
//! mbcr serve  --listen 127.0.0.1:4870 --http 127.0.0.1:8080 \
//!             --out runs/service                   # daemon
//! mbcr serve  ... --spawn-workers 1..8             # + local autoscaled fleet
//! mbcr worker --connect 127.0.0.1:4870 --jobs 4    # on any host
//! mbcr submit --connect http://127.0.0.1:8080 --benchmarks bs --priority 3
//! mbcr report --connect http://127.0.0.1:8080 --follow   # live stream
//! mbcr sweep  --benchmarks bs --shards 4           # self-hosted
//! mbcr loadgen --sweeps 6 --followers 8            # load-storm bench
//! ```

mod coord;
mod lease;
pub mod lint;
pub mod protocol;
mod worker;

pub use coord::{serve, serve_daemon_with, CoordSettings, GatewayOptions};
pub use lease::LeaseTable;
pub use lint::{lint_pair, lint_program};
pub use worker::{run_worker, WorkerOutcome};
