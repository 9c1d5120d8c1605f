//! Dynamic-batching factorization service.
//!
//! The paper's batched kernels assume someone already has thousands of
//! small SPD matrices in one interleaved buffer. This crate closes the
//! loop for the serving case where matrices arrive one at a time:
//!
//! 1. an [`IngestQueue`](queue::IngestQueue) admits requests under a
//!    hard bound (non-blocking rejection or blocking backpressure);
//! 2. a [former](former) groups them by `(n, dtype)` and flushes each
//!    group on a size threshold or a deadline, scattering each payload
//!    **once** directly into a 128-byte-aligned interleaved buffer
//!    padded in place to a full lane group (the fused zero-copy ingest
//!    path) — shedding any request whose own deadline already expired;
//! 3. a supervised worker pool factorizes each batch in place with the
//!    lane-vectorized engine — explicit AVX2/AVX-512 kernels where the
//!    CPU has them, autovectorized fallback otherwise — under the
//!    layout/order the
//!    [`EngineSelector`](engine::EngineSelector) picked from a tuned
//!    [`DispatchTable`](ibcf_autotune::DispatchTable) (heuristics when
//!    no sweep log exists), and routes per-matrix failures back to
//!    exactly the originating request; a panicking batch yields typed
//!    [`Outcome::WorkerCrashed`] replies and a restarted worker, never
//!    a dead process;
//! 4. [`ServiceStats`](stats::ServiceStats) tracks counters, a batch
//!    occupancy histogram, and reply-latency percentiles;
//! 5. a std::net TCP front-end ([`server`]) speaks a length-prefixed
//!    binary frame protocol ([`codec`]) with typed frame errors and
//!    graceful drain, and a [load generator](loadgen) drives it in
//!    closed- or open-loop arrivals with reconnect/resubmit retry;
//! 6. a seeded [fault-injection harness](fault) can be threaded through
//!    every stage to prove, reproducibly, that each admitted request
//!    receives exactly one reply under worker panics, stalls,
//!    connection drops, and frame corruption;
//! 7. a [router](router) fronts N shards (in-process or TCP) with
//!    rendezvous or least-loaded routing keyed by `(n, dtype)`,
//!    health-checked failover, per-shard circuit breakers, optional
//!    hedged requests, and typed
//!    [`Backpressure`](request::RejectReason::Backpressure) retry-after
//!    rejects instead of blocking;
//! 8. a [fleet supervisor](fleet) pushes isolation to the OS level:
//!    each shard is a real child process (`ibcf serve --shard-child`)
//!    that the supervisor spawns, health-reaps, SIGKILL-chaos-tests,
//!    and respawns with capped backoff — in-flight requests lost with
//!    a process come back as typed
//!    [`ShardLost`](request::Outcome::ShardLost) replies the router
//!    transparently resubmits once.

#![warn(missing_docs)]

pub mod codec;
pub mod engine;
pub mod fault;
pub mod fleet;
pub mod former;
pub mod loadgen;
pub mod queue;
pub mod request;
pub mod retry;
pub mod router;
pub mod server;
pub mod service;
pub mod stats;

pub use codec::FrameError;
pub use engine::{EnginePlan, EngineSelector};
pub use fault::{FaultAction, FaultHook, FaultPlan, FaultSite};
pub use fleet::{Fleet, FleetConfig, ProcessShard, SHARD_READY_PREFIX};
pub use former::{FormerConfig, PackedData};
pub use loadgen::{ArrivalMode, LoadReport, LoadgenConfig};
pub use queue::PushRefused;
pub use request::{Dtype, FactorReply, Outcome, Payload, RejectReason, ReplySink};
pub use retry::RetryPolicy;
pub use router::{
    InProcessShard, RoutePolicy, Router, RouterClient, RouterConfig, ShardBackend, TcpShard,
};
pub use server::{TcpConn, TcpServer};
pub use service::{Client, Frontend, Service, ServiceConfig};
pub use stats::{BreakerStat, FleetStat, ServiceStats, ShardStat, StatsSnapshot};
