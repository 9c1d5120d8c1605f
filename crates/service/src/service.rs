//! The service: ingest queue → batch former → tuned-engine worker pool,
//! with an in-process [`Client`] handle.
//!
//! Thread shape: one former thread owns the consumer side of the
//! [`IngestQueue`]; `workers` supervisor threads each own one live
//! worker thread sharing a `sync_channel` of [`FormedBatch`]es. Each
//! worker factorizes its batch in place with
//! [`factorize_batch_auto_backend`] under the plan the [`EngineSelector`]
//! chose (including its lane backend: runtime-dispatched SIMD by
//! default), then routes every per-matrix outcome — factor or non-SPD
//! failure — back to exactly the originating request's sink.
//!
//! Workers are *supervised*: a batch executes under `catch_unwind`, so a
//! panic (a kernel bug, or one injected by the chaos harness) costs only
//! that batch — its requests get a typed [`Outcome::WorkerCrashed`]
//! reply, the crashed worker thread is restarted with capped exponential
//! backoff, and the process never exits. Combined with deadline shedding
//! in the former, every admitted request receives exactly one reply no
//! matter what faults fire.
//!
//! **Large matrices don't batch — they schedule.** A matrix above the
//! batch ceiling has no cohort to amortize with (one `n = 512` matrix is
//! ~4000 `n = 8` matrices of work) and would stall every small request
//! packed behind it. [`Client::submit_large_sink`] therefore bypasses
//! the former entirely: the request goes to a dedicated, equally
//! supervised worker pool that factorizes the payload **in place** with
//! the task-graph runtime ([`potrf_tiled`]) — no gather, no packing; the
//! reply reuses the request's own buffer. Failure routing is per
//! request: a non-SPD pivot tile reports the failing *global* column
//! (deterministic even under parallel DAG execution, because diagonal
//! factorizations are totally ordered), a panic mid-DAG fails only that
//! request, and an expired deadline is shed before the factorization
//! starts.

use crate::codec::{factor_ok_frame_f32, factor_ok_frame_f64};
use crate::engine::EngineSelector;
use crate::fault::{silence_injected_panics, FaultAction, FaultHook, FaultSite};
use crate::former::{run_former, FormedBatch, FormerConfig, PackedData};
use crate::queue::{IngestQueue, PushRefused};
use crate::request::{FactorReply, Outcome, Payload, Pending, RejectReason, ReplySink};
use crate::stats::{ServiceStats, StatsSnapshot};
use ibcf_core::lane_batch::factorize_batch_auto_backend;
use ibcf_core::{potrf_tiled, CholeskyError, Looking, Real};
use ibcf_layout::{gather_matrix_affine, Layout};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Service construction parameters.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads executing formed batches.
    pub workers: usize,
    /// Ingest queue capacity (admission-control bound).
    pub queue_cap: usize,
    /// Batch former size threshold.
    pub max_batch: usize,
    /// Batch former deadline.
    pub max_delay: Duration,
    /// Largest admissible matrix dimension.
    pub max_n: usize,
    /// Fault injection hook ([`FaultHook::disabled`] in production: one
    /// `None` check per site, no other cost).
    pub fault: FaultHook,
    /// Largest admissible dimension for a *large* (task-graph) request.
    /// Kept comfortably under the wire's `MAX_FRAME` so a factored f64
    /// reply still frames.
    pub max_large_n: usize,
    /// Worker threads serving large requests (each runs one task-graph
    /// factorization at a time, itself parallel over the DAG).
    pub large_workers: usize,
    /// Tile edge for the large path's task-graph runtime.
    pub large_nb: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 1,
            queue_cap: 8192,
            max_batch: 1024,
            max_delay: Duration::from_millis(1),
            max_n: 64,
            fault: FaultHook::disabled(),
            max_large_n: 1024,
            large_workers: 1,
            large_nb: 32,
        }
    }
}

/// Queued-but-unserved bound for the large path: large payloads are big,
/// so admission control trips early instead of buffering a deep backlog
/// of megabyte buffers.
const LARGE_QUEUE_CAP: usize = 64;

/// First supervisor backoff after a worker crash; doubles per
/// consecutive crash.
const RESTART_BACKOFF_BASE: Duration = Duration::from_millis(1);
/// Supervisor backoff ceiling.
const RESTART_BACKOFF_CAP: Duration = Duration::from_millis(250);

struct Inner {
    queue: Arc<IngestQueue>,
    stats: Arc<ServiceStats>,
    max_n: usize,
    max_large_n: usize,
    tuned: bool,
    /// Sender side of the large-request channel; `None` once a drain or
    /// shutdown began (dropping it lets the large workers drain out).
    large_tx: Mutex<Option<SyncSender<Pending>>>,
}

/// A running factorization service. Dropping without
/// [`Service::shutdown`] detaches the threads; shut down for a clean
/// exit.
pub struct Service {
    inner: Arc<Inner>,
    former: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    large_workers: Vec<JoinHandle<()>>,
}

impl Service {
    /// Starts the former and worker threads.
    pub fn start(config: ServiceConfig, selector: EngineSelector) -> Service {
        assert!(config.workers > 0, "need at least one worker");
        assert!(config.max_batch > 0, "max_batch must be positive");
        if config.fault.is_enabled() {
            silence_injected_panics();
        }
        assert!(config.large_workers > 0, "need at least one large worker");
        assert!(config.large_nb > 0, "large_nb must be positive");
        let queue = Arc::new(IngestQueue::new(config.queue_cap));
        let stats = Arc::new(ServiceStats::default());
        let (large_tx, large_rx) = sync_channel::<Pending>(LARGE_QUEUE_CAP);
        let inner = Arc::new(Inner {
            queue: queue.clone(),
            stats: stats.clone(),
            max_n: config.max_n,
            max_large_n: config.max_large_n,
            tuned: selector.is_tuned(),
            large_tx: Mutex::new(Some(large_tx)),
        });
        // Shallow channel: the former should stall (and keep accumulating
        // arrivals into bigger batches) when workers are saturated, not
        // buffer an unbounded backlog of packed buffers.
        let (batch_tx, batch_rx) = sync_channel::<FormedBatch>(2 * config.workers);
        let former_cfg = FormerConfig {
            max_batch: config.max_batch,
            max_delay: config.max_delay,
            ..FormerConfig::default()
        };
        let former = {
            let (q, s, h) = (queue, stats.clone(), config.fault.clone());
            std::thread::Builder::new()
                .name("ibcf-former".into())
                .spawn(move || run_former(q, selector, former_cfg, s, batch_tx, h))
                .expect("spawn former")
        };
        let batch_rx = Arc::new(Mutex::new(batch_rx));
        let workers = (0..config.workers)
            .map(|w| {
                let (rx, s, h) = (batch_rx.clone(), stats.clone(), config.fault.clone());
                std::thread::Builder::new()
                    .name(format!("ibcf-supervisor-{w}"))
                    .spawn(move || run_supervisor(w, &rx, &s, &h))
                    .expect("spawn supervisor")
            })
            .collect();
        let large_rx = Arc::new(Mutex::new(large_rx));
        let large_workers = (0..config.large_workers)
            .map(|w| {
                let (rx, s, h) = (large_rx.clone(), stats.clone(), config.fault.clone());
                let nb = config.large_nb;
                std::thread::Builder::new()
                    .name(format!("ibcf-large-supervisor-{w}"))
                    .spawn(move || run_large_supervisor(w, &rx, &s, &h, nb))
                    .expect("spawn large supervisor")
            })
            .collect();
        Service {
            inner,
            former: Some(former),
            workers,
            large_workers,
        }
    }

    /// A submission handle. Clients stay valid until shutdown; submissions
    /// after shutdown are rejected with [`RejectReason::ShuttingDown`].
    pub fn client(&self) -> Client {
        Client {
            inner: self.inner.clone(),
        }
    }

    /// Current counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.stats.snapshot()
    }

    /// Closes the queue, drains everything already admitted, and joins
    /// all threads. Every admitted request receives its reply before this
    /// returns.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.inner.queue.close();
        // Dropping the large sender lets the large workers drain their
        // channel and exit, mirroring the former dropping the batch
        // sender below.
        self.inner.large_tx.lock().unwrap().take();
        if let Some(former) = self.former.take() {
            former.join().expect("former panicked");
        }
        // The former dropped the batch sender; workers drain and exit,
        // and each supervisor follows its drained worker out.
        for w in self.workers.drain(..) {
            w.join().expect("supervisor panicked");
        }
        for w in self.large_workers.drain(..) {
            w.join().expect("large supervisor panicked");
        }
        self.inner.stats.snapshot()
    }
}

/// Why a worker thread returned.
enum WorkerExit {
    /// The batch channel disconnected and drained: clean shutdown.
    Drained,
    /// A batch panicked (caught); `processed` batches completed before
    /// the crash — the supervisor resets its backoff when that is > 0.
    Crashed { processed: u64 },
}

/// Supervises one worker slot: spawns the worker thread, joins it, and
/// respawns after a crash with capped exponential backoff. Backoff
/// resets whenever the crashed incarnation made progress first, so a
/// poisoned workload can't permanently slow a healthy worker, while a
/// crash loop (instant repeated panics) backs off instead of spinning.
fn run_supervisor(
    slot: usize,
    rx: &Arc<Mutex<Receiver<FormedBatch>>>,
    stats: &Arc<ServiceStats>,
    hook: &FaultHook,
) {
    let mut backoff = RESTART_BACKOFF_BASE;
    let mut incarnation = 0u64;
    loop {
        let (rx2, s2, h2) = (rx.clone(), stats.clone(), hook.clone());
        let worker = std::thread::Builder::new()
            .name(format!("ibcf-worker-{slot}.{incarnation}"))
            .spawn(move || run_worker(&rx2, &s2, &h2))
            .expect("spawn worker");
        match worker.join().expect("worker escaped catch_unwind") {
            WorkerExit::Drained => return,
            WorkerExit::Crashed { processed } => {
                stats.worker_restarts.fetch_add(1, Ordering::Relaxed);
                if processed > 0 {
                    backoff = RESTART_BACKOFF_BASE;
                }
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(RESTART_BACKOFF_CAP);
                incarnation += 1;
            }
        }
    }
}

/// Factorizes formed batches in place and distributes replies, until the
/// channel drains (clean exit) or a batch panics (supervised exit).
fn run_worker(
    rx: &Mutex<Receiver<FormedBatch>>,
    stats: &ServiceStats,
    hook: &FaultHook,
) -> WorkerExit {
    let mut processed = 0u64;
    // Worker-lifetime gather scratch: reused across every batch this
    // incarnation executes, so the TCP fast path in `execute_batch`
    // allocates nothing per reply beyond the frame bytes themselves.
    let mut scratch = GatherScratch::default();
    loop {
        let batch = {
            let guard = rx.lock().unwrap();
            match guard.recv() {
                Ok(b) => b,
                Err(_) => return WorkerExit::Drained, // former gone, drained
            }
        };
        match execute_batch(batch, stats, hook, &mut scratch) {
            Ok(()) => processed += 1,
            Err(()) => return WorkerExit::Crashed { processed },
        }
    }
}

/// Supervises one large-path worker slot — same restart-with-backoff
/// contract as [`run_supervisor`], sharing the restart counters.
fn run_large_supervisor(
    slot: usize,
    rx: &Arc<Mutex<Receiver<Pending>>>,
    stats: &Arc<ServiceStats>,
    hook: &FaultHook,
    nb: usize,
) {
    let mut backoff = RESTART_BACKOFF_BASE;
    let mut incarnation = 0u64;
    loop {
        let (rx2, s2, h2) = (rx.clone(), stats.clone(), hook.clone());
        let worker = std::thread::Builder::new()
            .name(format!("ibcf-large-worker-{slot}.{incarnation}"))
            .spawn(move || run_large_worker(&rx2, &s2, &h2, nb))
            .expect("spawn large worker");
        match worker.join().expect("large worker escaped catch_unwind") {
            WorkerExit::Drained => return,
            WorkerExit::Crashed { processed } => {
                stats.worker_restarts.fetch_add(1, Ordering::Relaxed);
                if processed > 0 {
                    backoff = RESTART_BACKOFF_BASE;
                }
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(RESTART_BACKOFF_CAP);
                incarnation += 1;
            }
        }
    }
}

/// Serves large requests one at a time until the channel drains (sender
/// dropped at drain/shutdown) or a factorization panics (supervised
/// exit — the panic fails only the request that triggered it).
fn run_large_worker(
    rx: &Mutex<Receiver<Pending>>,
    stats: &ServiceStats,
    hook: &FaultHook,
    nb: usize,
) -> WorkerExit {
    let mut processed = 0u64;
    loop {
        let pending = {
            let guard = rx.lock().unwrap();
            match guard.recv() {
                Ok(p) => p,
                Err(_) => return WorkerExit::Drained,
            }
        };
        match execute_large(pending, stats, hook, nb) {
            Ok(()) => processed += 1,
            Err(()) => return WorkerExit::Crashed { processed },
        }
    }
}

/// Runs one large request through the task-graph runtime, **in place** in
/// the request's own payload buffer (lower triangle becomes `L`, strict
/// upper stays the submitted data — the `potrf` convention the batched
/// path also honors). Deadline shedding happens here, after dequeue:
/// queue wait is exactly the time that can expire a large request.
/// A panic is caught and fails only this request with a typed
/// [`Outcome::WorkerCrashed`]; `Err` restarts the worker.
fn execute_large(p: Pending, stats: &ServiceStats, hook: &FaultHook, nb: usize) -> Result<(), ()> {
    let Pending {
        id,
        n,
        payload,
        enqueued,
        deadline,
        sink,
    } = p;
    if deadline.is_some_and(|d| Instant::now() >= d) {
        sink.send(FactorReply {
            id,
            outcome: Outcome::Rejected(RejectReason::DeadlineExceeded),
        });
        // Same ledger as the former's shed path: `drained()` counts
        // `deadline_expired` as answered.
        stats.deadline_expired.fetch_add(1, Ordering::Relaxed);
        stats.rejected.fetch_add(1, Ordering::Relaxed);
        return Ok(());
    }
    let mut inject_panic = false;
    match hook.check(FaultSite::WorkerBatch) {
        Some(FaultAction::PanicWorker) => inject_panic = true,
        Some(FaultAction::Delay(d)) => std::thread::sleep(d),
        _ => {}
    }
    // Only the payload crosses the unwind boundary; the sink stays out
    // here so a panic still routes back to the originator.
    let factored = catch_unwind(AssertUnwindSafe(move || {
        if inject_panic {
            panic!("{} (chaos harness)", crate::fault::INJECTED_PANIC_MARKER);
        }
        match payload {
            Payload::F32(mut v) => {
                let r = potrf_tiled(n, &mut v, n, nb, Looking::Right);
                (Payload::F32(v), r)
            }
            Payload::F64(mut v) => {
                let r = potrf_tiled(n, &mut v, n, nb, Looking::Right);
                (Payload::F64(v), r)
            }
        }
    }));
    let (crashed, outcome) = match factored {
        Ok((payload, Ok(()))) => (false, Outcome::Factor(payload)),
        Ok((_, Err(CholeskyError::NotPositiveDefinite { column }))) => {
            (false, Outcome::NotSpd { column })
        }
        Ok((_, Err(CholeskyError::NonFinite { column }))) => (false, Outcome::NonFinite { column }),
        Err(_) => {
            stats.worker_crashes.fetch_add(1, Ordering::Relaxed);
            (true, Outcome::WorkerCrashed)
        }
    };
    let ok = outcome.is_ok();
    let latency = enqueued.elapsed();
    sink.send(FactorReply { id, outcome });
    // Counters bump *after* delivery so `drained()` implies every reply
    // already left through its sink.
    stats.record_latency(latency);
    if ok {
        stats.replies_ok.fetch_add(1, Ordering::Relaxed);
        stats.large_ok.fetch_add(1, Ordering::Relaxed);
    } else {
        stats.replies_failed.fetch_add(1, Ordering::Relaxed);
        stats.large_failed.fetch_add(1, Ordering::Relaxed);
    }
    if crashed {
        Err(())
    } else {
        Ok(())
    }
}

/// Per-worker gather scratch: one reusable full-square staging buffer
/// per precision, living as long as the worker incarnation. The TCP
/// fast path in [`execute_batch`] gathers each factored matrix into this
/// scratch and encodes the reply frame straight from it, so serving a
/// reply costs one exactly-sized frame allocation instead of a zeroed
/// payload `Vec` *plus* a frame.
#[derive(Default)]
struct GatherScratch {
    f32: Vec<f32>,
    f64: Vec<f64>,
}

/// Runs one batch. A panic inside the factorization (or one injected by
/// the chaos hook) is caught here: every request in the batch gets a
/// typed [`Outcome::WorkerCrashed`] reply — never silence, never a
/// process abort — and `Err` tells the worker loop to die and be
/// restarted by its supervisor.
fn execute_batch(
    batch: FormedBatch,
    stats: &ServiceStats,
    hook: &FaultHook,
    scratch: &mut GatherScratch,
) -> Result<(), ()> {
    let FormedBatch {
        n,
        plan,
        layout,
        mut data,
        reqs,
        ..
    } = batch;
    let mut inject_panic = false;
    match hook.check(FaultSite::WorkerBatch) {
        Some(FaultAction::PanicWorker) => inject_panic = true,
        Some(FaultAction::Delay(d)) => std::thread::sleep(d),
        _ => {}
    }
    // The requests (and their reply sinks) stay *outside* the unwind
    // scope: only the packed buffer and the factorization cross it, so a
    // panic can still be routed back to every originator.
    let factored = catch_unwind(AssertUnwindSafe(move || {
        if inject_panic {
            panic!("{} (chaos harness)", crate::fault::INJECTED_PANIC_MARKER);
        }
        let failures = match &mut data {
            PackedData::F32(buf) => {
                factorize_batch_auto_backend(
                    &layout,
                    buf.as_mut_slice(),
                    plan.order,
                    plan.width,
                    plan.backend,
                )
                .failures
            }
            PackedData::F64(buf) => {
                factorize_batch_auto_backend(
                    &layout,
                    buf.as_mut_slice(),
                    plan.order,
                    plan.width,
                    plan.backend,
                )
                .failures
            }
        };
        (data, failures)
    }));
    let (data, failures) = match factored {
        Ok(pair) => pair,
        Err(_) => {
            stats.worker_crashes.fetch_add(1, Ordering::Relaxed);
            for req in reqs {
                let latency = req.enqueued.elapsed();
                req.sink.send(FactorReply {
                    id: req.id,
                    outcome: Outcome::WorkerCrashed,
                });
                // Counters bump *after* delivery so `drained()` implies
                // every reply already left through its sink.
                stats.record_latency(latency);
                stats.replies_failed.fetch_add(1, Ordering::Relaxed);
            }
            return Err(());
        }
    };
    // `failures` is sorted by matrix index; walk it alongside the
    // requests so each failure lands on exactly its originator.
    let mut fail_iter = failures.into_iter().peekable();
    for (mat, req) in reqs.into_iter().enumerate() {
        let failure = match fail_iter.peek() {
            Some(&(idx, _)) if idx == mat => fail_iter.next().map(|(_, e)| e),
            _ => None,
        };
        let Pending {
            id, enqueued, sink, ..
        } = req;
        let latency = enqueued.elapsed();
        let ok = failure.is_none();
        match failure {
            Some(CholeskyError::NotPositiveDefinite { column }) => sink.send(FactorReply {
                id,
                outcome: Outcome::NotSpd { column },
            }),
            Some(CholeskyError::NonFinite { column }) => sink.send(FactorReply {
                id,
                outcome: Outcome::NonFinite { column },
            }),
            // Success: a frame sink gets its reply encoded straight from
            // the worker's reusable gather scratch — no per-reply payload
            // allocation, no zero-fill, just the frame bytes. Everything
            // else receives an owned Payload (that ownership *is* the
            // in-process reply contract).
            None => match sink {
                ReplySink::Frame { tx, dtype } => {
                    debug_assert_eq!(
                        dtype.elem_bytes(),
                        match &data {
                            PackedData::F32(_) => 4,
                            PackedData::F64(_) => 8,
                        },
                        "frame sink dtype disagrees with its batch"
                    );
                    let frame = match &data {
                        PackedData::F32(v) => {
                            scratch.f32.resize(n * n, 0.0);
                            gather_matrix_affine(&layout, v.as_slice(), mat, &mut scratch.f32, n);
                            factor_ok_frame_f32(id, &scratch.f32[..n * n])
                        }
                        PackedData::F64(v) => {
                            scratch.f64.resize(n * n, 0.0);
                            gather_matrix_affine(&layout, v.as_slice(), mat, &mut scratch.f64, n);
                            factor_ok_frame_f64(id, &scratch.f64[..n * n])
                        }
                    };
                    // Send failure = connection gone; drop with it.
                    let _ = tx.send(frame);
                }
                other => other.send(FactorReply {
                    id,
                    outcome: Outcome::Factor(gather_payload(&layout, &data, mat, n)),
                }),
            },
        }
        // Counters bump *after* delivery so `drained()` implies every
        // reply already left through its sink.
        stats.record_latency(latency);
        if ok {
            stats.replies_ok.fetch_add(1, Ordering::Relaxed);
        } else {
            stats.replies_failed.fetch_add(1, Ordering::Relaxed);
        }
    }
    // Any remaining failure would sit in a padding slot — impossible,
    // padding is the identity matrix.
    debug_assert!(
        fail_iter.peek().is_none(),
        "failure reported for an identity padding slot"
    );
    Ok(())
}

fn gather_payload(layout: &Layout, data: &PackedData, mat: usize, n: usize) -> Payload {
    fn full_square<T: Real>(layout: &Layout, data: &[T], mat: usize, n: usize) -> Vec<T> {
        let mut out = vec![T::ZERO; n * n];
        gather_matrix_affine(layout, data, mat, &mut out, n);
        out
    }
    match data {
        PackedData::F32(v) => Payload::F32(full_square(layout, v.as_slice(), mat, n)),
        PackedData::F64(v) => Payload::F64(full_square(layout, v.as_slice(), mat, n)),
    }
}

/// An in-process submission handle (cheap to clone, `Send`).
#[derive(Clone)]
pub struct Client {
    inner: Arc<Inner>,
}

impl Client {
    /// `true` if the service was started from a tuned dispatch table.
    pub fn is_tuned(&self) -> bool {
        self.inner.tuned
    }

    /// Current counters (serves the `stats` request).
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.stats.snapshot()
    }

    /// Largest admissible `n` for batched requests.
    pub fn max_n(&self) -> usize {
        self.inner.max_n
    }

    /// Largest admissible `n` for large (task-graph) requests.
    pub fn max_large_n(&self) -> usize {
        self.inner.max_large_n
    }

    /// Stops admission (new submissions are rejected with
    /// [`RejectReason::ShuttingDown`]) while everything already admitted
    /// keeps flowing to workers. Poll [`Client::drained`] to learn when
    /// every admitted request has been answered.
    pub fn begin_drain(&self) {
        self.inner.queue.close();
        // Large admission stops with it; dropping the sender drains the
        // large workers once their channel empties.
        self.inner.large_tx.lock().unwrap().take();
    }

    /// `true` once every admitted request has received its reply. Only
    /// meaningful after [`Client::begin_drain`] (or shutdown) stopped
    /// admission; before that, in-flight arrivals can flip it back.
    pub fn drained(&self) -> bool {
        let s = &self.inner.stats;
        let answered = s.replies_ok.load(Ordering::Relaxed)
            + s.replies_failed.load(Ordering::Relaxed)
            + s.deadline_expired.load(Ordering::Relaxed);
        answered >= s.requests.load(Ordering::Relaxed)
    }

    /// Requests queued but not yet drained into a batch — the router's
    /// least-loaded signal.
    pub fn queue_depth(&self) -> usize {
        self.inner.queue.len()
    }

    /// `true` while the ingest queue still admits new work; flips false
    /// once a drain or shutdown began. The router's health probe.
    pub fn is_accepting(&self) -> bool {
        !self.inner.queue.is_closed()
    }

    /// Non-blocking admission that hands everything back on refusal:
    /// like `submit_sink(.., blocking = false)` but instead of rejecting
    /// through the sink, a refusal returns `(reason, payload, sink)` to
    /// the caller — nothing was delivered, nothing was counted — so a
    /// router can re-route the request to another shard or translate a
    /// full queue into a typed backpressure reject. On `Ok` the request
    /// was admitted and the sink will be invoked exactly once by the
    /// service.
    #[allow(clippy::type_complexity)]
    pub fn try_submit(
        &self,
        id: u64,
        n: usize,
        payload: Payload,
        deadline: Option<Instant>,
        sink: ReplySink,
    ) -> Result<(), (RejectReason, Payload, ReplySink)> {
        if n == 0 || n > self.inner.max_n {
            return Err((RejectReason::BadDimension, payload, sink));
        }
        if payload.len() != n * n {
            return Err((RejectReason::BadPayload, payload, sink));
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Err((RejectReason::DeadlineExceeded, payload, sink));
        }
        let pending = Pending {
            id,
            n,
            payload,
            enqueued: Instant::now(),
            deadline,
            sink,
        };
        match self.inner.queue.try_push(pending) {
            Ok(()) => {
                self.inner.stats.requests.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err((p, closed)) => {
                let reason = if closed {
                    RejectReason::ShuttingDown
                } else {
                    RejectReason::QueueFull
                };
                Err((reason, p.payload, p.sink))
            }
        }
    }

    /// Submits a request, delivering the reply through `sink`. With
    /// `blocking` the call waits for queue space (backpressure);
    /// otherwise a full queue rejects immediately (admission control).
    /// A `deadline` propagates to the former: if it expires before the
    /// request is packed into a batch, the request is shed with
    /// [`RejectReason::DeadlineExceeded`]. The sink is always invoked
    /// exactly once, inline for rejections.
    pub fn submit_sink(
        &self,
        id: u64,
        n: usize,
        payload: Payload,
        deadline: Option<Instant>,
        sink: ReplySink,
        blocking: bool,
    ) {
        let reject = |sink: ReplySink, reason: RejectReason, stats: &ServiceStats| {
            stats.rejected.fetch_add(1, Ordering::Relaxed);
            sink.send(FactorReply {
                id,
                outcome: Outcome::Rejected(reason),
            });
        };
        if n == 0 || n > self.inner.max_n {
            return reject(sink, RejectReason::BadDimension, &self.inner.stats);
        }
        if payload.len() != n * n {
            return reject(sink, RejectReason::BadPayload, &self.inner.stats);
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            // Dead on arrival: refuse at the door rather than admitting
            // work the former would immediately shed.
            return reject(sink, RejectReason::DeadlineExceeded, &self.inner.stats);
        }
        let pending = Pending {
            id,
            n,
            payload,
            enqueued: Instant::now(),
            deadline,
            sink,
        };
        let outcome = if blocking {
            self.inner.queue.push_wait(pending).map_err(|e| match e {
                PushRefused::ShuttingDown(p) => (p, RejectReason::ShuttingDown),
                PushRefused::DeadlineExceeded(p) => (p, RejectReason::DeadlineExceeded),
            })
        } else {
            self.inner.queue.try_push(pending).map_err(|(p, closed)| {
                let reason = if closed {
                    RejectReason::ShuttingDown
                } else {
                    RejectReason::QueueFull
                };
                (p, reason)
            })
        };
        match outcome {
            Ok(()) => {
                self.inner.stats.requests.fetch_add(1, Ordering::Relaxed);
            }
            Err((p, reason)) => reject(p.sink, reason, &self.inner.stats),
        }
    }

    /// Non-blocking *large* admission that hands everything back on
    /// refusal — the task-graph twin of [`Client::try_submit`], and what
    /// a router shard delegates to. `Ok` means the request was admitted
    /// to the large queue and the sink will be invoked exactly once.
    #[allow(clippy::type_complexity)]
    pub fn try_submit_large(
        &self,
        id: u64,
        n: usize,
        payload: Payload,
        deadline: Option<Instant>,
        sink: ReplySink,
    ) -> Result<(), (RejectReason, Payload, ReplySink)> {
        if n == 0 || n > self.inner.max_large_n {
            return Err((RejectReason::BadDimension, payload, sink));
        }
        if payload.len() != n * n {
            return Err((RejectReason::BadPayload, payload, sink));
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Err((RejectReason::DeadlineExceeded, payload, sink));
        }
        let pending = Pending {
            id,
            n,
            payload,
            enqueued: Instant::now(),
            deadline,
            sink,
        };
        // Clone the sender out of the lock so a slow try_send never
        // holds up drain.
        let tx = self.inner.large_tx.lock().unwrap().clone();
        let refused = match tx {
            None => Err((pending, RejectReason::ShuttingDown)),
            Some(tx) => tx.try_send(pending).map_err(|e| match e {
                std::sync::mpsc::TrySendError::Full(p) => (p, RejectReason::QueueFull),
                std::sync::mpsc::TrySendError::Disconnected(p) => (p, RejectReason::ShuttingDown),
            }),
        };
        match refused {
            Ok(()) => {
                self.inner.stats.requests.fetch_add(1, Ordering::Relaxed);
                self.inner
                    .stats
                    .large_requests
                    .fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err((p, reason)) => Err((reason, p.payload, p.sink)),
        }
    }

    /// Submits a *large* request: the former is bypassed and the payload
    /// is scheduled on the task-graph worker pool, which factorizes it
    /// in place (large matrices don't batch — they schedule). Admission
    /// is always non-blocking: a full large queue rejects with
    /// [`RejectReason::QueueFull`]. The sink is invoked exactly once,
    /// inline for rejections; a deadline that expires while queued sheds
    /// the request before any factorization work starts.
    pub fn submit_large_sink(
        &self,
        id: u64,
        n: usize,
        payload: Payload,
        deadline: Option<Instant>,
        sink: ReplySink,
    ) {
        if let Err((reason, _payload, sink)) = self.try_submit_large(id, n, payload, deadline, sink)
        {
            self.inner.stats.rejected.fetch_add(1, Ordering::Relaxed);
            sink.send(FactorReply {
                id,
                outcome: Outcome::Rejected(reason),
            });
        }
    }

    /// Submits a large request and waits for the reply.
    pub fn call_large(&self, id: u64, n: usize, payload: Payload) -> FactorReply {
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        self.submit_large_sink(id, n, payload, None, ReplySink::channel(tx));
        rx.recv().expect("reply sink dropped without reply")
    }

    /// Submits and returns a receiver for the reply (non-blocking
    /// admission, no deadline).
    pub fn submit(
        &self,
        id: u64,
        n: usize,
        payload: Payload,
    ) -> std::sync::mpsc::Receiver<FactorReply> {
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        self.submit_sink(id, n, payload, None, ReplySink::channel(tx), false);
        rx
    }

    /// Submits with backpressure and waits for the reply.
    pub fn call(&self, id: u64, n: usize, payload: Payload) -> FactorReply {
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        self.submit_sink(id, n, payload, None, ReplySink::channel(tx), true);
        rx.recv().expect("reply sink dropped without reply")
    }
}

/// What the TCP front-end needs from whatever answers requests: one
/// service's [`Client`], or a [`RouterClient`](crate::router::RouterClient)
/// fronting a whole fleet. The contract is the service one — `submit_sink`
/// invokes its sink exactly once (inline for rejections), and once
/// `begin_drain` stopped admission, `drained` eventually turns (and
/// stays) true.
pub trait Frontend: Clone + Send + 'static {
    /// Submits one request; the reply arrives through `sink` exactly
    /// once. Implementations may ignore `blocking` (the router never
    /// blocks — it sheds with a typed backpressure reject instead).
    fn submit_sink(
        &self,
        id: u64,
        n: usize,
        payload: Payload,
        deadline: Option<Instant>,
        sink: ReplySink,
        blocking: bool,
    );
    /// Submits one *large* (task-graph) request; same exactly-once sink
    /// contract. Admission is always non-blocking.
    fn submit_large_sink(
        &self,
        id: u64,
        n: usize,
        payload: Payload,
        deadline: Option<Instant>,
        sink: ReplySink,
    );
    /// Current counters, for the stats frame.
    fn stats(&self) -> StatsSnapshot;
    /// Stops admission; already-admitted work keeps draining.
    fn begin_drain(&self);
    /// `true` once every admitted request has been answered.
    fn drained(&self) -> bool;
}

impl Frontend for Client {
    fn submit_sink(
        &self,
        id: u64,
        n: usize,
        payload: Payload,
        deadline: Option<Instant>,
        sink: ReplySink,
        blocking: bool,
    ) {
        Client::submit_sink(self, id, n, payload, deadline, sink, blocking);
    }

    fn submit_large_sink(
        &self,
        id: u64,
        n: usize,
        payload: Payload,
        deadline: Option<Instant>,
        sink: ReplySink,
    ) {
        Client::submit_large_sink(self, id, n, payload, deadline, sink);
    }

    fn stats(&self) -> StatsSnapshot {
        Client::stats(self)
    }

    fn begin_drain(&self) {
        Client::begin_drain(self);
    }

    fn drained(&self) -> bool {
        Client::drained(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibcf_core::spd::{random_spd, SpdKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn spd_vec<T: Real>(n: usize, seed: u64) -> Vec<T> {
        let mut rng = StdRng::seed_from_u64(seed);
        random_spd::<T>(n, SpdKind::Wishart, &mut rng).into_vec()
    }

    fn spd_payload(n: usize, seed: u64) -> Payload {
        Payload::F32(spd_vec(n, seed))
    }

    fn neg_identity(n: usize) -> Payload {
        let mut m = vec![0.0f32; n * n];
        for d in 0..n {
            m[d * n + d] = -1.0;
        }
        Payload::F32(m)
    }

    fn check_factor(n: usize, input: &Payload, reply: &FactorReply) {
        let Outcome::Factor(Payload::F32(out)) = &reply.outcome else {
            panic!("expected a factor, got {:?}", reply.outcome);
        };
        let Payload::F32(a) = input else {
            unreachable!()
        };
        // L·Lᵀ ≈ A on the lower triangle.
        for col in 0..n {
            for row in col..n {
                let mut sum = 0.0f64;
                for k in 0..=col.min(row) {
                    sum += out[k * n + row] as f64 * out[k * n + col] as f64;
                }
                let want = a[col * n + row] as f64;
                assert!(
                    (sum - want).abs() <= 1e-3 * want.abs().max(1.0),
                    "n={n} ({row},{col}): {sum} vs {want}"
                );
            }
        }
        // Strict upper triangle is the input, untouched.
        for col in 1..n {
            for row in 0..col {
                assert_eq!(out[col * n + row], a[col * n + row]);
            }
        }
    }

    #[test]
    fn end_to_end_factorization_round_trip() {
        let service = Service::start(
            ServiceConfig {
                workers: 2,
                max_delay: Duration::from_millis(2),
                ..ServiceConfig::default()
            },
            EngineSelector::heuristic(),
        );
        let client = service.client();
        let inputs: Vec<(u64, usize, Payload)> = (0..40)
            .map(|i| {
                let n = [3, 8, 16, 17][i as usize % 4];
                (i, n, spd_payload(n, 1000 + i))
            })
            .collect();
        let receivers: Vec<_> = inputs
            .iter()
            .map(|(id, n, p)| client.submit(*id, *n, p.clone()))
            .collect();
        for ((id, n, input), rx) in inputs.iter().zip(receivers) {
            let reply = rx.recv_timeout(Duration::from_secs(10)).unwrap();
            assert_eq!(reply.id, *id);
            check_factor(*n, input, &reply);
        }
        let snap = service.shutdown();
        assert_eq!(snap.requests, 40);
        assert_eq!(snap.replies_ok, 40);
        assert_eq!(snap.rejected, 0);
        assert!(snap.batches >= 4, "four (n, dtype) groups at minimum");
    }

    #[test]
    fn non_spd_failure_routes_to_exactly_the_bad_request() {
        let service = Service::start(
            ServiceConfig {
                max_delay: Duration::from_millis(2),
                ..ServiceConfig::default()
            },
            EngineSelector::heuristic(),
        );
        let client = service.client();
        let n = 16;
        // One poisoned request sandwiched between good neighbors that land
        // in the same (n, dtype) batch.
        let receivers: Vec<_> = (0..20u64)
            .map(|i| {
                let payload = if i == 7 {
                    neg_identity(n)
                } else {
                    spd_payload(n, 2000 + i)
                };
                client.submit(i, n, payload)
            })
            .collect();
        for (i, rx) in receivers.into_iter().enumerate() {
            let reply = rx.recv_timeout(Duration::from_secs(10)).unwrap();
            assert_eq!(reply.id, i as u64);
            if i == 7 {
                assert_eq!(reply.outcome, Outcome::NotSpd { column: 0 });
            } else {
                assert!(reply.outcome.is_ok(), "req {i}: {:?}", reply.outcome);
            }
        }
        let snap = service.shutdown();
        assert_eq!(snap.replies_failed, 1);
        assert_eq!(snap.replies_ok, 19);
    }

    #[test]
    fn admission_control_rejects_malformed_and_oversize_requests() {
        let service = Service::start(ServiceConfig::default(), EngineSelector::heuristic());
        let client = service.client();
        let r = client.call(1, 0, Payload::F32(vec![]));
        assert_eq!(r.outcome, Outcome::Rejected(RejectReason::BadDimension));
        let r = client.call(2, 65, Payload::F32(vec![0.0; 65 * 65]));
        assert_eq!(r.outcome, Outcome::Rejected(RejectReason::BadDimension));
        let r = client.call(3, 8, Payload::F32(vec![0.0; 63]));
        assert_eq!(r.outcome, Outcome::Rejected(RejectReason::BadPayload));
        let snap = service.shutdown();
        assert_eq!(snap.rejected, 3);
        assert_eq!(snap.requests, 0);
    }

    #[test]
    fn submissions_after_shutdown_are_rejected_shutting_down() {
        let service = Service::start(ServiceConfig::default(), EngineSelector::heuristic());
        let client = service.client();
        let reply = client.call(1, 8, spd_payload(8, 42));
        assert!(reply.outcome.is_ok());
        service.shutdown();
        let reply = client.call(2, 8, spd_payload(8, 43));
        assert_eq!(reply.outcome, Outcome::Rejected(RejectReason::ShuttingDown));
        let rx = client.submit(3, 8, spd_payload(8, 44));
        let reply = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(reply.outcome, Outcome::Rejected(RejectReason::ShuttingDown));
    }

    #[test]
    fn worker_panics_are_contained_typed_and_survived() {
        use crate::fault::FaultPlan;
        // A panic plan that fires every few batches: many batches must
        // crash, every crashed batch's requests must get a typed
        // WorkerCrashed reply, and the service must keep serving.
        let hook = FaultHook::from_plan(FaultPlan::worker_panic(0xC0FFEE));
        let service = Service::start(
            ServiceConfig {
                workers: 2,
                max_batch: 4,
                max_delay: Duration::from_millis(1),
                fault: hook.clone(),
                ..ServiceConfig::default()
            },
            EngineSelector::heuristic(),
        );
        let client = service.client();
        let total = 96u64;
        let receivers: Vec<_> = (0..total)
            .map(|i| client.submit(i, 8, spd_payload(8, 5000 + i)))
            .collect();
        let mut ok = 0u64;
        let mut crashed = 0u64;
        for (i, rx) in receivers.into_iter().enumerate() {
            let reply = rx.recv_timeout(Duration::from_secs(20)).unwrap();
            assert_eq!(reply.id, i as u64, "replies route to their originator");
            match reply.outcome {
                Outcome::Factor(_) => ok += 1,
                Outcome::WorkerCrashed => crashed += 1,
                other => panic!("req {i}: unexpected outcome {other:?}"),
            }
        }
        let snap = service.shutdown();
        assert_eq!(ok + crashed, total, "exactly one reply per request");
        assert!(
            snap.worker_crashes >= 3,
            "plan should fire repeatedly, got {} crashes",
            snap.worker_crashes
        );
        // Crashes count per batch, crashed replies per request: every
        // crashed batch holds between 1 and `max_batch` requests.
        assert!(
            crashed >= snap.worker_crashes,
            "every crash answered someone"
        );
        assert!(
            crashed <= snap.worker_crashes * 4,
            "crashed replies bounded by batch size"
        );
        assert_eq!(snap.worker_restarts, snap.worker_crashes);
        assert_eq!(snap.replies_ok, ok);
        assert!(hook.injected() >= 3);
    }

    #[test]
    fn queue_stall_faults_delay_but_never_lose_requests() {
        use crate::fault::FaultPlan;
        let hook = FaultHook::from_plan(FaultPlan::queue_stall(7));
        let service = Service::start(
            ServiceConfig {
                max_delay: Duration::from_millis(1),
                fault: hook.clone(),
                ..ServiceConfig::default()
            },
            EngineSelector::heuristic(),
        );
        let client = service.client();
        // Trickle requests in so the former's drain loop actually
        // iterates enough times to reach the plan's clock residue.
        let receivers: Vec<_> = (0..50u64)
            .map(|i| {
                if i % 2 == 0 {
                    std::thread::sleep(Duration::from_millis(2));
                }
                client.submit(i, 8, spd_payload(8, 7000 + i))
            })
            .collect();
        for (i, rx) in receivers.into_iter().enumerate() {
            let reply = rx.recv_timeout(Duration::from_secs(20)).unwrap();
            assert!(reply.outcome.is_ok(), "req {i}: {:?}", reply.outcome);
        }
        let snap = service.shutdown();
        assert_eq!(snap.replies_ok, 50);
        assert!(hook.injected() > 0, "the stall plan must actually fire");
    }

    #[test]
    fn expired_deadline_requests_get_typed_replies() {
        let service = Service::start(
            ServiceConfig {
                max_delay: Duration::from_millis(1),
                ..ServiceConfig::default()
            },
            EngineSelector::heuristic(),
        );
        let client = service.client();
        // Dead on arrival: refused at the door.
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        client.submit_sink(
            1,
            8,
            spd_payload(8, 1),
            Some(Instant::now() - Duration::from_millis(1)),
            ReplySink::channel(tx),
            false,
        );
        let reply = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(
            reply.outcome,
            Outcome::Rejected(RejectReason::DeadlineExceeded)
        );
        // A generous deadline sails through.
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        client.submit_sink(
            2,
            8,
            spd_payload(8, 2),
            Some(Instant::now() + Duration::from_secs(30)),
            ReplySink::channel(tx),
            false,
        );
        let reply = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert!(reply.outcome.is_ok());
        let snap = service.shutdown();
        assert_eq!(snap.rejected, 1);
        assert_eq!(snap.replies_ok, 1);
    }

    #[test]
    fn drain_answers_everything_then_refuses_new_work() {
        let service = Service::start(
            ServiceConfig {
                max_delay: Duration::from_millis(1),
                ..ServiceConfig::default()
            },
            EngineSelector::heuristic(),
        );
        let client = service.client();
        let receivers: Vec<_> = (0..30u64)
            .map(|i| client.submit(i, 8, spd_payload(8, 9000 + i)))
            .collect();
        client.begin_drain();
        let t0 = Instant::now();
        while !client.drained() {
            assert!(t0.elapsed() < Duration::from_secs(20), "drain stuck");
            std::thread::sleep(Duration::from_millis(1));
        }
        for rx in receivers {
            let reply = rx.recv_timeout(Duration::from_secs(5)).unwrap();
            assert!(reply.outcome.is_ok());
        }
        let reply = client.call(99, 8, spd_payload(8, 9999));
        assert_eq!(reply.outcome, Outcome::Rejected(RejectReason::ShuttingDown));
        service.shutdown();
    }

    #[test]
    fn large_requests_bypass_the_former_and_factor_in_place() {
        let service = Service::start(ServiceConfig::default(), EngineSelector::heuristic());
        let client = service.client();
        let n = 96; // above max_n (64): only the large path can serve it
        let a = spd_vec::<f64>(n, 321);
        let reply = client.call_large(1, n, Payload::F64(a.clone()));
        assert_eq!(reply.id, 1);
        let Outcome::Factor(Payload::F64(l)) = &reply.outcome else {
            panic!("expected f64 factor, got {:?}", reply.outcome);
        };
        // L·Lᵀ ≈ A on the lower triangle; strict upper untouched.
        for col in 0..n {
            for row in col..n {
                let mut sum = 0.0;
                for k in 0..=col {
                    sum += l[k * n + row] * l[k * n + col];
                }
                let want = a[col * n + row];
                assert!(
                    (sum - want).abs() <= 1e-9 * want.abs().max(1.0),
                    "({row},{col}): {sum} vs {want}"
                );
            }
        }
        for col in 1..n {
            for row in 0..col {
                assert_eq!(l[col * n + row], a[col * n + row]);
            }
        }
        let snap = service.shutdown();
        assert_eq!(snap.requests, 1);
        assert_eq!(snap.large_requests, 1);
        assert_eq!(snap.large_ok, 1);
        assert_eq!(snap.replies_ok, 1);
        assert_eq!(snap.batches, 0, "large requests never form batches");
    }

    #[test]
    fn large_non_spd_reports_the_global_column() {
        let service = Service::start(ServiceConfig::default(), EngineSelector::heuristic());
        let client = service.client();
        let n = 80;
        // SPD except one poisoned diagonal entry deep inside tile row 2:
        // the failing pivot's *global* column must come back.
        let bad_col = 71;
        let mut a = spd_vec::<f64>(n, 77);
        a[bad_col * n + bad_col] = -1.0e6;
        let reply = client.call_large(9, n, Payload::F64(a));
        assert_eq!(reply.outcome, Outcome::NotSpd { column: bad_col });
        let snap = service.shutdown();
        assert_eq!(snap.large_failed, 1);
        assert_eq!(snap.replies_failed, 1);
    }

    #[test]
    fn large_admission_validates_and_drains() {
        let service = Service::start(
            ServiceConfig {
                max_large_n: 128,
                ..ServiceConfig::default()
            },
            EngineSelector::heuristic(),
        );
        let client = service.client();
        let r = client.call_large(1, 0, Payload::F32(vec![]));
        assert_eq!(r.outcome, Outcome::Rejected(RejectReason::BadDimension));
        let r = client.call_large(2, 129, Payload::F32(vec![0.0; 129 * 129]));
        assert_eq!(r.outcome, Outcome::Rejected(RejectReason::BadDimension));
        let r = client.call_large(3, 72, Payload::F32(vec![0.0; 10]));
        assert_eq!(r.outcome, Outcome::Rejected(RejectReason::BadPayload));
        // Dead on arrival sheds at the door.
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        client.submit_large_sink(
            4,
            72,
            Payload::F32(spd_vec(72, 8)),
            Some(Instant::now() - Duration::from_millis(1)),
            ReplySink::channel(tx),
        );
        let r = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(r.outcome, Outcome::Rejected(RejectReason::DeadlineExceeded));
        // After drain, large submissions are refused ShuttingDown.
        client.begin_drain();
        assert!(client.drained());
        let r = client.call_large(5, 72, Payload::F32(spd_vec(72, 9)));
        assert_eq!(r.outcome, Outcome::Rejected(RejectReason::ShuttingDown));
        let snap = service.shutdown();
        assert_eq!(snap.rejected, 5);
        assert_eq!(snap.large_requests, 0);
    }

    #[test]
    fn mixed_small_and_large_traffic_all_answered() {
        let service = Service::start(
            ServiceConfig {
                workers: 2,
                max_delay: Duration::from_millis(1),
                ..ServiceConfig::default()
            },
            EngineSelector::heuristic(),
        );
        let client = service.client();
        let small: Vec<_> = (0..24u64)
            .map(|i| client.submit(i, 8, spd_payload(8, 100 + i)))
            .collect();
        let large: Vec<_> = (0..3u64)
            .map(|i| {
                let n = 72;
                let (tx, rx) = std::sync::mpsc::sync_channel(1);
                client.submit_large_sink(
                    1000 + i,
                    n,
                    Payload::F32(spd_vec(n, 500 + i)),
                    None,
                    ReplySink::channel(tx),
                );
                rx
            })
            .collect();
        for (i, rx) in small.into_iter().enumerate() {
            let reply = rx.recv_timeout(Duration::from_secs(10)).unwrap();
            assert!(reply.outcome.is_ok(), "small {i}: {:?}", reply.outcome);
        }
        for (i, rx) in large.into_iter().enumerate() {
            let reply = rx.recv_timeout(Duration::from_secs(20)).unwrap();
            assert_eq!(reply.id, 1000 + i as u64);
            assert!(reply.outcome.is_ok(), "large {i}: {:?}", reply.outcome);
        }
        let snap = service.shutdown();
        assert_eq!(snap.requests, 27);
        assert_eq!(snap.replies_ok, 27);
        assert_eq!(snap.large_ok, 3);
        assert!(snap.batches >= 1, "small traffic still batches");
    }

    #[test]
    fn f64_requests_are_served() {
        let service = Service::start(
            ServiceConfig {
                max_delay: Duration::from_millis(1),
                ..ServiceConfig::default()
            },
            EngineSelector::heuristic(),
        );
        let client = service.client();
        let n = 12;
        let a = spd_vec::<f64>(n, 99);
        let reply = client.call(5, n, Payload::F64(a.clone()));
        let Outcome::Factor(Payload::F64(l)) = &reply.outcome else {
            panic!("expected f64 factor, got {:?}", reply.outcome);
        };
        for col in 0..n {
            let mut sum = 0.0;
            for k in 0..=col {
                sum += l[k * n + col] * l[k * n + col];
            }
            assert!((sum - a[col * n + col]).abs() < 1e-9 * a[col * n + col].max(1.0));
        }
        service.shutdown();
    }
}
