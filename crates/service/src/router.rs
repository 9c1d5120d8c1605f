//! Router/shard tier: one front door over N factorization shards.
//!
//! ROADMAP item 2's production shape is *many* servers, with routing
//! keyed by `(n, dtype)` so each shard's batch former sees homogeneous
//! traffic and keeps lane occupancy high. This module provides that
//! tier:
//!
//! - a [`Router`] fronts N [`ShardBackend`]s — in-process services
//!   ([`InProcessShard`]) or remote `ibcf serve` processes over TCP
//!   ([`TcpShard`]);
//! - requests route by [`RoutePolicy`]: rendezvous (highest-random-
//!   weight) hashing of `(n, dtype)` for stable keys with minimal
//!   movement on failover, or least-loaded by ingest-queue depth;
//! - a health thread probes every shard on a jittered cadence (each
//!   slot's probe schedule is de-correlated from its neighbours', so a
//!   recovering fleet is not hit by a thundering herd of simultaneous
//!   probes) and marks dead shards unroutable; live submissions that
//!   hit a dying shard fail over to the next healthy candidate
//!   immediately;
//! - every slot carries a **circuit breaker**: K consecutive
//!   connect/submit/probe failures trip it open (the slot leaves the
//!   routing set), a cooldown later it half-opens for a trial probe,
//!   and a successful probe closes it again. States and trip counts
//!   surface in [`ShardStat`]; transition totals in
//!   [`FleetStat`](crate::stats::FleetStat);
//! - when a shard *process* dies, its [`TcpShard`] pending map answers
//!   every orphaned in-flight request with a typed
//!   [`Outcome::ShardLost`]; the router intercepts the first loss and
//!   transparently resubmits to a healthy shard (exactly once — a
//!   second loss surfaces `ShardLost` to the caller, who may resubmit
//!   like any crash);
//! - optional **hedged requests** ([`RouterConfig::hedge_after`]): a
//!   submit that has not answered within the hedge delay is duplicated
//!   to a second healthy shard; the first reply wins at a shared
//!   take-once sink and the loser is counted as suppressed, so the
//!   exactly-one-reply invariant holds by construction;
//! - a full shard queue is *never* spilled to a colder shard and never
//!   blocks the router: the client gets a typed
//!   [`RejectReason::Backpressure`] carrying a retry-after hint, and is
//!   expected to resubmit no sooner than the hint (the load generator's
//!   retry loop honors this).
//!
//! Chaos runs kill shards for real: the `proc-kill` fault plan lets the
//! [fleet supervisor](crate::fleet) SIGKILL shard processes, and the
//! router sees only what any client would — dead connections, failed
//! probes and `ShardLost` replies.
//!
//! The [`RouterClient`] implements [`Frontend`], so the TCP server can
//! front a whole fleet exactly as it fronts one service, and
//! [`RouterClient::stats`] reports the fleet merge (via
//! [`StatsSnapshot::merge`]) with a per-shard breakdown attached.

use crate::codec::{
    decode_factor_reply, encode_factor_req, read_frame, wire_deadline_us, write_frame,
    K_FACTOR_REPLY, K_FACTOR_REQ, K_LARGE_REQ,
};
use crate::request::{FactorReply, Outcome, Payload, RejectReason, ReplySink};
use crate::retry::RetryPolicy;
use crate::server::TcpConn;
use crate::service::{Client, Frontend, Service};
use crate::stats::{BreakerStat, FleetStat, ShardStat, StatsSnapshot};
use std::collections::HashMap;
use std::io::BufReader;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A refusal handed back by [`ShardBackend::try_submit`]: nothing was
/// delivered through the sink, so the router still owns the request.
pub type SubmitRefusal = (RejectReason, Payload, ReplySink);

/// One backend the router can route to.
pub trait ShardBackend: Send + Sync {
    /// Display name (stable for the life of the fleet, e.g. `shard-0`).
    fn name(&self) -> &str;

    /// Non-blocking admission. `Ok` means the shard owns the request and
    /// will invoke the sink exactly once; `Err` hands reason, payload,
    /// and sink back untouched so the router can re-route or reject.
    fn try_submit(
        &self,
        id: u64,
        n: usize,
        payload: Payload,
        deadline: Option<Instant>,
        sink: ReplySink,
    ) -> Result<(), SubmitRefusal>;

    /// Non-blocking admission for a *large* request, bound for the
    /// shard's task-graph pool instead of its batch former. Same
    /// ownership contract as [`ShardBackend::try_submit`].
    fn try_submit_large(
        &self,
        id: u64,
        n: usize,
        payload: Payload,
        deadline: Option<Instant>,
        sink: ReplySink,
    ) -> Result<(), SubmitRefusal>;

    /// `true` while the shard can accept new work (the health probe).
    fn probe(&self) -> bool;

    /// Backlog estimate for least-loaded routing (queued requests).
    fn load(&self) -> usize;

    /// The shard's own counters.
    fn stats(&self) -> StatsSnapshot;

    /// Stops admission on this shard (the first step of a drain).
    /// Already-admitted work must still drain to its sinks.
    fn kill(&self);

    /// `true` once every admitted request has been answered.
    fn drained(&self) -> bool;

    /// Releases the shard's resources (joins worker threads). Called
    /// once, from [`Router::shutdown`], after [`ShardBackend::kill`].
    fn shutdown(&self);

    /// `true` when an *admitted* request can still be lost before its
    /// sink fires — a remote connection or child process can die with
    /// requests in flight, an in-process shard cannot. The router only
    /// pays for the in-flight-failover guard (a payload clone per
    /// request) on fleets where a loss is possible; everyone else keeps
    /// the zero-copy reply fast path untouched.
    fn can_lose_inflight(&self) -> bool {
        false
    }
}

/// A shard running inside this process: one [`Service`] with its own
/// former, queue, and worker pool.
pub struct InProcessShard {
    name: String,
    client: Client,
    service: Mutex<Option<Service>>,
}

impl InProcessShard {
    /// Wraps a started service as a routable shard.
    pub fn new(name: impl Into<String>, service: Service) -> InProcessShard {
        InProcessShard {
            name: name.into(),
            client: service.client(),
            service: Mutex::new(Some(service)),
        }
    }
}

impl ShardBackend for InProcessShard {
    fn name(&self) -> &str {
        &self.name
    }

    fn try_submit(
        &self,
        id: u64,
        n: usize,
        payload: Payload,
        deadline: Option<Instant>,
        sink: ReplySink,
    ) -> Result<(), SubmitRefusal> {
        self.client.try_submit(id, n, payload, deadline, sink)
    }

    fn try_submit_large(
        &self,
        id: u64,
        n: usize,
        payload: Payload,
        deadline: Option<Instant>,
        sink: ReplySink,
    ) -> Result<(), SubmitRefusal> {
        self.client.try_submit_large(id, n, payload, deadline, sink)
    }

    fn probe(&self) -> bool {
        self.client.is_accepting()
    }

    fn load(&self) -> usize {
        self.client.queue_depth()
    }

    fn stats(&self) -> StatsSnapshot {
        self.client.stats()
    }

    fn kill(&self) {
        // Graceful: stop admission, keep answering what was admitted.
        self.client.begin_drain();
    }

    fn drained(&self) -> bool {
        self.client.drained()
    }

    fn shutdown(&self) {
        if let Some(service) = self.service.lock().unwrap().take() {
            service.shutdown();
        }
    }
}

/// Requests in flight on one TCP shard connection, keyed by the wire id
/// the shard sees (the router renumbers — caller ids are only unique per
/// front-end connection, not fleet-wide).
struct TcpPending {
    map: HashMap<u64, (u64, ReplySink)>,
    /// Set by the dying reader, under this lock, *before* it drains the
    /// map — so a submitter holding the lock either sees `dead` or gets
    /// its entry drained, never neither.
    dead: bool,
}

struct TcpShardConn {
    stream: TcpStream,
    reader: JoinHandle<()>,
    pending: Arc<Mutex<TcpPending>>,
}

/// Connection slot plus the reconnect-backoff ledger guarding it. The
/// backoff *gates* rather than sleeps: a submit that arrives inside the
/// backoff window is refused immediately (the router fails it over), so
/// the submit path never blocks on a dead shard.
struct TcpConnState {
    conn: Option<TcpShardConn>,
    /// Consecutive failed connect attempts; resets on success.
    attempt: u32,
    /// Earliest instant the next connect attempt is allowed, per the
    /// shard's [`RetryPolicy`] equal-jitter schedule.
    next_connect_at: Option<Instant>,
}

/// A shard behind a TCP connection to a remote `ibcf serve` process.
///
/// The router renumbers requests onto a private wire-id space, pumps
/// replies back through a reader thread, and answers everything still in
/// flight with a typed [`Outcome::ShardLost`] (idempotent — safe to
/// resubmit, and the router resubmits the first loss itself) if the
/// connection dies mid-stream. Reconnects follow the shared
/// [`RetryPolicy`] equal-jitter backoff instead of hammering a dead
/// address on every submit.
pub struct TcpShard {
    name: String,
    addr: String,
    next_wire_id: AtomicU64,
    killed: AtomicBool,
    retry: RetryPolicy,
    state: Mutex<TcpConnState>,
}

impl TcpShard {
    /// A shard that will lazily connect to `addr` on first use, with the
    /// default reconnect backoff seeded from the address (deterministic
    /// per shard, de-correlated across shards).
    pub fn new(name: impl Into<String>, addr: impl Into<String>) -> TcpShard {
        let addr = addr.into();
        let seed = addr.bytes().fold(0xC0FFEEu64, |h, b| mix(h ^ u64::from(b)));
        Self::with_retry(name, addr, RetryPolicy::reconnect(seed))
    }

    /// A shard with an explicit reconnect-backoff policy.
    pub fn with_retry(
        name: impl Into<String>,
        addr: impl Into<String>,
        retry: RetryPolicy,
    ) -> TcpShard {
        TcpShard {
            name: name.into(),
            addr: addr.into(),
            next_wire_id: AtomicU64::new(1),
            killed: AtomicBool::new(false),
            retry,
            state: Mutex::new(TcpConnState {
                conn: None,
                attempt: 0,
                next_connect_at: None,
            }),
        }
    }

    /// Ensures a live connection exists, reaping a dead one first.
    /// Returns `false` when the shard is unreachable *or* the reconnect
    /// backoff window has not elapsed yet.
    fn ensure_conn(&self, st: &mut TcpConnState) -> bool {
        if let Some(c) = st.conn.as_ref() {
            if !c.pending.lock().unwrap().dead {
                return true;
            }
            let c = st.conn.take().unwrap();
            // A loss-guard resubmission can re-enter from the dying
            // reader itself (its drain callbacks run on that thread);
            // joining ourselves would deadlock, so detach in that case.
            if c.reader.thread().id() != std::thread::current().id() {
                let _ = c.reader.join();
            }
        }
        if let Some(t) = st.next_connect_at {
            if Instant::now() < t {
                return false;
            }
        }
        let connected = TcpStream::connect(&self.addr)
            .ok()
            .and_then(|s| s.try_clone().ok().map(|r| (s, r)));
        let Some((stream, read_half)) = connected else {
            st.attempt += 1;
            st.next_connect_at = Some(Instant::now() + self.retry.backoff(st.attempt));
            return false;
        };
        st.attempt = 0;
        st.next_connect_at = None;
        stream.set_nodelay(true).ok();
        let pending = Arc::new(Mutex::new(TcpPending {
            map: HashMap::new(),
            dead: false,
        }));
        let reader = {
            let pending = pending.clone();
            std::thread::Builder::new()
                .name("ibcf-shard-reader".into())
                .spawn(move || {
                    let mut r = BufReader::new(read_half);
                    loop {
                        match read_frame(&mut r) {
                            Ok(Some((K_FACTOR_REPLY, body))) => {
                                let Ok(reply) = decode_factor_reply(&body) else {
                                    break;
                                };
                                let entry = pending.lock().unwrap().map.remove(&reply.id);
                                if let Some((caller_id, sink)) = entry {
                                    sink.send(FactorReply {
                                        id: caller_id,
                                        outcome: reply.outcome,
                                    });
                                }
                            }
                            Ok(Some(_)) => {} // unexpected kind: ignore
                            Ok(None) | Err(_) => break,
                        }
                    }
                    // The connection is gone: everything still in flight
                    // gets a typed shard-lost reply (resubmitting is
                    // safe — the router does it once itself). `dead`
                    // flips under the same lock, so no submitter can add
                    // an entry nobody will ever answer.
                    let drained: Vec<(u64, ReplySink)> = {
                        let mut p = pending.lock().unwrap();
                        p.dead = true;
                        p.map.drain().map(|(_, v)| v).collect()
                    };
                    for (caller_id, sink) in drained {
                        sink.send(FactorReply {
                            id: caller_id,
                            outcome: Outcome::ShardLost,
                        });
                    }
                })
                .expect("spawn shard reader")
        };
        st.conn = Some(TcpShardConn {
            stream,
            reader,
            pending,
        });
        true
    }

    /// Shared wire path for both request kinds: the frame bodies are
    /// identical, only the kind byte tells the remote shard whether to
    /// batch (former) or schedule (task-graph pool).
    fn submit_kind(
        &self,
        kind: u8,
        id: u64,
        n: usize,
        payload: Payload,
        deadline: Option<Instant>,
        sink: ReplySink,
    ) -> Result<(), SubmitRefusal> {
        if self.killed.load(Ordering::SeqCst) {
            return Err((RejectReason::ShuttingDown, payload, sink));
        }
        let mut st = self.state.lock().unwrap();
        if !self.ensure_conn(&mut st) {
            return Err((RejectReason::ShuttingDown, payload, sink));
        }
        let c = st.conn.as_mut().unwrap();
        let wire_id = self.next_wire_id.fetch_add(1, Ordering::Relaxed);
        {
            let mut p = c.pending.lock().unwrap();
            if p.dead {
                return Err((RejectReason::ShuttingDown, payload, sink));
            }
            p.map.insert(wire_id, (id, sink));
        }
        // Forward the *remaining* deadline; wire_deadline_us keeps an
        // almost-expired one from truncating to "no deadline".
        let wire_deadline =
            wire_deadline_us(deadline.map(|d| d.saturating_duration_since(Instant::now())));
        let body = encode_factor_req(wire_id, n, wire_deadline, &payload);
        let mut w = &c.stream;
        if write_frame(&mut w, kind, &body).is_err() {
            c.stream.shutdown(Shutdown::Both).ok();
            return match c.pending.lock().unwrap().map.remove(&wire_id) {
                // We still own the sink: hand everything back.
                Some((_, sink)) => Err((RejectReason::ShuttingDown, payload, sink)),
                // The reader drained it first (typed crash reply went
                // out): the request was answered, nothing to hand back.
                None => Ok(()),
            };
        }
        Ok(())
    }
}

impl ShardBackend for TcpShard {
    fn name(&self) -> &str {
        &self.name
    }

    fn try_submit(
        &self,
        id: u64,
        n: usize,
        payload: Payload,
        deadline: Option<Instant>,
        sink: ReplySink,
    ) -> Result<(), SubmitRefusal> {
        self.submit_kind(K_FACTOR_REQ, id, n, payload, deadline, sink)
    }

    fn try_submit_large(
        &self,
        id: u64,
        n: usize,
        payload: Payload,
        deadline: Option<Instant>,
        sink: ReplySink,
    ) -> Result<(), SubmitRefusal> {
        self.submit_kind(K_LARGE_REQ, id, n, payload, deadline, sink)
    }

    fn probe(&self) -> bool {
        if self.killed.load(Ordering::SeqCst) {
            return false;
        }
        let mut st = self.state.lock().unwrap();
        self.ensure_conn(&mut st)
    }

    fn load(&self) -> usize {
        self.state
            .lock()
            .unwrap()
            .conn
            .as_ref()
            .map_or(0, |c| c.pending.lock().unwrap().map.len())
    }

    fn stats(&self) -> StatsSnapshot {
        TcpConn::connect_with_timeout(&self.addr, Duration::from_secs(2))
            .and_then(|mut c| c.fetch_stats())
            .unwrap_or_default()
    }

    fn kill(&self) {
        self.killed.store(true, Ordering::SeqCst);
        if let Some(c) = self.state.lock().unwrap().conn.as_ref() {
            // Wakes the reader, which answers all in-flight requests
            // with typed shard-lost replies.
            c.stream.shutdown(Shutdown::Both).ok();
        }
    }

    fn drained(&self) -> bool {
        self.load() == 0
    }

    fn shutdown(&self) {
        self.kill();
        if let Some(c) = self.state.lock().unwrap().conn.take() {
            let _ = c.reader.join();
        }
    }

    fn can_lose_inflight(&self) -> bool {
        true
    }
}

/// How the router picks a shard for a request key `(n, dtype)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutePolicy {
    /// Rendezvous (highest-random-weight) hashing over the healthy
    /// shards: a key always lands on the same shard while that shard
    /// lives, and only the dead shard's keys move on failover — batch
    /// formers keep seeing homogeneous traffic.
    ConsistentHash,
    /// The healthy shard with the shallowest ingest queue.
    LeastLoaded,
}

impl std::str::FromStr for RoutePolicy {
    type Err = String;
    fn from_str(s: &str) -> Result<RoutePolicy, String> {
        match s {
            "hash" | "consistent-hash" => Ok(RoutePolicy::ConsistentHash),
            "least-loaded" | "load" => Ok(RoutePolicy::LeastLoaded),
            other => Err(format!(
                "unknown route policy {other} (use hash or least-loaded)"
            )),
        }
    }
}

/// Router construction parameters.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Shard selection policy.
    pub policy: RoutePolicy,
    /// Base health-probe cadence. Each slot's actual schedule adds a
    /// deterministic per-slot jitter (see [`probe_jitter`]) so N shards
    /// are never probed in lockstep.
    pub health_interval: Duration,
    /// The retry-after hint handed out when the routed shard's queue is
    /// full. Should cover roughly one former flush cycle.
    pub retry_after_us: u32,
    /// Consecutive connect/submit/probe failures before a slot's circuit
    /// breaker trips open.
    pub breaker_threshold: u32,
    /// How long an open breaker waits before half-opening for a trial
    /// probe.
    pub breaker_cooldown: Duration,
    /// When set, a submit still unanswered after this delay is hedged:
    /// duplicated to a second healthy shard, first reply wins, the
    /// loser's reply is suppressed and counted. Hedge firing is driven
    /// by the health thread, so the effective granularity is
    /// `health_interval`. `None` (the default) disables hedging.
    pub hedge_after: Option<Duration>,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            policy: RoutePolicy::ConsistentHash,
            health_interval: Duration::from_millis(10),
            retry_after_us: 1_000,
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(250),
            hedge_after: None,
        }
    }
}

/// SplitMix64 — the same mixer the fault plans use; good avalanche for
/// rendezvous weights.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// The rendezvous salt of slot `i` — fixed for the life of the fleet, so
/// a slot keeps its identity (and its keys) across health flaps.
pub fn slot_salt(i: usize) -> u64 {
    mix(0xC0FFEE ^ (i as u64) << 17)
}

/// The rendezvous key for request dimension `n` and dtype tag.
pub fn rendezvous_key(n: usize, dtype_tag: u8) -> u64 {
    mix((n as u64) << 8 | u64::from(dtype_tag))
}

/// The rendezvous (highest-random-weight) owner of key `(n, dtype_tag)`
/// among the slots whose `healthy[i]` is set: the pure core of
/// [`RoutePolicy::ConsistentHash`], exposed so property tests can check
/// stability under shard-set churn without standing up a fleet.
pub fn rendezvous_owner(n: usize, dtype_tag: u8, salts: &[u64], healthy: &[bool]) -> Option<usize> {
    let key = rendezvous_key(n, dtype_tag);
    (0..salts.len())
        .filter(|&i| *healthy.get(i).unwrap_or(&false))
        .max_by_key(|&i| (mix(key ^ salts[i]), std::cmp::Reverse(i)))
}

/// Deterministic per-slot probe jitter for health round `round`: a value
/// in `[0, interval)` derived from the slot's rendezvous salt, so two
/// slots' probe schedules de-correlate while each slot's own schedule
/// stays reproducible.
pub fn probe_jitter(salt: u64, round: u64, interval: Duration) -> Duration {
    let span = interval.as_nanos().max(1) as u64;
    Duration::from_nanos(mix(salt ^ round.wrapping_mul(0x9E3779B97F4A7C15)) % span)
}

/// Circuit-breaker states (packed into an `AtomicU8`).
const BREAKER_CLOSED: u8 = 0;
const BREAKER_OPEN: u8 = 1;
const BREAKER_HALF_OPEN: u8 = 2;

/// Per-slot circuit breaker: trips open after K consecutive failures,
/// half-opens after a cooldown, and closes again on a successful trial.
/// All transitions happen under the `opened_at` mutex so concurrent
/// submit failures and health rounds cannot double-count a trip.
struct Breaker {
    state: AtomicU8,
    consecutive_failures: AtomicU32,
    trips: AtomicU64,
    opened_at: Mutex<Option<Instant>>,
}

impl Breaker {
    fn new() -> Breaker {
        Breaker {
            state: AtomicU8::new(BREAKER_CLOSED),
            consecutive_failures: AtomicU32::new(0),
            trips: AtomicU64::new(0),
            opened_at: Mutex::new(None),
        }
    }

    fn is_open(&self) -> bool {
        self.state.load(Ordering::SeqCst) == BREAKER_OPEN
    }

    fn state_name(&self) -> &'static str {
        match self.state.load(Ordering::SeqCst) {
            BREAKER_OPEN => "open",
            BREAKER_HALF_OPEN => "half-open",
            _ => "closed",
        }
    }

    /// Records a successful probe/submit. Returns `true` when this
    /// closed a half-open breaker (the shard is readmitted).
    fn record_success(&self) -> bool {
        self.consecutive_failures.store(0, Ordering::SeqCst);
        let mut opened = self.opened_at.lock().unwrap();
        if self.state.load(Ordering::SeqCst) == BREAKER_HALF_OPEN {
            self.state.store(BREAKER_CLOSED, Ordering::SeqCst);
            *opened = None;
            return true;
        }
        false
    }

    /// Records a failed probe/submit. Returns `true` when this tripped
    /// the breaker open (from closed past the threshold, or a failed
    /// half-open trial falling straight back open).
    fn record_failure(&self, threshold: u32) -> bool {
        let fails = self.consecutive_failures.fetch_add(1, Ordering::SeqCst) + 1;
        let mut opened = self.opened_at.lock().unwrap();
        let tripped = match self.state.load(Ordering::SeqCst) {
            BREAKER_HALF_OPEN => true,
            BREAKER_CLOSED => fails >= threshold.max(1),
            _ => false,
        };
        if tripped {
            self.state.store(BREAKER_OPEN, Ordering::SeqCst);
            *opened = Some(Instant::now());
            self.trips.fetch_add(1, Ordering::SeqCst);
        }
        tripped
    }

    /// Moves an open breaker whose cooldown has elapsed to half-open.
    /// Returns `true` on the transition.
    fn try_half_open(&self, cooldown: Duration) -> bool {
        let mut opened = self.opened_at.lock().unwrap();
        if self.state.load(Ordering::SeqCst) == BREAKER_OPEN
            && opened.is_some_and(|t| t.elapsed() >= cooldown)
        {
            self.state.store(BREAKER_HALF_OPEN, Ordering::SeqCst);
            *opened = None;
            return true;
        }
        false
    }

    fn stat(&self) -> BreakerStat {
        BreakerStat {
            state: self.state_name().to_string(),
            trips: self.trips.load(Ordering::SeqCst),
        }
    }
}

struct ShardSlot {
    backend: Arc<dyn ShardBackend>,
    healthy: AtomicBool,
    /// Requests the router handed this shard.
    routed: AtomicU64,
    /// Rendezvous salt (fixed per slot).
    salt: u64,
    breaker: Breaker,
    /// Next scheduled health probe (jittered per slot).
    next_probe: Mutex<Instant>,
}

/// A reply destination shared between a primary submit and its hedge
/// copy: whichever reply arrives first takes the sink; the loser finds
/// it gone and is counted as a suppressed duplicate. Exactly-one-reply
/// holds because `take` is atomic under the mutex.
struct SharedSink {
    inner: Mutex<Option<ReplySink>>,
}

impl SharedSink {
    fn new(sink: ReplySink) -> SharedSink {
        SharedSink {
            inner: Mutex::new(Some(sink)),
        }
    }

    fn take(&self) -> Option<ReplySink> {
        self.inner.lock().unwrap().take()
    }

    fn is_taken(&self) -> bool {
        self.inner.lock().unwrap().is_none()
    }
}

/// A hedge armed at submit time: if the shared sink is still untaken at
/// `fire_at`, the health thread duplicates the request to a shard other
/// than `primary`.
struct HedgeEntry {
    fire_at: Instant,
    id: u64,
    n: usize,
    payload: Payload,
    deadline: Option<Instant>,
    large: bool,
    shared: Arc<SharedSink>,
    primary: usize,
}

struct RouterCore {
    slots: Vec<ShardSlot>,
    policy: RoutePolicy,
    retry_after_us: u32,
    breaker_threshold: u32,
    breaker_cooldown: Duration,
    health_interval: Duration,
    hedge_after: Option<Duration>,
    stop: AtomicBool,
    /// Health rounds completed (drives the per-slot probe jitter).
    rounds: AtomicU64,
    /// Router-level rejections (delivered by the router itself, so no
    /// shard counted them).
    rejected: AtomicU64,
    /// Subset of `rejected` that were backpressure hints.
    backpressured: AtomicU64,
    /// Submissions that had to skip a refusing shard.
    failovers: AtomicU64,
    /// Hedge copies dispatched to a second shard.
    hedges: AtomicU64,
    /// Duplicate replies suppressed at a shared sink.
    hedge_wasted: AtomicU64,
    /// In-flight `ShardLost` replies transparently resubmitted.
    shard_lost_resubmits: AtomicU64,
    /// Breaker transitions open → half-open.
    breaker_half_opens: AtomicU64,
    /// Breaker transitions half-open → closed.
    breaker_closes: AtomicU64,
    /// Hedges armed but not yet fired.
    hedge_queue: Mutex<Vec<HedgeEntry>>,
}

impl RouterCore {
    /// Healthy slot indices ranked by the active policy for key
    /// `(n, dtype)`.
    fn pick_order(&self, n: usize, dtype_tag: u8) -> Vec<usize> {
        let mut healthy: Vec<usize> = (0..self.slots.len())
            .filter(|&i| self.slots[i].healthy.load(Ordering::SeqCst))
            .collect();
        match self.policy {
            RoutePolicy::ConsistentHash => {
                let key = rendezvous_key(n, dtype_tag);
                healthy.sort_by_key(|&i| std::cmp::Reverse(mix(key ^ self.slots[i].salt)));
            }
            RoutePolicy::LeastLoaded => {
                healthy.sort_by_key(|&i| (self.slots[i].backend.load(), i));
            }
        }
        healthy
    }

    fn submit(
        self: &Arc<Self>,
        id: u64,
        n: usize,
        payload: Payload,
        deadline: Option<Instant>,
        sink: ReplySink,
    ) {
        self.submit_inner(id, n, payload, deadline, sink, false, true);
    }

    /// Routes a large request: same shard selection, failover, and
    /// backpressure discipline as [`RouterCore::submit`], but admission
    /// goes through [`ShardBackend::try_submit_large`] so the owning
    /// shard schedules the matrix on its task-graph pool.
    fn submit_large(
        self: &Arc<Self>,
        id: u64,
        n: usize,
        payload: Payload,
        deadline: Option<Instant>,
        sink: ReplySink,
    ) {
        self.submit_inner(id, n, payload, deadline, sink, true, true);
    }

    /// The routing loop. `fresh` is true for a caller-originated submit
    /// (which may arm a hedge and a loss guard) and false for the
    /// router's own recovery traffic — a `ShardLost` resubmission or a
    /// hedge copy must not recursively arm further recovery, which is
    /// what bounds the failover to exactly one resubmit.
    #[allow(clippy::too_many_arguments)]
    fn submit_inner(
        self: &Arc<Self>,
        id: u64,
        n: usize,
        payload: Payload,
        deadline: Option<Instant>,
        sink: ReplySink,
        large: bool,
        fresh: bool,
    ) {
        let reject = |sink: ReplySink, reason: RejectReason| {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            sink.send(FactorReply {
                id,
                outcome: Outcome::Rejected(reason),
            });
        };
        let order = self.pick_order(n, payload.dtype().to_u8());
        let mut payload = payload;
        let mut sink = sink;
        // Hedging: move the caller's sink behind a shared take-once cell
        // so the primary and a later hedge copy race to exactly one
        // delivery. Armed only for fresh submits with a second shard to
        // hedge to.
        let hedge_shared = match (fresh, self.hedge_after, order.len() >= 2) {
            (true, Some(_), true) => {
                let shared = Arc::new(SharedSink::new(sink));
                let core = self.clone();
                let s = shared.clone();
                sink = ReplySink::boxed(move |reply| match s.take() {
                    Some(inner) => inner.send(reply),
                    None => {
                        core.hedge_wasted.fetch_add(1, Ordering::Relaxed);
                    }
                });
                Some(shared)
            }
            _ => None,
        };
        // In-flight failover: on a fleet where an admitted request can
        // die with its shard, intercept the first `ShardLost` and
        // resubmit it once. Costs one payload clone per fresh request.
        // `admitted_to` records which slot holds the request so the
        // guard can mark the loser unroutable *before* resubmitting —
        // otherwise the resubmission races the health round and can
        // land straight back on the dying shard.
        let mut admitted_to = None;
        if fresh
            && order
                .iter()
                .any(|&i| self.slots[i].backend.can_lose_inflight())
        {
            let slot_cell = Arc::new(AtomicU64::new(u64::MAX));
            admitted_to = Some(slot_cell.clone());
            let core = self.clone();
            let retry_payload = payload.clone();
            let inner = sink;
            sink = ReplySink::boxed(move |reply| {
                if matches!(reply.outcome, Outcome::ShardLost) {
                    let lost = slot_cell.load(Ordering::SeqCst);
                    if let Some(slot) = core.slots.get(lost as usize) {
                        slot.healthy.store(false, Ordering::SeqCst);
                        slot.breaker.record_failure(core.breaker_threshold);
                    }
                    core.shard_lost_resubmits.fetch_add(1, Ordering::Relaxed);
                    core.submit_inner(id, n, retry_payload, deadline, inner, large, false);
                } else {
                    inner.send(reply);
                }
            });
        }
        let hedge_payload = hedge_shared.as_ref().map(|_| payload.clone());
        for (attempt, &i) in order.iter().enumerate() {
            if attempt > 0 {
                self.failovers.fetch_add(1, Ordering::Relaxed);
            }
            let slot = &self.slots[i];
            // Record the candidate before handing the sink over: once
            // admitted, the reader thread may fire `ShardLost` at any
            // moment and the guard must know whom to blame.
            if let Some(cell) = &admitted_to {
                cell.store(i as u64, Ordering::SeqCst);
            }
            let admitted = if large {
                slot.backend
                    .try_submit_large(id, n, payload, deadline, sink)
            } else {
                slot.backend.try_submit(id, n, payload, deadline, sink)
            };
            match admitted {
                Ok(()) => {
                    slot.routed.fetch_add(1, Ordering::Relaxed);
                    if slot.breaker.record_success() {
                        self.breaker_closes.fetch_add(1, Ordering::Relaxed);
                    }
                    if let (Some(shared), Some(hp), Some(delay)) =
                        (hedge_shared, hedge_payload, self.hedge_after)
                    {
                        self.hedge_queue.lock().unwrap().push(HedgeEntry {
                            fire_at: Instant::now() + delay,
                            id,
                            n,
                            payload: hp,
                            deadline,
                            large,
                            shared,
                            primary: i,
                        });
                    }
                    return;
                }
                Err((RejectReason::QueueFull, _, s)) => {
                    // The shard this key belongs on is at capacity.
                    // Spilling to a colder shard would wreck its former's
                    // homogeneity and hide the hotspot, and blocking
                    // would stall every connection behind this one — so
                    // shed with a typed retry-after hint instead.
                    self.backpressured.fetch_add(1, Ordering::Relaxed);
                    return reject(
                        s,
                        RejectReason::Backpressure {
                            retry_after_us: self.retry_after_us,
                        },
                    );
                }
                Err((RejectReason::ShuttingDown, p, s)) => {
                    // The shard died between the health round and now:
                    // mark it unroutable, feed its breaker, fail over.
                    slot.healthy.store(false, Ordering::SeqCst);
                    slot.breaker.record_failure(self.breaker_threshold);
                    payload = p;
                    sink = s;
                }
                Err((reason, _, s)) => {
                    // BadDimension / BadPayload / DeadlineExceeded: the
                    // request itself is at fault, no shard can help.
                    return reject(s, reason);
                }
            }
        }
        // No healthy shard accepted. A recovery resubmission that finds
        // nowhere to go surfaces the loss itself rather than masking it
        // as a shutdown.
        if fresh {
            reject(sink, RejectReason::ShuttingDown);
        } else {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            sink.send(FactorReply {
                id,
                outcome: Outcome::ShardLost,
            });
        }
    }

    /// Fires every armed hedge whose delay elapsed and whose primary has
    /// not answered yet: the copy goes to a healthy shard other than the
    /// primary, sharing the primary's take-once sink.
    fn fire_due_hedges(self: &Arc<Self>) {
        let due: Vec<HedgeEntry> = {
            let mut q = self.hedge_queue.lock().unwrap();
            let now = Instant::now();
            // Answered entries are dropped unfired; due ones are pulled.
            q.retain(|e| !e.shared.is_taken());
            let (fire, keep) = std::mem::take(&mut *q)
                .into_iter()
                .partition(|e| e.fire_at <= now);
            *q = keep;
            fire
        };
        for e in due {
            let Some(&alt) = self
                .pick_order(e.n, e.payload.dtype().to_u8())
                .iter()
                .find(|&&i| i != e.primary)
            else {
                continue;
            };
            let core = self.clone();
            let shared = e.shared.clone();
            // The hedge copy never triggers recovery: a lost or refused
            // copy is simply dropped (the primary still owns delivery),
            // and any real outcome races for the shared sink.
            let sink = ReplySink::boxed(move |reply| {
                if matches!(reply.outcome, Outcome::ShardLost) {
                    return;
                }
                match shared.take() {
                    Some(inner) => inner.send(reply),
                    None => {
                        core.hedge_wasted.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
            let slot = &self.slots[alt];
            let admitted = if e.large {
                slot.backend
                    .try_submit_large(e.id, e.n, e.payload, e.deadline, sink)
            } else {
                slot.backend
                    .try_submit(e.id, e.n, e.payload, e.deadline, sink)
            };
            if admitted.is_ok() {
                slot.routed.fetch_add(1, Ordering::Relaxed);
                self.hedges.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// One health round: drive breaker cooldowns, re-probe every slot
    /// whose jittered schedule is due, and fire due hedges.
    fn health_round(self: &Arc<Self>) {
        let round = self.rounds.fetch_add(1, Ordering::Relaxed);
        for slot in &self.slots {
            if slot.breaker.try_half_open(self.breaker_cooldown) {
                self.breaker_half_opens.fetch_add(1, Ordering::Relaxed);
            }
            if slot.breaker.is_open() {
                // An open breaker keeps the slot out of the routing set
                // and is *not* probed — that is the point of tripping.
                slot.healthy.store(false, Ordering::SeqCst);
                continue;
            }
            let now = Instant::now();
            let due = *slot.next_probe.lock().unwrap() <= now;
            if !due {
                continue;
            }
            let up = slot.backend.probe();
            if up {
                if slot.breaker.record_success() {
                    self.breaker_closes.fetch_add(1, Ordering::Relaxed);
                }
            } else {
                slot.breaker.record_failure(self.breaker_threshold);
            }
            slot.healthy
                .store(up && !slot.breaker.is_open(), Ordering::SeqCst);
            *slot.next_probe.lock().unwrap() =
                now + self.health_interval + probe_jitter(slot.salt, round, self.health_interval);
        }
        self.fire_due_hedges();
    }

    fn fleet_stat(&self) -> FleetStat {
        FleetStat {
            hedges: self.hedges.load(Ordering::Relaxed),
            hedge_wasted: self.hedge_wasted.load(Ordering::Relaxed),
            shard_lost_resubmits: self.shard_lost_resubmits.load(Ordering::Relaxed),
            breaker_trips: self
                .slots
                .iter()
                .map(|s| s.breaker.trips.load(Ordering::SeqCst))
                .sum(),
            breaker_half_opens: self.breaker_half_opens.load(Ordering::Relaxed),
            breaker_closes: self.breaker_closes.load(Ordering::Relaxed),
        }
    }

    fn fleet_snapshot(&self) -> StatsSnapshot {
        let shards: Vec<ShardStat> = self
            .slots
            .iter()
            .map(|slot| ShardStat {
                name: slot.backend.name().to_string(),
                healthy: slot.healthy.load(Ordering::SeqCst),
                routed: slot.routed.load(Ordering::Relaxed),
                breaker: Some(slot.breaker.stat()),
                snapshot: slot.backend.stats(),
            })
            .collect();
        let mut fleet = shards
            .iter()
            .fold(StatsSnapshot::default(), |acc, s| acc.merge(&s.snapshot));
        // Rejections the router delivered itself (backpressure, no
        // healthy shard) were never seen by any shard.
        fleet.rejected += self.rejected.load(Ordering::Relaxed);
        fleet.shards = Some(shards);
        fleet.fleet = Some(self.fleet_stat());
        fleet
    }
}

/// The shard tier's front door. Owns the health thread; hand
/// [`Router::client`] to the TCP server (it implements [`Frontend`]).
pub struct Router {
    core: Arc<RouterCore>,
    health: Option<JoinHandle<()>>,
}

impl Router {
    /// Starts a router over `shards` with the given config. The health
    /// thread probes every shard each `health_interval`.
    pub fn start(shards: Vec<Arc<dyn ShardBackend>>, cfg: RouterConfig) -> Router {
        assert!(!shards.is_empty(), "router needs at least one shard");
        let slots: Vec<ShardSlot> = shards
            .into_iter()
            .enumerate()
            .map(|(i, backend)| ShardSlot {
                healthy: AtomicBool::new(backend.probe()),
                routed: AtomicU64::new(0),
                salt: slot_salt(i),
                breaker: Breaker::new(),
                next_probe: Mutex::new(Instant::now()),
                backend,
            })
            .collect();
        let core = Arc::new(RouterCore {
            slots,
            policy: cfg.policy,
            retry_after_us: cfg.retry_after_us,
            breaker_threshold: cfg.breaker_threshold,
            breaker_cooldown: cfg.breaker_cooldown,
            health_interval: cfg.health_interval,
            hedge_after: cfg.hedge_after,
            stop: AtomicBool::new(false),
            rounds: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            backpressured: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            hedges: AtomicU64::new(0),
            hedge_wasted: AtomicU64::new(0),
            shard_lost_resubmits: AtomicU64::new(0),
            breaker_half_opens: AtomicU64::new(0),
            breaker_closes: AtomicU64::new(0),
            hedge_queue: Mutex::new(Vec::new()),
        });
        let health = {
            let core = core.clone();
            let interval = cfg.health_interval;
            std::thread::Builder::new()
                .name("ibcf-router-health".into())
                .spawn(move || {
                    while !core.stop.load(Ordering::SeqCst) {
                        core.health_round();
                        std::thread::sleep(interval);
                    }
                })
                .expect("spawn router health thread")
        };
        Router {
            core,
            health: Some(health),
        }
    }

    /// A cheap, cloneable submission handle (the [`Frontend`] the TCP
    /// server runs on).
    pub fn client(&self) -> RouterClient {
        RouterClient {
            core: self.core.clone(),
        }
    }

    /// Submissions that skipped at least one refusing shard.
    pub fn failovers(&self) -> u64 {
        self.core.failovers.load(Ordering::Relaxed)
    }

    /// Backpressure rejections the router handed out.
    pub fn backpressured(&self) -> u64 {
        self.core.backpressured.load(Ordering::Relaxed)
    }

    /// Stops the health thread, drains and shuts every shard down, and
    /// returns the final fleet snapshot (per-shard breakdown attached).
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.core.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.health.take() {
            let _ = h.join();
        }
        for slot in &self.core.slots {
            slot.backend.kill();
        }
        let t0 = Instant::now();
        while !self.core.slots.iter().all(|s| s.backend.drained())
            && t0.elapsed() < Duration::from_secs(30)
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        for slot in &self.core.slots {
            slot.backend.shutdown();
        }
        self.core.fleet_snapshot()
    }
}

/// Cloneable handle routing submissions across the fleet; the router's
/// [`Frontend`] implementation.
#[derive(Clone)]
pub struct RouterClient {
    core: Arc<RouterCore>,
}

impl RouterClient {
    /// Routes one request; the reply arrives through `sink` exactly once
    /// (inline for rejections and backpressure).
    pub fn submit_sink(
        &self,
        id: u64,
        n: usize,
        payload: Payload,
        deadline: Option<Instant>,
        sink: ReplySink,
    ) {
        self.core.submit(id, n, payload, deadline, sink);
    }

    /// Routes one *large* request onto a shard's task-graph pool; same
    /// exactly-once sink contract as [`RouterClient::submit_sink`].
    pub fn submit_large_sink(
        &self,
        id: u64,
        n: usize,
        payload: Payload,
        deadline: Option<Instant>,
        sink: ReplySink,
    ) {
        self.core.submit_large(id, n, payload, deadline, sink);
    }

    /// Fleet-merged counters with the per-shard breakdown attached.
    pub fn stats(&self) -> StatsSnapshot {
        self.core.fleet_snapshot()
    }

    /// Stops admission fleet-wide; queued work keeps draining.
    pub fn begin_drain(&self) {
        for slot in &self.core.slots {
            slot.healthy.store(false, Ordering::SeqCst);
            slot.backend.kill();
        }
    }

    /// `true` once every shard answered everything it admitted.
    pub fn drained(&self) -> bool {
        self.core.slots.iter().all(|s| s.backend.drained())
    }
}

impl Frontend for RouterClient {
    fn submit_sink(
        &self,
        id: u64,
        n: usize,
        payload: Payload,
        deadline: Option<Instant>,
        sink: ReplySink,
        _blocking: bool,
    ) {
        // The router never blocks: a full shard queue is a typed
        // backpressure reject, whatever the caller asked for.
        RouterClient::submit_sink(self, id, n, payload, deadline, sink);
    }

    fn submit_large_sink(
        &self,
        id: u64,
        n: usize,
        payload: Payload,
        deadline: Option<Instant>,
        sink: ReplySink,
    ) {
        RouterClient::submit_large_sink(self, id, n, payload, deadline, sink);
    }

    fn stats(&self) -> StatsSnapshot {
        RouterClient::stats(self)
    }

    fn begin_drain(&self) {
        RouterClient::begin_drain(self);
    }

    fn drained(&self) -> bool {
        RouterClient::drained(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineSelector;
    use crate::service::ServiceConfig;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;

    /// A scripted backend: refuses with a fixed reason, or accepts and
    /// echoes the payload back as a factor. Can also be scripted to
    /// *lose* the next accepted request (typed `ShardLost`, like a
    /// process death) or to *hold* accepted sinks unanswered (a
    /// straggler, for hedging tests).
    struct TestBackend {
        name: String,
        refuse: Mutex<Option<RejectReason>>,
        accepted: Mutex<Vec<u64>>,
        load: AtomicUsize,
        can_lose: AtomicBool,
        lose_next: AtomicBool,
        hold: AtomicBool,
        held: Mutex<Vec<(u64, Payload, ReplySink)>>,
    }

    impl TestBackend {
        fn new(name: &str) -> Arc<TestBackend> {
            Arc::new(TestBackend {
                name: name.to_string(),
                refuse: Mutex::new(None),
                accepted: Mutex::new(Vec::new()),
                load: AtomicUsize::new(0),
                can_lose: AtomicBool::new(false),
                lose_next: AtomicBool::new(false),
                hold: AtomicBool::new(false),
                held: Mutex::new(Vec::new()),
            })
        }

        fn refuse_with(&self, reason: Option<RejectReason>) {
            *self.refuse.lock().unwrap() = reason;
        }

        fn accepted_ids(&self) -> Vec<u64> {
            self.accepted.lock().unwrap().clone()
        }

        /// Answers every held request with its factor.
        fn release_held(&self) {
            for (id, payload, sink) in self.held.lock().unwrap().drain(..) {
                sink.send(FactorReply {
                    id,
                    outcome: Outcome::Factor(payload),
                });
            }
        }
    }

    impl ShardBackend for TestBackend {
        fn name(&self) -> &str {
            &self.name
        }

        fn try_submit(
            &self,
            id: u64,
            n: usize,
            payload: Payload,
            _deadline: Option<Instant>,
            sink: ReplySink,
        ) -> Result<(), SubmitRefusal> {
            let _ = n;
            if let Some(reason) = *self.refuse.lock().unwrap() {
                return Err((reason, payload, sink));
            }
            self.accepted.lock().unwrap().push(id);
            if self.lose_next.swap(false, Ordering::SeqCst) {
                // The process died with the request in flight: the
                // pending map answers ShardLost and the connection
                // refuses from now on.
                self.refuse_with(Some(RejectReason::ShuttingDown));
                sink.send(FactorReply {
                    id,
                    outcome: Outcome::ShardLost,
                });
                return Ok(());
            }
            if self.hold.load(Ordering::SeqCst) {
                self.held.lock().unwrap().push((id, payload, sink));
                return Ok(());
            }
            sink.send(FactorReply {
                id,
                outcome: Outcome::Factor(payload),
            });
            Ok(())
        }

        fn try_submit_large(
            &self,
            id: u64,
            n: usize,
            payload: Payload,
            deadline: Option<Instant>,
            sink: ReplySink,
        ) -> Result<(), SubmitRefusal> {
            self.try_submit(id, n, payload, deadline, sink)
        }

        fn probe(&self) -> bool {
            !matches!(
                *self.refuse.lock().unwrap(),
                Some(RejectReason::ShuttingDown)
            )
        }

        fn load(&self) -> usize {
            self.load.load(Ordering::Relaxed)
        }

        fn stats(&self) -> StatsSnapshot {
            StatsSnapshot {
                requests: self.accepted.lock().unwrap().len() as u64,
                ..StatsSnapshot::default()
            }
        }

        fn kill(&self) {
            self.refuse_with(Some(RejectReason::ShuttingDown));
        }

        fn drained(&self) -> bool {
            true
        }

        fn shutdown(&self) {}

        fn can_lose_inflight(&self) -> bool {
            self.can_lose.load(Ordering::SeqCst)
        }
    }

    fn fakes(n: usize) -> Vec<Arc<TestBackend>> {
        (0..n).map(|i| TestBackend::new(&format!("s{i}"))).collect()
    }

    fn as_backends(f: &[Arc<TestBackend>]) -> Vec<Arc<dyn ShardBackend>> {
        f.iter()
            .map(|b| b.clone() as Arc<dyn ShardBackend>)
            .collect()
    }

    fn call(client: &RouterClient, id: u64, n: usize) -> FactorReply {
        let (tx, rx) = mpsc::sync_channel(1);
        client.submit_sink(
            id,
            n,
            Payload::F32(vec![1.0; n * n]),
            None,
            ReplySink::boxed(move |r| drop(tx.send(r))),
        );
        rx.recv().expect("sink never invoked")
    }

    #[test]
    fn rendezvous_routing_is_stable_and_spreads_keys() {
        let f = fakes(4);
        let router = Router::start(as_backends(&f), RouterConfig::default());
        let client = router.client();
        // Same key, many submissions: all land on one shard.
        for id in 0..32 {
            assert!(call(&client, id, 8).outcome.is_ok());
        }
        let owners: Vec<usize> = (0..4).map(|i| f[i].accepted_ids().len()).collect();
        assert_eq!(
            owners.iter().filter(|&&c| c > 0).count(),
            1,
            "one key must map to exactly one shard, got {owners:?}"
        );
        // Many distinct keys: more than one shard sees traffic.
        for (id, n) in (1..=32usize).enumerate() {
            assert!(call(&client, 100 + id as u64, n).outcome.is_ok());
        }
        let spread = (0..4).filter(|&i| !f[i].accepted_ids().is_empty()).count();
        assert!(spread > 1, "32 keys all hashed to one of 4 shards");
        router.shutdown();
    }

    #[test]
    fn failover_reroutes_live_traffic_off_a_dead_shard() {
        let f = fakes(3);
        let router = Router::start(as_backends(&f), RouterConfig::default());
        let client = router.client();
        assert!(call(&client, 1, 6).outcome.is_ok());
        let owner = (0..3)
            .position(|i| !f[i].accepted_ids().is_empty())
            .unwrap();
        // The owner dies without the health thread noticing yet: the
        // submit path itself must fail over.
        f[owner].kill();
        let reply = call(&client, 2, 6);
        assert!(reply.outcome.is_ok(), "failover failed: {reply:?}");
        assert_eq!(router.failovers(), 1);
        let new_owner = (0..3)
            .position(|i| i != owner && !f[i].accepted_ids().is_empty())
            .expect("no other shard accepted the rerouted request");
        // The rerouted key sticks to its new shard on the next submit.
        assert!(call(&client, 3, 6).outcome.is_ok());
        assert_eq!(f[new_owner].accepted_ids(), vec![2, 3]);
        // All shards dead: a typed ShuttingDown, not a hang.
        for b in &f {
            b.kill();
        }
        let reply = call(&client, 4, 6);
        assert_eq!(reply.outcome, Outcome::Rejected(RejectReason::ShuttingDown));
        router.shutdown();
    }

    fn call_large(client: &RouterClient, id: u64, n: usize) -> FactorReply {
        let (tx, rx) = mpsc::sync_channel(1);
        client.submit_large_sink(
            id,
            n,
            Payload::F32(vec![1.0; n * n]),
            None,
            ReplySink::boxed(move |r| drop(tx.send(r))),
        );
        rx.recv().expect("large sink never invoked")
    }

    #[test]
    fn large_requests_route_and_fail_over_like_small_ones() {
        let f = fakes(3);
        let router = Router::start(as_backends(&f), RouterConfig::default());
        let client = router.client();
        assert!(call_large(&client, 1, 96).outcome.is_ok());
        let owner = (0..3)
            .position(|i| !f[i].accepted_ids().is_empty())
            .unwrap();
        // The owner dies between health rounds: the large submit path
        // must fail over exactly like the batched one.
        f[owner].kill();
        let reply = call_large(&client, 2, 96);
        assert!(reply.outcome.is_ok(), "large failover failed: {reply:?}");
        assert_eq!(router.failovers(), 1);
        // A large key sticks to one shard (rendezvous), same as small.
        assert!(call_large(&client, 3, 96).outcome.is_ok());
        let new_owner = (0..3)
            .position(|i| i != owner && !f[i].accepted_ids().is_empty())
            .expect("no other shard accepted the rerouted large request");
        assert_eq!(f[new_owner].accepted_ids(), vec![2, 3]);
        router.shutdown();
    }

    #[test]
    fn full_queue_is_typed_backpressure_not_spill_or_block() {
        let f = fakes(2);
        let cfg = RouterConfig {
            retry_after_us: 777,
            ..RouterConfig::default()
        };
        let router = Router::start(as_backends(&f), cfg);
        let client = router.client();
        assert!(call(&client, 1, 5).outcome.is_ok());
        let owner = (0..2)
            .position(|i| !f[i].accepted_ids().is_empty())
            .unwrap();
        f[owner].refuse_with(Some(RejectReason::QueueFull));
        let reply = call(&client, 2, 5);
        assert_eq!(
            reply.outcome,
            Outcome::Rejected(RejectReason::Backpressure {
                retry_after_us: 777
            }),
            "full queue must surface as a typed retry-after hint"
        );
        // No spill: the other shard saw nothing.
        assert!(f[1 - owner].accepted_ids().is_empty());
        assert_eq!(router.backpressured(), 1);
        assert_eq!(router.failovers(), 0);
        router.shutdown();
    }

    #[test]
    fn malformed_requests_reject_typed_without_failover() {
        let f = fakes(2);
        let router = Router::start(as_backends(&f), RouterConfig::default());
        let client = router.client();
        assert!(call(&client, 1, 4).outcome.is_ok());
        let owner = (0..2)
            .position(|i| !f[i].accepted_ids().is_empty())
            .unwrap();
        f[owner].refuse_with(Some(RejectReason::BadDimension));
        let reply = call(&client, 2, 4);
        assert_eq!(reply.outcome, Outcome::Rejected(RejectReason::BadDimension));
        assert_eq!(router.failovers(), 0, "a bad request must not shard-hop");
        router.shutdown();
    }

    #[test]
    fn least_loaded_picks_the_shallowest_queue() {
        let f = fakes(2);
        let cfg = RouterConfig {
            policy: RoutePolicy::LeastLoaded,
            ..RouterConfig::default()
        };
        let router = Router::start(as_backends(&f), cfg);
        let client = router.client();
        f[0].load.store(5, Ordering::Relaxed);
        assert!(call(&client, 1, 4).outcome.is_ok());
        assert_eq!(f[1].accepted_ids(), vec![1]);
        f[0].load.store(0, Ordering::Relaxed);
        f[1].load.store(9, Ordering::Relaxed);
        assert!(call(&client, 2, 4).outcome.is_ok());
        assert_eq!(f[0].accepted_ids(), vec![2]);
        router.shutdown();
    }

    #[test]
    fn fleet_stats_merge_shards_and_count_router_rejects() {
        let f = fakes(2);
        let cfg = RouterConfig {
            retry_after_us: 50,
            ..RouterConfig::default()
        };
        let router = Router::start(as_backends(&f), cfg);
        let client = router.client();
        for id in 0..6 {
            // Distinct n per id so both shards likely see traffic.
            assert!(call(&client, id, 2 + id as usize).outcome.is_ok());
        }
        f[0].refuse_with(Some(RejectReason::QueueFull));
        f[1].refuse_with(Some(RejectReason::QueueFull));
        let r = call(&client, 99, 3);
        assert!(matches!(
            r.outcome,
            Outcome::Rejected(RejectReason::Backpressure { .. })
        ));
        let snap = Frontend::stats(&client);
        assert_eq!(snap.requests, 6, "fleet requests = sum of shards");
        assert_eq!(snap.rejected, 1, "router-level rejects count in fleet");
        let shards = snap.shards.expect("fleet snapshot carries shard list");
        assert_eq!(shards.len(), 2);
        assert_eq!(shards.iter().map(|s| s.routed).sum::<u64>(), 6);
        assert_eq!(shards.iter().map(|s| s.snapshot.requests).sum::<u64>(), 6);
        router.shutdown();
    }

    /// End-to-end over real in-process services: route, stop admission
    /// on one shard mid-stream, and require every request to get exactly
    /// one reply.
    #[test]
    fn in_process_fleet_survives_a_draining_shard_end_to_end() {
        let shards: Vec<Arc<dyn ShardBackend>> = (0..3)
            .map(|i| {
                let service = Service::start(
                    ServiceConfig {
                        max_delay: Duration::from_micros(200),
                        ..ServiceConfig::default()
                    },
                    EngineSelector::heuristic(),
                );
                Arc::new(InProcessShard::new(format!("shard-{i}"), service))
                    as Arc<dyn ShardBackend>
            })
            .collect();
        let router = Router::start(shards, RouterConfig::default());
        let client = router.client();
        let (tx, rx) = mpsc::channel::<FactorReply>();
        let total = 120u64;
        for id in 0..total {
            // Cycle a few sizes so rendezvous spreads the keys.
            let n = 2 + (id % 4) as usize;
            let mut a = vec![0.0f32; n * n];
            for d in 0..n {
                a[d * n + d] = 4.0;
            }
            let tx = tx.clone();
            client.submit_sink(
                id,
                n,
                Payload::F32(a),
                None,
                ReplySink::boxed(move |r| drop(tx.send(r))),
            );
            if id == total / 2 {
                // Stop admission on one shard mid-stream: its admitted
                // work drains, new traffic fails over.
                router.core.slots[0].backend.kill();
            }
        }
        drop(tx);
        let mut ids: Vec<u64> = rx.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        assert_eq!(
            ids,
            (0..total).collect::<Vec<_>>(),
            "exactly one reply per request, even across a draining shard"
        );
        let snap = router.shutdown();
        let shards = snap.shards.expect("fleet snapshot has shard breakdown");
        assert_eq!(shards.len(), 3);
        assert_eq!(shards.iter().map(|s| s.routed).sum::<u64>(), total);
    }

    #[test]
    fn probe_jitter_decorrelates_slots_and_stays_in_range() {
        let interval = Duration::from_millis(10);
        let (s0, s1) = (slot_salt(0), slot_salt(1));
        let rounds = 100u64;
        let mut differing = 0;
        let mut distinct0 = std::collections::HashSet::new();
        for round in 0..rounds {
            let j0 = probe_jitter(s0, round, interval);
            let j1 = probe_jitter(s1, round, interval);
            assert!(
                j0 < interval && j1 < interval,
                "jitter must stay in [0, interval)"
            );
            // Deterministic: the same (salt, round) always jitters the same.
            assert_eq!(j0, probe_jitter(s0, round, interval));
            if j0 != j1 {
                differing += 1;
            }
            distinct0.insert(j0);
        }
        assert!(
            differing >= rounds * 9 / 10,
            "two slots' probe schedules stayed in lockstep ({differing}/{rounds} rounds differ)"
        );
        assert!(
            distinct0.len() > 1,
            "a slot's own schedule must vary across rounds"
        );
    }

    #[test]
    fn shard_lost_in_flight_is_resubmitted_exactly_once() {
        let f = fakes(2);
        for b in &f {
            b.can_lose.store(true, Ordering::SeqCst);
        }
        let router = Router::start(as_backends(&f), RouterConfig::default());
        let client = router.client();
        assert!(call(&client, 1, 6).outcome.is_ok());
        let owner = (0..2)
            .position(|i| !f[i].accepted_ids().is_empty())
            .unwrap();
        // The owner's process dies with request 2 in flight: the typed
        // loss must be resubmitted to the surviving shard, invisibly.
        f[owner].lose_next.store(true, Ordering::SeqCst);
        let reply = call(&client, 2, 6);
        assert!(reply.outcome.is_ok(), "loss not recovered: {reply:?}");
        assert!(f[1 - owner].accepted_ids().contains(&2));
        assert_eq!(router.core.shard_lost_resubmits.load(Ordering::Relaxed), 1);
        let fleet = Frontend::stats(&client).fleet.expect("fleet stat");
        assert_eq!(fleet.shard_lost_resubmits, 1);
        router.shutdown();
    }

    #[test]
    fn a_second_loss_surfaces_shard_lost_to_the_caller() {
        let f = fakes(2);
        for b in &f {
            b.can_lose.store(true, Ordering::SeqCst);
            b.lose_next.store(true, Ordering::SeqCst);
        }
        let router = Router::start(as_backends(&f), RouterConfig::default());
        let client = router.client();
        // First loss: resubmitted. The resubmission's shard dies too:
        // the loss surfaces typed (the caller may resubmit like any
        // crash) instead of looping forever.
        let reply = call(&client, 1, 6);
        assert_eq!(reply.outcome, Outcome::ShardLost);
        assert_eq!(router.core.shard_lost_resubmits.load(Ordering::Relaxed), 1);
        router.shutdown();
    }

    #[test]
    fn breaker_trips_half_opens_and_closes() {
        let f = fakes(2);
        let cfg = RouterConfig {
            health_interval: Duration::from_millis(1),
            breaker_threshold: 2,
            breaker_cooldown: Duration::from_millis(30),
            ..RouterConfig::default()
        };
        let router = Router::start(as_backends(&f), cfg);
        let client = router.client();
        let breaker_of = |name: &str| {
            Frontend::stats(&client)
                .shards
                .expect("shard list")
                .into_iter()
                .find(|s| s.name == name)
                .and_then(|s| s.breaker)
                .expect("breaker stat")
        };
        // Shard s0 starts failing probes: after `threshold` consecutive
        // failures its breaker must trip open.
        f[0].refuse_with(Some(RejectReason::ShuttingDown));
        let t0 = Instant::now();
        while breaker_of("s0").state != "open" && t0.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(2));
        }
        let open = breaker_of("s0");
        assert_eq!(open.state, "open");
        assert_eq!(open.trips, 1);
        // The shard recovers: a cooldown later the breaker half-opens
        // for a trial probe, which succeeds and closes it.
        f[0].refuse_with(None);
        let t0 = Instant::now();
        while breaker_of("s0").state != "closed" && t0.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(breaker_of("s0").state, "closed");
        let fleet = Frontend::stats(&client).fleet.expect("fleet stat");
        assert_eq!(fleet.breaker_trips, 1);
        assert!(fleet.breaker_half_opens >= 1, "no half-open recorded");
        assert!(fleet.breaker_closes >= 1, "no close recorded");
        // The readmitted shard serves again.
        assert_eq!(breaker_of("s1").trips, 0, "healthy slot never tripped");
        router.shutdown();
    }

    #[test]
    fn hedged_request_wins_on_the_second_shard_and_suppresses_the_duplicate() {
        let f = fakes(2);
        let cfg = RouterConfig {
            health_interval: Duration::from_millis(1),
            hedge_after: Some(Duration::from_millis(5)),
            ..RouterConfig::default()
        };
        let router = Router::start(as_backends(&f), cfg);
        let client = router.client();
        assert!(call(&client, 1, 6).outcome.is_ok());
        let owner = (0..2)
            .position(|i| !f[i].accepted_ids().is_empty())
            .unwrap();
        // The owner straggles: it accepts but never answers. The hedge
        // fires on the other shard and its reply wins.
        f[owner].hold.store(true, Ordering::SeqCst);
        let reply = call(&client, 2, 6);
        assert!(reply.outcome.is_ok(), "hedge never answered: {reply:?}");
        assert!(f[1 - owner].accepted_ids().contains(&2));
        // The counter is bumped by the health thread just *after* the
        // hedge reply is delivered, so give it a moment.
        let t0 = Instant::now();
        while router.core.hedges.load(Ordering::Relaxed) == 0
            && t0.elapsed() < Duration::from_secs(5)
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(router.core.hedges.load(Ordering::Relaxed), 1);
        // The straggler finally answers: the duplicate is suppressed at
        // the shared sink and only counted, never delivered.
        f[owner].release_held();
        assert_eq!(router.core.hedge_wasted.load(Ordering::Relaxed), 1);
        let fleet = Frontend::stats(&client).fleet.expect("fleet stat");
        assert_eq!(fleet.hedges, 1);
        assert_eq!(fleet.hedge_wasted, 1);
        router.shutdown();
    }

    #[test]
    fn an_answered_request_is_never_hedged() {
        let f = fakes(2);
        let cfg = RouterConfig {
            health_interval: Duration::from_millis(1),
            hedge_after: Some(Duration::from_millis(2)),
            ..RouterConfig::default()
        };
        let router = Router::start(as_backends(&f), cfg);
        let client = router.client();
        for id in 0..20 {
            assert!(call(&client, id, 4 + (id % 3) as usize).outcome.is_ok());
        }
        // Replies were instant: every armed hedge must be cancelled
        // before it fires.
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(router.core.hedges.load(Ordering::Relaxed), 0);
        assert_eq!(router.core.hedge_wasted.load(Ordering::Relaxed), 0);
        let total: usize = f.iter().map(|b| b.accepted_ids().len()).sum();
        assert_eq!(total, 20, "no duplicate submissions");
        router.shutdown();
    }
}
