//! Load generator for a running `ibcf serve` instance.
//!
//! Drives the TCP front-end with a mix of matrix sizes in one of two
//! arrival disciplines:
//!
//! * **closed-loop** — each connection keeps a fixed window of requests
//!   outstanding, so offered load tracks service capacity (throughput
//!   measurement at saturation);
//! * **open-loop** — requests depart on a fixed schedule regardless of
//!   replies, so a slow server sheds load through admission control
//!   (latency/rejection measurement under a target arrival rate).
//!
//! A configurable fraction of requests is *planted* non-SPD (`-I`); the
//! generator asserts each one comes back as its own `NotSpd` reply while
//! its same-batch neighbors succeed — the end-to-end check that failure
//! routing never smears across a batch.
//!
//! With a [`RetryPolicy`] enabled the generator is *resilient*: a
//! dropped, corrupted, or stalled connection is reconnected with
//! exponential backoff and every request that never got a reply is
//! resubmitted (factorization is idempotent, and the lost connection
//! took its undelivered replies with it, so this preserves the
//! exactly-one-reply invariant). The report tallies duplicates and lost
//! replies so a chaos run can assert both are zero.

use crate::codec::{
    decode_factor_reply, encode_factor_req, read_frame, wire_deadline_us, write_frame,
    K_FACTOR_REPLY, K_FACTOR_REQ, K_LARGE_REQ,
};
use crate::request::{Dtype, Outcome, Payload, RejectReason};
use crate::retry::RetryPolicy;
use crate::server::TcpConn;
use crate::stats::StatsSnapshot;
use ibcf_core::spd::{random_spd, SpdKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How requests are released.
#[derive(Debug, Clone, Copy)]
pub enum ArrivalMode {
    /// Keep `window` requests outstanding per connection.
    Closed {
        /// Outstanding requests per connection.
        window: usize,
    },
    /// Depart at `rate` requests/second (aggregate, split across
    /// connections), never waiting for replies.
    Open {
        /// Aggregate arrival rate in requests per second.
        rate: f64,
    },
}

/// Load-generation parameters.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// Matrix sizes, cycled per request.
    pub sizes: Vec<usize>,
    /// Element type of every request.
    pub dtype: Dtype,
    /// Total requests across all connections.
    pub requests: u64,
    /// Concurrent connections.
    pub conns: usize,
    /// Arrival discipline.
    pub mode: ArrivalMode,
    /// Number of planted non-SPD requests, spread evenly.
    pub plant_bad: u64,
    /// RNG seed for the payload pool.
    pub seed: u64,
    /// Per-request relative deadline sent on the wire (`None` = no
    /// deadline).
    pub deadline: Option<Duration>,
    /// Reconnect/resubmit policy for lost or stalled connections.
    pub retry: RetryPolicy,
    /// Socket read timeout: a stalled connection is declared dead (and,
    /// with retry enabled, replaced) after this long without a reply.
    pub read_timeout: Duration,
    /// Every `large_every`-th request (0 = never) is sent as a
    /// large-matrix request (`K_LARGE_REQ`): it bypasses the batch
    /// former and schedules on the server's task-graph pool, mixing the
    /// two serving paths in one run.
    pub large_every: u64,
    /// Dimension of the large requests.
    pub large_n: usize,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: "127.0.0.1:7117".into(),
            sizes: vec![16],
            dtype: Dtype::F32,
            requests: 100_000,
            conns: 4,
            mode: ArrivalMode::Closed { window: 256 },
            plant_bad: 0,
            seed: 1,
            deadline: None,
            retry: RetryPolicy::disabled(),
            read_timeout: Duration::from_secs(60),
            large_every: 0,
            large_n: 128,
        }
    }
}

/// What the run measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Unique requests submitted (resubmissions not double-counted).
    pub sent: u64,
    /// Successful factor replies.
    pub ok: u64,
    /// Planted requests correctly reported non-SPD.
    pub planted_caught: u64,
    /// Requests rejected by admission control (queue full, deadline
    /// exceeded, shutdown).
    pub rejected: u64,
    /// Backpressure hints received; each was resubmitted after (never
    /// before) its `retry_after_us` delay elapsed.
    pub backpressured: u64,
    /// Requests whose batch's worker panicked (typed `WorkerCrashed`)
    /// or whose shard process died twice in flight (typed `ShardLost`
    /// after the router's one transparent resubmission).
    pub crashed: u64,
    /// Replies carrying an id that was not outstanding: a duplicate
    /// answer. Must be zero — the exactly-one-reply invariant.
    pub duplicates: u64,
    /// Requests that never received any reply. Must be zero.
    pub lost: u64,
    /// Successful reconnections after a dropped or stalled connection.
    pub reconnects: u64,
    /// Replies that contradicted expectations (good request failed,
    /// planted request succeeded, wrong column).
    pub mismatched: u64,
    /// Wall-clock of the send/receive phase.
    pub elapsed: Duration,
    /// Completed (non-rejected) replies per second.
    pub throughput: f64,
    /// Client-measured latency percentiles, microseconds: from the send
    /// (closed loop) or the scheduled departure (open loop) to the reply.
    pub p50_us: f64,
    /// 95th percentile latency, microseconds.
    pub p95_us: f64,
    /// 99th percentile latency, microseconds.
    pub p99_us: f64,
    /// Mean batch occupancy on the server over this run's batches.
    pub mean_occupancy: f64,
    /// Server stats after the run.
    pub server: StatsSnapshot,
}

impl LoadReport {
    /// `true` when every reply matched expectations and the
    /// exactly-one-reply invariant held: nothing lost, nothing answered
    /// twice.
    pub fn clean(&self) -> bool {
        self.mismatched == 0 && self.duplicates == 0 && self.lost == 0
    }

    /// One-paragraph human-readable summary; a routed fleet gets one
    /// extra line per shard plus the fleet-wide totals.
    pub fn render(&self) -> String {
        let mut out = format!(
            "sent {} requests in {:.3} s: {} ok, {} planted non-SPD caught, \
             {} rejected, {} backpressured, {} crashed, {} mismatched\n\
             invariant: {} lost, {} duplicates, {} reconnects\n\
             throughput {:.0} matrices/s, \
             latency p50/p95/p99 = {:.0}/{:.0}/{:.0} us, \
             mean batch occupancy {:.1}%",
            self.sent,
            self.elapsed.as_secs_f64(),
            self.ok,
            self.planted_caught,
            self.rejected,
            self.backpressured,
            self.crashed,
            self.mismatched,
            self.lost,
            self.duplicates,
            self.reconnects,
            self.throughput,
            self.p50_us,
            self.p95_us,
            self.p99_us,
            100.0 * self.mean_occupancy,
        );
        if self.server.large_requests > 0 {
            out.push_str(&format!(
                "\n  large (task-graph path): {} requests, {} ok, {} failed",
                self.server.large_requests, self.server.large_ok, self.server.large_failed,
            ));
        }
        if let Some(shards) = &self.server.shards {
            for sh in shards {
                let (p50, _, p99) = sh.snapshot.percentiles_us();
                out.push_str(&format!(
                    "\n  shard {} [{}]: {} routed, {} served, \
                     p50/p99 = {:.0}/{:.0} us",
                    sh.name,
                    if sh.healthy { "up" } else { "down" },
                    sh.routed,
                    sh.snapshot.requests,
                    p50,
                    p99,
                ));
            }
            out.push_str(&format!(
                "\n  fleet: {} requests, {} rejected, {} batches across {} shards",
                self.server.requests,
                self.server.rejected,
                self.server.batches,
                shards.len(),
            ));
        }
        out
    }
}

/// Pre-generated payloads: a small pool of SPD matrices per size (reused
/// round-robin so generation cost stays out of the send path) plus the
/// planted non-SPD payload (`-I`).
struct PayloadPool {
    good: HashMap<usize, Vec<Payload>>,
    bad: HashMap<usize, Payload>,
}

const POOL_PER_SIZE: usize = 16;

fn neg_identity(n: usize, dtype: Dtype) -> Payload {
    match dtype {
        Dtype::F32 => {
            let mut m = vec![0.0f32; n * n];
            for d in 0..n {
                m[d * n + d] = -1.0;
            }
            Payload::F32(m)
        }
        Dtype::F64 => {
            let mut m = vec![0.0f64; n * n];
            for d in 0..n {
                m[d * n + d] = -1.0;
            }
            Payload::F64(m)
        }
    }
}

impl PayloadPool {
    fn build(sizes: &[usize], dtype: Dtype, seed: u64) -> PayloadPool {
        let mut good = HashMap::new();
        let mut bad = HashMap::new();
        for &n in sizes {
            if good.contains_key(&n) {
                continue;
            }
            let pool: Vec<Payload> = (0..POOL_PER_SIZE)
                .map(|i| {
                    let mut rng = StdRng::seed_from_u64(
                        seed ^ (n as u64) << 32 ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15),
                    );
                    match dtype {
                        Dtype::F32 => Payload::F32(
                            random_spd::<f32>(n, SpdKind::Wishart, &mut rng).into_vec(),
                        ),
                        Dtype::F64 => Payload::F64(
                            random_spd::<f64>(n, SpdKind::Wishart, &mut rng).into_vec(),
                        ),
                    }
                })
                .collect();
            good.insert(n, pool);
            bad.insert(n, neg_identity(n, dtype));
        }
        PayloadPool { good, bad }
    }
}

/// `true` if global request index `r` is a planted non-SPD request
/// (spreads `plant_bad` requests evenly over `total`).
fn is_planted(r: u64, total: u64, plant_bad: u64) -> bool {
    if plant_bad == 0 {
        return false;
    }
    // The index where ⌊r·plant/total⌋ increments.
    (r + 1) * plant_bad / total != r * plant_bad / total
}

/// Shared between a connection's pacing loop and its reader thread.
/// `sent_at` doubles as the outstanding set: a reply removes its entry,
/// a reconnect resubmits whatever is still present.
struct ConnState {
    sent_at: HashMap<u64, Instant>,
    outstanding: usize,
    replied: u64,
    conn_dead: bool,
    ok: u64,
    planted_caught: u64,
    rejected: u64,
    backpressured: u64,
    crashed: u64,
    duplicates: u64,
    mismatched: u64,
    latencies_ns: Vec<u64>,
    /// Backpressured requests parked until their retry-after hint
    /// elapses: `(request id, earliest resubmission instant)`.
    retry_at: Vec<(u64, Instant)>,
}

/// Pops every parked retry whose hinted delay has elapsed, re-registers
/// it as outstanding, and returns the ids to resubmit (sorted, for
/// deterministic wire order). Requests still inside their hint window
/// stay parked — the contract is *after* the hint, never before.
fn take_due_retries(s: &mut ConnState, now: Instant) -> Vec<u64> {
    let mut due = Vec::new();
    s.retry_at.retain(|&(r, at)| {
        if at <= now {
            due.push(r);
            false
        } else {
            true
        }
    });
    due.sort_unstable();
    for &r in &due {
        s.sent_at.insert(r, now);
        s.outstanding += 1;
    }
    due
}

/// Earliest instant any parked retry becomes due.
fn earliest_retry(s: &ConnState) -> Option<Instant> {
    s.retry_at.iter().map(|&(_, at)| at).min()
}

struct ConnTally {
    ok: u64,
    planted_caught: u64,
    rejected: u64,
    backpressured: u64,
    crashed: u64,
    duplicates: u64,
    mismatched: u64,
    reconnects: u64,
    sent: u64,
    replied: u64,
    latencies_ns: Vec<u64>,
}

type Shared = Arc<(Mutex<ConnState>, Condvar)>;

/// Consumes reply frames until every expected reply arrived or the
/// connection dies (error, EOF, desync, or read timeout). Always leaves
/// `conn_dead` accurate and wakes the pacing loop on exit.
fn reader_loop(stream: TcpStream, state: Shared, total: u64, plant_bad: u64, expected: u64) {
    let mut reader = BufReader::new(stream);
    // Anything but a well-formed factor reply — desync (unknown kind,
    // e.g. a corrupted kind byte), EOF mid-run, torn frame, i/o error,
    // read timeout, or a corrupted reply body — kills the connection.
    while let Ok(Some((K_FACTOR_REPLY, body))) = read_frame(&mut reader) {
        let Ok(reply) = decode_factor_reply(&body) else {
            break;
        };
        let now = Instant::now();
        let (lock, cvar) = &*state;
        let mut s = lock.lock().unwrap();
        let r = reply.id;
        match s.sent_at.remove(&r) {
            None => {
                // Not outstanding: either never sent on this run or —
                // the invariant violation chaos hunts — answered twice.
                s.duplicates += 1;
            }
            Some(at) => {
                s.outstanding = s.outstanding.saturating_sub(1);
                if let Outcome::Rejected(RejectReason::Backpressure { retry_after_us }) =
                    reply.outcome
                {
                    // Not a terminal answer: the fleet asked us to come
                    // back later. Park the request until the hint
                    // elapses — the pacing/wait loops resubmit it no
                    // sooner than `retry_after_us` from now.
                    s.backpressured += 1;
                    s.retry_at
                        .push((r, now + Duration::from_micros(u64::from(retry_after_us))));
                } else {
                    s.replied += 1;
                    s.latencies_ns
                        .push(now.duration_since(at).as_nanos() as u64);
                    let planted = is_planted(r, total, plant_bad);
                    match (&reply.outcome, planted) {
                        (Outcome::Factor(_), false) => s.ok += 1,
                        (Outcome::NotSpd { column: 0 }, true) => s.planted_caught += 1,
                        // A planted request in a crashed batch
                        // legitimately comes back WorkerCrashed — it
                        // never reached the pivot check. ShardLost is
                        // the process-death analogue: the router already
                        // resubmitted once, a second loss surfaces here
                        // and tallies with the crashes.
                        (Outcome::WorkerCrashed, _) | (Outcome::ShardLost, _) => s.crashed += 1,
                        (Outcome::Rejected(_), _) => s.rejected += 1,
                        _ => s.mismatched += 1,
                    }
                }
            }
        }
        let done = s.replied >= expected;
        cvar.notify_all();
        if done {
            return;
        }
    }
    let (lock, cvar) = &*state;
    let mut s = lock.lock().unwrap();
    s.conn_dead = true;
    cvar.notify_all();
}

/// One connection's closed- or open-loop exchange, surviving connection
/// loss when the retry policy allows. `ids` are the global request
/// indices this connection owns.
fn run_conn(
    addr: &str,
    ids: Vec<u64>,
    cfg: &LoadgenConfig,
    pool: &PayloadPool,
    per_conn_rate: f64,
) -> io::Result<ConnTally> {
    let total = cfg.requests;
    let expected = ids.len() as u64;
    let is_large = |r: u64| cfg.large_every > 0 && (r + 1).is_multiple_of(cfg.large_every);
    let n_of = |r: u64| {
        if is_large(r) {
            cfg.large_n
        } else {
            cfg.sizes[(r % cfg.sizes.len() as u64) as usize]
        }
    };
    // Large requests ride the task-graph path; the reply shape is
    // identical, so nothing downstream cares which kind went out.
    let kind_of = |r: u64| {
        if is_large(r) {
            K_LARGE_REQ
        } else {
            K_FACTOR_REQ
        }
    };
    let payload_of = |r: u64| -> &Payload {
        let n = n_of(r);
        if is_planted(r, total, cfg.plant_bad) {
            &pool.bad[&n]
        } else {
            &pool.good[&n][(r as usize / cfg.sizes.len().max(1)) % POOL_PER_SIZE]
        }
    };
    // wire_deadline_us clamps a sub-microsecond deadline up to 1 µs —
    // truncating to 0 would silently mean "no deadline at all".
    let deadline_us: u32 = wire_deadline_us(cfg.deadline);
    let state: Shared = Arc::new((
        Mutex::new(ConnState {
            sent_at: HashMap::with_capacity(1024),
            outstanding: 0,
            replied: 0,
            conn_dead: false,
            ok: 0,
            planted_caught: 0,
            rejected: 0,
            backpressured: 0,
            crashed: 0,
            duplicates: 0,
            mismatched: 0,
            latencies_ns: Vec::with_capacity(expected as usize),
            retry_at: Vec::new(),
        }),
        Condvar::new(),
    ));
    let mut next_idx = 0usize; // first id not yet sent at all
    let mut attempt = 0u32; // consecutive no-progress recovery attempts
    let mut reconnects = 0u64;
    let start = Instant::now();
    loop {
        let replied_before = state.0.lock().unwrap().replied;
        let stream = match TcpStream::connect(addr) {
            Ok(s) => s,
            Err(e) => {
                attempt += 1;
                if attempt >= cfg.retry.max_attempts {
                    return Err(e);
                }
                std::thread::sleep(cfg.retry.backoff(attempt));
                continue;
            }
        };
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(cfg.read_timeout))?;
        let mut writer = BufWriter::new(stream.try_clone()?);
        {
            let mut s = state.0.lock().unwrap();
            s.conn_dead = false;
        }
        let reader = {
            let state = state.clone();
            let plant_bad = cfg.plant_bad;
            std::thread::Builder::new()
                .name("ibcf-loadgen-reader".into())
                .spawn(move || reader_loop(stream, state, total, plant_bad, expected))
                .expect("spawn loadgen reader")
        };

        // Resubmit everything outstanding from the previous connection:
        // those replies died with it, so resubmission keeps
        // exactly-one-reply (factorization is idempotent).
        let resend: Vec<u64> = {
            let mut s = state.0.lock().unwrap();
            let mut v: Vec<u64> = s.sent_at.keys().copied().collect();
            v.sort_unstable();
            let now = Instant::now();
            for r in &v {
                s.sent_at.insert(*r, now); // latency clock restarts
            }
            v
        };
        let mut write_err = false;
        for &r in &resend {
            let body = encode_factor_req(r, n_of(r), deadline_us, payload_of(r));
            if write_frame(&mut writer, kind_of(r), &body).is_err() {
                write_err = true;
                break;
            }
        }

        // Pace the remaining first-time sends.
        while !write_err && next_idx < ids.len() {
            // Backpressured requests whose hint elapsed go first. They
            // bypass the closed-loop window: the server already admitted
            // them once, and making them queue behind fresh sends would
            // stretch their hinted delay unboundedly.
            let due = {
                let mut s = state.0.lock().unwrap();
                take_due_retries(&mut s, Instant::now())
            };
            for &r in &due {
                let body = encode_factor_req(r, n_of(r), deadline_us, payload_of(r));
                if write_frame(&mut writer, kind_of(r), &body).is_err() {
                    write_err = true;
                }
            }
            if write_err {
                break;
            }
            let r = ids[next_idx];
            let paced = match cfg.mode {
                ArrivalMode::Closed { window } => {
                    let (lock, cvar) = &*state;
                    let mut s = lock.lock().unwrap();
                    if s.outstanding >= window.max(1) && !s.conn_dead {
                        // About to block on replies: everything recorded
                        // as outstanding must actually be on the wire.
                        drop(s);
                        if writer.flush().is_err() {
                            write_err = true;
                            continue;
                        }
                        s = lock.lock().unwrap();
                        while s.outstanding >= window.max(1) && !s.conn_dead {
                            s = cvar.wait(s).unwrap();
                        }
                    }
                    if s.conn_dead {
                        None
                    } else {
                        s.outstanding += 1;
                        s.sent_at.insert(r, Instant::now());
                        Some(())
                    }
                }
                ArrivalMode::Open { .. } => {
                    // Latency runs from the due time, not the actual send:
                    // a sender running late (a blocked socket, a slow
                    // encode) delays every later departure, and that wait
                    // belongs to the requests it delays.
                    let due = start + Duration::from_secs_f64(next_idx as f64 / per_conn_rate);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let (lock, _) = &*state;
                    let mut s = lock.lock().unwrap();
                    if s.conn_dead {
                        None
                    } else {
                        s.outstanding += 1;
                        s.sent_at.insert(r, due);
                        Some(())
                    }
                }
            };
            if paced.is_none() {
                break; // connection died mid-pacing; reconnect resubmits
            }
            let body = encode_factor_req(r, n_of(r), deadline_us, payload_of(r));
            if write_frame(&mut writer, kind_of(r), &body).is_err() {
                write_err = true;
            }
            next_idx += 1;
            // Open-loop must flush every departure to honor the pacing
            // schedule; closed-loop flushes just before it blocks.
            if matches!(cfg.mode, ArrivalMode::Open { .. }) && writer.flush().is_err() {
                write_err = true;
            }
        }
        let _ = writer.flush();

        // Wait for the reader to finish this connection: every reply
        // arrived, the connection died, or a backpressured request came
        // due and must be resubmitted (written outside the lock so a
        // blocked socket can never deadlock the reader).
        loop {
            let due: Vec<u64> = {
                let (lock, cvar) = &*state;
                let mut s = lock.lock().unwrap();
                loop {
                    if s.replied >= expected || s.conn_dead {
                        break Vec::new();
                    }
                    let due = take_due_retries(&mut s, Instant::now());
                    if !due.is_empty() {
                        break due;
                    }
                    let timeout = earliest_retry(&s)
                        .map(|at| at.saturating_duration_since(Instant::now()))
                        .unwrap_or(Duration::from_secs(3600))
                        .max(Duration::from_micros(50));
                    s = cvar.wait_timeout(s, timeout).unwrap().0;
                }
            };
            if due.is_empty() {
                break;
            }
            let mut retry_write_err = false;
            for &r in &due {
                let body = encode_factor_req(r, n_of(r), deadline_us, payload_of(r));
                if write_frame(&mut writer, kind_of(r), &body).is_err() {
                    retry_write_err = true;
                }
            }
            if writer.flush().is_err() || retry_write_err {
                // Write side is gone; the reader's timeout backstop will
                // flag the connection dead and trigger a reconnect.
                break;
            }
        }
        // The reader owns the stream and exits on reply completion,
        // error, EOF, or its read timeout (the backstop when only the
        // write side failed).
        reader.join().expect("loadgen reader panicked");

        let s = state.0.lock().unwrap();
        if s.replied >= expected {
            break;
        }
        let progressed = s.replied > replied_before;
        drop(s);
        if progressed {
            attempt = 0;
        }
        attempt += 1;
        if attempt >= cfg.retry.max_attempts {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                format!("connection lost and retry budget exhausted after {attempt} attempts"),
            ));
        }
        reconnects += 1;
        std::thread::sleep(cfg.retry.backoff(attempt));
    }
    let mut s = state.0.lock().unwrap();
    let latencies_ns = std::mem::take(&mut s.latencies_ns);
    Ok(ConnTally {
        ok: s.ok,
        planted_caught: s.planted_caught,
        rejected: s.rejected,
        backpressured: s.backpressured,
        crashed: s.crashed,
        duplicates: s.duplicates,
        mismatched: s.mismatched,
        reconnects,
        sent: expected,
        replied: s.replied,
        latencies_ns,
    })
}

/// Fetches server stats, retrying under the config's policy (chaos plans
/// can drop the stats connection too).
fn fetch_stats_retrying(cfg: &LoadgenConfig) -> io::Result<StatsSnapshot> {
    let mut attempt = 0u32;
    loop {
        match TcpConn::connect(&cfg.addr).and_then(|mut c| c.fetch_stats()) {
            Ok(snap) => return Ok(snap),
            Err(e) => {
                attempt += 1;
                if attempt >= cfg.retry.max_attempts {
                    return Err(e);
                }
                std::thread::sleep(cfg.retry.backoff(attempt));
            }
        }
    }
}

/// Runs the configured load against a server and returns the report.
pub fn run(cfg: &LoadgenConfig) -> io::Result<LoadReport> {
    assert!(!cfg.sizes.is_empty(), "need at least one matrix size");
    assert!(cfg.conns > 0, "need at least one connection");
    assert!(cfg.requests > 0, "need at least one request");
    let mut pool_sizes = cfg.sizes.clone();
    if cfg.large_every > 0 {
        assert!(cfg.large_n > 0, "large_n must be positive");
        pool_sizes.push(cfg.large_n);
    }
    let pool = Arc::new(PayloadPool::build(&pool_sizes, cfg.dtype, cfg.seed));

    // Delta baseline so a long-lived server's history doesn't dilute this
    // run's occupancy measurement.
    let before = fetch_stats_retrying(cfg)?;

    let per_conn_rate = match cfg.mode {
        ArrivalMode::Open { rate } => (rate / cfg.conns as f64).max(1.0),
        ArrivalMode::Closed { .. } => f64::MAX,
    };
    let start = Instant::now();
    let tallies: Vec<io::Result<ConnTally>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.conns)
            .map(|c| {
                let ids: Vec<u64> = (0..cfg.requests)
                    .filter(|r| (*r as usize) % cfg.conns == c)
                    .collect();
                let (pool, cfg) = (pool.clone(), cfg.clone());
                scope.spawn(move || run_conn(&cfg.addr, ids, &cfg, &pool, per_conn_rate))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let elapsed = start.elapsed();

    let mut sent = 0;
    let mut ok = 0;
    let mut planted_caught = 0;
    let mut rejected = 0;
    let mut backpressured = 0;
    let mut crashed = 0;
    let mut duplicates = 0;
    let mut mismatched = 0;
    let mut reconnects = 0;
    let mut replied = 0;
    let mut latencies: Vec<u64> = Vec::new();
    for tally in tallies {
        let t = tally?;
        sent += t.sent;
        ok += t.ok;
        planted_caught += t.planted_caught;
        rejected += t.rejected;
        backpressured += t.backpressured;
        crashed += t.crashed;
        duplicates += t.duplicates;
        mismatched += t.mismatched;
        reconnects += t.reconnects;
        replied += t.replied;
        latencies.extend(t.latencies_ns);
    }
    latencies.sort_unstable();
    let pct = |q: f64| -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        let idx = ((q * latencies.len() as f64).ceil() as usize).clamp(1, latencies.len()) - 1;
        latencies[idx] as f64 / 1000.0
    };

    let after = fetch_stats_retrying(cfg)?;
    let batches_delta = after.batches.saturating_sub(before.batches);
    let mean_occupancy = if batches_delta == 0 {
        0.0
    } else {
        // Reconstruct the per-window mean from the two lifetime means.
        let sum_after = after.mean_occupancy * after.batches as f64;
        let sum_before = before.mean_occupancy * before.batches as f64;
        ((sum_after - sum_before) / batches_delta as f64).clamp(0.0, 1.0)
    };

    Ok(LoadReport {
        sent,
        ok,
        planted_caught,
        rejected,
        backpressured,
        crashed,
        duplicates,
        lost: sent.saturating_sub(replied),
        reconnects,
        mismatched,
        elapsed,
        throughput: (ok + planted_caught) as f64 / elapsed.as_secs_f64(),
        p50_us: pct(0.50),
        p95_us: pct(0.95),
        p99_us: pct(0.99),
        mean_occupancy,
        server: after,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planted_spread_is_even_and_exact() {
        for (total, plant) in [(100u64, 10u64), (97, 7), (50, 0), (10, 10), (1000, 1)] {
            let count = (0..total).filter(|&r| is_planted(r, total, plant)).count() as u64;
            assert_eq!(count, plant, "total={total} plant={plant}");
            // Even spread: no two planted indices closer than half the
            // ideal gap (except the degenerate all-planted case).
            if plant > 1 && plant < total {
                let planted: Vec<u64> = (0..total)
                    .filter(|&r| is_planted(r, total, plant))
                    .collect();
                let min_gap = planted.windows(2).map(|w| w[1] - w[0]).min().unwrap();
                assert!(min_gap >= total / plant / 2, "gap {min_gap}");
            }
        }
    }

    #[test]
    fn open_loop_latency_includes_the_senders_lag() {
        use crate::codec::{decode_factor_req, reply_frame};
        use crate::request::FactorReply;
        // The server reads nothing for STALL, so the socket buffers fill
        // and the sender blocks long past the due times of the later
        // requests (the whole schedule lasts 48 µs). Then it rejects
        // every request the moment it reads it. Stamped at the actual
        // send, the last requests would report almost no latency; stamped
        // at their due time, every one waited out the stall.
        const STALL: Duration = Duration::from_millis(200);
        let (n, requests) = (256usize, 48u64); // 512 KiB payloads, 24 MiB in all
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            std::thread::sleep(STALL);
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            while let Ok(Some((K_FACTOR_REQ, body))) = read_frame(&mut reader) {
                let (id, ..) = decode_factor_req(&body).unwrap();
                let reply = FactorReply {
                    id,
                    outcome: Outcome::Rejected(RejectReason::QueueFull),
                };
                writer.write_all(&reply_frame(&reply, Dtype::F64)).unwrap();
            }
        });
        let rate = 1e6;
        let cfg = LoadgenConfig {
            addr: addr.clone(),
            sizes: vec![n],
            dtype: Dtype::F64,
            requests,
            conns: 1,
            mode: ArrivalMode::Open { rate },
            ..Default::default()
        };
        let pool = PayloadPool {
            good: HashMap::from([(n, vec![Payload::F64(vec![0.0; n * n]); POOL_PER_SIZE])]),
            bad: HashMap::new(),
        };
        let tally = run_conn(&addr, (0..requests).collect(), &cfg, &pool, rate).unwrap();
        server.join().unwrap();
        assert_eq!(tally.rejected, requests);
        assert_eq!(tally.latencies_ns.len(), requests as usize);
        let min = Duration::from_nanos(*tally.latencies_ns.iter().min().unwrap());
        assert!(
            min >= STALL - Duration::from_millis(1),
            "a request reported {min:?}, less than the {STALL:?} it waited"
        );
    }

    #[test]
    fn retries_fire_after_the_hint_never_before() {
        let mut s = ConnState {
            sent_at: HashMap::new(),
            outstanding: 0,
            replied: 0,
            conn_dead: false,
            ok: 0,
            planted_caught: 0,
            rejected: 0,
            backpressured: 0,
            crashed: 0,
            duplicates: 0,
            mismatched: 0,
            latencies_ns: Vec::new(),
            retry_at: Vec::new(),
        };
        let t0 = Instant::now();
        s.retry_at.push((7, t0 + Duration::from_micros(500)));
        s.retry_at.push((3, t0 + Duration::from_micros(500)));
        s.retry_at.push((9, t0 + Duration::from_millis(50)));

        // Before any hint elapses: nothing is due.
        assert!(take_due_retries(&mut s, t0).is_empty());
        assert_eq!(s.outstanding, 0);
        assert_eq!(earliest_retry(&s), Some(t0 + Duration::from_micros(500)));

        // One microsecond short of the first hint: still nothing.
        assert!(take_due_retries(&mut s, t0 + Duration::from_micros(499)).is_empty());

        // First hint elapsed: exactly those two fire, sorted, and are
        // re-registered as outstanding; the later one stays parked.
        let due = take_due_retries(&mut s, t0 + Duration::from_micros(500));
        assert_eq!(due, vec![3, 7]);
        assert_eq!(s.outstanding, 2);
        assert!(s.sent_at.contains_key(&3) && s.sent_at.contains_key(&7));
        assert_eq!(earliest_retry(&s), Some(t0 + Duration::from_millis(50)));

        // And the stragglers fire once their own hint elapses.
        assert_eq!(
            take_due_retries(&mut s, t0 + Duration::from_millis(50)),
            vec![9]
        );
        assert!(s.retry_at.is_empty());
        assert_eq!(earliest_retry(&s), None);
    }

    #[test]
    fn pool_has_good_and_bad_payloads_per_size() {
        let pool = PayloadPool::build(&[4, 8, 4], Dtype::F32, 7);
        assert_eq!(pool.good.len(), 2);
        assert_eq!(pool.good[&4].len(), POOL_PER_SIZE);
        let Payload::F32(bad) = &pool.bad[&8] else {
            panic!("wrong dtype");
        };
        assert_eq!(bad[0], -1.0);
        assert_eq!(bad.len(), 64);
    }

    #[test]
    fn clean_requires_the_invariant() {
        let base = LoadReport {
            sent: 10,
            ok: 10,
            planted_caught: 0,
            rejected: 0,
            backpressured: 2,
            crashed: 0,
            duplicates: 0,
            lost: 0,
            reconnects: 3,
            mismatched: 0,
            elapsed: Duration::from_secs(1),
            throughput: 10.0,
            p50_us: 0.0,
            p95_us: 0.0,
            p99_us: 0.0,
            mean_occupancy: 1.0,
            server: StatsSnapshot::default(),
        };
        assert!(
            base.clean(),
            "reconnects and honored backpressure don't dirty a run"
        );
        assert!(!LoadReport {
            lost: 1,
            ..base.clone()
        }
        .clean());
        assert!(!LoadReport {
            duplicates: 1,
            ..base.clone()
        }
        .clean());
        assert!(!LoadReport {
            mismatched: 1,
            ..base
        }
        .clean());
    }
}
