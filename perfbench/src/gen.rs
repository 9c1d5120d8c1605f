//! The load generator: closed loop (fixed window per connection) or open
//! loop on a due-time schedule, one thread per connection, with the
//! per-request bookkeeping every reply goes through.

use crate::inputs::{check, Inputs, ReplyView, Verdict};
use crate::sys;
use crate::trace::Tracer;
use crate::wire::Transport;
use std::io;
use std::time::{Duration, Instant};

/// How requests arrive.
#[derive(Debug, Clone, Copy)]
pub enum Arrival {
    /// Each connection keeps `window` requests outstanding.
    Closed { window: usize },
    /// Requests fall due at a fixed total rate, spread over connections.
    Open { rate: f64 },
}

/// What one run of the generator measures.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub arrival: Arrival,
    pub conns: u64,
    /// Measurement window, in ns since the epoch: requests stamped inside
    /// it count towards latency, replies inside it towards throughput.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Every `sample_every`-th request id is checked numerically (large
    /// requests always are).
    pub sample_every: u64,
    /// How long to wait for outstanding replies after `end_ns`.
    pub drain_ns: u64,
}

impl Plan {
    /// A plan that warms up for `warm_s`, measures for `seconds`, and
    /// drains for at most 10 s.
    pub fn new(arrival: Arrival, conns: u64, warm_s: f64, seconds: f64) -> Self {
        let start_ns = (warm_s * 1e9) as u64;
        Plan {
            arrival,
            conns,
            start_ns,
            end_ns: start_ns + (seconds * 1e9) as u64,
            sample_every: 16,
            drain_ns: 10_000_000_000,
        }
    }
}

/// The due-time schedule of one connection in open loop: global request
/// `g = k·conns + conn` is due `g / rate` seconds after the epoch. Every
/// overdue request is sent on each wake-up, so a stall delays requests
/// without thinning the schedule.
#[derive(Debug, Clone)]
pub struct Schedule {
    pub rate: f64,
    pub conn: u64,
    pub conns: u64,
    /// The next local request index to send.
    pub next: u64,
}

impl Schedule {
    pub fn due_ns(&self, k: u64) -> u64 {
        ((k * self.conns + self.conn) as f64 * 1e9 / self.rate) as u64
    }

    pub fn next_due_ns(&self) -> u64 {
        self.due_ns(self.next)
    }

    /// Local indices due at `now_ns` (and before `end_ns`), consumed.
    pub fn take_overdue(&mut self, now_ns: u64, end_ns: u64) -> std::ops::Range<u64> {
        let first = self.next;
        while self.due_ns(self.next) <= now_ns && self.due_ns(self.next) < end_ns {
            self.next += 1;
        }
        first..self.next
    }
}

/// Per-connection accounting; merged across connections at the end.
#[derive(Debug, Default)]
pub struct Book {
    /// Send (closed loop) or due (open loop) time per local index.
    stamp: Vec<u64>,
    seen: Vec<bool>,
    span: Vec<u32>,
    outstanding: u64,
    pub sent: u64,
    pub correct: u64,
    pub duplicate: u64,
    pub unknown: u64,
    /// Replies by wire status (0 factor, 1 not-SPD, 3 rejected, 5
    /// backpressure, ...).
    pub by_status: [u64; 8],
    pub checked: u64,
    /// Worst backward error seen, as a fraction of its tolerance.
    pub err_max: f64,
    /// Sum of those fractions over the checked replies.
    pub err_sum: f64,
    pub lat_us: Vec<f64>,
    /// Latencies of large (task-graph) requests alone.
    pub lat_large_us: Vec<f64>,
    pub lag_us: Vec<f64>,
    /// Replies that arrived inside the measurement window, and the first
    /// and last of their arrival times.
    pub done: u64,
    first_done: u64,
    last_done: u64,
}

impl Book {
    /// Requests that did not get exactly one correct reply.
    pub fn failed(&self) -> u64 {
        (self.sent - self.correct.min(self.sent)) + self.duplicate + self.unknown
    }

    pub fn merge(&mut self, other: Book) {
        self.sent += other.sent;
        self.correct += other.correct;
        self.duplicate += other.duplicate;
        self.unknown += other.unknown;
        for (a, b) in self.by_status.iter_mut().zip(other.by_status) {
            *a += b;
        }
        self.checked += other.checked;
        self.err_max = self.err_max.max(other.err_max);
        self.err_sum += other.err_sum;
        self.lat_us.extend(other.lat_us);
        self.lat_large_us.extend(other.lat_large_us);
        self.lag_us.extend(other.lag_us);
        if other.done > 0 {
            self.first_done = if self.done == 0 {
                other.first_done
            } else {
                self.first_done.min(other.first_done)
            };
            self.last_done = self.last_done.max(other.last_done);
            self.done += other.done;
        }
    }

    /// Completions per second over the measurement window: the replies
    /// after the first one, over the time from the first to the last.
    pub fn throughput(&self) -> f64 {
        if self.done < 2 || self.last_done <= self.first_done {
            return 0.0;
        }
        (self.done - 1) as f64 * 1e9 / (self.last_done - self.first_done) as f64
    }

    /// Mean backward error of the checked replies, as a fraction of the
    /// tolerance.
    pub fn err_mean(&self) -> f64 {
        self.err_sum / self.checked.max(1) as f64
    }
}

/// One connection's generator loop.
struct Conn<'a> {
    plan: &'a Plan,
    conn: u64,
    inputs: &'a Inputs,
    pick: &'a (dyn Fn(u64) -> usize + Sync),
    epoch: Instant,
    tracer: Option<Tracer>,
    names: (&'static str, &'static str),
    book: Book,
}

impl Conn<'_> {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn send(&mut self, t: &mut dyn Transport, k: u64, stamp: u64) -> io::Result<()> {
        let id = k * self.plan.conns + self.conn;
        let e = &self.inputs.entries[(self.pick)(id)];
        self.book.stamp.push(stamp);
        self.book.seen.push(false);
        self.book.sent += 1;
        self.book.outstanding += 1;
        match &mut self.tracer {
            Some(tr) => {
                let req = tr.begin_at(self.names.0, None, id, stamp);
                self.book.span.push(req);
                let s = tr.begin(self.names.1, Some(req), id);
                t.send(id, e)?;
                tr.end(s);
            }
            None => t.send(id, e)?,
        }
        Ok(())
    }

    fn on_reply(&mut self, r: &ReplyView<'_>, now: u64) {
        let b = &mut self.book;
        let plan = self.plan;
        if r.id % plan.conns != self.conn || r.id / plan.conns >= b.stamp.len() as u64 {
            b.unknown += 1;
            return;
        }
        let k = (r.id / plan.conns) as usize;
        if b.seen[k] {
            b.duplicate += 1;
            return;
        }
        b.seen[k] = true;
        b.outstanding -= 1;
        b.by_status[(r.status as usize).min(7)] += 1;
        let e = &self.inputs.entries[(self.pick)(r.id)];
        if let Verdict::Correct(ratio) =
            check(e, r, e.large || r.id.is_multiple_of(plan.sample_every))
        {
            b.correct += 1;
            if let Some(x) = ratio {
                b.checked += 1;
                b.err_max = b.err_max.max(x);
                b.err_sum += x;
            }
        }
        let stamp = b.stamp[k];
        if (plan.start_ns..plan.end_ns).contains(&stamp) {
            let us = now.saturating_sub(stamp) as f64 / 1e3;
            b.lat_us.push(us);
            if e.large {
                b.lat_large_us.push(us);
            }
        }
        if (plan.start_ns..plan.end_ns).contains(&now) {
            if b.done == 0 {
                b.first_done = now;
            }
            b.last_done = now;
            b.done += 1;
        }
        if let Some(tr) = &mut self.tracer {
            tr.end_at(b.span[k], now);
        }
    }
}

fn stalled() -> io::Error {
    io::Error::new(io::ErrorKind::TimedOut, "no reply for 10 s")
}

impl Conn<'_> {
    /// Polls and books every delivered reply.
    fn pump(&mut self, t: &mut dyn Transport, timeout: Duration) -> io::Result<usize> {
        let epoch = self.epoch;
        t.poll(timeout, &mut |r| {
            let now = epoch.elapsed().as_nanos() as u64;
            self.on_reply(r, now);
        })
    }

    fn closed(&mut self, t: &mut dyn Transport, window: usize) -> io::Result<()> {
        let mut k = 0u64;
        for _ in 0..window {
            let now = self.now_ns();
            self.send(t, k, now)?;
            k += 1;
        }
        t.flush()?;
        let mut last_reply = self.now_ns();
        loop {
            let now = self.now_ns();
            if now >= self.plan.end_ns {
                break;
            }
            let got = self.pump(t, Duration::from_millis(200))?;
            let now = self.now_ns();
            if got == 0 {
                if now - last_reply > 10_000_000_000 {
                    return Err(stalled());
                }
                continue;
            }
            last_reply = now;
            if now < self.plan.end_ns {
                for _ in 0..got {
                    self.send(t, k, now)?;
                    k += 1;
                }
                t.flush()?;
            }
        }
        self.drain(t)
    }

    fn open(&mut self, t: &mut dyn Transport, rate: f64) -> io::Result<()> {
        let mut sched = Schedule {
            rate,
            conn: self.conn,
            conns: self.plan.conns,
            next: 0,
        };
        loop {
            let now = self.now_ns();
            let due = sched.take_overdue(now, self.plan.end_ns);
            let sent_any = !due.is_empty();
            for k in due {
                let d = sched.due_ns(k);
                let at = self.now_ns();
                if (self.plan.start_ns..self.plan.end_ns).contains(&d) {
                    self.book.lag_us.push(at.saturating_sub(d) as f64 / 1e3);
                }
                self.send(t, k, d)?;
            }
            if sent_any {
                t.flush()?;
            }
            let next = sched.next_due_ns();
            if next >= self.plan.end_ns {
                return self.drain(t);
            }
            let now = self.now_ns();
            self.pump(t, Duration::from_nanos(next.saturating_sub(now)))?;
        }
    }

    fn drain(&mut self, t: &mut dyn Transport) -> io::Result<()> {
        t.flush()?;
        let deadline = self.plan.end_ns.max(self.now_ns()) + self.plan.drain_ns;
        while self.book.outstanding > 0 {
            let now = self.now_ns();
            if now >= deadline {
                break;
            }
            self.pump(t, Duration::from_nanos((deadline - now).min(200_000_000)))?;
        }
        Ok(())
    }
}

/// Span names for one rung: the request span and its send child.
pub type SpanNames = (&'static str, &'static str);

/// Runs one generator thread per transport (pinned to `cpus` when given)
/// and merges their books and spans.
#[allow(clippy::too_many_arguments)]
pub fn drive<T: Transport + Send>(
    transports: Vec<T>,
    plan: &Plan,
    inputs: &Inputs,
    pick: &(dyn Fn(u64) -> usize + Sync),
    epoch: Instant,
    traced: Option<SpanNames>,
    cpus: &[usize],
) -> io::Result<(Book, Tracer)> {
    assert_eq!(transports.len() as u64, plan.conns);
    let results: Vec<io::Result<(Book, Option<Tracer>)>> = std::thread::scope(|s| {
        let handles: Vec<_> = transports
            .into_iter()
            .enumerate()
            .map(|(c, mut t)| {
                s.spawn(move || {
                    if !cpus.is_empty() {
                        sys::pin_current_thread(cpus);
                    }
                    let mut conn = Conn {
                        plan,
                        conn: c as u64,
                        inputs,
                        pick,
                        epoch,
                        tracer: traced.map(|_| Tracer::new(epoch)),
                        names: traced.unwrap_or(("request", "send")),
                        book: Book::default(),
                    };
                    match plan.arrival {
                        Arrival::Closed { window } => conn.closed(&mut t, window)?,
                        Arrival::Open { rate } => conn.open(&mut t, rate)?,
                    }
                    Ok((conn.book, conn.tracer))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let mut book = Book::default();
    let mut tracer = Tracer::new(epoch);
    for r in results {
        let (b, t) = r?;
        book.merge(b);
        if let Some(t) = t {
            tracer.absorb(t);
        }
    }
    Ok((book, tracer))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{Body, Entry, STATUS_NOT_SPD};
    use ibcf_service::{Dtype, Outcome};

    /// Answers every request at the next poll, and stalls once, inside
    /// the send of one request, the way a descheduled generator would.
    struct StallingTransport {
        pending: Vec<u64>,
        stall_at: u64,
        stall: Duration,
        column: u32,
    }

    impl Transport for StallingTransport {
        fn send(&mut self, id: u64, _e: &Entry) -> io::Result<()> {
            if id == self.stall_at {
                std::thread::sleep(self.stall);
            }
            self.pending.push(id);
            Ok(())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }

        fn poll(
            &mut self,
            timeout: Duration,
            on_reply: &mut dyn FnMut(&ReplyView<'_>),
        ) -> io::Result<usize> {
            if self.pending.is_empty() {
                std::thread::sleep(timeout.min(Duration::from_millis(1)));
                return Ok(0);
            }
            let outcome = Outcome::NotSpd {
                column: self.column as usize,
            };
            let ids = std::mem::take(&mut self.pending);
            for &id in &ids {
                on_reply(&ReplyView {
                    id,
                    status: STATUS_NOT_SPD,
                    aux: self.column,
                    body: Body::Local(&outcome),
                });
            }
            Ok(ids.len())
        }
    }

    #[test]
    fn open_loop_stamps_latency_and_lag_from_the_due_time() {
        // A planted input, so every reply is checked without a factor.
        let mut inputs = Inputs::new();
        let idx = inputs.add(3, 8, Dtype::F64, false, true, 1).unwrap()[0];
        let column = inputs.entries[idx].planted.unwrap() as u32;
        // 1000 req/s on one connection: request k is due at k ms. The
        // first 5 ms are warm-up; the window ends at 40 ms.
        let plan = Plan::new(Arrival::Open { rate: 1000.0 }, 1, 0.005, 0.035);
        let t = StallingTransport {
            pending: Vec::new(),
            stall_at: 10,
            stall: Duration::from_millis(20),
            column,
        };
        let (book, _) =
            drive(vec![t], &plan, &inputs, &|_| idx, Instant::now(), None, &[]).unwrap();
        assert_eq!((book.sent, book.correct, book.failed()), (40, 40, 0));
        // Only requests due inside the window (5..40 ms) are measured.
        assert_eq!(book.lag_us.len(), 35);
        assert_eq!(book.lat_us.len(), 35);
        // Requests 11.. fell due during the 20 ms stall and went out at
        // once after it, at least 19 ms late.
        let worst = book.lag_us.iter().copied().fold(0.0, f64::max);
        assert!(worst >= 19_000.0, "worst lag {worst} us");
        // Latency runs from the due time, so it covers the lag too; a
        // stamp taken at the send would hide the stall.
        for (lat, lag) in book.lat_us.iter().zip(&book.lag_us) {
            assert!(lat >= lag, "latency {lat} us below lag {lag} us");
        }
        assert!(book.lat_us.iter().copied().fold(0.0, f64::max) >= 19_000.0);
    }

    #[test]
    fn a_stall_sends_every_overdue_request_at_once() {
        // 1000 req/s on one connection: request k is due at k ms.
        let mut s = Schedule {
            rate: 1000.0,
            conn: 0,
            conns: 1,
            next: 0,
        };
        assert_eq!(s.take_overdue(0, u64::MAX), 0..1);
        // The generator wakes 10.5 ms late: ten requests are overdue and
        // all go out now; their lag is measured from their due times.
        let now = 10_500_000;
        let due = s.take_overdue(now, u64::MAX);
        assert_eq!(due, 1..11);
        let lags: Vec<f64> = due.map(|k| (now - s.due_ns(k)) as f64 / 1e3).collect();
        assert_eq!(lags.first(), Some(&9_500.0));
        assert_eq!(lags.last(), Some(&500.0));
        assert_eq!(s.next_due_ns(), 11_000_000);
    }

    #[test]
    fn connections_interleave_on_one_global_schedule() {
        let a = Schedule {
            rate: 100.0,
            conn: 0,
            conns: 2,
            next: 0,
        };
        let b = Schedule {
            conn: 1,
            ..a.clone()
        };
        // Global requests 0, 1, 2, 3 at 0, 10, 20, 30 ms.
        assert_eq!((a.due_ns(0), b.due_ns(0)), (0, 10_000_000));
        assert_eq!((a.due_ns(1), b.due_ns(1)), (20_000_000, 30_000_000));
    }

    #[test]
    fn nothing_is_scheduled_past_the_end() {
        let mut s = Schedule {
            rate: 1000.0,
            conn: 0,
            conns: 1,
            next: 0,
        };
        assert_eq!(s.take_overdue(u64::MAX / 2, 5_000_000), 0..5);
    }

    #[test]
    fn throughput_spans_first_to_last_reply_across_connections() {
        let mut a = Book {
            done: 3,
            first_done: 1_000_000_000,
            last_done: 1_500_000_000,
            ..Book::default()
        };
        a.merge(Book {
            done: 2,
            first_done: 1_250_000_000,
            last_done: 2_000_000_000,
            ..Book::default()
        });
        // Four intervals between five replies over one second.
        assert_eq!(a.throughput(), 4.0);
        assert_eq!(Book::default().throughput(), 0.0);
    }

    #[test]
    fn failures_count_lost_duplicate_and_unknown_replies() {
        let b = Book {
            sent: 10,
            correct: 7,
            duplicate: 1,
            unknown: 1,
            ..Book::default()
        };
        assert_eq!(b.failed(), 3 + 1 + 1);
    }
}
