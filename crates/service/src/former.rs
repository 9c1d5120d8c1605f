//! Deadline-based batch forming: the host analogue of wave quantization.
//!
//! Tiny Cholesky factorizations only pay off executed thousands at a time
//! (the paper's entire premise), but requests arrive one by one. The
//! former holds arrivals in per-`(n, dtype)` groups and flushes a group
//! when it reaches the size threshold (occupancy wins) or when its oldest
//! request has waited `max_delay` (latency wins) — the same trade the GPU
//! makes when a partially-filled last wave ships anyway.
//!
//! A flushed group is assembled by the **fused ingest** path: each
//! request's column-major payload is scattered *once*, directly into a
//! 128-byte-aligned ([`AlignedVec`]) buffer already in the interleave the
//! [`EnginePlan`] chose, and the tail is identity-padded in place — so
//! the worker's factorization runs the in-place lane engine with every
//! group full and no scalar tail, and no element of a payload is copied
//! more than once. The property tests pin it bitwise to the reference
//! stage-into-canonical-then-`pack_batch_host` round trip.

use crate::engine::{EnginePlan, EngineSelector};
use crate::fault::{FaultAction, FaultHook, FaultSite};
use crate::queue::IngestQueue;
use crate::request::{Dtype, FactorReply, Outcome, Payload, Pending, RejectReason};
use crate::stats::ServiceStats;
use ibcf_core::Real;
use ibcf_layout::{alloc_batch, scatter_batch_affine, AlignedVec, BatchLayout, Layout};
use std::collections::HashMap;
use std::sync::mpsc::SyncSender;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Batch-forming policy.
#[derive(Debug, Clone, Copy)]
pub struct FormerConfig {
    /// Flush a group as soon as it holds this many live requests.
    pub max_batch: usize,
    /// Flush a group once its oldest request has waited this long.
    pub max_delay: Duration,
    /// How far *before* a member's deadline its group is flushed, so the
    /// worker has a chance to finish inside the deadline instead of the
    /// former holding the request until the deadline itself.
    pub deadline_margin: Duration,
}

impl Default for FormerConfig {
    fn default() -> Self {
        FormerConfig {
            max_batch: 1024,
            max_delay: Duration::from_millis(1),
            deadline_margin: Duration::from_micros(200),
        }
    }
}

/// A packed, ready-to-factorize buffer in either precision.
pub enum PackedData {
    /// Single-precision batch.
    F32(AlignedVec<f32>),
    /// Double-precision batch.
    F64(AlignedVec<f64>),
}

impl std::fmt::Debug for PackedData {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PackedData::F32(v) => write!(f, "PackedData::F32(len {})", v.len()),
            PackedData::F64(v) => write!(f, "PackedData::F64(len {})", v.len()),
        }
    }
}

/// One formed batch: matrix `i` of the packed buffer belongs to
/// `reqs[i]`; slots `reqs.len()..slots` are identity padding.
#[derive(Debug)]
pub struct FormedBatch {
    /// Matrix dimension.
    pub n: usize,
    /// Element type.
    pub dtype: Dtype,
    /// Engine parameters the worker must run with.
    pub plan: EnginePlan,
    /// The packed layout (`batch() == slots`).
    pub layout: Layout,
    /// The packed, aligned buffer.
    pub data: PackedData,
    /// The requests, in matrix order.
    pub reqs: Vec<Pending>,
    /// Lane-rounded slot count (live + identity padding).
    pub slots: usize,
}

/// Scatters each request's payload **once**, directly into a fresh
/// 128-byte-aligned buffer already in the plan's interleave, then
/// identity-pads the tail in place. The buffer comes from [`alloc_batch`]
/// zero-initialized, so padding only needs the diagonal ones — every
/// off-diagonal element of a padding slot (and of the layout's own
/// padding beyond `slots`) is already zero. The scatter itself is the
/// lane-blocked [`scatter_batch_affine`], which writes the interleaved
/// buffer as one sequential stream instead of a strided pass per
/// request.
fn pack_group<T: Real>(
    n: usize,
    reqs: &[Pending],
    plan: EnginePlan,
    elems: impl Fn(&Payload) -> &[T],
) -> (Layout, AlignedVec<T>, usize) {
    let lanes = plan.lanes::<T>();
    let slots = reqs.len().div_ceil(lanes) * lanes;
    let layout = plan.layout(n, slots);
    let mut packed = alloc_batch::<T, _>(&layout);
    let mats: Vec<&[T]> = reqs.iter().map(|req| elems(&req.payload)).collect();
    scatter_batch_affine(&layout, packed.as_mut_slice(), &mats, n);
    for mat in reqs.len()..slots {
        for d in 0..n {
            let at = layout.addr(mat, d, d);
            packed[at] = T::ONE;
        }
    }
    (layout, packed, slots)
}

/// Builds a [`FormedBatch`] from one flushed group: each payload is
/// scattered once into the plan's interleave and the tail lane group is
/// identity-padded.
pub fn form_batch(n: usize, dtype: Dtype, reqs: Vec<Pending>, plan: EnginePlan) -> FormedBatch {
    let (layout, data, slots) = match dtype {
        Dtype::F32 => {
            let (layout, packed, slots) = pack_group::<f32>(n, &reqs, plan, |p| match p {
                Payload::F32(v) => v.as_slice(),
                Payload::F64(_) => unreachable!("group mixed dtypes"),
            });
            (layout, PackedData::F32(packed), slots)
        }
        Dtype::F64 => {
            let (layout, packed, slots) = pack_group::<f64>(n, &reqs, plan, |p| match p {
                Payload::F64(v) => v.as_slice(),
                Payload::F32(_) => unreachable!("group mixed dtypes"),
            });
            (layout, PackedData::F64(packed), slots)
        }
    };
    FormedBatch {
        n,
        dtype,
        plan,
        layout,
        data,
        reqs,
        slots,
    }
}

struct Group {
    reqs: Vec<Pending>,
    oldest: Instant,
    /// Soonest member deadline, if any member has one: the flush clock
    /// tightens to it so deadline-carrying requests are packed early
    /// enough to finish in time.
    tightest: Option<Instant>,
}

impl Group {
    fn flush_at(&self, config: &FormerConfig) -> Instant {
        let by_delay = self.oldest + config.max_delay;
        match self.tightest {
            Some(t) => by_delay.min(t.checked_sub(config.deadline_margin).unwrap_or(t)),
            None => by_delay,
        }
    }
}

/// Sheds a request whose deadline already passed: the caller promised it
/// would never pay for a factorization it can't use.
fn shed(p: Pending, stats: &ServiceStats) {
    let id = p.id;
    p.sink.send(FactorReply {
        id,
        outcome: Outcome::Rejected(RejectReason::DeadlineExceeded),
    });
    // Counters bump after delivery: `Client::drained` counts
    // `deadline_expired` as an answered admitted request.
    stats
        .deadline_expired
        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    stats
        .rejected
        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
}

fn expired(p: &Pending, now: Instant) -> bool {
    p.deadline.is_some_and(|d| now >= d)
}

/// The former thread body: drains the ingest queue into per-`(n, dtype)`
/// groups, flushes on size or deadline, and hands formed batches to the
/// worker pool. Requests whose deadline has already passed are shed with
/// [`RejectReason::DeadlineExceeded`] *before* packing — dead work never
/// reaches a worker. Returns when the queue closes and every group
/// flushed.
pub fn run_former(
    queue: Arc<IngestQueue>,
    selector: EngineSelector,
    config: FormerConfig,
    stats: Arc<ServiceStats>,
    out: SyncSender<FormedBatch>,
    hook: FaultHook,
) {
    let mut groups: HashMap<(usize, Dtype), Group> = HashMap::new();
    let flush = |key: (usize, Dtype), group: Group, out: &SyncSender<FormedBatch>| {
        let (n, dtype) = key;
        // Last-gasp shed: members can expire while the group waits.
        let now = Instant::now();
        let (live, dead): (Vec<Pending>, Vec<Pending>) =
            group.reqs.into_iter().partition(|p| !expired(p, now));
        for p in dead {
            shed(p, &stats);
        }
        if live.is_empty() {
            return;
        }
        let plan = selector.plan(n);
        let batch = form_batch(n, dtype, live, plan);
        stats.record_batch(batch.reqs.len(), batch.slots);
        if let Err(send_err) = out.send(batch) {
            // Workers are gone (shutdown race): fail the requests rather
            // than dropping them silently.
            for req in send_err.0.reqs {
                stats
                    .rejected
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                req.sink.send(FactorReply {
                    id: req.id,
                    outcome: Outcome::Rejected(RejectReason::ShuttingDown),
                });
            }
        }
    };
    loop {
        if let Some(FaultAction::Delay(d)) = hook.check(FaultSite::FormerDrain) {
            // Injected queue stall: the former goes dark for a moment,
            // letting the ingest queue back up behind it.
            std::thread::sleep(d);
        }
        let deadline = groups.values().map(|g| g.flush_at(&config)).min();
        let (items, closed) = queue.drain_until(deadline);
        let now = Instant::now();
        for p in items {
            if expired(&p, now) {
                shed(p, &stats);
                continue;
            }
            let key = (p.n, p.payload.dtype());
            let group = groups.entry(key).or_insert_with(|| Group {
                oldest: p.enqueued,
                reqs: Vec::new(),
                tightest: None,
            });
            if group.reqs.is_empty() {
                group.oldest = p.enqueued;
                group.tightest = None;
            }
            group.tightest = match (group.tightest, p.deadline) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            group.reqs.push(p);
            if group.reqs.len() >= config.max_batch {
                let group = groups.remove(&key).expect("just inserted");
                flush(key, group, &out);
            }
        }
        let now = Instant::now();
        let due: Vec<(usize, Dtype)> = groups
            .iter()
            .filter(|(_, g)| closed || g.flush_at(&config) <= now)
            .map(|(&k, _)| k)
            .collect();
        for key in due {
            let group = groups.remove(&key).expect("listed above");
            flush(key, group, &out);
        }
        if closed && groups.is_empty() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{Payload, ReplySink};
    use ibcf_layout::gather_matrix;
    use std::sync::mpsc::sync_channel;

    fn req(id: u64, n: usize, value: f32) -> Pending {
        Pending {
            id,
            n,
            payload: Payload::F32(vec![value; n * n]),
            enqueued: Instant::now(),
            deadline: None,
            sink: ReplySink::boxed(|_| {}),
        }
    }

    #[test]
    fn formed_batch_pads_tail_with_identity() {
        let n = 4;
        let plan = EngineSelector::heuristic().plan(n);
        let lanes = plan.lanes::<f32>();
        let reqs: Vec<Pending> = (0..lanes + 3).map(|i| req(i as u64, n, i as f32)).collect();
        let batch = form_batch(n, Dtype::F32, reqs, plan);
        assert_eq!(batch.slots, 2 * lanes);
        assert_eq!(batch.layout.batch(), 2 * lanes);
        let data = match &batch.data {
            PackedData::F32(v) => v,
            _ => unreachable!(),
        };
        let mut m = vec![0.0f32; n * n];
        // Live matrices carry their payloads...
        gather_matrix(&batch.layout, data.as_slice(), 2, &mut m, n);
        assert!(m.iter().all(|&x| x == 2.0));
        // ...padding slots are exact identities.
        for pad in batch.reqs.len()..batch.slots {
            gather_matrix(&batch.layout, data.as_slice(), pad, &mut m, n);
            for col in 0..n {
                for row in 0..n {
                    let want = if row == col { 1.0 } else { 0.0 };
                    assert_eq!(m[col * n + row], want, "pad {pad} ({row},{col})");
                }
            }
        }
    }

    #[test]
    fn packed_buffers_are_128_byte_aligned() {
        // Alignment regression: workers must get a buffer whose base sits
        // on a 128-byte boundary so lane blocks never split cache lines.
        use ibcf_layout::BUFFER_ALIGN;
        let n = 8;
        let plan = EngineSelector::heuristic().plan(n);
        let reqs: Vec<Pending> = (0..21).map(|i| req(i as u64, n, 1.0)).collect();
        let batch = form_batch(n, Dtype::F32, reqs, plan);
        let ptr = match &batch.data {
            PackedData::F32(v) => v.as_slice().as_ptr() as usize,
            _ => unreachable!(),
        };
        assert_eq!(ptr % BUFFER_ALIGN, 0);
        let reqs: Vec<Pending> = (0..3)
            .map(|i| Pending {
                id: i,
                n,
                payload: Payload::F64(vec![1.0; n * n]),
                enqueued: Instant::now(),
                deadline: None,
                sink: ReplySink::boxed(|_| {}),
            })
            .collect();
        let batch = form_batch(n, Dtype::F64, reqs, plan);
        let ptr = match &batch.data {
            PackedData::F64(v) => v.as_slice().as_ptr() as usize,
            _ => unreachable!(),
        };
        assert_eq!(ptr % BUFFER_ALIGN, 0, "f64");
    }

    #[test]
    fn former_flushes_on_size_threshold() {
        let queue = Arc::new(IngestQueue::new(4096));
        let stats = Arc::new(ServiceStats::default());
        let (tx, rx) = sync_channel(8);
        let config = FormerConfig {
            max_batch: 32,
            max_delay: Duration::from_secs(3600), // deadline never fires
            ..FormerConfig::default()
        };
        let (q2, s2) = (queue.clone(), stats.clone());
        let handle = std::thread::spawn(move || {
            run_former(
                q2,
                EngineSelector::heuristic(),
                config,
                s2,
                tx,
                FaultHook::disabled(),
            )
        });
        for i in 0..64 {
            queue.try_push(req(i, 8, 1.0)).unwrap();
        }
        let a = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        let b = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(a.reqs.len(), 32);
        assert_eq!(b.reqs.len(), 32);
        queue.close();
        handle.join().unwrap();
        assert_eq!(stats.batches.load(std::sync::atomic::Ordering::Relaxed), 2);
    }

    #[test]
    fn former_flushes_on_deadline_and_groups_by_key() {
        let queue = Arc::new(IngestQueue::new(4096));
        let stats = Arc::new(ServiceStats::default());
        let (tx, rx) = sync_channel(8);
        let config = FormerConfig {
            max_batch: 1024, // size threshold never fires
            max_delay: Duration::from_millis(10),
            ..FormerConfig::default()
        };
        let (q2, s2) = (queue.clone(), stats.clone());
        let handle = std::thread::spawn(move || {
            run_former(
                q2,
                EngineSelector::heuristic(),
                config,
                s2,
                tx,
                FaultHook::disabled(),
            )
        });
        // Two sizes and one f64 request: three distinct groups.
        for i in 0..5 {
            queue.try_push(req(i, 8, 1.0)).unwrap();
        }
        for i in 5..8 {
            queue.try_push(req(i, 16, 1.0)).unwrap();
        }
        queue
            .try_push(Pending {
                id: 8,
                n: 8,
                payload: Payload::F64(vec![0.0; 64]),
                enqueued: Instant::now(),
                deadline: None,
                sink: ReplySink::boxed(|_| {}),
            })
            .unwrap();
        let mut batches = Vec::new();
        for _ in 0..3 {
            batches.push(rx.recv_timeout(Duration::from_secs(5)).unwrap());
        }
        queue.close();
        handle.join().unwrap();
        let mut keys: Vec<(usize, Dtype, usize)> = batches
            .iter()
            .map(|b| (b.n, b.dtype, b.reqs.len()))
            .collect();
        keys.sort();
        assert_eq!(
            keys,
            vec![(8, Dtype::F32, 5), (8, Dtype::F64, 1), (16, Dtype::F32, 3)]
        );
    }

    #[test]
    fn expired_requests_are_shed_before_packing() {
        let queue = Arc::new(IngestQueue::new(4096));
        let stats = Arc::new(ServiceStats::default());
        let (tx, rx) = sync_channel(8);
        let config = FormerConfig {
            max_batch: 4,
            max_delay: Duration::from_secs(3600),
            ..FormerConfig::default()
        };
        let (q2, s2) = (queue.clone(), stats.clone());
        let handle = std::thread::spawn(move || {
            run_former(
                q2,
                EngineSelector::heuristic(),
                config,
                s2,
                tx,
                FaultHook::disabled(),
            )
        });
        let (reply_tx, reply_rx) = sync_channel(8);
        // Two requests whose deadline already passed, then enough live
        // ones to trip the size threshold.
        for id in [100u64, 101] {
            let rt = reply_tx.clone();
            queue
                .try_push(Pending {
                    id,
                    n: 8,
                    payload: Payload::F32(vec![0.0; 64]),
                    enqueued: Instant::now(),
                    deadline: Some(Instant::now() - Duration::from_millis(1)),
                    sink: ReplySink::boxed(move |r| rt.send(r).unwrap()),
                })
                .unwrap();
        }
        for i in 0..4 {
            queue.try_push(req(i, 8, 1.0)).unwrap();
        }
        let batch = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        let ids: Vec<u64> = batch.reqs.iter().map(|p| p.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3], "expired requests never packed");
        for _ in 0..2 {
            let r = reply_rx.recv_timeout(Duration::from_secs(5)).unwrap();
            assert!(r.id >= 100);
            assert_eq!(r.outcome, Outcome::Rejected(RejectReason::DeadlineExceeded));
        }
        queue.close();
        handle.join().unwrap();
        use std::sync::atomic::Ordering;
        assert_eq!(stats.deadline_expired.load(Ordering::Relaxed), 2);
        assert_eq!(stats.rejected.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn tightest_member_deadline_advances_the_flush() {
        let queue = Arc::new(IngestQueue::new(4096));
        let stats = Arc::new(ServiceStats::default());
        let (tx, rx) = sync_channel(8);
        let config = FormerConfig {
            max_batch: 1024,                      // size never fires
            max_delay: Duration::from_secs(3600), // age never fires
            deadline_margin: Duration::from_millis(5),
        };
        let (q2, s2) = (queue.clone(), stats.clone());
        let handle = std::thread::spawn(move || {
            run_former(
                q2,
                EngineSelector::heuristic(),
                config,
                s2,
                tx,
                FaultHook::disabled(),
            )
        });
        let mut p = req(7, 8, 1.0);
        let deadline = Instant::now() + Duration::from_millis(40);
        p.deadline = Some(deadline);
        queue.try_push(p).unwrap();
        // Without deadline propagation this would sit for an hour; the
        // member deadline must flush it (margin early) while still live.
        let batch = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(
            Instant::now() < deadline,
            "flushed before the member deadline, not at max_delay"
        );
        assert_eq!(batch.reqs.len(), 1);
        assert_eq!(batch.reqs[0].id, 7);
        queue.close();
        handle.join().unwrap();
    }
}
