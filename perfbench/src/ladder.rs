//! The lower rungs of the layer ladder, called directly through each
//! layer's public functions: the lane kernel, the former, the codec and
//! the tiled runtime. Every call is wrapped in a span.

use crate::inputs::Entry;
use crate::stats::median;
use crate::trace::Tracer;
use ibcf_core::flops::{cholesky_flops_std, compulsory_bytes};
use ibcf_core::lane_batch::factorize_batch_auto_backend;
use ibcf_core::tiled::{factor_store_par, factor_store_seq, TaskGraph, TileStore};
use ibcf_core::{potrf_tiled, Looking};
use ibcf_service::codec::{
    decode_factor_reply, decode_factor_req, encode_factor_req, factor_ok_frame_f32,
    factor_ok_frame_f64,
};
use ibcf_service::former::{form_batch, FormedBatch};
use ibcf_service::request::Pending;
use ibcf_service::{EngineSelector, FactorReply, PackedData, Payload, ReplySink};
use std::sync::mpsc::{sync_channel, Receiver};
use std::time::Instant;

/// Requests ready for the former, with the receiver their sinks reply
/// to (kept alive so the sinks stay connected).
pub fn pendings(entries: &[&Entry]) -> (Vec<Pending>, Receiver<FactorReply>) {
    let (tx, rx) = sync_channel(entries.len().max(1));
    let reqs = entries
        .iter()
        .enumerate()
        .map(|(i, e)| Pending {
            id: i as u64,
            n: e.n,
            payload: e.payload.clone(),
            enqueued: Instant::now(),
            deadline: None,
            sink: ReplySink::channel(tx.clone()),
        })
        .collect();
    (reqs, rx)
}

/// Factorizes a formed batch in place exactly as a service worker does;
/// returns the number of failed matrices.
pub fn factorize(batch: &mut FormedBatch) -> usize {
    let plan = batch.plan;
    match &mut batch.data {
        PackedData::F32(buf) => factorize_batch_auto_backend(
            &batch.layout,
            buf.as_mut_slice(),
            plan.order,
            plan.width,
            plan.backend,
        )
        .failures
        .len(),
        PackedData::F64(buf) => factorize_batch_auto_backend(
            &batch.layout,
            buf.as_mut_slice(),
            plan.order,
            plan.width,
            plan.backend,
        )
        .failures
        .len(),
    }
}

/// Totals of the former and kernel rungs over a set of batches.
#[derive(Debug, Default, Clone)]
pub struct BatchCost {
    pub batches: u64,
    pub live: u64,
    pub form_ns: Vec<f64>,
    pub kernel_ns: Vec<f64>,
    pub flops: f64,
    pub bytes: f64,
    /// Matrices that failed although their input was not planted.
    pub unexpected_failures: u64,
}

impl BatchCost {
    pub fn pack_ns_per_req(&self) -> f64 {
        self.form_ns.iter().sum::<f64>() / self.live.max(1) as f64
    }

    pub fn mats_per_s(&self) -> f64 {
        self.live as f64 / (self.kernel_ns.iter().sum::<f64>() * 1e-9)
    }

    pub fn gflops(&self) -> f64 {
        self.flops / self.kernel_ns.iter().sum::<f64>()
    }

    pub fn bytes_per_mat(&self) -> f64 {
        self.bytes / self.live.max(1) as f64
    }
}

/// Forms and factorizes one batch of `entries` (all one `(n, dtype)`)
/// under the serving engine's heuristic plan.
pub fn form_and_factor(entries: &[&Entry], cost: &mut BatchCost, tracer: &mut Tracer) {
    let (n, dtype) = (entries[0].n, entries[0].dtype);
    let plan = EngineSelector::heuristic().plan(n);
    let (reqs, _rx) = pendings(entries);
    let batch_id = cost.batches;
    let mut batch = tracer.time("former.form_batch", batch_id, || {
        form_batch(n, dtype, reqs, plan)
    });
    let failed = tracer.time("lane.factorize", batch_id, || factorize(&mut batch));
    let planted = entries.iter().filter(|e| e.planted.is_some()).count();
    cost.unexpected_failures += failed.saturating_sub(planted) as u64;
    let spans = &tracer.spans[tracer.spans.len() - 2..];
    cost.form_ns
        .push(spans[0].end_ns.saturating_sub(spans[0].start_ns) as f64);
    cost.kernel_ns
        .push(spans[1].end_ns.saturating_sub(spans[1].start_ns) as f64);
    cost.batches += 1;
    cost.live += entries.len() as u64;
    cost.flops += cholesky_flops_std(n) * entries.len() as f64;
    cost.bytes += (compulsory_bytes(n, dtype.elem_bytes()) * entries.len() as u64) as f64;
}

/// The former's size probe: `form_batch` at each of `sizes` requests,
/// interleaved, alternating which size goes first, with the same number
/// of calls per sample. Returns the median microseconds per call.
pub fn form_probe(entries: &[&Entry], sizes: &[usize], samples: usize, iters: usize) -> Vec<f64> {
    let (n, dtype) = (entries[0].n, entries[0].dtype);
    let plan = EngineSelector::heuristic().plan(n);
    let mut per_size: Vec<Vec<f64>> = vec![Vec::new(); sizes.len()];
    for s in 0..samples {
        for j in 0..sizes.len() {
            let j = if s % 2 == 0 { j } else { sizes.len() - 1 - j };
            let pick: Vec<&Entry> = (0..sizes[j]).map(|i| entries[i % entries.len()]).collect();
            let prepared: Vec<_> = (0..iters).map(|_| pendings(&pick)).collect();
            for (reqs, _rx) in prepared {
                let t = Instant::now();
                let batch = form_batch(n, dtype, reqs, plan);
                per_size[j].push(t.elapsed().as_nanos() as f64 / 1e3);
                drop(batch);
            }
        }
    }
    per_size.iter().map(|v| median(v)).collect()
}

/// Median nanoseconds per codec call on the given inputs.
#[derive(Debug, Default, Clone, Copy)]
pub struct CodecCost {
    pub encode_req: f64,
    pub decode_req: f64,
    pub encode_reply: f64,
    pub decode_reply: f64,
}

/// Times the four codec calls a request and its reply go through.
pub fn codec_probe(entries: &[&Entry], reps: usize, tracer: &mut Tracer) -> CodecCost {
    let mut v = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    for r in 0..reps {
        for (i, e) in entries.iter().enumerate() {
            let id = (r * entries.len() + i) as u64;
            let t0 = tracer.now_ns();
            let body = tracer.time("codec.encode_req", id, || {
                encode_factor_req(id, e.n, 0, &e.payload)
            });
            let t1 = tracer.now_ns();
            let decoded = tracer.time("codec.decode_req", id, || decode_factor_req(&body));
            let t2 = tracer.now_ns();
            let frame = tracer.time("codec.encode_reply", id, || match &e.payload {
                Payload::F32(x) => factor_ok_frame_f32(id, x),
                Payload::F64(x) => factor_ok_frame_f64(id, x),
            });
            let t3 = tracer.now_ns();
            let reply = tracer.time("codec.decode_reply", id, || {
                decode_factor_reply(&frame[5..])
            });
            let t4 = tracer.now_ns();
            assert!(decoded.is_ok() && reply.is_ok(), "codec round trip failed");
            for (k, (a, b)) in [(t0, t1), (t1, t2), (t2, t3), (t3, t4)]
                .into_iter()
                .enumerate()
            {
                v[k].push((b - a) as f64);
            }
        }
    }
    CodecCost {
        encode_req: median(&v[0]),
        decode_req: median(&v[1]),
        encode_reply: median(&v[2]),
        decode_reply: median(&v[3]),
    }
}

/// Wire bytes of one request and its successful reply.
pub fn wire_bytes(e: &Entry) -> f64 {
    (e.frame.len() + 5 + 14 + e.n * e.n * e.dtype.elem_bytes()) as f64
}

/// Median milliseconds of the task-graph runtime's stages on one input.
#[derive(Debug, Default, Clone, Copy)]
pub struct TiledCost {
    pub pack_ms: f64,
    pub exec_seq_ms: f64,
    pub exec_par_ms: f64,
    pub potrf_ms: f64,
    pub tasks: f64,
}

/// The tile edge and loop order the service's large path uses.
pub const LARGE_NB: usize = 32;

fn tiled_reps<T: ibcf_core::Real>(
    n: usize,
    a: &[T],
    reps: usize,
    threads: usize,
    tracer: &mut Tracer,
) -> Result<[Vec<f64>; 4], String> {
    let mut v = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    let ms = |tr: &Tracer| {
        let s = tr.spans.last().unwrap();
        (s.end_ns - s.start_ns) as f64 / 1e6
    };
    let graph = TaskGraph::build(n.div_ceil(LARGE_NB));
    for r in 0..reps as u64 {
        let mut store = tracer.time("tiled.pack", r, || TileStore::pack(n, LARGE_NB, a, n));
        v[0].push(ms(tracer));
        tracer
            .time("tiled.exec_seq", r, || {
                factor_store_seq(&mut store, &graph, Looking::Right)
            })
            .map_err(|e| format!("tiled sequential: {e}"))?;
        v[1].push(ms(tracer));
        let mut store = TileStore::pack(n, LARGE_NB, a, n);
        tracer
            .time("tiled.exec_par", r, || {
                factor_store_par(&mut store, &graph, Looking::Right, threads)
            })
            .map_err(|e| format!("tiled parallel: {e}"))?;
        v[2].push(ms(tracer));
        let mut m = a.to_vec();
        tracer
            .time("tiled.potrf", r, || {
                potrf_tiled(n, &mut m, n, LARGE_NB, Looking::Right)
            })
            .map_err(|e| format!("potrf_tiled: {e}"))?;
        v[3].push(ms(tracer));
    }
    Ok(v)
}

/// Times pack, sequential replay, parallel execution (`threads`
/// workers) and the full `potrf_tiled` call on one large input.
pub fn tiled_probe(
    e: &Entry,
    reps: usize,
    threads: usize,
    tracer: &mut Tracer,
) -> Result<TiledCost, String> {
    let v = match &e.payload {
        Payload::F32(a) => tiled_reps(e.n, a, reps, threads, tracer)?,
        Payload::F64(a) => tiled_reps(e.n, a, reps, threads, tracer)?,
    };
    Ok(TiledCost {
        pack_ms: median(&v[0]),
        exec_seq_ms: median(&v[1]),
        exec_par_ms: median(&v[2]),
        potrf_ms: median(&v[3]),
        tasks: TaskGraph::build(e.n.div_ceil(LARGE_NB)).len() as f64,
    })
}
