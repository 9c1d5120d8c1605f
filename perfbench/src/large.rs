//! `large-n512`: closed loop over TCP to one `serve` process, every
//! request a `FactorizeLarge` at n = 512 f32 (a 1 MiB payload).

use crate::gen::{Arrival, Plan};
use crate::inputs::{mix, Inputs};
use crate::ladder;
use crate::measure::{p99_diagnostic, rung, serve_untraced, Setup};
use crate::report::Report;
use crate::server::ServerProc;
use crate::stats::tail;
use crate::trace::Tracer;
use crate::wire::{connect_all, InProcTransport};
use crate::Ctx;
use ibcf_service::{Dtype, EngineSelector, Service, ServiceConfig};
use std::time::Instant;

const N: usize = 512;
const CONNS: u64 = 2;
const POOL: usize = 4;

struct Load {
    inputs: Inputs,
    pool: Vec<usize>,
    seed: u64,
}

impl Load {
    fn new(seed: u64) -> Result<Self, String> {
        let mut inputs = Inputs::new();
        let pool = inputs.add(seed, N, Dtype::F32, true, false, POOL)?;
        Ok(Load { inputs, pool, seed })
    }

    fn pick(&self, id: u64) -> usize {
        self.pool[(mix(self.seed, id) % POOL as u64) as usize]
    }
}

pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let load = Load::new(ctx.seed)?;
    report.note(
        "pinning: unpinned (the task graph runs on every CPU; the generator waits on replies)",
    );
    if ctx.trace {
        traced(ctx, &load, report)
    } else {
        untraced(ctx, &load, report)
    }
}

fn untraced(ctx: &Ctx, load: &Load, report: &mut Report) -> Result<(), String> {
    let setup = Setup {
        serve_args: &[],
        server_cpus: None,
        generator_cpus: &[],
        arrival: Arrival::Closed { window: 1 },
        conns: CONNS,
        sample_every: 1,
    };
    serve_untraced(ctx, &setup, &load.inputs, &|id| load.pick(id), report)
}

fn traced(ctx: &Ctx, load: &Load, report: &mut Report) -> Result<(), String> {
    let rung_s = (ctx.seconds * 0.25).max(1.0);
    let mut tracer = Tracer::new(Instant::now());
    let entry = &load.inputs.entries[load.pool[0]];
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(16);
    let tiled = ladder::tiled_probe(entry, 6, threads, &mut tracer)?;
    let codec = ladder::codec_probe(&[entry], 6, &mut tracer);
    let pick = |id| load.pick(id);
    let plan = Plan::new(Arrival::Closed { window: 1 }, CONNS, 0.5, rung_s);

    let service = Service::start(ServiceConfig::default(), EngineSelector::heuristic());
    let transports = (0..CONNS)
        .map(|_| InProcTransport::new(service.client(), 1))
        .collect();
    let inproc = rung(
        transports,
        &plan,
        &load.inputs,
        &pick,
        Some(("inproc.request", "inproc.submit")),
        &[],
        &mut tracer,
        report,
    )?;
    service.shutdown();

    let server =
        ServerProc::launch(&ctx.ibcf, &[], None).map_err(|e| format!("launching serve: {e}"))?;
    let mut runs = Vec::new();
    for names in [Some(("tcp.request", "tcp.send")), None] {
        let transports = connect_all(&server.addr, CONNS).map_err(|e| e.to_string())?;
        runs.push(rung(
            transports,
            &plan,
            &load.inputs,
            &pick,
            names,
            &[],
            &mut tracer,
            report,
        )?);
    }
    let stats = server.stats().map_err(|e| format!("stats: {e}"))?;
    server.shutdown().map_err(|e| format!("shutdown: {e}"))?;

    let inproc_lat = tail(&inproc.lat_us);
    let (traced_p50, tcp_p50) = (tail(&runs[0].lat_us).p50, tail(&runs[1].lat_us).p50);
    p99_diagnostic(&runs[1].lat_us, report);
    report.set("former.occupancy", stats.mean_occupancy);
    report.set("former.batches", stats.batches as f64);
    report.set("service.rejected", stats.rejected as f64);
    report.set("service.submit_reply_us_p50", inproc_lat.p50);
    report.set("service.submit_reply_us_p99", inproc_lat.tail);
    report.set("service.wait_us", inproc_lat.p50 - tiled.potrf_ms * 1e3);
    report.set("wire.tcp_overhead_us_p50", tcp_p50 - inproc_lat.p50);
    report.set("wire.encode_ns_per_req", codec.encode_req);
    report.set("wire.decode_ns_per_reply", codec.decode_reply);
    report.set("wire.bytes_per_req", ladder::wire_bytes(entry));
    report.set("tiled.pack_ms", tiled.pack_ms);
    report.set("tiled.exec_seq_ms", tiled.exec_seq_ms);
    report.set("tiled.exec_par_ms", tiled.exec_par_ms);
    report.set("tiled.par_speedup", tiled.exec_seq_ms / tiled.exec_par_ms);
    report.set("tiled.tasks", tiled.tasks);
    report.set("tiled.serve_wait_ms", tcp_p50 / 1e3 - tiled.potrf_ms);

    // Attribution of the median request: the task graph, the service's
    // own share, the codec calls; TCP beyond the codec is unattributed.
    let tiled_us = tiled.potrf_ms * 1e3;
    let service_us = inproc_lat.p50 - tiled_us;
    let codec_us = (codec.decode_req + codec.encode_reply) / 1e3;
    let unattributed = tcp_p50 - (tiled_us + service_us + codec_us);
    report.set("attrib.unattributed_frac", unattributed / tcp_p50);
    report.set("trace.overhead_frac", traced_p50 / tcp_p50 - 1.0);
    report.note(format!(
        "attribution (us, median request): end-to-end {tcp_p50:.0} = tiled {tiled_us:.0} + service {service_us:.0} \
         + codec {codec_us:.0} + unattributed {unattributed:.0}; codec share {:.1}%",
        100.0 * codec_us / tcp_p50
    ));
    report.note(format!(
        "tiled n={N}: pack {:.2} ms, seq {:.2} ms, par {:.2} ms on {threads} threads, potrf_tiled {:.2} ms, {} tasks",
        tiled.pack_ms, tiled.exec_seq_ms, tiled.exec_par_ms, tiled.potrf_ms, tiled.tasks
    ));
    report.note(format!("spans: {}", tracer.summary()));
    Ok(())
}
