//! `steady-n16`: closed loop over TCP to one pinned `serve` process,
//! every request n = 16 f32 under the heuristic (chunked-64) plan.

use crate::gen::{Arrival, Plan};
use crate::inputs::{mix, Entry, Inputs};
use crate::ladder::{self, BatchCost};
use crate::measure::{p99_diagnostic, rung, serve_untraced, Setup};
use crate::report::Report;
use crate::server::ServerProc;
use crate::stats::{median, tail};
use crate::sys::{pin_current_thread, Pinning};
use crate::trace::Tracer;
use crate::wire::{connect_all, InProcTransport};
use crate::Ctx;
use ibcf_service::{Dtype, EngineSelector, Service, ServiceConfig};
use std::time::Instant;

const N: usize = 16;
const CONNS: u64 = 2;
const WINDOW: usize = 512;
const POOL: usize = 256;
const SERVE_ARGS: &[&str] = &["--workers", "1"];

struct Load {
    inputs: Inputs,
    pool: Vec<usize>,
    seed: u64,
}

impl Load {
    fn new(seed: u64) -> Result<Self, String> {
        let mut inputs = Inputs::new();
        let pool = inputs.add(seed, N, Dtype::F32, false, false, POOL)?;
        Ok(Load { inputs, pool, seed })
    }

    fn pick(&self, id: u64) -> usize {
        self.pool[(mix(self.seed, id) % POOL as u64) as usize]
    }

    fn entries(&self, count: usize) -> Vec<&Entry> {
        (0..count as u64)
            .map(|i| &self.inputs.entries[self.pick(i)])
            .collect()
    }
}

pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let load = Load::new(ctx.seed)?;
    let pin = Pinning::split();
    report.note(format!("pinning: {}", pin.describe()));
    if ctx.trace {
        traced(ctx, &load, &pin, report)
    } else {
        untraced(ctx, &load, &pin, report)
    }
}

fn untraced(ctx: &Ctx, load: &Load, pin: &Pinning, report: &mut Report) -> Result<(), String> {
    let setup = Setup {
        serve_args: SERVE_ARGS,
        server_cpus: pin.server_list(),
        generator_cpus: &pin.generator,
        arrival: Arrival::Closed { window: WINDOW },
        conns: CONNS,
        sample_every: 16,
    };
    serve_untraced(ctx, &setup, &load.inputs, &|id| load.pick(id), report)
}

fn traced(ctx: &Ctx, load: &Load, pin: &Pinning, report: &mut Report) -> Result<(), String> {
    let rung_s = (ctx.seconds * 0.25).max(1.0);
    let mut tracer = Tracer::new(Instant::now());
    let pick = |id| load.pick(id);

    // Kernel and former rungs, on the server's CPUs: full 1024-request
    // batches of the workload's inputs.
    pin_current_thread(&pin.server);
    let batch = load.entries(1024);
    let mut cost = BatchCost::default();
    let t = Instant::now();
    while t.elapsed().as_secs_f64() < rung_s * 0.5 || cost.batches < 5 {
        ladder::form_and_factor(&batch, &mut cost, &mut tracer);
    }
    if cost.unexpected_failures > 0 {
        report.violation(format!(
            "{} kernel-rung matrices failed",
            cost.unexpected_failures
        ));
    }
    let kernel_us = median(&cost.kernel_ns) / 1e3;
    let former_us = median(&cost.form_ns) / 1e3;
    report.set("lane.mats_per_s", 1024.0 / (kernel_us * 1e-6));
    report.set("lane.gflops", cost.gflops());
    report.set("lane.bytes_per_mat", cost.bytes_per_mat());
    report.set("former.pack_ns_per_req", former_us * 1e3 / 1024.0);
    let probe = ladder::form_probe(&load.entries(1031), &[1024, 1031], 8, 16);
    report.set("former.form1024_us", probe[0]);
    report.set("former.form1031_us", probe[1]);
    report.note(format!(
        "former size probe: form_batch 1024 -> {:.1} us, 1031 -> {:.1} us (ratio {:.2}, 8 interleaved samples x 16 calls)",
        probe[0],
        probe[1],
        probe[0] / probe[1]
    ));
    let codec = ladder::codec_probe(&load.entries(256), 4, &mut tracer);
    pin_current_thread(&[]);

    // In-process rung: the same closed loop through the service Client,
    // service threads on the server's CPUs.
    pin_current_thread(&pin.server);
    let service = Service::start(ServiceConfig::default(), EngineSelector::heuristic());
    pin_current_thread(&[]);
    let plan = Plan::new(Arrival::Closed { window: WINDOW }, CONNS, 0.5, rung_s);
    let transports = (0..CONNS)
        .map(|_| InProcTransport::new(service.client(), WINDOW))
        .collect();
    let inproc = rung(
        transports,
        &plan,
        &load.inputs,
        &pick,
        Some(("inproc.request", "inproc.submit")),
        &pin.generator,
        &mut tracer,
        report,
    )?;
    service.shutdown();
    let inproc_lat = tail(&inproc.lat_us);
    let inproc_thr = inproc.throughput();

    // TCP rung, traced and then untraced, against one pinned server.
    let list = pin.server_list();
    let server = ServerProc::launch(&ctx.ibcf, SERVE_ARGS, list.as_deref())
        .map_err(|e| format!("launching serve: {e}"))?;
    let mut tcp_runs = Vec::new();
    for names in [Some(("tcp.request", "tcp.send")), None] {
        let transports = connect_all(&server.addr, CONNS).map_err(|e| e.to_string())?;
        tcp_runs.push(rung(
            transports,
            &plan,
            &load.inputs,
            &pick,
            names,
            &pin.generator,
            &mut tracer,
            report,
        )?);
    }
    let stats = server.stats().map_err(|e| format!("stats: {e}"))?;
    server.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    let (traced_thr, untraced_thr) = (tcp_runs[0].throughput(), tcp_runs[1].throughput());
    let tcp_lat = tail(&tcp_runs[1].lat_us);

    p99_diagnostic(&tcp_runs[1].lat_us, report);
    report.set("former.occupancy", stats.mean_occupancy);
    report.set("former.batches", stats.batches as f64);
    report.set("service.rejected", stats.rejected as f64);
    report.set("service.submit_reply_us_p50", inproc_lat.p50);
    report.set("service.submit_reply_us_p99", inproc_lat.tail);
    report.set("service.wait_us", inproc_lat.p50 - former_us - kernel_us);
    report.set("wire.tcp_overhead_us_p50", tcp_lat.p50 - inproc_lat.p50);
    report.set("wire.encode_ns_per_req", codec.encode_req);
    report.set("wire.decode_ns_per_reply", codec.decode_reply);
    report.set(
        "wire.bytes_per_req",
        ladder::wire_bytes(&load.inputs.entries[load.pool[0]]),
    );

    // Attribution per request at saturation: the server core's time per
    // request, against the layers measured on their own. The wire layer
    // is represented by the server-side codec calls only.
    let e2e_ns = 1e9 / untraced_thr;
    let kernel_ns = kernel_us * 1e3 / 1024.0;
    let former_ns = former_us * 1e3 / 1024.0;
    let service_ns = 1e9 / inproc_thr - kernel_ns - former_ns;
    let codec_ns = codec.decode_req + codec.encode_reply;
    let unattributed = e2e_ns - (kernel_ns + former_ns + service_ns + codec_ns);
    report.set("attrib.unattributed_frac", unattributed / e2e_ns);
    report.set("trace.overhead_frac", untraced_thr / traced_thr - 1.0);
    report.note(format!(
        "attribution (ns/request at saturation): end-to-end {e2e_ns:.0} = kernel {kernel_ns:.0} + former {former_ns:.0} \
         + service {service_ns:.0} + codec {codec_ns:.0} + unattributed {unattributed:.0}"
    ));
    report.note(format!(
        "rungs: in-process {inproc_thr:.0}/s p50 {:.0} us; tcp {untraced_thr:.0}/s p50 {:.0} us (traced {traced_thr:.0}/s)",
        inproc_lat.p50, tcp_lat.p50
    ));
    report.note(format!("spans: {}", tracer.summary()));
    Ok(())
}
