//! `fleet-mixed`: open loop at a fixed rate over TCP to a router with
//! two shard processes; twelve `(n, dtype)` groups, planted non-SPD
//! requests, and rare large requests.

use crate::gen::{Arrival, Plan, Schedule};
use crate::inputs::{mix, Entry, Inputs};
use crate::ladder::{self, BatchCost};
use crate::measure::{p99_diagnostic, rung, serve_untraced, Setup};
use crate::report::Report;
use crate::server::{respawns, ServerProc};
use crate::stats::{median, tail};
use crate::trace::Tracer;
use crate::wire::{connect_all, InProcTransport};
use crate::Ctx;
use ibcf_service::{Dtype, EngineSelector, Service, ServiceConfig};
use std::collections::BTreeMap;
use std::time::Instant;

/// Offered load, requests per second.
pub const RATE: f64 = 10_000.0;
const CONNS: u64 = 2;
const SIZES: [usize; 6] = [4, 8, 12, 16, 24, 32];
const DTYPES: [Dtype; 2] = [Dtype::F32, Dtype::F64];
const POOL: usize = 256;
const PLANTED_POOL: usize = 8;
const LARGE_N: usize = 128;
const LARGE_POOL: usize = 4;
const LARGE_EVERY: u64 = 500;
const PLANT_EVERY: u64 = 1000;
const FLEET_ARGS: &[&str] = &["--procs", "2"];

struct Load {
    inputs: Inputs,
    normal: Vec<Vec<usize>>,
    planted: Vec<Vec<usize>>,
    large: Vec<usize>,
    seed: u64,
    large_at: u64,
    plant_at: u64,
}

impl Load {
    fn new(seed: u64) -> Result<Self, String> {
        let mut inputs = Inputs::new();
        let (mut normal, mut planted) = (Vec::new(), Vec::new());
        for &dtype in &DTYPES {
            for &n in &SIZES {
                normal.push(inputs.add(seed, n, dtype, false, false, POOL)?);
                planted.push(inputs.add(seed, n, dtype, false, true, PLANTED_POOL)?);
            }
        }
        let large = inputs.add(seed, LARGE_N, Dtype::F32, true, false, LARGE_POOL)?;
        let large_at = mix(seed, 1) % LARGE_EVERY;
        Ok(Load {
            inputs,
            normal,
            planted,
            large,
            seed,
            large_at,
            // Half a period away from the large slots, so the two never
            // coincide.
            plant_at: (large_at + LARGE_EVERY / 2) % PLANT_EVERY,
        })
    }

    /// Request `id`: group `id mod 12`; 1 in 500 large, 1 in 1000
    /// planted.
    fn pick(&self, id: u64) -> usize {
        let h = mix(self.seed, id);
        if id % LARGE_EVERY == self.large_at {
            return self.large[(h % LARGE_POOL as u64) as usize];
        }
        let group = (id % self.normal.len() as u64) as usize;
        if id % PLANT_EVERY == self.plant_at {
            return self.planted[group][(h % PLANTED_POOL as u64) as usize];
        }
        self.normal[group][(h % POOL as u64) as usize]
    }
}

fn open_plan(warm_s: f64, seconds: f64) -> Plan {
    Plan {
        sample_every: 4,
        ..Plan::new(Arrival::Open { rate: RATE }, CONNS, warm_s, seconds)
    }
}

pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let load = Load::new(ctx.seed)?;
    report.note("pinning: unpinned (router and two shard processes share the host)");
    if ctx.trace {
        traced(ctx, &load, report)
    } else {
        untraced(ctx, &load, report)
    }
}

fn check_fleet(server: ServerProc, report: &mut Report) -> Result<u64, String> {
    let out = server.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    let n = respawns(&out).ok_or("fleet shutdown report lacks the respawn count")?;
    if n > 0 {
        report.violation(format!("{n} shard process(es) respawned"));
    }
    Ok(n)
}

fn untraced(ctx: &Ctx, load: &Load, report: &mut Report) -> Result<(), String> {
    let setup = Setup {
        serve_args: FLEET_ARGS,
        server_cpus: None,
        generator_cpus: &[],
        arrival: Arrival::Open { rate: RATE },
        conns: CONNS,
        sample_every: 4,
    };
    serve_untraced(ctx, &setup, &load.inputs, &|id| load.pick(id), report)
}

/// The batches the former would flush under this traffic: requests of
/// one group whose due times share a 1 ms flush window.
fn replay_batches(load: &Load, seconds: f64) -> Vec<Vec<&Entry>> {
    let mut sched = Schedule {
        rate: RATE,
        conn: 0,
        conns: 1,
        next: 0,
    };
    let end = (seconds * 1e9) as u64;
    let mut groups: BTreeMap<(u64, usize, u8), Vec<&Entry>> = BTreeMap::new();
    for id in sched.take_overdue(end, end) {
        let e = &load.inputs.entries[load.pick(id)];
        if !e.large {
            let window = sched.due_ns(id) / 1_000_000;
            groups
                .entry((window, e.n, e.dtype.to_u8()))
                .or_default()
                .push(e);
        }
    }
    groups.into_values().collect()
}

fn traced(ctx: &Ctx, load: &Load, report: &mut Report) -> Result<(), String> {
    let rung_s = (ctx.seconds * 0.25).max(1.0);
    let mut tracer = Tracer::new(Instant::now());

    // Former and kernel rungs on the batches this traffic forms.
    let mut cost = BatchCost::default();
    for batch in replay_batches(load, 1.0) {
        ladder::form_and_factor(&batch, &mut cost, &mut tracer);
    }
    if cost.unexpected_failures > 0 {
        report.violation(format!(
            "{} kernel-rung matrices failed",
            cost.unexpected_failures
        ));
    }
    let batch_us = (cost.form_ns.iter().sum::<f64>() + cost.kernel_ns.iter().sum::<f64>())
        / cost.batches as f64
        / 1e3;
    report.set("lane.mats_per_s", cost.mats_per_s());
    report.set("lane.gflops", cost.gflops());
    report.set("lane.bytes_per_mat", cost.bytes_per_mat());
    report.set("former.pack_ns_per_req", cost.pack_ns_per_req());
    let small: Vec<&Entry> = load
        .normal
        .iter()
        .map(|g| &load.inputs.entries[g[0]])
        .collect();
    let codec = ladder::codec_probe(&small, 64, &mut tracer);
    let tiled = ladder::tiled_probe(&load.inputs.entries[load.large[0]], 5, 2, &mut tracer)?;

    // In-process rung.
    let service = Service::start(ServiceConfig::default(), EngineSelector::heuristic());
    let plan = open_plan(0.5, rung_s);
    let pick = |id| load.pick(id);
    let transports = (0..CONNS)
        .map(|_| InProcTransport::new(service.client(), 4096))
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

    // Single-server TCP rung.
    let server =
        ServerProc::launch(&ctx.ibcf, &[], None).map_err(|e| format!("launching serve: {e}"))?;
    let single = rung(
        connect_all(&server.addr, CONNS).map_err(|e| e.to_string())?,
        &plan,
        &load.inputs,
        &pick,
        Some(("tcp.request", "tcp.send")),
        &[],
        &mut tracer,
        report,
    )?;
    let single_stats = server.stats().map_err(|e| format!("stats: {e}"))?;
    server.shutdown().map_err(|e| format!("shutdown: {e}"))?;

    // Fleet rung, traced then untraced.
    let fleet = ServerProc::launch(&ctx.ibcf, FLEET_ARGS, None)
        .map_err(|e| format!("launching fleet: {e}"))?;
    let spawn_s = fleet.spawn_s;
    let mut runs = Vec::new();
    for names in [Some(("fleet.request", "fleet.send")), None] {
        runs.push(rung(
            connect_all(&fleet.addr, CONNS).map_err(|e| e.to_string())?,
            &plan,
            &load.inputs,
            &pick,
            names,
            &[],
            &mut tracer,
            report,
        )?);
    }
    let stats = fleet.stats().map_err(|e| format!("stats: {e}"))?;
    let respawned = check_fleet(fleet, report)?;

    let (inproc_p50, single_p50) = (tail(&inproc.lat_us).p50, tail(&single.lat_us).p50);
    let (traced_p50, fleet_lat) = (tail(&runs[0].lat_us).p50, tail(&runs[1].lat_us));
    let shards = stats.shards.clone().unwrap_or_default();
    let routed: u64 = shards.iter().map(|s| s.routed).sum();
    let busiest = shards.iter().map(|s| s.routed).max().unwrap_or(0);
    let fleet_counters = stats.fleet.clone().unwrap_or_default();
    let inproc_tail = tail(&inproc.lat_us);

    p99_diagnostic(&runs[1].lat_us, report);
    report.set("former.occupancy", single_stats.mean_occupancy);
    report.set("former.batches", single_stats.batches as f64);
    report.set(
        "service.rejected",
        (single_stats.rejected + stats.rejected) as f64,
    );
    report.set("service.submit_reply_us_p50", inproc_tail.p50);
    report.set("service.submit_reply_us_p99", inproc_tail.tail);
    report.set("service.wait_us", inproc_p50 - batch_us);
    report.set("wire.tcp_overhead_us_p50", single_p50 - inproc_p50);
    report.set("wire.encode_ns_per_req", codec.encode_req);
    report.set("wire.decode_ns_per_reply", codec.decode_reply);
    let bytes: f64 = small.iter().map(|e| ladder::wire_bytes(e)).sum::<f64>() / small.len() as f64;
    report.set("wire.bytes_per_req", bytes);
    report.set("router.hop_us_p50", fleet_lat.p50 - single_p50);
    report.set(
        "router.max_shard_share",
        busiest as f64 / routed.max(1) as f64,
    );
    report.set(
        "router.resubmits",
        fleet_counters.shard_lost_resubmits as f64,
    );
    report.set(
        "router.backpressured",
        runs.iter().map(|b| b.by_status[5]).sum::<u64>() as f64,
    );
    report.set("fleet.spawn_s", spawn_s);
    report.set("fleet.respawns", respawned as f64);
    report.set("tiled.pack_ms", tiled.pack_ms);
    report.set("tiled.exec_seq_ms", tiled.exec_seq_ms);
    report.set("tiled.exec_par_ms", tiled.exec_par_ms);
    report.set("tiled.par_speedup", tiled.exec_seq_ms / tiled.exec_par_ms);
    report.set("tiled.tasks", tiled.tasks);
    report.set(
        "tiled.serve_wait_ms",
        median(&runs[1].lat_large_us) / 1e3 - tiled.potrf_ms,
    );
    report.set("gen.lag_p99_us", tail(&runs[1].lag_us).tail);

    // Attribution of the median request's latency: former and kernel of
    // its batch, the service's own share (flush wait, queueing, reply
    // routing), the codec, and the router hop; what TCP adds beyond the
    // codec has no span of its own yet.
    let e2e = fleet_lat.p50;
    let codec_us = (codec.decode_req + codec.encode_reply) / 1e3;
    let service_us = inproc_p50 - batch_us;
    let router_us = fleet_lat.p50 - single_p50;
    let unattributed = e2e - (batch_us + service_us + codec_us + router_us);
    report.set("attrib.unattributed_frac", unattributed / e2e);
    report.set("trace.overhead_frac", traced_p50 / fleet_lat.p50 - 1.0);
    report.note(format!(
        "attribution (us, median request): end-to-end {e2e:.1} = former+kernel {batch_us:.1} + service {service_us:.1} \
         + codec {codec_us:.2} + router {router_us:.1} + unattributed {unattributed:.1}"
    ));
    report.note(format!(
        "rungs p50: in-process {inproc_p50:.0} us, tcp {single_p50:.0} us, fleet {:.0} us (traced {traced_p50:.0} us); \
         {} batches replayed, {:.1} requests per batch",
        fleet_lat.p50,
        cost.batches,
        cost.live as f64 / cost.batches as f64
    ));
    report.note(format!("spans: {}", tracer.summary()));
    Ok(())
}
