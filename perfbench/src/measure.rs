//! The untraced measurement of a serving workload: several fresh
//! servers, each measured for an equal share of the run, so that one
//! disturbed stretch moves a median instead of the result.

use crate::gen::{drive, Arrival, Book, Plan, SpanNames};
use crate::inputs::Inputs;
use crate::report::Report;
use crate::server::{respawns, ServerProc};
use crate::stats::{median, quantile, tail};
use crate::trace::Tracer;
use crate::wire::{connect_all, Transport};
use crate::Ctx;
use std::time::Instant;

/// Each fresh server is measured for this long; a run of `seconds` has
/// `seconds / PHASE_S` phases (at least five).
const PHASE_S: f64 = 1.0;
const WARM_S: f64 = 0.25;

/// How one serving workload is launched and driven.
pub struct Setup<'a> {
    pub serve_args: &'a [&'a str],
    /// `taskset -c` list for the server, if pinned.
    pub server_cpus: Option<String>,
    pub generator_cpus: &'a [usize],
    pub arrival: Arrival,
    pub conns: u64,
    pub sample_every: u64,
}

/// Launches servers, measures each phase, and fills every end-to-end
/// metric. Set-up time is the median over every launch (at least
/// `ctx.setups`); throughput is the median over the phases, p50 pools
/// every phase's requests. Peak memory is the lower quartile of the
/// phase peaks: the footprint most phases need, where the transient
/// build-up above it varies with thread scheduling.
pub fn serve_untraced(
    ctx: &Ctx,
    s: &Setup<'_>,
    inputs: &Inputs,
    pick: &(dyn Fn(u64) -> usize + Sync),
    report: &mut Report,
) -> Result<(), String> {
    let fleet = s.serve_args.contains(&"--procs");
    let mut setups = Vec::new();
    let (mut book, mut rates, mut rss) = (Book::default(), Vec::new(), Vec::new());
    let phases = ((ctx.seconds / PHASE_S).round() as usize).max(5);
    let extra = ctx.setups.saturating_sub(phases);
    for i in 0..extra + phases {
        let server = ServerProc::launch(&ctx.ibcf, s.serve_args, s.server_cpus.as_deref())
            .map_err(|e| format!("launching serve: {e}"))?;
        setups.push(server.setup_s);
        if i >= extra {
            let plan = Plan {
                sample_every: s.sample_every,
                ..Plan::new(s.arrival, s.conns, WARM_S, ctx.seconds / phases as f64)
            };
            let transports = connect_all(&server.addr, s.conns).map_err(|e| e.to_string())?;
            let (b, _) = drive(
                transports,
                &plan,
                inputs,
                pick,
                Instant::now(),
                None,
                s.generator_cpus,
            )
            .map_err(|e| format!("generator: {e}"))?;
            rates.push(b.throughput());
            rss.push(server.peak_rss_mb());
            book.merge(b);
        }
        let out = server.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        if fleet {
            match respawns(&out) {
                Some(0) => {}
                Some(n) => report.violation(format!("{n} shard process(es) respawned")),
                None => report.violation("fleet shutdown report lacks the respawn count"),
            }
        }
    }
    let p50 = median(&book.lat_us);
    report.count(book.sent, book.failed());
    report.set("throughput_per_s", median(&rates));
    report.set("latency_p50_us", p50);
    report.set(
        "correct_frac",
        1.0 - book.failed() as f64 / book.sent.max(1) as f64,
    );
    report.set("error_mean_pct", book.err_mean() * 100.0);
    report.set("setup_s", median(&setups));
    report.set("peak_rss_mb", quantile(&rss, 0.25));
    report.note(format!(
        "{} phases on fresh servers: throughput per phase {:.0?}/s; latency p50 {:.1} us over {} requests; \
         generator lag p99 {:.1} us; {} planted not-SPD answered; {} replies checked numerically, \
         worst backward error {:.2}% of its tolerance; peak RSS per phase {:?} MiB",
        phases,
        rates,
        p50,
        book.lat_us.len(),
        tail(&book.lag_us).tail,
        book.by_status[1],
        book.checked,
        book.err_max * 100.0,
        rss.iter().map(|r| (r * 10.0).round() / 10.0).collect::<Vec<_>>(),
    ));
    Ok(())
}

/// Requests a p99 needs for ten samples beyond it.
const P99_MIN: usize = 1000;

/// Sets the `latency.p99_us` diagnostic: the nearest-rank p99 of an
/// untraced end-to-end rung, its sample count in the notes.
pub fn p99_diagnostic(lat_us: &[f64], report: &mut Report) {
    let p99 = quantile(lat_us, 0.99);
    report.set("latency.p99_us", p99);
    report.note(format!(
        "end-to-end p99 {p99:.1} us over {} requests{}",
        lat_us.len(),
        if lat_us.len() < P99_MIN {
            ", fewer than ten beyond it"
        } else {
            ""
        }
    ));
}

/// Drives one rung of a traced run, keeping its spans in `tracer` and
/// counting its requests in `report`.
#[allow(clippy::too_many_arguments)]
pub fn rung<T: Transport + Send>(
    transports: Vec<T>,
    plan: &Plan,
    inputs: &Inputs,
    pick: &(dyn Fn(u64) -> usize + Sync),
    names: Option<SpanNames>,
    cpus: &[usize],
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<Book, String> {
    let (book, spans) = drive(transports, plan, inputs, pick, Instant::now(), names, cpus)
        .map_err(|e| format!("{} rung: {e}", names.map_or("untraced", |n| n.0)))?;
    tracer.absorb(spans);
    report.count(book.sent, book.failed());
    Ok(book)
}
