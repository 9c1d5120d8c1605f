//! The pluggable selector layer: one search driver, many strategies.
//!
//! Every way this repo chooses a kernel configuration — the exhaustive
//! sweep, the analytic prior ([`crate::analytic`]), hill climbing, the
//! zero-measurement heuristic — is a [`Selector`]: a candidate proposal
//! plus a stopping policy. One driver ([`run_search`]) owns the
//! measurement loop, the shared [`TraceCache`], deduplication, and the
//! CRC-framed sweep log, so `resume`, `merge`, and `verify-log` work the
//! same no matter which strategy produced the log.
//!
//! The headline strategy is [`AnalyticSelector`]: measure the analytic
//! model's candidates best-first and stop, Hutter–Solomonik style, once
//! the incumbent's measured time excludes the optimistic bounds of every
//! remaining candidate — the bound being the candidate's modeled time
//! scaled by the most optimistic model-trust ratio observed so far. On
//! the paper space this measures a few percent of the grid and recovers
//! a winner within a few percent of the exhaustive one.

use crate::analytic;
use crate::dispatch::{DispatchTable, TableProvenance};
use crate::heuristics::{heuristic_config, neighbors};
use crate::log::{ShardSpec, SweepLogWriter};
use crate::record::{Dataset, Measurement};
use crate::runner::{
    measure_opts, open_log, sweep_sizes_logged, sweep_sizes_with, OpenedLog, ProgressSink,
    SweepOptions,
};
use crate::space::ParamSpace;
use ibcf_gpu_sim::{CacheStats, GpuSpec, TraceCache};
use ibcf_kernels::{KernelConfig, PlanKey};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The fixed context of one search: where (space, size) and on what
/// (batch, GPU) configurations are being selected.
#[derive(Debug, Clone, Copy)]
pub struct SelectCtx<'a> {
    /// The parameter space candidates must come from.
    pub space: &'a ParamSpace,
    /// Matrix dimension being tuned.
    pub n: usize,
    /// Batch size of every measurement.
    pub batch: usize,
    /// Target GPU.
    pub spec: &'a GpuSpec,
}

/// A proposed configuration, optionally carrying the proposing model's
/// score (modeled time in seconds; lower is better).
#[derive(Debug, Clone, Copy)]
pub struct Candidate {
    /// The configuration to measure.
    pub config: KernelConfig,
    /// The proposer's modeled time, when it has one.
    pub score: Option<f64>,
}

impl Candidate {
    /// A candidate without a model score.
    pub fn plain(config: KernelConfig) -> Self {
        Candidate {
            config,
            score: None,
        }
    }
}

/// One completed evaluation: the candidate and its measurement.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// What was proposed (including the model score, if any).
    pub candidate: Candidate,
    /// What the simulator measured.
    pub m: Measurement,
}

/// A search strategy: proposes candidates and decides when to stop.
///
/// The driver measures candidates in proposal order, deduplicating
/// configurations; adaptive strategies return more via
/// [`Selector::refine`] after seeing the history.
pub trait Selector {
    /// Short strategy name, recorded in dispatch-table provenance.
    fn name(&self) -> &'static str;

    /// The initial candidate list, best-first when the strategy can rank.
    fn candidates(&mut self, ctx: &SelectCtx<'_>) -> Vec<Candidate>;

    /// Proposes more candidates after the queue drains (adaptive
    /// strategies). Returning an empty list ends the search.
    fn refine(&mut self, _ctx: &SelectCtx<'_>, _history: &[Evaluation]) -> Vec<Candidate> {
        Vec::new()
    }

    /// Stopping policy, consulted before each measurement: `true` ends
    /// the search with `remaining` unmeasured.
    fn should_stop(
        &mut self,
        _ctx: &SelectCtx<'_>,
        _history: &[Evaluation],
        _remaining: &[Candidate],
    ) -> bool {
        false
    }

    /// The strategy's bound on relative regret vs the space's true best,
    /// when it can compute one (set by the early-stopping rule).
    fn regret_bound(&self) -> Option<f64> {
        None
    }

    /// `true` if this strategy measures the entire space — the driver may
    /// then use the parallel exhaustive sweep path.
    fn exhaustive(&self) -> bool {
        false
    }
}

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

/// The paper's strategy: measure everything.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExhaustiveSelector;

impl Selector for ExhaustiveSelector {
    fn name(&self) -> &'static str {
        "exhaustive"
    }
    fn candidates(&mut self, ctx: &SelectCtx<'_>) -> Vec<Candidate> {
        ctx.space
            .configs(ctx.n)
            .into_iter()
            .map(Candidate::plain)
            .collect()
    }
    fn exhaustive(&self) -> bool {
        true
    }
}

/// Model-guided search with confidence-interval early stopping.
///
/// Candidates are the analytic ranking, measured best-modeled-first. The
/// incumbent's measured time `t*` is compared against the optimistic
/// bound of the best remaining candidate: its modeled time `s` scaled by
/// the most optimistic measured-over-modeled ratio `r_lo` seen so far,
/// shrunk by `3σ` for measurement noise and by the configurable `guard`.
/// Once `t* ≤ guard · r_lo · s · (1 − 3σ)` no remaining candidate can
/// plausibly win, and the search stops. A hard cap (`max_frac` of the
/// grid) bounds the evaluation count even when the model is poorly
/// calibrated.
#[derive(Debug, Clone)]
pub struct AnalyticSelector {
    /// Minimum measurements before the stopping rule may fire.
    pub min_evals: usize,
    /// Hard cap as a fraction of the per-size grid.
    pub max_frac: f64,
    /// Multiplier on the optimistic bound (< 1 keeps measuring longer).
    pub guard: f64,
    /// The sweep's measurement-noise sigma (widens the stopping margin).
    pub noise_sigma: f64,
    bound: Option<f64>,
}

impl AnalyticSelector {
    /// The default policy under the given measurement noise.
    pub fn new(noise_sigma: f64) -> Self {
        AnalyticSelector {
            min_evals: 24,
            max_frac: 0.10,
            guard: 1.0,
            noise_sigma,
            bound: None,
        }
    }

    fn cap(&self, grid: usize) -> usize {
        ((grid as f64 * self.max_frac).floor() as usize).max(self.min_evals)
    }
}

impl Selector for AnalyticSelector {
    fn name(&self) -> &'static str {
        "analytic"
    }

    fn candidates(&mut self, ctx: &SelectCtx<'_>) -> Vec<Candidate> {
        analytic::rank_candidates(ctx.space, ctx.n, ctx.batch, ctx.spec)
            .into_iter()
            .map(|s| Candidate {
                config: s.config,
                score: Some(s.time_s),
            })
            .collect()
    }

    fn should_stop(
        &mut self,
        ctx: &SelectCtx<'_>,
        history: &[Evaluation],
        remaining: &[Candidate],
    ) -> bool {
        if history.len() < self.min_evals || remaining.is_empty() {
            return false;
        }
        let t_best = history
            .iter()
            .map(|e| e.m.time_s)
            .fold(f64::INFINITY, f64::min);
        let r_lo = history
            .iter()
            .filter_map(|e| e.candidate.score.map(|s| e.m.time_s / s))
            .fold(f64::INFINITY, f64::min);
        let s_next = remaining
            .iter()
            .filter_map(|c| c.score)
            .fold(f64::INFINITY, f64::min);
        if !r_lo.is_finite() || !s_next.is_finite() {
            return false;
        }
        let shrink = (1.0 - 3.0 * self.noise_sigma).clamp(0.1, 1.0);
        let optimistic = self.guard * r_lo * s_next * shrink;
        let cap_hit = history.len() >= self.cap(ctx.space.len_per_n());
        if t_best <= optimistic || cap_hit {
            self.bound = Some((t_best / optimistic - 1.0).max(0.0));
            return true;
        }
        false
    }

    fn regret_bound(&self) -> Option<f64> {
        self.bound
    }
}

/// Hill climbing with random restarts over the space restricted to its
/// first arithmetic mode and cache preference (the paper's Table I
/// variables that actually move performance). Runs on the selector
/// driver, so it shares the measurement loop, the configuration dedup
/// (restarts that re-pick a visited configuration reuse its measurement
/// instead of inflating the evaluation count), and the log with every
/// other strategy.
#[derive(Debug, Clone)]
pub struct HillSelector {
    restarts: usize,
    rng: StdRng,
    started: usize,
    phase: HillPhase,
}

#[derive(Debug, Clone)]
enum HillPhase {
    Start,
    AwaitStart(KernelConfig),
    Climb { cur: KernelConfig, cur_time: f64 },
    Done,
}

impl HillSelector {
    /// A climber doing `restarts` random restarts with the given seed.
    pub fn new(restarts: usize, seed: u64) -> Self {
        HillSelector {
            restarts: restarts.max(1),
            rng: StdRng::seed_from_u64(seed),
            started: 0,
            phase: HillPhase::Start,
        }
    }

    fn pick(&mut self, ctx: &SelectCtx<'_>) -> KernelConfig {
        let space = ctx.space;
        KernelConfig {
            n: ctx.n,
            nb: space.nb[self.rng.random_range(0..space.nb.len())],
            looking: space.looking[self.rng.random_range(0..space.looking.len())],
            chunked: space.chunked[self.rng.random_range(0..space.chunked.len())],
            chunk_size: space.chunk_size[self.rng.random_range(0..space.chunk_size.len())],
            unroll: space.unroll[self.rng.random_range(0..space.unroll.len())],
            fast_math: space.fast_math[0],
            cache_pref: space.cache_pref[0],
        }
    }
}

impl Selector for HillSelector {
    fn name(&self) -> &'static str {
        "hill"
    }

    fn candidates(&mut self, ctx: &SelectCtx<'_>) -> Vec<Candidate> {
        self.refine(ctx, &[])
    }

    fn refine(&mut self, ctx: &SelectCtx<'_>, history: &[Evaluation]) -> Vec<Candidate> {
        let lookup = |c: &KernelConfig| {
            history
                .iter()
                .find(|e| e.m.config == *c)
                .map(|e| e.m.time_s)
        };
        loop {
            match self.phase.clone() {
                HillPhase::Done => return Vec::new(),
                HillPhase::Start => {
                    if self.started >= self.restarts {
                        self.phase = HillPhase::Done;
                        continue;
                    }
                    self.started += 1;
                    let c = self.pick(ctx);
                    self.phase = HillPhase::AwaitStart(c);
                }
                HillPhase::AwaitStart(c) => match lookup(&c) {
                    Some(t) => {
                        self.phase = HillPhase::Climb {
                            cur: c,
                            cur_time: t,
                        };
                    }
                    None => return vec![Candidate::plain(c)],
                },
                HillPhase::Climb { cur, cur_time } => {
                    let nbrs = neighbors(ctx.space, &cur);
                    let unmeasured: Vec<Candidate> = nbrs
                        .iter()
                        .filter(|c| lookup(c).is_none())
                        .map(|c| Candidate::plain(*c))
                        .collect();
                    if !unmeasured.is_empty() {
                        return unmeasured;
                    }
                    let best = nbrs
                        .iter()
                        .filter_map(|c| lookup(c).map(|t| (*c, t)))
                        .min_by(|a, b| a.1.total_cmp(&b.1));
                    match best {
                        Some((c, t)) if t < cur_time => {
                            self.phase = HillPhase::Climb {
                                cur: c,
                                cur_time: t,
                            };
                        }
                        _ => self.phase = HillPhase::Start,
                    }
                }
            }
        }
    }
}

/// The §11 zero-measurement heuristic as a (single-candidate) selector —
/// the tail of the serving fallback chain, expressed in the same terms
/// as every other strategy.
#[derive(Debug, Clone, Copy, Default)]
pub struct HeuristicSelector;

impl Selector for HeuristicSelector {
    fn name(&self) -> &'static str {
        "heuristic"
    }
    fn candidates(&mut self, ctx: &SelectCtx<'_>) -> Vec<Candidate> {
        vec![Candidate::plain(heuristic_config(ctx.n))]
    }
}

/// The strategies the CLI can name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectorKind {
    /// Measure the whole space (the paper's methodology).
    Exhaustive,
    /// Analytic ranking + confidence-interval early stopping.
    Analytic,
    /// Hill climbing with random restarts.
    Hill,
    /// The zero-measurement §11 heuristic.
    Heuristic,
}

impl SelectorKind {
    /// Parses a CLI selector name.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "exhaustive" | "sweep" => Some(SelectorKind::Exhaustive),
            "analytic" | "model" => Some(SelectorKind::Analytic),
            "hill" | "hill-climb" => Some(SelectorKind::Hill),
            "heuristic" => Some(SelectorKind::Heuristic),
            _ => None,
        }
    }

    /// The canonical name.
    pub fn name(&self) -> &'static str {
        match self {
            SelectorKind::Exhaustive => "exhaustive",
            SelectorKind::Analytic => "analytic",
            SelectorKind::Hill => "hill",
            SelectorKind::Heuristic => "heuristic",
        }
    }

    /// Builds a fresh selector for one size under the sweep options.
    pub fn build(&self, opts: &SweepOptions) -> Box<dyn Selector> {
        match self {
            SelectorKind::Exhaustive => Box::new(ExhaustiveSelector),
            SelectorKind::Analytic => Box::new(AnalyticSelector::new(opts.noise_sigma)),
            SelectorKind::Hill => Box::new(HillSelector::new(4, opts.noise_seed ^ 0x5E1EC7)),
            SelectorKind::Heuristic => Box::new(HeuristicSelector),
        }
    }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// The outcome of one size's search.
#[derive(Debug, Clone)]
pub struct SizeOutcome {
    /// Matrix dimension searched.
    pub n: usize,
    /// Best measurement found.
    pub best: Measurement,
    /// Evaluations consumed (fresh + resumed from a log).
    pub evaluated: usize,
    /// Evaluations measured (and logged) this run.
    pub measured_fresh: usize,
    /// The full per-size grid this search could have measured.
    pub grid_total: usize,
    /// `true` if the stopping policy fired with candidates remaining.
    pub stopped_early: bool,
    /// The strategy's regret bound at stop time, when it computes one.
    pub regret_bound: Option<f64>,
    /// Every evaluation, in measurement order.
    pub history: Vec<Evaluation>,
}

/// A multi-size search result: the selector-layer counterpart of
/// [`crate::SweepReport`].
#[derive(Debug, Clone)]
pub struct SelectionReport {
    /// Strategy that produced this report.
    pub selector: String,
    /// GPU name measured on.
    pub gpu: String,
    /// Batch size of every measurement.
    pub batch: usize,
    /// Per-size outcomes, in the order searched.
    pub outcomes: Vec<SizeOutcome>,
    /// Shared plan-cache counters.
    pub cache: CacheStats,
    /// Wall-clock seconds for the whole search.
    pub wall_s: f64,
    /// Measurements recovered from an existing log (logged runs only).
    pub resumed: usize,
    /// `Some(reason)` if a torn final log line was dropped on recovery.
    pub dropped_tail: Option<String>,
}

impl SelectionReport {
    /// Total evaluations across sizes.
    pub fn evaluated(&self) -> usize {
        self.outcomes.iter().map(|o| o.evaluated).sum()
    }

    /// Total grid size across sizes (what exhaustive would measure).
    pub fn grid_total(&self) -> usize {
        self.outcomes.iter().map(|o| o.grid_total).sum()
    }

    /// Evaluations per wall-clock second (0 when empty or untimed — never
    /// NaN or infinite).
    pub fn configs_per_sec(&self) -> f64 {
        let n = self.evaluated();
        if n == 0 || !self.wall_s.is_finite() || self.wall_s <= 0.0 {
            0.0
        } else {
            n as f64 / self.wall_s
        }
    }

    /// Every evaluation flattened into a [`Dataset`], ordered by size
    /// then canonical grid index (out-of-space configurations last).
    pub fn dataset(&self, space: &ParamSpace) -> Dataset {
        let mut measurements = Vec::new();
        for o in &self.outcomes {
            let mut ms: Vec<&Evaluation> = o.history.iter().collect();
            ms.sort_by_key(|e| space.index_of(&e.m.config).unwrap_or(usize::MAX));
            measurements.extend(ms.into_iter().map(|e| e.m.clone()));
        }
        Dataset {
            gpu: self.gpu.clone(),
            batch: self.batch,
            measurements,
        }
    }

    /// The winners as a [`DispatchTable`], stamped with this search's
    /// provenance.
    pub fn dispatch_table(&self) -> DispatchTable {
        let mut table = BTreeMap::new();
        for o in &self.outcomes {
            table.insert(o.n, o.best.config);
        }
        let regret_bound = self
            .outcomes
            .iter()
            .filter_map(|o| o.regret_bound)
            .fold(None, |acc: Option<f64>, b| {
                Some(acc.map_or(b, |a| a.max(b)))
            });
        DispatchTable {
            table,
            provenance: Some(TableProvenance {
                selector: self.selector.clone(),
                gpu: self.gpu.clone(),
                batch: self.batch,
                configs_evaluated: self.evaluated(),
                grid_total: self.grid_total(),
                regret_bound,
            }),
        }
    }
}

fn cfg_key(c: &KernelConfig) -> String {
    format!("{c}")
}

/// The sequential measurement loop shared by every strategy: dedup,
/// measure (or reuse a resumed measurement), log, consult the stopping
/// policy, refine.
fn drive(
    selector: &mut dyn Selector,
    ctx: &SelectCtx<'_>,
    opts: &SweepOptions,
    cache: &TraceCache<PlanKey>,
    log: Option<&Mutex<SweepLogWriter>>,
    seq_base: usize,
    resumed: &BTreeMap<usize, Measurement>,
) -> std::io::Result<SizeOutcome> {
    let mut queue: VecDeque<Candidate> = VecDeque::new();
    let mut queued: HashSet<String> = HashSet::new();
    let mut history: Vec<Evaluation> = Vec::new();
    let mut measured_fresh = 0usize;
    let mut stopped_early = false;

    for cand in selector.candidates(ctx) {
        if queued.insert(cfg_key(&cand.config)) {
            queue.push_back(cand);
        }
    }
    loop {
        if queue.is_empty() {
            let more = selector.refine(ctx, &history);
            let mut grew = false;
            for cand in more {
                if queued.insert(cfg_key(&cand.config)) {
                    queue.push_back(cand);
                    grew = true;
                }
            }
            if !grew {
                break;
            }
            continue;
        }
        if selector.should_stop(ctx, &history, queue.make_contiguous()) {
            stopped_early = true;
            break;
        }
        let cand = queue.pop_front().expect("non-empty queue");
        let idx = ctx.space.index_of(&cand.config);
        let m = match idx.and_then(|i| resumed.get(&(seq_base + i))) {
            Some(m) => m.clone(),
            None => {
                let m = measure_opts(&cand.config, ctx.spec, opts, cache);
                measured_fresh += 1;
                if let (Some(w), Some(i)) = (log, idx) {
                    w.lock()
                        .expect("log writer lock")
                        .append(seq_base + i, &m)?;
                }
                m
            }
        };
        history.push(Evaluation { candidate: cand, m });
    }
    let best = history
        .iter()
        .min_by(|a, b| a.m.time_s.total_cmp(&b.m.time_s))
        .map(|e| e.m.clone())
        .expect("selector proposed no candidates");
    Ok(SizeOutcome {
        n: ctx.n,
        best,
        evaluated: history.len(),
        measured_fresh,
        grid_total: ctx.space.len_per_n(),
        stopped_early,
        regret_bound: selector.regret_bound(),
        history,
    })
}

/// Runs one strategy at one size through the shared driver (no log).
pub fn run_search(
    selector: &mut dyn Selector,
    space: &ParamSpace,
    n: usize,
    spec: &GpuSpec,
    opts: &SweepOptions,
    cache: &TraceCache<PlanKey>,
) -> SizeOutcome {
    let ctx = SelectCtx {
        space,
        n,
        batch: opts.batch,
        spec,
    };
    drive(selector, &ctx, opts, cache, None, 0, &BTreeMap::new())
        .expect("un-logged search cannot fail on IO")
}

fn outcomes_from_dataset(ds: &Dataset, space: &ParamSpace) -> Vec<SizeOutcome> {
    ds.sizes()
        .into_iter()
        .map(|n| {
            let history: Vec<Evaluation> = ds
                .at_n(n)
                .map(|m| Evaluation {
                    candidate: Candidate::plain(m.config),
                    m: m.clone(),
                })
                .collect();
            let best = history
                .iter()
                .min_by(|a, b| a.m.time_s.total_cmp(&b.m.time_s))
                .map(|e| e.m.clone())
                .expect("dataset size with no measurements");
            SizeOutcome {
                n,
                best,
                evaluated: history.len(),
                measured_fresh: history.len(),
                grid_total: space.len_per_n(),
                stopped_early: false,
                regret_bound: Some(0.0),
                history,
            }
        })
        .collect()
}

/// Runs `search(i, sizes[i])` for every size on `available_parallelism`
/// scoped workers and returns the results in input order.
///
/// Per-size searches are independent: each builds its own selector, and
/// [`PlanKey`] contains `n`, so a shared [`TraceCache`] never serves one
/// size's plan to another and the results equal a sequential loop's.
/// Workers claim sizes from an atomic cursor, largest `n` first, because
/// a search's cost grows with `n`; when progress is on, `sink` hears the
/// number of completed sizes after each one.
fn for_each_size<T: Send>(
    sizes: &[usize],
    opts: &SweepOptions,
    sink: &dyn ProgressSink,
    search: impl Fn(usize, usize) -> T + Sync,
) -> Vec<T> {
    let mut order: Vec<usize> = (0..sizes.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(sizes[i]));
    let workers = std::thread::available_parallelism()
        .map_or(1, |p| p.get())
        .min(sizes.len());
    let (cursor, done) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let mut results: Vec<(usize, T)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    while let Some(&i) = order.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                        mine.push((i, search(i, sizes[i])));
                        let k = done.fetch_add(1, Ordering::Relaxed) + 1;
                        if opts.progress_every > 0 {
                            sink.on_progress(k, sizes.len());
                        }
                    }
                    mine
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("size search panicked"))
            .collect()
    });
    results.sort_unstable_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, r)| r).collect()
}

/// Runs `kind` across `sizes`, sharing one plan cache. The exhaustive
/// strategy takes the parallel sweep fast path; every other strategy runs
/// the per-size driver, one size per worker ([`for_each_size`]).
pub fn run_sizes(
    kind: SelectorKind,
    space: &ParamSpace,
    sizes: &[usize],
    spec: &GpuSpec,
    opts: &SweepOptions,
    sink: &dyn ProgressSink,
) -> SelectionReport {
    if kind == SelectorKind::Exhaustive {
        let report = sweep_sizes_with(space, sizes, spec, opts, sink);
        return SelectionReport {
            selector: kind.name().into(),
            gpu: spec.name.clone(),
            batch: opts.batch,
            outcomes: outcomes_from_dataset(&report.dataset, space),
            cache: report.cache,
            wall_s: report.wall_s,
            resumed: 0,
            dropped_tail: None,
        };
    }
    guided_sizes(kind, space, sizes, spec, opts, sink, None, &BTreeMap::new())
        .expect("un-logged search cannot fail on IO")
}

/// The non-exhaustive half of [`run_sizes`] and [`run_sizes_logged`]: one
/// fresh selector per size through [`drive`], sizes spread over workers by
/// [`for_each_size`], one plan cache shared by all of them.
#[allow(clippy::too_many_arguments)]
fn guided_sizes(
    kind: SelectorKind,
    space: &ParamSpace,
    sizes: &[usize],
    spec: &GpuSpec,
    opts: &SweepOptions,
    sink: &dyn ProgressSink,
    log: Option<&Mutex<SweepLogWriter>>,
    resumed: &BTreeMap<usize, Measurement>,
) -> std::io::Result<SelectionReport> {
    let cache: TraceCache<PlanKey> = TraceCache::default();
    let start = Instant::now();
    let outcomes = for_each_size(sizes, opts, sink, |i, n| {
        let ctx = SelectCtx {
            space,
            n,
            batch: opts.batch,
            spec,
        };
        let seq_base = i * space.len_per_n();
        drive(
            kind.build(opts).as_mut(),
            &ctx,
            opts,
            &cache,
            log,
            seq_base,
            resumed,
        )
    })
    .into_iter()
    .collect::<std::io::Result<Vec<SizeOutcome>>>()?;
    Ok(SelectionReport {
        selector: kind.name().into(),
        gpu: spec.name.clone(),
        batch: opts.batch,
        resumed: outcomes
            .iter()
            .map(|o| o.evaluated - o.measured_fresh)
            .sum(),
        outcomes,
        cache: cache.stats(),
        wall_s: start.elapsed().as_secs_f64(),
        dropped_tail: None,
    })
}

/// [`run_sizes`] made crash-safe on the same CRC-framed log format as the
/// exhaustive sweep: measurements append with their canonical grid `seq`,
/// an existing compatible log resumes (already-measured configurations
/// are reused, not re-measured), and the resulting file is readable by
/// `resume`, `merge`, and `verify-log` regardless of strategy.
///
/// Non-exhaustive strategies only accept [`ShardSpec::whole`] — a guided
/// search owns its whole (small) measurement set. The exhaustive strategy
/// delegates to the parallel [`sweep_sizes_logged`] path, shard included.
#[allow(clippy::too_many_arguments)]
pub fn run_sizes_logged(
    kind: SelectorKind,
    space: &ParamSpace,
    sizes: &[usize],
    spec: &GpuSpec,
    opts: &SweepOptions,
    sink: &dyn ProgressSink,
    log_path: &Path,
    shard: ShardSpec,
) -> std::io::Result<SelectionReport> {
    if kind == SelectorKind::Exhaustive {
        let logged = sweep_sizes_logged(space, sizes, spec, opts, sink, log_path, shard)?;
        return Ok(SelectionReport {
            selector: kind.name().into(),
            gpu: spec.name.clone(),
            batch: opts.batch,
            outcomes: outcomes_from_dataset(&logged.report.dataset, space),
            cache: logged.report.cache,
            wall_s: logged.report.wall_s,
            resumed: logged.resumed,
            dropped_tail: logged.dropped_tail,
        });
    }
    if shard != ShardSpec::whole() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!(
                "selector {} does not shard; use --selector exhaustive for sharded sweeps",
                kind.name()
            ),
        ));
    }
    let OpenedLog {
        writer,
        done,
        dropped_tail,
    } = open_log(space, sizes, spec, opts, log_path, shard)?;
    // Each append is one framed line under the lock, so concurrent sizes
    // interleave whole lines and a crash still tears at most the last one.
    let writer = Mutex::new(writer);
    let report = guided_sizes(kind, space, sizes, spec, opts, sink, Some(&writer), &done)?;
    Ok(SelectionReport {
        dropped_tail,
        ..report
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::best::BestTable;
    use crate::log::SweepLog;
    use crate::runner::{sweep, SilentProgress};

    fn p100_opts(batch: usize) -> SweepOptions {
        SweepOptions {
            batch,
            ..Default::default()
        }
    }

    #[test]
    fn exhaustive_selector_measures_the_whole_grid() {
        let space = ParamSpace::quick();
        let spec = GpuSpec::p100();
        let opts = p100_opts(1024);
        let cache = TraceCache::default();
        let mut sel = ExhaustiveSelector;
        let out = run_search(&mut sel, &space, 12, &spec, &opts, &cache);
        assert_eq!(out.evaluated, space.len_per_n());
        assert!(!out.stopped_early);
        // Tie-breaking may differ from BestTable (with full unroll many
        // configurations time identically), but the winning time must not.
        let ds = sweep(&space, 12, &spec, &opts);
        let best = BestTable::new(&ds).best(12).unwrap();
        assert_eq!(out.best.time_s, best.time_s);
        assert_eq!(out.best.gflops, best.gflops);
    }

    #[test]
    fn analytic_selector_stops_early_and_stays_close() {
        let space = ParamSpace::quick();
        let spec = GpuSpec::p100();
        let opts = p100_opts(4096);
        let cache = TraceCache::default();
        for n in [8usize, 16, 32] {
            let mut sel = AnalyticSelector::new(0.0);
            let out = run_search(&mut sel, &space, n, &spec, &opts, &cache);
            assert!(
                out.evaluated <= space.len_per_n() / 4,
                "n={n}: evaluated {} of {}",
                out.evaluated,
                space.len_per_n()
            );
            let ds = sweep(&space, n, &spec, &opts);
            let best = BestTable::new(&ds).best(n).unwrap();
            assert!(
                out.best.time_s <= 1.05 * best.time_s,
                "n={n}: picked {} vs best {}",
                out.best.time_s,
                best.time_s
            );
        }
    }

    #[test]
    fn heuristic_selector_is_single_shot() {
        let space = ParamSpace::paper();
        let spec = GpuSpec::p100();
        let opts = p100_opts(1024);
        let cache = TraceCache::default();
        let mut sel = HeuristicSelector;
        let out = run_search(&mut sel, &space, 24, &spec, &opts, &cache);
        assert_eq!(out.evaluated, 1);
        assert_eq!(out.best.config, heuristic_config(24));
    }

    #[test]
    fn hill_selector_dedups_across_restarts() {
        let space = ParamSpace::quick();
        let spec = GpuSpec::p100();
        let opts = p100_opts(1024);
        let cache = TraceCache::default();
        let mut sel = HillSelector::new(200, 3);
        let out = run_search(&mut sel, &space, 16, &spec, &opts, &cache);
        let restricted = space.nb.len()
            * space.looking.len()
            * space.chunked.len()
            * space.chunk_size.len()
            * space.unroll.len();
        assert!(
            out.evaluated <= restricted,
            "evaluated {} > {restricted} distinct restricted configs",
            out.evaluated
        );
    }

    #[test]
    fn selector_kind_parses() {
        assert_eq!(
            SelectorKind::parse("analytic"),
            Some(SelectorKind::Analytic)
        );
        assert_eq!(
            SelectorKind::parse("EXHAUSTIVE"),
            Some(SelectorKind::Exhaustive)
        );
        assert_eq!(SelectorKind::parse("hill"), Some(SelectorKind::Hill));
        assert_eq!(
            SelectorKind::parse("heuristic"),
            Some(SelectorKind::Heuristic)
        );
        assert_eq!(SelectorKind::parse("bogus"), None);
    }

    #[test]
    fn run_sizes_produces_a_provenance_stamped_table() {
        let space = ParamSpace::quick();
        let spec = GpuSpec::p100();
        let report = run_sizes(
            SelectorKind::Analytic,
            &space,
            &[8, 16],
            &spec,
            &p100_opts(2048),
            &SilentProgress,
        );
        assert_eq!(report.outcomes.len(), 2);
        assert!(report.evaluated() < report.grid_total());
        let table = report.dispatch_table();
        let prov = table.provenance.as_ref().unwrap();
        assert_eq!(prov.selector, "analytic");
        assert_eq!(prov.configs_evaluated, report.evaluated());
        assert!(table.config_for(8).is_some());
        // The flattened dataset carries every evaluation.
        let ds = report.dataset(&space);
        assert_eq!(ds.measurements.len(), report.evaluated());
    }

    /// Records every `done` a search reports.
    #[derive(Default)]
    struct Recorded(Mutex<Vec<usize>>);

    impl ProgressSink for Recorded {
        fn on_progress(&self, done: usize, _total: usize) {
            self.0.lock().unwrap().push(done);
        }
    }

    #[test]
    fn parallel_sizes_match_a_sequential_loop_of_run_search() {
        let space = ParamSpace::quick();
        let spec = GpuSpec::p100();
        let opts = SweepOptions {
            progress_every: 1,
            ..p100_opts(2048)
        };
        let sizes = [16usize, 8, 40, 24, 32];
        for kind in [
            SelectorKind::Analytic,
            SelectorKind::Hill,
            SelectorKind::Heuristic,
        ] {
            let progress = Recorded::default();
            let par = run_sizes(kind, &space, &sizes, &spec, &opts, &progress);
            let cache = TraceCache::default();
            let seq: Vec<SizeOutcome> = sizes
                .iter()
                .map(|&n| run_search(kind.build(&opts).as_mut(), &space, n, &spec, &opts, &cache))
                .collect();
            let name = kind.name();
            assert_eq!(par.outcomes.len(), seq.len(), "{name}");
            for (p, q) in par.outcomes.iter().zip(&seq) {
                assert_eq!(p.n, q.n, "{name}: outcomes out of input order");
                assert_eq!(p.best, q.best, "{name} n={}", p.n);
                assert_eq!(p.evaluated, q.evaluated, "{name} n={}", p.n);
                let configs =
                    |o: &SizeOutcome| o.history.iter().map(|e| e.m.config).collect::<Vec<_>>();
                assert_eq!(configs(p), configs(q), "{name} n={}", p.n);
            }
            let stats = cache.stats();
            assert_eq!(par.cache.misses, stats.misses, "{name}");
            assert_eq!(par.cache.hits, stats.hits, "{name}");
            // One call per completed size, counting up to the total.
            let mut done = progress.0.into_inner().unwrap();
            done.sort_unstable();
            assert_eq!(done, (1..=sizes.len()).collect::<Vec<_>>(), "{name}");
        }
    }

    #[test]
    fn parallel_logged_search_resumes_from_a_torn_tail_to_the_same_report() {
        let dir = std::env::temp_dir().join(format!("ibcf-select-resume-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (full_log, cut_log) = (dir.join("full.log"), dir.join("cut.log"));
        for p in [&full_log, &cut_log] {
            std::fs::remove_file(p).ok();
        }
        let space = ParamSpace::quick();
        let spec = GpuSpec::p100();
        let opts = p100_opts(2048);
        let sizes = [8usize, 16, 24, 32];
        let run = |log: &Path| {
            run_sizes_logged(
                SelectorKind::Analytic,
                &space,
                &sizes,
                &spec,
                &opts,
                &SilentProgress,
                log,
                ShardSpec::whole(),
            )
            .unwrap()
        };
        let full = run(&full_log);
        assert_eq!(full.resumed, 0);

        // Keep the header and the first lines the workers appended, then
        // half of the next line: the tail a crash mid-append leaves.
        let text = std::fs::read_to_string(&full_log).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let kept = 1 + full.evaluated() / 2;
        let torn = &lines[kept][..lines[kept].len() / 2];
        std::fs::write(&cut_log, format!("{}\n{torn}", lines[..kept].join("\n"))).unwrap();

        let resumed = run(&cut_log);
        assert!(resumed.dropped_tail.is_some());
        assert_eq!(resumed.resumed, kept - 1);
        assert_eq!(resumed.outcomes.len(), full.outcomes.len());
        for (r, f) in resumed.outcomes.iter().zip(&full.outcomes) {
            assert_eq!(r.n, f.n);
            assert_eq!(r.best, f.best, "n={}", r.n);
            assert_eq!(r.evaluated, f.evaluated, "n={}", r.n);
            assert_eq!(r.stopped_early, f.stopped_early, "n={}", r.n);
            assert_eq!(r.regret_bound, f.regret_bound, "n={}", r.n);
            let ms = |o: &SizeOutcome| o.history.iter().map(|e| e.m.clone()).collect::<Vec<_>>();
            assert_eq!(ms(r), ms(f), "n={}", r.n);
        }
        assert_eq!(
            format!("{:?}", resumed.dispatch_table()),
            format!("{:?}", full.dispatch_table())
        );
        assert_eq!(
            resumed.dataset(&space).measurements,
            full.dataset(&space).measurements
        );

        // What `ibcf verify-log --strict` reads: no torn tail, no
        // duplicates, exactly the uninterrupted run's measurements.
        let log = SweepLog::read(&cut_log, false).unwrap();
        assert!(log.dropped_tail.is_none());
        assert_eq!(log.duplicates, 0);
        assert_eq!(log.entries.len(), full.evaluated());
        assert_eq!(
            log.dataset().measurements,
            SweepLog::read(&full_log, false)
                .unwrap()
                .dataset()
                .measurements
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn configs_per_sec_is_guarded() {
        let report = SelectionReport {
            selector: "analytic".into(),
            gpu: "test".into(),
            batch: 0,
            outcomes: Vec::new(),
            cache: CacheStats::default(),
            wall_s: 0.0,
            resumed: 0,
            dropped_tail: None,
        };
        assert_eq!(report.configs_per_sec(), 0.0);
        let report = SelectionReport {
            wall_s: f64::NAN,
            ..report
        };
        assert_eq!(report.configs_per_sec(), 0.0);
    }
}
