//! The exhaustive sweep runner.

use crate::log::{grid_configs, ShardSpec, SweepLog, SweepLogHeader, SweepLogWriter};
use crate::log::{LOG_FORMAT, LOG_VERSION};
use crate::record::{Dataset, Measurement};
use crate::space::ParamSpace;
use ibcf_core::flops::cholesky_flops_std;
use ibcf_gpu_sim::{CacheStats, GpuSpec, TraceCache};
use ibcf_kernels::{time_config, time_config_cached, CachePref, KernelConfig, PlanKey, Unroll};
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Sweep options.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Batch size of every launch (the paper uses 16,384).
    pub batch: usize,
    /// Report progress every this many configurations (0 = silent).
    pub progress_every: usize,
    /// Relative measurement noise (standard deviation of a multiplicative
    /// Gaussian-ish factor). Real autotuning corpora are noisy; setting
    /// this non-zero lets the analysis pipeline be exercised under
    /// realistic conditions. 0 = deterministic model output.
    pub noise_sigma: f64,
    /// Seed for the noise (per-configuration deterministic).
    pub noise_seed: u64,
    /// Share one [`TraceCache`] across the sweep so configurations with
    /// the same instruction stream reuse one trace plan. Timings are
    /// bitwise-identical either way; disabling exists for benchmarking
    /// the cache itself.
    pub share_plans: bool,
    /// fsync the sweep log after every appended measurement
    /// ([`sweep_sizes_logged`] only). On by default — that is the
    /// crash-safety guarantee; turning it off trades durability of the
    /// last few lines for append throughput.
    pub log_fsync: bool,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            batch: 16_384,
            progress_every: 0,
            noise_sigma: 0.0,
            noise_seed: 0,
            share_plans: true,
            log_fsync: true,
        }
    }
}

/// Receives progress callbacks from sweeps and selector searches.
/// Implementations must be `Sync`: both call them from parallel workers.
pub trait ProgressSink: Sync {
    /// `done` of `total` units of work have completed.
    ///
    /// Calls may arrive from worker threads, concurrently and not
    /// necessarily in increasing `done` order. An exhaustive sweep counts
    /// measured configurations and calls every `progress_every` of them;
    /// a guided search ([`crate::run_sizes`] with any other selector)
    /// counts completed sizes and calls once per size, so its `done`
    /// says how many sizes finished, not which.
    fn on_progress(&self, done: usize, total: usize);
}

/// Prints `swept k/total` lines to stderr — the CLI's historical behavior.
#[derive(Debug, Clone, Copy, Default)]
pub struct StderrProgress;

impl ProgressSink for StderrProgress {
    fn on_progress(&self, done: usize, total: usize) {
        eprintln!("  swept {done}/{total}");
    }
}

/// Discards progress callbacks (benches and tests).
#[derive(Debug, Clone, Copy, Default)]
pub struct SilentProgress;

impl ProgressSink for SilentProgress {
    fn on_progress(&self, _done: usize, _total: usize) {}
}

/// A [`Dataset`] plus the sweep's observability surface: plan-cache
/// statistics and wall-clock throughput.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// The measurements.
    pub dataset: Dataset,
    /// Plan-cache counters (all zero when `share_plans` was off).
    pub cache: CacheStats,
    /// Wall-clock seconds the sweep took.
    pub wall_s: f64,
}

impl SweepReport {
    /// Configurations measured per wall-clock second. Guarded: an empty
    /// sweep, a zero/negative wall clock, or a non-finite wall clock all
    /// report `0.0` rather than NaN or infinity.
    pub fn configs_per_sec(&self) -> f64 {
        rate(self.dataset.measurements.len(), self.wall_s)
    }
}

/// `count / wall_s`, guarded so degenerate inputs (empty, zero, negative,
/// or non-finite wall clock) yield `0.0` instead of NaN or infinity.
pub(crate) fn rate(count: usize, wall_s: f64) -> f64 {
    if count == 0 || !wall_s.is_finite() || wall_s <= 0.0 {
        0.0
    } else {
        count as f64 / wall_s
    }
}

/// A cheap deterministic standard-normal-ish sample (sum of uniforms) for
/// the measurement-noise model, keyed by configuration.
fn noise_factor(config: &KernelConfig, sigma: f64, seed: u64) -> f64 {
    if sigma == 0.0 {
        return 1.0;
    }
    let mut h = seed ^ 0x9E3779B97F4A7C15;
    let mut mix = |x: u64| {
        h ^= x.wrapping_mul(0xA24BAED4963EE407);
        h = h.rotate_left(23).wrapping_mul(0x9FB21C651E98DF25);
    };
    mix(config.n as u64);
    mix(config.nb as u64);
    mix(config.chunk_size as u64);
    mix(config.chunked as u64 + 2 * (config.fast_math as u64));
    mix(match config.looking {
        ibcf_core::Looking::Right => 11,
        ibcf_core::Looking::Left => 13,
        ibcf_core::Looking::Top => 17,
    });
    // Every tuning parameter must feed the hash: omitting one gives
    // configurations differing only in that parameter *identical* noise,
    // which biases exactly the per-parameter best-slice comparisons the
    // analysis rests on.
    mix(match config.unroll {
        Unroll::Partial => 19,
        Unroll::Full => 23,
    });
    mix(match config.cache_pref {
        CachePref::L1 => 29,
        CachePref::Shared => 31,
    });
    // Irwin-Hall(4) centered: mean 0, variance 1/3; scale to unit-ish.
    let mut z = 0.0f64;
    let mut state = h;
    for _ in 0..4 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        z += (state >> 40) as f64 / (1u64 << 24) as f64 - 0.5;
    }
    (1.0 + sigma * z * 1.732).max(0.05)
}

/// Measures one configuration (deterministic model output).
pub fn measure(config: &KernelConfig, batch: usize, spec: &GpuSpec) -> Measurement {
    measure_noisy(config, batch, spec, 0.0, 0)
}

/// [`measure`] through a shared plan cache; bitwise-identical output.
pub fn measure_cached(
    config: &KernelConfig,
    batch: usize,
    spec: &GpuSpec,
    cache: &TraceCache<PlanKey>,
) -> Measurement {
    measure_noisy_cached(config, batch, spec, 0.0, 0, cache)
}

/// Measures one configuration with the multiplicative noise model.
pub fn measure_noisy(
    config: &KernelConfig,
    batch: usize,
    spec: &GpuSpec,
    noise_sigma: f64,
    noise_seed: u64,
) -> Measurement {
    let t = time_config(config, batch, spec);
    finish_measurement(config, batch, t, noise_sigma, noise_seed)
}

/// [`measure_noisy`] through a shared plan cache; bitwise-identical output.
pub fn measure_noisy_cached(
    config: &KernelConfig,
    batch: usize,
    spec: &GpuSpec,
    noise_sigma: f64,
    noise_seed: u64,
    cache: &TraceCache<PlanKey>,
) -> Measurement {
    let t = time_config_cached(config, batch, spec, cache);
    finish_measurement(config, batch, t, noise_sigma, noise_seed)
}

fn finish_measurement(
    config: &KernelConfig,
    batch: usize,
    t: ibcf_gpu_sim::KernelTiming,
    noise_sigma: f64,
    noise_seed: u64,
) -> Measurement {
    let flops = cholesky_flops_std(config.n) * batch as f64;
    let f = noise_factor(config, noise_sigma, noise_seed);
    Measurement {
        config: *config,
        batch,
        gflops: t.gflops(flops) * f,
        time_s: t.time_s / f,
        bottleneck: t.bottleneck,
        row_hit_rate: t.row_hit_rate,
        occupancy: t.occupancy.occupancy,
        dram_bytes: t.dram_bytes,
    }
}

/// Exhaustively sweeps `space` at one matrix dimension.
///
/// # Examples
///
/// ```
/// use ibcf_autotune::{sweep, ParamSpace, SweepOptions};
/// use ibcf_gpu_sim::GpuSpec;
///
/// let ds = sweep(
///     &ParamSpace::quick(),
///     8,
///     &GpuSpec::p100(),
///     &SweepOptions { batch: 1024, ..Default::default() },
/// );
/// assert_eq!(ds.measurements.len(), ParamSpace::quick().len_per_n());
/// ```
pub fn sweep(space: &ParamSpace, n: usize, spec: &GpuSpec, opts: &SweepOptions) -> Dataset {
    sweep_sizes(space, &[n], spec, opts)
}

/// Exhaustively sweeps `space` across several matrix dimensions, in
/// parallel (rayon) over configurations. Progress goes to stderr
/// ([`StderrProgress`]); use [`sweep_sizes_with`] for a custom sink or the
/// cache statistics.
pub fn sweep_sizes(
    space: &ParamSpace,
    sizes: &[usize],
    spec: &GpuSpec,
    opts: &SweepOptions,
) -> Dataset {
    sweep_sizes_with(space, sizes, spec, opts, &StderrProgress).dataset
}

/// [`sweep_sizes`] with an explicit [`ProgressSink`], returning the full
/// [`SweepReport`]. All sweep workers share one [`TraceCache`], so the
/// warp trace and register-reuse/coalescing passes run once per distinct
/// instruction stream instead of once per configuration.
pub fn sweep_sizes_with(
    space: &ParamSpace,
    sizes: &[usize],
    spec: &GpuSpec,
    opts: &SweepOptions,
    sink: &dyn ProgressSink,
) -> SweepReport {
    let all = grid_configs(space, sizes);
    let done = AtomicUsize::new(0);
    let total = all.len();
    let cache: TraceCache<PlanKey> = TraceCache::default();
    let start = Instant::now();
    let measurements: Vec<Measurement> = all
        .par_iter()
        .map(|config| {
            let m = measure_opts(config, spec, opts, &cache);
            if opts.progress_every > 0 {
                let k = done.fetch_add(1, Ordering::Relaxed) + 1;
                if k.is_multiple_of(opts.progress_every) {
                    sink.on_progress(k, total);
                }
            }
            m
        })
        .collect();
    let wall_s = start.elapsed().as_secs_f64();
    SweepReport {
        dataset: Dataset {
            gpu: spec.name.clone(),
            batch: opts.batch,
            measurements,
        },
        cache: cache.stats(),
        wall_s,
    }
}

/// One measurement under the sweep's options (noise model, shared cache).
pub(crate) fn measure_opts(
    config: &KernelConfig,
    spec: &GpuSpec,
    opts: &SweepOptions,
    cache: &TraceCache<PlanKey>,
) -> Measurement {
    if opts.share_plans {
        measure_noisy_cached(
            config,
            opts.batch,
            spec,
            opts.noise_sigma,
            opts.noise_seed,
            cache,
        )
    } else {
        measure_noisy(config, opts.batch, spec, opts.noise_sigma, opts.noise_seed)
    }
}

/// A [`SweepReport`] plus what the crash-safe log contributed: how much
/// of the sweep was resumed from disk vs measured this run.
#[derive(Debug, Clone)]
pub struct LoggedSweepReport {
    /// Dataset (canonical grid order), cache counters, wall clock.
    pub report: SweepReport,
    /// Measurements recovered from an existing log (skipped this run).
    pub resumed: usize,
    /// Measurements performed (and appended) this run.
    pub measured: usize,
    /// `Some(reason)` if a torn final log line was dropped on recovery.
    pub dropped_tail: Option<String>,
    /// The shard of the grid this run covered.
    pub shard: ShardSpec,
}

impl LoggedSweepReport {
    /// Freshly measured configurations per wall-clock second. Guarded like
    /// [`SweepReport::configs_per_sec`]: a fully resumed run (nothing
    /// measured) or a degenerate wall clock reports `0.0`, never NaN or
    /// infinity.
    pub fn measured_per_sec(&self) -> f64 {
        rate(self.measured, self.report.wall_s)
    }
}

/// A sweep log opened for appending, with what it already holds.
pub(crate) struct OpenedLog {
    /// Appends to the log (header already written).
    pub writer: SweepLogWriter,
    /// Measurements already in the log, by canonical grid `seq`.
    pub done: BTreeMap<usize, Measurement>,
    /// `Some(reason)` if a torn final line was dropped (and cut off).
    pub dropped_tail: Option<String>,
}

/// Creates the log at `log_path`, or reopens an existing one after
/// checking it describes the same sweep (GPU, batch, sizes, space, noise,
/// shard) and cutting off a torn final line.
pub(crate) fn open_log(
    space: &ParamSpace,
    sizes: &[usize],
    spec: &GpuSpec,
    opts: &SweepOptions,
    log_path: &Path,
    shard: ShardSpec,
) -> std::io::Result<OpenedLog> {
    let invalid = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    let header = SweepLogHeader {
        format: LOG_FORMAT.into(),
        version: LOG_VERSION,
        gpu: spec.name.clone(),
        batch: opts.batch,
        sizes: sizes.to_vec(),
        space: space.clone(),
        noise_sigma: opts.noise_sigma,
        noise_seed: opts.noise_seed,
        shard,
        total: sizes.len() * space.len_per_n(),
    };
    if !log_path.exists() {
        return Ok(OpenedLog {
            writer: SweepLogWriter::create(log_path, &header, opts.log_fsync)?,
            done: BTreeMap::new(),
            dropped_tail: None,
        });
    }
    let log = SweepLog::read(log_path, true)?;
    header.compatible_with(&log.header).map_err(|e| {
        invalid(format!(
            "{}: log belongs to a different sweep: {e}",
            log_path.display()
        ))
    })?;
    if log.header.shard != shard {
        return Err(invalid(format!(
            "{}: log covers shard {}, this run wants {shard}",
            log_path.display(),
            log.header.shard
        )));
    }
    if log.dropped_tail.is_some() {
        // Cut the torn fragment off before appending, or the next
        // line would be glued to it and corrupt the log mid-file.
        let f = std::fs::OpenOptions::new().write(true).open(log_path)?;
        f.set_len(log.valid_len)?;
        f.sync_data()?;
    }
    Ok(OpenedLog {
        writer: SweepLogWriter::open_append(log_path, opts.log_fsync)?,
        done: log.entries.into_iter().map(|e| (e.seq, e.m)).collect(),
        dropped_tail: log.dropped_tail,
    })
}

/// [`sweep_sizes_with`] made crash-safe and resumable: every completed
/// measurement is appended (fsync'd, self-validating) to the log at
/// `log_path` the moment it finishes.
///
/// If the log already exists it must describe the same sweep (GPU,
/// batch, sizes, space, noise, shard — anything else is an error); its
/// measurements are loaded, already-measured configurations are skipped,
/// and only the remainder runs. Because the model is deterministic, an
/// interrupted-and-resumed sweep produces a dataset bitwise-identical to
/// an uninterrupted one, in the same canonical grid order.
///
/// `shard` restricts this run to its deterministic slice of the grid
/// (see [`ShardSpec`]); shard logs are reassembled with
/// [`crate::merge_logs`]. Pass [`ShardSpec::whole`] for an unsharded
/// sweep.
pub fn sweep_sizes_logged(
    space: &ParamSpace,
    sizes: &[usize],
    spec: &GpuSpec,
    opts: &SweepOptions,
    sink: &dyn ProgressSink,
    log_path: &Path,
    shard: ShardSpec,
) -> std::io::Result<LoggedSweepReport> {
    let grid = grid_configs(space, sizes);
    let OpenedLog {
        writer,
        mut done,
        dropped_tail,
    } = open_log(space, sizes, spec, opts, log_path, shard)?;
    let resumed = done.len();
    let todo: Vec<usize> = (0..grid.len())
        .filter(|&s| shard.owns(s) && !done.contains_key(&s))
        .collect();
    let total_todo = todo.len();
    let cache: TraceCache<PlanKey> = TraceCache::default();
    let counter = AtomicUsize::new(0);
    let writer = Mutex::new(writer);
    let write_err: Mutex<Option<std::io::Error>> = Mutex::new(None);
    let start = Instant::now();
    let fresh: Vec<(usize, Measurement)> = todo
        .par_iter()
        .map(|&s| {
            let m = measure_opts(&grid[s], spec, opts, &cache);
            {
                let mut w = writer.lock().expect("log writer lock");
                if let Err(e) = w.append(s, &m) {
                    let mut we = write_err.lock().expect("error slot lock");
                    we.get_or_insert(e);
                }
            }
            if opts.progress_every > 0 {
                let k = counter.fetch_add(1, Ordering::Relaxed) + 1;
                if k.is_multiple_of(opts.progress_every) {
                    sink.on_progress(k, total_todo);
                }
            }
            (s, m)
        })
        .collect();
    let wall_s = start.elapsed().as_secs_f64();
    if let Some(e) = write_err.into_inner().expect("error slot lock") {
        return Err(e);
    }
    done.extend(fresh);
    Ok(LoggedSweepReport {
        report: SweepReport {
            dataset: Dataset {
                gpu: spec.name.clone(),
                batch: opts.batch,
                measurements: done.into_values().collect(),
            },
            cache: cache.stats(),
            wall_s,
        },
        resumed,
        measured: total_todo,
        dropped_tail,
        shard,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_produces_full_grid() {
        let space = ParamSpace::quick();
        let spec = GpuSpec::p100();
        let ds = sweep(
            &space,
            12,
            &spec,
            &SweepOptions {
                batch: 2048,
                ..Default::default()
            },
        );
        assert_eq!(ds.measurements.len(), space.len_per_n());
        assert!(ds
            .measurements
            .iter()
            .all(|m| m.gflops > 0.0 && m.time_s > 0.0));
        assert_eq!(ds.sizes(), vec![12]);
    }

    #[test]
    fn sweep_is_deterministic() {
        let space = ParamSpace::quick();
        let spec = GpuSpec::p100();
        let opts = SweepOptions {
            batch: 1024,
            ..Default::default()
        };
        let a = sweep(&space, 8, &spec, &opts);
        let b = sweep(&space, 8, &spec, &opts);
        for (x, y) in a.measurements.iter().zip(&b.measurements) {
            assert_eq!(x.config, y.config);
            assert_eq!(x.gflops, y.gflops);
        }
    }

    #[test]
    fn noise_perturbs_but_preserves_structure() {
        let space = ParamSpace::quick();
        let spec = GpuSpec::p100();
        let clean = sweep(
            &space,
            16,
            &spec,
            &SweepOptions {
                batch: 2048,
                ..Default::default()
            },
        );
        let noisy = sweep(
            &space,
            16,
            &spec,
            &SweepOptions {
                batch: 2048,
                noise_sigma: 0.05,
                noise_seed: 9,
                ..Default::default()
            },
        );
        let mut rel = Vec::new();
        for (c, n) in clean.measurements.iter().zip(&noisy.measurements) {
            assert_eq!(c.config, n.config);
            rel.push((n.gflops / c.gflops - 1.0).abs());
        }
        let mean_dev = rel.iter().sum::<f64>() / rel.len() as f64;
        assert!(
            mean_dev > 0.005 && mean_dev < 0.2,
            "mean deviation {mean_dev}"
        );
        // Noise must be reproducible.
        let noisy2 = sweep(
            &space,
            16,
            &spec,
            &SweepOptions {
                batch: 2048,
                noise_sigma: 0.05,
                noise_seed: 9,
                ..Default::default()
            },
        );
        for (a, b) in noisy.measurements.iter().zip(&noisy2.measurements) {
            assert_eq!(a.gflops, b.gflops);
        }
    }

    #[test]
    fn noise_is_decorrelated_across_every_parameter() {
        // Configurations differing only in unroll (or only in cache_pref)
        // must draw *distinct* noise factors — correlated noise biases the
        // best-by-unroll / best-by-cache comparisons (Fig. 19 slices).
        let spec = GpuSpec::p100();
        let batch = 2048;
        let sigma = 0.05;
        let factor = |c: &KernelConfig| {
            let clean = measure(c, batch, &spec);
            let noisy = measure_noisy(c, batch, &spec, sigma, 42);
            noisy.gflops / clean.gflops
        };
        let base = KernelConfig::baseline(16);
        let full = KernelConfig {
            unroll: ibcf_kernels::Unroll::Full,
            ..base
        };
        assert_ne!(factor(&base), factor(&full), "unroll variants share noise");
        let shared = KernelConfig {
            cache_pref: ibcf_kernels::CachePref::Shared,
            ..base
        };
        assert_ne!(
            factor(&base),
            factor(&shared),
            "cache_pref variants share noise"
        );
    }

    #[test]
    fn shared_cache_is_bitwise_identical_to_uncached() {
        let space = ParamSpace::quick();
        let spec = GpuSpec::p100();
        let cached = sweep_sizes_with(
            &space,
            &[8, 16, 32],
            &spec,
            &SweepOptions {
                batch: 1024,
                ..Default::default()
            },
            &SilentProgress,
        );
        let uncached = sweep_sizes_with(
            &space,
            &[8, 16, 32],
            &spec,
            &SweepOptions {
                batch: 1024,
                share_plans: false,
                ..Default::default()
            },
            &SilentProgress,
        );
        assert_eq!(
            cached.dataset.measurements.len(),
            uncached.dataset.measurements.len()
        );
        for (a, b) in cached
            .dataset
            .measurements
            .iter()
            .zip(&uncached.dataset.measurements)
        {
            assert_eq!(a.config, b.config);
            assert_eq!(a.gflops, b.gflops, "{}", a.config);
            assert_eq!(a.time_s, b.time_s, "{}", a.config);
        }
        // The quick space varies fast_math (and more) per structural class,
        // so the cache must have been reused heavily.
        assert!(
            cached.cache.hit_rate() > 0.5,
            "hit rate {}",
            cached.cache.hit_rate()
        );
        assert_eq!(
            cached.cache.lookups() as usize,
            cached.dataset.measurements.len()
        );
        assert_eq!(uncached.cache.lookups(), 0);
    }

    #[test]
    fn progress_sink_receives_gated_callbacks() {
        use std::sync::atomic::AtomicUsize;

        struct Counting(AtomicUsize);
        impl ProgressSink for Counting {
            fn on_progress(&self, _done: usize, total: usize) {
                assert!(total > 0);
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }

        let space = ParamSpace::quick();
        let spec = GpuSpec::p100();
        let sink = Counting(AtomicUsize::new(0));
        let report = sweep_sizes_with(
            &space,
            &[8],
            &spec,
            &SweepOptions {
                batch: 512,
                progress_every: 10,
                ..Default::default()
            },
            &sink,
        );
        let expect = report.dataset.measurements.len() / 10;
        assert_eq!(sink.0.load(Ordering::Relaxed), expect);
        assert!(report.wall_s >= 0.0);
        assert!(report.configs_per_sec() > 0.0);
    }

    #[test]
    fn multi_size_sweep_covers_all_sizes() {
        let space = ParamSpace::quick();
        let spec = GpuSpec::p100();
        let ds = sweep_sizes(
            &space,
            &[4, 8],
            &spec,
            &SweepOptions {
                batch: 512,
                ..Default::default()
            },
        );
        assert_eq!(ds.sizes(), vec![4, 8]);
        assert_eq!(ds.measurements.len(), 2 * space.len_per_n());
    }
}
