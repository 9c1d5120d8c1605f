//! Autotuning of the interleaved batch Cholesky kernels.
//!
//! Reproduces the paper's Section III/IV methodology: an **exhaustive**
//! sweep of the kernel configuration space (the paper reports over 14,000
//! successful runs), persisted as a dataset for post-mortem analysis, plus
//! best-configuration extraction sliced every way the figures need and a
//! guided-search extension (hill climbing) for comparison.

#![warn(missing_docs)]

pub mod analytic;
pub mod best;
pub mod dispatch;
pub mod heuristics;
pub mod log;
pub mod record;
pub mod runner;
pub mod select;
pub mod space;

pub use analytic::{best_config, rank_candidates, score_config, AnalyticScore};
pub use best::BestTable;
pub use dispatch::{DispatchTable, TableProvenance};
pub use log::{
    grid_configs, merge_logs, MergeReport, ShardSpec, SweepLog, SweepLogEntry, SweepLogHeader,
    SweepLogWriter,
};
pub use record::{Dataset, Measurement};
pub use runner::{
    measure, measure_cached, measure_noisy, measure_noisy_cached, sweep, sweep_sizes,
    sweep_sizes_logged, sweep_sizes_with, LoggedSweepReport, ProgressSink, SilentProgress,
    StderrProgress, SweepOptions, SweepReport,
};
pub use select::{
    run_search, run_sizes, run_sizes_logged, AnalyticSelector, Candidate, Evaluation,
    ExhaustiveSelector, HeuristicSelector, HillSelector, SelectCtx, SelectionReport, Selector,
    SelectorKind, SizeOutcome,
};
pub use space::ParamSpace;
