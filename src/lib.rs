//! # ibcf — Interleaved Batch Cholesky Factorization
//!
//! A full reproduction of *Autotuning Batch Cholesky Factorization in CUDA
//! with Interleaved Layout of Matrices* (Gates, Kurzak, Luszczek, Pei,
//! Dongarra — IPPS 2017) in Rust, with the GPU replaced by an explicit
//! SIMT simulator.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`layout`] — canonical / interleaved / chunked batch layouts,
//! * [`core`] — host batch linear algebra (reference Cholesky, tile
//!   microkernels, blocked variants, SPD generators, solves),
//! * [`gpu`] — the SIMT GPU simulator (functional + timing),
//! * [`kernels`] — the interleaved and traditional device kernels,
//! * [`autotune`] — the exhaustive sweep and best-configuration queries,
//! * [`forest`] — random-forest regression and permutation importance.
//!
//! ## Quickstart
//!
//! ```
//! use ibcf::prelude::*;
//!
//! // A batch of 256 SPD matrices of dimension 12, chunked-interleaved.
//! let config = KernelConfig::baseline(12);
//! let layout = config.layout(256);
//! let mut data = vec![0.0f32; layout.len()];
//! fill_batch_spd(&layout, &mut data, SpdKind::Wishart, 42);
//! let orig = data.clone();
//!
//! // Factorize on the simulated GPU and verify against the originals.
//! factorize_batch_device(&config, 256, &mut data);
//! let err = batch_reconstruction_error(&layout, &orig, &data);
//! assert!(err < 1e-4);
//!
//! // Ask the timing model what this configuration would achieve on a P100.
//! let gflops = gflops_of_config(&config, 16384, &GpuSpec::p100());
//! assert!(gflops > 100.0);
//! ```

pub use ibcf_autotune as autotune;
pub use ibcf_core as core;
pub use ibcf_forest as forest;
pub use ibcf_gpu_sim as gpu;
pub use ibcf_kernels as kernels;
pub use ibcf_layout as layout;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use ibcf_autotune::{
        sweep, sweep_sizes, BestTable, Dataset, DispatchTable, Measurement, ParamSpace,
        SweepOptions,
    };
    pub use ibcf_core::flops::{batch_gflops, cholesky_flops_std};
    pub use ibcf_core::host_batch::{factorize_batch, factorize_batch_seq};
    pub use ibcf_core::lane_batch::{
        factorize_batch_auto, factorize_batch_lanes, lane_compatible, LaneOrder, LaneWidth,
    };
    pub use ibcf_core::solve::{solve_batch, solve_cholesky, VectorBatch};
    pub use ibcf_core::spd::{fill_batch_spd, random_spd, SpdKind};
    pub use ibcf_core::verify::{batch_reconstruction_error, reconstruction_error};
    pub use ibcf_core::{
        batch_cond_estimate, cond_estimate, potrf_blocked, potrf_unblocked, potrf_uplo,
        solve_cholesky_uplo, CholeskyError, ColMatrix, Looking, Uplo,
    };
    pub use ibcf_forest::{
        partial_dependence, permutation_importance, Forest, ForestConfig, TableData,
    };
    pub use ibcf_gpu_sim::{GpuSpec, KernelTiming, LaunchConfig};
    pub use ibcf_kernels::{
        emit_cuda, factorize_batch_device, factorize_batch_traditional, gflops_of_config,
        pack_batch_device, pack_batch_host, solve_batch_device, time_config, time_solve,
        time_traditional, unpack_batch_host, CachePref, InterleavedCholesky, InterleavedSolve,
        KernelConfig, PackKernel, TraditionalCholesky, Unroll,
    };
    pub use ibcf_layout::{
        alloc_aligned, alloc_batch, gather_lower, gather_matrix, pack_symmetric, scatter_lower,
        scatter_matrix, transcode, unpack_symmetric, AlignedVec, BatchLayout, Canonical, Chunked,
        Interleaved, Layout, LayoutKind, PackedChunked, BUFFER_ALIGN,
    };
}
