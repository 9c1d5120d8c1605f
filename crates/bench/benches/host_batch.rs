//! Criterion benches for the host (CPU) batch factorization, across the
//! axes of the paper translated to the host: layout × engine × size ×
//! precision at the paper's batch of 16384.
//!
//! Engines per layout:
//! * `seq`          — gather / `potrf_unblocked` / scatter, one thread;
//! * `gather_rayon` — same round trip, rayon-parallel over matrices;
//! * `lane`         — the in-place lane-vectorized engine pinned to the
//!   autovectorized kernels (for the canonical layout this is the auto
//!   path: pack + lane + unpack);
//! * `simd`         — the same engine under explicit-SIMD dispatch
//!   (AVX-512/AVX2 where the CPU has them; identical to `lane` on
//!   hardware without either, or under `IBCF_SIMD=off`).
//!
//! Pristine input buffers are rebuilt outside the timed region
//! (`iter_with_setup`), so the numbers measure factorization only.

use criterion::{criterion_group, criterion_main, Criterion};
use ibcf_core::host_batch::{factorize_batch, factorize_batch_seq};
use ibcf_core::lane_batch::{LaneOrder, LaneWidth};
use ibcf_core::spd::{fill_batch_spd, SpdKind};
use ibcf_core::{factorize_batch_auto_backend, LaneBackend, Real};
use ibcf_layout::{alloc_batch, AlignedVec, Canonical, Chunked, Interleaved, Layout};
use std::hint::black_box;

/// The paper's batch size.
const BATCH: usize = 16384;
/// Sizes spanning the paper's n ∈ [4, 32] range.
const SIZES: [usize; 5] = [4, 8, 16, 24, 32];

fn layouts(n: usize, batch: usize) -> Vec<(&'static str, Layout)> {
    vec![
        ("canonical", Layout::Canonical(Canonical::new(n, batch))),
        (
            "interleaved",
            Layout::Interleaved(Interleaved::new(n, batch)),
        ),
        ("chunked64", Layout::Chunked(Chunked::new(n, batch, 64))),
    ]
}

fn bench_engines<T: Real>(c: &mut Criterion, ty: &str) {
    for n in SIZES {
        let mut g = c.benchmark_group(format!("host_{ty}_n{n}_b{BATCH}"));
        g.sample_size(10);
        for (lname, layout) in layouts(n, BATCH) {
            let mut base: AlignedVec<T> = alloc_batch(&layout);
            fill_batch_spd(&layout, &mut base, SpdKind::DiagDominant, 7);
            g.bench_function(format!("{lname}_seq"), |b| {
                b.iter_with_setup(
                    || base.clone(),
                    |mut data| {
                        black_box(factorize_batch_seq(&layout, &mut data));
                        data
                    },
                )
            });
            g.bench_function(format!("{lname}_gather_rayon"), |b| {
                b.iter_with_setup(
                    || base.clone(),
                    |mut data| {
                        black_box(factorize_batch(&layout, &mut data));
                        data
                    },
                )
            });
            g.bench_function(format!("{lname}_lane"), |b| {
                b.iter_with_setup(
                    || base.clone(),
                    |mut data| {
                        black_box(factorize_batch_auto_backend(
                            &layout,
                            &mut data,
                            LaneOrder::default(),
                            LaneWidth::Auto,
                            LaneBackend::Autovec,
                        ));
                        data
                    },
                )
            });
            g.bench_function(format!("{lname}_simd"), |b| {
                b.iter_with_setup(
                    || base.clone(),
                    |mut data| {
                        black_box(factorize_batch_auto_backend(
                            &layout,
                            &mut data,
                            LaneOrder::default(),
                            LaneWidth::Auto,
                            LaneBackend::Simd,
                        ));
                        data
                    },
                )
            });
        }
        g.finish();
    }
}

fn bench_host_batch_f32(c: &mut Criterion) {
    bench_engines::<f32>(c, "f32");
}

fn bench_host_batch_f64(c: &mut Criterion) {
    bench_engines::<f64>(c, "f64");
}

criterion_group!(benches, bench_host_batch_f32, bench_host_batch_f64);
criterion_main!(benches);
