//! Layout-aware batch factorization on the host CPU.
//!
//! This serves two roles in the reproduction:
//!
//! 1. the **oracle**: an independently-tested result to compare every
//!    simulated device kernel against, and
//! 2. the **CPU baseline**: a rayon-parallel batch factorization in the
//!    spirit of MKL's compact/batch routines.

use crate::error::CholeskyError;
use crate::reference::potrf_unblocked;
use crate::scalar::Real;
use crate::sync_slice::SyncSlice;
use ibcf_layout::BatchLayout;
use rayon::prelude::*;

/// Outcome of a batch factorization: per-matrix failures, if any.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchReport {
    /// `(matrix index, error)` for every matrix that failed.
    pub failures: Vec<(usize, CholeskyError)>,
}

impl BatchReport {
    /// `true` if every matrix factorized successfully.
    pub fn all_ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Factorizes every live matrix of the batch in place using the unblocked
/// reference algorithm, sequentially.
///
/// Cholesky never reads or writes above the diagonal, so only the lower
/// triangle is gathered and scattered — half the copy traffic of a full
/// square round trip.
pub fn factorize_batch_seq<T: Real, L: BatchLayout>(layout: &L, data: &mut [T]) -> BatchReport {
    let n = layout.n();
    let mut scratch = vec![T::ZERO; n * n];
    let mut report = BatchReport::default();
    for mat in 0..layout.batch() {
        ibcf_layout::gather_lower(layout, data, mat, &mut scratch, n);
        match potrf_unblocked(n, &mut scratch, n) {
            Ok(()) => ibcf_layout::scatter_lower(layout, data, mat, &scratch, n),
            Err(e) => report.failures.push((mat, e)),
        }
    }
    report
}

/// Factorizes every live matrix of the batch in place using the unblocked
/// reference algorithm, in parallel over matrices with rayon.
///
/// Matrices whose factorization fails are left **unmodified** (the gather /
/// factor / scatter structure only writes back on success), and reported.
pub fn factorize_batch<T: Real, L: BatchLayout + Sync>(layout: &L, data: &mut [T]) -> BatchReport {
    let n = layout.n();
    let batch = layout.batch();
    assert!(data.len() >= layout.len(), "batch buffer too short");
    let shared = SyncSlice::new(data);
    let mut failures: Vec<(usize, CholeskyError)> = (0..batch)
        .into_par_iter()
        .filter_map(|mat| {
            let mut scratch = vec![T::ZERO; n * n];
            // Lower triangle only: the factorization never touches the
            // strictly-upper part, so copying it would be wasted traffic.
            for col in 0..n {
                for row in col..n {
                    // SAFETY: layout addresses are injective per (mat, row,
                    // col) and each `mat` is owned by exactly one worker.
                    scratch[row + col * n] = unsafe { shared.read(layout.addr(mat, row, col)) };
                }
            }
            match potrf_unblocked(n, &mut scratch, n) {
                Ok(()) => {
                    for col in 0..n {
                        for row in col..n {
                            // SAFETY: as above — disjoint per matrix.
                            unsafe {
                                shared.write(layout.addr(mat, row, col), scratch[row + col * n]);
                            }
                        }
                    }
                    None
                }
                Err(e) => Some((mat, e)),
            }
        })
        .collect();
    failures.sort_by_key(|&(mat, _)| mat);
    BatchReport { failures }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spd::{fill_batch_spd, SpdKind};
    use crate::verify::batch_reconstruction_error;
    use ibcf_layout::{Canonical, Chunked, Interleaved, Layout};

    fn layouts(n: usize, batch: usize) -> Vec<Layout> {
        vec![
            Layout::Canonical(Canonical::new(n, batch)),
            Layout::Interleaved(Interleaved::new(n, batch)),
            Layout::Chunked(Chunked::new(n, batch, 32)),
        ]
    }

    #[test]
    fn parallel_matches_sequential() {
        let n = 9;
        let batch = 100;
        for layout in layouts(n, batch) {
            let mut a = vec![0.0f32; layout.len()];
            fill_batch_spd(&layout, &mut a, SpdKind::Wishart, 21);
            let mut b = a.clone();
            let r1 = factorize_batch_seq(&layout, &mut a);
            let r2 = factorize_batch(&layout, &mut b);
            assert!(r1.all_ok() && r2.all_ok());
            assert_eq!(a, b, "{:?}", layout.kind());
        }
    }

    #[test]
    fn batch_residuals_are_small() {
        let n = 12;
        let batch = 64;
        for layout in layouts(n, batch) {
            let mut data = vec![0.0f64; layout.len()];
            fill_batch_spd(&layout, &mut data, SpdKind::Wishart, 5);
            let orig = data.clone();
            assert!(factorize_batch(&layout, &mut data).all_ok());
            let err = batch_reconstruction_error(&layout, &orig, &data);
            assert!(err < 1e-13, "{:?}: {err}", layout.kind());
        }
    }

    #[test]
    fn failures_reported_and_matrix_left_intact() {
        let n = 4;
        let batch = 10;
        let layout = Interleaved::new(n, batch);
        let mut data = vec![0.0f32; layout.len()];
        fill_batch_spd(&layout, &mut data, SpdKind::Wishart, 1);
        // Corrupt matrix 3: make it -I.
        let neg_eye: Vec<f32> = (0..n * n)
            .map(|i| if i % (n + 1) == 0 { -1.0 } else { 0.0 })
            .collect();
        ibcf_layout::scatter_matrix(&layout, &mut data, 3, &neg_eye, n);
        let before = data.clone();
        let report = factorize_batch(&layout, &mut data);
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].0, 3);
        // Matrix 3 untouched, others factored.
        let mut m3 = vec![0.0f32; n * n];
        ibcf_layout::gather_matrix(&layout, &data, 3, &mut m3, n);
        let mut m3_before = vec![0.0f32; n * n];
        ibcf_layout::gather_matrix(&layout, &before, 3, &mut m3_before, n);
        assert_eq!(m3, m3_before);
    }
}
