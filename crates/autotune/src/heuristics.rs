//! Search heuristics: the zero-measurement configuration the serving
//! layer falls back to, and the one-step neighborhood the hill-climbing
//! [`HillSelector`](crate::HillSelector) moves through. Guided search is
//! the alternative to exhaustive sweeping the paper discusses (and
//! deliberately rejects for its analysis, calling it a form of selection
//! bias); the climber quantifies the trade-off: how close does it get,
//! with how few evaluations?

use crate::space::ParamSpace;
use ibcf_kernels::KernelConfig;

/// A configuration chosen without any sweep data — the zero-measurement
/// fallback the serving layer uses when no dispatch table exists yet.
///
/// Encodes the paper's qualitative findings: chunked interleaving wins at
/// every size (spatial locality), full unrolling pays off only while the
/// generated kernel still fits the instruction cache (small `n`), and a
/// moderate tile keeps register pressure in check as `n` grows.
pub fn heuristic_config(n: usize) -> KernelConfig {
    use ibcf_kernels::Unroll;
    KernelConfig {
        unroll: if n <= 16 {
            Unroll::Full
        } else {
            Unroll::Partial
        },
        nb: if n <= 8 { n } else { 4 },
        ..KernelConfig::baseline(n)
    }
}

/// Neighbors of a configuration: one parameter moved one step within the
/// space.
pub(crate) fn neighbors(space: &ParamSpace, c: &KernelConfig) -> Vec<KernelConfig> {
    let mut out = Vec::new();
    let step = |vals: &[usize], cur: usize| -> Vec<usize> {
        let i = vals.iter().position(|&v| v == cur);
        match i {
            Some(i) => {
                let mut v = Vec::new();
                if i > 0 {
                    v.push(vals[i - 1]);
                }
                if i + 1 < vals.len() {
                    v.push(vals[i + 1]);
                }
                v
            }
            None => vals.to_vec(),
        }
    };
    for nb in step(&space.nb, c.nb) {
        out.push(KernelConfig { nb, ..*c });
    }
    for &looking in &space.looking {
        if looking != c.looking {
            out.push(KernelConfig { looking, ..*c });
        }
    }
    for &chunked in &space.chunked {
        if chunked != c.chunked {
            out.push(KernelConfig { chunked, ..*c });
        }
    }
    for chunk_size in step(&space.chunk_size, c.chunk_size) {
        out.push(KernelConfig { chunk_size, ..*c });
    }
    for &unroll in &space.unroll {
        if unroll != c.unroll {
            out.push(KernelConfig { unroll, ..*c });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::best::BestTable;
    use crate::runner::{sweep, SweepOptions};
    use crate::select::{run_search, HillSelector};
    use ibcf_gpu_sim::{GpuSpec, TraceCache};

    #[test]
    fn hill_climb_gets_close_to_exhaustive_with_fewer_evals() {
        let space = ParamSpace::quick();
        let spec = GpuSpec::p100();
        let n = 24;
        let batch = 2048;
        let ds = sweep(
            &space,
            n,
            &spec,
            &SweepOptions {
                batch,
                progress_every: 0,
                ..Default::default()
            },
        );
        // The climber explores the space's first arithmetic mode (IEEE);
        // compare under the same restriction.
        let exhaustive = BestTable::new(&ds)
            .best_where(n, |m| !m.config.fast_math)
            .unwrap()
            .gflops;
        let opts = SweepOptions {
            batch,
            ..Default::default()
        };
        let result = run_search(
            &mut HillSelector::new(4, 7),
            &space,
            n,
            &spec,
            &opts,
            &TraceCache::default(),
        );
        assert!(
            result.best.gflops >= 0.9 * exhaustive,
            "hill climb {} vs exhaustive {exhaustive}",
            result.best.gflops
        );
        assert!(
            result.evaluated < space.len_per_n(),
            "guided search used {} >= grid {}",
            result.evaluated,
            space.len_per_n()
        );
    }

    #[test]
    fn eval_count_is_bounded_by_distinct_configs() {
        // With 200 restarts over the (fast_math, cache_pref)-restricted
        // quick space (144 configurations), starts *must* repeat; honest
        // accounting keeps `evaluations` at or below the distinct count.
        // The pre-fix code counted every restart pick, so 200 restarts
        // alone would exceed the restricted grid.
        let space = ParamSpace::quick();
        let spec = GpuSpec::p100();
        let restricted = space.nb.len()
            * space.looking.len()
            * space.chunked.len()
            * space.chunk_size.len()
            * space.unroll.len();
        let opts = SweepOptions {
            batch: 1024,
            ..Default::default()
        };
        let result = run_search(
            &mut HillSelector::new(200, 3),
            &space,
            16,
            &spec,
            &opts,
            &TraceCache::default(),
        );
        assert!(
            result.evaluated <= restricted,
            "evaluations {} exceed the {restricted} distinct configurations",
            result.evaluated
        );
    }

    #[test]
    fn neighbors_move_one_parameter() {
        let space = ParamSpace::paper();
        let c = KernelConfig::baseline(16);
        for nb in neighbors(&space, &c) {
            let mut diffs = 0;
            diffs += (nb.nb != c.nb) as u32;
            diffs += (nb.looking != c.looking) as u32;
            diffs += (nb.chunked != c.chunked) as u32;
            diffs += (nb.chunk_size != c.chunk_size) as u32;
            diffs += (nb.unroll != c.unroll) as u32;
            assert_eq!(diffs, 1, "{nb}");
        }
    }
}
