//! Analytic performance prior: ranking kernel configurations from
//! hardware structure alone, without tracing a single warp.
//!
//! The tritonBLAS observation (PAPERS.md) is that occupancy and
//! arithmetic-intensity arithmetic over a `GpuSpec` picks near-optimal
//! kernel parameters with zero search. This module rebuilds the
//! simulator's pricing pass ([`ibcf_gpu_sim::plan::price`]) from closed
//! forms: the tile-operation walker ([`ibcf_kernels::codesize`]) yields
//! the exact dynamic op mix of the traced warp, the occupancy calculator
//! gives waves and utilization, and only the memory pipeline — register
//! reuse, L2 filtering, DRAM row locality — is approximated. The result
//! is a modeled time per configuration that is orders of magnitude
//! cheaper than a trace (no per-element address stream) yet ranks the
//! space well enough for an early-stopped sweep ([`crate::select`]) to
//! recover the exhaustive winner after measuring a few percent of it.

use crate::space::ParamSpace;
use ibcf_core::Looking;
use ibcf_gpu_sim::{occupancy, GpuSpec, KernelStatics};
use ibcf_kernels::codesize::{self, TileOp};
use ibcf_kernels::tileops::LOOP_OVERHEAD_IOPS;
use ibcf_kernels::{KernelConfig, Unroll};
use ibcf_layout::BatchLayout;
use std::collections::HashMap;

/// Dynamic per-thread operation profile of one `(n, nb, looking)` walk:
/// the exact op mix the traced warp would execute, computed analytically.
#[derive(Debug, Clone, Copy, Default)]
struct OpProfile {
    /// FMA-class ops (fma/mul/add/sub).
    fma: u64,
    /// IEEE divides (TRSM).
    div: u64,
    /// Square roots (POTRF pivots).
    sqrt: u64,
    /// Reciprocals (POTRF column scaling).
    rcp: u64,
    /// Global load elements.
    loads: u64,
    /// Global store elements.
    stores: u64,
    /// Loop/addressing overhead ops charged under partial unrolling.
    partial_iops: u64,
}

/// Walks the tile operations of `(n, nb, looking)` and accumulates the
/// exact dynamic op mix, mirroring [`ibcf_kernels::tileops`]: POTRF
/// issues one sqrt and one rcp per pivot, TRSM divides, everything else
/// is FMA-class, and partial unrolling charges the loop overhead the
/// tile ops charge when `charge_iops` is set.
fn op_profile(n: usize, nb: usize, looking: Looking) -> OpProfile {
    let mut p = OpProfile::default();
    codesize::walk(n, nb, looking, |op| {
        let instrs = op.instrs();
        match op {
            TileOp::Potrf(d) => {
                p.sqrt += d as u64;
                p.rcp += d as u64;
                p.fma += instrs - 2 * d as u64;
                p.partial_iops += LOOP_OVERHEAD_IOPS;
            }
            TileOp::Trsm(m, d) => {
                p.div += (m * d) as u64;
                p.fma += instrs - (m * d) as u64;
                p.partial_iops += LOOP_OVERHEAD_IOPS;
            }
            TileOp::Syrk(..) | TileOp::Gemm(..) => {
                p.fma += instrs;
                p.partial_iops += LOOP_OVERHEAD_IOPS;
            }
            TileOp::LoadFull(..) | TileOp::LoadLower(_) => {
                p.loads += instrs;
                p.partial_iops += LOOP_OVERHEAD_IOPS + instrs;
            }
            TileOp::StoreFull(..) | TileOp::StoreLower(_) => {
                p.stores += instrs;
                p.partial_iops += LOOP_OVERHEAD_IOPS + instrs;
            }
        }
    });
    p
}

/// The axes a configuration's op walk and static resources depend on:
/// `(n, nb_eff, looking, unroll)`. Layout, fast math and cache preference
/// only enter the closed forms, so the paper space has 48 shapes per
/// size against 1,920 configurations.
type ShapeKey = (usize, usize, Looking, Unroll);

/// Everything a score needs from a configuration's shape: the dynamic op
/// mix and the static resource estimates. Both walk the whole tile-op
/// DAG (partial unrolling also dedups every op body), so a ranking
/// computes them once per shape rather than once per configuration.
#[derive(Debug, Clone, Copy)]
struct ShapeCost {
    profile: OpProfile,
    statics: KernelStatics,
}

fn shape_cost(config: &KernelConfig) -> ShapeCost {
    ShapeCost {
        profile: op_profile(config.n, config.nb_eff(), config.looking),
        statics: codesize::statics(config),
    }
}

/// One analytically scored configuration: the modeled kernel time and
/// the per-pipeline breakdown it decomposes into.
#[derive(Debug, Clone, Copy)]
pub struct AnalyticScore {
    /// The configuration scored.
    pub config: KernelConfig,
    /// Modeled time, seconds (max of the three pipelines).
    pub time_s: f64,
    /// Modeled arithmetic-issue time, seconds.
    pub compute_s: f64,
    /// Modeled load/store-unit time, seconds.
    pub lsu_s: f64,
    /// Modeled DRAM time, seconds.
    pub dram_s: f64,
    /// Occupancy of the launch (fraction of max resident warps).
    pub occupancy: f64,
}

fn tri(n: usize) -> u64 {
    (n * (n + 1) / 2) as u64
}

fn score_shape(
    config: &KernelConfig,
    batch: usize,
    spec: &GpuSpec,
    shape: &ShapeCost,
) -> AnalyticScore {
    let (p, statics) = (&shape.profile, &shape.statics);
    let launch = config.launch(batch);
    let warps_total = (launch.total_threads() / spec.warp_size as usize) as f64;

    // -- occupancy, waves, SM load balance (exact: mirrors `price`) -------
    let occ = occupancy(
        spec,
        launch.block,
        statics.regs_per_thread,
        statics.shared_bytes_per_block,
    );
    let block_rounds = (launch.grid as u64).div_ceil(spec.sms as u64);
    let utilization = launch.grid as f64 / (block_rounds * spec.sms as u64) as f64;

    // -- register reuse (approximate): full unrolling keeps the working
    // set live across tile ops, so repeat loads of the same element are
    // served from registers up to the reuse capacity; dead-store
    // elimination drops all but the final triangle writes.
    let unique = tri(config.n);
    let (loads, stores) = match config.unroll {
        Unroll::Partial => (p.loads, p.stores),
        Unroll::Full => {
            let demand = unique + codesize::REG_OVERHEAD as u64;
            if statics.dead_store_elim {
                (unique.min(p.loads), unique.min(p.stores))
            } else {
                // Partial reuse: the capacity covers a fraction of the
                // triangle, eliminating that share of the repeat loads.
                let frac = (statics.reg_reuse_capacity as f64 / demand as f64).clamp(0.0, 1.0);
                let repeats = p.loads.saturating_sub(unique) as f64;
                let kept = unique as f64 + repeats * (1.0 - frac);
                (kept.round() as u64, p.stores)
            }
        }
    };

    // -- spills (exact formula of `price`) --------------------------------
    let spill_regs = statics
        .regs_per_thread
        .saturating_sub(spec.max_regs_per_thread) as f64;
    let spill_accesses = (spill_regs * spec.spill_reuse_factor * 2.0).round();
    let spill_bytes_per_warp = spill_accesses * 32.0 * 4.0;

    // -- instruction cache (exact formula of `price`) ---------------------
    let code_bytes = statics.static_instrs * spec.instr_bytes as u64;
    let icache_penalty = if code_bytes > spec.icache_bytes as u64 {
        1.0 + spec.icache_beta * (code_bytes as f64 / spec.icache_bytes as f64).log2()
    } else {
        1.0
    };

    // -- arithmetic issue (exact op mix) ----------------------------------
    let c = &spec.costs;
    let fast = config.fast_math;
    let iops = match config.unroll {
        Unroll::Partial => p.partial_iops,
        Unroll::Full => 0,
    };
    let comp_cycles = (p.fma as f64 * c.fma
        + p.div as f64 * c.div(fast)
        + p.sqrt as f64 * c.sqrt(fast)
        + p.rcp as f64 * c.rcp(fast)
        + iops as f64 * c.iop)
        * icache_penalty;

    // -- LSU: interleaved layouts coalesce to one transaction per access --
    let lsu_cycles =
        ((loads + stores) as f64 + spill_accesses) * c.lsu_per_transaction * icache_penalty;

    // -- DRAM (approximate): each element is a distinct cache line for a
    // warp (lane stride ≥ 32 floats). First touches and write-through
    // stores always reach DRAM; repeat loads hit the warp's L2 share when
    // the triangle fits in it.
    let active_warps = ((occ.warps_per_sm as u64 * spec.sms as u64) as f64)
        .min(warps_total)
        .max(1.0);
    let share_lines = (spec.l2_bytes as f64 / active_warps / spec.line_bytes as f64).max(1.0);
    let l2_hit = (share_lines / unique as f64).clamp(0.0, 1.0);
    let repeat_loads = loads.saturating_sub(unique) as f64;
    let dram_accesses = unique as f64 + repeat_loads * (1.0 - l2_hit) + stores as f64;
    let dram_bytes =
        dram_accesses * spec.line_bytes as f64 * warps_total + spill_bytes_per_warp * warps_total;

    // Row-buffer locality: consecutive element accesses of one warp are
    // one lane stride apart — 4·chunk_size bytes chunked, 4·padded_batch
    // simple — so the open-row hit rate falls linearly with the stride's
    // share of the row.
    let stride_bytes = 4.0
        * if config.chunked {
            config.chunk_size as f64
        } else {
            config.layout(batch).padded_batch() as f64
        };
    let row_hit = (1.0 - stride_bytes / spec.dram_row_bytes as f64).clamp(0.0, 1.0);
    let dram_eff = 1.0 / (row_hit + (1.0 - row_hit) * spec.dram_row_miss_penalty);

    // -- assemble (same scaling as `price`) -------------------------------
    let clock = spec.clock_hz();
    let sms = spec.sms as f64;
    let compute_s = comp_cycles * warps_total / sms / clock / utilization;
    let lsu_s = lsu_cycles * warps_total / sms / clock / utilization;
    let dram_s = dram_bytes / (spec.dram_gbps * 1e9 * dram_eff);

    AnalyticScore {
        config: *config,
        time_s: compute_s.max(lsu_s).max(dram_s),
        compute_s,
        lsu_s,
        dram_s,
        occupancy: occ.occupancy,
    }
}

/// Scores one configuration analytically (no tracing).
pub fn score_config(config: &KernelConfig, batch: usize, spec: &GpuSpec) -> AnalyticScore {
    score_shape(config, batch, spec, &shape_cost(config))
}

/// Scores every configuration of `space` at dimension `n` and returns
/// them ranked by modeled time, fastest first. Ties break toward the
/// canonical enumeration order, so the ranking is deterministic. Each
/// shape's op walk and static resources are computed once and shared by
/// every configuration of that shape.
pub fn rank_candidates(
    space: &ParamSpace,
    n: usize,
    batch: usize,
    spec: &GpuSpec,
) -> Vec<AnalyticScore> {
    let mut shapes: HashMap<ShapeKey, ShapeCost> = HashMap::new();
    let mut scored: Vec<AnalyticScore> = space
        .configs(n)
        .iter()
        .map(|config| {
            let shape = shapes
                .entry((config.n, config.nb_eff(), config.looking, config.unroll))
                .or_insert_with(|| shape_cost(config));
            score_shape(config, batch, spec, shape)
        })
        .collect();
    scored.sort_by(|a, b| a.time_s.total_cmp(&b.time_s));
    scored
}

/// The model's single best configuration — the zero-measurement pick the
/// serving fallback chain uses between a tuned table and the §11
/// heuristics.
pub fn best_config(space: &ParamSpace, n: usize, batch: usize, spec: &GpuSpec) -> KernelConfig {
    rank_candidates(space, n, batch, spec)
        .first()
        .map(|s| s.config)
        .unwrap_or_else(|| KernelConfig::baseline(n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::measure;

    #[test]
    fn scores_are_finite_and_positive() {
        let spec = GpuSpec::p100();
        for c in ParamSpace::quick().configs(16) {
            let s = score_config(&c, 2048, &spec);
            assert!(s.time_s.is_finite() && s.time_s > 0.0, "{c}: {s:?}");
            assert!(s.compute_s > 0.0 && s.lsu_s > 0.0 && s.dram_s > 0.0, "{c}");
        }
    }

    #[test]
    fn ranking_is_sorted_and_complete() {
        let space = ParamSpace::quick();
        let spec = GpuSpec::p100();
        let ranked = rank_candidates(&space, 24, 2048, &spec);
        assert_eq!(ranked.len(), space.len_per_n());
        for w in ranked.windows(2) {
            assert!(w[0].time_s <= w[1].time_s);
        }
    }

    #[test]
    fn model_prefers_fast_math_and_chunking() {
        // The model must reproduce the paper's robust qualitative
        // findings, or it could never guide a search.
        let spec = GpuSpec::p100();
        let batch = 16_384;
        let base = KernelConfig::baseline(24);
        let fast = KernelConfig {
            fast_math: true,
            ..base
        };
        // Fast math cuts the compute term; total time never gets worse
        // (it ties exactly when the configuration is DRAM-bound, matching
        // the simulator's behavior at this size and batch).
        let s_fast = score_config(&fast, batch, &spec);
        let s_base = score_config(&base, batch, &spec);
        assert!(s_fast.time_s <= s_base.time_s);
        assert!(s_fast.compute_s < s_base.compute_s);
        let simple = KernelConfig {
            chunked: false,
            ..base
        };
        assert!(
            score_config(&base, batch, &spec).time_s < score_config(&simple, batch, &spec).time_s
        );
    }

    #[test]
    fn model_correlates_with_the_simulator() {
        // Spearman-ish sanity: the measured winner must sit in the model's
        // top quarter, and the model's top pick must measure well.
        let space = ParamSpace::quick();
        let spec = GpuSpec::p100();
        let batch = 4096;
        for n in [8usize, 24, 48] {
            let ranked = rank_candidates(&space, n, batch, &spec);
            let measured: Vec<f64> = ranked
                .iter()
                .map(|s| measure(&s.config, batch, &spec).time_s)
                .collect();
            let best_t = measured.iter().cloned().fold(f64::INFINITY, f64::min);
            let k = ranked.len() / 4;
            let top_q_best = measured[..k].iter().cloned().fold(f64::INFINITY, f64::min);
            assert!(
                top_q_best <= 1.10 * best_t,
                "n={n}: model top quarter best {top_q_best} vs global best {best_t}"
            );
        }
    }

    #[test]
    fn shared_shape_costs_rank_bit_identically_to_per_config_scores() {
        let space = ParamSpace::paper();
        let batch = 16_384;
        for spec in GpuSpec::presets() {
            let name = &spec.name;
            for n in ParamSpace::paper_sizes() {
                let ranked = rank_candidates(&space, n, batch, &spec);
                let mut reference: Vec<AnalyticScore> = space
                    .configs(n)
                    .iter()
                    .map(|c| score_config(c, batch, &spec))
                    .collect();
                reference.sort_by(|a, b| a.time_s.total_cmp(&b.time_s));
                assert_eq!(ranked.len(), reference.len());
                for (i, (a, b)) in ranked.iter().zip(&reference).enumerate() {
                    let bits = |s: &AnalyticScore| {
                        [s.time_s, s.compute_s, s.lsu_s, s.dram_s, s.occupancy].map(f64::to_bits)
                    };
                    assert_eq!(a.config, b.config, "{name} n={n} rank {i}");
                    assert_eq!(bits(a), bits(b), "{name} n={n} rank {i}: {}", a.config);
                }
            }
        }
    }

    #[test]
    fn best_config_is_inside_the_space() {
        let space = ParamSpace::paper();
        let spec = GpuSpec::p100();
        for n in [8usize, 32, 64] {
            let c = best_config(&space, n, 16_384, &spec);
            assert!(space.contains(&c), "n={n}: {c}");
            c.validate().unwrap();
        }
    }
}
