//! Tuned dispatch: turning the autotuning corpus into a runtime kernel
//! selector — what ATLAS-lineage libraries (and the BONSAI project this
//! paper's grant funded) do with sweep results.
//!
//! A [`DispatchTable`] holds the winning configuration per matrix size;
//! at run time, a request for dimension `n` gets the exact winner if `n`
//! was swept, or the winner of the nearest swept size with `n`
//! substituted — a sensible interpolation because the optimal qualitative
//! regime (full-vs-partial unroll, chunking, looking order) changes slowly
//! with `n`.

use crate::best::BestTable;
use crate::record::Dataset;
use ibcf_gpu_sim::{GpuSpec, KernelTiming, TraceCache};
use ibcf_kernels::{time_config_cached, KernelConfig, PlanKey};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::path::Path;

/// How a dispatch table was produced: which selector, how much of the
/// space it measured, and what regret it guarantees. Written as an
/// optional header line by [`DispatchTable::save`]; tables from before
/// provenance existed load with `provenance = None`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableProvenance {
    /// Selector strategy that chose the winners (e.g. `"exhaustive"`,
    /// `"analytic"`).
    pub selector: String,
    /// GPU spec name measured on.
    pub gpu: String,
    /// Batch size of every measurement.
    pub batch: usize,
    /// Configurations actually measured across all sizes.
    pub configs_evaluated: usize,
    /// Full grid size an exhaustive sweep would have measured.
    pub grid_total: usize,
    /// Worst per-size bound on relative regret vs the space's true best,
    /// when the selector computes one (early-stopping strategies).
    pub regret_bound: Option<f64>,
}

/// A per-size table of winning configurations.
#[derive(Debug, Clone, Serialize, Deserialize, Default)]
pub struct DispatchTable {
    /// Winning configuration per swept matrix dimension.
    pub table: BTreeMap<usize, KernelConfig>,
    /// How this table was produced, when known. The vendored serde shim
    /// treats `Option` fields as optional keys, so pre-provenance
    /// serialized tables deserialize with `None` here.
    pub provenance: Option<TableProvenance>,
}

impl DispatchTable {
    /// Builds the dispatch table from a sweep dataset, optionally
    /// restricted to one arithmetic mode (`Some(false)` = IEEE winners
    /// only — the common case, since fast-math changes numerics).
    pub fn from_dataset(ds: &Dataset, fast_math: Option<bool>) -> Self {
        let best = BestTable::new(ds);
        let mut table = BTreeMap::new();
        for n in ds.sizes() {
            let m = match fast_math {
                None => best.best(n),
                Some(f) => best.best_by_arith(n, f),
            };
            if let Some(m) = m {
                table.insert(n, m.config);
            }
        }
        DispatchTable {
            table,
            provenance: None,
        }
    }

    /// Number of tuned sizes.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// `true` if no sizes are tuned.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// The configuration to use for dimension `n`: the exact winner if
    /// swept, otherwise the nearest swept size's winner re-targeted to `n`
    /// (ties break toward the smaller size). Returns `None` on an empty
    /// table.
    pub fn config_for(&self, n: usize) -> Option<KernelConfig> {
        if let Some(c) = self.table.get(&n) {
            return Some(*c);
        }
        let below = self.table.range(..=n).next_back();
        let above = self.table.range(n..).next();
        let nearest = match (below, above) {
            (Some((&bn, bc)), Some((&an, ac))) => {
                if n - bn <= an - n {
                    (bn, bc)
                } else {
                    (an, ac)
                }
            }
            (Some((&bn, bc)), None) => (bn, bc),
            (None, Some((&an, ac))) => (an, ac),
            (None, None) => return None,
        };
        let mut c = *nearest.1;
        c.n = n;
        Some(c)
    }

    /// Expected timing of the dispatched configuration for dimension `n`
    /// at `batch`, through a caller-shared plan cache — the online-tuning
    /// path: repeated queries (same `n`, different batches or arithmetic
    /// variants of a structural class) reuse one cached trace plan and pay
    /// only the pricing pass. Returns `None` on an empty table.
    pub fn time_for(
        &self,
        n: usize,
        batch: usize,
        spec: &GpuSpec,
        cache: &TraceCache<PlanKey>,
    ) -> Option<(KernelConfig, KernelTiming)> {
        let config = self.config_for(n)?;
        let timing = time_config_cached(&config, batch, spec, cache);
        Some((config, timing))
    }

    /// Saves the table as JSON lines: an optional provenance header line
    /// (when this table carries one), then one `n` + config entry per
    /// line. Tables without provenance write the exact pre-provenance
    /// format, so older readers stay compatible both ways.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        if let Some(p) = &self.provenance {
            let line = serde_json::json!({ "provenance": p });
            writeln!(f, "{line}")?;
        }
        for (n, config) in &self.table {
            let line = serde_json::json!({ "n": n, "config": config });
            writeln!(f, "{line}")?;
        }
        Ok(())
    }

    /// Loads a table saved by [`DispatchTable::save`].
    ///
    /// A `{"provenance": ...}` first line, when present, is parsed into
    /// [`DispatchTable::provenance`]; files from before provenance existed
    /// (entry lines only) load with `provenance = None`. Every entry line
    /// must parse, carry a matching `n`, and describe a structurally valid
    /// configuration — a table that silently dropped or mangled entries
    /// would mis-dispatch every request routed through it, so corruption
    /// is an `InvalidData` error, never a default.
    pub fn load(path: &Path) -> std::io::Result<Self> {
        let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
        let f = std::io::BufReader::new(std::fs::File::open(path)?);
        let mut table = BTreeMap::new();
        let mut provenance = None;
        let mut saw_entry = false;
        for (lineno, line) in f.lines().enumerate() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let v: serde_json::Value = serde_json::from_str(&line)
                .map_err(|e| bad(format!("line {}: {e}", lineno + 1)))?;
            if let Some(p) = v.get("provenance") {
                if saw_entry || provenance.is_some() {
                    return Err(bad(format!(
                        "line {}: provenance must be the single first line",
                        lineno + 1
                    )));
                }
                provenance = Some(
                    serde_json::from_value::<TableProvenance>(p.clone())
                        .map_err(|e| bad(format!("line {}: bad provenance: {e}", lineno + 1)))?,
                );
                continue;
            }
            saw_entry = true;
            let n = v["n"]
                .as_u64()
                .ok_or_else(|| bad(format!("line {}: missing n", lineno + 1)))?
                as usize;
            let config: KernelConfig = serde_json::from_value(v["config"].clone())
                .map_err(|e| bad(format!("line {}: {e}", lineno + 1)))?;
            if config.n != n {
                return Err(bad(format!(
                    "line {}: entry n={n} disagrees with config n={}",
                    lineno + 1,
                    config.n
                )));
            }
            config
                .validate()
                .map_err(|e| bad(format!("line {}: {e}", lineno + 1)))?;
            if table.insert(n, config).is_some() {
                return Err(bad(format!(
                    "line {}: duplicate entry for n={n}",
                    lineno + 1
                )));
            }
        }
        Ok(DispatchTable { table, provenance })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{sweep_sizes, SweepOptions};
    use crate::space::ParamSpace;
    use ibcf_gpu_sim::GpuSpec;

    fn dispatch() -> (Dataset, DispatchTable) {
        let ds = sweep_sizes(
            &ParamSpace::quick(),
            &[8, 16, 32],
            &GpuSpec::p100(),
            &SweepOptions {
                batch: 4096,
                ..Default::default()
            },
        );
        let d = DispatchTable::from_dataset(&ds, Some(false));
        (ds, d)
    }

    #[test]
    fn exact_sizes_return_the_winner() {
        let (ds, d) = dispatch();
        assert_eq!(d.len(), 3);
        let best = BestTable::new(&ds);
        for n in [8usize, 16, 32] {
            let got = d.config_for(n).unwrap();
            let want = best.best_by_arith(n, false).unwrap().config;
            assert_eq!(got, want, "n={n}");
            assert!(!got.fast_math);
        }
    }

    #[test]
    fn unswept_sizes_interpolate_from_nearest() {
        let (_, d) = dispatch();
        // 12 is equidistant from 8 and 16: ties toward the smaller.
        let c12 = d.config_for(12).unwrap();
        assert_eq!(c12.n, 12);
        let c20 = d.config_for(20).unwrap();
        assert_eq!(c20.n, 20);
        // Beyond the table: clamp to the largest swept size's winner.
        let c64 = d.config_for(64).unwrap();
        assert_eq!(c64.n, 64);
        let c32 = d.config_for(32).unwrap();
        assert_eq!(c64.nb, c32.nb);
        assert_eq!(c64.looking, c32.looking);
        // All interpolated configs must be valid.
        for n in 1..=64 {
            d.config_for(n).unwrap().validate().unwrap();
        }
    }

    #[test]
    fn extrapolation_below_the_smallest_swept_size_stays_valid() {
        use ibcf_core::spd::{fill_batch_spd, SpdKind};
        use ibcf_core::verify::batch_reconstruction_error;
        use ibcf_kernels::factorize_batch_device;
        // Force a winner with nb = 8 at the smallest swept size, so a
        // retarget to n = 2 exercises the nb > n clamp.
        let mut d = DispatchTable::default();
        d.table.insert(
            8,
            ibcf_kernels::KernelConfig {
                nb: 8,
                ..ibcf_kernels::KernelConfig::baseline(8)
            },
        );
        for n in [1usize, 2, 3, 5, 7] {
            let config = d.config_for(n).unwrap();
            assert_eq!(config.n, n);
            assert_eq!(config.nb, 8, "retarget keeps the winner's nb");
            assert!(config.nb_eff() <= n, "nb_eff must clamp to n");
            config.validate().unwrap_or_else(|e| panic!("n={n}: {e}"));
            // The retargeted config must still factorize correctly.
            let batch = 64;
            let layout = config.layout(batch);
            let mut data = vec![0.0f32; ibcf_layout::BatchLayout::len(&layout)];
            fill_batch_spd(&layout, &mut data, SpdKind::Wishart, 5);
            let orig = data.clone();
            factorize_batch_device(&config, batch, &mut data);
            let err = batch_reconstruction_error(&layout, &orig, &data);
            assert!(err < 1e-4, "n={n} via {config}: {err}");
        }
        // Same below-the-table path on a real swept dispatch.
        let (_, d) = dispatch();
        let c2 = d.config_for(2).unwrap();
        assert_eq!(c2.n, 2);
        c2.validate().unwrap();
    }

    #[test]
    fn save_load_round_trip() {
        let (_, d) = dispatch();
        let dir = std::env::temp_dir().join("ibcf_dispatch");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("dispatch.jsonl");
        d.save(&p).unwrap();
        let back = DispatchTable::load(&p).unwrap();
        assert_eq!(back.len(), d.len());
        for n in [8usize, 16, 32] {
            assert_eq!(back.config_for(n), d.config_for(n));
        }
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn empty_table_returns_none() {
        let d = DispatchTable::default();
        assert!(d.is_empty());
        assert!(d.config_for(16).is_none());
    }

    #[test]
    fn online_timing_reuses_cached_plans_across_batches() {
        use ibcf_kernels::time_config;
        let (_, d) = dispatch();
        let spec = GpuSpec::p100();
        let cache = TraceCache::default();
        // Two rounds of identical queries: the second round is all
        // cache hits, priced only.
        for _round in 0..2 {
            for batch in [1024usize, 4096, 16384] {
                for n in [8usize, 16, 32] {
                    let (config, timing) = d.time_for(n, batch, &spec, &cache).unwrap();
                    let fused = time_config(&config, batch, &spec);
                    assert_eq!(timing.time_s, fused.time_s, "n={n} batch={batch}");
                }
            }
        }
        let stats = cache.stats();
        assert_eq!(stats.lookups(), 18);
        assert!(
            stats.hits >= 9,
            "second round must hit, hits={}",
            stats.hits
        );
    }

    #[test]
    fn tuned_dispatch_factorizes_correctly_at_interpolated_sizes() {
        use ibcf_core::spd::{fill_batch_spd, SpdKind};
        use ibcf_core::verify::batch_reconstruction_error;
        use ibcf_kernels::factorize_batch_device;
        let (_, d) = dispatch();
        for n in [11usize, 24] {
            let config = d.config_for(n).unwrap();
            let batch = 64;
            let layout = config.layout(batch);
            let mut data = vec![0.0f32; ibcf_layout::BatchLayout::len(&layout)];
            fill_batch_spd(&layout, &mut data, SpdKind::Wishart, 2);
            let orig = data.clone();
            factorize_batch_device(&config, batch, &mut data);
            let err = batch_reconstruction_error(&layout, &orig, &data);
            assert!(err < 1e-4, "n={n} via {config}: {err}");
        }
    }
}
