//! Autotuning demo: exhaustively sweep the kernel configuration space for
//! a few sizes (a reduced version of the paper's 14,000-run sweep), print
//! the winners, and compare against hill-climbing guided search.
//!
//! Run with: `cargo run --release --example autotune_demo`

use ibcf::autotune::{run_search, HillSelector};
use ibcf::gpu::TraceCache;
use ibcf::prelude::*;

fn main() {
    let spec = GpuSpec::p100();
    let batch = 16_384;
    let space = ParamSpace::paper();
    let sizes = [8usize, 16, 24, 32, 48, 64];
    println!(
        "exhaustive sweep: {} sizes x {} configurations each (batch {batch})",
        sizes.len(),
        space.len_per_n()
    );

    let ds = sweep_sizes(
        &space,
        &sizes,
        &spec,
        &SweepOptions {
            batch,
            progress_every: 0,
            ..Default::default()
        },
    );
    let table = BestTable::new(&ds);

    println!("\n{:<4} {:>10}  best configuration", "n", "GFLOP/s");
    for &n in &sizes {
        let best = table.best(n).expect("swept size");
        println!("{:<4} {:>10.0}  {}", n, best.gflops, best.config);
    }

    // How much does tuning matter? Compare the best against the default.
    println!("\ntuning headroom (best vs baseline config):");
    for &n in &sizes {
        let base = ibcf::kernels::gflops_of_config(&KernelConfig::baseline(n), batch, &spec);
        let best = table.best(n).unwrap().gflops;
        println!(
            "  n={n:<3} baseline {base:>7.0} -> tuned {best:>7.0} ({:.2}x)",
            best / base
        );
    }

    // Guided search: how close, how much cheaper?
    println!("\nhill climbing vs exhaustive (the paper's 'selection bias' trade-off):");
    let opts = SweepOptions {
        batch,
        ..Default::default()
    };
    let cache = TraceCache::default();
    for &n in &[24usize, 48] {
        let exhaustive = table.best(n).unwrap().gflops;
        let result = run_search(
            &mut HillSelector::new(6, 1234),
            &space,
            n,
            &spec,
            &opts,
            &cache,
        );
        println!(
            "  n={n}: guided {:.0} GFLOP/s in {} evals vs exhaustive {:.0} in {} ({:.1}% of optimum)",
            result.best.gflops,
            result.evaluated,
            exhaustive,
            space.len_per_n(),
            100.0 * result.best.gflops / exhaustive
        );
    }
}
