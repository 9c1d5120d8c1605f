//! `ibcf` — command-line interface to the interleaved batch Cholesky
//! reproduction.
//!
//! ```text
//! ibcf simulate --n 16 [--nb 4] [--looking top] [--chunk 64] [--simple]
//!               [--full] [--fast] [--batch 16384]
//!               [--gpu p100|v100|a100|gtx1080]
//!     Time one kernel configuration and print the full model breakdown.
//!
//! ibcf best --n 16 [--batch 16384] [--quick]
//!     Exhaustively sweep one size and print the winning configurations.
//!
//! ibcf sweep --sizes 8,16,24 [--out sweep.jsonl] [--log sweep.log]
//!            [--shard i/k] [--batch 16384] [--quick]
//!            [--selector exhaustive|analytic|hill]
//!     Run a sweep and persist the dataset (JSON lines). With --log,
//!     stream every measurement to a crash-safe resumable log. With
//!     --selector, swap the exhaustive grid for a model-guided or
//!     hill-climbing search over the same logging machinery.
//!
//! ibcf resume --log sweep.log [--out sweep.jsonl]
//!     Finish an interrupted sweep from its log.
//!
//! ibcf merge --out sweep.jsonl shard0.log shard1.log ...
//!     Reassemble shard logs into one canonical dataset.
//!
//! ibcf verify-log sweep.log [--strict]
//!     Validate a sweep log (checksums, grid consistency, coverage).
//!
//! ibcf analyze --data sweep.jsonl [--trees 500]
//!     Fit the random forest and print Table-I-style importances.
//!
//! ibcf tune --data sweep.jsonl --out dispatch.jsonl
//!     Build a per-size kernel dispatch table from a sweep dataset.
//!
//! ibcf tune --out dispatch.jsonl [--selector analytic] [--regret]
//!     Model-guided fast path: build the table by searching directly,
//!     measuring only the analytic model's plausible candidates.
//!
//! ibcf emit --n 16 [--nb 4] [--looking top] [--full] [--out k.cu]
//!     Emit the CUDA C source the paper's generator would produce.
//!
//! ibcf verify --n 16 [--batch 1024]
//!     Factor a random batch functionally and report the residual.
//!
//! ibcf host-bench [--sizes 8,16,24,32] [--batch 16384] [--reps 3]
//!     Benchmark the CPU baselines per layout: sequential and
//!     rayon-gather gather/scatter vs the in-place lane-vectorized
//!     engine.
//!
//! ibcf tiled-bench [--sizes 128,256,512] [--nbs 16,32] [--threads T]
//!     Benchmark large-matrix Cholesky: sequential blocked baseline vs
//!     the core::tiled task-graph runtime (sequential and parallel).
//!
//! ibcf serve [--port 7117] [--workers 1] [--dispatch dispatch.jsonl]
//!     Run the dynamic-batching factorization service over TCP.
//!
//! ibcf loadgen [--addr 127.0.0.1:7117] [--requests 100000] [--rate R]
//!     Drive a running server and report throughput and latency.
//!
//! ibcf chaos [--plan mixed] [--seed 1] [--requests 2000]
//!     Run loadgen against an in-process service under a seeded fault
//!     plan and verify every request gets exactly one reply.
//! ```

mod args;
mod commands;
mod serving;

use args::Args;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match Args::parse(argv) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let code = match parsed.command.as_deref() {
        Some("simulate") => commands::simulate(&parsed),
        Some("best") => commands::best(&parsed),
        Some("sweep") => commands::sweep(&parsed),
        Some("resume") => commands::resume(&parsed),
        Some("merge") => commands::merge(&parsed),
        Some("verify-log") => commands::verify_log(&parsed),
        Some("analyze") => commands::analyze(&parsed),
        Some("tune") => commands::tune(&parsed),
        Some("emit") => commands::emit(&parsed),
        Some("verify") => commands::verify(&parsed),
        Some("host-bench") => commands::host_bench(&parsed),
        Some("tiled-bench") => commands::tiled_bench(&parsed),
        Some("serve") => commands::serve(&parsed),
        Some("loadgen") => commands::loadgen(&parsed),
        Some("chaos") => commands::chaos(&parsed),
        Some("help") | None => {
            print!("{}", commands::USAGE);
            0
        }
        Some(other) => {
            eprintln!("unknown command: {other}\n\n{}", commands::USAGE);
            2
        }
    };
    std::process::exit(code);
}
