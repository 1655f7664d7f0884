//! Parallel experiment-matrix sweep runner.
//!
//! Enumerates `{loft, gsf, wormhole} × {mesh, torus, ring} × traffic
//! × load × ff-legs`, runs warmup once per base point and forks it
//! per leg (see `noc_sim::checkpoint`), runs whole simulations
//! concurrently, and streams one versioned JSON row per cell to
//! stdout. Usage:
//!
//! ```text
//! sweep [--jobs N] [--seed N]
//!       [--smoke] [--no-fork] [--no-adaptive] [--selfcheck]
//! ```
//!
//! * `--jobs N` — concurrent simulations (clamped to the machine's
//!   cores).
//! * `--smoke` — the CI 2×2 sub-matrix with tiny phase windows.
//! * `--no-fork` — re-warm every leg from scratch (the baseline the
//!   forked path is measured against).
//! * `--no-adaptive` — disable saturation horizon doubling.
//! * `--selfcheck` — run the matrix both forked and re-warmed and
//!   fail unless every row pair is bit-identical (modulo wall clock
//!   and warmup-skip accounting).

use std::time::Instant;

use loft_bench::sweep::{clamp_jobs, full_matrix, run_sweep, smoke_matrix, SweepOptions, SweepRow};
use loft_bench::SEED;

fn parse_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn parse_value<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn print_rows(rows: &[SweepRow], jobs: usize) {
    for row in rows {
        println!("{}", row.to_json(jobs));
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = parse_flag(&args, "--smoke");
    let selfcheck = parse_flag(&args, "--selfcheck");
    let seed = parse_value(&args, "--seed", SEED);
    let jobs = clamp_jobs(parse_value(&args, "--jobs", 1_usize));
    let opts = SweepOptions {
        jobs,
        fork_warmup: !parse_flag(&args, "--no-fork"),
        adaptive: !parse_flag(&args, "--no-adaptive"),
        ..SweepOptions::default()
    };

    let matrix = if smoke {
        smoke_matrix(seed)
    } else {
        full_matrix(seed)
    };
    let cells: usize = matrix.iter().map(|g| g.ff_legs.len()).sum();
    eprintln!(
        "sweep: {} groups / {} cells, jobs={jobs}, forked_warmup={}, smoke={smoke}",
        matrix.len(),
        cells,
        opts.fork_warmup,
    );

    let t0 = Instant::now();
    let rows = run_sweep(matrix.clone(), &opts);
    let wall = t0.elapsed().as_secs_f64();
    print_rows(&rows, jobs);
    eprintln!("sweep: {} rows in {wall:.2}s", rows.len());

    if selfcheck {
        // Re-run the whole matrix the other way (forked ↔ re-warm)
        // and demand bit-identical results for every cell.
        let flipped = SweepOptions {
            fork_warmup: !opts.fork_warmup,
            ..opts.clone()
        };
        let t1 = Instant::now();
        let other = run_sweep(matrix, &flipped);
        eprintln!(
            "sweep: selfcheck leg ({}) took {:.2}s",
            if flipped.fork_warmup {
                "forked"
            } else {
                "re-warm"
            },
            t1.elapsed().as_secs_f64()
        );
        assert_eq!(rows.len(), other.len(), "selfcheck lost rows");
        let mut mismatches = 0;
        for (a, b) in rows.iter().zip(&other) {
            if a.equivalence_key() != b.equivalence_key() {
                mismatches += 1;
                eprintln!(
                    "sweep: MISMATCH\n  {}\n  {}",
                    a.equivalence_key(),
                    b.equivalence_key()
                );
            }
        }
        if mismatches > 0 {
            eprintln!("sweep: selfcheck FAILED ({mismatches} mismatched cells)");
            std::process::exit(1);
        }
        eprintln!("sweep: selfcheck OK ({} cells bit-identical)", rows.len());
    }
}
