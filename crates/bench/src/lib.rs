//! # loft-bench — experiment harness for the LOFT reproduction
//!
//! One binary per table/figure of the paper (see `src/bin/`), plus
//! the shared machinery here: scenario runners for each network
//! architecture, multi-threaded parameter sweeps, and plain-text
//! table output.
//!
//! | Paper artifact | Binary |
//! |----------------|--------|
//! | Table 1 (setup) | `table1_setup` |
//! | Table 2 (storage) + area/power | `table2_storage` |
//! | §5.3.1 delay bounds | `delay_bounds` |
//! | Figure 6 (flow-control timeline) | `fig6_flowcontrol` |
//! | Figure 10 (fairness) | `fig10_fairness` |
//! | Figure 11 (latency/throughput) | `fig11_performance` |
//! | Figure 12 (Case Study I, DoS) | `fig12_case1` |
//! | Figure 13 (Case Study II, pathological) | `fig13_case2` |

use loft::{LoftConfig, LoftNetwork};
use noc_gsf::{GsfConfig, GsfNetwork};
use noc_sim::telemetry::{LiveProbe, TelemetryReport};
use noc_sim::{Checkpoint, RunConfig, RunInfo, SimReport, Simulation};
use noc_traffic::{Scenario, Workload};
use noc_wormhole::{WormholeConfig, WormholeNetwork};
use std::sync::Mutex;

pub mod sweep;

/// Default seed for all experiments (fully deterministic runs).
pub const SEED: u64 = 0xC0FFEE;

/// Occupancy-sampling and flow-series window (cycles) used by every
/// telemetry-enabled runner. Coarse enough that sampling costs
/// nothing measurable, fine enough that the per-flow series resolve
/// the frame-scale dynamics the QoS experiments look at.
pub const TELEMETRY_WINDOW: u64 = 1_000;

/// Allocation counting for the zero-allocation steady-state gate
/// (`alloc-count` feature): wraps the system allocator, counting
/// every `alloc`/`realloc` so the `perf` binary can report
/// `allocs_per_cycle` and CI can fail when the steady state regresses
/// into per-cycle heap traffic.
///
/// The counter is process-wide: a `#[global_allocator]` serves every
/// thread, so `perf` refuses `--alloc-budget` together with
/// `--jobs N > 1`, where concurrent simulations would pollute each
/// other's rates.
#[cfg(feature = "alloc-count")]
pub mod alloc_count {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);

    /// System allocator wrapper that counts allocations.
    pub struct CountingAlloc;

    // SAFETY: defers every operation to `System`; the counter is a
    // relaxed atomic with no other side effects.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;

    /// Heap allocations (including reallocations) since process
    /// start.
    pub fn total() -> u64 {
        ALLOCS.load(Ordering::Relaxed)
    }
}

/// Runs a scenario on a LOFT network.
///
/// # Panics
///
/// Panics if the scenario's reservations are infeasible for the
/// configured frame size.
pub fn run_loft(scenario: &Scenario, cfg: LoftConfig, run: RunConfig, seed: u64) -> SimReport {
    run_loft_hooked(scenario, cfg, run, seed, || {})
}

/// [`run_loft`] with an `after_warmup` hook (see
/// [`Simulation::run_hooked`]); the allocation-counting perf harness
/// snapshots its counter there.
///
/// # Panics
///
/// Same conditions as [`run_loft`].
pub fn run_loft_hooked(
    scenario: &Scenario,
    cfg: LoftConfig,
    run: RunConfig,
    seed: u64,
    after_warmup: impl FnMut(),
) -> SimReport {
    run_loft_info(scenario, cfg, run, seed, true, after_warmup).0
}

/// [`run_loft_hooked`] with explicit control over quiescence
/// fast-forward, additionally returning the run's [`RunInfo`]
/// (skipped-cycle count, drain-termination cycle). Results are
/// bit-identical for both `fast_forward` settings; only the wall
/// clock and `RunInfo::skipped_cycles` move.
///
/// # Panics
///
/// Same conditions as [`run_loft`].
pub fn run_loft_info(
    scenario: &Scenario,
    cfg: LoftConfig,
    run: RunConfig,
    seed: u64,
    fast_forward: bool,
    after_warmup: impl FnMut(),
) -> (SimReport, RunInfo) {
    let reservations = scenario
        .reservations(cfg.frame_size)
        .expect("scenario reservations must fit the LOFT frame");
    let network = LoftNetwork::new(cfg, &reservations);
    let (report, _, info) = Simulation::new(network, scenario.workload(seed), run)
        .with_fast_forward(fast_forward)
        .run_full(after_warmup);
    (report, info)
}

/// [`run_loft_hooked`] with a [`LiveProbe`] attached: returns the
/// usual [`SimReport`] plus the full [`TelemetryReport`] of the run
/// (sampled on [`TELEMETRY_WINDOW`]).
///
/// # Panics
///
/// Same conditions as [`run_loft`].
pub fn run_loft_telemetry(
    scenario: &Scenario,
    cfg: LoftConfig,
    run: RunConfig,
    seed: u64,
    after_warmup: impl FnMut(),
) -> (SimReport, TelemetryReport) {
    let (report, telemetry, _) =
        run_loft_telemetry_info(scenario, cfg, run, seed, true, after_warmup);
    (report, telemetry)
}

/// [`run_loft_telemetry`] with explicit fast-forward control plus the
/// run's [`RunInfo`] (see [`run_loft_info`]).
///
/// # Panics
///
/// Same conditions as [`run_loft`].
pub fn run_loft_telemetry_info(
    scenario: &Scenario,
    cfg: LoftConfig,
    run: RunConfig,
    seed: u64,
    fast_forward: bool,
    after_warmup: impl FnMut(),
) -> (SimReport, TelemetryReport, RunInfo) {
    let reservations = scenario
        .reservations(cfg.frame_size)
        .expect("scenario reservations must fit the LOFT frame");
    let network = LoftNetwork::with_probe(cfg, &reservations, LiveProbe::new(TELEMETRY_WINDOW));
    let (report, network, info) = Simulation::new(network, scenario.workload(seed), run)
        .with_fast_forward(fast_forward)
        .run_full(after_warmup);
    (report, network.into_probe().finish(), info)
}

/// Runs a scenario on a GSF network.
///
/// # Panics
///
/// Panics if the scenario's reservations are infeasible for the
/// configured frame size.
pub fn run_gsf(scenario: &Scenario, cfg: GsfConfig, run: RunConfig, seed: u64) -> SimReport {
    run_gsf_hooked(scenario, cfg, run, seed, || {})
}

/// [`run_gsf`] with an `after_warmup` hook (see
/// [`Simulation::run_hooked`]).
///
/// # Panics
///
/// Same conditions as [`run_gsf`].
pub fn run_gsf_hooked(
    scenario: &Scenario,
    cfg: GsfConfig,
    run: RunConfig,
    seed: u64,
    after_warmup: impl FnMut(),
) -> SimReport {
    run_gsf_info(scenario, cfg, run, seed, true, after_warmup).0
}

/// [`run_gsf_hooked`] with explicit fast-forward control plus the
/// run's [`RunInfo`] (see [`run_loft_info`]).
///
/// # Panics
///
/// Same conditions as [`run_gsf`].
pub fn run_gsf_info(
    scenario: &Scenario,
    cfg: GsfConfig,
    run: RunConfig,
    seed: u64,
    fast_forward: bool,
    after_warmup: impl FnMut(),
) -> (SimReport, RunInfo) {
    let reservations = scenario
        .reservations(cfg.frame_size)
        .expect("scenario reservations must fit the GSF frame");
    let network = GsfNetwork::new(cfg, &reservations);
    let (report, _, info) = Simulation::new(network, scenario.workload(seed), run)
        .with_fast_forward(fast_forward)
        .run_full(after_warmup);
    (report, info)
}

/// [`run_gsf_hooked`] with a [`LiveProbe`] attached (see
/// [`run_loft_telemetry`]).
///
/// # Panics
///
/// Same conditions as [`run_gsf`].
pub fn run_gsf_telemetry(
    scenario: &Scenario,
    cfg: GsfConfig,
    run: RunConfig,
    seed: u64,
    after_warmup: impl FnMut(),
) -> (SimReport, TelemetryReport) {
    let (report, telemetry, _) =
        run_gsf_telemetry_info(scenario, cfg, run, seed, true, after_warmup);
    (report, telemetry)
}

/// [`run_gsf_telemetry`] with explicit fast-forward control plus the
/// run's [`RunInfo`] (see [`run_loft_info`]).
///
/// # Panics
///
/// Same conditions as [`run_gsf`].
pub fn run_gsf_telemetry_info(
    scenario: &Scenario,
    cfg: GsfConfig,
    run: RunConfig,
    seed: u64,
    fast_forward: bool,
    after_warmup: impl FnMut(),
) -> (SimReport, TelemetryReport, RunInfo) {
    let reservations = scenario
        .reservations(cfg.frame_size)
        .expect("scenario reservations must fit the GSF frame");
    let network = GsfNetwork::with_probe(cfg, &reservations, LiveProbe::new(TELEMETRY_WINDOW));
    let (report, network, info) = Simulation::new(network, scenario.workload(seed), run)
        .with_fast_forward(fast_forward)
        .run_full(after_warmup);
    (report, network.into_probe().finish(), info)
}

/// Runs a scenario on the baseline wormhole network (no QoS).
pub fn run_wormhole(
    scenario: &Scenario,
    cfg: WormholeConfig,
    run: RunConfig,
    seed: u64,
) -> SimReport {
    run_wormhole_hooked(scenario, cfg, run, seed, || {})
}

/// [`run_wormhole`] with an `after_warmup` hook (see
/// [`Simulation::run_hooked`]).
pub fn run_wormhole_hooked(
    scenario: &Scenario,
    cfg: WormholeConfig,
    run: RunConfig,
    seed: u64,
    after_warmup: impl FnMut(),
) -> SimReport {
    run_wormhole_info(scenario, cfg, run, seed, true, after_warmup).0
}

/// [`run_wormhole_hooked`] with explicit fast-forward control plus
/// the run's [`RunInfo`] (see [`run_loft_info`]).
pub fn run_wormhole_info(
    scenario: &Scenario,
    cfg: WormholeConfig,
    run: RunConfig,
    seed: u64,
    fast_forward: bool,
    after_warmup: impl FnMut(),
) -> (SimReport, RunInfo) {
    let network = WormholeNetwork::new(cfg);
    let (report, _, info) = Simulation::new(network, scenario.workload(seed), run)
        .with_fast_forward(fast_forward)
        .run_full(after_warmup);
    (report, info)
}

/// [`run_wormhole_hooked`] with a [`LiveProbe`] attached (see
/// [`run_loft_telemetry`]).
pub fn run_wormhole_telemetry(
    scenario: &Scenario,
    cfg: WormholeConfig,
    run: RunConfig,
    seed: u64,
    after_warmup: impl FnMut(),
) -> (SimReport, TelemetryReport) {
    let (report, telemetry, _) =
        run_wormhole_telemetry_info(scenario, cfg, run, seed, true, after_warmup);
    (report, telemetry)
}

/// [`run_wormhole_telemetry`] with explicit fast-forward control plus
/// the run's [`RunInfo`] (see [`run_loft_info`]).
pub fn run_wormhole_telemetry_info(
    scenario: &Scenario,
    cfg: WormholeConfig,
    run: RunConfig,
    seed: u64,
    fast_forward: bool,
    after_warmup: impl FnMut(),
) -> (SimReport, TelemetryReport, RunInfo) {
    let network = WormholeNetwork::with_probe(cfg, LiveProbe::new(TELEMETRY_WINDOW));
    let (report, network, info) = Simulation::new(network, scenario.workload(seed), run)
        .with_fast_forward(fast_forward)
        .run_full(after_warmup);
    (report, network.into_probe().finish(), info)
}

/// Runs a LOFT scenario's warmup once and freezes it as a
/// [`Checkpoint`]: fork it for every measurement variant (repeated
/// timing iterations, fast-forward legs, horizon extensions) instead
/// of re-running warmup — each fork's results are bit-identical to a
/// from-scratch [`run_loft_info`] with the same settings.
///
/// # Panics
///
/// Same conditions as [`run_loft`].
pub fn checkpoint_loft(
    scenario: &Scenario,
    cfg: LoftConfig,
    run: RunConfig,
    seed: u64,
    fast_forward: bool,
) -> Checkpoint<LoftNetwork, Workload> {
    let reservations = scenario
        .reservations(cfg.frame_size)
        .expect("scenario reservations must fit the LOFT frame");
    let network = LoftNetwork::new(cfg, &reservations);
    Simulation::new(network, scenario.workload(seed), run)
        .with_fast_forward(fast_forward)
        .run_to_checkpoint()
}

/// [`checkpoint_loft`] with a [`LiveProbe`] attached (window
/// [`TELEMETRY_WINDOW`]); extract the probe from the network returned
/// by `resume` with `into_probe`.
///
/// # Panics
///
/// Same conditions as [`run_loft`].
pub fn checkpoint_loft_telemetry(
    scenario: &Scenario,
    cfg: LoftConfig,
    run: RunConfig,
    seed: u64,
    fast_forward: bool,
) -> Checkpoint<LoftNetwork<LiveProbe>, Workload> {
    let reservations = scenario
        .reservations(cfg.frame_size)
        .expect("scenario reservations must fit the LOFT frame");
    let network = LoftNetwork::with_probe(cfg, &reservations, LiveProbe::new(TELEMETRY_WINDOW));
    Simulation::new(network, scenario.workload(seed), run)
        .with_fast_forward(fast_forward)
        .run_to_checkpoint()
}

/// Warmup-once checkpoint for a GSF scenario (see
/// [`checkpoint_loft`]).
///
/// # Panics
///
/// Same conditions as [`run_gsf`].
pub fn checkpoint_gsf(
    scenario: &Scenario,
    cfg: GsfConfig,
    run: RunConfig,
    seed: u64,
    fast_forward: bool,
) -> Checkpoint<GsfNetwork, Workload> {
    let reservations = scenario
        .reservations(cfg.frame_size)
        .expect("scenario reservations must fit the GSF frame");
    let network = GsfNetwork::new(cfg, &reservations);
    Simulation::new(network, scenario.workload(seed), run)
        .with_fast_forward(fast_forward)
        .run_to_checkpoint()
}

/// [`checkpoint_gsf`] with a [`LiveProbe`] attached.
///
/// # Panics
///
/// Same conditions as [`run_gsf`].
pub fn checkpoint_gsf_telemetry(
    scenario: &Scenario,
    cfg: GsfConfig,
    run: RunConfig,
    seed: u64,
    fast_forward: bool,
) -> Checkpoint<GsfNetwork<LiveProbe>, Workload> {
    let reservations = scenario
        .reservations(cfg.frame_size)
        .expect("scenario reservations must fit the GSF frame");
    let network = GsfNetwork::with_probe(cfg, &reservations, LiveProbe::new(TELEMETRY_WINDOW));
    Simulation::new(network, scenario.workload(seed), run)
        .with_fast_forward(fast_forward)
        .run_to_checkpoint()
}

/// Warmup-once checkpoint for a wormhole scenario (see
/// [`checkpoint_loft`]).
pub fn checkpoint_wormhole(
    scenario: &Scenario,
    cfg: WormholeConfig,
    run: RunConfig,
    seed: u64,
    fast_forward: bool,
) -> Checkpoint<WormholeNetwork, Workload> {
    let network = WormholeNetwork::new(cfg);
    Simulation::new(network, scenario.workload(seed), run)
        .with_fast_forward(fast_forward)
        .run_to_checkpoint()
}

/// [`checkpoint_wormhole`] with a [`LiveProbe`] attached.
pub fn checkpoint_wormhole_telemetry(
    scenario: &Scenario,
    cfg: WormholeConfig,
    run: RunConfig,
    seed: u64,
    fast_forward: bool,
) -> Checkpoint<WormholeNetwork<LiveProbe>, Workload> {
    let network = WormholeNetwork::with_probe(cfg, LiveProbe::new(TELEMETRY_WINDOW));
    Simulation::new(network, scenario.workload(seed), run)
        .with_fast_forward(fast_forward)
        .run_to_checkpoint()
}

/// Maps `f` over `items` on `jobs` lanes (the calling thread
/// included), returning the results in input order.
///
/// Items are whole simulations — milliseconds to seconds each — so
/// the lanes are plain scoped threads started per call. Each lane
/// claims the next unclaimed item in input order, so long items
/// pipeline with short ones and a caller that sorts its items
/// longest-expected-first keeps that schedule. A panic in `f`
/// propagates to the caller once every lane has stopped.
pub fn pool_map<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let lanes = jobs.clamp(1, items.len().max(1));
    if lanes == 1 {
        return items.into_iter().map(f).collect();
    }
    let queue = Mutex::new(items.into_iter().enumerate());
    let lane = || {
        let mut done = Vec::new();
        loop {
            let next = queue.lock().expect("pool_map queue poisoned").next();
            let Some((i, item)) = next else { break done };
            done.push((i, f(item)));
        }
    };
    let mut done = std::thread::scope(|scope| {
        let others: Vec<_> = (1..lanes).map(|_| scope.spawn(lane)).collect();
        let mut done = lane();
        for handle in others {
            match handle.join() {
                Ok(lane_done) => done.extend(lane_done),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// [`pool_map`] on one lane per core of the machine: the paper-figure
/// harnesses' parameter sweeps. Simulations are single-threaded and
/// independent, so sweeps parallelize trivially.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    pool_map(cores, items, f)
}

/// Times `f` over `iters` iterations after one untimed warmup call,
/// returning the mean wall-clock seconds per iteration. The minimal
/// stand-in for an external benchmarking framework (this workspace
/// builds offline, dependency-free).
pub fn time_iterations<R>(iters: u32, mut f: impl FnMut() -> R) -> f64 {
    assert!(iters > 0, "need at least one iteration");
    std::hint::black_box(f());
    let start = std::time::Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    start.elapsed().as_secs_f64() / iters as f64
}

/// Runs `f` as a named microbenchmark and prints one aligned line
/// with the mean time per iteration.
pub fn bench_report<R>(name: &str, iters: u32, f: impl FnMut() -> R) {
    let secs = time_iterations(iters, f);
    if secs < 1e-3 {
        println!("{name:<48} {:>10.2} µs/iter", secs * 1e6);
    } else {
        println!("{name:<48} {:>10.3} ms/iter", secs * 1e3);
    }
}

/// Prints a plain-text table: header row + rows, pipe-separated and
/// column-aligned.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: Vec<&str>| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect::<Vec<_>>()
            .join(" | ")
    };
    println!("{}", fmt_row(header.to_vec()));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 3 * (widths.len() - 1))
    );
    for row in rows {
        println!("{}", fmt_row(row.iter().map(|s| s.as_str()).collect()));
    }
}

/// Formats a float with 4 significant decimals.
pub fn f4(x: f64) -> String {
    format!("{x:.4}")
}

/// Formats a float with 1 decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map(vec![3u64, 1, 2], |x| x * 10);
        assert_eq!(out, vec![30, 10, 20]);
    }

    #[test]
    fn pool_map_runs_every_item_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counts: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        let out = pool_map(3, (0..100).collect(), |i: usize| {
            counts[i].fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out, (0..100).collect::<Vec<_>>());
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn pool_map_preserves_order() {
        for jobs in [1, 2, 4] {
            let out = pool_map(jobs, (0..64u64).rev().collect(), |x| x * 2);
            assert_eq!(out, (0..64u64).rev().map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn pool_map_with_one_lane_runs_in_order_on_the_caller() {
        for jobs in [0, 1] {
            let caller = std::thread::current().id();
            let seen = Mutex::new(Vec::new());
            let out = pool_map(jobs, (0..10usize).collect(), |i| {
                assert_eq!(std::thread::current().id(), caller);
                seen.lock().unwrap().push(i);
                i
            });
            assert_eq!(out, (0..10).collect::<Vec<_>>());
            assert_eq!(seen.into_inner().unwrap(), out, "jobs={jobs} reordered");
        }
    }

    #[test]
    fn pool_map_handles_zero_items() {
        let out: Vec<u32> = pool_map(2, Vec::<u32>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn pool_map_propagates_task_panics() {
        for jobs in [1, 2] {
            let caught = std::panic::catch_unwind(|| {
                pool_map(jobs, (0..8).collect(), |i: u32| {
                    assert!(i != 5, "boom");
                    i
                })
            });
            assert!(caught.is_err(), "panic lost at jobs={jobs}");
        }
    }

    /// The allocation counter must observe allocations made on other
    /// threads (a global allocator is process-wide), or it would
    /// undercount a multi-threaded process.
    #[cfg(feature = "alloc-count")]
    #[test]
    fn alloc_counter_sees_other_threads() {
        let before = alloc_count::total();
        std::thread::spawn(|| {
            std::hint::black_box(vec![0u8; 4096]);
        })
        .join()
        .expect("allocating thread panicked");
        assert!(
            alloc_count::total() > before,
            "worker-thread allocation not counted"
        );
    }

    #[test]
    fn runners_produce_traffic() {
        let s = Scenario::hotspot(0.01);
        let run = RunConfig {
            warmup: 500,
            measure: 2_000,
            drain: 2_000,
        };
        let loft = run_loft(&s, LoftConfig::default(), run, SEED);
        let gsf = run_gsf(&s, GsfConfig::default(), run, SEED);
        let worm = run_wormhole(&s, WormholeConfig::default(), run, SEED);
        assert!(loft.flits_delivered > 0);
        assert!(gsf.flits_delivered > 0);
        assert!(worm.flits_delivered > 0);
    }

    /// Fast-forward is a pure wall-clock optimization: the `_info`
    /// runners must reproduce the plain runners' reports bit-for-bit
    /// with the fast path on or off, and on a quiescence-heavy
    /// workload the enabled run actually skips cycles.
    #[test]
    fn fast_forward_runners_match_and_skip() {
        let s = Scenario::regulated(0.05);
        let run = RunConfig {
            warmup: 500,
            measure: 2_000,
            drain: 2_000,
        };
        let (on, info_on) = run_loft_info(&s, LoftConfig::default(), run, SEED, true, || {});
        let (off, info_off) = run_loft_info(&s, LoftConfig::default(), run, SEED, false, || {});
        assert_eq!(on, off, "fast-forward changed the LOFT report");
        assert!(on.flits_delivered > 0);
        assert!(info_on.skipped_cycles > 0, "regulated gaps never skipped");
        assert_eq!(info_off.skipped_cycles, 0);

        let (on, info_on) = run_gsf_info(&s, GsfConfig::default(), run, SEED, true, || {});
        let (off, _) = run_gsf_info(&s, GsfConfig::default(), run, SEED, false, || {});
        assert_eq!(on, off, "fast-forward changed the GSF report");
        assert!(info_on.skipped_cycles > 0);

        let (on, info_on) =
            run_wormhole_info(&s, WormholeConfig::default(), run, SEED, true, || {});
        let (off, _) = run_wormhole_info(&s, WormholeConfig::default(), run, SEED, false, || {});
        assert_eq!(on, off, "fast-forward changed the wormhole report");
        assert!(info_on.skipped_cycles > 0);
    }

    /// Attaching a probe must not perturb the simulation: the
    /// telemetry runner's `SimReport` matches the plain runner's,
    /// and the telemetry document observes the same deliveries.
    #[test]
    fn telemetry_runners_match_plain_reports() {
        let s = Scenario::hotspot(0.01);
        let run = RunConfig {
            warmup: 500,
            measure: 2_000,
            drain: 2_000,
        };
        let plain = run_loft(&s, LoftConfig::default(), run, SEED);
        let (report, telemetry) = run_loft_telemetry(&s, LoftConfig::default(), run, SEED, || {});
        assert_eq!(plain.flits_delivered, report.flits_delivered);
        assert_eq!(plain.avg_latency(), report.avg_latency());
        assert!(telemetry.latency_histogram.count() > 0);
        assert!(telemetry.cycles > 0);
        assert!(telemetry.link_flits.iter().sum::<u64>() > 0);

        let plain = run_gsf(&s, GsfConfig::default(), run, SEED);
        let (report, telemetry) = run_gsf_telemetry(&s, GsfConfig::default(), run, SEED, || {});
        assert_eq!(plain.flits_delivered, report.flits_delivered);
        assert!(telemetry.latency_histogram.count() > 0);

        let plain = run_wormhole(&s, WormholeConfig::default(), run, SEED);
        let (report, telemetry) =
            run_wormhole_telemetry(&s, WormholeConfig::default(), run, SEED, || {});
        assert_eq!(plain.flits_delivered, report.flits_delivered);
        assert!(telemetry.latency_histogram.count() > 0);
    }
}
