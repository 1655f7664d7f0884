//! The repository benchmark: runs one named workload of the LOFT, GSF
//! and wormhole simulators, checks their outputs, and prints every
//! metric by name with its unit. See README.md for the workloads, the
//! metrics and how to run it.
//!
//! ```text
//! noc-benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--tiny]
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! With `--trace 0` it holds the end-to-end metrics, measured with no
//! tracing; with `--trace 1` it holds the per-layer metrics of a
//! separate traced run. The process exits nonzero if any check fails.

mod alloc;
mod cells;
mod output;
mod runner;
mod trace;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use noc_sim::stats::RunningStats;
use noc_sim::SimReport;

use cells::{Cell, Net};
use output::{json_str, Metric};
use runner::CellRun;
use trace::{ratio, Layers};
use workloads::Scale;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Default workload seed.
const DEFAULT_SEED: u64 = 0xC0FFEE;

/// Passes run at least this often, so set-up time is a median.
const MIN_PASSES: usize = 3;

/// Caps the pass count of very short (tiny) runs.
const MAX_PASSES: usize = 200;

/// The paper's Fig. 11a band for LOFT/GSF accepted throughput under
/// heavy uniform load.
const SAT_RATIO_BAND: (f64, f64) = (1.4, 1.6);

/// The paper's Fig. 10a STDEV/AVG of LOFT's per-flow throughput.
const HOTSPOT_CV: f64 = 0.004;

const USAGE: &str = "usage: noc-benchmark --workload <uniform-sat|bursty-idle|matrix-short> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>] [--tiny]";

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut scale = Scale::Full;
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            scale = Scale::Tiny;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => value.parse(),
                }
                .map_err(|_| format!("bad --seed {value:?}"))?;
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                };
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        scale,
    })
}

/// Runs attempted and failed, with the failure messages.
#[derive(Debug, Default)]
struct Book {
    attempted: u64,
    failed: u64,
}

impl Book {
    /// Counts one run per entry of `errors`; `Some` entries failed.
    fn record(&mut self, what: &str, errors: &[Option<String>]) {
        self.attempted += errors.len() as u64;
        for e in errors.iter().flatten() {
            self.failed += 1;
            eprintln!("check failed: {what}: {e}");
        }
    }
}

/// Host timings of one cell in one pass.
#[derive(Debug, Clone)]
struct CellTimes {
    setup_s: f64,
    construct_s: f64,
    capture_s: f64,
    /// Per leg.
    fork_s: Vec<f64>,
    resume_s: Vec<f64>,
}

/// Runs `f`, turning a panic into an error message.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".to_string());
        Err(format!("panicked: {msg}"))
    })
}

/// Checks one cell's legs against each other and against the same
/// cell's first-pass run. Returns one entry per leg.
fn check_cell(cell: &Cell, run: &CellRun, first: Option<&CellRun>) -> Vec<Option<String>> {
    cell.legs
        .iter()
        .zip(&run.legs)
        .enumerate()
        .map(|(j, (leg, out))| {
            if out.report.flits_delivered == 0 {
                return Some(format!("leg {j} delivered no flits"));
            }
            // The earliest leg with the same window: ff-on/ff-off
            // pairs and repeated forks must agree exactly.
            let k = cell
                .legs
                .iter()
                .position(|l| l.measure == leg.measure)
                .unwrap_or(j);
            let twin = &run.legs[k];
            if k < j && out.report != twin.report {
                return Some(format!(
                    "leg {j} report differs from leg {k} of the same checkpoint"
                ));
            }
            if k < j && out.info.end_cycle != twin.info.end_cycle {
                return Some(format!("leg {j} ends at a different cycle than leg {k}"));
            }
            let first = first.map(|f| &f.legs[j])?;
            if out.report != first.report || out.info != first.info {
                return Some(format!("leg {j} differs from the first pass"));
            }
            None
        })
        .collect()
}

/// Median of `xs` (0 when empty).
fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// The untraced passes: first-pass runs and every pass's timings, by
/// cell, and each pass's wall time.
struct Untraced {
    first: Vec<Option<CellRun>>,
    times: Vec<Vec<CellTimes>>,
    pass_wall_s: Vec<f64>,
}

impl Untraced {
    /// Median over passes of `f` on cell `i`'s timings. Host noise
    /// here comes in bursts of 0.1–1 s, so each cell's phases are
    /// filtered on their own before they are summed.
    fn median_of(&self, i: usize, f: impl Fn(&CellTimes) -> f64) -> f64 {
        median(self.times[i].iter().map(f).collect())
    }

    /// Sum over `net`'s cells (all cells for `None`) of `f`.
    fn sum_over(&self, cells: &[Cell], net: Option<Net>, f: impl Fn(usize, &Cell) -> f64) -> f64 {
        cells
            .iter()
            .enumerate()
            .filter(|(_, c)| net.is_none_or(|n| c.net == n))
            .map(|(i, c)| f(i, c))
            .sum()
    }
}

fn run_untraced(cells: &[Cell], args: &Args, book: &mut Book) -> Untraced {
    let start = Instant::now();
    let mut first: Vec<Option<CellRun>> = Vec::new();
    let mut times = vec![Vec::new(); cells.len()];
    let mut pass_wall_s = Vec::new();
    while pass_wall_s.len() < MIN_PASSES
        || (start.elapsed().as_secs_f64() < args.seconds && pass_wall_s.len() < MAX_PASSES)
    {
        let pass_start = Instant::now();
        for (i, cell) in cells.iter().enumerate() {
            let label = cell.label();
            let run = match guarded(|| runner::run_cell(cell, args.seed)) {
                Ok(run) => run,
                Err(e) => {
                    book.record(&label, &vec![Some(e); cell.legs.len()]);
                    if pass_wall_s.is_empty() {
                        first.push(None);
                    }
                    continue;
                }
            };
            let errors = check_cell(cell, &run, first.get(i).and_then(Option::as_ref));
            book.record(&label, &errors);
            times[i].push(CellTimes {
                setup_s: run.setup_s,
                construct_s: run.construct_s,
                capture_s: run.capture_s,
                fork_s: run.legs.iter().map(|l| l.fork_s).collect(),
                resume_s: run.legs.iter().map(|l| l.resume_s).collect(),
            });
            if pass_wall_s.is_empty() {
                first.push(Some(run));
            }
        }
        if pass_wall_s.is_empty() {
            print_digests(cells, &first);
        }
        pass_wall_s.push(pass_start.elapsed().as_secs_f64());
    }
    Untraced {
        first,
        times,
        pass_wall_s,
    }
}

/// One line per leg of the first pass with its report digest, then
/// one digest over the whole workload.
fn print_digests(cells: &[Cell], first: &[Option<CellRun>]) {
    let mut all = Vec::new();
    for (cell, run) in cells.iter().zip(first) {
        let Some(run) = run else { continue };
        for (j, (leg, out)) in cell.legs.iter().zip(&run.legs).enumerate() {
            let d = output::digest(&out.report);
            all.push(d);
            println!(
                "{{\"digest\": {{\"cell\": {}, \"leg\": {j}, \"fast_forward\": {}, \"measure\": {}, \
                 \"end_cycle\": {}, \"skipped_cycles\": {}, \"report\": \"{d:016x}\"}}}}",
                json_str(&cell.label()),
                leg.fast_forward,
                leg.measure,
                out.info.end_cycle,
                out.info.skipped_cycles,
            );
        }
    }
    println!("{{\"workload_digest\": \"{:016x}\"}}", output::combine(all));
}

/// The first-leg report of `cell` at `seed`, counted as one run.
fn reference_report(cell: &Cell, seed: u64, book: &mut Book) -> Option<SimReport> {
    match guarded(|| runner::run_cell(cell, seed)) {
        Ok(run) => {
            book.record(&cell.label(), &[None]);
            run.legs.into_iter().next().map(|l| l.report)
        }
        Err(e) => {
            book.record(&cell.label(), &[Some(e)]);
            None
        }
    }
}

/// The two fidelity gaps against the paper's reference numbers, from
/// untimed runs of the reference cells after the measured passes.
fn fidelity(args: &Args, book: &mut Book) -> (f64, f64) {
    let [loft_sat, gsf_sat] = workloads::sat_cells(args.scale);
    let sat_gap = match (
        reference_report(&loft_sat, args.seed, book),
        reference_report(&gsf_sat, args.seed, book),
    ) {
        (Some(l), Some(g)) => {
            let r = ratio(l.throughput_per_node(), g.throughput_per_node());
            let (lo, hi) = SAT_RATIO_BAND;
            (lo - r).max(r - hi).max(0.0)
        }
        _ => f64::NAN,
    };
    // Mean STDEV/AVG over seeds derived from `--seed` (the first one
    // is `--seed` itself).
    let (loft_hot, seeds) = workloads::hotspot_cell(args.scale);
    let mut cvs = RunningStats::new();
    for i in 0..seeds {
        let seed = args.seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let Some(report) = reference_report(&loft_hot, seed, book) else {
            return (sat_gap, f64::NAN);
        };
        let mut flows = RunningStats::new();
        for f in &report.flows {
            flows.push(f.throughput);
        }
        cvs.push(flows.cv());
    }
    (sat_gap, (cvs.mean() - HOTSPOT_CV).abs())
}

/// The process's peak resident set (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Simulated ff-on cycles of `net` per host second of `resume`, each
/// leg's time the median over passes.
fn cycles_per_s(un: &Untraced, cells: &[Cell], net: Net) -> f64 {
    let mut cycles = 0;
    let mut seconds = 0.0;
    for (i, cell) in cells.iter().enumerate().filter(|(_, c)| c.net == net) {
        let Some(first) = &un.first[i] else { continue };
        for (j, leg) in cell.legs.iter().enumerate() {
            if leg.fast_forward {
                cycles += first.legs[j].cycles(cell.run.warmup);
                seconds += un.median_of(i, |t| t.resume_s[j]);
            }
        }
    }
    ratio(cycles as f64, seconds)
}

fn end_to_end(un: &Untraced, cells: &[Cell], args: &Args, book: &mut Book) -> Vec<Metric> {
    let mut m = vec![
        Metric {
            name: "wall_s".into(),
            value: median(un.pass_wall_s.clone()),
            unit: "s",
        },
        Metric {
            name: "setup_s".into(),
            value: un.sum_over(cells, None, |i, _| un.median_of(i, |t| t.setup_s)),
            unit: "s",
        },
    ];
    for net in Net::ALL {
        m.push(Metric {
            name: format!("{}.cycles_per_s", net.name()),
            value: cycles_per_s(un, cells, net),
            unit: "cycles/s",
        });
    }
    m.push(Metric {
        name: "peak_rss_mb".into(),
        value: peak_rss_mb(),
        unit: "MB",
    });
    let (sat_gap, cv_gap) = fidelity(args, book);
    m.push(Metric {
        name: "fidelity.sat_ratio_gap".into(),
        value: sat_gap,
        unit: "ratio",
    });
    m.push(Metric {
        name: "fidelity.hotspot_cv_gap".into(),
        value: cv_gap,
        unit: "ratio",
    });
    m
}

fn per_layer(un: &Untraced, cells: &[Cell], args: &Args, book: &mut Book) -> Vec<Metric> {
    alloc::set_counting(true);
    let start = Instant::now();
    let mut layers = Layers::default();
    for (cell, first) in cells.iter().zip(&un.first) {
        let label = format!("{} (traced)", cell.label());
        let traced = match guarded(|| trace::run_cell(cell, args.seed, &mut layers)) {
            Ok(t) => t,
            Err(e) => {
                book.record(&label, &vec![Some(e); cell.legs.len()]);
                continue;
            }
        };
        let errors: Vec<Option<String>> = traced
            .iter()
            .enumerate()
            .map(|(j, t)| {
                if let Some(e) = &t.error {
                    return Some(format!("leg {j}: {e}"));
                }
                let Some(untraced) = first.as_ref().map(|r| &r.legs[j]) else {
                    return Some(format!("leg {j}: no untraced run to compare with"));
                };
                if t.report != untraced.report || t.info != untraced.info {
                    return Some(format!("leg {j}: traced run differs from the untraced run"));
                }
                None
            })
            .collect();
        book.record(&label, &errors);
    }
    let traced_wall = start.elapsed().as_secs_f64();
    alloc::set_counting(false);

    let mut m = Vec::new();
    let mut push = |name: String, value: f64, unit: &'static str| {
        m.push(Metric { name, value, unit });
    };
    let l = &layers;
    push(
        "traffic.generate_ns_per_cycle".into(),
        l.generate.ns_per_call(),
        "ns/cycle",
    );
    push(
        "traffic.packets_per_cycle".into(),
        ratio(l.packets_generated as f64, l.generate.calls as f64),
        "packets/cycle",
    );
    push(
        "traffic.next_active_ns_per_call".into(),
        l.next_active.ns_per_call(),
        "ns/call",
    );
    push(
        "traffic.next_active_calls".into(),
        l.next_active.calls as f64,
        "calls",
    );
    push(
        "stats.ns_per_packet".into(),
        ratio(l.stats.ns as f64, l.packets_generated as f64),
        "ns/packet",
    );
    for net in Net::ALL {
        let n = net.index();
        let name = |metric: &str| format!("{}.{metric}", net.name());
        let x = &l.nets[n];
        let num_cells = un.sum_over(cells, Some(net), |_, _| 1.0);
        let num_legs = un.sum_over(cells, Some(net), |_, c| c.legs.len() as f64);
        let per_cell = |f: &dyn Fn(&CellTimes) -> f64| {
            ratio(
                un.sum_over(cells, Some(net), |i, _| un.median_of(i, f)),
                num_cells,
            )
        };
        push(
            name("construct_ms"),
            1e3 * per_cell(&|t| t.construct_s),
            "ms",
        );
        push(name("capture_s"), per_cell(&|t| t.capture_s), "s");
        let fork_s = un.sum_over(cells, Some(net), |i, c| {
            (0..c.legs.len())
                .map(|j| un.median_of(i, |t| t.fork_s[j]))
                .sum()
        });
        push(name("fork_us"), 1e6 * ratio(fork_s, num_legs), "us");
        push(name("step_ns_per_cycle"), x.step.ns_per_call(), "ns/cycle");
        push(
            name("step_ns_per_flit"),
            ratio(x.step.ns as f64, x.flits_delivered as f64),
            "ns/flit",
        );
        push(
            name("enqueue_ns_per_packet"),
            x.enqueue.ns_per_call(),
            "ns/packet",
        );
        push(
            name("in_flight_mean"),
            ratio(x.in_flight_sum as f64, x.step.calls as f64),
            "packets",
        );
        push(
            name("allocs_per_cycle"),
            ratio(x.allocs as f64, x.sim_cycles as f64),
            "allocs/cycle",
        );
        push(name("ff_ns_per_call"), x.ff.ns_per_call(), "ns/call");
        push(
            name("ff_accept_ratio"),
            ratio(x.ff_accepted as f64, x.ff.calls as f64),
            "ratio",
        );
        push(
            name("skipped_share"),
            ratio(x.skipped as f64, x.sim_cycles as f64),
            "ratio",
        );
        push(
            name("link_stall_ratio"),
            ratio(x.probe.link_stalls as f64, x.probe.link_cycles as f64),
            "ratio",
        );
        push(
            name("nic_stall_ratio"),
            ratio(x.probe.nic_stalls as f64, x.probe.node_cycles as f64),
            "ratio",
        );
        push(name("link_util_max"), x.probe.link_util_max, "flits/cycle");
    }
    let lp = &l.nets[Net::Loft.index()].probe;
    push(
        "loft.sched_deny_ratio".into(),
        ratio(lp.sched_deny as f64, (lp.sched_book + lp.sched_deny) as f64),
        "ratio",
    );
    push(
        "loft.link_resets_per_kcycle".into(),
        ratio(1e3 * lp.link_resets as f64, lp.cycles as f64),
        "resets/kcycle",
    );
    let untraced_wall = median(un.pass_wall_s.clone());
    push(
        "trace.overhead_share".into(),
        ratio(traced_wall - untraced_wall, untraced_wall),
        "ratio",
    );
    m
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(cells) = workloads::cells(&args.workload, args.scale) else {
        eprintln!(
            "unknown workload {:?} (one of {})\n{USAGE}",
            args.workload,
            workloads::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    println!(
        "{}",
        output::provenance(
            &args.workload,
            args.seed,
            args.seconds,
            args.trace,
            args.scale == Scale::Tiny
        )
    );
    let mut book = Book::default();
    let untraced = run_untraced(&cells, &args, &mut book);
    let metrics = if args.trace {
        per_layer(&untraced, &cells, &args, &mut book)
    } else {
        end_to_end(&untraced, &cells, &args, &mut book)
    };
    for m in &metrics {
        if !m.value.is_finite() {
            book.failed += 1;
            eprintln!("check failed: metric {} is not a finite number", m.name);
        }
    }
    println!(
        "{{\"passes\": {}, \"pass_wall_s\": [{}]}}",
        untraced.pass_wall_s.len(),
        untraced
            .pass_wall_s
            .iter()
            .map(|&w| output::json_num(w))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let correct = book.failed == 0;
    println!(
        "{}",
        output::result_line(correct, book.attempted, book.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
