//! The untraced run: set up each cell, fork its checkpoint into legs,
//! and time every phase through the simulator's public API only.

use std::time::Instant;

use noc_sim::{Network, RunInfo, SimReport, Simulation};
use noc_traffic::Scenario;

use crate::cells::{frame_size, with_network, Cell, CellVisitor};

/// The outcome of one leg.
#[derive(Debug, Clone)]
pub struct LegRun {
    pub report: SimReport,
    pub info: RunInfo,
    /// Host seconds in `Checkpoint::fork`.
    pub fork_s: f64,
    /// Host seconds in `Checkpoint::resume`.
    pub resume_s: f64,
}

impl LegRun {
    /// Simulated measure + drain cycles of the leg, stepped plus
    /// skipped.
    pub fn cycles(&self, warmup: u64) -> u64 {
        self.info.end_cycle - warmup
    }
}

/// The outcome of one cell.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// Host seconds before the first measured cycle: scenario and
    /// reservation building, construction and warmup.
    pub setup_s: f64,
    /// Host seconds in the network constructor.
    pub construct_s: f64,
    /// Host seconds in `Simulation::run_to_checkpoint`.
    pub capture_s: f64,
    pub legs: Vec<LegRun>,
}

/// Builds the scenario and reservations of `cell`.
pub fn prepare(cell: &Cell) -> Result<(Scenario, Vec<u32>), String> {
    let scenario = cell.scenario();
    let reservations = match frame_size(cell.net, cell.topo) {
        Some(frame) => scenario
            .reservations(frame)
            .map_err(|e| format!("{}: reservations: {e}", cell.label()))?,
        None => Vec::new(),
    };
    Ok((scenario, reservations))
}

/// Runs `cell` from scratch: set-up, then every leg in order.
pub fn run_cell(cell: &Cell, seed: u64) -> Result<CellRun, String> {
    let start = Instant::now();
    let (scenario, reservations) = prepare(cell)?;
    let visitor = Untraced {
        cell,
        scenario: &scenario,
        seed,
        start,
        construct: Instant::now(),
    };
    Ok(with_network(cell, &reservations, visitor))
}

struct Untraced<'a> {
    cell: &'a Cell,
    scenario: &'a Scenario,
    seed: u64,
    start: Instant,
    construct: Instant,
}

impl CellVisitor for Untraced<'_> {
    type Output = CellRun;

    fn visit<N: Network + Clone>(self, network: N) -> CellRun {
        // The network was built as this call's argument.
        let construct_s = self.construct.elapsed().as_secs_f64();
        let capture = Instant::now();
        let traffic = self.scenario.workload(self.seed);
        let ckpt = Simulation::new(network, traffic, self.cell.run).run_to_checkpoint();
        let capture_s = capture.elapsed().as_secs_f64();
        let setup_s = self.start.elapsed().as_secs_f64();

        let legs = self
            .cell
            .legs
            .iter()
            .map(|leg| {
                let t = Instant::now();
                let fork = ckpt.fork();
                let fork_s = t.elapsed().as_secs_f64();
                let fork = fork
                    .with_fast_forward(leg.fast_forward)
                    .with_measure(leg.measure);
                let t = Instant::now();
                let out = fork.resume();
                let resume_s = t.elapsed().as_secs_f64();
                let (report, network, info) = out;
                drop(network);
                LegRun {
                    report,
                    info,
                    fork_s,
                    resume_s,
                }
            })
            .collect();
        CellRun {
            setup_s,
            construct_s,
            capture_s,
            legs,
        }
    }
}
