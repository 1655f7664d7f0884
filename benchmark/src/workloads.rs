//! The benchmark's workloads and the paper's reference points. README.md
//! says why each was chosen.
//!
//! Every workload is open loop (Bernoulli or on/off sources inject on
//! schedule into unbounded source queues) and warms each cell up to a
//! checkpoint before any statistic is collected.

use noc_sim::{RunConfig, Topology};

use crate::cells::{Cell, Leg, Net, Traffic};

/// Workload names, in the order README.md lists them.
pub const NAMES: [&str; 3] = ["uniform-sat", "bursty-idle", "matrix-short"];

/// Window sizes: the full benchmark, or a tiny one for the package's
/// own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

impl Scale {
    fn pick<T>(self, full: T, tiny: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Tiny => tiny,
        }
    }
}

const fn run(warmup: u64, measure: u64, drain: u64) -> RunConfig {
    RunConfig {
        warmup,
        measure,
        drain,
    }
}

const TINY: RunConfig = run(200, 600, 200);

fn on(measure: u64) -> Leg {
    Leg {
        fast_forward: true,
        measure,
    }
}

fn off(measure: u64) -> Leg {
    Leg {
        fast_forward: false,
        measure,
    }
}

/// The cells of workload `name`, or `None` for an unknown name.
pub fn cells(name: &str, scale: Scale) -> Option<Vec<Cell>> {
    let mesh = Topology::mesh(8, 8);
    let cells = match name {
        // The slowest point of every network: uniform 0.60 on the
        // mesh. Each network's checkpoint is forked three ways: two
        // ff-on forks (the second checks that forking is repeatable)
        // and an ff-off fork (the network is never empty, so both
        // step every cycle and must agree).
        "uniform-sat" => {
            let run = scale.pick(run(1_500, 2_000, 500), TINY);
            Net::ALL
                .iter()
                .map(|&net| Cell {
                    net,
                    topo: mesh,
                    traffic: Traffic::Uniform(0.60),
                    run,
                    legs: vec![on(run.measure), on(run.measure), off(run.measure)],
                })
                .collect()
        }
        // Four million mostly idle cycles per network: a span that
        // holds about 1,600 bursts, so the work per run varies
        // little between seeds. Stepping it all is far too slow, so
        // the ff-off equivalence check pairs two short forks.
        "bursty-idle" => {
            let (run, short) = scale.pick(
                (run(20_000, 4_000_000, 20_000), 50_000),
                (run(2_000, 40_000, 2_000), 5_000),
            );
            Net::ALL
                .iter()
                .map(|&net| Cell {
                    net,
                    topo: mesh,
                    traffic: Traffic::BurstyLowDuty(0.60),
                    run,
                    legs: vec![on(run.measure), on(short), off(short)],
                })
                .collect()
        }
        // Many short cells, as a figure regeneration runs them: every
        // network on three topologies at a light and a medium uniform
        // load, plus hotspot 0.60 on the mesh; each warmed once and
        // forked into an ff-on and an ff-off leg.
        "matrix-short" => {
            let run = scale.pick(run(500, 1_000, 250), TINY);
            let mut cells = Vec::new();
            for net in Net::ALL {
                for topo in [mesh, Topology::torus(8, 8), Topology::ring(16)] {
                    for traffic in [Traffic::Uniform(0.05), Traffic::Uniform(0.30)] {
                        cells.push(Cell {
                            net,
                            topo,
                            traffic,
                            run,
                            legs: vec![on(run.measure), off(run.measure)],
                        });
                    }
                }
                cells.push(Cell {
                    net,
                    topo: mesh,
                    traffic: Traffic::Hotspot(0.60),
                    run,
                    legs: vec![on(run.measure), off(run.measure)],
                });
            }
            cells
        }
        _ => return None,
    };
    Some(cells)
}

fn reference(net: Net, traffic: Traffic, run: RunConfig) -> Cell {
    Cell {
        net,
        topo: Topology::mesh(8, 8),
        traffic,
        run,
        legs: vec![on(run.measure)],
    }
}

/// The Fig. 11a reference point: LOFT and GSF under uniform 0.60 on
/// the mesh, the `uniform-sat` traffic. Accepted throughput is flat
/// past saturation, so one seed and a short window suffice.
pub fn sat_cells(scale: Scale) -> [Cell; 2] {
    let run = scale.pick(run(2_000, 6_000, 0), TINY);
    let traffic = Traffic::Uniform(0.60);
    [
        reference(Net::Loft, traffic, run),
        reference(Net::Gsf, traffic, run),
    ]
}

/// The Fig. 10a reference point: LOFT under hotspot 0.60 (63 flows
/// into node 63, far past its ejection link's capacity), the
/// `matrix-short` hotspot traffic, and the number of seeds to average
/// its STDEV/AVG over. One seed's value ranges over about ±40% of the
/// mean from seed to seed, in 10k- and 50k-cycle windows alike, so
/// only a mean over many seeds is steady.
pub fn hotspot_cell(scale: Scale) -> (Cell, u64) {
    let (run, seeds) = scale.pick((run(1_000, 10_000, 0), 48), (TINY, 2));
    (reference(Net::Loft, Traffic::Hotspot(0.60), run), seeds)
}
