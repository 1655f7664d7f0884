//! What the benchmark simulates: networks, traffic, and the cells of
//! each workload.
//!
//! A *cell* is one (network, topology, traffic) point with its phase
//! lengths. Each cell is warmed up once to a checkpoint and forked
//! into one or more *legs*; a leg sets fast-forward on or off and the
//! length of its measurement window.

use loft::{LoftConfig, LoftNetwork};
use noc_gsf::{GsfConfig, GsfNetwork};
use noc_sim::telemetry::{LiveProbe, TelemetryReport};
use noc_sim::{Network, RunConfig, Topology};
use noc_traffic::{DestRule, Scenario};
use noc_wormhole::{WormholeConfig, WormholeNetwork};

/// Network architectures under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Net {
    Loft,
    Gsf,
    Wormhole,
}

impl Net {
    pub const ALL: [Net; 3] = [Net::Loft, Net::Gsf, Net::Wormhole];

    pub fn name(self) -> &'static str {
        match self {
            Net::Loft => "loft",
            Net::Gsf => "gsf",
            Net::Wormhole => "wormhole",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }
}

/// Open-loop traffic patterns, named after the `Scenario` builders.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Traffic {
    Uniform(f64),
    Hotspot(f64),
    BurstyLowDuty(f64),
}

/// One fork of a cell's checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Leg {
    pub fast_forward: bool,
    pub measure: u64,
}

/// One warmed-up point of a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    pub net: Net,
    pub topo: Topology,
    pub traffic: Traffic,
    pub run: RunConfig,
    pub legs: Vec<Leg>,
}

impl Cell {
    /// A short label for logs and digest lines, e.g.
    /// `loft/mesh8x8/uniform-0.3`.
    pub fn label(&self) -> String {
        let topo = match self.topo {
            Topology::Mesh { .. } => format!("mesh{}x{}", self.topo.width(), self.topo.height()),
            Topology::Torus { .. } => format!("torus{}x{}", self.topo.width(), self.topo.height()),
            Topology::Ring { .. } => format!("ring{}", self.topo.num_nodes()),
        };
        let traffic = match self.traffic {
            Traffic::Uniform(r) => format!("uniform-{r}"),
            Traffic::Hotspot(r) => format!("hotspot-{r}"),
            Traffic::BurstyLowDuty(r) => format!("bursty-{r}"),
        };
        format!("{}/{topo}/{traffic}", self.net.name())
    }

    /// Builds the scenario of this cell. The paper's scenarios are
    /// defined on the 8×8 mesh; uniform traffic is retargeted to the
    /// cell's topology by keeping one flow per node.
    pub fn scenario(&self) -> Scenario {
        match self.traffic {
            Traffic::Uniform(rate) => {
                let mut s = Scenario::uniform(rate);
                let n = self.topo.num_nodes();
                assert!(
                    n <= s.flows.len(),
                    "uniform traffic has one flow per mesh node"
                );
                s.topo = self.topo;
                s.flows.truncate(n);
                for (flow, src) in s.flows.iter_mut().zip(self.topo.nodes()) {
                    flow.src = src;
                    flow.dest = DestRule::UniformRandom {
                        num_nodes: n as u32,
                    };
                }
                s.groups.clear();
                s
            }
            Traffic::Hotspot(rate) => {
                assert_eq!(
                    self.topo,
                    Topology::mesh(8, 8),
                    "hotspot is an 8x8 mesh scenario"
                );
                Scenario::hotspot(rate)
            }
            Traffic::BurstyLowDuty(rate) => {
                assert_eq!(
                    self.topo,
                    Topology::mesh(8, 8),
                    "bursty-low-duty is an 8x8 mesh scenario"
                );
                Scenario::bursty_low_duty(rate)
            }
        }
    }
}

/// Frame capacity each architecture sizes reservations for (`None`
/// for wormhole, which has no reservations).
pub fn frame_size(net: Net, topo: Topology) -> Option<u32> {
    match net {
        Net::Loft => Some(LoftConfig::on(topo).frame_size),
        Net::Gsf => Some(GsfConfig::on(topo).frame_size),
        Net::Wormhole => None,
    }
}

/// A network with a `LiveProbe` attached, as the traced run builds it.
pub trait Traced: Network + Clone {
    fn telemetry(self) -> TelemetryReport;
}

impl Traced for LoftNetwork<LiveProbe> {
    fn telemetry(self) -> TelemetryReport {
        self.into_probe().finish()
    }
}

impl Traced for GsfNetwork<LiveProbe> {
    fn telemetry(self) -> TelemetryReport {
        self.into_probe().finish()
    }
}

impl Traced for WormholeNetwork<LiveProbe> {
    fn telemetry(self) -> TelemetryReport {
        self.into_probe().finish()
    }
}

/// Something that runs a cell on a concrete network type: the
/// network is built by the caller-chosen constructor, so one generic
/// body serves all three architectures.
pub trait CellVisitor {
    type Output;
    fn visit<N: Network + Clone>(self, network: N) -> Self::Output;
}

/// [`CellVisitor`] for the traced run, whose networks carry a probe.
pub trait TracedVisitor {
    type Output;
    fn visit<N: Traced>(self, network: N) -> Self::Output;
}

/// Builds the untraced network of `cell` for `reservations` and hands
/// it to `visitor`.
pub fn with_network<V: CellVisitor>(cell: &Cell, reservations: &[u32], visitor: V) -> V::Output {
    match cell.net {
        Net::Loft => visitor.visit(LoftNetwork::new(LoftConfig::on(cell.topo), reservations)),
        Net::Gsf => visitor.visit(GsfNetwork::new(GsfConfig::on(cell.topo), reservations)),
        Net::Wormhole => visitor.visit(WormholeNetwork::new(WormholeConfig::on(cell.topo))),
    }
}

/// Builds the traced network of `cell` (with a `LiveProbe` sampling
/// every `window` cycles) and hands it to `visitor`.
pub fn with_traced_network<V: TracedVisitor>(
    cell: &Cell,
    reservations: &[u32],
    window: u64,
    visitor: V,
) -> V::Output {
    let probe = LiveProbe::new(window);
    match cell.net {
        Net::Loft => visitor.visit(LoftNetwork::with_probe(
            LoftConfig::on(cell.topo),
            reservations,
            probe,
        )),
        Net::Gsf => visitor.visit(GsfNetwork::with_probe(
            GsfConfig::on(cell.topo),
            reservations,
            probe,
        )),
        Net::Wormhole => visitor.visit(WormholeNetwork::with_probe(
            WormholeConfig::on(cell.topo),
            probe,
        )),
    }
}
