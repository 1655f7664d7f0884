//! The traced run: a copy of the engine's warmup/measure/drain loop
//! (with its fast-forward clamping) that times every call into the
//! traffic source, the network and the statistics collector, and
//! checks packet conservation every cycle.
//!
//! `Checkpoint` keeps its network and traffic source private, so the
//! traced run cannot resume one. It replays the warmup in this loop
//! instead and clones the warmed (network, traffic) pair once per leg:
//! the simulator is deterministic, so that clone is the same state a
//! fork of the untraced checkpoint holds, which the comparison of the
//! two runs' reports checks.

use std::time::Instant;

use noc_sim::stats::StatsCollector;
use noc_sim::telemetry::TelemetryReport;
use noc_sim::{Network, Packet, PacketProbe, RunConfig, RunInfo, SimReport, TrafficSource};
use noc_traffic::{Scenario, Workload};

use crate::alloc;
use crate::cells::{with_traced_network, Cell, Traced, TracedVisitor};
use crate::runner::prepare;

/// Occupancy-sampling window of the traced run's `LiveProbe`.
pub const TELEMETRY_WINDOW: u64 = 1_000;

/// Calls into one layer and the host time they took.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    pub calls: u64,
    pub ns: u64,
}

impl Span {
    fn add(&mut self, start: Instant) {
        self.calls += 1;
        self.ns += start.elapsed().as_nanos() as u64;
    }

    /// Mean nanoseconds per call (0 with no calls).
    pub fn ns_per_call(&self) -> f64 {
        ratio(self.ns as f64, self.calls as f64)
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Per-layer accounting of one network architecture.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetLayers {
    pub step: Span,
    pub enqueue: Span,
    /// `fast_forward` calls (offered jumps) and their time.
    pub ff: Span,
    /// Offered jumps the network accepted.
    pub ff_accepted: u64,
    pub skipped: u64,
    /// Simulated measure + drain cycles, stepped plus skipped.
    pub sim_cycles: u64,
    pub flits_delivered: u64,
    /// Sum of `in_flight()` over stepped cycles.
    pub in_flight_sum: u64,
    /// Allocations made inside `enqueue`, `step` and `fast_forward`.
    pub allocs: u64,
    /// `LiveProbe` counts over the measured legs.
    pub probe: ProbeCounts,
}

/// Sums of `LiveProbe` counters over measured legs.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProbeCounts {
    pub cycles: u64,
    pub link_cycles: u64,
    pub node_cycles: u64,
    pub link_stalls: u64,
    pub nic_stalls: u64,
    pub sched_book: u64,
    pub sched_deny: u64,
    pub link_resets: u64,
    pub link_util_max: f64,
}

/// Per-layer accounting of a whole traced pass.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub generate: Span,
    pub packets_generated: u64,
    pub next_active: Span,
    /// `on_generated` and `on_delivered` together.
    pub stats: Span,
    pub nets: [NetLayers; 3],
}

/// Everything the loop owns between cycles.
#[derive(Debug, Clone)]
struct LoopState<N> {
    network: N,
    traffic: Workload,
    cycle: u64,
    skipped: u64,
    generated: u64,
    delivered: u64,
    /// Per flow: packets generated so far, and a bitmap of the
    /// sequence numbers delivered.
    flows: Vec<(u64, Vec<u64>)>,
    /// Packets delivered during warmup whose ejection stamp already
    /// lies in the measurement window (LOFT stamps ejections a few
    /// cycles ahead). The engine's single collector counts their
    /// flits; each leg's fresh collector is fed them first.
    carried: Vec<Packet>,
}

/// One traced leg's results, for comparison with the untraced leg.
#[derive(Debug, Clone)]
pub struct TracedLeg {
    pub report: SimReport,
    pub info: RunInfo,
    /// The first conservation or delivery error, if any.
    pub error: Option<String>,
}

/// Runs `cell` traced, adding every measured (ff-on) leg's accounting
/// into `layers`, and returns each leg's results.
pub fn run_cell(cell: &Cell, seed: u64, layers: &mut Layers) -> Result<Vec<TracedLeg>, String> {
    let (scenario, reservations) = prepare(cell)?;
    let visitor = Visitor {
        cell,
        scenario: &scenario,
        seed,
        layers,
    };
    Ok(with_traced_network(
        cell,
        &reservations,
        TELEMETRY_WINDOW,
        visitor,
    ))
}

struct Visitor<'a> {
    cell: &'a Cell,
    scenario: &'a Scenario,
    seed: u64,
    layers: &'a mut Layers,
}

impl TracedVisitor for Visitor<'_> {
    type Output = Vec<TracedLeg>;

    fn visit<N: Traced>(self, network: N) -> Vec<TracedLeg> {
        let cell = self.cell;
        let traffic = self.scenario.workload(self.seed);
        let flows = vec![(0, Vec::new()); traffic.num_flows()];
        let num_flows = traffic.num_flows();
        let num_nodes = network.num_nodes();
        let mut base = LoopState {
            network,
            traffic,
            cycle: 0,
            skipped: 0,
            generated: 0,
            delivered: 0,
            flows,
            carried: Vec::new(),
        };
        // Warmup: fast-forward is on, as in `Simulation::new`; its
        // timings are not part of any layer's measured numbers.
        let mut warm_layers = Layers::default();
        let mut warm_stats = StatsCollector::new(num_flows, num_nodes, cell.run.warmup, 0);
        let mut error = drive(
            &mut base,
            cell.run,
            cell.run.warmup,
            true,
            &mut warm_stats,
            &mut warm_layers,
            cell.net.index(),
        );
        let at_warmup = base.network.clone().telemetry();

        cell.legs
            .iter()
            .map(|leg| {
                let mut state = base.clone();
                let run = RunConfig {
                    measure: leg.measure,
                    ..cell.run
                };
                let mut stats = StatsCollector::new(num_flows, num_nodes, run.warmup, run.measure);
                for p in &state.carried {
                    stats.on_delivered(p);
                }
                let mut scratch = Layers::default();
                let layers = if leg.fast_forward {
                    &mut *self.layers
                } else {
                    &mut scratch
                };
                let leg_error = drive(
                    &mut state,
                    run,
                    u64::MAX,
                    leg.fast_forward,
                    &mut stats,
                    layers,
                    cell.net.index(),
                );
                let net = &mut layers.nets[cell.net.index()];
                net.sim_cycles += state.cycle - run.warmup;
                let info = RunInfo {
                    skipped_cycles: state.skipped,
                    end_cycle: state.cycle,
                };
                let telemetry = state.network.telemetry();
                add_probe_delta(&mut net.probe, &at_warmup, &telemetry, num_nodes);
                TracedLeg {
                    report: stats.finish(),
                    info,
                    error: error.take().or(leg_error),
                }
            })
            .collect()
    }
}

/// The engine's loop, with a timer around every call out of it.
/// Runs until `stop` or the run's natural end and returns the first
/// conservation or delivery error.
fn drive<N: Network>(
    st: &mut LoopState<N>,
    run: RunConfig,
    stop: u64,
    fast_forward: bool,
    stats: &mut StatsCollector,
    layers: &mut Layers,
    net_index: usize,
) -> Option<String> {
    let mut error = None;
    let mut fresh = Vec::new();
    let mut delivered = Vec::new();
    let horizon = run.warmup + run.measure;
    let end = (horizon + run.drain).min(stop);
    while st.cycle < end {
        if st.cycle >= horizon && st.network.in_flight() == 0 {
            break;
        }
        if fast_forward && st.network.in_flight() == 0 {
            let bound = if st.cycle < run.warmup {
                run.warmup
            } else {
                horizon
            };
            let t = Instant::now();
            let target = st.traffic.next_active_cycle(st.cycle, bound);
            layers.next_active.add(t);
            if target > st.cycle {
                let allocs = alloc::count();
                let t = Instant::now();
                let jumped = st.network.fast_forward(target - st.cycle);
                let net = &mut layers.nets[net_index];
                net.ff.add(t);
                net.allocs += alloc::count() - allocs;
                if jumped > 0 {
                    net.ff_accepted += 1;
                    net.skipped += jumped;
                    st.skipped += jumped;
                    st.cycle += jumped;
                    continue;
                }
            }
        }
        fresh.clear();
        let t = Instant::now();
        st.traffic.generate(st.cycle, &mut fresh);
        layers.generate.add(t);
        layers.packets_generated += fresh.len() as u64;
        for p in fresh.drain(..) {
            let t = Instant::now();
            stats.on_generated(&p);
            layers.stats.add(t);
            let flow = &mut st.flows[p.id.flow.index()];
            if p.id.seq != flow.0 && error.is_none() {
                error = Some(format!("packet {} generated out of sequence", p.id));
            }
            flow.0 += 1;
            st.generated += 1;
            let net = &mut layers.nets[net_index];
            let allocs = alloc::count();
            let t = Instant::now();
            st.network.enqueue(p);
            net.enqueue.add(t);
            net.allocs += alloc::count() - allocs;
        }
        delivered.clear();
        let net = &mut layers.nets[net_index];
        let allocs = alloc::count();
        let t = Instant::now();
        st.network.step(&mut delivered);
        net.step.add(t);
        net.allocs += alloc::count() - allocs;
        for p in delivered.drain(..) {
            net.flits_delivered += u64::from(p.len_flits);
            let t = Instant::now();
            stats.on_delivered(&p);
            layers.stats.add(t);
            if let Err(e) = mark_delivered(&mut st.flows, &p) {
                error.get_or_insert(e);
            }
            st.delivered += 1;
            if st.cycle < run.warmup && p.ejected_at.is_some_and(|at| at >= run.warmup) {
                st.carried.push(p);
            }
        }
        st.cycle += 1;
        let in_flight = st.network.in_flight() as u64;
        net.in_flight_sum += in_flight;
        if st.generated != st.delivered + in_flight && error.is_none() {
            error = Some(format!(
                "cycle {}: {} packets generated but {} delivered + {} in flight",
                st.cycle, st.generated, st.delivered, in_flight
            ));
        }
    }
    error
}

/// Records `p` as delivered, failing if it was never generated or was
/// delivered before.
fn mark_delivered(flows: &mut [(u64, Vec<u64>)], p: &Packet) -> Result<(), String> {
    let (generated, seen) = &mut flows[p.id.flow.index()];
    if p.id.seq >= *generated {
        return Err(format!("packet {} delivered but never generated", p.id));
    }
    let word = (p.id.seq / 64) as usize;
    if seen.len() <= word {
        seen.resize(word + 1, 0);
    }
    let bit = 1u64 << (p.id.seq % 64);
    if seen[word] & bit != 0 {
        return Err(format!("packet {} delivered twice", p.id));
    }
    seen[word] |= bit;
    Ok(())
}

/// Adds the probe counts accumulated between `before` and `after`.
fn add_probe_delta(
    into: &mut ProbeCounts,
    before: &TelemetryReport,
    after: &TelemetryReport,
    num_nodes: usize,
) {
    let delta = |a: &[u64], b: &[u64]| -> u64 { a.iter().sum::<u64>() - b.iter().sum::<u64>() };
    let cycles = after.cycles - before.cycles;
    into.cycles += cycles;
    into.link_cycles += cycles * (num_nodes * after.ports) as u64;
    into.node_cycles += cycles * num_nodes as u64;
    into.link_stalls += delta(&after.link_stalls, &before.link_stalls);
    into.nic_stalls += delta(&after.nic_stalls, &before.nic_stalls);
    into.sched_book += delta(&after.sched_book, &before.sched_book);
    into.sched_deny += delta(&after.sched_deny, &before.sched_deny);
    into.link_resets += delta(&after.link_resets, &before.link_resets);
    for (link, &flits) in after.link_flits.iter().enumerate() {
        let earlier = before.link_flits.get(link).copied().unwrap_or(0);
        let util = ratio((flits - earlier) as f64, cycles as f64);
        into.link_util_max = into.link_util_max.max(util);
    }
}
