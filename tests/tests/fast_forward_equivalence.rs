//! Quiescence fast-forward equivalence: skipping idle spans in
//! closed form must be invisible in every observable — the full
//! [`SimReport`] (per-flow stats, Welford latency accumulators,
//! histogram) *and* the full [`TelemetryReport`] (counters, occupancy
//! accumulators, per-flow series) must be bit-identical with the fast
//! path on or off, for every network × {mesh, torus, ring} ×
//! {uniform-low, bursty, regulated}.
//!
//! The ff-off run is the oracle; two ff-on legs must reproduce it
//! exactly. On the quiescence-heavy workloads the suite also asserts
//! the fast path actually engaged — an equivalence test that never
//! jumps is vacuous.
//!
//! The oracle and the first ff-on leg share one warmup: the cell
//! warms up once into a [`noc_sim::Checkpoint`] (fast-forward off, so
//! the oracle stays skip-free end to end) and both are forks of it.
//! Checkpoint/fork bit-identity is proved separately
//! (`checkpoint_equivalence.rs`, and against the golden pins in
//! `golden_determinism.rs`), so the shared warmup does not weaken the
//! oracle — it just stops paying for the same warmup twice. The
//! second ff-on leg runs from scratch, fast-forwarding through the
//! warmup too.

use loft::LoftConfig;
use loft_bench::{
    checkpoint_gsf_telemetry, checkpoint_loft_telemetry, checkpoint_wormhole_telemetry,
    run_gsf_telemetry_info, run_loft_telemetry_info, run_wormhole_telemetry_info, SEED,
};
use noc_gsf::GsfConfig;
use noc_sim::telemetry::TelemetryReport;
use noc_sim::{RunConfig, SimReport, Topology};
use noc_traffic::{DestRule, InjectionProcess, Scenario};
use noc_wormhole::WormholeConfig;

/// Small shapes of each topology kind, so the whole matrix stays
/// fast.
fn topologies() -> [Topology; 3] {
    [
        Topology::mesh(4, 4),
        Topology::torus(4, 4),
        Topology::ring(12),
    ]
}

fn run() -> RunConfig {
    RunConfig {
        warmup: 100,
        measure: 1_000,
        drain: 1_000,
    }
}

/// [`Scenario::uniform`] rebuilt for an arbitrary topology, at a load
/// low enough that the network occasionally goes globally idle.
fn uniform_low_on(topo: Topology) -> Scenario {
    let mut s = Scenario::uniform(0.02);
    let n = topo.num_nodes();
    s.topo = topo;
    s.flows.truncate(n);
    for (f, src) in s.flows.iter_mut().zip(topo.nodes()) {
        f.src = src;
        f.dest = DestRule::UniformRandom {
            num_nodes: n as u32,
        };
    }
    s.groups.clear();
    s
}

/// Two end-to-end flows with the given process — sparse enough that
/// the whole network quiesces between packets on any topology.
fn sparse_pair_on(topo: Topology, process: InjectionProcess, name: &str) -> Scenario {
    let nodes: Vec<_> = topo.nodes().collect();
    let (first, last) = (nodes[0], *nodes.last().expect("topology has nodes"));
    let mut s = Scenario::uniform(0.0);
    s.topo = topo;
    s.flows.truncate(2);
    for (f, (src, dst)) in s.flows.iter_mut().zip([(first, last), (last, first)]) {
        f.src = src;
        f.dest = DestRule::Fixed(dst);
        f.process = process.clone();
    }
    s.groups.clear();
    s.name = name.to_string();
    s
}

/// Short bursts, long idle spans: the fast path's target workload.
fn bursty_on(topo: Topology) -> Scenario {
    sparse_pair_on(
        topo,
        InjectionProcess::OnOff {
            rate_on: 0.6,
            p_on_to_off: 1.0 / 20.0,
            p_off_to_on: 1.0 / 300.0,
        },
        "bursty-sparse",
    )
}

/// Deterministic synchronized waves with fully idle gaps in between.
fn regulated_on(topo: Topology) -> Scenario {
    sparse_pair_on(
        topo,
        InjectionProcess::Regulated { rate: 0.05 },
        "regulated-sparse",
    )
}

/// The traffic matrix: name, scenario builder, and whether the fast
/// path is required to engage (quiescence-heavy workloads).
#[allow(clippy::type_complexity)]
fn traffics() -> [(&'static str, fn(Topology) -> Scenario, bool); 3] {
    [
        ("uniform-low", uniform_low_on, false),
        ("bursty", bursty_on, true),
        ("regulated", regulated_on, true),
    ]
}

/// What every leg reports: the full [`SimReport`], the full
/// [`TelemetryReport`], the drain's end cycle, and the cycles the
/// fast path skipped.
type Outcome = (SimReport, TelemetryReport, u64, u64);

/// Runs the equivalence matrix for one network. `checkpoint` warms a
/// cell up once (fast-forward off) and freezes it; `fork_leg` forks
/// it with fast-forward on or off; `scratch` runs an ff-on leg from
/// scratch. The checkpoint type is opaque here — each network
/// instantiates its own.
fn check_equivalence<K>(
    net: &str,
    checkpoint: impl Fn(&Scenario, Topology) -> K,
    fork_leg: impl Fn(&K, bool) -> Outcome,
    scratch: impl Fn(&Scenario, Topology) -> Outcome,
) {
    for topo in topologies() {
        for (traffic, build, must_skip) in traffics() {
            let scenario = build(topo);
            let ctx = format!("{net}/{topo:?}/{traffic}");
            let ckpt = checkpoint(&scenario, topo);
            let (base_report, base_telemetry, base_end, base_skipped) = fork_leg(&ckpt, false);
            assert!(
                base_report.flits_delivered > 0,
                "{ctx}: oracle run delivered nothing — test is vacuous"
            );
            assert_eq!(
                base_skipped, 0,
                "{ctx}: fast-forward-off run skipped cycles"
            );
            let check = |report: SimReport,
                         telemetry: TelemetryReport,
                         end: u64,
                         skipped: u64,
                         leg: &str| {
                assert_eq!(
                    report, base_report,
                    "{ctx}: SimReport diverged on the {leg} fast-forward leg"
                );
                assert_eq!(
                    telemetry, base_telemetry,
                    "{ctx}: TelemetryReport diverged on the {leg} fast-forward leg"
                );
                assert_eq!(
                    end, base_end,
                    "{ctx}: drain terminated at a different cycle on the {leg} leg"
                );
                if must_skip {
                    assert!(
                        skipped > 0,
                        "{ctx}: fast path never engaged on the {leg} leg — \
                         quiescence-heavy workload should jump"
                    );
                }
            };
            let (report, telemetry, end, skipped) = fork_leg(&ckpt, true);
            check(report, telemetry, end, skipped, "forked");
            let (report, telemetry, end, skipped) = scratch(&scenario, topo);
            check(report, telemetry, end, skipped, "from-scratch");
        }
    }
}

fn loft_cfg(topo: Topology) -> LoftConfig {
    LoftConfig {
        frame_size: 64,
        nonspec_buffer: 64,
        ..LoftConfig::on(topo)
    }
}

fn gsf_cfg(topo: Topology) -> GsfConfig {
    GsfConfig {
        frame_size: 200,
        ..GsfConfig::on(topo)
    }
}

#[test]
fn loft_fast_forward_is_equivalent() {
    check_equivalence(
        "loft",
        |s, topo| checkpoint_loft_telemetry(s, loft_cfg(topo), run(), SEED, false),
        |c, ff| {
            let (r, n, i) = c.fork().with_fast_forward(ff).resume();
            (r, n.into_probe().finish(), i.end_cycle, i.skipped_cycles)
        },
        |s, topo| {
            let (r, t, i) = run_loft_telemetry_info(s, loft_cfg(topo), run(), SEED, true, || {});
            (r, t, i.end_cycle, i.skipped_cycles)
        },
    );
}

#[test]
fn gsf_fast_forward_is_equivalent() {
    check_equivalence(
        "gsf",
        |s, topo| checkpoint_gsf_telemetry(s, gsf_cfg(topo), run(), SEED, false),
        |c, ff| {
            let (r, n, i) = c.fork().with_fast_forward(ff).resume();
            (r, n.into_probe().finish(), i.end_cycle, i.skipped_cycles)
        },
        |s, topo| {
            let (r, t, i) = run_gsf_telemetry_info(s, gsf_cfg(topo), run(), SEED, true, || {});
            (r, t, i.end_cycle, i.skipped_cycles)
        },
    );
}

#[test]
fn wormhole_fast_forward_is_equivalent() {
    check_equivalence(
        "wormhole",
        |s, topo| checkpoint_wormhole_telemetry(s, WormholeConfig::on(topo), run(), SEED, false),
        |c, ff| {
            let (r, n, i) = c.fork().with_fast_forward(ff).resume();
            (r, n.into_probe().finish(), i.end_cycle, i.skipped_cycles)
        },
        |s, topo| {
            let (r, t, i) =
                run_wormhole_telemetry_info(s, WormholeConfig::on(topo), run(), SEED, true, || {});
            (r, t, i.end_cycle, i.skipped_cycles)
        },
    );
}
