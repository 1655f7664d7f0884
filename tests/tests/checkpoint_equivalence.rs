//! Checkpoint/fork equivalence: freezing a simulation at the warmup
//! boundary and forking it must be invisible in every observable —
//! a forked resume must reproduce a from-scratch run bit-for-bit in
//! the full [`SimReport`] (per-flow stats, Welford accumulators,
//! histogram), the full [`TelemetryReport`], and the drain's exact
//! termination cycle, for every network × {mesh, torus, ring}.
//!
//! Two properties per cell, both against from-scratch oracles:
//!
//! 1. `checkpoint → fork → resume` equals a straight run with the
//!    same [`RunConfig`] (the sweep runner's warmup-sharing path);
//! 2. `checkpoint → fork → with_measure(2k) → resume` equals a
//!    straight run with the doubled horizon (the adaptive-saturation
//!    path: one warmup serves every horizon extension).
//!
//! Both forks come from the *same* checkpoint, so the suite also
//! certifies that forking is non-destructive — a checkpoint can be
//! forked any number of times and each fork starts from the identical
//! frozen state.

use loft::LoftConfig;
use loft_bench::sweep::uniform_on;
use loft_bench::{
    checkpoint_gsf_telemetry, checkpoint_loft_telemetry, checkpoint_wormhole_telemetry,
    run_gsf_telemetry_info, run_loft_telemetry_info, run_wormhole_telemetry_info, SEED,
};
use noc_gsf::GsfConfig;
use noc_sim::telemetry::TelemetryReport;
use noc_sim::{RunConfig, SimReport, Topology};
use noc_traffic::Scenario;
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
        warmup: 150,
        measure: 600,
        drain: 600,
    }
}

/// Everything a cell compares: the full report, the full telemetry,
/// and the exact cycle the drain terminated at.
type Outcome = (SimReport, TelemetryReport, u64);

/// Runs the property matrix for one network. `checkpoint` warms up
/// and freezes; `fork_run` forks it with a measurement horizon;
/// `scratch` is the from-scratch oracle with the same settings. The
/// checkpoint type is opaque here — each network instantiates its
/// own.
fn check_net<K>(
    net: &str,
    checkpoint: impl Fn(&Scenario, Topology) -> K,
    fork_run: impl Fn(&K, u64) -> Outcome,
    scratch: impl Fn(&Scenario, Topology, RunConfig) -> Outcome,
) {
    for topo in topologies() {
        // Moderate load, so every cell delivers traffic in the window.
        let scenario = uniform_on(topo, 0.10);
        let ctx = format!("{net}/{topo:?}");
        let ckpt = checkpoint(&scenario, topo);

        let (base_report, base_telemetry, base_end) = scratch(&scenario, topo, run());
        assert!(
            base_report.flits_delivered > 0,
            "{ctx}: oracle run delivered nothing — test is vacuous"
        );
        let (report, telemetry, end) = fork_run(&ckpt, run().measure);
        assert_eq!(report, base_report, "{ctx}: forked SimReport diverged");
        assert_eq!(
            telemetry, base_telemetry,
            "{ctx}: forked TelemetryReport diverged"
        );
        assert_eq!(
            end, base_end,
            "{ctx}: forked drain ended at a different cycle"
        );

        // Horizon extension: the same checkpoint, forked again
        // with a doubled measurement window, must equal a
        // from-scratch run at the doubled horizon.
        let doubled = RunConfig {
            measure: run().measure * 2,
            ..run()
        };
        let (long_report, long_telemetry, long_end) = scratch(&scenario, topo, doubled);
        let (report, telemetry, end) = fork_run(&ckpt, doubled.measure);
        assert_eq!(
            report, long_report,
            "{ctx}: doubled-horizon fork SimReport diverged"
        );
        assert_eq!(
            telemetry, long_telemetry,
            "{ctx}: doubled-horizon fork TelemetryReport diverged"
        );
        assert_eq!(
            end, long_end,
            "{ctx}: doubled-horizon fork ended at a different cycle"
        );
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
fn loft_forked_runs_match_scratch_runs() {
    check_net(
        "loft",
        |s, topo| checkpoint_loft_telemetry(s, loft_cfg(topo), run(), SEED, true),
        |c, measure| {
            let (r, n, i) = c.fork().with_measure(measure).resume();
            (r, n.into_probe().finish(), i.end_cycle)
        },
        |s, topo, rc| {
            let (r, t, i) = run_loft_telemetry_info(s, loft_cfg(topo), rc, SEED, true, || {});
            (r, t, i.end_cycle)
        },
    );
}

#[test]
fn gsf_forked_runs_match_scratch_runs() {
    check_net(
        "gsf",
        |s, topo| checkpoint_gsf_telemetry(s, gsf_cfg(topo), run(), SEED, true),
        |c, measure| {
            let (r, n, i) = c.fork().with_measure(measure).resume();
            (r, n.into_probe().finish(), i.end_cycle)
        },
        |s, topo, rc| {
            let (r, t, i) = run_gsf_telemetry_info(s, gsf_cfg(topo), rc, SEED, true, || {});
            (r, t, i.end_cycle)
        },
    );
}

#[test]
fn wormhole_forked_runs_match_scratch_runs() {
    check_net(
        "wormhole",
        |s, topo| checkpoint_wormhole_telemetry(s, WormholeConfig::on(topo), run(), SEED, true),
        |c, measure| {
            let (r, n, i) = c.fork().with_measure(measure).resume();
            (r, n.into_probe().finish(), i.end_cycle)
        },
        |s, topo, rc| {
            let (r, t, i) =
                run_wormhole_telemetry_info(s, WormholeConfig::on(topo), rc, SEED, true, || {});
            (r, t, i.end_cycle)
        },
    );
}
