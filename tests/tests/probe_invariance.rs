//! Probe invariance: attaching a [`LiveProbe`] must not perturb the
//! simulation, and what the probe records must be a pure function of
//! the run.
//!
//! For every network × {mesh, torus, ring}, the full [`SimReport`]
//! (per-flow stats, Welford latency accumulators, histogram — all of
//! it) from the telemetry runner must equal the plain runner's; a
//! randomized-seed run extends that over arbitrary traffic. The
//! Welford latency mean is order-sensitive in its low bits, so
//! `SimReport` equality pins the exact delivery order, not just the
//! totals. Two fresh telemetry runs must also export identical JSON.
//!
//! [`LiveProbe`]: noc_sim::telemetry::LiveProbe

use loft::LoftConfig;
use loft_bench::sweep::uniform_on;
use loft_bench::{
    run_gsf, run_gsf_telemetry, run_loft, run_loft_telemetry, run_wormhole, run_wormhole_telemetry,
    SEED,
};
use noc_gsf::GsfConfig;
use noc_sim::{RunConfig, SimReport, Topology};
use noc_wormhole::WormholeConfig;

/// Three topology shapes, small enough that the full matrix stays
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

fn gsf_cfg(topo: Topology) -> GsfConfig {
    GsfConfig {
        frame_size: 200,
        ..GsfConfig::on(topo)
    }
}

fn loft_cfg(topo: Topology) -> LoftConfig {
    LoftConfig {
        frame_size: 64,
        nonspec_buffer: 64,
        ..LoftConfig::on(topo)
    }
}

fn assert_unperturbed(name: &str, plain: &SimReport, probed: &SimReport) {
    assert!(
        plain.flits_delivered > 0,
        "{name}: plain run delivered nothing — test is vacuous"
    );
    assert_eq!(
        probed, plain,
        "{name}: attaching a probe changed the report"
    );
}

#[test]
fn wormhole_reports_invariant_under_telemetry() {
    for topo in topologies() {
        let s = uniform_on(topo, 0.30);
        let cfg = WormholeConfig::on(topo);
        let plain = run_wormhole(&s, cfg, run(), SEED);
        let (probed, _) = run_wormhole_telemetry(&s, cfg, run(), SEED, || {});
        assert_unperturbed("wormhole", &plain, &probed);
    }
}

#[test]
fn gsf_reports_invariant_under_telemetry() {
    for topo in topologies() {
        let s = uniform_on(topo, 0.30);
        let plain = run_gsf(&s, gsf_cfg(topo), run(), SEED);
        let (probed, _) = run_gsf_telemetry(&s, gsf_cfg(topo), run(), SEED, || {});
        assert_unperturbed("gsf", &plain, &probed);
    }
}

#[test]
fn loft_reports_invariant_under_telemetry() {
    for topo in topologies() {
        let s = uniform_on(topo, 0.30);
        let plain = run_loft(&s, loft_cfg(topo), run(), SEED);
        let (probed, _) = run_loft_telemetry(&s, loft_cfg(topo), run(), SEED, || {});
        assert_unperturbed("loft", &plain, &probed);
    }
}

/// Randomized stress: arbitrary seeds (so arbitrary injection and
/// destination streams) on a small mesh must all run unperturbed by
/// the probe. xorshift64 keeps the test deterministic and
/// dependency-free.
#[test]
fn randomized_seeds_match_plain_reports() {
    let mut state = 0x5EED_CAFE_F00Du64;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let topo = Topology::mesh(4, 4);
    let s = uniform_on(topo, 0.30);
    for _ in 0..6 {
        let seed = rng();
        let plain = run_wormhole(&s, WormholeConfig::on(topo), run(), seed);
        let (probed, _) = run_wormhole_telemetry(&s, WormholeConfig::on(topo), run(), seed, || {});
        assert_unperturbed(&format!("wormhole seed {seed:#x}"), &plain, &probed);

        let plain = run_gsf(&s, gsf_cfg(topo), run(), seed);
        let (probed, _) = run_gsf_telemetry(&s, gsf_cfg(topo), run(), seed, || {});
        assert_unperturbed(&format!("gsf seed {seed:#x}"), &plain, &probed);
    }
}

/// The JSON export is a pure function of the run: two fresh runs
/// export the same document, and it stays parseable (sanity-check the
/// envelope).
#[test]
fn telemetry_json_is_reproducible_across_runs() {
    let topo = Topology::mesh(4, 4);
    let s = uniform_on(topo, 0.30);
    let first = run_loft_telemetry(&s, loft_cfg(topo), run(), SEED, || {}).1;
    let second = run_loft_telemetry(&s, loft_cfg(topo), run(), SEED, || {}).1;
    assert!(
        first.link_flits.iter().sum::<u64>() > 0,
        "run moved nothing"
    );
    assert_eq!(first, second);
    let json = first.to_json();
    assert!(json.starts_with("{\"telemetry_version\":"));
    assert!(json.ends_with("]}"));
    assert_eq!(json, second.to_json());
}
