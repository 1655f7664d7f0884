//! Golden telemetry pins: each network, run with a [`LiveProbe`] at
//! the golden determinism scenarios (same seed, same run
//! configurations as `golden_determinism.rs`), must reproduce these
//! exact [`TelemetryReport`]s.
//!
//! A pin is an FNV-1a hash of the versioned JSON export — which
//! carries every counter, occupancy accumulator and per-flow series,
//! floats formatted exactly — plus the per-link totals that most
//! often explain a moved number: flits, stalls, scheduler books and
//! denies, local resets and NIC stalls. The `SimReport` pins prove
//! that the simulation did not change; these prove that what the
//! probe *records* about it did not change either. If a pin moves,
//! the change altered the telemetry stream (event placement, sampling
//! cadence, merge order) and needs its own justification.
//!
//! [`LiveProbe`]: noc_sim::telemetry::LiveProbe

use loft::LoftConfig;
use loft_bench::{run_gsf_telemetry, run_loft_telemetry, run_wormhole_telemetry, SEED};
use noc_gsf::GsfConfig;
use noc_sim::telemetry::{TelemetryReport, TELEMETRY_SCHEMA_VERSION};
use noc_sim::RunConfig;
use noc_traffic::Scenario;
use noc_wormhole::WormholeConfig;

/// The pinned digest of one telemetry report.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    json_fnv1a: u64,
    link_flits: u64,
    link_stalls: u64,
    sched_book: u64,
    sched_deny: u64,
    link_resets: u64,
    nic_stalls: u64,
}

/// 64-bit FNV-1a: tiny, dependency-free, and stable across platforms
/// and toolchains (unlike `std`'s `DefaultHasher`).
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn pin_of(report: &TelemetryReport) -> Pin {
    assert_eq!(report.version, TELEMETRY_SCHEMA_VERSION);
    assert!(
        report.latency_histogram.count() > 0,
        "run delivered nothing — pin is vacuous"
    );
    let sum = |v: &[u64]| v.iter().sum::<u64>();
    Pin {
        json_fnv1a: fnv1a(report.to_json().as_bytes()),
        link_flits: sum(&report.link_flits),
        link_stalls: sum(&report.link_stalls),
        sched_book: sum(&report.sched_book),
        sched_deny: sum(&report.sched_deny),
        link_resets: sum(&report.link_resets),
        nic_stalls: sum(&report.nic_stalls),
    }
}

/// The near-saturation run configuration of the golden pins.
fn high_load_run() -> RunConfig {
    RunConfig {
        warmup: 200,
        measure: 2_000,
        drain: 1_000,
    }
}

fn loft(scenario: &Scenario, run: RunConfig) -> Pin {
    pin_of(&run_loft_telemetry(scenario, LoftConfig::default(), run, SEED, || {}).1)
}

fn gsf(scenario: &Scenario, run: RunConfig) -> Pin {
    pin_of(&run_gsf_telemetry(scenario, GsfConfig::default(), run, SEED, || {}).1)
}

fn wormhole(scenario: &Scenario, run: RunConfig) -> Pin {
    pin_of(&run_wormhole_telemetry(scenario, WormholeConfig::default(), run, SEED, || {}).1)
}

#[test]
fn loft_uniform_low_load_telemetry_is_pinned() {
    assert_eq!(
        loft(&Scenario::uniform(0.05), RunConfig::short()),
        Pin {
            json_fnv1a: 0x5409_2717_BE9B_74AB,
            link_flits: 225_080,
            link_stalls: 0,
            sched_book: 112_601,
            sched_deny: 4_043,
            link_resets: 45_934,
            nic_stalls: 0,
        }
    );
}

#[test]
fn gsf_uniform_low_load_telemetry_is_pinned() {
    assert_eq!(
        gsf(&Scenario::uniform(0.05), RunConfig::short()),
        Pin {
            json_fnv1a: 0xB919_049F_27FD_1032,
            link_flits: 225_235,
            link_stalls: 0,
            sched_book: 0,
            sched_deny: 0,
            link_resets: 0,
            nic_stalls: 0,
        }
    );
}

#[test]
fn wormhole_uniform_low_load_telemetry_is_pinned() {
    assert_eq!(
        wormhole(&Scenario::uniform(0.05), RunConfig::short()),
        Pin {
            json_fnv1a: 0x9E41_32D7_4227_8FE6,
            link_flits: 225_235,
            link_stalls: 0,
            sched_book: 0,
            sched_deny: 0,
            link_resets: 0,
            nic_stalls: 0,
        }
    );
}

#[test]
fn loft_uniform_high_load_telemetry_is_pinned() {
    assert_eq!(
        loft(&Scenario::uniform(0.60), high_load_run()),
        Pin {
            json_fnv1a: 0x4B7C_8D06_7B90_D4C4,
            link_flits: 341_848,
            link_stalls: 9,
            sched_book: 171_289,
            sched_deny: 227_953,
            link_resets: 29_565,
            nic_stalls: 0,
        }
    );
}

#[test]
fn gsf_uniform_high_load_telemetry_is_pinned() {
    assert_eq!(
        gsf(&Scenario::uniform(0.60), high_load_run()),
        Pin {
            json_fnv1a: 0xA481_B5AD_1DD3_5542,
            link_flits: 592_758,
            link_stalls: 0,
            sched_book: 0,
            sched_deny: 0,
            link_resets: 0,
            nic_stalls: 0,
        }
    );
}

#[test]
fn wormhole_uniform_high_load_telemetry_is_pinned() {
    assert_eq!(
        wormhole(&Scenario::uniform(0.60), high_load_run()),
        Pin {
            json_fnv1a: 0x47BB_FB46_9913_C5CE,
            link_flits: 584_838,
            link_stalls: 33_342,
            sched_book: 0,
            sched_deny: 0,
            link_resets: 0,
            nic_stalls: 95_666,
        }
    );
}

#[test]
fn loft_hotspot_telemetry_is_pinned() {
    assert_eq!(
        loft(&Scenario::hotspot(0.02), RunConfig::short()),
        Pin {
            json_fnv1a: 0x8337_6DE2_74FF_ACEC,
            link_flits: 90_114,
            link_stalls: 1_552,
            sched_book: 45_064,
            sched_deny: 514_047,
            link_resets: 1_698,
            nic_stalls: 0,
        }
    );
}

#[test]
fn gsf_hotspot_telemetry_is_pinned() {
    assert_eq!(
        gsf(&Scenario::hotspot(0.02), RunConfig::short()),
        Pin {
            json_fnv1a: 0x8D26_C2C9_98E1_8A79,
            link_flits: 93_924,
            link_stalls: 0,
            sched_book: 0,
            sched_deny: 0,
            link_resets: 0,
            nic_stalls: 0,
        }
    );
}
