//! What the benchmark prints: the provenance line, report digests,
//! and the final result line. All JSON is written by hand (the build
//! is offline and std-only).

use std::fmt::Write as _;
use std::time::{SystemTime, UNIX_EPOCH};

use noc_sim::stats::RunningStats;
use noc_sim::SimReport;

/// Quotes `s` as a JSON string.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats a finite number as JSON (non-finite values, which no
/// metric should produce, become `null` so the output still parses).
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// A named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The result line, printed last.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// 64-bit FNV-1a over the deterministic fields of a report. Equal
/// digests across commits show that a change left the simulated
/// results bit-identical.
pub fn digest(report: &SimReport) -> u64 {
    let mut h = Fnv::new();
    h.u64(report.measured_cycles);
    h.u64(report.num_nodes as u64);
    h.u64(report.flits_delivered);
    h.stats(&report.total_latency);
    h.stats(&report.network_latency);
    for (upper, count) in report.latency_histogram.iter() {
        h.u64(upper);
        h.u64(count);
    }
    for f in &report.flows {
        h.u64(f.packets_delivered);
        h.u64(f.flits_delivered);
        h.u64(f.packets_offered);
        h.stats(&f.total_latency);
        h.stats(&f.network_latency);
        h.u64(f.throughput.to_bits());
    }
    h.0
}

/// Folds a sequence of digests into one.
pub fn combine(digests: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = Fnv::new();
    for d in digests {
        h.u64(d);
    }
    h.0
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn stats(&mut self, s: &RunningStats) {
        self.u64(s.count());
        for x in [s.mean(), s.variance(), s.min(), s.max()] {
            self.u64(x.to_bits());
        }
    }
}

/// The commit of the checkout, read from `.git` in the working
/// directory without running git; `unknown` outside a git checkout.
fn git_rev() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The provenance line printed before every result.
pub fn provenance(workload: &str, seed: u64, seconds: f64, trace: bool, tiny: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let timestamp = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    format!(
        "{{\"provenance\": {{\"git_rev\": {}, \"nproc\": {nproc}, \"profile\": {}, \"rustc\": {}, \
         \"timestamp_unix\": {timestamp}, \"workload\": {}, \"seed\": {seed}, \"seconds\": {}, \
         \"trace\": {trace}, \"tiny\": {tiny}}}}}",
        json_str(&git_rev()),
        json_str(env!("BENCH_PROFILE")),
        json_str(env!("BENCH_RUSTC_VERSION")),
        json_str(workload),
        json_num(seconds),
    )
}
