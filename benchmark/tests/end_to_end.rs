//! Runs the tiny mode of every workload end to end, untraced and
//! traced, and checks the printed result: it parses, every check
//! passed, and it names exactly the metrics BENCHMARK.json declares,
//! with names made of `[A-Za-z0-9_.-]` and the declared units.

use std::collections::BTreeMap;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["uniform-sat", "bursty-idle", "matrix-short"];

/// A parsed JSON value (just enough JSON for the benchmark's output).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("missing key {key:?} in {self:?}")),
            _ => panic!("not an object: {self:?}"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("not an object: {self:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(x) => *x,
            _ => panic!("not a number: {self:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("not a string: {self:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(xs) => xs,
            _ => panic!("not an array: {self:?}"),
        }
    }
}

fn parse(text: &str) -> Json {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value();
    p.ws();
    assert_eq!(p.i, p.s.len(), "trailing text after JSON value in {text:?}");
    v
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected {:?} at {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(fields);
                }
                loop {
                    self.ws();
                    let Json::Str(key) = self.value() else {
                        panic!("object key is not a string at {}", self.i)
                    };
                    self.eat(b':');
                    fields.push((key, self.value()));
                    self.ws();
                    let c = self.s[self.i];
                    self.i += 1;
                    match c {
                        b',' => continue,
                        b'}' => return Json::Obj(fields),
                        _ => panic!("bad object separator at {}", self.i),
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.ws();
                    let c = self.s[self.i];
                    self.i += 1;
                    match c {
                        b',' => continue,
                        b']' => return Json::Arr(items),
                        _ => panic!("bad array separator at {}", self.i),
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let mut out = String::new();
                loop {
                    let c = self.s[self.i];
                    self.i += 1;
                    match c {
                        b'"' => return Json::Str(out),
                        b'\\' => {
                            let e = self.s[self.i];
                            self.i += 1;
                            match e {
                                b'"' | b'\\' | b'/' => out.push(e as char),
                                b'n' => out.push('\n'),
                                b't' => out.push('\t'),
                                b'u' => {
                                    let hex = std::str::from_utf8(&self.s[self.i..self.i + 4])
                                        .expect("ascii escape");
                                    let code = u32::from_str_radix(hex, 16).expect("hex escape");
                                    out.push(char::from_u32(code).expect("valid escape"));
                                    self.i += 4;
                                }
                                _ => panic!("unsupported escape \\{}", e as char),
                            }
                        }
                        _ => {
                            // Copy one UTF-8 sequence.
                            let start = self.i - 1;
                            let len = match c {
                                0x00..=0x7f => 1,
                                0xc0..=0xdf => 2,
                                0xe0..=0xef => 3,
                                _ => 4,
                            };
                            self.i = start + len;
                            out.push_str(
                                std::str::from_utf8(&self.s[start..self.i]).expect("utf-8"),
                            );
                        }
                    }
                }
            }
            b't' => self.word("true", Json::Bool(true)),
            b'f' => self.word("false", Json::Bool(false)),
            b'n' => self.word("null", Json::Null),
            _ => {
                let start = self.i;
                while self.i < self.s.len()
                    && matches!(
                        self.s[self.i],
                        b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                    )
                {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii number");
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }

    fn word(&mut self, w: &str, v: Json) -> Json {
        assert!(self.s[self.i..].starts_with(w.as_bytes()), "expected {w}");
        self.i += w.len();
        v
    }
}

/// The declared metrics of one list of BENCHMARK.json: name → unit.
fn declared(list: &str) -> BTreeMap<String, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    parse(&text)
        .get(list)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

/// Runs the benchmark, which must succeed, and returns its stdout
/// lines.
fn run(args: &[&str]) -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_noc-benchmark"))
        .args(args)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "benchmark {args:?} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().map(str::to_string).collect()
}

fn tiny(workload: &str, trace: &str, seed: &str) -> Vec<String> {
    run(&[
        "--workload",
        workload,
        "--seed",
        seed,
        "--seconds",
        "0",
        "--trace",
        trace,
        "--tiny",
    ])
}

/// Checks the last line against the declared metric list.
fn check_result(lines: &[String], list: &str) {
    let result = parse(lines.last().expect("some output"));
    assert_eq!(
        result.keys(),
        ["correct", "attempted", "failed", "metrics"],
        "result keys"
    );
    assert_eq!(result.get("correct"), &Json::Bool(true));
    assert_eq!(result.get("failed").num(), 0.0);
    let attempted = result.get("attempted").num();
    assert!(
        attempted >= 1.0 && attempted.fract() == 0.0,
        "attempted {attempted}"
    );

    let metrics = result.get("metrics");
    let printed: BTreeMap<String, String> = metrics
        .keys()
        .into_iter()
        .map(|name| {
            assert!(
                !name.is_empty()
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
                "metric name {name:?} outside [A-Za-z0-9_.-]"
            );
            let m = metrics.get(name);
            assert!(m.get("value").num().is_finite(), "{name} is not finite");
            (name.to_string(), m.get("unit").str().to_string())
        })
        .collect();
    assert_eq!(
        printed,
        declared(list),
        "printed vs declared {list} metrics"
    );
}

fn provenance(lines: &[String]) -> Json {
    let line = lines
        .iter()
        .find(|l| l.starts_with("{\"provenance\""))
        .expect("a provenance line");
    let p = parse(line).get("provenance").clone();
    for key in ["git_rev", "nproc", "profile", "rustc", "timestamp_unix"] {
        p.get(key);
    }
    p
}

fn workload_digest(lines: &[String]) -> String {
    let line = lines
        .iter()
        .find(|l| l.starts_with("{\"workload_digest\""))
        .expect("a workload digest line");
    parse(line).get("workload_digest").str().to_string()
}

#[test]
fn every_workload_passes_untraced_and_prints_the_end_to_end_metrics() {
    for w in WORKLOADS {
        let lines = tiny(w, "0", "0xC0FFEE");
        check_result(&lines, "end_to_end");
        let p = provenance(&lines);
        assert_eq!(p.get("workload").str(), w);
        assert_eq!(p.get("seed").num(), f64::from(0xC0FFEE));
        assert!(lines.iter().any(|l| l.starts_with("{\"digest\"")));
    }
}

#[test]
fn every_workload_passes_traced_and_prints_the_per_layer_metrics() {
    for w in WORKLOADS {
        check_result(&tiny(w, "1", "0xC0FFEE"), "per_layer");
    }
}

#[test]
fn results_repeat_per_seed_and_change_with_it() {
    let a = tiny("bursty-idle", "0", "7");
    let b = tiny("bursty-idle", "0", "7");
    let c = tiny("bursty-idle", "0", "8");
    check_result(&c, "end_to_end");
    assert_eq!(workload_digest(&a), workload_digest(&b));
    assert_ne!(workload_digest(&a), workload_digest(&c));
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "no-such-workload"][..],
        &["--seed", "1"][..],
        &["--workload", "uniform-sat", "--trace", "2"][..],
        &["--workload", "uniform-sat", "--bogus", "1"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_noc-benchmark"))
            .args(args)
            .output()
            .expect("benchmark binary runs");
        assert!(!out.status.success(), "{args:?} should fail");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
