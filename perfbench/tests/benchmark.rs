//! Tests of the benchmark itself: its declarations agree with
//! `BENCHMARK.json`, its inputs depend on the seed and nothing else, its
//! sweep is the load-test stream's shape, and a tiny-size run of every
//! workload prints every declared metric.

use perfbench::metrics::{Decl, END_TO_END, PER_LAYER};
use perfbench::workload::{self, Size, Submission, Workload};
use perfbench::Args;
use std::collections::BTreeMap;
use std::process::Command;

/// A parsed JSON value (enough of JSON for `BENCHMARK.json` and the result
/// line).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing characters after JSON value");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key `{key}`")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(m) => m.keys().map(String::as_str).collect(),
            other => panic!("not an object: {other:?}"),
        }
    }
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
        assert_eq!(self.s[self.i] as char, c as char, "at byte {}", self.i);
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key is not a string")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key `{k}`");
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut a = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(a);
                }
                loop {
                    a.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(a);
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
                            out.push(match e {
                                b'n' => '\n',
                                b't' => '\t',
                                other => other as char,
                            });
                        }
                        _ => out.push(c as char),
                    }
                }
            }
            b't' => {
                self.i += 4;
                Json::Bool(true)
            }
            b'f' => {
                self.i += 5;
                Json::Bool(false)
            }
            b'n' => {
                self.i += 4;
                Json::Null
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-0123456789.eE".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii number");
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number `{text}`")),
                )
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

fn assert_declared(section: &Json, decls: &[Decl]) {
    let listed: Vec<(&str, &str, &str)> = section
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str(),
                m.get("unit").str(),
                m.get("better").str(),
            )
        })
        .collect();
    let expected: Vec<(&str, &str, &str)> = decls
        .iter()
        .map(|d| (d.name, d.unit, d.better.as_str()))
        .collect();
    assert_eq!(listed, expected);
    for d in decls {
        assert!(valid_name(d.name), "bad metric name `{}`", d.name);
    }
}

#[test]
fn metrics_are_declared_in_benchmark_json_with_their_units() {
    let json = benchmark_json();
    assert_declared(json.get("end_to_end"), END_TO_END);
    assert_declared(json.get("per_layer"), PER_LAYER);
    let names: Vec<&str> = json
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    let expected: Vec<&str> = workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, expected);
    for bounded in json.get("end_to_end").arr() {
        let bound = bounded.get("bound").num();
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound} out of range");
    }
    let setup = &json.get("end_to_end").arr()[0];
    assert_eq!(setup.get("name").str(), "setup_s");
}

#[test]
fn the_same_seed_gives_the_same_jobs_and_digest_and_another_seed_does_not() {
    let jobs = |seed| {
        format!(
            "{:?}",
            Workload::SweepBatched.jobs(seed, Size::SMOKE).unwrap()
        )
    };
    assert_eq!(jobs(7), jobs(7));
    assert_ne!(jobs(7), jobs(8));
    assert_eq!(
        format!("{:?}", Workload::FigCold.jobs(0, Size::FULL).unwrap()),
        format!(
            "{:?}",
            mcd_bench::selected_suite(true)
                .into_iter()
                .map(mcd_dvfs::service::EvalJob::new)
                .collect::<Vec<_>>()
        ),
        "the default seed leaves the inputs unmodified"
    );

    let digest = |seed: u64| {
        let args = Args::parse(
            [
                "--workload",
                "sweep_batched",
                "--seed",
                &seed.to_string(),
                "--smoke",
                "--digest-only",
            ]
            .map(String::from),
        )
        .unwrap();
        let outcome = perfbench::run(&args).unwrap();
        assert!(outcome.correct);
        outcome.result
    };
    let first = digest(7);
    assert_eq!(first, digest(7));
    let other = digest(8);
    assert_ne!(
        first.split_whitespace().last(),
        other.split_whitespace().last()
    );
}

#[test]
fn the_sweep_is_the_load_test_stream() {
    let benches = Workload::SweepBatched.benchmarks(0, Size::FULL).unwrap();
    assert_eq!(
        format!(
            "{:?}",
            workload::sweep_jobs(&benches, workload::LOADTEST_POINTS)
        ),
        format!(
            "{:?}",
            mcd_bench::loadtest::stream_jobs(workload::LOADTEST_POINTS).unwrap()
        )
    );
}

/// The batched sweep over the load-test stream reproduces the digest the
/// repository's committed performance report records for it. Takes minutes
/// in a debug build, so it runs under `cargo test --release`.
#[test]
#[cfg_attr(debug_assertions, ignore = "slow unoptimised; run with --release")]
fn the_sweep_reproduces_the_committed_load_test_digest() {
    let jobs = mcd_bench::loadtest::stream_jobs(workload::LOADTEST_POINTS).unwrap();
    let rep = perfbench::drive::run(
        jobs,
        Submission::BatchPerBenchmark,
        Workload::SweepBatched.config(),
        false,
    )
    .unwrap();
    assert_eq!(rep.failed(), 0);
    let digest = mcd_bench::loadtest::metrics_digest(&rep.evaluations());
    assert_eq!(format!("{digest:016x}"), "ef0e584a48c1d169");
}

#[test]
fn a_tiny_run_of_every_workload_prints_every_declared_metric() {
    for workload in workload::ALL {
        for (trace, decls) in [("0", END_TO_END), ("1", PER_LAYER)] {
            let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args([
                    "--workload",
                    workload.name(),
                    "--seed",
                    "3",
                    "--seconds",
                    "0",
                ])
                .args(["--trace", trace, "--smoke"])
                .output()
                .expect("the benchmark runs");
            let stdout = String::from_utf8_lossy(&output.stdout);
            assert!(
                output.status.success(),
                "{workload} --trace {trace} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&output.stderr)
            );
            let result = Json::parse(stdout.lines().last().expect("a result line"));
            assert_eq!(
                result.keys(),
                ["attempted", "correct", "failed", "metrics"],
                "{workload}"
            );
            assert_eq!(result.get("correct"), &Json::Bool(true));
            assert!(result.get("attempted").num() >= 1.0);
            assert_eq!(result.get("failed").num(), 0.0);
            let metrics = result.get("metrics");
            let expected: Vec<&str> = {
                let mut names: Vec<&str> = decls.iter().map(|d| d.name).collect();
                names.sort_unstable();
                names
            };
            assert_eq!(metrics.keys(), expected, "{workload} --trace {trace}");
            for decl in decls {
                let m = metrics.get(decl.name);
                assert_eq!(m.get("unit").str(), decl.unit);
                assert!(m.get("value").num().is_finite());
            }
        }
    }
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        vec!["--workload", "nope"],
        vec!["--seed", "1"],
        vec!["--workload", "fig_cold", "--trace", "2"],
    ] {
        assert!(Args::parse(args.into_iter().map(String::from)).is_err());
    }
}
