//! Holds the benchmark binary to `BENCHMARK.json`: at toy size (`--quick`)
//! every workload must print exactly the declared metric names, once each,
//! with the declared units and no NaN or negative value.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::process::{Command, Output};

/// Just enough JSON for `BENCHMARK.json` and the benchmark's own output.
#[derive(Clone, Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Pairs in document order; duplicates kept, so they can be detected.
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos);
        skip_ws(bytes, &mut pos);
        assert_eq!(pos, bytes.len(), "trailing bytes after JSON value");
        value
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(pairs) => pairs
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("no key {key}")),
            other => panic!("{other:?} is not an object"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            other => panic!("{other:?} is not an array"),
        }
    }

    fn pairs(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(pairs) => pairs,
            other => panic!("{other:?} is not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("{other:?} is not a number"),
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && b[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Json {
    skip_ws(b, pos);
    match b[*pos] {
        b'{' => {
            *pos += 1;
            let mut pairs = Vec::new();
            loop {
                skip_ws(b, pos);
                if b[*pos] == b'}' {
                    *pos += 1;
                    return Json::Obj(pairs);
                }
                if !pairs.is_empty() {
                    assert_eq!(b[*pos], b',', "expected , in object");
                    *pos += 1;
                }
                let Json::Str(key) = parse_value(b, pos) else {
                    panic!("object key is not a string");
                };
                skip_ws(b, pos);
                assert_eq!(b[*pos], b':', "expected : after key");
                *pos += 1;
                pairs.push((key, parse_value(b, pos)));
            }
        }
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            loop {
                skip_ws(b, pos);
                if b[*pos] == b']' {
                    *pos += 1;
                    return Json::Arr(items);
                }
                if !items.is_empty() {
                    assert_eq!(b[*pos], b',', "expected , in array");
                    *pos += 1;
                }
                items.push(parse_value(b, pos));
            }
        }
        b'"' => {
            *pos += 1;
            let mut out = Vec::new();
            while b[*pos] != b'"' {
                if b[*pos] == b'\\' {
                    *pos += 1;
                    out.push(match b[*pos] {
                        b'n' => b'\n',
                        b't' => b'\t',
                        other => other,
                    });
                } else {
                    out.push(b[*pos]);
                }
                *pos += 1;
            }
            *pos += 1;
            Json::Str(String::from_utf8(out).expect("utf-8 string"))
        }
        b't' => {
            *pos += 4;
            Json::Bool(true)
        }
        b'f' => {
            *pos += 5;
            Json::Bool(false)
        }
        b'n' => {
            *pos += 4;
            Json::Null
        }
        _ => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&b[start..*pos]).expect("ascii number");
            Json::Num(
                text.parse()
                    .unwrap_or_else(|_| panic!("bad number {text:?}")),
            )
        }
    }
}

/// Declared `name -> unit` of one metric list of `BENCHMARK.json`.
fn declared(spec: &Json, list: &str) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for m in spec.get(list).arr() {
        let name = m.get("name").str().to_string();
        assert!(valid_name(&name), "{name:?} is not a valid metric name");
        assert!(
            out.insert(name.clone(), m.get("unit").str().to_string())
                .is_none(),
            "{name} declared twice"
        );
    }
    out
}

/// `[A-Za-z0-9_.-]+`, at most 64 long, starting with a letter or digit.
fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

fn spec() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

fn out_dir(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag)
}

fn bench(args: &[&str], tag: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mnp-benchmark"))
        .args(args)
        .arg("--out")
        .arg(out_dir(tag))
        .output()
        .expect("benchmark binary runs")
}

#[test]
fn every_workload_prints_exactly_the_declared_metrics() {
    let spec = spec();
    let lists = [declared(&spec, "end_to_end"), declared(&spec, "per_layer")];
    assert_eq!(lists[0].get("setup_s").map(String::as_str), Some("s"));
    for w in spec.get("workloads").arr() {
        let workload = w.get("name").str();
        assert!(valid_name(workload));
        for (trace, declared) in lists.iter().enumerate() {
            let tag = format!("{workload}-{trace}");
            let trace = trace.to_string();
            let out = bench(
                &[
                    "--quick",
                    "--workload",
                    workload,
                    "--seed",
                    "42",
                    "--trace",
                    &trace,
                ],
                &tag,
            );
            let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
            assert!(
                out.status.success(),
                "{tag}: exit {:?}\n{stdout}\n{}",
                out.status,
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            let result = Json::parse(last);
            let keys: Vec<&str> = result.pairs().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"], "{tag}");
            assert_eq!(*result.get("correct"), Json::Bool(true), "{tag}");
            assert!(result.get("attempted").num() >= 1.0, "{tag}");
            assert_eq!(result.get("failed").num(), 0.0, "{tag}");
            let mut seen = BTreeSet::new();
            for (name, metric) in result.get("metrics").pairs() {
                assert!(seen.insert(name.as_str()), "{tag}: {name} printed twice");
                let unit = declared
                    .get(name)
                    .unwrap_or_else(|| panic!("{tag}: {name} is not declared"));
                assert_eq!(metric.get("unit").str(), unit, "{tag}: unit of {name}");
                let value = metric.get("value").num();
                assert!(value.is_finite() && value >= 0.0, "{tag}: {name} = {value}");
            }
            let missing: Vec<_> = declared
                .keys()
                .filter(|k| !seen.contains(k.as_str()))
                .collect();
            assert!(
                missing.is_empty(),
                "{tag}: declared but not printed: {missing:?}"
            );
        }
    }
}

#[test]
fn the_whole_benchmark_runs_and_writes_its_trace() {
    let out = bench(&["--quick", "--seed", "7"], "all");
    assert!(
        out.status.success(),
        "exit {:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let dir = out_dir("all");
    let trace = Json::parse(&std::fs::read_to_string(dir.join("trace.json")).expect("trace.json"));
    assert_eq!(trace.get("provenance").get("seed").num(), 7.0);
    let spans = trace.get("spans").arr();
    // Every rep span encloses the six layer-boundary spans, by parent id.
    let rep = spans
        .iter()
        .position(|s| s.get("name").str() == "rep")
        .expect("a rep span");
    let children: BTreeSet<&str> = spans
        .iter()
        .filter(|s| *s.get("parent") == Json::Num(rep as f64))
        .map(|s| s.get("name").str())
        .collect();
    let expected = [
        "net.build",
        "net.drop",
        "net.finalize",
        "net.run",
        "obs.dump",
        "topology.build",
    ];
    assert_eq!(children.into_iter().collect::<Vec<_>>(), expected);
    assert!(
        spans
            .iter()
            .any(|s| s.pairs().iter().any(|(k, _)| k == "phases")),
        "a traced rep attaches the phase table"
    );
    let results =
        Json::parse(&std::fs::read_to_string(dir.join("results.json")).expect("results.json"));
    let workloads = spec().get("workloads").arr().len();
    assert_eq!(results.get("results").arr().len(), 2 * workloads);
}

#[test]
fn bad_arguments_exit_with_a_usage_error() {
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "2"],
        &["--seed"],
        &["--frobnicate"],
    ] {
        let out = bench(args, "bad");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
