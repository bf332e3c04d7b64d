//! End-to-end checks of the `mnp-run` binary: protocol names come from the
//! registry, every subcommand shares the one error epilogue (message on
//! stderr, exit status 1), and hostile artifact files are rejected with a
//! typed error instead of a crash.

use std::path::PathBuf;
use std::process::{Command, Output};

use mnp_experiments::registry::{FAULT_TESTED, NAMES};
use mnp_experiments::report::Json;

fn mnp_run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mnp-run"))
        .args(args)
        .output()
        .expect("spawn mnp-run")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A file of `depth` unclosed arrays — the input that overflowed the
/// recursive-descent readers' stack before they bounded their depth.
fn deep_json(name: &str, depth: usize) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, "[".repeat(depth)).expect("write temp file");
    path
}

#[test]
fn every_registered_protocol_runs_by_name() {
    for name in NAMES {
        let out = mnp_run(&[
            "--rows",
            "3",
            "--cols",
            "3",
            "--segments",
            "1",
            "--protocol",
            name,
        ]);
        let text = stdout(&out);
        assert!(text.contains(&format!("| {name} |")), "{name}: {text}");
        // The exit status reports completion (the flood never completes).
        assert_eq!(
            out.status.success(),
            text.contains("completed=true"),
            "{name}: {text}"
        );
    }
}

#[test]
fn unknown_protocol_error_and_usage_list_the_registry_names() {
    let all = NAMES.join("|");
    let out = mnp_run(&["--protocol", "fountain"]);
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(
        stderr(&out).trim(),
        format!("unknown protocol \"fountain\" ({all})")
    );
    let usage = stderr(&mnp_run(&["--help"]));
    assert!(usage.contains(&format!("[--protocol {all}]")), "{usage}");
    assert!(
        usage.contains(&format!("[--protocol {}]", FAULT_TESTED.join("|"))),
        "{usage}"
    );
}

#[test]
fn chaos_accepts_only_the_fault_tested_subset() {
    let out = mnp_run(&["chaos", "--protocol", "deluge"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr(&out).contains("unknown protocol \"deluge\" (mnp|rlnc|xor)"),
        "{}",
        stderr(&out)
    );
    let out = mnp_run(&[
        "chaos",
        "--grid",
        "3",
        "--protocol",
        "xor",
        "--crashes",
        "1",
        "--flaps",
        "",
        "--storage",
        "1",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("protocol xor"), "{}", stdout(&out));
}

#[test]
fn seeds_mode_runs_any_protocol_and_rejects_an_empty_list() {
    let base = [
        "--rows",
        "3",
        "--cols",
        "3",
        "--segments",
        "1",
        "--protocol",
        "rlnc",
    ];
    let out = mnp_run(&[&base[..], &["--seeds", "1,2"]].concat());
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("over 2 seeds"), "{}", stdout(&out));
    // Misuse is rejected while the flags are parsed: before the header
    // line is printed and before any seed's topology is sampled.
    for (flags, needle) in [
        (&["--seeds", ""][..], "at least one seed"),
        (&["--seeds", "1,2", "--heatmap"][..], "cannot be combined"),
        (
            &["--check-invariants", "--seeds", "1"][..],
            "cannot be combined",
        ),
    ] {
        let out = mnp_run(&[&base[..], flags].concat());
        assert_eq!(out.status.code(), Some(1), "{flags:?}");
        assert!(stderr(&out).contains(needle), "{flags:?}: {}", stderr(&out));
        assert_eq!(stdout(&out), "", "{flags:?}");
    }
}

#[test]
fn subcommand_failures_share_one_epilogue() {
    for (args, needle) in [
        (&["report"][..], "report needs OLD NEW"),
        (
            &["report", "a.json", "b.json", "c.json"][..],
            "report needs OLD NEW",
        ),
        (&["repro", "a.json", "b.json"][..], "repro needs a PATH"),
        (&["repro", "/nonexistent/repro.json"][..], "cannot read"),
        (&["coded", "--losses", "150"][..], "percentages in [0, 100]"),
        (&["fuzz", "--policy", "lifo"][..], "unknown policy"),
        (&["mobility", "--bogus"][..], "unknown flag --bogus"),
        // Empty images, grids and spacings are typed errors from the
        // argument layer, not panics from the scenario builders.
        (&["--segments", "0"][..], "--segments must be positive"),
        (&["--rows", "0"][..], "--rows must be positive"),
        (&["--cols", "0"][..], "--cols must be positive"),
        (&["--spacing", "0"][..], "--spacing must be positive"),
        (&["--spacing", "-5"][..], "--spacing must be positive"),
        (&["--spacing", "nan"][..], "--spacing must be positive"),
        (
            &["coded", "--segments", "0"][..],
            "--segments must be positive",
        ),
        (&["coded", "--rows", "0"][..], "--rows must be positive"),
        (
            &["mobility", "--segments", "0"][..],
            "--segments must be positive",
        ),
        (
            &["mobility", "--nodes", "0"][..],
            "--nodes must be positive",
        ),
        (
            &["profile", "--segments", "0"][..],
            "--segments must be positive",
        ),
        (
            &["profile", "--sample-ms", "0"][..],
            "--sample-ms must be positive",
        ),
        (
            &["profile", "--sample-ms", "18446744073709552"][..],
            "--sample-ms must be at most 86400000",
        ),
        (&["profile", "--stride", "1"][..], "unknown flag --stride"),
        (&["--spacing", "inf"][..], "--spacing must be finite"),
        (&["--power", "0"][..], "--power must be positive"),
        // A disconnected topology is a typed error naming the seed, not
        // the runner's assert.
        (
            &["--rows", "3", "--cols", "3", "--spacing", "100"][..],
            "seed 42: some node has no usable path to the base station",
        ),
        (
            &["--rows", "3", "--cols", "3", "--power", "1"][..],
            "seed 42: some node has no usable path",
        ),
        (
            &[
                "--rows",
                "3",
                "--cols",
                "3",
                "--spacing",
                "100",
                "--seeds",
                "7,8",
            ][..],
            "seed 7: some node has no usable path",
        ),
        (&["chaos", "--grid", "0"][..], "--grid must be positive"),
        // A node count no `NodeId` can name is a typed error, not an
        // allocation abort.
        (
            &["--rows", "70000", "--cols", "70000"][..],
            "--rows × --cols must be at most 2147483647 nodes",
        ),
        (
            &["--rows", "18446744073709551615", "--cols", "2"][..],
            "--rows × --cols must be at most 2147483647 nodes",
        ),
        (
            &["profile", "--rows", "70000", "--cols", "70000"][..],
            "--rows × --cols must be at most 2147483647 nodes",
        ),
        (
            &["coded", "--rows", "70000", "--cols", "70000"][..],
            "--rows × --cols must be at most 2147483647 nodes",
        ),
        (
            &["chaos", "--grid", "70000"][..],
            "--grid × --grid must be at most 2147483647 nodes",
        ),
        (
            &["mobility", "--nodes", "2147483648"][..],
            "--nodes must be at most 2147483647 nodes",
        ),
        // A 1×1 grid has nothing to fault: a typed error, not a panic.
        (
            &["chaos", "--grid", "1", "--crashes", "2", "--flaps", ""][..],
            "--crashes: --grid 1 is the base station alone",
        ),
        (
            &["chaos", "--grid", "1", "--crashes", "", "--flaps", "3"][..],
            "--flaps: --grid 1 is the base station alone",
        ),
        (
            &[
                "chaos",
                "--grid",
                "1",
                "--crashes",
                "",
                "--flaps",
                "",
                "--storage",
                "2",
            ][..],
            "--storage: --grid 1 is the base station alone",
        ),
    ] {
        let out = mnp_run(args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(err.contains(needle), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
}

#[test]
fn exploration_subcommands_write_no_file() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("exploration");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    for args in [
        &["coded", "--rows", "2", "--cols", "2", "--losses", "0"][..],
        &["mobility", "--nodes", "4", "--speeds", "0"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_mnp-run"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("spawn mnp-run");
        assert!(out.status.success(), "{args:?}: {}", stderr(&out));
        let written: Vec<_> = std::fs::read_dir(&dir).expect("list temp dir").collect();
        assert!(written.is_empty(), "{args:?} wrote {written:?}");
    }
}

#[test]
fn profile_writes_its_three_artifacts() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("profile");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let (p, s, t) = (
        dir.join("profile.json"),
        dir.join("series.jsonl"),
        dir.join("trace.json"),
    );
    let out = mnp_run(&[
        "profile",
        "--rows",
        "4",
        "--cols",
        "4",
        "--segments",
        "1",
        "--out",
        p.to_str().unwrap(),
        "--series",
        s.to_str().unwrap(),
        "--timeline",
        t.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("\ncoverage "), "{}", stdout(&out));
    let read = |path: &PathBuf| std::fs::read_to_string(path).expect("artifact written");
    let profile = Json::parse(&read(&p)).expect("profile is JSON");
    assert!(
        matches!(profile.get("phases"), Some(Json::Arr(_))),
        "no phases array: {profile:?}"
    );
    assert_eq!(
        profile.get("schema_version").and_then(Json::as_u64),
        Some(2)
    );
    assert!(
        profile.get("coverage").and_then(Json::as_f64).is_some(),
        "no numeric coverage: {profile:?}"
    );
    let series = read(&s);
    assert!(series.lines().count() > 1, "{series}");
    // The heap probe feeds the allocation gauges: cumulative, so never
    // falling, and not all zero.
    let mut last = (0, 0);
    for line in series.lines() {
        let row = Json::parse(line).expect("series is JSONL");
        let gauge = |key| row.get(key).and_then(Json::as_u64).expect("a u64 gauge");
        let now = (gauge("allocs"), gauge("alloc_bytes"));
        assert!(now.0 >= last.0 && now.1 >= last.1, "{last:?} -> {now:?}");
        last = now;
    }
    assert!(last.0 > 0 && last.1 > 0, "no allocation counted: {last:?}");
    let timeline = Json::parse(&read(&t)).expect("timeline is JSON");
    assert!(timeline.get("traceEvents").is_some(), "no traceEvents");
}

#[test]
fn report_rejects_runaway_nesting_without_overflowing_the_stack() {
    let deep = deep_json("report.json", 200_000);
    let path = deep.to_str().unwrap();
    let out = mnp_run(&["report", path, path]);
    let _ = std::fs::remove_file(&deep);
    // A stack overflow would be a signal (no exit code), not status 1.
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr(&out).contains("nesting deeper than 64 at byte 64"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn repro_rejects_runaway_nesting_without_overflowing_the_stack() {
    let deep = deep_json("repro.json", 200_000);
    let out = mnp_run(&["repro", deep.to_str().unwrap()]);
    let _ = std::fs::remove_file(&deep);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr(&out).contains("nesting deeper than 64"),
        "{}",
        stderr(&out)
    );
}

/// `mnp-run fuzz --seed 7 --runs 8` on stdout, FIFO: the scenario line
/// of every draw and its verdict.
const FUZZ_SEED7_FIFO: &str = "\
fuzz: 8 runs, stream seed 7, policy fifo
  [  0] pass    rlnc: 3x4 grid, 2 seg, seed 14413872641362033105, fifo, 0 fault(s), deadline 14400s
  [  1] pass    mnp: 3x5 grid, 1 seg, seed 10797742265725724925, fifo, 2 fault(s), deadline 14400s
  [  2] pass    xor: 3x5 grid, 1 seg, seed 13591443812924477161, fifo, 0 fault(s), deadline 14400s
  [  3] pass    mnp: 3x5 grid, 1 seg, seed 3455643455021720706, fifo, 0 fault(s), deadline 14400s, mobile(poisson, 0.7 ft/s)
  [  4] pass    mnp: 5x5 grid, 2 seg, seed 2477356012972119351, fifo, 2 fault(s), deadline 14400s
  [  5] pass    rlnc: 4x5 grid, 2 seg, seed 8122886937898740188, fifo, 1 fault(s), deadline 14400s
  [  6] pass    mnp: 3x3 grid, 1 seg, seed 8322589446168463605, fifo, 0 fault(s), deadline 14400s, mobile(poisson, 2.0 ft/s)
  [  7] pass    mnp: 5x4 grid, 2 seg, seed 10993547113367705310, fifo, 0 fault(s), deadline 14400s, mobile(poisson, 1.9 ft/s)
fuzz: 8 scenarios, zero failures
";

/// The same draws under `--policy permute`.
const FUZZ_SEED7_PERMUTE: &str = "\
fuzz: 8 runs, stream seed 7, policy permute
  [  0] pass    rlnc: 3x4 grid, 2 seg, seed 14413872641362033105, permute(5298033894998720273), 0 fault(s), deadline 14400s
  [  1] pass    mnp: 3x5 grid, 1 seg, seed 10797742265725724925, permute(14274757091774579021), 2 fault(s), deadline 14400s
  [  2] pass    xor: 3x5 grid, 1 seg, seed 13591443812924477161, permute(11326194280469077566), 0 fault(s), deadline 14400s
  [  3] pass    mnp: 3x5 grid, 1 seg, seed 3455643455021720706, permute(11370833920017247047), 0 fault(s), deadline 14400s, mobile(poisson, 0.7 ft/s)
  [  4] pass    mnp: 5x5 grid, 2 seg, seed 2477356012972119351, permute(565015682234495268), 2 fault(s), deadline 14400s
  [  5] pass    rlnc: 4x5 grid, 2 seg, seed 8122886937898740188, permute(6118749662785589467), 1 fault(s), deadline 14400s
  [  6] pass    mnp: 3x3 grid, 1 seg, seed 8322589446168463605, permute(3668031057566664908), 0 fault(s), deadline 14400s, mobile(poisson, 2.0 ft/s)
  [  7] pass    mnp: 5x4 grid, 2 seg, seed 10993547113367705310, permute(11187782770336184592), 0 fault(s), deadline 14400s, mobile(poisson, 1.9 ft/s)
fuzz: 8 scenarios, zero failures
";

#[test]
fn fuzz_stdout_is_frozen_under_both_policies() {
    // The fuzz stream is a pure function of its seed: a change to
    // generation, to the scenario line or to any verdict shows here.
    for (policy, expected) in [("fifo", FUZZ_SEED7_FIFO), ("permute", FUZZ_SEED7_PERMUTE)] {
        let out = mnp_run(&["fuzz", "--seed", "7", "--runs", "8", "--policy", policy]);
        assert_eq!(out.status.code(), Some(0), "{policy}: {}", stderr(&out));
        assert_eq!(stdout(&out), expected, "{policy}");
    }
}
