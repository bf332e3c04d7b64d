//! End-to-end checks of the `mnp-run` binary: protocol names come from the
//! registry, every subcommand shares the one error epilogue (message on
//! stderr, exit status 1), and hostile artifact files are rejected with a
//! typed error instead of a crash.

use std::path::PathBuf;
use std::process::{Command, Output};

use mnp_experiments::registry::{FAULT_TESTED, NAMES};

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
    let out = mnp_run(&[&base[..], &["--seeds", ""]].concat());
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr(&out).contains("at least one seed"),
        "{}",
        stderr(&out)
    );
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
        (&["chaos", "--grid", "0"][..], "--grid must be positive"),
    ] {
        let out = mnp_run(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(stderr(&out).contains(needle), "{args:?}: {}", stderr(&out));
    }
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
