//! Checked-in artifacts and the documents that cite them stay in step:
//! every root-level JSON artifact parses with the workspace's one JSON
//! reader, the benchmark baselines go through `mnp-run report`'s diff, and
//! no document names a repository path that does not exist. Read-only:
//! `BENCHMARK.json` and `benchmark/` belong to the benchmark.

use std::fs;
use std::path::{Path, PathBuf};

use mnp_experiments::report::{self, Json};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn root_json_artifacts_parse_and_comparisons_carry_a_schema_version() {
    let mut seen = 0;
    for entry in fs::read_dir(root()).expect("read repo root") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if !name.ends_with(".json") {
            continue;
        }
        seen += 1;
        let doc = Json::parse(&read(&path)).unwrap_or_else(|e| panic!("{name}: {e}"));
        let versioned = doc.get("schema_version").and_then(Json::as_u64).is_some();
        assert!(
            versioned || !name.ends_with("_cmp.json"),
            "{name}: no schema_version"
        );
    }
    // BENCHMARK.json, CODED_cmp.json, MOBILITY_cmp.json at the least.
    assert!(seen >= 3, "only {seen} root-level *.json files");
}

#[test]
fn benchmark_baselines_go_through_the_report_diff() {
    let baseline = root().join("benchmark/baseline");
    let a = read(&baseline.join("results-seed42-a.json"));
    let b = read(&baseline.join("results-seed42-b.json"));
    let table = report::diff(&a, &b).expect("two results.json documents diff");
    // Six workloads in two modes, all paired: one row a metric.
    assert!(!table.contains("(no old row)"), "{table}");
    for workload in "grid20 grid80 grid40-s2 rlnc24 observed20 mobile36".split(' ') {
        for mode in ["end_to_end", "per_layer"] {
            let prefix = format!("{workload:<10} {mode:<10} ");
            let rows = table.lines().filter(|l| l.starts_with(&prefix)).count();
            assert!(rows >= 6, "{workload}/{mode}: {rows} rows");
        }
    }
}

/// Whether `token` is an upper-case root artifact name:
/// `[A-Z][A-Z0-9_]*(_[a-z]+)?\.(json|jsonl|md)`.
fn is_root_artifact_name(token: &str) -> bool {
    let Some((stem, ext)) = token.rsplit_once('.') else {
        return false;
    };
    let head = stem.trim_end_matches(|c: char| c.is_ascii_lowercase());
    matches!(ext, "json" | "jsonl" | "md")
        && (head.len() == stem.len() || head.ends_with('_'))
        && head.starts_with(|c: char| c.is_ascii_uppercase())
        && head
            .chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
}

/// The repository path a back-ticked `token` names, if it names one: the
/// token up to a `:line` / `::item` suffix, or — for a glob or brace
/// pattern — the directory in front of the pattern.
fn cited_path(token: &str) -> Option<&str> {
    const DIRS: [&str; 5] = ["crates/", "examples/", "tests/", "benchmark/", ".github/"];
    if is_root_artifact_name(token) {
        return Some(token);
    }
    if !DIRS.iter().any(|dir| token.starts_with(dir)) {
        return None;
    }
    let plain = |c: char| c.is_ascii_alphanumeric() || "_./-".contains(c);
    let end = token.find(|c| !plain(c)).unwrap_or(token.len());
    match token[end..].chars().next() {
        None | Some(':' | ' ' | '\n') => Some(&token[..end]),
        Some(_) => Some(&token[..=token[..end].rfind('/').expect("starts with a directory")]),
    }
}

#[test]
fn documents_cite_only_paths_that_exist() {
    let mut missing = Vec::new();
    for doc in [
        "README.md",
        "DESIGN.md",
        "EXPERIMENTS.md",
        ".claude/skills/verify/SKILL.md",
    ] {
        let text = read(&root().join(doc));
        // Inline code is every second piece between back-ticks; a fenced
        // block opens and closes with three, which keeps the parity.
        for token in text.split('`').skip(1).step_by(2) {
            match cited_path(token) {
                Some(path) if !root().join(path).exists() => {
                    missing.push(format!("{doc}: `{token}` ({path})"));
                }
                _ => {}
            }
        }
    }
    assert!(
        missing.is_empty(),
        "documents name paths the tree does not contain:\n{}",
        missing.join("\n")
    );
}
