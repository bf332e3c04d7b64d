//! Checked-in artifacts and the documents that cite them stay in step:
//! every root-level JSON artifact parses with the workspace's one JSON
//! reader, the benchmark baselines go through `mnp-run report`'s diff,
//! EXPERIMENTS.md quotes the golden `EXPERIMENTS.txt` and cites exactly
//! the claims table, and no document names a repository path that does
//! not exist. Read-only: `BENCHMARK.json` and `benchmark/` belong to the
//! benchmark.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use mnp_experiments::claims::CLAIMS;
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

#[test]
fn experiments_md_quotes_the_golden_and_cites_every_claim() {
    let md = read(&root().join("EXPERIMENTS.md"));
    let golden = read(&root().join("EXPERIMENTS.txt"));
    let mut excerpts = 0;
    for block in md.split("```text\n").skip(1) {
        let excerpt = &block[..block.find("```").expect("an unclosed ```text block")];
        assert!(
            golden.contains(excerpt),
            "not a contiguous excerpt of EXPERIMENTS.txt:\n{excerpt}"
        );
        excerpts += 1;
    }
    assert!(excerpts >= 17, "only {excerpts} excerpts of the golden");
    let cited: BTreeSet<&str> = md
        .lines()
        .filter_map(|line| line.strip_prefix("Claims: "))
        .flat_map(|ids| ids.split('`').skip(1).step_by(2))
        .collect();
    let table: BTreeSet<&str> = CLAIMS.iter().map(|c| c.id).collect();
    assert_eq!(cited, table, "claim ids cited in EXPERIMENTS.md vs CLAIMS");
}

/// Whether `token` is an upper-case root artifact name:
/// `[A-Z][A-Z0-9_]*(_[a-z]+)?\.(json|jsonl|md|txt)`.
fn is_root_artifact_name(token: &str) -> bool {
    let Some((stem, ext)) = token.rsplit_once('.') else {
        return false;
    };
    let head = stem.trim_end_matches(|c: char| c.is_ascii_lowercase());
    matches!(ext, "json" | "jsonl" | "md" | "txt")
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

/// Every `*.rs` file under `dir`, recursively.
fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn the_simulation_path_names_no_hash_container_and_no_wall_clock() {
    // A seeded run must replay byte for byte in any process: `std`'s hash
    // containers iterate in a per-process random order and the wall clock
    // differs per run, so neither may be named where simulation state
    // lives or where the observers render its logs. The self-profiler is the one module that reads the clock, and
    // nothing it measures feeds back into a run.
    const FORBIDDEN: [&str; 4] = ["HashMap", "HashSet", "Instant", "SystemTime"];
    let mut sources = Vec::new();
    for krate in "sim radio net core baselines storage topology obs".split(' ') {
        rust_sources(&root().join("crates").join(krate).join("src"), &mut sources);
    }
    assert!(sources.len() > 30, "only {} sources scanned", sources.len());
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut hits = Vec::new();
    for path in sources {
        if path.ends_with("sim/src/profile.rs") {
            continue;
        }
        for (n, line) in read(&path).lines().enumerate() {
            for word in line.split(|c| !ident(c)) {
                if FORBIDDEN.contains(&word) {
                    hits.push(format!("{}:{}: {word}", path.display(), n + 1));
                }
            }
        }
    }
    assert!(hits.is_empty(), "{}", hits.join("\n"));
}
