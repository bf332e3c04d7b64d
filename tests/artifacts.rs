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
fn root_json_artifacts_parse() {
    let mut seen = 0;
    for entry in fs::read_dir(root()).expect("read repo root") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if name.ends_with(".json") {
            seen += 1;
            Json::parse(&read(&path)).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }
    // BENCHMARK.json at the least.
    assert!(seen >= 1, "no root-level *.json file");
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

/// Every `*.rs` file under `dir`, recursively, outside build output
/// (`target/`) and hidden directories.
fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().unwrap().to_string_lossy();
        if name == "target" || name.starts_with('.') {
            continue;
        }
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

/// The lines of `text` outside `#[cfg(test)]` items, numbered from 1.
fn non_test_lines(text: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let mut lines = text.lines().enumerate();
    while let Some((n, line)) = lines.next() {
        if line.trim() != "#[cfg(test)]" {
            out.push((n + 1, line));
            continue;
        }
        // Skip the item the attribute gates, up to its closing brace.
        let mut depth = 0i32;
        for (_, line) in lines.by_ref() {
            depth += line.matches('{').count() as i32 - line.matches('}').count() as i32;
            if depth <= 0 && (line.contains('}') || line.trim_end().ends_with(';')) {
                break;
            }
        }
    }
    out
}

#[test]
fn the_harness_builds_every_network_in_one_place() {
    // Every harness run is a `Scenario`, and one function turns a scenario
    // into a network: it samples the site, checks reachability at t = 0,
    // and attaches faults, the invariant monitor and the instruments in
    // one order. An experiment that keeps a builder of its own is named
    // here with its reason, as (file, enclosing fn, reason).
    const ALLOWED: [(&str, &str, &str); 3] = [
        ("runner.rs", "network", "the scenario's one function"),
        (
            "resilience.rs",
            "run",
            "kills nodes on the built network and waits for the survivors, \
             over one topology sampled for the whole sweep",
        ),
        (
            "subsets.rs",
            "run",
            "the three-way factory: base, members and `node_uninterested` outsiders",
        ),
    ];
    let needle = "NetworkBuilder::new";
    let mut sources = Vec::new();
    rust_sources(&root().join("crates/experiments/src"), &mut sources);
    assert!(sources.len() > 20, "only {} sources scanned", sources.len());
    let mut hits = Vec::new();
    for path in &sources {
        let file = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = read(path);
        let mut function = String::new();
        for (n, line) in non_test_lines(&text) {
            let code = line.split("//").next().unwrap_or_default();
            if let Some(rest) = code.split("fn ").nth(1) {
                let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
                function = rest.split(|c| !ident(c)).next().unwrap_or_default().into();
            }
            if code.contains(needle) {
                hits.push((file.clone(), function.clone(), n));
            }
        }
    }
    let stray: Vec<String> = hits
        .iter()
        .filter(|(file, function, _)| {
            !ALLOWED
                .iter()
                .any(|(f, func, _)| f == file && func == function)
        })
        .map(|(file, function, n)| format!("{file}:{n} (in fn {function})"))
        .collect();
    assert!(
        stray.is_empty(),
        "`{needle}` outside `Scenario::network` and the allow-list:\n{}",
        stray.join("\n")
    );
    for (file, function, reason) in ALLOWED {
        let count = hits
            .iter()
            .filter(|(f, func, _)| f == file && func == function)
            .count();
        assert_eq!(
            count, 1,
            "{file} fn {function} ({reason}): {count} builders"
        );
    }
}

#[test]
fn one_heap_probe_and_every_library_forbids_unsafe() {
    // Split, so that this file does not hold the needles it looks for.
    let needles = [
        ["unsafe impl ", "GlobalAlloc"].concat(),
        ["#[global_", "allocator]"].concat(),
    ];
    let mut sources = Vec::new();
    rust_sources(&root(), &mut sources);
    sources.retain(|path| !path.starts_with(root().join("benchmark")));
    assert!(
        sources.len() > 100,
        "only {} sources scanned",
        sources.len()
    );
    let mut hits = [Vec::new(), Vec::new()];
    for path in &sources {
        for (n, line) in read(path).lines().enumerate() {
            let code = !line.trim_start().starts_with("//");
            for (needle, hits) in needles.iter().zip(&mut hits) {
                if code && line.contains(needle.as_str()) {
                    hits.push(format!("{}:{}", path.display(), n + 1));
                }
            }
        }
    }
    for (needle, hits) in needles.iter().zip(&hits) {
        assert!(
            hits.len() == 1 && hits[0].contains("tests/support/heap_probe.rs:"),
            "`{needle}` must appear once, in the heap probe: {hits:?}"
        );
    }
    let mut roots = vec![root().join("src/lib.rs")];
    for entry in fs::read_dir(root().join("crates")).expect("read crates/") {
        roots.push(entry.expect("dir entry").path().join("src/lib.rs"));
    }
    for lib in roots {
        assert!(
            read(&lib).contains("#![forbid(unsafe_code)]"),
            "{} must forbid unsafe code",
            lib.display()
        );
    }
}

/// The leading decimal number of `cell` (`"440 B (464 before …)"` → 440).
fn leading_number(cell: &str) -> Option<usize> {
    let digits: String = cell.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

#[test]
fn design_byte_budgets_match_the_compiler_checked_asserts() {
    // Every `const _: () = assert!(size_of::<T>() <= N)` outside test code
    // has a row naming `T` with budget `N` in DESIGN §13's per-node /
    // per-frame table, and every row has such an assert. The one assert
    // over a sum of sizes is named by its row label instead, as
    // (file, row label).
    const SUMS: [(&str, &str); 1] = [("radio/src/csma.rs", "CSMA per-node columns")];
    let mut sources = Vec::new();
    rust_sources(&root().join("src"), &mut sources);
    rust_sources(&root().join("crates"), &mut sources);
    sources.retain(|p| {
        let p = p.to_string_lossy();
        !p.contains("/tests/") && !p.ends_with("tests.rs") && !p.contains("/bin/")
    });
    let mut code: BTreeSet<(String, usize)> = BTreeSet::new();
    for path in &sources {
        let text = read(path);
        let lines = non_test_lines(&text);
        let mut i = 0;
        while i < lines.len() {
            if !lines[i]
                .1
                .trim_start()
                .starts_with("const _: () = assert!(")
            {
                i += 1;
                continue;
            }
            // The statement, joined up to its closing `);`.
            let mut stmt = String::new();
            while i < lines.len() {
                stmt.push_str(lines[i].1.trim());
                i += 1;
                if stmt.ends_with(");") {
                    break;
                }
            }
            if !stmt.contains("size_of::<") {
                continue;
            }
            let budget = stmt
                .rsplit("<= ")
                .next()
                .and_then(leading_number)
                .unwrap_or_else(|| panic!("{}: no `<= N` in {stmt}", path.display()));
            let types: Vec<&str> = stmt
                .split("size_of::<")
                .skip(1)
                .map(|rest| rest.split('>').next().unwrap_or_default())
                .collect();
            let name = match types[..] {
                [ty] => ty.to_string(),
                _ => {
                    let (_, label) = SUMS
                        .iter()
                        .find(|(file, _)| path.ends_with(file))
                        .unwrap_or_else(|| panic!("{}: unnamed sum {stmt}", path.display()));
                    label.to_string()
                }
            };
            assert!(
                code.insert((name.clone(), budget)),
                "{name} <= {budget} is asserted twice"
            );
        }
    }
    assert!(code.len() >= 15, "only {} size budgets found", code.len());

    let design = read(&root().join("DESIGN.md"));
    let section = design
        .split("\n## 13.")
        .nth(1)
        .and_then(|s| s.split("\n## 14.").next())
        .expect("DESIGN §13");
    let table = section
        .split("| per node | budget |")
        .nth(1)
        .expect("§13's per-node / per-frame budget table");
    let mut doc: BTreeSet<(String, usize)> = BTreeSet::new();
    for row in table.lines().skip(2) {
        let row = row.trim();
        if !row.starts_with('|') {
            break;
        }
        let cells: Vec<&str> = row.split('|').map(str::trim).collect();
        for pair in [(1, 2), (4, 5)] {
            let (names, budget) = (cells[pair.0], cells[pair.1]);
            if names.is_empty() {
                continue;
            }
            let budget = leading_number(budget)
                .unwrap_or_else(|| panic!("DESIGN §13 row {row}: no budget for {names}"));
            let types: Vec<&str> = names
                .split('`')
                .skip(1)
                .step_by(2)
                .filter(|t| t.starts_with(|c: char| c.is_ascii_uppercase()))
                .filter(|t| t.chars().all(|c| c.is_ascii_alphanumeric()))
                .collect();
            if types.is_empty() {
                let label = names.split(" (").next().unwrap_or_default();
                doc.insert((label.to_string(), budget));
            }
            for ty in types {
                doc.insert((ty.to_string(), budget));
            }
        }
    }
    let missing: Vec<_> = code.difference(&doc).collect();
    let stale: Vec<_> = doc.difference(&code).collect();
    assert!(
        missing.is_empty() && stale.is_empty(),
        "asserted in code but not in DESIGN §13: {missing:?}; \
         in DESIGN §13 but not asserted: {stale:?}"
    );
}
