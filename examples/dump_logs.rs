//! Dumps the seeded JSONL event logs of the seeded-log table
//! (`mnp_experiments::seeded_logs::SEEDED_LOGS`) to a directory, one file
//! per row, so a refactor can locate a moved byte by diffing the files
//! produced before and after (`cargo test --test determinism` is the
//! quicker first check: it compares every row's digest):
//!
//! ```text
//! cargo run --release --example dump_logs -- /tmp/logs_before
//! # ... refactor ...
//! cargo run --release --example dump_logs -- /tmp/logs_after
//! diff -r /tmp/logs_before /tmp/logs_after
//! ```
//!
//! An optional `--shards N` runs every scenario on the N-way sharded
//! kernel; the output must not change, which is exactly how CI proves the
//! sharded merge byte-identical:
//!
//! ```text
//! cargo run --release --example dump_logs -- /tmp/logs_s1
//! cargo run --release --example dump_logs -- /tmp/logs_s4 --shards 4
//! diff -r /tmp/logs_s1 /tmp/logs_s4
//! ```

use mnp_repro::experiments::seeded_logs::SEEDED_LOGS;
use mnp_repro::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut dir = None;
    let mut shards = 1usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--shards" {
            shards = it
                .next()
                .and_then(|v| v.parse().ok())
                .expect("--shards takes a positive integer");
        } else {
            dir = Some(arg.clone());
        }
    }
    let dir = dir.expect("usage: dump_logs OUT_DIR [--shards N]");
    std::fs::create_dir_all(&dir).expect("create output directory");

    for row in SEEDED_LOGS {
        let (log, out) = row.record(shards, Instruments::default());
        let name = row.name();
        assert_eq!(out.completed, row.completes, "{name} completion");
        let path = format!("{dir}/{name}.jsonl");
        std::fs::write(&path, log).expect("write log");
        println!("wrote {path}");
    }
}
