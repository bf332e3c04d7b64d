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
//! The one argument is the output directory. Anything else — no
//! argument, a second one, or a flag — prints the usage and exits with
//! status 2.

use mnp_repro::experiments::seeded_logs::SEEDED_LOGS;
use mnp_repro::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let dir = match args.as_slice() {
        [dir] if !dir.starts_with('-') => dir,
        _ => {
            eprintln!("usage: dump_logs OUT_DIR");
            std::process::exit(2);
        }
    };
    std::fs::create_dir_all(dir).expect("create output directory");

    for row in SEEDED_LOGS {
        let (log, out) = row.record(Instruments::default());
        let name = row.name();
        assert_eq!(out.completed, row.completes, "{name} completion");
        let path = format!("{dir}/{name}.jsonl");
        std::fs::write(&path, log).expect("write log");
        println!("wrote {path}");
    }
}
