//! What the benchmark knows about the host: a noise probe, process CPU time,
//! and the provenance stamped on everything it writes.

use std::process::Command;
use std::time::Instant;

use mnp_sim::SimRng;

/// Bump when a metric's name, unit or meaning changes.
pub const SCHEMA_VERSION: u32 = 1;

/// xoshiro draws in one calibration spin: about 200 ms on the 2-CPU dev
/// container. Fixed work, so two readings compare directly.
const CALIB_DRAWS: u64 = 170_000_000;

/// Times the fixed pure-CPU spin, in seconds. `quick` spins a hundredth as
/// long, so the unoptimised test build stays quick too.
pub fn calibrate(quick: bool) -> f64 {
    let draws = if quick {
        CALIB_DRAWS / 100
    } else {
        CALIB_DRAWS
    };
    let mut rng = SimRng::new(0x5eed);
    let start = Instant::now();
    let mut acc = 0u64;
    for _ in 0..draws {
        acc ^= rng.next_u64();
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64()
}

/// Process CPU seconds `(user, system)` from `/proc/self/stat`, all threads
/// included; zeros where `/proc` is missing. The kernel reports clock ticks,
/// taken as the Linux default of 100 per second.
pub fn cpu_times() -> (f64, f64) {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return (0.0, 0.0);
    };
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis, utime and stime being fields 14 and 15.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return (0.0, 0.0);
    };
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut ticks = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    let (utime, stime) = (ticks(), ticks());
    (utime / 100.0, stime / 100.0)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    Some(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Which tree, toolchain, host and parameters produced a result, as a JSON
/// object: `git describe --always --dirty` (`unknown` outside a checkout),
/// whether anything is uncommitted, whether the *measured program* (the root
/// crate and `crates/`) is — a dirty tree whose program is clean still
/// measures the described commit — `rustc -V`, the CPUs available, and the
/// run's own arguments.
pub fn provenance_json(seed: u64, seconds: f64, quick: bool) -> String {
    // `:/` anchors a pathspec at the top of the tree, wherever the benchmark
    // was started from.
    let dirty = |paths: &[&str]| {
        let mut args = vec!["status", "--porcelain", "--"];
        args.extend_from_slice(paths);
        command_line("git", &args).is_some_and(|s| !s.is_empty())
    };
    let git = command_line("git", &["describe", "--always", "--dirty"])
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into());
    let rustc = command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"schema_version\": {SCHEMA_VERSION}, \"git\": \"{}\", \"dirty\": {}, \
         \"program_dirty\": {}, \"rustc\": \"{}\", \"nproc\": {}, \"seed\": {seed}, \
         \"seconds\": {seconds}, \"quick\": {quick}}}",
        escape(&git),
        dirty(&[":/"]),
        dirty(&[":/crates", ":/src", ":/Cargo.toml", ":/Cargo.lock"]),
        escape(&rustc),
        std::thread::available_parallelism().map_or(1, usize::from),
    )
}

/// Escapes a string for a JSON literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
