//! The repository's benchmark. See `benchmark/README.md` for the glossary
//! of workloads and metrics and `BENCHMARK.json` for the declared names.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- [--seed N]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload grid80 --seed 7 --seconds 10 --trace 0
//! ```
//!
//! Without `--workload` every workload runs, untraced then traced, and the
//! full result set goes to `benchmark/out/results.json`. With it, one
//! workload runs in one mode and the last line of standard output is the
//! result object a driver reads. Either way the span trace goes to
//! `benchmark/out/trace.json` and any correctness miss makes the exit code
//! non-zero.

mod alloc;
mod host;
mod measure;
mod micro;
mod report;
mod scenario;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use crate::report::Outcome;
use crate::spans::Trace;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// `run_seconds` of `BENCHMARK.json`: the default measuring time of one run.
const DEFAULT_SECONDS: f64 = 10.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: DEFAULT_SECONDS,
        traced: false,
        quick: false,
        // From the repository root (how the documented command runs) the
        // outputs land beside the benchmark's sources; from inside
        // `benchmark/` they land in the same place.
        out: if std::path::Path::new("benchmark").is_dir() {
            "benchmark/out".into()
        } else {
            "out".into()
        },
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            // Toy sizes, two reps end-to-end and two rounds per-layer.
            "--quick" => {
                args.quick = true;
                args.seconds = 0.0;
            }
            "--out" => args.out = value()?.into(),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("mnp-benchmark: {msg}");
            eprintln!(
                "usage: mnp-benchmark [--workload NAME] [--seed N] [--seconds S] \
                 [--trace 0|1] [--quick] [--out DIR]"
            );
            return ExitCode::from(2);
        }
    };
    let table = scenario::workloads(args.quick);
    let selected: Vec<_> = match &args.workload {
        None => table.clone(),
        Some(name) => match table.iter().find(|w| w.name == name) {
            Some(w) => vec![*w],
            None => {
                let names: Vec<_> = table.iter().map(|w| w.name).collect();
                eprintln!("mnp-benchmark: no workload {name}; choose from {names:?}");
                return ExitCode::from(2);
            }
        },
    };
    let provenance = host::provenance_json(args.seed, args.seconds, args.quick);
    println!("provenance {provenance}");

    let mut trace = Trace::new();
    let mut outcomes: Vec<Outcome> = Vec::new();
    for w in &selected {
        // A driver asks for one mode; the whole-benchmark command runs both.
        let modes: &[bool] = match &args.workload {
            None => &[false, true],
            Some(_) => std::slice::from_ref(&args.traced),
        };
        for &traced in modes {
            let outcome = if traced {
                measure::per_layer(w, args.seed, args.seconds, args.quick, &mut trace)
            } else {
                measure::end_to_end(w, args.seed, args.seconds, args.quick, &mut trace)
            };
            outcome.print();
            outcomes.push(outcome);
        }
    }

    if let Err(e) = std::fs::create_dir_all(&args.out)
        .and_then(|()| std::fs::write(args.out.join("trace.json"), trace.to_json(&provenance)))
        .and_then(|()| {
            std::fs::write(
                args.out.join("results.json"),
                report::results_json(&provenance, &outcomes),
            )
        })
    {
        eprintln!("mnp-benchmark: cannot write to {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }

    let correct = outcomes.iter().all(|o| o.correct());
    if args.workload.is_some() {
        // The driver's contract: one result object, last on standard output.
        println!("{}", outcomes[0].json_line());
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("mnp-benchmark: correctness gate FAILED (see the lines above)");
        ExitCode::FAILURE
    }
}
