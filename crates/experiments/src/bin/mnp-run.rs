//! `mnp-run` — command-line driver for one dissemination run.
//!
//! `mnp-run --help` prints the usage text ([`usage`]): the default mode
//! runs one dissemination (or one per `--seeds` entry) of any registered
//! protocol; the subcommands in [`SUBCOMMANDS`] run the campaigns
//! described below.
//!
//! Prints the run summary (completion, active radio time, messages,
//! collisions) and, on request, the ART heatmap and the parent map.
//! The observability flags attach the corresponding observer and write
//! its output after the run: `--events` a JSONL event log, `--metrics`
//! a per-node metrics JSON document, `--timeline` a Chrome-trace JSON
//! loadable in Perfetto, and `--check-invariants` an online protocol
//! safety monitor that fails fast on any violation.
//!
//! `mnp-run coded` runs the loss-sweep comparison campaign
//! (`mnp_experiments::sweep::loss_sweep`): MNP vs Deluge vs RLNC vs XOR at each
//! swept per-link packet-loss rate, printing completion time, mean
//! active radio time, and message count.
//!
//! `mnp-run mobility` runs the mobility-sweep campaign
//! (`mnp_experiments::sweep::speed_sweep`): MNP vs Deluge vs RLNC over a
//! random-waypoint field at each swept node speed. Motion is
//! pre-materialized into a potential-edge topology plus a deterministic
//! link-quality schedule, so runs replay byte-identically per seed. Both
//! campaigns are exploration tools: their default arguments
//! are the paper-scale blocks of the golden `EXPERIMENTS.txt`, which
//! `reproduce_all` prints and checks.
//!
//! `mnp-run chaos` runs the transient-fault sweep: deterministic
//! [`FaultPlan`](mnp_net::FaultPlan)s injecting crash–restarts, link
//! flaps, and EEPROM write-fault bursts on an N×N grid, reporting
//! coverage and the completion-time penalty per fault count —
//! `--protocol` picks which dissemination protocol runs the gauntlet.
//! It exits non-zero if any node failed to complete (transient faults
//! must not cost coverage).
//!
//! `mnp-run fuzz` runs the schedule-exploration fuzz campaign
//! (DESIGN.md §11): seeded random scenarios — grid or mobile topology
//! (`--mobile` forces every draw mobile), faults, and optionally
//! a permuted same-instant event order — checked against the oracle set
//! (no panic, protocol invariants, liveness, reception-lock conservation,
//! counter overflow). The first failure is shrunk to a minimal scenario
//! and written as a `repro.json` that `mnp-run repro` replays
//! deterministically. Panics are only observable as an oracle in builds
//! with debug assertions (the default dev profile), so run the fuzz
//! subcommand *without* `--release`.
//!
//! `mnp-run profile` runs one seeded dissemination with the kernel span
//! profiler enabled (`mnp_sim::profile`) and a time-series sampler
//! attached, then prints the self-time table naming the hottest phases,
//! with its coverage (the phases' estimated self times over the wall).
//! `--out` writes the schema-versioned profile JSON, `--series` the
//! sampler's JSONL rows, and `--timeline` a Chrome trace with the
//! sampler's gauges merged in as Perfetto counter tracks. This binary
//! installs the heap probe (`tests/support/heap_probe.rs`) as its global
//! allocator, so the sampler records the run thread's allocation calls
//! and requested bytes.
//!
//! `mnp-run report` diffs two JSON documents of one kind — two benchmark
//! `results.json` files (`benchmark/README.md`) or two profile files —
//! pairing rows by `(workload, mode)` or by phase.

use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;

use mnp::Mnp;
use mnp_experiments::registry::{FAULT_TESTED, NAMES};
use mnp_experiments::sweep::{self, Sweep};
use mnp_experiments::{
    fuzz, report, resilience, GridExperiment, Instruments, ProtocolId, RunOutcome,
};
use mnp_net::Observer;
use mnp_obs::{
    InvariantMonitor, JsonlLogger, MetricsRegistry, ProfileReport, Shared, TimeSeriesSampler,
    TimelineExporter,
};
use mnp_radio::{NodeId, PowerLevel};
use mnp_sim::{profile, SimDuration};
use mnp_trace::{render_heatmap, render_parent_map};

// The workspace's one counting allocator: the libraries forbid `unsafe`.
#[allow(dead_code)]
#[path = "../../../../tests/support/heap_probe.rs"]
mod heap_probe;

/// The run thread's allocation calls and requested bytes, for `mnp-run
/// profile`'s sampler.
fn alloc_counters() -> (u64, u64) {
    let heap = heap_probe::snapshot();
    (heap.calls, heap.requested)
}

struct Args {
    rows: usize,
    cols: usize,
    spacing: f64,
    segments: u16,
    power: u8,
    seed: u64,
    seeds: Option<Vec<u64>>,
    protocol: ProtocolId,
    capture: bool,
    heatmap: bool,
    parents: bool,
    events: Option<String>,
    metrics: Option<String>,
    timeline: Option<String>,
    check_invariants: bool,
}

impl Args {
    fn parse(it: ArgIter) -> Result<Args, String> {
        let mut args = Args {
            rows: 10,
            cols: 10,
            spacing: 10.0,
            segments: 2,
            power: 255,
            seed: 42,
            seeds: None,
            protocol: ProtocolId::of::<Mnp>(),
            capture: false,
            heatmap: false,
            parents: false,
            events: None,
            metrics: None,
            timeline: None,
            check_invariants: false,
        };
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--rows" => args.rows = positive(it, &flag)?,
                "--cols" => args.cols = positive(it, &flag)?,
                "--spacing" => args.spacing = finite(positive(it, &flag)?, &flag)?,
                "--segments" => args.segments = positive(it, &flag)?,
                "--power" => args.power = positive(it, &flag)?,
                "--seed" => args.seed = arg(it, &flag)?,
                "--seeds" => args.seeds = Some(arg_list(it, &flag)?),
                "--protocol" => args.protocol = ProtocolId::parse(&value(it, &flag)?, NAMES)?,
                "--capture" => args.capture = true,
                "--heatmap" => args.heatmap = true,
                "--parents" => args.parents = true,
                "--events" => args.events = Some(value(it, &flag)?),
                "--metrics" => args.metrics = Some(value(it, &flag)?),
                "--timeline" => args.timeline = Some(value(it, &flag)?),
                "--check-invariants" => args.check_invariants = true,
                other => return Err(bad_flag(other)),
            }
        }
        node_count(args.rows, args.cols, "--rows × --cols")?;
        // One observer cannot soundly record several concurrent runs; the
        // multi-seed mode is summary-only.
        let watched = args.events.is_some()
            || args.metrics.is_some()
            || args.timeline.is_some()
            || args.check_invariants
            || args.heatmap
            || args.parents;
        match args.seeds.as_deref() {
            Some([]) => Err("--seeds needs at least one seed".into()),
            Some(_) if watched => {
                Err("--seeds cannot be combined with observer or rendering flags".into())
            }
            _ => Ok(args),
        }
    }
}

/// The usage text; the `--protocol` choices come from the registry.
fn usage() -> String {
    format!(
        "Usage: mnp-run [--rows N] [--cols N] [--spacing FT] [--segments N]
               [--power LEVEL] [--seed N] [--seeds A,B,...]
               [--protocol {all}]
               [--capture] [--heatmap] [--parents]
               [--events PATH] [--metrics PATH] [--timeline PATH]
               [--check-invariants]
       mnp-run profile [--rows N] [--cols N] [--segments N] [--seed N]
                       [--sample-ms MS] [--top N]
                       [--out PATH] [--series PATH] [--timeline PATH]
       mnp-run report OLD NEW
       mnp-run coded [--rows N] [--cols N] [--segments N] [--seed N]
                     [--losses A,B,... (percent)]
       mnp-run mobility [--nodes N] [--segments N] [--seed N]
                        [--speeds A,B,... (ft/s)]
       mnp-run chaos [--seed N] [--grid N] [--protocol {fault_tested}]
                     [--crashes A,B,...] [--flaps A,B,...]
                     [--storage A,B,...]
       mnp-run fuzz [--runs N] [--seed N] [--policy fifo|permute]
                    [--mobile] [--shrink-budget N] [--out PATH]
       mnp-run repro PATH",
        all = NAMES.join("|"),
        fault_tested = FAULT_TESTED.join("|"),
    )
}

/// The arguments after the (sub)command name.
type ArgIter<'a> = &'a mut dyn Iterator<Item = String>;

fn parse<T: FromStr<Err: Display>>(s: &str) -> Result<T, String> {
    s.parse().map_err(|e| format!("bad value {s:?}: {e}"))
}

/// The raw value following `flag`.
fn value(it: ArgIter, flag: &str) -> Result<String, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

/// The parsed value following `flag`.
fn arg<T: FromStr<Err: Display>>(it: ArgIter, flag: &str) -> Result<T, String> {
    parse(&value(it, flag)?)
}

/// The parsed value following `flag`, which must be above zero (a NaN is
/// not): a dimension, a count or a length that the scenario builders
/// would otherwise reject by panicking.
fn positive<T>(it: ArgIter, flag: &str) -> Result<T, String>
where
    T: FromStr<Err: Display> + PartialOrd + Default,
{
    let v: T = arg(it, flag)?;
    if v > T::default() {
        Ok(v)
    } else {
        Err(format!("{flag} must be positive"))
    }
}

/// The most nodes a run can hold: `NodeId::from_index` takes no index
/// above `i32::MAX`.
const MAX_NODES: usize = i32::MAX as usize;

/// `a × b` if every node of that many can be named: a larger count is a
/// typed error here, not an allocation abort in the scenario builders.
/// `flags` names the flags that set the count.
fn node_count(a: usize, b: usize, flags: &str) -> Result<usize, String> {
    a.checked_mul(b)
        .filter(|&n| n <= MAX_NODES)
        .ok_or_else(|| format!("{flags} must be at most {MAX_NODES} nodes"))
}

/// `v` if it is finite: an infinite spacing has no grid to lay out.
fn finite(v: f64, flag: &str) -> Result<f64, String> {
    if v.is_finite() {
        Ok(v)
    } else {
        Err(format!("{flag} must be finite"))
    }
}

/// The comma-separated list following `flag`; an empty value ("--flaps ''")
/// is the empty list.
fn arg_list<T: FromStr<Err: Display>>(it: ArgIter, flag: &str) -> Result<Vec<T>, String> {
    value(it, flag)?
        .split(',')
        .filter(|part| !part.is_empty())
        .map(parse)
        .collect()
}

/// Exactly `N` positional arguments; fewer or more is the usage error
/// `complaint`.
fn positionals<const N: usize>(it: ArgIter, complaint: &str) -> Result<[String; N], String> {
    it.collect::<Vec<_>>()
        .try_into()
        .map_err(|_| format!("{complaint}\n{}", usage()))
}

/// The error for a flag no arm matched: the usage text, preceded by a
/// complaint unless help was what the user asked for.
fn bad_flag(flag: &str) -> String {
    match flag {
        "--help" | "-h" => usage(),
        other => format!("unknown flag {other}\n{}", usage()),
    }
}

/// Names `path` in the error of a failed write to it.
fn written<T>(path: &str, result: std::io::Result<T>) -> Result<T, String> {
    result.map_err(|e| format!("cannot write {path}: {e}"))
}

fn read_file(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// Wraps `observer` in a [`Shared`] handle, attached to `observers` and
/// returned for reading back after the run — if `wanted`.
fn tap<O: Observer + Send + 'static>(
    wanted: bool,
    observer: O,
    observers: &mut Vec<Box<dyn Observer + Send>>,
) -> Option<Shared<O>> {
    wanted.then(|| {
        let shared = Shared::new(observer);
        observers.push(Box::new(shared.clone()));
        shared
    })
}

/// Runs `f` with the default panic hook silenced. `run_scenario` turns
/// panics into verdicts; without this every probed panic would spray a
/// backtrace over the report. A CLI-only affordance — the library never
/// touches the process-global hook (tests run multithreaded).
fn quietly<T>(f: impl FnOnce() -> T) -> T {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(hook);
    out
}

/// A subcommand: takes the arguments after its name.
type Subcommand = fn(ArgIter) -> Result<ExitCode, String>;

/// Subcommands by name; anything else is the default single-run mode.
const SUBCOMMANDS: &[(&str, Subcommand)] = &[
    ("profile", run_profile),
    ("report", run_report),
    ("coded", run_coded),
    ("mobility", run_mobility),
    ("chaos", run_chaos),
    ("fuzz", run_fuzz),
    ("repro", run_repro),
];

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    let subcommand = args
        .peek()
        .and_then(|name| SUBCOMMANDS.iter().find(|(n, _)| n == name))
        .map(|&(_, run)| run);
    let result = match subcommand {
        Some(run) => run(&mut args.skip(1)),
        None => run_single(&mut args),
    };
    result.unwrap_or_else(|msg| {
        eprintln!("{msg}");
        ExitCode::FAILURE
    })
}

/// The default mode: one dissemination run (or one per `--seeds` entry).
fn run_single(it: ArgIter) -> Result<ExitCode, String> {
    let args = Args::parse(it)?;

    let scenario = GridExperiment::new(args.rows, args.cols, args.spacing)
        .segments(args.segments)
        .power(PowerLevel::new(args.power))
        .seed(args.seed)
        .capture(args.capture);
    for &seed in args.seeds.as_deref().unwrap_or(&[args.seed]) {
        if !scenario.clone().seed(seed).is_viable() {
            return Err(format!(
                "seed {seed}: some node has no usable path to the base station \
                 (try a smaller --spacing, a higher --power or another seed)"
            ));
        }
    }

    println!(
        "{} | image {} | {} | seed {} | capture {}",
        scenario.grid(),
        scenario.image().layout(),
        args.protocol.name(),
        args.seed,
        args.capture
    );

    if let Some(seeds) = &args.seeds {
        return run_seeds(&args, &scenario, seeds);
    }

    let mut observers = Vec::new();
    let events = tap(args.events.is_some(), JsonlLogger::new(), &mut observers);
    let metrics = tap(
        args.metrics.is_some(),
        MetricsRegistry::new(),
        &mut observers,
    );
    let timeline = tap(
        args.timeline.is_some(),
        TimelineExporter::new(),
        &mut observers,
    );
    let invariants = tap(
        args.check_invariants,
        InvariantMonitor::new(),
        &mut observers,
    );

    let out = scenario.run_named(
        args.protocol,
        Instruments {
            observers,
            sampler: None,
        },
    );

    println!("{out}");
    write_outputs(&args, events, metrics, timeline, invariants)?;
    if args.heatmap {
        println!("active radio time by location (dark = high):");
        print!("{}", render_heatmap(args.rows, args.cols, &out.art_s));
    }
    if args.parents {
        println!("parent map (arrows point toward the parent):");
        print!(
            "{}",
            render_parent_map(args.rows, args.cols, 0, |i| {
                out.trace
                    .node(NodeId::from_index(i))
                    .parent
                    .map(|p| p.index())
            })
        );
    }
    Ok(completion_code(
        out.completed,
        "dissemination did not complete before the deadline",
    ))
}

/// Exit status of a run: success iff `ok`, else `complaint` on stderr.
fn completion_code(ok: bool, complaint: &str) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("{complaint}");
        ExitCode::FAILURE
    }
}

/// The longest `mnp-run profile --sample-ms`: one day of sim time, far
/// past any run's deadline and far from overflowing the microsecond clock.
const MAX_SAMPLE_MS: u64 = 86_400_000;

/// `mnp-run profile`: one seeded run with the kernel span profiler and
/// the time-series sampler attached (DESIGN.md §12).
fn run_profile(it: ArgIter) -> Result<ExitCode, String> {
    let mut rows = 20usize;
    let mut cols = 20usize;
    let mut segments = 1u16;
    let mut seed = 42u64;
    let mut sample_ms = 500u64;
    let mut top = 5usize;
    let mut out_path: Option<String> = None;
    let mut series_path: Option<String> = None;
    let mut timeline_path: Option<String> = None;
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--rows" => rows = positive(it, &flag)?,
            "--cols" => cols = positive(it, &flag)?,
            "--segments" => segments = positive(it, &flag)?,
            "--seed" => seed = arg(it, &flag)?,
            "--sample-ms" => sample_ms = positive(it, &flag)?,
            "--top" => top = arg(it, &flag)?,
            "--out" => out_path = Some(value(it, &flag)?),
            "--series" => series_path = Some(value(it, &flag)?),
            "--timeline" => timeline_path = Some(value(it, &flag)?),
            other => return Err(bad_flag(other)),
        }
    }
    node_count(rows, cols, "--rows × --cols")?;
    if sample_ms > MAX_SAMPLE_MS {
        return Err(format!(
            "--sample-ms must be at most {MAX_SAMPLE_MS} (one day)"
        ));
    }

    let scenario = GridExperiment::new(rows, cols, 10.0)
        .segments(segments)
        .seed(seed);
    println!(
        "{} | image {} | profile stride {} | sample every {} ms",
        scenario.grid(),
        scenario.image().layout(),
        profile::DEFAULT_STRIDE,
        sample_ms
    );

    let sampler = Shared::new(
        TimeSeriesSampler::new(SimDuration::from_millis(sample_ms), 4096)
            .with_alloc_counters(alloc_counters),
    );
    let mut observers = Vec::new();
    let timeline = tap(
        timeline_path.is_some(),
        TimelineExporter::new(),
        &mut observers,
    );

    profile::reset();
    profile::set_enabled(true);
    let start = std::time::Instant::now();
    let out = scenario.run_observed::<Mnp>(
        |_| {},
        Instruments {
            observers,
            sampler: Some(sampler.clone()),
        },
    );
    let wall_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    profile::set_enabled(false);

    print!("{out}");
    let rep = ProfileReport::capture(wall_ns);
    print!("{}", rep.render_table(top));
    println!("series: {} samples", sampler.borrow().len());

    if let Some(path) = &out_path {
        written(path, std::fs::write(path, rep.dump_json()))?;
        println!("profile: wrote {path}");
    }
    if let Some(path) = &series_path {
        written(path, sampler.borrow().write_to(path))?;
        println!("series: wrote {path}");
    }
    if let (Some(path), Some(tl)) = (&timeline_path, &timeline) {
        let json = tl.borrow().dump_json_with_counters(&sampler.borrow());
        written(path, std::fs::write(path, json))?;
        println!("timeline: wrote {path}");
    }
    Ok(completion_code(
        out.completed,
        "dissemination did not complete before the deadline",
    ))
}

/// `mnp-run report`: diffs two benchmark-results or two profile documents.
fn run_report(it: ArgIter) -> Result<ExitCode, String> {
    let [old_path, new_path] = positionals(it, "report needs OLD NEW")?;
    print!(
        "{}",
        report::diff(&read_file(&old_path)?, &read_file(&new_path)?)?
    );
    Ok(ExitCode::SUCCESS)
}

/// `mnp-run coded`: the loss-sweep comparison campaign (MNP vs Deluge vs
/// RLNC vs XOR).
fn run_coded(it: ArgIter) -> Result<ExitCode, String> {
    let mut rows = 6usize;
    let mut cols = 6usize;
    let mut segments = 1u16;
    let mut seed = 42u64;
    let mut losses: Vec<f64> = vec![0.0, 10.0, 20.0];
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--rows" => rows = positive(it, &flag)?,
            "--cols" => cols = positive(it, &flag)?,
            "--segments" => segments = positive(it, &flag)?,
            "--seed" => seed = arg(it, &flag)?,
            "--losses" => losses = arg_list(it, &flag)?,
            other => return Err(bad_flag(other)),
        }
    }
    node_count(rows, cols, "--rows × --cols")?;
    if losses.is_empty() {
        return Err("--losses needs at least one rate".into());
    }
    // Loss rates arrive in percent (10 = 10%) for CLI ergonomics.
    // 100% is legal: the degenerate all-links-dead endpoint of a sweep
    // (the run builds and misses the deadline instead of panicking).
    let fractions: Vec<f64> = losses.iter().map(|&p| p / 100.0).collect();
    if fractions.iter().any(|&p| !(0.0..=1.0).contains(&p)) {
        return Err("--losses entries must be percentages in [0, 100]".into());
    }
    let cmp = sweep::loss_sweep(rows, cols, segments, seed, &fractions);
    report_sweep(&cmp, "loss rate")
}

/// Prints a finished sweep and turns "every protocol completed at every
/// point" into the exit status.
fn report_sweep(cmp: &Sweep, point: &str) -> Result<ExitCode, String> {
    print!("{cmp}");
    Ok(completion_code(
        cmp.rows().all(|r| r.completed),
        &format!("some protocol missed the deadline at some {point}"),
    ))
}

/// `mnp-run mobility`: the mobility-sweep comparison campaign (MNP vs
/// Deluge vs RLNC across random-waypoint speeds).
fn run_mobility(it: ArgIter) -> Result<ExitCode, String> {
    let mut nodes = 16usize;
    let mut segments = 1u16;
    let mut seed = 42u64;
    let mut speeds: Vec<f64> = vec![0.0, 1.0, 2.0];
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--nodes" => nodes = positive(it, &flag)?,
            "--segments" => segments = positive(it, &flag)?,
            "--seed" => seed = arg(it, &flag)?,
            "--speeds" => speeds = arg_list(it, &flag)?,
            other => return Err(bad_flag(other)),
        }
    }
    node_count(nodes, 1, "--nodes")?;
    if speeds.is_empty() {
        return Err("--speeds needs at least one speed".into());
    }
    if speeds.iter().any(|&v| !v.is_finite() || v < 0.0) {
        return Err("--speeds entries must be non-negative ft/s".into());
    }
    let cmp = sweep::speed_sweep(nodes, segments, seed, &speeds);
    report_sweep(&cmp, "speed")
}

/// `mnp-run chaos`: the transient-fault sweep (crash–restarts, link
/// flaps, storage-fault bursts) under the chosen protocol.
fn run_chaos(it: ArgIter) -> Result<ExitCode, String> {
    let mut seed = 42u64;
    let mut grid = 8usize;
    let mut protocol = ProtocolId::of::<Mnp>();
    let mut crashes: Vec<usize> = vec![0, 2, 4, 8];
    let mut flaps: Vec<usize> = vec![0, 8, 16, 32];
    let mut storage: Vec<usize> = vec![0, 4, 8];
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--seed" => seed = arg(it, &flag)?,
            "--grid" => grid = positive(it, &flag)?,
            "--protocol" => protocol = ProtocolId::parse(&value(it, &flag)?, FAULT_TESTED)?,
            // An empty value ("--flaps ''") disables that sweep entirely.
            "--crashes" => crashes = arg_list(it, &flag)?,
            "--flaps" => flaps = arg_list(it, &flag)?,
            "--storage" => storage = arg_list(it, &flag)?,
            other => return Err(bad_flag(other)),
        }
    }
    node_count(grid, grid, "--grid × --grid")?;
    // A 1×1 grid is the base station alone: the fault-plan samplers would
    // find no node to crash or fault and no link to flap.
    let sweeps = [
        ("--crashes", &crashes),
        ("--flaps", &flaps),
        ("--storage", &storage),
    ];
    if let Some((flag, _)) = sweeps
        .iter()
        .find(|(_, counts)| grid == 1 && !counts.is_empty())
    {
        return Err(format!(
            "{flag}: --grid 1 is the base station alone, nothing to fault"
        ));
    }
    let chaos = resilience::run_chaos_matrix(protocol, grid, &crashes, &flaps, &storage, seed);
    print!("{chaos}");
    let full_coverage = chaos.all_rows().all(|r| (r.coverage - 1.0).abs() < 1e-9);
    Ok(completion_code(
        full_coverage,
        "transient faults cost coverage: some node never completed",
    ))
}

/// `mnp-run fuzz`: the schedule-exploration fuzz campaign (DESIGN.md §11).
fn run_fuzz(it: ArgIter) -> Result<ExitCode, String> {
    let mut cfg = fuzz::FuzzConfig {
        runs: 40,
        ..fuzz::FuzzConfig::default()
    };
    let mut out_path = String::from("repro.json");
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--runs" => cfg.runs = arg(it, &flag)?,
            "--seed" => cfg.fuzz_seed = arg(it, &flag)?,
            "--policy" => {
                cfg.permute = match value(it, &flag)?.as_str() {
                    "fifo" => false,
                    "permute" => true,
                    other => return Err(format!("unknown policy {other:?} (fifo|permute)")),
                }
            }
            "--shrink-budget" => cfg.shrink_budget = arg(it, &flag)?,
            "--mobile" => cfg.mobile = true,
            "--out" => out_path = value(it, &flag)?,
            other => return Err(bad_flag(other)),
        }
    }
    if cfg!(not(debug_assertions)) {
        eprintln!(
            "warning: built without debug assertions — the panic oracle \
             misses debug_assert! violations (run without --release)"
        );
    }
    println!(
        "fuzz: {} runs, stream seed {}, policy {}{}",
        cfg.runs,
        cfg.fuzz_seed,
        if cfg.permute { "permute" } else { "fifo" },
        if cfg.mobile { ", all mobile" } else { "" }
    );

    let outcome = quietly(|| {
        fuzz::fuzz(&cfg, |i, sc, verdict| {
            let tag = match verdict {
                fuzz::Verdict::Pass => "pass",
                fuzz::Verdict::Fail(_) => "FAIL",
                fuzz::Verdict::Invalid(_) => "invalid",
            };
            println!("  [{i:>3}] {tag:<7} {sc}");
        })
    });

    match outcome {
        Ok(runs) => {
            println!("fuzz: {runs} scenarios, zero failures");
            Ok(ExitCode::SUCCESS)
        }
        Err(report) => {
            println!("fuzz: scenario {} failed: {}", report.index, report.failure);
            println!(
                "shrink: {} -> {} ({} check runs)",
                report.original, report.shrunk, report.shrink_spent
            );
            let json = fuzz::emit_repro(&report.shrunk, &report.failure);
            written(&out_path, std::fs::write(&out_path, &json))?;
            println!("wrote {out_path}; replay with: mnp-run repro {out_path}");
            Ok(ExitCode::FAILURE)
        }
    }
}

/// `mnp-run repro`: deterministically replays a shrunk `repro.json`.
fn run_repro(it: ArgIter) -> Result<ExitCode, String> {
    let [path] = positionals(it, "repro needs a PATH")?;
    let (sc, recorded) = fuzz::parse_repro(&read_file(&path)?)?;
    println!("repro: {sc}");
    if let Some(kind) = recorded {
        println!("recorded failure kind: {}", kind.name());
    }
    let verdict = quietly(|| fuzz::run_scenario(&sc));
    match verdict {
        fuzz::Verdict::Pass => {
            println!("replay: all oracles pass (the recorded failure is fixed)");
            Ok(ExitCode::SUCCESS)
        }
        fuzz::Verdict::Invalid(msg) => Err(format!("replay: scenario is invalid: {msg}")),
        fuzz::Verdict::Fail(f) => {
            let matches = recorded.is_none_or(|k| k == f.kind);
            println!(
                "replay: reproduced {}{}",
                f,
                if matches {
                    ""
                } else {
                    " (DIFFERENT kind than recorded)"
                }
            );
            Ok(ExitCode::FAILURE)
        }
    }
}

fn run_seeds(args: &Args, scenario: &GridExperiment, seeds: &[u64]) -> Result<ExitCode, String> {
    let outs = scenario.run_seeds_with(seeds, |s| {
        s.run_named(args.protocol, Instruments::default())
    });
    for (seed, out) in seeds.iter().zip(&outs) {
        print!("seed {seed:>3}: {out}");
    }
    let completions: Vec<f64> = outs.iter().map(RunOutcome::completion_s).collect();
    println!(
        "mean completion {:.0}s over {} seeds",
        mnp_trace::mean(&completions),
        seeds.len()
    );
    Ok(completion_code(
        outs.iter().all(|o| o.completed),
        "some seed did not complete before the deadline",
    ))
}

fn write_outputs(
    args: &Args,
    events: Option<Shared<JsonlLogger>>,
    metrics: Option<Shared<MetricsRegistry>>,
    timeline: Option<Shared<TimelineExporter>>,
    invariants: Option<Shared<InvariantMonitor>>,
) -> Result<(), String> {
    if let (Some(path), Some(log)) = (&args.events, events) {
        let log = log.borrow();
        written(path, log.write_to(path))?;
        println!("events: {} lines -> {path}", log.events());
    }
    if let (Some(path), Some(reg)) = (&args.metrics, metrics) {
        let reg = reg.borrow();
        written(path, reg.write_to(path))?;
        println!(
            "metrics: {} tx / {} rx / {} drops -> {path}",
            reg.tx_total(),
            reg.rx_total(),
            reg.drops_total()
        );
    }
    if let (Some(path), Some(tl)) = (&args.timeline, timeline) {
        let tl = tl.borrow();
        written(path, tl.write_to(path))?;
        println!("timeline: {} spans -> {path}", tl.spans().len());
    }
    if let Some(inv) = invariants {
        // Fail-fast mode panics on violation, so reaching this point means
        // every check passed.
        println!("invariants: {} checks, all passed", inv.borrow().checks());
    }
    Ok(())
}
