//! End-to-end checks of the self-observability subsystem (DESIGN.md §12):
//! attaching the kernel profiler and the time-series sampler must never
//! change what the simulator *does* — only record how long it took.

use mnp::Mnp;
use mnp_experiments::{GridExperiment, Instruments};
use mnp_obs::{JsonlLogger, Observer, ProfileReport, Shared, TimeSeriesSampler};
use mnp_sim::profile::{self, Phase};
use mnp_sim::SimDuration;

fn scenario() -> GridExperiment {
    GridExperiment::new(5, 5, 10.0).segments(1).seed(42)
}

fn logged_run(sampler: Option<Shared<TimeSeriesSampler>>) -> String {
    let log = Shared::new(JsonlLogger::new());
    let observers: Vec<Box<dyn Observer + Send>> = vec![Box::new(log.clone())];
    let out = scenario().run_observed::<Mnp>(|_| {}, Instruments { observers, sampler });
    assert!(out.completed, "{out}");
    let dump = log.borrow().as_str().to_string();
    dump
}

/// The headline byte-identity guarantee: the profiler and sampler are
/// pure readers, so a seeded run's protocol event log is the same byte
/// stream whether they are attached or not.
#[test]
fn profiling_on_and_off_produce_byte_identical_event_logs() {
    // Spans are thread-local; run the profiled leg on its own thread so
    // parallel tests cannot share (or dirty) the slots.
    let profiled = std::thread::scope(|s| {
        s.spawn(|| {
            profile::reset();
            profile::set_stride(1); // time every span: maximum interference
            profile::set_enabled(true);
            let sampler = Shared::new(TimeSeriesSampler::new(SimDuration::from_millis(250), 64));
            let log = logged_run(Some(sampler.clone()));
            profile::set_enabled(false);
            let report = ProfileReport::capture(1);
            let samples = sampler.borrow().len();
            (log, report, samples)
        })
        .join()
        .expect("profiled run panicked")
    });
    let plain = logged_run(None);

    let (log, report, samples) = profiled;
    assert!(!plain.is_empty());
    assert_eq!(log, plain, "profiling must not perturb the event stream");
    // The profiled leg really profiled: the per-event phases all fired.
    for phase in [
        Phase::QueuePop,
        Phase::Dispatch,
        Phase::Observe,
        Phase::Sample,
    ] {
        assert!(
            report.phases[phase as usize].calls > 0,
            "no {} spans recorded",
            phase.label()
        );
    }
    assert!(samples > 0, "the sampler never sampled");
}

/// Attaching the sampler yields a monotonic series on the configured
/// sim-time cadence, and its gauges stay consistent with the run.
#[test]
fn sampler_records_a_monotonic_series_on_the_configured_cadence() {
    let interval = SimDuration::from_secs(1);
    let sampler = Shared::new(TimeSeriesSampler::new(interval, 1024));
    let out = scenario().run_observed::<Mnp>(
        |_| {},
        Instruments {
            observers: Vec::new(),
            sampler: Some(sampler.clone()),
        },
    );
    assert!(out.completed, "{out}");

    let sampler = sampler.borrow();
    let times: Vec<u64> = sampler.samples().map(|s| s.t_us).collect();
    assert!(
        times.len() >= 2,
        "a multi-second run must produce several samples, got {times:?}"
    );
    assert!(times.windows(2).all(|w| w[0] < w[1]), "{times:?}");
    // Samples fire at the first event at-or-after each deadline, and
    // every crossed deadline advances the schedule — so each sample
    // lands in its own interval-sized bucket, never two in one.
    let buckets: Vec<u64> = times.iter().map(|t| t / interval.as_micros()).collect();
    assert!(
        buckets.windows(2).all(|w| w[0] < w[1]),
        "two samples in one interval: {times:?}"
    );
    // The tail of the run (after the last crossed deadline) is never
    // sampled, so the final snapshot undercounts — but only by less than
    // one interval's worth of events, and never overcounts.
    let last = sampler.samples().last().copied().unwrap();
    assert!(
        last.events <= out.events,
        "{} > {}",
        last.events,
        out.events
    );
    assert!(
        sampler
            .samples()
            .zip(sampler.samples().skip(1))
            .all(|(a, b)| a.events < b.events),
        "event counts are cumulative"
    );
}

/// The same seeded scenario sampled twice gives the same series — the
/// sampler inherits the simulator's determinism (wall-clock-free fields).
#[test]
fn sampled_series_is_deterministic_per_seed() {
    let run = || {
        let sampler = Shared::new(TimeSeriesSampler::new(SimDuration::from_millis(500), 256));
        let out = scenario().run_observed::<Mnp>(
            |_| {},
            Instruments {
                observers: Vec::new(),
                sampler: Some(sampler.clone()),
            },
        );
        assert!(out.completed);
        let dump = sampler.borrow().dump_jsonl();
        dump
    };
    assert_eq!(run(), run());
}

/// Process CPU time (user + system) in clock ticks from
/// `/proc/self/stat`, or `None` off Linux. Unlike wall time, CPU time is
/// immune to descheduling on busy shared runners — the dominant noise
/// source for this measurement.
fn cpu_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The comm field may contain spaces; fields resume after the last ')'.
    let rest = stat.rsplit_once(')')?.1;
    let mut fields = rest.split_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The acceptance budget from DESIGN.md §12: with the default stride and
/// the sampler attached, enabling the profiler costs at most 5% of
/// events/s on the 50×50 grid. Timing-sensitive, so ignored by
/// default — run explicitly with
/// `cargo test --release --test observability -- --ignored`.
#[test]
#[ignore = "timing measurement; run explicitly in release"]
fn profiler_overhead_stays_within_the_five_percent_budget() {
    let scenario = GridExperiment::new(50, 50, 10.0).segments(1).seed(42);
    let run_once = |enabled: bool| {
        profile::reset();
        profile::set_stride(profile::DEFAULT_STRIDE);
        profile::set_enabled(enabled);
        let sampler = Shared::new(TimeSeriesSampler::new(SimDuration::from_millis(500), 4096));
        let wall_start = std::time::Instant::now();
        let cpu_start = cpu_ticks();
        let out = scenario.run_observed::<Mnp>(
            |_| {},
            Instruments {
                observers: Vec::new(),
                sampler: Some(sampler),
            },
        );
        let cost = match (cpu_start, cpu_ticks()) {
            (Some(a), Some(b)) => (b - a) as f64,
            _ => wall_start.elapsed().as_secs_f64(),
        };
        profile::set_enabled(false);
        assert!(out.completed);
        cost
    };
    // Run adjacent off/on pairs and take the median pair ratio: pairing
    // keeps each comparison inside one machine-state window (frequency
    // scaling and thermal drift move slower than a pair), and the median
    // discards the pairs a descheduling spike lands on.
    run_once(false); // warm-up (page cache, allocator pools)
    let mut ratios: Vec<f64> = (0..8)
        .map(|_| {
            let off = run_once(false);
            let on = run_once(true);
            on / off
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let median = (ratios[3] + ratios[4]) / 2.0;
    let overhead_pct = (median - 1.0) * 100.0;
    eprintln!("pair ratios {ratios:.3?}: median overhead {overhead_pct:.2}%");
    assert!(
        overhead_pct <= 5.0,
        "profiler overhead {overhead_pct:.2}% exceeds the 5% budget ({ratios:.3?})"
    );
}
