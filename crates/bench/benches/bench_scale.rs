//! Scale benchmark pieces: the 20×20 end-to-end run that `mnp-run scale`
//! measures, and the isolated allocation-free medium hot path.

use criterion::Criterion;
use mnp_bench::{sim_criterion, BENCH_SEED};
use mnp_experiments::scale::MediumHotLoop;

fn bench(c: &mut Criterion) {
    c.bench_function("scale/20x20-run", |b| {
        b.iter(|| mnp_experiments::scale::measure(20, 20, 1, BENCH_SEED, 1, &|| (0, 0)))
    });
    c.bench_function("scale/medium-hot-loop-1k", |b| {
        let mut hot = MediumHotLoop::new(20, 20, BENCH_SEED);
        // Warm the pools so the measurement sees the steady state.
        for _ in 0..400 {
            hot.round();
        }
        b.iter(|| {
            for _ in 0..1_000 {
                hot.round();
            }
            hot.delivered()
        })
    });
}

fn main() {
    let mut c = sim_criterion();
    bench(&mut c);
    c.final_summary();
}
