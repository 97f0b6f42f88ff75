//! Simulator throughput: contacts processed per second for the QCR
//! policy and a pinned allocation, on the paper's §6.2 system size.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

use impatience_core::demand::Popularity;
use impatience_core::prelude::{dominant, uniform};
use impatience_core::utility::{DelayUtility, Step};
use impatience_obs::{JsonlSink, Recorder, TallySink};
use impatience_sim::config::{ContactSource, SimConfig};
use impatience_sim::engine::{run_trial, run_trial_observed};
use impatience_sim::policy::PolicyKind;
use impatience_sim::sharded::run_trial_sharded;

fn setup(duration: f64) -> (SimConfig, ContactSource, u64) {
    let utility: Arc<dyn DelayUtility> = Arc::new(Step::new(10.0));
    let config = SimConfig::builder(50, 5)
        .demand(Popularity::pareto(50, 1.0).demand_rates(1.0))
        .utility(utility)
        .bin(100.0)
        .build();
    let source = ContactSource::homogeneous(50, 0.05, duration);
    // 1225 pairs × 0.05/min × duration contacts expected.
    let contacts = (1_225.0 * 0.05 * duration) as u64;
    (config, source, contacts)
}

fn bench_trial_throughput(c: &mut Criterion) {
    let (config, source, contacts) = setup(1_000.0);
    let mut group = c.benchmark_group("run_trial_50n_1000min");
    group.warm_up_time(Duration::from_millis(800));
    group.measurement_time(Duration::from_secs(3));
    group.sample_size(10);
    group.throughput(Throughput::Elements(contacts));
    group.bench_function("qcr", |b| {
        b.iter(|| black_box(run_trial(&config, &source, PolicyKind::qcr_default(), 1)))
    });
    group.bench_function("static_uni", |b| {
        let policy = PolicyKind::Static {
            label: "UNI",
            counts: uniform(50, 50, 5),
        };
        b.iter(|| black_box(run_trial(&config, &source, policy.clone(), 1)))
    });
    // The starved regime: DOM never serves the catalogue's tail, so about
    // half of all requests stay queued until the horizon.
    group.bench_function("static_dom", |b| {
        let policy = PolicyKind::Static {
            label: "DOM",
            counts: dominant(&config.demand, 50, 5),
        };
        b.iter(|| black_box(run_trial(&config, &source, policy.clone(), 1)))
    });
    group.finish();
}

/// The zero-cost claim, measured. `uninstrumented` is `run_trial` — the
/// public API with every hook monomorphized against `NoopSink` and
/// span probes cold; `noop` drives `run_trial_observed` with an explicit
/// `Recorder::disabled()`, the documented no-op configuration. The CI
/// gate (`ci/check_overhead.py`) holds `noop` within 2 % of
/// `uninstrumented`; they must compile to the same machine code, so a
/// gap means someone broke the static-dispatch design. `noop_profiled`
/// arms the span probes (two monotonic-clock reads per span, including
/// the per-contact spans) — the honest price of `--profile`. `tally`
/// shows counters + histograms, `jsonl` the cost of serializing every
/// event (to an in-memory buffer, so disks don't pollute the
/// comparison).
fn bench_observability_overhead(c: &mut Criterion) {
    let (config, source, contacts) = setup(1_000.0);
    let policy = PolicyKind::qcr_default();
    let mut group = c.benchmark_group("observability_overhead");
    group.warm_up_time(Duration::from_millis(800));
    group.measurement_time(Duration::from_secs(3));
    group.sample_size(10);
    group.throughput(Throughput::Elements(contacts));
    group.bench_function("uninstrumented", |b| {
        b.iter(|| black_box(run_trial(&config, &source, policy.clone(), 1)))
    });
    group.bench_function("noop", |b| {
        b.iter(|| {
            let mut rec = Recorder::disabled();
            black_box(run_trial_observed(
                &config,
                &source,
                policy.clone(),
                1,
                &mut rec,
            ))
        })
    });
    impatience_obs::span::enable();
    group.bench_function("noop_profiled", |b| {
        b.iter(|| black_box(run_trial(&config, &source, policy.clone(), 1)))
    });
    impatience_obs::span::disable();
    // Drain what the armed rows recorded so later benches start clean.
    let _ = impatience_obs::span::take_report();
    group.bench_function("tally", |b| {
        b.iter(|| {
            let mut rec = Recorder::new(TallySink);
            black_box(run_trial_observed(
                &config,
                &source,
                policy.clone(),
                1,
                &mut rec,
            ))
        })
    });
    group.bench_function("jsonl", |b| {
        b.iter(|| {
            let mut rec = Recorder::new(JsonlSink::new(Vec::with_capacity(1 << 20)));
            black_box(run_trial_observed(
                &config,
                &source,
                policy.clone(),
                1,
                &mut rec,
            ))
        })
    });
    group.finish();
}

/// Streaming vs materialized contact pipeline at growing node counts.
///
/// Two rows per population size, both running the identical event loop:
///
/// * `streaming` — the lazy superposition sampler ([`run_trial`]):
///   O(1) trace memory, one `ln` + two bounded draws per contact.
/// * `materialized` — the pre-streaming pipeline: per-pair exponential
///   sequences pushed into one Vec and globally sorted
///   (`poisson_homogeneous`), then replayed. This is what every trial
///   paid before the streaming rewrite.
///
/// The duration shrinks with n so every size processes a comparable
/// number of contacts (~2M, ≈32 MB materialized — deliberately past the
/// cache hierarchy, the regime the streaming path exists for). A pinned
/// allocation keeps per-contact policy work negligible so the rows
/// measure the pipeline, not QCR's decision logic (benchmarked by
/// `run_trial_50n_1000min`). `BENCH_contact_pipeline.json` at the repo
/// root pins the measured baseline.
fn bench_contact_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("contact_pipeline");
    group.warm_up_time(Duration::from_millis(800));
    group.measurement_time(Duration::from_secs(3));
    group.sample_size(10);
    for &n in &[50usize, 200, 1000] {
        let pairs = (n * (n - 1) / 2) as f64;
        let duration = 2_000_000.0 / (pairs * 0.05);
        let utility: Arc<dyn DelayUtility> = Arc::new(Step::new(10.0));
        let config = SimConfig::builder(50, 5)
            .demand(Popularity::pareto(50, 1.0).demand_rates(1.0))
            .utility(utility)
            .bin(duration.min(100.0))
            .build();
        let source = ContactSource::homogeneous(n, 0.05, duration);
        let contacts = (pairs * 0.05 * duration) as u64;
        let policy = PolicyKind::Static {
            label: "UNI",
            counts: uniform(50, n, 5),
        };
        group.throughput(Throughput::Elements(contacts));
        group.bench_function(format!("streaming_n{n}"), |b| {
            b.iter(|| black_box(run_trial(&config, &source, policy.clone(), 1)))
        });
        group.bench_function(format!("materialized_n{n}"), |b| {
            b.iter(|| {
                let mut rng = impatience_core::rng::Xoshiro256::seed_from_u64(1);
                let trace =
                    impatience_traces::gen::poisson_homogeneous(n, 0.05, duration, &mut rng);
                let seed_source = ContactSource::trace(trace);
                black_box(run_trial(&config, &seed_source, policy.clone(), 1))
            })
        });
    }
    group.finish();
}

/// The intra-trial sharded engine at a population the serial engine can
/// also still handle, so the single-thread serial row is a direct
/// reference: `serial` is [`run_trial`] on the identical config/source,
/// `sharded_w{1,2,8}` spread the same trial over 1/2/8 worker threads
/// (bit-identical outputs; only the wall clock may differ). n = 20 000
/// keeps every epoch above the engine's inline threshold so the threaded
/// path is what gets measured. ~2M contacts per trial, matching the
/// `contact_pipeline` rows. On a single-core host the w2/w8 rows measure
/// scheduling overhead, not speedup — read them next to the `host` note
/// in `BENCH_contact_pipeline.json`.
fn bench_sharded_engine(c: &mut Criterion) {
    let n = 20_000usize;
    let mu = 1.67e-5;
    let duration = 600.0;
    let pairs = (n as f64) * (n as f64 - 1.0) / 2.0;
    let contacts = (pairs * mu * duration) as u64;
    let utility: Arc<dyn DelayUtility> = Arc::new(Step::new(10.0));
    let config = SimConfig::builder(50, 5)
        .demand(Popularity::pareto(50, 1.0).demand_rates(1.0))
        .utility(utility)
        .bin(100.0)
        .build();
    let source = ContactSource::homogeneous(n, mu, duration);
    let policy = PolicyKind::qcr_default();
    let mut group = c.benchmark_group("sharded_engine");
    group.warm_up_time(Duration::from_millis(800));
    group.measurement_time(Duration::from_secs(3));
    group.sample_size(10);
    group.throughput(Throughput::Elements(contacts));
    group.bench_function("serial_n20000", |b| {
        b.iter(|| black_box(run_trial(&config, &source, policy.clone(), 1)))
    });
    for workers in [1usize, 2, 8] {
        group.bench_function(format!("sharded_n20000_w{workers}"), |b| {
            b.iter(|| {
                black_box(
                    run_trial_sharded(&config, &source, policy.clone(), 1, workers)
                        .expect("supported configuration"),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_trial_throughput,
    bench_observability_overhead,
    bench_contact_pipeline,
    bench_sharded_engine
);
criterion_main!(benches);
