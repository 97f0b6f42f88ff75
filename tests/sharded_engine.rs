//! Worker-count bit-identity contracts of the intra-trial sharded
//! engine, mirroring the discipline of `fault_tolerance.rs`: the same
//! seed must produce the identical fault log, welfare trajectory, and
//! event digest at any worker count — fault injection included — the
//! bits must be the ones recorded in `tests/fixtures/pins.tsv`, and the
//! sharded engine must statistically agree with the serial engine on the
//! model they both simulate.

mod pins;

use impatience_core::demand::Popularity;
use impatience_core::solver::fixed::uniform;
use impatience_core::utility::{DelayUtility, Step, UtilityKind};
use impatience_sim::config::{ConfigError, ContactSource, SimConfig};
use impatience_sim::faults::{CacheFaults, Churn, ContactDrop, FaultConfig};
use impatience_sim::policy::PolicyKind;
use impatience_sim::runner::{run_trials, run_trials_sharded};
use impatience_sim::sharded::{run_trial_sharded, ShardedOutcome};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pins::Cell;

/// Worker counts every gate compares with one worker: the CI host's two,
/// a count that divides neither 16 shards nor 8 lanes, one per lane of a
/// round, and more workers than shards.
const WORKER_SWEEP: [usize; 4] = [2, 3, 8, 17];

fn config(faults: Option<FaultConfig>) -> SimConfig {
    config_with(Arc::new(Step::new(15.0)), faults)
}

fn config_with(utility: Arc<dyn DelayUtility>, faults: Option<FaultConfig>) -> SimConfig {
    let mut builder = SimConfig::builder(12, 2)
        .demand(Popularity::pareto(12, 1.0).demand_rates(0.8))
        .utility(utility)
        .bin(100.0)
        .warmup_fraction(0.25);
    if let Some(fc) = faults {
        builder = builder.faults(fc);
    }
    builder.build()
}

fn all_supported_faults() -> FaultConfig {
    FaultConfig {
        seed: 31,
        drop: Some(ContactDrop {
            p: 0.25,
            mean_burst: 3.0,
        }),
        cache: Some(CacheFaults { rate: 0.002 }),
        truncate_fraction: Some(0.9),
        ..FaultConfig::default()
    }
}

fn run(workers: usize, faults: Option<FaultConfig>, seed: u64) -> ShardedOutcome {
    let source = ContactSource::homogeneous(96, 0.01, 1_500.0);
    run_trial_sharded(
        &config(faults),
        &source,
        PolicyKind::qcr_default(),
        seed,
        workers,
    )
    .expect("supported configuration")
}

/// Every observable artifact of a trial is a pure function of the seed,
/// independent of the worker count — the tentpole guarantee, checked
/// with the full supported fault set active.
#[test]
fn worker_count_never_changes_any_bit() {
    for seed in [3, 17] {
        let baseline = run(1, Some(all_supported_faults()), seed);
        assert!(
            !baseline.fault_log.is_empty(),
            "fault injection must be live for the gate to mean anything"
        );
        assert!(baseline.outcome.metrics.contacts_dropped > 0);
        assert!(baseline.contacts_processed > 1_000);
        for workers in WORKER_SWEEP {
            let other = run(workers, Some(all_supported_faults()), seed);
            assert_eq!(
                other.event_digest, baseline.event_digest,
                "{workers} workers"
            );
            assert_eq!(other.fault_log, baseline.fault_log, "{workers} workers");
            assert_eq!(other.contacts_processed, baseline.contacts_processed);
            assert_eq!(
                other.outcome.final_replicas,
                baseline.outcome.final_replicas
            );
            let (m, b) = (&other.outcome.metrics, &baseline.outcome.metrics);
            assert_eq!(m.observed_rate_series(), b.observed_rate_series());
            assert_eq!(m.expected_utility_series(), b.expected_utility_series());
            assert_eq!(m.requests_created, b.requests_created);
            assert_eq!(m.immediate_hits, b.immediate_hits);
            assert_eq!(m.transmissions, b.transmissions);
            assert_eq!(m.unfulfilled, b.unfulfilled);
            assert_eq!(m.mandates_created, b.mandates_created);
            assert_eq!(m.contacts_dropped, b.contacts_dropped);
            assert_eq!(m.cache_faults, b.cache_faults);
        }
    }
}

/// The clean-network path (no fault state at all) must be worker-stable
/// too — it skips the admission code entirely, so it needs its own gate.
#[test]
fn clean_runs_are_worker_stable() {
    let baseline = run(1, None, 11);
    assert!(baseline.fault_log.is_empty());
    for workers in WORKER_SWEEP {
        let other = run(workers, None, 11);
        assert_eq!(other.event_digest, baseline.event_digest);
        assert_eq!(
            other.outcome.metrics.observed_rate_series(),
            baseline.outcome.metrics.observed_rate_series()
        );
    }
}

/// Digest, contact count, transmissions, final replicas and the digests
/// of the bit-exact metrics encoding and of the fault log of three cells,
/// at 1 and 3 workers: a scheduler that reorders two tasks on a shard, or
/// a moved settlement or gain sum, moves them.
fn recorded_cells() -> Vec<Cell> {
    let uni = PolicyKind::Static {
        label: "UNI",
        counts: uniform(12, 96, 2),
    };
    let cells = [
        ("clean QCR", None, PolicyKind::qcr_default(), 11),
        (
            "all supported faults",
            Some(all_supported_faults()),
            PolicyKind::qcr_default(),
            3,
        ),
        ("pinned UNI", None, uni, 5),
    ];
    let source = ContactSource::homogeneous(96, 0.01, 1_500.0);
    let mut pinned = Vec::new();
    for (name, faults, policy, seed) in cells {
        let [one, three] = [1, 3].map(|workers| {
            let out = run_trial_sharded(
                &config(faults.clone()),
                &source,
                policy.clone(),
                seed,
                workers,
            )
            .expect("supported configuration");
            [
                ("digest", pins::hex(out.event_digest)),
                ("contacts", out.contacts_processed.to_string()),
                (
                    "transmissions",
                    out.outcome.metrics.transmissions.to_string(),
                ),
                ("replicas", format!("{:?}", out.outcome.final_replicas)),
                (
                    "metrics",
                    pins::digest(out.outcome.metrics.to_json().to_string().into_bytes()),
                ),
                (
                    "fault_log",
                    pins::digest(format!("{:?}", out.fault_log).into_bytes()),
                ),
            ]
        });
        assert_eq!(three, one, "{name}: 3 workers against 1");
        pinned.extend(one.map(|(field, value)| (format!("{name}, {field}"), value)));
    }
    pinned
}

#[test]
fn outputs_equal_the_recorded_ones() {
    pins::check("sharded", &recorded_cells());
}

/// A horizon that is not a bin multiple (T 60, bin 100), at `workers`.
fn horizon_trial(workers: usize) -> ShardedOutcome {
    let source = ContactSource::homogeneous(96, 0.05, 60.0);
    let faults = FaultConfig {
        seed: 31,
        cache: Some(CacheFaults { rate: 0.01 }),
        ..FaultConfig::default()
    };
    let cfg = config(Some(faults));
    run_trial_sharded(&cfg, &source, PolicyKind::qcr_default(), 3, workers).unwrap()
}

/// The event digest and contact count of the one-worker horizon trial.
fn horizon_cells(out: &ShardedOutcome) -> Vec<Cell> {
    vec![
        ("digest".into(), pins::hex(out.event_digest)),
        ("contacts".into(), out.contacts_processed.to_string()),
    ]
}

/// The trial ends at T, not at the end of the bin. No cache fault is dated
/// past the horizon, and the meetings are the recorded ones (a scheduler
/// that ran the empty epochs fired 29 such faults).
#[test]
fn the_trial_ends_at_the_horizon_not_at_the_end_of_its_bin() {
    let out = horizon_trial(1);
    pins::check("horizon", &horizon_cells(&out));
    assert!(!out.fault_log.is_empty(), "cache faults must be live");
    let late: Vec<_> = out.fault_log.iter().filter(|r| r.time > 60.0).collect();
    assert!(late.is_empty(), "faults after the horizon: {late:?}");
    let wide = horizon_trial(3);
    assert_eq!(wide.fault_log, out.fault_log);
    assert_eq!(wide.outcome.final_replicas, out.outcome.final_replicas);
}

/// Rewrites this binary's rows of the pin table from the tree.
#[test]
#[ignore = "rewrites tests/fixtures/pins.tsv"]
fn record_pins() {
    pins::record(&[
        ("sharded", recorded_cells()),
        ("horizon", horizon_cells(&horizon_trial(1))),
    ]);
}

/// `Step(15)` whose `h_batch` — called once per admitted meeting, from
/// whichever worker runs the task — panics on its `fuse`-th call.
struct Exploding {
    inner: Step,
    calls: AtomicUsize,
    fuse: usize,
}

impl DelayUtility for Exploding {
    fn h(&self, t: f64) -> f64 {
        self.inner.h(t)
    }
    fn h_zero(&self) -> f64 {
        self.inner.h_zero()
    }
    fn h_infinity(&self) -> f64 {
        self.inner.h_infinity()
    }
    fn gain(&self, lambda: f64) -> f64 {
        self.inner.gain(lambda)
    }
    fn phi(&self, x: f64, mu: f64) -> f64 {
        self.inner.phi(x, mu)
    }
    fn kind(&self) -> UtilityKind {
        self.inner.kind()
    }
    fn h_batch(&self, waits: &[f64], out: &mut Vec<f64>) {
        if self.calls.fetch_add(1, Ordering::Relaxed) + 1 == self.fuse {
            panic!("h_batch blew its fuse");
        }
        self.inner.h_batch(waits, out)
    }
}

/// A task that panics fails the trial with its own message; it does not
/// leave the other workers waiting on step counters that will never
/// advance. The campaign runner's panic isolation relies on the unwind.
#[test]
fn a_panicking_task_fails_the_trial_instead_of_hanging_it() {
    for workers in [2, 3] {
        let trial = std::thread::spawn(move || {
            let exploding = Exploding {
                inner: Step::new(15.0),
                calls: AtomicUsize::new(0),
                fuse: 20_000,
            };
            let cfg = config_with(Arc::new(exploding), None);
            let source = ContactSource::homogeneous(96, 0.01, 1_500.0);
            run_trial_sharded(&cfg, &source, PolicyKind::qcr_default(), 11, workers)
                .map(|out| out.contacts_processed)
        });
        let deadline = Instant::now() + Duration::from_secs(60);
        while !trial.is_finished() {
            assert!(
                Instant::now() < deadline,
                "{workers} workers: the trial hung"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let panic = trial.join().expect_err("the trial must not complete");
        let message = panic
            .downcast_ref::<&str>()
            .expect("the panic payload is the task's own");
        assert_eq!(*message, "h_batch blew its fuse", "{workers} workers");
    }
}

/// The batch runner's cross-trial aggregate (rates, series, digests)
/// inherits the per-trial guarantee.
#[test]
fn batch_aggregate_is_worker_stable() {
    let source = ContactSource::homogeneous(64, 0.01, 1_000.0);
    let cfg = config(Some(all_supported_faults()));
    let policy = PolicyKind::qcr_default();
    let base = run_trials_sharded(&cfg, &source, &policy, 4, 99, Some(1)).unwrap();
    let wide = run_trials_sharded(&cfg, &source, &policy, 4, 99, Some(8)).unwrap();
    assert_eq!(base.event_digests, wide.event_digests);
    assert_eq!(base.fault_events, wide.fault_events);
    assert_eq!(base.contacts_processed, wide.contacts_processed);
    assert_eq!(base.aggregate.rates, wide.aggregate.rates);
    assert_eq!(
        base.aggregate.observed_series,
        wide.aggregate.observed_series
    );
    assert_eq!(
        base.aggregate.mean_final_replicas,
        wide.aggregate.mean_final_replicas
    );
    assert!(base.fault_events > 0);
}

/// Sharded and serial engines sample different realizations of the same
/// stochastic model, so their trial-averaged welfare must agree within
/// sampling noise (they share demand, utility, population, and μ).
#[test]
fn sharded_welfare_agrees_with_the_serial_engine() {
    let cfg = config(None);
    let source = ContactSource::homogeneous(96, 0.01, 1_500.0);
    let policy = PolicyKind::qcr_default();
    let serial = run_trials(&cfg, &source, &policy, 10, 1234);
    let sharded = run_trials_sharded(&cfg, &source, &policy, 10, 1234, Some(2)).unwrap();
    let (a, b) = (serial.mean_rate, sharded.aggregate.mean_rate);
    assert!(a > 0.0 && b > 0.0);
    let rel = (a - b).abs() / a.max(b);
    assert!(
        rel < 0.12,
        "serial {a:.4} vs sharded {b:.4} utility/min differ by {:.1}%",
        rel * 100.0
    );
}

/// Configurations the sharded engine cannot honor are rejected up front
/// with the dedicated error, not silently approximated.
#[test]
fn unsupported_configurations_error_cleanly() {
    let source = ContactSource::homogeneous(64, 0.01, 1_000.0);
    let churny = config(Some(FaultConfig {
        churn: Some(Churn {
            mean_up: 200.0,
            mean_down: 40.0,
        }),
        ..FaultConfig::default()
    }));
    let err = run_trials_sharded(&churny, &source, &PolicyKind::qcr_default(), 1, 7, Some(2))
        .unwrap_err();
    assert!(matches!(err, ConfigError::UnsupportedSharded { .. }));
    assert!(err.to_string().contains("sharded engine"), "{err}");
}
