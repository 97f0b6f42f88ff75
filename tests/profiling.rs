//! Profiling-layer integration tests: span-nesting invariants
//! (property-based), bit-identical simulation results with profiling on
//! vs off across worker counts, Prometheus exposition round-trips, and
//! `trace diff` over the committed fixture traces.

use std::path::Path;

use impatience_core::demand::Popularity;
use impatience_core::utility::Step;
use impatience_obs::span::{LocalProfiler, PhaseAgg};
use impatience_obs::{
    parse_prometheus, render_diff, Histogram, MetricsRegistry, Recorder, TallySink, TraceSummary,
};
use impatience_sim::config::{ContactSource, SimConfig};
use impatience_sim::policy::PolicyKind;
use impatience_sim::runner::{
    run_campaigns, run_trials_observed_with_workers, CampaignOptions, TrialAggregate,
};
use impatience_traces::ContactStream;

use proptest::prelude::*;

// ---------------------------------------------------------------- spans

/// Drive a [`LocalProfiler`] through a push/pop script with explicit
/// per-span own-costs, so each parent's elapsed time is its own cost
/// plus the (exact) sum of its children's elapsed times. Returns the
/// aggregate and the number of spans closed.
fn run_script(actions: &[bool], costs: &[f64]) -> (PhaseAgg, usize) {
    const NAMES: [&str; 4] = ["alpha", "beta", "gamma", "delta"];
    let mut prof = LocalProfiler::new();
    // Stack of (span id, own cost, accumulated child elapsed).
    let mut stack: Vec<(usize, f64, f64)> = Vec::new();
    let mut closed = 0usize;
    let mut pop = |prof: &mut LocalProfiler, stack: &mut Vec<(usize, f64, f64)>| {
        let (id, own, child_sum) = stack.pop().unwrap();
        let elapsed = own + child_sum;
        prof.exit(id, elapsed);
        if let Some(top) = stack.last_mut() {
            top.2 += elapsed;
        }
        closed += 1;
    };
    for (i, &push) in actions.iter().enumerate() {
        if push && stack.len() < 6 {
            let name = NAMES[i % NAMES.len()];
            let id = prof.enter(name);
            stack.push((id, costs[i % costs.len()], 0.0));
        } else if !stack.is_empty() {
            pop(&mut prof, &mut stack);
        }
    }
    while !stack.is_empty() {
        pop(&mut prof, &mut stack);
    }
    (prof.aggregate(), closed)
}

proptest! {
    /// In any well-nested span tree, every phase's self time is
    /// non-negative (children never account for more than their parent's
    /// wall) and the percentile ladder is ordered.
    #[test]
    fn span_self_time_never_exceeds_wall(
        actions in proptest::collection::vec((0usize..2).prop_map(|x| x == 1), 1..120),
        costs in proptest::collection::vec(1e-6f64..0.5, 4),
    ) {
        let (agg, closed) = run_script(&actions, &costs);
        let report = agg.report();
        let total_calls: u64 = report.phases.iter().map(|p| p.calls).sum();
        prop_assert_eq!(total_calls as usize, closed);
        for phase in &report.phases {
            // Elapsed times were constructed exactly as own + children,
            // so self_s must recover `own * calls` up to float error.
            prop_assert!(
                phase.self_s >= -1e-9,
                "negative self time {} for {}", phase.self_s, phase.path
            );
            prop_assert!(phase.self_s <= phase.wall_s + 1e-9);
            // Percentile ladder is ordered whenever it is populated.
            let (p50, p95, max) = (phase.p50_s, phase.p95_s, phase.max_s);
            prop_assert!(p50.is_some() && p95.is_some() && max.is_some());
            prop_assert!(p50.unwrap() <= p95.unwrap() + 1e-9);
            // p95 comes from histogram buckets whose upper edge can
            // overshoot the exact max, so only sanity-bound it.
            prop_assert!(p95.unwrap() >= 0.0);
            prop_assert!(phase.wall_s >= max.unwrap() - 1e-9);
        }
    }

    /// Merging worker aggregates is associative: (A ∪ B) ∪ C and
    /// A ∪ (B ∪ C) report the same phases, calls, and wall times. This is
    /// what makes the drained per-thread profiles order-independent.
    #[test]
    fn span_merge_is_associative(
        records in proptest::collection::vec(
            (0usize..5, 1e-6f64..1.0), 0..40
        ),
        cut1 in 0usize..40,
        cut2 in 0usize..40,
    ) {
        const PATHS: [&str; 5] =
            ["trial", "trial/contact", "trial/contact/exchange", "solve.greedy", "merge"];
        let (lo, hi) = (cut1.min(cut2), cut1.max(cut2));
        let mut parts = [PhaseAgg::new(), PhaseAgg::new(), PhaseAgg::new()];
        for (i, &(p, w)) in records.iter().enumerate() {
            let slot = if i < lo.min(records.len()) { 0 } else if i < hi.min(records.len()) { 1 } else { 2 };
            parts[slot].record(PATHS[p], w);
        }
        let [a, b, c] = parts;

        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);

        let (lr, rr) = (left.report(), right.report());
        prop_assert_eq!(lr.phases.len(), rr.phases.len());
        for (l, r) in lr.phases.iter().zip(rr.phases.iter()) {
            prop_assert_eq!(&l.path, &r.path);
            prop_assert_eq!(l.calls, r.calls);
            prop_assert!((l.wall_s - r.wall_s).abs() <= 1e-12 * l.wall_s.abs().max(1.0));
            prop_assert!((l.self_s - r.self_s).abs() <= 1e-12 * l.self_s.abs().max(1.0));
        }
    }
}

// ---------------------------------------------------- bit-identity

/// Span collection is process-wide: the tests that arm it take turns.
static ARMED: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn small_setting() -> (SimConfig, ContactSource, PolicyKind) {
    let items = 12;
    let config = SimConfig::builder(items, 3)
        .demand(Popularity::pareto(items, 1.0).demand_rates(1.0))
        .utility(std::sync::Arc::new(Step::new(10.0)))
        .bin(60.0)
        .warmup_fraction(0.25)
        .build();
    let source = ContactSource::homogeneous(20, 0.05, 600.0);
    (config, source, PolicyKind::qcr_default())
}

fn run_aggregate(workers: usize) -> TrialAggregate {
    let (config, source, policy) = small_setting();
    let mut rec = Recorder::new(TallySink);
    run_trials_observed_with_workers(&config, &source, &policy, 6, 42, Some(workers), &mut rec)
}

fn fingerprint(agg: &TrialAggregate) -> Vec<u64> {
    let mut bits: Vec<u64> = agg.rates.iter().map(|r| r.to_bits()).collect();
    bits.push(agg.mean_rate.to_bits());
    bits.push(agg.mean_transmissions.to_bits());
    bits.push(agg.mean_unfulfilled.to_bits());
    bits.extend(agg.observed_series.iter().map(|r| r.to_bits()));
    bits.extend(agg.mean_final_replicas.iter().map(|r| r.to_bits()));
    bits
}

/// Span probes must be observation-only: enabling the profiler cannot
/// change a single output bit, at any worker count. (Spans live on the
/// side of the RNG and event paths; this is the regression gate for
/// anyone tempted to thread profiling state into the simulation.)
#[test]
fn profiling_on_off_bit_identical_across_workers() {
    let _armed = ARMED.lock().unwrap_or_else(|e| e.into_inner());
    let baseline = fingerprint(&run_aggregate(1));
    for workers in [1usize, 2, 8] {
        let off = fingerprint(&run_aggregate(workers));
        impatience_obs::span::enable();
        let on = fingerprint(&run_aggregate(workers));
        impatience_obs::span::disable();
        // Drain whatever the profiled run recorded so later tests (and
        // reruns) start clean.
        let report = impatience_obs::span::take_aggregate().report();
        assert_eq!(off, on, "profiling changed results at {workers} workers");
        assert_eq!(off, baseline, "results depend on worker count {workers}");
        assert!(
            report.phases.iter().any(|p| p.path == "trial"),
            "profiled run should have recorded trial spans"
        );
    }
}

/// Every contact a lane meets at is timed under `trial/contact`, with its
/// exchange and policy step beneath it, whichever way the lane's driver
/// reached the meeting: on a fixed-seed trial of three lanes, each of
/// the three paths counts lanes × admitted contacts calls.
#[test]
fn lane_spans_count_every_admitted_contact() {
    let _armed = ARMED.lock().unwrap_or_else(|e| e.into_inner());
    let (config, _, qcr) = small_setting();
    let rng = impatience_core::rng::Xoshiro256::seed_from_u64(17);
    let trace = ContactStream::poisson(20, 0.05, 600.0, rng).collect_trace();
    // No fault model: every contact of the trace is admitted.
    let admitted = trace.events().len() as u64;
    let source = ContactSource::trace(trace);
    let uni = PolicyKind::Static {
        label: "UNI",
        counts: impatience_core::prelude::uniform(config.items, 20, config.rho),
    };
    let hill = PolicyKind::HillClimb {
        moves_per_contact: 1,
    };
    let lanes = [(&qcr, None), (&uni, None), (&hill, None)];
    let options = CampaignOptions {
        workers: Some(1),
        ..CampaignOptions::default()
    };
    let mut rec = Recorder::new(TallySink);
    let _ = impatience_obs::span::take_aggregate();
    impatience_obs::span::enable();
    let outcomes = run_campaigns(&config, &source, &lanes, 1, 42, &options, &mut rec);
    impatience_obs::span::disable();
    let report = impatience_obs::span::take_aggregate().report();
    assert!(outcomes.unwrap().iter().all(Result::is_ok));
    let want = lanes.len() as u64 * admitted;
    assert_eq!(rec.counters.get("contacts"), want);
    for path in [
        "trial/contact",
        "trial/contact/exchange",
        "trial/contact/policy",
    ] {
        let calls = report
            .phases
            .iter()
            .find(|p| p.path == path)
            .map_or(0, |p| p.calls);
        assert_eq!(calls, want, "{path}");
    }
}

// ---------------------------------------------------- prometheus

/// A trace's exposition says what its summary says: the samples parsed
/// back from `trace_a.jsonl`'s registry carry the summary's own event
/// counts per kind, trial count and `solver/greedy` wall. And one
/// labelled histogram series renders to pinned text, so the
/// power-of-two edge grid, the cumulative counts and the label order
/// cannot drift.
#[test]
fn prometheus_exposition_round_trips() {
    let summary = TraceSummary::from_file(Path::new("tests/fixtures/trace_a.jsonl")).unwrap();
    let text = summary.to_registry().render();
    let samples = parse_prometheus(&text).expect("our own exposition must parse");
    let value = |name: &str, labels: &[(&str, &str)]| -> f64 {
        let hits: Vec<f64> = samples
            .iter()
            .filter(|s| {
                s.name == name
                    && s.labels.len() == labels.len()
                    && s.labels
                        .iter()
                        .zip(labels)
                        .all(|(a, b)| (a.0.as_str(), a.1.as_str()) == *b)
            })
            .map(|s| s.value)
            .collect();
        assert_eq!(hits.len(), 1, "one {name} {labels:?} sample in:\n{text}");
        hits[0]
    };
    let per_kind = samples
        .iter()
        .filter(|s| s.name == "impatience_trace_events_total")
        .count();
    assert_eq!(per_kind, summary.events.len());
    for (kind, &count) in &summary.events {
        assert_eq!(
            value("impatience_trace_events_total", &[("kind", kind)]),
            count as f64
        );
    }
    let trials = summary.events["trial_done"];
    assert_eq!(trials, 2);
    assert_eq!(value("impatience_trace_trials_total", &[]), trials as f64);
    let report = summary.spans.report();
    let greedy = report
        .phases
        .iter()
        .find(|p| p.path == "solver/greedy")
        .expect("fixture A has a greedy solve");
    assert_eq!(greedy.wall_s, 0.002);
    let path = [("path", "solver/greedy")];
    assert_eq!(
        value("impatience_span_wall_seconds_total", &path),
        greedy.wall_s
    );
    assert_eq!(
        value("impatience_span_calls_total", &path),
        greedy.calls as f64
    );

    let mut hist = Histogram::new(1024.0, 1024);
    for v in [0.5, 1.5, 3.0, 100.25, 2000.0] {
        hist.record(v);
    }
    let mut registry = MetricsRegistry::new();
    registry.histogram_observe(
        "lat_ms",
        "Latency.",
        &[("path", "a\"b"), ("kind", "x")],
        &hist,
    );
    let expected = r#"# HELP lat_ms Latency.
# TYPE lat_ms histogram
lat_ms_bucket{kind="x",path="a\"b",le="1"} 1
lat_ms_bucket{kind="x",path="a\"b",le="2"} 2
lat_ms_bucket{kind="x",path="a\"b",le="4"} 3
lat_ms_bucket{kind="x",path="a\"b",le="8"} 3
lat_ms_bucket{kind="x",path="a\"b",le="16"} 3
lat_ms_bucket{kind="x",path="a\"b",le="32"} 3
lat_ms_bucket{kind="x",path="a\"b",le="64"} 3
lat_ms_bucket{kind="x",path="a\"b",le="128"} 4
lat_ms_bucket{kind="x",path="a\"b",le="256"} 4
lat_ms_bucket{kind="x",path="a\"b",le="512"} 4
lat_ms_bucket{kind="x",path="a\"b",le="1024"} 4
lat_ms_bucket{kind="x",path="a\"b",le="+Inf"} 5
lat_ms_sum{kind="x",path="a\"b"} 2105.25
lat_ms_count{kind="x",path="a\"b"} 5
"#;
    assert_eq!(registry.render(), expected);
}

// ---------------------------------------------------- trace diff

/// `trace diff` over the two committed fixtures: counts line up, kinds
/// present in only one trace are flagged in both directions.
#[test]
fn trace_diff_on_committed_fixtures() {
    let a = TraceSummary::from_file(Path::new("tests/fixtures/trace_a.jsonl")).unwrap();
    let b = TraceSummary::from_file(Path::new("tests/fixtures/trace_b.jsonl")).unwrap();
    assert_eq!(a.parse_errors, 0);
    assert_eq!(b.parse_errors, 0);
    assert_eq!(a.total_events(), 11);
    assert_eq!(b.total_events(), 8);

    let diff = render_diff(&a, &b, "A", "B");
    assert!(diff.contains("scenario"), "{diff}");
    assert!(diff.contains("(new in B)"), "{diff}");
    assert!(diff.contains("fulfillment"), "{diff}");
    assert!(diff.contains("(missing in B)"), "{diff}");
    // contact: 3 in A, 1 in B.
    assert!(diff.contains("-2"), "{diff}");

    // The reconstructed span tree sees the solver_done events.
    assert!(
        a.spans
            .report()
            .phases
            .iter()
            .any(|p| p.path == "solver/greedy"),
        "fixture A should reconstruct a solver span"
    );
}
