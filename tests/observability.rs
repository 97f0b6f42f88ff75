//! Cross-crate observability contracts: histogram quantiles vs the exact
//! runner percentile, counter merge algebra, JSONL parseability, and
//! manifest consistency with the simulator's own metrics.

use age_of_impatience::obs::{
    percentile, Counters, Event, Histogram, JsonlSink, Manifest, MemorySink, Recorder, TallySink,
};
use age_of_impatience::prelude::*;
use impatience_core::demand::Popularity;
use impatience_core::utility::Step;
use impatience_json::Json;
use proptest::prelude::*;
use std::sync::Arc;

fn small_sim() -> (SimConfig, ContactSource) {
    let config = SimConfig::builder(10, 2)
        .demand(Popularity::pareto(10, 1.0).demand_rates(0.5))
        .utility(Arc::new(Step::new(10.0)))
        .bin(100.0)
        .build();
    let source = ContactSource::homogeneous(10, 0.08, 1_000.0);
    (config, source)
}

/// The histogram's nearest-rank quantile must agree with the exact
/// `percentile` (the runner's bands) on identical samples, up to one
/// bucket width.
#[test]
fn histogram_quantiles_match_runner_percentile() {
    let samples: Vec<f64> = (0..997).map(|i| ((i * 193) % 1000) as f64 / 7.0).collect();
    let range = 160.0;
    let buckets = 16_000; // width 0.01
    let mut h = Histogram::new(range, buckets);
    for &s in &samples {
        h.record(s);
    }
    let width = range / buckets as f64;
    for q in [0.05, 0.25, 0.5, 0.75, 0.95, 0.99] {
        let exact = percentile(&samples, q);
        let approx = h.quantile(q).unwrap();
        assert!(
            (exact - approx).abs() <= width + 1e-9,
            "q={q}: exact {exact} vs histogram {approx} (width {width})"
        );
    }
}

/// Overflow samples must not corrupt the quantiles below the range.
#[test]
fn histogram_quantiles_with_overflow_match_runner_percentile() {
    let mut samples: Vec<f64> = (0..90).map(|i| i as f64).collect();
    samples.extend((0..10).map(|i| 500.0 + i as f64)); // beyond range
    let mut h = Histogram::new(100.0, 10_000);
    for &s in &samples {
        h.record(s);
    }
    assert_eq!(h.overflow_count(), 10);
    let p50 = h.p50().unwrap();
    assert!((p50 - percentile(&samples, 0.5)).abs() <= 0.01 + 1e-9);
    // p95 lands among the overflow samples: resolves to the exact max.
    assert_eq!(h.p95(), Some(509.0));
}

/// A live simulation's delay histogram must agree with the exact
/// percentiles of the waits it recorded (the manifest-vs-Metrics
/// consistency check of the CLI, done in-process).
#[test]
fn recorded_delay_percentiles_match_event_stream() {
    let (config, source) = small_sim();
    let mut rec = Recorder::new(MemorySink::new());
    let outcome = run_trial_observed(&config, &source, PolicyKind::qcr_default(), 9, &mut rec);

    let waits: Vec<f64> = rec
        .sink()
        .events
        .iter()
        .filter_map(|e| match e {
            Event::Fulfillment { wait, .. } => Some(*wait),
            _ => None,
        })
        .collect();
    assert!(!waits.is_empty(), "expected contact fulfillments");
    assert_eq!(waits.len() as u64, rec.delay.count());

    // Bucket width of the default shape: 4096 / 4096 = 1 minute.
    for q in [0.5, 0.95] {
        let exact = percentile(&waits, q);
        let approx = rec.delay.quantile(q).unwrap();
        assert!(
            (exact - approx).abs() <= 1.0 + 1e-9,
            "q={q}: exact {exact} vs histogram {approx}"
        );
    }

    // And the tallies agree with the simulator's own metrics.
    assert_eq!(
        rec.counters.get("immediate_hits"),
        outcome.metrics.immediate_hits
    );
    assert_eq!(rec.counters.get("unfulfilled"), outcome.metrics.unfulfilled);
    assert_eq!(
        rec.counters.get("fulfillments") + rec.counters.get("immediate_hits"),
        outcome.metrics.fulfillments()
    );
}

/// Every event a simulation emits serializes to a parseable JSONL line
/// whose "ev" tag matches the event kind.
#[test]
fn simulation_event_stream_is_parseable_jsonl() {
    let (config, source) = small_sim();
    let mut rec = Recorder::new(JsonlSink::new(Vec::new()));
    let _ = run_trial_observed(&config, &source, PolicyKind::qcr_default(), 3, &mut rec);
    let bytes = rec
        .into_sink()
        .into_inner()
        .expect("no I/O errors on a Vec");
    let text = String::from_utf8(bytes).unwrap();
    let mut kinds = std::collections::BTreeSet::new();
    let mut lines = 0usize;
    for line in text.lines() {
        let v = Json::parse(line).unwrap_or_else(|e| panic!("bad JSONL line {line:?}: {e}"));
        let ev = v
            .get("ev")
            .and_then(Json::as_str)
            .expect("every record has an ev tag");
        kinds.insert(ev.to_string());
        lines += 1;
    }
    assert!(
        lines > 100,
        "a 1000-minute trial should emit plenty of events"
    );
    for expected in [
        "contact",
        "request",
        "fulfillment",
        "replication",
        "trial_done",
    ] {
        assert!(
            kinds.contains(expected),
            "missing event kind {expected} in {kinds:?}"
        );
    }
}

/// Manifests round-trip through the JSON parser and keep provenance.
#[test]
fn manifest_roundtrips_with_summary() {
    let (config, source) = small_sim();
    let mut rec = Recorder::new(TallySink);
    let _ = run_trial_observed(&config, &source, PolicyKind::qcr_default(), 5, &mut rec);

    let mut m = Manifest::new("test-run");
    m.set("base_seed", 5u64);
    m.set("stats", rec.summary_json());
    let text = m.to_json().to_string();
    let parsed = Json::parse(&text).unwrap();
    assert_eq!(parsed.get("kind").and_then(Json::as_str), Some("test-run"));
    let delay_count = parsed
        .get("stats")
        .and_then(|s| s.get("fulfillment_delay"))
        .and_then(|d| d.get("count"))
        .and_then(Json::as_u64)
        .unwrap();
    assert_eq!(delay_count, rec.delay.count());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The parallel observed batch (sharded per-trial recorders, merged
    /// in trial order) must reproduce the tallies of a plain serial loop
    /// over the same seeds: counters and peaks bit-for-bit, histogram
    /// bucket counts / extrema / quantiles exactly, means to float
    /// round-off (the merge adds per-trial partial sums in a different
    /// association order than serial recording).
    #[test]
    fn sharded_observed_batch_matches_serial_recorder(
        trials in 1usize..5,
        base_seed in 0u64..500,
    ) {
        let (config, source) = small_sim();
        let policy = PolicyKind::qcr_default();

        let mut serial = Recorder::new(TallySink);
        for k in 0..trials {
            let _ = run_trial_observed(
                &config, &source, policy.clone(), base_seed + k as u64, &mut serial,
            );
        }

        let mut sharded = Recorder::new(TallySink);
        let agg = impatience_sim::runner::run_trials_observed_with_workers(
            &config, &source, &policy, trials, base_seed, None, &mut sharded,
        );
        prop_assert_eq!(agg.trials, trials);

        prop_assert_eq!(&sharded.counters, &serial.counters);
        prop_assert_eq!(&sharded.peaks, &serial.peaks);
        for (merged, reference) in [
            (&sharded.delay, &serial.delay),
            (&sharded.inter_contact, &serial.inter_contact),
        ] {
            prop_assert_eq!(merged.count(), reference.count());
            prop_assert_eq!(merged.min(), reference.min());
            prop_assert_eq!(merged.max(), reference.max());
            for q in [0.05, 0.5, 0.95] {
                prop_assert_eq!(merged.quantile(q), reference.quantile(q));
            }
            match (merged.mean(), reference.mean()) {
                (Some(a), Some(b)) => prop_assert!(
                    (a - b).abs() <= 1e-12 * b.abs().max(1.0),
                    "means diverged: {} vs {}", a, b
                ),
                (a, b) => prop_assert_eq!(a, b),
            }
        }
    }
}

proptest! {
    /// Counter merging is associative and commutative: any grouping of
    /// per-worker tallies folds to the same totals.
    #[test]
    fn counter_merge_is_associative(
        ops in proptest::collection::vec((0u32..4, 1u64..1000), 0..60),
        split_a in 0usize..61,
        split_b in 0usize..61,
    ) {
        const NAMES: [&str; 4] = ["contacts", "fulfillments", "requests", "transmissions"];
        let build = |slice: &[(u32, u64)]| {
            let mut c = Counters::new();
            for &(name, amount) in slice {
                c.add(NAMES[name as usize], amount);
            }
            c
        };
        let a = split_a.min(ops.len());
        let b = split_b.min(ops.len());
        let (lo, hi) = (a.min(b), a.max(b));

        // ((x ⊕ y) ⊕ z)
        let mut left = build(&ops[..lo]);
        left.merge(&build(&ops[lo..hi]));
        left.merge(&build(&ops[hi..]));
        // (x ⊕ (y ⊕ z))
        let mut right_tail = build(&ops[lo..hi]);
        right_tail.merge(&build(&ops[hi..]));
        let mut right = build(&ops[..lo]);
        right.merge(&right_tail);
        // z ⊕ y ⊕ x (commuted)
        let mut commuted = build(&ops[hi..]);
        commuted.merge(&build(&ops[lo..hi]));
        commuted.merge(&build(&ops[..lo]));

        let flat = build(&ops);
        for name in NAMES {
            prop_assert_eq!(left.get(name), flat.get(name));
            prop_assert_eq!(right.get(name), flat.get(name));
            prop_assert_eq!(commuted.get(name), flat.get(name));
        }
    }

    /// Histogram quantiles track the exact percentile within one bucket
    /// width for arbitrary in-range samples.
    #[test]
    fn histogram_tracks_percentile_for_random_samples(
        samples in proptest::collection::vec(0.0f64..100.0, 1..200),
        q in 0.01f64..1.0,
    ) {
        let mut h = Histogram::new(100.0, 1000); // width 0.1
        for &s in &samples {
            h.record(s);
        }
        let exact = percentile(&samples, q);
        let approx = h.quantile(q).unwrap();
        prop_assert!(
            (exact - approx).abs() <= 0.1 + 1e-9,
            "q={}: exact {} vs {}", q, exact, approx
        );
    }
}
