//! The full trace pipeline, end to end: mobility → geometric contacts →
//! statistics → (re)synthesis → on-disk round-trip → simulation.

use age_of_impatience::prelude::*;
use impatience_core::demand::DemandProfile;
use impatience_core::rng::Xoshiro256;
use impatience_core::utility::DelayUtility;
use impatience_core::welfare::HeterogeneousSystem;
use impatience_sim::config::SimConfig;
use impatience_sim::policy::PolicyKind;
use impatience_traces::gen::ConferenceConfig;
use impatience_traces::{read_trace, read_trace_json, write_trace, write_trace_json};
use std::sync::Arc;

fn small_conference(rng: &mut Xoshiro256) -> ContactTrace {
    ConferenceConfig {
        nodes: 20,
        duration: 2.0 * 1_440.0,
        ..ConferenceConfig::default()
    }
    .generate(rng)
}

#[test]
fn vehicular_pipeline_generates_simulatable_contacts() {
    let mut rng = Xoshiro256::seed_from_u64(1);
    let trace = VehicularConfig {
        cabs: 12,
        duration: 240.0,
        city_size: 2_500.0,
        sample_step: 0.5,
        ..VehicularConfig::default()
    }
    .generate(&mut rng);
    assert!(trace.len() > 5, "taxis never met");

    let utility: Arc<dyn DelayUtility> = Arc::new(Step::new(30.0));
    let config = SimConfig::builder(10, 2)
        .demand(Popularity::pareto(10, 1.0).demand_rates(0.5))
        .profile(DemandProfile::uniform(10, trace.nodes()))
        .utility(utility)
        .bin(60.0)
        .build();
    let source = ContactSource::trace(trace);
    let agg = run_trials(&config, &source, &PolicyKind::qcr_default(), 3, 2);
    assert!(agg.mean_rate.is_finite());
}

#[test]
fn trace_files_round_trip_in_both_formats() {
    let mut rng = Xoshiro256::seed_from_u64(2);
    let trace = poisson_homogeneous(8, 0.1, 300.0, &mut rng);

    let mut text = Vec::new();
    write_trace(&trace, &mut text).unwrap();
    let from_text = read_trace(text.as_slice()).unwrap();
    assert_eq!(trace, from_text);

    let mut json = Vec::new();
    write_trace_json(&trace, &mut json).unwrap();
    let from_json = read_trace_json(json.as_slice()).unwrap();
    assert_eq!(trace, from_json);
}

#[test]
fn trace_written_to_disk_feeds_a_simulation() {
    let dir = std::env::temp_dir().join("impatience-trace-pipeline-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("conf.trace");

    let mut rng = Xoshiro256::seed_from_u64(3);
    let original = small_conference(&mut rng);
    write_trace(&original, std::fs::File::create(&path).unwrap()).unwrap();
    let loaded = read_trace(std::fs::File::open(&path).unwrap()).unwrap();
    assert_eq!(original, loaded);

    let utility: Arc<dyn DelayUtility> = Arc::new(Exponential::new(0.05));
    let config = SimConfig::builder(15, 3)
        .demand(Popularity::pareto(15, 1.0).demand_rates(0.5))
        .profile(DemandProfile::uniform(15, loaded.nodes()))
        .utility(utility)
        .bin(120.0)
        .build();
    let out = impatience_sim::engine::run_trial(
        &config,
        &ContactSource::trace(loaded),
        PolicyKind::qcr_default(),
        5,
    );
    assert!(out.metrics.fulfillments() > 0);
    std::fs::remove_file(&path).ok();
}

#[test]
fn synthesized_trace_preserves_opt_quality_but_not_burstiness() {
    // Fig. 5(b)/(c) machinery: resynthesis keeps rates (so the OPT greedy
    // sees an equivalent system) while resetting time statistics.
    let mut rng = Xoshiro256::seed_from_u64(4);
    let original = small_conference(&mut rng);
    let synth = resynthesize_memoryless(&original, &mut rng);

    let s_orig = TraceStats::from_trace(&original);
    let s_synth = TraceStats::from_trace(&synth);
    assert!(s_orig.normalized_intercontact_cv() > 1.1);
    assert!(s_synth.normalized_intercontact_cv() < 1.15);

    // The greedy OPT allocations on both rate matrices are similar.
    let demand = Popularity::pareto(15, 1.0).demand_rates(1.0);
    let profile = DemandProfile::uniform(15, original.nodes());
    let utility = Step::new(60.0);
    let opt_of = |stats: &TraceStats| {
        let hsys = HeterogeneousSystem::pure_p2p(stats.rates().clone(), 3);
        greedy_heterogeneous(&hsys, &demand, &profile, &utility)
            .to_counts()
            .as_f64()
    };
    let a = opt_of(&s_orig);
    let b = opt_of(&s_synth);
    let l1: f64 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
    let total: f64 = a.iter().sum();
    assert!(
        l1 < 0.5 * total,
        "OPT allocations diverged (L1 {l1:.0} of {total:.0})"
    );
}

#[test]
fn discrete_contact_sequence_is_policy_independent() {
    // The slotted engine's contacts come from a generator forked off the
    // trial RNG (`DiscreteSource::stream`), so the contact trajectory is
    // a function of the seed alone: two runs with different policies —
    // which consume different amounts of demand randomness — must still
    // see the identical contact sequence. This is the determinism
    // contract that lets the lazy geometric-skipping sampler replace the
    // dense per-pair Bernoulli scan.
    use impatience_core::prelude::uniform;
    use impatience_obs::{Event, MemorySink, Recorder};
    use impatience_sim::engine_discrete::{run_trial_discrete_observed, DiscreteSource};

    let utility: Arc<dyn DelayUtility> = Arc::new(Step::new(10.0));
    let config = SimConfig::builder(12, 2)
        .demand(Popularity::pareto(12, 1.0).demand_rates(1.0))
        .utility(utility)
        .bin(50.0)
        .build();
    let source = DiscreteSource {
        nodes: 12,
        mu: 0.05,
        delta: 0.5,
        slots: 2_000,
    };
    let contacts_under = |policy: PolicyKind| -> Vec<Event> {
        let mut rec = Recorder::new(MemorySink::new());
        run_trial_discrete_observed(&config, &source, policy, 7, &mut rec);
        rec.into_sink()
            .events
            .into_iter()
            .filter(|e| matches!(e, Event::Contact { .. }))
            .collect()
    };
    let qcr = contacts_under(PolicyKind::qcr_default());
    let uni = contacts_under(PolicyKind::Static {
        label: "UNI",
        counts: uniform(12, 12, 2),
    });
    assert!(!qcr.is_empty(), "no contacts recorded");
    assert_eq!(qcr, uni, "contact sequence must not depend on the policy");
}

#[test]
fn select_most_active_matches_paper_preprocessing() {
    // §6.3 keeps the 50 best-covered of 73 participants. Emulate on a
    // smaller population and check the kept nodes really are the busiest.
    let mut rng = Xoshiro256::seed_from_u64(5);
    let trace = small_conference(&mut rng);
    let selected = trace.select_most_active(10);
    assert_eq!(selected.nodes(), 10);
    let min_kept = selected.contact_counts().into_iter().min().unwrap();
    // Every kept node must beat the median of the original population.
    let mut original_counts = trace.contact_counts();
    original_counts.sort_unstable();
    let median = original_counts[original_counts.len() / 2];
    assert!(
        min_kept >= median / 2,
        "selection kept a sparse node ({min_kept} vs median {median})"
    );
}

#[test]
fn conference_day_night_cycle_survives_simulation() {
    // The observed utility of a trace-driven run must show more gain in
    // conference hours than at night (Fig. 5a's pattern).
    let mut rng = Xoshiro256::seed_from_u64(6);
    let trace = small_conference(&mut rng);
    let utility: Arc<dyn DelayUtility> = Arc::new(Step::new(60.0));
    let config = SimConfig::builder(15, 3)
        .demand(Popularity::pareto(15, 1.0).demand_rates(1.0))
        .profile(DemandProfile::uniform(15, trace.nodes()))
        .utility(utility)
        .bin(60.0)
        .warmup_fraction(0.0)
        .build();
    let agg = run_trials(
        &config,
        &ContactSource::trace(trace),
        &PolicyKind::qcr_default(),
        3,
        8,
    );
    let mut day = 0.0;
    let mut night = 0.0;
    for (h, &v) in agg.observed_series.iter().enumerate() {
        match h % 24 {
            9..=17 => day += v,
            0..=8 => night += v,
            _ => {}
        }
    }
    assert!(
        day > 1.5 * night,
        "no diurnal pattern in observed utility (day {day:.2}, night {night:.2})"
    );
}
