//! Fault-tolerance contracts across the workspace: seeded fault
//! schedules are deterministic regardless of worker count, a killed
//! campaign resumes bit-identically from its checkpoint, mismatched
//! checkpoints are rejected, and panicking trials degrade to
//! skip-and-report instead of killing the campaign.

use age_of_impatience::prelude::*;
use impatience_core::demand::Popularity;
use impatience_core::utility::Step;
use impatience_json::Json;
use impatience_obs::{Event, JsonlSink, MemorySink, Recorder};
use impatience_sim::faults::{CacheFaults, Churn, ContactDrop};
use impatience_sim::runner::run_trials_observed_with_workers;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("impatience-fault-tolerance-test");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn faulty_config(fc: FaultConfig) -> (SimConfig, ContactSource) {
    let config = SimConfig::builder(10, 2)
        .demand(Popularity::pareto(10, 1.0).demand_rates(0.5))
        .utility(Arc::new(Step::new(10.0)))
        .bin(100.0)
        .faults(fc)
        .build();
    let source = ContactSource::homogeneous(12, 0.08, 800.0);
    (config, source)
}

fn all_faults(seed: u64) -> FaultConfig {
    FaultConfig {
        seed,
        churn: Some(Churn {
            mean_up: 200.0,
            mean_down: 40.0,
        }),
        drop: Some(ContactDrop {
            p: 0.25,
            mean_burst: 3.0,
        }),
        cache: Some(CacheFaults { rate: 0.002 }),
        truncate_fraction: Some(0.9),
        ..FaultConfig::default()
    }
}

/// The recorded fault events for `trials` trials at a given worker count.
fn fault_log(config: &SimConfig, source: &ContactSource, workers: usize) -> Vec<String> {
    let mut rec = Recorder::new(MemorySink::new());
    run_trials_observed_with_workers(
        config,
        source,
        &PolicyKind::qcr_default(),
        6,
        42,
        Some(workers),
        &mut rec,
    );
    rec.into_sink()
        .events
        .iter()
        .filter(|e| matches!(e, Event::Fault { .. }))
        .map(|e| {
            let mut line = String::new();
            e.write_jsonl(&mut line);
            line
        })
        .collect()
}

#[test]
fn fault_logs_identical_at_1_2_and_8_workers() {
    let (config, source) = faulty_config(all_faults(7));
    let one = fault_log(&config, &source, 1);
    assert!(
        one.iter().any(|l| l.contains("contact_drop")),
        "drop faults should fire"
    );
    assert!(
        one.iter().any(|l| l.contains("node_down")),
        "churn faults should fire"
    );
    assert_eq!(one, fault_log(&config, &source, 2), "2 workers diverged");
    assert_eq!(one, fault_log(&config, &source, 8), "8 workers diverged");
}

// Fault trajectories belong to the trial, not to the scheduler: any
// seed and any fault mix must produce the same schedule at any worker
// count.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn fault_schedules_deterministic_across_workers(
        fault_seed in 0u64..1_000,
        // Stay under the burst model's p ≤ L/(L+1) bound at L = 1.
        p in 0.05f64..0.45,
        burst in 1.0f64..4.0,
        workers in 2usize..6,
    ) {
        let fc = FaultConfig {
            seed: fault_seed,
            drop: Some(ContactDrop { p, mean_burst: burst }),
            churn: Some(Churn { mean_up: 150.0, mean_down: 30.0 }),
            ..FaultConfig::default()
        };
        let (config, source) = faulty_config(fc);
        prop_assert_eq!(
            fault_log(&config, &source, 1),
            fault_log(&config, &source, workers)
        );
    }
}

/// Statistical fields that must survive kill+resume bit-for-bit.
fn stable_bits(agg: &TrialAggregate) -> Vec<u64> {
    let mut bits: Vec<u64> = agg.rates.iter().map(|x| x.to_bits()).collect();
    bits.extend(agg.observed_series.iter().map(|x| x.to_bits()));
    bits.extend(agg.mean_final_replicas.iter().map(|x| x.to_bits()));
    bits.extend(
        [
            agg.mean_rate,
            agg.p5_rate,
            agg.p95_rate,
            agg.mean_transmissions,
            agg.mean_immediate_hits,
            agg.mean_unfulfilled,
            agg.mean_mandates_created,
        ]
        .map(f64::to_bits),
    );
    bits
}

#[test]
fn killed_campaign_resumes_bit_identically() {
    let (config, source) = faulty_config(all_faults(3));
    let policy = PolicyKind::qcr_default();
    let ckpt = scratch("kill-resume.ckpt");
    let _ = std::fs::remove_file(&ckpt);

    let baseline_opts = CampaignOptions {
        checkpoint_every: 2,
        ..CampaignOptions::default()
    };
    let baseline = run_campaign(
        &config,
        &source,
        &policy,
        7,
        42,
        &baseline_opts,
        &mut Recorder::disabled(),
    )
    .unwrap();

    // "Kill" the campaign after one 2-trial chunk…
    let mut opts = CampaignOptions {
        checkpoint_path: Some(ckpt.clone()),
        checkpoint_every: 2,
        abort_after_chunks: Some(1),
        ..CampaignOptions::default()
    };
    let err = run_campaign(
        &config,
        &source,
        &policy,
        7,
        42,
        &opts,
        &mut Recorder::disabled(),
    )
    .unwrap_err();
    assert!(
        matches!(err, CampaignError::Aborted { completed: 2 }),
        "{err}"
    );

    // …then resume from the checkpoint it left behind.
    opts.abort_after_chunks = None;
    let resumed = run_campaign(
        &config,
        &source,
        &policy,
        7,
        42,
        &opts,
        &mut Recorder::disabled(),
    )
    .unwrap();
    assert_eq!(resumed.resumed, 2);
    assert_eq!(resumed.executed, 5);
    assert!(resumed.skipped.is_empty());
    assert_eq!(
        stable_bits(&baseline.aggregate),
        stable_bits(&resumed.aggregate),
        "resume must reproduce the uninterrupted aggregate bit-for-bit"
    );
    std::fs::remove_file(&ckpt).ok();
}

#[test]
fn checkpoint_from_different_campaign_is_rejected() {
    let (config, source) = faulty_config(all_faults(3));
    let policy = PolicyKind::qcr_default();
    let ckpt = scratch("mismatch.ckpt");
    let _ = std::fs::remove_file(&ckpt);

    let opts = CampaignOptions {
        checkpoint_path: Some(ckpt.clone()),
        checkpoint_every: 0,
        ..CampaignOptions::default()
    };
    run_campaign(
        &config,
        &source,
        &policy,
        3,
        42,
        &opts,
        &mut Recorder::disabled(),
    )
    .unwrap();

    // Same checkpoint, different base seed: a different campaign.
    let err = run_campaign(
        &config,
        &source,
        &policy,
        3,
        43,
        &opts,
        &mut Recorder::disabled(),
    )
    .unwrap_err();
    assert!(
        matches!(
            err,
            CampaignError::Checkpoint(CheckpointError::Mismatch { .. })
        ),
        "{err}"
    );
    std::fs::remove_file(&ckpt).ok();
}

#[test]
fn panicking_trials_are_skipped_and_reported_with_parseable_event_stream() {
    let mut fc = all_faults(3);
    // Trial seeds are base_seed + k; make trials 1 and 3 blow up.
    fc.panic_on_seeds = vec![43, 45];
    let (config, source) = faulty_config(fc);
    let mut rec = Recorder::new(JsonlSink::new(Vec::<u8>::new()));
    let outcome = run_campaign(
        &config,
        &source,
        &PolicyKind::qcr_default(),
        5,
        42,
        &CampaignOptions::default(),
        &mut rec,
    )
    .unwrap();
    assert_eq!(
        outcome.skipped.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
        vec![1, 3]
    );
    assert_eq!(outcome.aggregate.trials, 3);

    // The JSONL stream stays parseable line-by-line even with failures.
    let bytes = rec.into_sink().into_inner().unwrap();
    let text = String::from_utf8(bytes).unwrap();
    let mut lines = 0;
    for line in text.lines() {
        Json::parse(line).unwrap_or_else(|e| panic!("bad JSONL line: {e}: {line}"));
        lines += 1;
    }
    assert!(lines > 0, "event stream should not be empty");
    assert!(
        text.lines().filter(|l| l.contains("trial_panic")).count() >= 2,
        "skipped trials should be visible in the event stream"
    );
}

#[test]
fn contact_drops_reduce_observed_welfare() {
    let clean = SimConfig::builder(10, 2)
        .demand(Popularity::pareto(10, 1.0).demand_rates(0.5))
        .utility(Arc::new(Step::new(10.0)))
        .bin(100.0)
        .build();
    let lossy = SimConfig::builder(10, 2)
        .demand(Popularity::pareto(10, 1.0).demand_rates(0.5))
        .utility(Arc::new(Step::new(10.0)))
        .bin(100.0)
        .faults(FaultConfig {
            seed: 1,
            // The renewal burst model needs p ≤ L/(L+1); at L = 3 a 60%
            // stationary drop rate is admissible.
            drop: Some(ContactDrop {
                p: 0.6,
                mean_burst: 3.0,
            }),
            ..FaultConfig::default()
        })
        .build();
    let source = ContactSource::homogeneous(12, 0.08, 1_500.0);
    let policy = PolicyKind::qcr_default();
    let w_clean = run_trials(&clean, &source, &policy, 8, 42).mean_rate;
    let w_lossy = run_trials(&lossy, &source, &policy, 8, 42).mean_rate;
    assert!(
        w_lossy < w_clean,
        "dropping 60% of contacts should hurt welfare ({w_lossy} !< {w_clean})"
    );
}

#[test]
fn inactive_faults_leave_trajectories_untouched() {
    let (plain, source) = {
        let config = SimConfig::builder(10, 2)
            .demand(Popularity::pareto(10, 1.0).demand_rates(0.5))
            .utility(Arc::new(Step::new(10.0)))
            .bin(100.0)
            .build();
        (config, ContactSource::homogeneous(12, 0.08, 800.0))
    };
    let (with_inactive, _) = faulty_config(FaultConfig {
        seed: 99,
        ..FaultConfig::default()
    });
    let policy = PolicyKind::qcr_default();
    let a = run_trials(&plain, &source, &policy, 4, 42);
    let b = run_trials(&with_inactive, &source, &policy, 4, 42);
    assert_eq!(stable_bits(&a), stable_bits(&b));
}
