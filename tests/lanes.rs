//! The lanes answer to the separate trials.
//!
//! A policy-list campaign (`run_campaigns`) samples each trial seed's
//! contact sequence once and rides every policy on it as a lane. The
//! contract: nothing but wall time distinguishes a lane from the trial
//! `run_trial` would have run alone — outcomes, event streams, skipped
//! lists and checkpoint files are those of the one-policy campaigns, so a
//! directory written by either shape resumes under the other.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use age_of_impatience::prelude::*;
use impatience_exp::suite::homogeneous_competitors;
use impatience_exp::{run_spec, ExecContext, Spec};
use impatience_obs::{Event, MemorySink, Progress, Recorder};
use impatience_sim::faults::{CacheFaults, Churn, ContactDrop};
use impatience_sim::runner::{run_trials_observed_with_workers, CampaignOutcome};
use impatience_sim::TrialOutcome;
use proptest::prelude::*;

const NODES: usize = 12;
const ITEMS: usize = 10;
const RHO: usize = 2;
const MU: f64 = 0.08;
const DURATION: f64 = 600.0;

/// A fresh directory under the system's temporary one.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("impatience-lanes-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// What has to match bit for bit: the checkpoint encoding of the metrics
/// (floats as bit patterns) and the final replica counts.
fn bits(outcome: &TrialOutcome) -> String {
    format!("{}{:?}", outcome.metrics.to_json(), outcome.final_replicas)
}

/// `TrialDone` carries real wall time: blank it before comparing streams.
fn normalized(events: &[Event]) -> Vec<Event> {
    events
        .iter()
        .map(|e| match *e {
            Event::TrialDone { seed, .. } => Event::TrialDone { seed, wall_s: 0.0 },
            ref other => other.clone(),
        })
        .collect()
}

/// Statistical fields of an aggregate (everything but wall-clock telemetry).
fn stable_bits(agg: &TrialAggregate) -> Vec<u64> {
    let mut bits: Vec<u64> = agg.rates.iter().map(|x| x.to_bits()).collect();
    bits.extend(agg.observed_series.iter().map(|x| x.to_bits()));
    bits.extend(agg.expected_series.iter().map(|x| x.to_bits()));
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
            agg.mean_mandate_cap_hits,
        ]
        .map(f64::to_bits),
    );
    bits
}

/// The four settings of the equivalence property.
fn scenario(which: usize) -> SimConfig {
    let builder = SimConfig::builder(ITEMS, RHO)
        .demand(Popularity::pareto(ITEMS, 1.0).demand_rates(0.6))
        .utility(Arc::new(Step::new(10.0)))
        .bin(100.0);
    match which {
        0 => builder,
        1 => builder.faults(FaultConfig {
            seed: 5,
            drop: Some(ContactDrop {
                p: 0.2,
                mean_burst: 2.0,
            }),
            cache: Some(CacheFaults { rate: 0.002 }),
            churn: Some(Churn {
                mean_up: 200.0,
                mean_down: 40.0,
            }),
            ..FaultConfig::default()
        }),
        2 => builder
            .dedicated_servers(4)
            .profile(DemandProfile::uniform(ITEMS, NODES - 4)),
        _ => builder.demand_shift(
            DURATION / 2.0,
            DemandRates::new(
                Popularity::pareto(ITEMS, 1.0)
                    .demand_rates(0.6)
                    .rates()
                    .iter()
                    .rev()
                    .copied()
                    .collect(),
            ),
        ),
    }
    .build()
}

/// The policy pool of the equivalence property, for `config`'s population.
fn policy_pool(config: &SimConfig) -> Vec<PolicyKind> {
    let servers = config.dedicated_servers.unwrap_or(NODES);
    let system = match config.dedicated_servers {
        Some(k) => SystemModel::dedicated(NODES - k, k, RHO, MU),
        None => SystemModel::pure_p2p(NODES, RHO, MU),
    };
    vec![
        PolicyKind::qcr_default(),
        PolicyKind::Qcr(QcrConfig {
            mandate_routing: false,
            ..QcrConfig::default()
        }),
        PolicyKind::HillClimb,
        PolicyKind::Static {
            label: "OPT",
            counts: greedy_homogeneous(&system, &config.demand, config.utility.as_ref()),
        },
        PolicyKind::Static {
            label: "UNI",
            counts: uniform(ITEMS, servers, RHO),
        },
        PolicyKind::Static {
            label: "DOM",
            counts: dominant(&config.demand, servers, RHO),
        },
    ]
}

fn source(from_trace: bool, seed: u64) -> ContactSource {
    if from_trace {
        let rng = Xoshiro256::seed_from_u64(seed);
        ContactSource::trace(ContactStream::poisson(NODES, MU, DURATION, rng).collect_trace())
    } else {
        ContactSource::homogeneous(NODES, MU, DURATION)
    }
}

fn checkpoint_paths(dir: &Path, n: usize) -> Vec<PathBuf> {
    (0..n).map(|p| dir.join(format!("{p}.ckpt"))).collect()
}

/// `run_campaigns` over `policies`, each checkpointed at its `paths` entry.
#[allow(clippy::too_many_arguments)]
fn campaigns<S: impatience_obs::Sink>(
    config: &SimConfig,
    source: &ContactSource,
    policies: &[PolicyKind],
    paths: &[PathBuf],
    trials: usize,
    seed: u64,
    options: &CampaignOptions,
    rec: &mut Recorder<S>,
) -> Result<Vec<Result<CampaignOutcome, CampaignError>>, CampaignError> {
    let lanes: Vec<(&PolicyKind, Option<&Path>)> = policies
        .iter()
        .zip(paths)
        .map(|(policy, path)| (policy, Some(path.as_path())))
        .collect();
    run_campaigns(config, source, &lanes, trials, seed, options, rec)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Any policy list (with repetition), on either kind of source, in any
    // of the four settings, at one and three workers: lane outcomes are
    // the separate trials', and the caller's sink receives the per-policy
    // streams one after another.
    #[test]
    fn lanes_equal_the_separate_trials(
        picks in proptest::collection::vec(0usize..6, 1..5),
        from_trace in 0usize..2,
        which in 0usize..4,
        seed in 0u64..1_000,
    ) {
        const TRIALS: usize = 3;
        let config = scenario(which);
        let source = source(from_trace == 1, seed ^ 0x5eed);
        let pool = policy_pool(&config);
        let policies: Vec<PolicyKind> = picks.iter().map(|&p| pool[p].clone()).collect();

        // The references: each policy's trials alone, and each policy's
        // observed batch with a sink of its own.
        let mut alone = Vec::new();
        let mut stream = Vec::new();
        let mut aggregates = Vec::new();
        for policy in &policies {
            alone.push(
                (0..TRIALS as u64)
                    .map(|k| bits(&run_trial(&config, &source, policy.clone(), seed + k)))
                    .collect::<Vec<_>>(),
            );
            let mut rec = Recorder::new(MemorySink::new());
            aggregates.push(run_trials_observed_with_workers(
                &config, &source, policy, TRIALS, seed, Some(1), &mut rec,
            ));
            stream.extend(normalized(&rec.sink().events));
        }

        for workers in [1, 3] {
            let dir = scratch(&format!("prop-{seed}-{which}-{workers}"));
            let paths = checkpoint_paths(&dir, policies.len());
            let options = CampaignOptions {
                workers: Some(workers),
                ..CampaignOptions::default()
            };
            let mut rec = Recorder::new(MemorySink::new());
            let outcomes = campaigns(
                &config, &source, &policies, &paths, TRIALS, seed, &options, &mut rec,
            )
            .unwrap();
            prop_assert_eq!(&normalized(&rec.sink().events), &stream);
            for (p, outcome) in outcomes.into_iter().enumerate() {
                let outcome = outcome.unwrap();
                prop_assert_eq!((outcome.resumed, outcome.executed), (0, TRIALS));
                prop_assert!(outcome.skipped.is_empty());
                prop_assert_eq!(
                    stable_bits(&outcome.aggregate),
                    stable_bits(&aggregates[p])
                );
                let saved = CampaignCheckpoint::load(&paths[p]).unwrap();
                let lanes: Vec<String> = saved
                    .completed
                    .iter()
                    .map(|(_, record)| bits(record.as_ref().unwrap()))
                    .collect();
                prop_assert_eq!(&lanes, &alone[p]);
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

#[test]
fn a_lane_that_dies_takes_no_other_lane_with_it() {
    let config = scenario(1);
    let source = source(false, 0);
    let pool = policy_pool(&config);
    // A pinned allocation over another catalogue: `place` asserts
    // "catalog size mismatch", so the lane dies while it is being built.
    let misfit = PolicyKind::Static {
        label: "MISFIT",
        counts: uniform(ITEMS + 3, NODES, RHO),
    };
    let with = [pool[0].clone(), misfit, pool[3].clone()];
    let without = [pool[0].clone(), pool[3].clone()];
    let run = |policies: &[PolicyKind], rec: &mut Recorder<MemorySink>| {
        let lanes: Vec<(&PolicyKind, Option<&Path>)> =
            policies.iter().map(|policy| (policy, None)).collect();
        let options = CampaignOptions {
            workers: Some(2),
            ..CampaignOptions::default()
        };
        run_campaigns(&config, &source, &lanes, 4, 11, &options, rec).unwrap()
    };
    let mut rec = Recorder::new(MemorySink::new());
    let mut outcomes = run(&with, &mut rec);
    let mut clean = Recorder::new(MemorySink::new());
    let reference = run(&without, &mut clean);

    match outcomes.remove(1) {
        Err(CampaignError::AllTrialsFailed { trials: 4, skipped }) => {
            assert_eq!(
                skipped.iter().map(|&(k, _)| k).collect::<Vec<_>>(),
                vec![0, 1, 2, 3]
            );
            for (_, message) in &skipped {
                assert!(message.contains("catalog size mismatch"), "{message}");
            }
        }
        other => panic!("the misfit's campaign should fail alone, got {other:?}"),
    }
    for (outcome, reference) in outcomes.into_iter().zip(reference) {
        let (outcome, reference) = (outcome.unwrap(), reference.unwrap());
        assert!(outcome.skipped.is_empty());
        assert_eq!(outcome.executed, 4);
        assert_eq!(
            stable_bits(&outcome.aggregate),
            stable_bits(&reference.aggregate)
        );
    }
    // One `trial_panic` per dead lane, between the two healthy policies'
    // streams; nothing else differs from the run without the misfit.
    let panics: Vec<&Event> = rec
        .sink()
        .events
        .iter()
        .filter(|e| {
            matches!(
                e,
                Event::Fault {
                    kind: "trial_panic",
                    ..
                }
            )
        })
        .collect();
    assert_eq!(panics.len(), 4);
    let rest: Vec<Event> = rec
        .sink()
        .events
        .iter()
        .filter(|e| {
            !matches!(
                e,
                Event::Fault {
                    kind: "trial_panic",
                    ..
                }
            )
        })
        .cloned()
        .collect();
    assert_eq!(normalized(&rest), normalized(&clean.sink().events));
}

#[test]
fn checkpoints_of_one_policy_campaigns_resume_as_lanes() {
    const TRIALS: usize = 5;
    let config = scenario(1);
    let source = source(false, 0);
    let pool = policy_pool(&config);
    let policies = [pool[3].clone(), pool[0].clone(), pool[4].clone()];
    let dir = scratch("resume");
    let paths = checkpoint_paths(&dir, policies.len());
    let options = CampaignOptions {
        checkpoint_every: 2,
        workers: Some(2),
        ..CampaignOptions::default()
    };

    let uninterrupted: Vec<TrialAggregate> = policies
        .iter()
        .map(|policy| {
            run_campaign(
                &config,
                &source,
                policy,
                TRIALS,
                21,
                &options,
                &mut Recorder::disabled(),
            )
            .unwrap()
            .aggregate
        })
        .collect();

    // What a killed sequence of one-policy campaigns leaves: the first
    // policy complete, the second one interval in, the third not begun.
    let one_policy = |p: usize, abort_after_chunks| {
        run_campaign(
            &config,
            &source,
            &policies[p],
            TRIALS,
            21,
            &CampaignOptions {
                checkpoint_path: Some(paths[p].clone()),
                abort_after_chunks,
                ..options.clone()
            },
            &mut Recorder::disabled(),
        )
    };
    one_policy(0, None).unwrap();
    assert!(matches!(
        one_policy(1, Some(1)),
        Err(CampaignError::Aborted { completed: 2 })
    ));
    assert!(paths[0].exists() && paths[1].exists() && !paths[2].exists());

    let mut rec = Recorder::new(MemorySink::new());
    let resumed = campaigns(
        &config, &source, &policies, &paths, TRIALS, 21, &options, &mut rec,
    )
    .unwrap();
    let counts: Vec<(usize, usize)> = resumed
        .iter()
        .map(|outcome| {
            let outcome = outcome.as_ref().unwrap();
            (outcome.resumed, outcome.executed)
        })
        .collect();
    assert_eq!(counts, vec![(5, 0), (2, 3), (0, 5)]);
    for (outcome, reference) in resumed.iter().zip(&uninterrupted) {
        assert_eq!(
            stable_bits(&outcome.as_ref().unwrap().aggregate),
            stable_bits(reference),
            "resume must reproduce the uninterrupted aggregate bit-for-bit"
        );
    }
    // Only the lanes that missed a trial ran it — 3 + 5 trials in all — and
    // the sink heard them interval by interval (two trials each), policy
    // by policy within an interval.
    let seeds: Vec<u64> = rec
        .sink()
        .events
        .iter()
        .filter_map(|e| match *e {
            Event::TrialDone { seed, .. } => Some(seed),
            _ => None,
        })
        .collect();
    assert_eq!(seeds, vec![21, 22, 23, 24, 23, 24, 25, 25]);

    // And back: every file is now a complete one-policy checkpoint.
    for (p, reference) in uninterrupted.iter().enumerate() {
        let again = one_policy(p, None).unwrap();
        assert_eq!((again.resumed, again.executed), (TRIALS, 0));
        assert_eq!(stable_bits(&again.aggregate), stable_bits(reference));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_killed_loss_sweep_resumes_to_the_same_csv() {
    const SPEC: &str = r#"name = "lanes"
kind = "loss_sweep"
title = "a small loss sweep"

[setting]
nodes = 12
items = 10
rho = 2
mu = 0.08
bin = 100.0
warmup_fraction = 0.3
duration = 600.0
trials = 4

[[sweep]]
file = "lanes_step_loss"
param = "tau"
family = "step"
values = [5.0, 20.0]
seed = 77
"#;
    let spec = Spec::parse(SPEC, Path::new("lanes.toml")).unwrap();
    let dir = scratch("spec");
    let run = |out: &str, checkpoint_dir: Option<PathBuf>| {
        let mut rec = Recorder::disabled();
        let mut ctx = ExecContext {
            out_dir: dir.join(out),
            checkpoint_dir,
            workers: Some(2),
            cli_args: Vec::new(),
            quiet: true,
            rec: &mut rec,
            progress: Progress::disabled(),
        };
        let report = run_spec(&spec, &mut ctx).unwrap();
        assert_eq!((report.cells, report.skipped.len()), (2, 0));
        std::fs::read(&report.artifacts[0]).unwrap()
    };
    let straight = run("straight", None);

    // The directory a kill during the second cell leaves behind: QCR and
    // OPT complete, UNI two trials in, the rest not begun — written here by
    // one-policy campaigns under the names `run_spec` gives its files.
    let checkpoints = dir.join("ckpt");
    std::fs::create_dir_all(&checkpoints).unwrap();
    let utility: Arc<dyn DelayUtility> = Arc::new(Step::new(20.0));
    let config = SimConfig::builder(10, 2)
        .demand(impatience_exp::suite::pareto_demand(10))
        .utility(utility.clone())
        .bin(100.0)
        .warmup_fraction(0.3)
        .build();
    let source = ContactSource::homogeneous(12, 0.08, 600.0);
    let system = SystemModel::pure_p2p(12, 2, 0.08);
    let mut policies = vec![PolicyKind::qcr_default()];
    policies.extend(homogeneous_competitors(
        &system,
        &config.demand,
        utility.as_ref(),
    ));
    for (policy, abort_after_chunks) in policies.iter().zip([None, None, Some(1)]) {
        let label = policy.label().to_lowercase();
        let result = run_campaign(
            &config,
            &source,
            policy,
            4,
            77,
            &CampaignOptions {
                checkpoint_path: Some(checkpoints.join(format!("lanes--tau-20--{label}.ckpt"))),
                checkpoint_every: 2,
                abort_after_chunks,
                ..CampaignOptions::default()
            },
            &mut Recorder::disabled(),
        );
        assert_eq!(result.is_err(), abort_after_chunks.is_some());
    }
    assert_eq!(std::fs::read_dir(&checkpoints).unwrap().count(), 3);

    let resumed = run("resumed", Some(checkpoints.clone()));
    assert_eq!(resumed, straight, "CSV bytes after a resume");
    assert_eq!(
        std::fs::read_dir(&checkpoints).unwrap().count(),
        0,
        "a finished cell leaves no checkpoint behind"
    );
    std::fs::remove_dir_all(&dir).ok();
}
