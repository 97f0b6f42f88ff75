//! Parallel multi-trial runner for the distributed kernel.
//!
//! One kernel per trial, trials sharded over OS threads by the engine
//! runner's pool ([`impatience_sim::runner::run_jobs`]). Trial `k`
//! uses seed `base_seed + k` — the same convention as
//! [`impatience_sim::runner::run_trials`], so a net batch and an engine
//! batch on the same `base_seed` run *paired* randomness: identical
//! contact streams, sticky fills, and demand arrivals, which is what the
//! differential oracle leans on. Per-trial tallies and event streams are
//! absorbed into the caller's recorder **in trial order**, so all
//! observability output is independent of the worker count.

use std::time::Instant;

use impatience_obs::stats::percentile_sorted;
use impatience_obs::{Recorder, Sink};
use impatience_sim::config::{ContactSource, SimConfig};
use impatience_sim::runner::{default_workers, run_jobs, TrialJob};

use crate::config::NetConfig;
use crate::error::NetError;
use crate::kernel::{run_net_trial_observed, Conservation, NetStats, NetTrialOutcome};

/// Aggregate of many independent distributed trials.
#[derive(Clone, Debug)]
pub struct NetAggregate {
    /// Number of trials.
    pub trials: usize,
    /// Post-warm-up average observed gain rate, one entry per trial.
    pub rates: Vec<f64>,
    /// Mean of `rates`.
    pub mean_rate: f64,
    /// 5th percentile of `rates` (nearest rank).
    pub p5_rate: f64,
    /// 95th percentile of `rates` (nearest rank).
    pub p95_rate: f64,
    /// Transport/protocol counters summed over trials.
    pub stats: NetStats,
    /// Conservation terms summed over trials (each trial already passed
    /// its own audit or the batch would have errored).
    pub conservation: Conservation,
    /// Trials that finished degraded (supervisor kill / event cap).
    pub degraded_trials: usize,
    /// Mean final replica count per item.
    pub mean_final_replicas: Vec<f64>,
    /// Mean requests still unfulfilled at the horizon per trial.
    pub mean_unfulfilled: f64,
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock seconds for the whole batch.
    pub wall_s: f64,
}

/// Run `trials` distributed trials in parallel and aggregate.
///
/// The first trial error (in trial order, not completion order) aborts
/// the batch — a conservation violation on seed `base_seed + k` is
/// reported for that seed whatever the thread interleaving was.
pub fn run_net_trials(
    config: &SimConfig,
    source: &ContactSource,
    net: &NetConfig,
    trials: usize,
    base_seed: u64,
) -> Result<NetAggregate, NetError> {
    run_net_trials_observed(
        config,
        source,
        net,
        trials,
        base_seed,
        None,
        &mut Recorder::disabled(),
    )
}

/// Trial `k` of a batch: one kernel run on seed `base_seed + k`.
struct SeededNetTrials<'a> {
    config: &'a SimConfig,
    source: &'a ContactSource,
    net: &'a NetConfig,
    base_seed: u64,
}

impl TrialJob for SeededNetTrials<'_> {
    /// The kernel keeps no storage between trials.
    type Scratch = ();
    type Output = Result<NetTrialOutcome, NetError>;
    /// One lane: a kernel run is one policy's.
    fn run<K: Sink>(
        &self,
        k: usize,
        _lanes: &[usize],
        _: &mut (),
        recs: &mut [Recorder<K>],
    ) -> Vec<Result<Self::Output, String>> {
        let seed = self.base_seed + k as u64;
        vec![Ok(run_net_trial_observed(
            self.config,
            self.source,
            self.net,
            seed,
            &mut recs[0],
        ))]
    }
}

/// [`run_net_trials`] with instrumentation and an explicit worker count
/// (`None` picks one per available core).
///
/// # Panics
/// Re-raises, with its message, the panic of the lowest-numbered trial
/// that panicked.
#[allow(clippy::too_many_arguments)]
pub fn run_net_trials_observed<S: Sink>(
    config: &SimConfig,
    source: &ContactSource,
    net: &NetConfig,
    trials: usize,
    base_seed: u64,
    workers: Option<usize>,
    rec: &mut Recorder<S>,
) -> Result<NetAggregate, NetError> {
    assert!(trials > 0, "need at least one trial");
    let batch_start = Instant::now();
    let workers = workers.unwrap_or_else(default_workers).max(1).min(trials);
    let job = SeededNetTrials {
        config,
        source,
        net,
        base_seed,
    };
    let all: Vec<usize> = (0..trials).collect();
    // Results come back in trial order, so the first error reported is
    // the lowest-seed one.
    let outcomes = run_jobs(&all, workers, &job, rec)
        .0
        .into_iter()
        .map(|(_, _, r)| r.unwrap_or_else(|message| panic!("{message}")))
        .collect::<Result<Vec<NetTrialOutcome>, NetError>>()?;

    let warmup = config.warmup_fraction;
    let rates: Vec<f64> = outcomes
        .iter()
        .map(|o| o.metrics.average_observed_rate(warmup))
        .collect();
    let mean_rate = rates.iter().sum::<f64>() / trials as f64;
    let mut sorted = rates.clone();
    sorted.sort_by(f64::total_cmp);

    let mut stats = NetStats::default();
    let mut conservation = Conservation::default();
    let mut degraded_trials = 0;
    let items = outcomes[0].final_replicas.len();
    let mut mean_final_replicas = vec![0.0; items];
    let mut unfulfilled = 0.0;
    for o in &outcomes {
        stats.merge(&o.stats);
        conservation.minted += o.conservation.minted;
        conservation.executed += o.conservation.executed;
        conservation.discarded += o.conservation.discarded;
        conservation.pooled += o.conservation.pooled;
        conservation.escrowed += o.conservation.escrowed;
        degraded_trials += usize::from(o.degraded);
        for (acc, &r) in mean_final_replicas.iter_mut().zip(&o.final_replicas) {
            *acc += r as f64 / trials as f64;
        }
        unfulfilled += o.metrics.unfulfilled as f64;
    }

    Ok(NetAggregate {
        trials,
        mean_rate,
        p5_rate: percentile_sorted(&sorted, 0.05),
        p95_rate: percentile_sorted(&sorted, 0.95),
        rates,
        stats,
        conservation,
        degraded_trials,
        mean_final_replicas,
        mean_unfulfilled: unfulfilled / trials as f64,
        workers,
        wall_s: batch_start.elapsed().as_secs_f64(),
    })
}
