//! Parallel multi-trial runner for the distributed kernel.
//!
//! One kernel per trial, trials sharded over OS threads by the engine
//! runner's pool ([`impatience_sim::runner::run_jobs`]). Trial `k` uses
//! seed `base_seed + k`, as [`impatience_sim::runner::run_trials`] does:
//! a net and an engine trial on one seed share the contacts, the faults
//! that drop them, the sticky fill and the first arrival time, not the
//! rest of the demand (see `impatience_oracle::netdiff`). Tallies and
//! events reach the caller's recorder **in trial order**, whatever the
//! worker count.

use std::time::Instant;

use impatience_obs::{Recorder, Sink};
use impatience_sim::config::{ContactSource, SimConfig};
use impatience_sim::engine::TrialOutcome;
use impatience_sim::runner::{
    aggregate, default_workers, run_jobs, BatchTelemetry, TrialAggregate, TrialJob,
};

use crate::config::NetConfig;
use crate::error::NetError;
use crate::kernel::{run_net_trial_observed, Conservation, NetStats, NetTrialOutcome};

/// Aggregate of many independent distributed trials.
#[derive(Clone, Debug)]
pub struct NetAggregate {
    /// The engine's statistics of the trials' outcomes: rates and their
    /// percentile bands, mean final replicas and counters, batch
    /// telemetry ([`impatience_sim::runner::aggregate`]).
    pub aggregate: TrialAggregate,
    /// Transport/protocol counters summed over trials.
    pub stats: NetStats,
    /// Conservation terms summed over trials (each trial already passed
    /// its own audit or the batch would have errored).
    pub conservation: Conservation,
    /// Trials that finished degraded (supervisor kill / event cap).
    pub degraded_trials: usize,
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
    let (results, busy_s) = run_jobs(&all, workers, &job, rec);
    let outcomes = results
        .into_iter()
        .map(|(_, _, r)| r.unwrap_or_else(|message| panic!("{message}")))
        .collect::<Result<Vec<NetTrialOutcome>, NetError>>()?;
    let telemetry = BatchTelemetry {
        workers,
        wall_s: batch_start.elapsed().as_secs_f64(),
        busy_s,
        trial_s: busy_s,
        trials,
    };

    let mut stats = NetStats::default();
    let mut conservation = Conservation::default();
    for o in &outcomes {
        stats.merge(&o.stats);
        conservation.minted += o.conservation.minted;
        conservation.executed += o.conservation.executed;
        conservation.discarded += o.conservation.discarded;
        conservation.pooled += o.conservation.pooled;
        conservation.escrowed += o.conservation.escrowed;
    }
    let engine: Vec<&TrialOutcome> = outcomes.iter().map(|o| &o.outcome).collect();
    Ok(NetAggregate {
        aggregate: aggregate(
            engine[0].label.clone(),
            &engine,
            config.warmup_fraction,
            telemetry,
        ),
        stats,
        conservation,
        degraded_trials: outcomes.iter().filter(|o| o.degraded).count(),
    })
}
