//! Multi-trial experiment runner with percentile bands.
//!
//! The paper reports averages of "15 or more trials with confidence
//! interval corresponding to 5% and 95% percentiles" (§6.1). Trials are
//! embarrassingly parallel; the runner shards them across OS threads and
//! aggregates.

use std::borrow::Borrow;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::Instant;

use impatience_obs::{percentile_sorted, Recorder, Sink};

use crate::checkpoint::{fingerprint, CampaignCheckpoint, CheckpointError};
use crate::config::{ConfigError, ContactSource, SimConfig};
use crate::engine::{run_lanes, TrialOutcome, TrialScratch};
use crate::policy::PolicyKind;
use crate::sharded::run_trial_sharded;

/// Aggregate of many independent trials of one policy.
#[derive(Clone, Debug)]
pub struct TrialAggregate {
    /// Policy label.
    pub label: String,
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
    /// Mean over trials of the per-bin observed gain-rate series.
    pub observed_series: Vec<f64>,
    /// Mean over trials of the per-bin expected-utility snapshots.
    pub expected_series: Vec<f64>,
    /// Mean final replica count per item.
    pub mean_final_replicas: Vec<f64>,
    /// Mean transmissions per trial (energy proxy).
    pub mean_transmissions: f64,
    /// Mean immediate (own-cache) hits per trial.
    pub mean_immediate_hits: f64,
    /// Mean requests still open at the horizon per trial.
    pub mean_unfulfilled: f64,
    /// Mean QCR mandates created per trial.
    pub mean_mandates_created: f64,
    /// Mean fulfillments whose mandate was dropped at the cap per trial.
    pub mean_mandate_cap_hits: f64,
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock seconds for the whole batch.
    pub wall_s: f64,
    /// Mean wall-clock seconds per trial.
    pub mean_trial_wall_s: f64,
    /// Sum of per-trial wall time over `workers · wall_s`: 1.0 means the
    /// pool never idled, low values mean stragglers dominated.
    pub worker_utilization: f64,
}

/// Wall-clock telemetry of a batch, for [`aggregate`].
#[derive(Clone, Copy, Debug)]
pub struct BatchTelemetry {
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock seconds for the whole batch.
    pub wall_s: f64,
    /// Summed wall time of the pool's jobs.
    pub busy_s: f64,
    /// Summed wall time of this policy's `trials` trials: its lanes' share
    /// of the jobs (all of them when a trial is one lane).
    pub trial_s: f64,
    /// Trials `trial_s` covers.
    pub trials: usize,
}

/// The cross-trial statistics of one policy's outcomes, in trial order —
/// rates with their mean and 5 %/95 % bands, mean series, replicas and
/// counters — for every runtime's batch (serial, sharded, net).
pub fn aggregate(
    label: String,
    outcomes: &[impl Borrow<TrialOutcome>],
    warmup: f64,
    telemetry: BatchTelemetry,
) -> TrialAggregate {
    assert!(!outcomes.is_empty());
    let outcomes: Vec<&TrialOutcome> = outcomes.iter().map(Borrow::borrow).collect();
    let trials = outcomes.len();
    let rates: Vec<f64> = outcomes
        .iter()
        .map(|o| o.metrics.average_observed_rate(warmup))
        .collect();
    let mean_rate = rates.iter().sum::<f64>() / trials as f64;

    let bins = outcomes[0].metrics.bins();
    let mut observed_series = vec![0.0; bins];
    let mut expected_series = vec![0.0; bins];
    let mut expected_counts = vec![0usize; bins];
    for o in &outcomes {
        for (acc, v) in observed_series
            .iter_mut()
            .zip(o.metrics.observed_rate_series())
        {
            *acc += v / trials as f64;
        }
        for (b, v) in o.metrics.expected_utility_series().iter().enumerate() {
            if v.is_finite() {
                expected_series[b] += v;
                expected_counts[b] += 1;
            }
        }
    }
    for (v, &c) in expected_series.iter_mut().zip(&expected_counts) {
        *v = if c > 0 { *v / c as f64 } else { f64::NAN };
    }

    let items = outcomes[0].final_replicas.len();
    let mut mean_final_replicas = vec![0.0; items];
    for o in &outcomes {
        for (acc, &r) in mean_final_replicas.iter_mut().zip(&o.final_replicas) {
            *acc += r as f64 / trials as f64;
        }
    }
    let mean_of = |f: &dyn Fn(&TrialOutcome) -> u64| {
        outcomes.iter().map(|o| f(o) as f64).sum::<f64>() / trials as f64
    };

    // One sort serves both percentile ranks.
    let mut sorted_rates = rates.clone();
    sorted_rates.sort_by(f64::total_cmp);

    TrialAggregate {
        label,
        trials,
        mean_rate,
        p5_rate: percentile_sorted(&sorted_rates, 0.05),
        p95_rate: percentile_sorted(&sorted_rates, 0.95),
        rates,
        observed_series,
        expected_series,
        mean_final_replicas,
        mean_transmissions: mean_of(&|o| o.metrics.transmissions),
        mean_immediate_hits: mean_of(&|o| o.metrics.immediate_hits),
        mean_unfulfilled: mean_of(&|o| o.metrics.unfulfilled),
        mean_mandates_created: mean_of(&|o| o.metrics.mandates_created),
        mean_mandate_cap_hits: mean_of(&|o| o.metrics.mandate_cap_hits),
        workers: telemetry.workers,
        wall_s: telemetry.wall_s,
        mean_trial_wall_s: telemetry.trial_s / telemetry.trials as f64,
        worker_utilization: if telemetry.wall_s > 0.0 {
            (telemetry.busy_s / (telemetry.workers as f64 * telemetry.wall_s)).min(1.0)
        } else {
            1.0
        },
    }
}

/// Run `trials` independent trials of `policy` in parallel and aggregate.
///
/// Trial `k` uses seed `base_seed + k`, so results are reproducible and
/// different policies can be compared on *paired* randomness by sharing
/// `base_seed`.
pub fn run_trials(
    config: &SimConfig,
    source: &ContactSource,
    policy: &PolicyKind,
    trials: usize,
    base_seed: u64,
) -> TrialAggregate {
    run_trials_observed_with_workers(
        config,
        source,
        policy,
        trials,
        base_seed,
        None,
        &mut Recorder::disabled(),
    )
}

/// What the worker pool runs: one call per trial index, which runs that
/// trial in every lane the job names for it — one lane unless the job is
/// a shared contact drain ([`run_campaigns`]) — against the claiming
/// worker's scratch and a recorder per lane. The method is generic
/// because the per-trial sink type follows the caller's ([`Sink::Trial`]).
pub trait TrialJob: Sync {
    /// Working storage a worker builds once and threads through every
    /// trial it claims.
    type Scratch: Default;
    /// What one lane of one trial yields.
    type Output: Send;
    /// The lanes trial `index` runs, ascending.
    fn lanes(&self, _index: usize) -> Vec<usize> {
        vec![0]
    }
    /// Run trial `index`, lane `lanes[i]` reporting its events to
    /// `recs[i]`. One result per lane: the message of its panic for a
    /// lane that died alone. A panic that escapes fails every lane.
    fn run<K: Sink>(
        &self,
        index: usize,
        lanes: &[usize],
        scratch: &mut Self::Scratch,
        recs: &mut [Recorder<K>],
    ) -> Vec<Result<Self::Output, String>>;
}

/// Trial `k` of a serial-engine batch: seed `base_seed + k`, one contact
/// drain, one lane per policy that does not have the trial yet.
struct SeededLanes<'a> {
    config: &'a SimConfig,
    source: &'a ContactSource,
    policies: &'a [&'a PolicyKind],
    /// Per policy, the trials it already has.
    done: &'a [HashSet<usize>],
    base_seed: u64,
}

impl TrialJob for SeededLanes<'_> {
    type Scratch = Vec<TrialScratch>;
    /// The outcome and the wall time spent in its lane, in seconds.
    type Output = (TrialOutcome, f64);

    fn lanes(&self, k: usize) -> Vec<usize> {
        (0..self.policies.len())
            .filter(|&p| !self.done[p].contains(&k))
            .collect()
    }

    fn run<K: Sink>(
        &self,
        k: usize,
        lanes: &[usize],
        scratch: &mut Vec<TrialScratch>,
        recs: &mut [Recorder<K>],
    ) -> Vec<Result<Self::Output, String>> {
        if scratch.len() < lanes.len() {
            scratch.resize_with(lanes.len(), TrialScratch::new);
        }
        let policies: Vec<&PolicyKind> = lanes.iter().map(|&p| self.policies[p]).collect();
        run_lanes(
            self.config,
            self.source,
            self.base_seed + k as u64,
            &policies,
            recs,
            &mut scratch[..lanes.len()],
        )
        .into_iter()
        .map(|(outcome, lane_s)| match outcome {
            Ok(outcome) => Ok((outcome, lane_s)),
            Err(panic) => Err(panic_message(panic)),
        })
        .collect()
    }
}

/// One lane of one trial out of the pool: `(lane, trial, result)`.
pub type LaneResult<T> = (usize, usize, Result<T, String>);

/// Run `job` once per index in `trials` (ascending) on `workers` threads
/// and merge what the trials recorded into `rec`.
///
/// Idle workers claim the next unclaimed index, so a straggler trial
/// never idles the rest of the pool; each worker owns one scratch (the
/// engine's [`TrialScratch`], one per lane) threaded through every trial
/// it claims, so steady-state trials allocate nothing. Every trial runs
/// behind `catch_unwind`, each of its lanes against a recorder of its own
/// (same histogram shapes as `rec`) over the per-trial half of the
/// caller's sink ([`Sink::Trial`]), so a lane renders its events on the
/// worker's thread, in the form the caller's sink keeps them. After the
/// join the lanes are merged into `rec` **lane by lane, in trial order
/// within a lane** — tallies absorbed, events handed over as they are
/// ([`Sink::splice`]) — so counters, peaks, histograms and the event
/// stream are those of the deterministic serial run, independent of
/// worker count and scheduling, and with one lane per trial in trial
/// order. A disabled recorder skips the merge. A lane that panicked
/// yields its message and a `trial_panic` fault event in place of what it
/// recorded. Returns the results in the merge order and the summed
/// per-trial wall time.
pub fn run_jobs<S: Sink, J: TrialJob>(
    trials: &[usize],
    workers: usize,
    job: &J,
    rec: &mut Recorder<S>,
) -> (Vec<LaneResult<J::Output>>, f64) {
    const { assert!(<S::Trial as Sink>::ACTIVE == S::ACTIVE) };
    // Main-thread profiling spans: "trials" covers dispatch plus the
    // wait for workers (whose own time lands under the per-worker
    // "trial" root), "merge" the tally absorption and event hand-off.
    let trials_span = impatience_obs::span!("trials");
    let next = AtomicUsize::new(0);
    let work = || {
        let mut scratch = J::Scratch::default();
        let mut local = Vec::new();
        let mut busy = 0.0f64;
        while let Some(&k) = trials.get(next.fetch_add(1, Ordering::Relaxed)) {
            let lanes = job.lanes(k);
            let t0 = Instant::now();
            let mut recs: Vec<Recorder<S::Trial>> = lanes
                .iter()
                .map(|_| Recorder::new(S::Trial::default()))
                .collect();
            let results = catch_unwind(AssertUnwindSafe(|| {
                job.run(k, &lanes, &mut scratch, &mut recs)
            }))
            .unwrap_or_else(|panic| {
                let message = panic_message(panic);
                lanes.iter().map(|_| Err(message.clone())).collect()
            });
            busy += t0.elapsed().as_secs_f64();
            for ((lane, result), wrec) in lanes.into_iter().zip(results).zip(recs) {
                // Only a live recorder of a lane that finished is merged:
                // the others go now, not once the whole batch has joined.
                let wrec = (S::ACTIVE && result.is_ok()).then_some(wrec);
                local.push((lane, k, result, wrec));
            }
        }
        (local, busy)
    };
    let (mut done, busy_s) = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.min(trials.len()).max(1))
            .map(|_| scope.spawn(work))
            .collect();
        let mut done = Vec::with_capacity(trials.len());
        let mut busy_s = 0.0f64;
        for handle in handles {
            let (local, busy) = handle.join().expect("trial panics are caught");
            done.extend(local);
            busy_s += busy;
        }
        (done, busy_s)
    });
    trials_span.close();
    let _merge_span = impatience_obs::span!("merge");
    done.sort_by_key(|&(lane, k, ..)| (lane, k));
    let results = done.into_iter().map(|(lane, k, result, wrec)| {
        if let Some(wrec) = wrec {
            rec.absorb(&wrec);
            rec.sink_mut().splice(wrec.into_sink());
        }
        if result.is_err() {
            rec.fault(0.0, "trial_panic", k as u32, 0);
        }
        (lane, k, result)
    });
    (results.collect(), busy_s)
}

/// One worker per available core (4 if that cannot be queried).
pub fn default_workers() -> usize {
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// [`run_trials`] with instrumentation and an explicit worker count
/// (`None` picks one per available core): the [`run_campaign`] of one
/// lane with no checkpoint file, run as one chunk. What it records is a
/// pure function of `(config, source, policy, trials, base_seed)` (see
/// [`run_jobs`]), whatever the worker count; the override exists for
/// determinism tests and for sharing a host.
///
/// # Panics
/// Re-raises, with its message, the panic of the lowest-numbered trial
/// that panicked; an invalid configuration panics with its error.
pub fn run_trials_observed_with_workers<S: Sink>(
    config: &SimConfig,
    source: &ContactSource,
    policy: &PolicyKind,
    trials: usize,
    base_seed: u64,
    workers: Option<usize>,
    rec: &mut Recorder<S>,
) -> TrialAggregate {
    let options = CampaignOptions {
        checkpoint_every: 0,
        workers,
        ..CampaignOptions::default()
    };
    match run_campaign(config, source, policy, trials, base_seed, &options, rec) {
        Ok(outcome) if outcome.skipped.is_empty() => outcome.aggregate,
        Ok(CampaignOutcome { skipped, .. })
        | Err(CampaignError::AllTrialsFailed { skipped, .. }) => panic!("{}", skipped[0].1),
        Err(e) => panic!("{e}"),
    }
}

/// Aggregate of a batch of *intra-trial sharded* trials
/// ([`run_trials_sharded`]): the usual [`TrialAggregate`] plus the
/// artifacts specific to the sharded engine.
#[derive(Clone, Debug)]
pub struct ShardedAggregate {
    /// The standard cross-trial statistics.
    pub aggregate: TrialAggregate,
    /// Total contacts processed across all trials and lanes.
    pub contacts_processed: u64,
    /// Per-trial event digests, in trial order — a bit-identity
    /// fingerprint of the whole batch (independent of worker count).
    pub event_digests: Vec<u64>,
    /// Total injected-fault records across all trials.
    pub fault_events: u64,
}

/// Run `trials` trials on the intra-trial sharded engine
/// ([`crate::sharded`]) and aggregate like [`run_trials`].
///
/// The parallelism is *inside* each trial: trials execute one after
/// another, each spreading its shard and lane tasks over `workers`
/// threads (`None` picks one per core). Trial `k` uses seed
/// `base_seed + k`; every statistic, digest, and fault count is
/// independent of `workers` by construction.
///
/// # Errors
/// [`ConfigError`] when the configuration falls outside the sharded
/// engine's supported subset (see [`crate::sharded::validate_sharded`]).
pub fn run_trials_sharded(
    config: &SimConfig,
    source: &ContactSource,
    policy: &PolicyKind,
    trials: usize,
    base_seed: u64,
    workers: Option<usize>,
) -> Result<ShardedAggregate, ConfigError> {
    assert!(trials > 0, "need at least one trial");
    let workers = workers.unwrap_or_else(default_workers).max(1);
    let batch_start = Instant::now();
    let mut outcomes = Vec::with_capacity(trials);
    let mut event_digests = Vec::with_capacity(trials);
    let mut contacts_processed = 0u64;
    let mut fault_events = 0u64;
    let mut busy_s = 0.0f64;
    for k in 0..trials {
        let t0 = Instant::now();
        let sharded = run_trial_sharded(
            config,
            source,
            policy.clone(),
            base_seed + k as u64,
            workers,
        )?;
        busy_s += t0.elapsed().as_secs_f64();
        contacts_processed += sharded.contacts_processed;
        fault_events += sharded.fault_log.len() as u64;
        event_digests.push(sharded.event_digest);
        outcomes.push(sharded.outcome);
    }
    let telemetry = BatchTelemetry {
        workers,
        wall_s: batch_start.elapsed().as_secs_f64(),
        busy_s,
        trial_s: busy_s,
        trials,
    };
    Ok(ShardedAggregate {
        aggregate: aggregate(policy.label(), &outcomes, config.warmup_fraction, telemetry),
        contacts_processed,
        event_digests,
        fault_events,
    })
}

/// Knobs of a fault-tolerant campaign run ([`run_campaign`]).
#[derive(Clone, Debug)]
pub struct CampaignOptions {
    /// Checkpoint file. `None` disables checkpointing (the campaign
    /// still skips-and-reports panicking trials).
    pub checkpoint_path: Option<PathBuf>,
    /// Trials per checkpoint interval; `0` checkpoints only at the end.
    pub checkpoint_every: usize,
    /// Worker threads (`None` picks one per available core).
    pub workers: Option<usize>,
    /// Test hook: stop after this many completed chunks as if the
    /// process had been killed, leaving the checkpoint behind. `None`
    /// runs to completion.
    pub abort_after_chunks: Option<usize>,
    /// The CLI invocation to store in the checkpoint so `--resume` can
    /// replay it.
    pub cli_args: Vec<String>,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            checkpoint_path: None,
            checkpoint_every: 16,
            workers: None,
            abort_after_chunks: None,
            cli_args: Vec::new(),
        }
    }
}

/// Why a campaign could not produce an aggregate.
#[derive(Debug)]
pub enum CampaignError {
    /// The configuration or contact source is invalid.
    Config(ConfigError),
    /// The checkpoint could not be read, written, or matched.
    Checkpoint(CheckpointError),
    /// Every trial panicked; there is nothing to aggregate.
    AllTrialsFailed {
        /// Planned trial count.
        trials: usize,
        /// `(trial index, panic message)` of every trial.
        skipped: Vec<(usize, String)>,
    },
    /// The [`CampaignOptions::abort_after_chunks`] test hook fired.
    Aborted {
        /// Trials recorded in the checkpoint at the abort point.
        completed: usize,
    },
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Config(e) => write!(f, "invalid campaign configuration: {e}"),
            CampaignError::Checkpoint(e) => write!(f, "{e}"),
            CampaignError::AllTrialsFailed { trials, .. } => {
                write!(f, "all {trials} trials failed; nothing to aggregate")
            }
            CampaignError::Aborted { completed } => {
                write!(f, "campaign aborted by test hook after {completed} trials")
            }
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Config(e) => Some(e),
            CampaignError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CheckpointError> for CampaignError {
    fn from(e: CheckpointError) -> Self {
        CampaignError::Checkpoint(e)
    }
}

impl From<ConfigError> for CampaignError {
    fn from(e: ConfigError) -> Self {
        CampaignError::Config(e)
    }
}

/// Result of a fault-tolerant campaign.
#[derive(Clone, Debug)]
pub struct CampaignOutcome {
    /// Aggregate over every trial that completed (this run or a resumed
    /// one), in trial order.
    pub aggregate: TrialAggregate,
    /// `(trial index, panic message)` of skipped trials.
    pub skipped: Vec<(usize, String)>,
    /// Trials restored from the checkpoint instead of re-run.
    pub resumed: usize,
    /// Trials executed by this process.
    pub executed: usize,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "trial panicked (non-string payload)".to_string()
    }
}

/// Fault-tolerant batch of `trials` trials of `policy`, trial `k` on seed
/// `base_seed + k`: skip-and-report on panicking trials and, with a
/// checkpoint file, checkpoint/resume.
///
/// If [`CampaignOptions::checkpoint_path`] names an existing checkpoint
/// for the **same** campaign (fingerprint, trial count, and base seed
/// all match), its trials are restored instead of re-run and only the
/// remainder executes; because cached outcomes round-trip bit-exactly,
/// the final [`TrialAggregate`] is bit-identical to an uninterrupted
/// run. A checkpoint from a different campaign is rejected with
/// [`CheckpointError::Mismatch`]. Progress is snapshotted atomically
/// every [`CampaignOptions::checkpoint_every`] trials, so killing the
/// process at any point loses at most one interval of work and never
/// corrupts the file.
///
/// A panicking trial (e.g. a corrupt trace segment, or the
/// [`crate::faults::FaultConfig::panic_on_seeds`] chaos hook) is
/// recorded as skipped — in the checkpoint, in the returned
/// [`CampaignOutcome::skipped`], and as a `trial_panic` fault event —
/// while the rest of the campaign proceeds. Only if *every* trial fails
/// does the campaign error out.
///
/// Instrumentation caveat on resume: `rec` only sees the trials this
/// process executes; restored trials contribute to the aggregate but
/// not to the event stream. Wall-clock telemetry
/// ([`TrialAggregate::wall_s`] and friends) reflects this process, not
/// the sum over restarts — it is the one part of the aggregate that is
/// *not* bit-stable across a kill/resume.
///
/// This is the one-policy call of [`run_campaigns`].
pub fn run_campaign<S: Sink>(
    config: &SimConfig,
    source: &ContactSource,
    policy: &PolicyKind,
    trials: usize,
    base_seed: u64,
    options: &CampaignOptions,
    rec: &mut Recorder<S>,
) -> Result<CampaignOutcome, CampaignError> {
    let lanes = [(policy, options.checkpoint_path.as_deref())];
    run_campaigns(config, source, &lanes, trials, base_seed, options, rec)?
        .pop()
        .expect("one policy in, one outcome out")
}

/// The gate a campaign applies before its first trial: `config` resolved
/// on the source's population, then the source itself. A caller that
/// queues or plans campaigns calls it too, to refuse up front what
/// [`run_campaigns`] would refuse later.
pub fn campaign_gate(config: &SimConfig, source: &ContactSource) -> Result<(), ConfigError> {
    config.try_resolved(source.nodes())?;
    source.try_validate()
}

/// The campaigns of several policies on one `(config, source, base_seed)`
/// — a paired comparison — run together: trial `k` samples its contact
/// sequence once and every policy that still misses trial `k` rides it
/// as a lane (see [`crate::engine`]), instead of each policy's campaign
/// sampling the identical sequence again.
///
/// Each entry of `policies` is a policy and its checkpoint file
/// ([`CampaignOptions::checkpoint_path`] is not read here), and each is a
/// campaign of its own as [`run_campaign`] describes it: its own
/// fingerprint, checkpoint (same bytes, so files written by one-policy
/// campaigns resume here and vice versa), skipped list and outcome —
/// every trial outcome bit-identical to the one-policy campaign's. A
/// directory where some policies are complete, one is partial and the
/// rest are absent resumes by running, for each trial, only the lanes
/// that miss it. A panic inside one lane skips that `(policy, trial)`
/// alone.
///
/// The campaigns advance in lock step: an interval is
/// [`CampaignOptions::checkpoint_every`] trials of the union of what the
/// policies miss, after which every policy that ran in it writes its
/// checkpoint. `rec` receives, per interval, what the one-policy
/// campaigns would have sent it one after another: policy by policy, in
/// trial order within a policy. [`TrialAggregate::mean_trial_wall_s`]
/// (and an event stream's `TrialDone`) carry the time spent in that
/// policy's lanes; `wall_s` and `worker_utilization` describe the shared
/// run.
///
/// # Errors
/// The outer error is one that stops all campaigns: an invalid
/// configuration, a checkpoint that cannot be read, written or matched,
/// the abort hook. The inner one is that policy's
/// [`CampaignError::AllTrialsFailed`].
pub fn run_campaigns<S: Sink>(
    config: &SimConfig,
    source: &ContactSource,
    policies: &[(&PolicyKind, Option<&Path>)],
    trials: usize,
    base_seed: u64,
    options: &CampaignOptions,
    rec: &mut Recorder<S>,
) -> Result<Vec<Result<CampaignOutcome, CampaignError>>, CampaignError> {
    if trials == 0 {
        return Err(ConfigError::InvalidRate {
            message: "campaign needs at least one trial".to_string(),
        }
        .into());
    }
    campaign_gate(config, source)?;

    /// One policy's campaign in flight. The checkpoint is the state: what
    /// is saved is what `completed` holds, by reference.
    struct Campaign<'a> {
        path: Option<&'a Path>,
        checkpoint: CampaignCheckpoint,
        resumed: usize,
        executed: usize,
        trial_s: f64,
    }
    let mut campaigns = Vec::with_capacity(policies.len());
    for &(policy, path) in policies {
        let mut checkpoint = CampaignCheckpoint {
            fingerprint: fingerprint(config, source, policy, trials, base_seed),
            base_seed,
            trials,
            cli_args: options.cli_args.clone(),
            completed: Vec::new(),
        };
        if let Some(path) = path.filter(|path| path.exists()) {
            let saved = CampaignCheckpoint::load(path)?;
            saved.check_identity(&checkpoint.fingerprint, trials, base_seed)?;
            checkpoint.completed = saved.completed;
        }
        campaigns.push(Campaign {
            path,
            resumed: checkpoint.completed.len(),
            checkpoint,
            executed: 0,
            trial_s: 0.0,
        });
    }

    let done: Vec<HashSet<usize>> = campaigns
        .iter()
        .map(|c| c.checkpoint.completed.iter().map(|&(k, _)| k).collect())
        .collect();
    let pending: Vec<usize> = (0..trials)
        .filter(|k| done.iter().any(|done| !done.contains(k)))
        .collect();

    let workers = options.workers.unwrap_or_else(default_workers).max(1);
    let chunk = if options.checkpoint_every == 0 {
        pending.len().max(1)
    } else {
        options.checkpoint_every
    };

    let lanes: Vec<&PolicyKind> = policies.iter().map(|&(policy, _)| policy).collect();
    let job = SeededLanes {
        config,
        source,
        policies: &lanes,
        done: &done,
        base_seed,
    };
    let batch_start = Instant::now();
    let mut busy_s = 0.0f64;
    for (chunks_done, batch) in pending.chunks(chunk).enumerate() {
        if options
            .abort_after_chunks
            .is_some_and(|limit| chunks_done >= limit)
        {
            return Err(CampaignError::Aborted {
                completed: campaigns.iter().map(|c| c.checkpoint.completed.len()).sum(),
            });
        }
        let (records, batch_busy) = run_jobs(batch, workers, &job, rec);
        busy_s += batch_busy;
        let mut ran = vec![false; campaigns.len()];
        for (lane, k, record) in records {
            let campaign = &mut campaigns[lane];
            ran[lane] = true;
            campaign.executed += 1;
            let record = record.map(|(outcome, lane_s)| {
                campaign.trial_s += lane_s;
                outcome
            });
            campaign.checkpoint.completed.push((k, record));
        }
        // Checkpoint boundary: snapshot progress and drain any events
        // the sink has batched, so a kill between checkpoints loses at
        // most one interval of trace alongside one interval of trials.
        for (campaign, _) in campaigns.iter_mut().zip(ran).filter(|&(_, ran)| ran) {
            campaign.checkpoint.completed.sort_by_key(|&(k, _)| k);
            if let Some(path) = campaign.path {
                let _s = impatience_obs::span!("checkpoint_save");
                campaign.checkpoint.save(path)?;
            }
        }
        rec.sink_mut().flush();
    }

    let wall_s = batch_start.elapsed().as_secs_f64();
    let _agg_span = impatience_obs::span!("aggregate");
    let outcomes = campaigns.iter().zip(&lanes).map(|(campaign, policy)| {
        let mut outcomes = Vec::new();
        let mut skipped = Vec::new();
        for (k, record) in &campaign.checkpoint.completed {
            match record {
                Ok(outcome) => outcomes.push(outcome),
                Err(message) => skipped.push((*k, message.clone())),
            }
        }
        if outcomes.is_empty() {
            return Err(CampaignError::AllTrialsFailed { trials, skipped });
        }
        let telemetry = BatchTelemetry {
            workers: workers.min(trials),
            wall_s,
            busy_s,
            trial_s: campaign.trial_s,
            trials: campaign.executed.max(1),
        };
        Ok(CampaignOutcome {
            aggregate: aggregate(policy.label(), &outcomes, config.warmup_fraction, telemetry),
            skipped,
            resumed: campaign.resumed,
            executed: campaign.executed,
        })
    });
    Ok(outcomes.collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_trial, run_trial_observed};
    use impatience_core::demand::Popularity;
    use impatience_core::utility::Step;
    use std::sync::Arc;

    fn quick_setup() -> (SimConfig, ContactSource) {
        let config = SimConfig::builder(8, 2)
            .demand(Popularity::pareto(8, 1.0).demand_rates(0.5))
            .utility(Arc::new(Step::new(10.0)))
            .bin(100.0)
            .build();
        let source = ContactSource::homogeneous(8, 0.08, 800.0);
        (config, source)
    }

    #[test]
    fn aggregate_is_reproducible_and_ordered() {
        let (config, source) = quick_setup();
        let policy = PolicyKind::qcr_default();
        let a = run_trials(&config, &source, &policy, 6, 100);
        let b = run_trials(&config, &source, &policy, 6, 100);
        assert_eq!(a.rates, b.rates, "same seeds must give same trials");
        assert_eq!(a.trials, 6);
        assert!(a.p5_rate <= a.mean_rate + 1e-12);
        assert!(a.mean_rate <= a.p95_rate + 1e-12);
        assert_eq!(a.label, "QCR");
        assert_eq!(a.observed_series.len(), 8);
        assert_eq!(a.mean_final_replicas.len(), 8);
        // QCR replicates, so transmissions occur.
        assert!(a.mean_transmissions > 0.0);
    }

    #[test]
    fn different_base_seed_changes_trials() {
        let (config, source) = quick_setup();
        let policy = PolicyKind::qcr_default();
        let a = run_trials(&config, &source, &policy, 4, 1);
        let b = run_trials(&config, &source, &policy, 4, 1_000);
        assert_ne!(a.rates, b.rates);
    }

    #[test]
    fn final_replica_budget_preserved_in_mean() {
        let (config, source) = quick_setup();
        let policy = PolicyKind::qcr_default();
        let agg = run_trials(&config, &source, &policy, 4, 7);
        let total: f64 = agg.mean_final_replicas.iter().sum();
        assert!((total - 16.0).abs() < 1e-9, "budget 8·2 = 16, got {total}");
    }

    #[test]
    fn aggregate_carries_metric_means_and_telemetry() {
        let (config, source) = quick_setup();
        let policy = PolicyKind::qcr_default();
        let agg = run_trials(&config, &source, &policy, 4, 11);
        // QCR creates mandates and requests flow, so these means move.
        assert!(agg.mean_mandates_created > 0.0);
        assert!(agg.mean_immediate_hits + agg.mean_unfulfilled > 0.0);
        assert!(agg.mean_mandate_cap_hits >= 0.0);
        assert!(agg.workers >= 1 && agg.workers <= 4);
        assert!(agg.wall_s > 0.0);
        assert!(agg.mean_trial_wall_s > 0.0);
        assert!(agg.worker_utilization > 0.0 && agg.worker_utilization <= 1.0);
    }

    #[test]
    fn observed_batch_tallies_all_trials_and_matches_plain_run() {
        use impatience_obs::TallySink;

        let (config, source) = quick_setup();
        let policy = PolicyKind::qcr_default();
        let plain = run_trials(&config, &source, &policy, 5, 42);
        let mut rec = Recorder::new(TallySink);
        let observed =
            run_trials_observed_with_workers(&config, &source, &policy, 5, 42, None, &mut rec);

        // The observed run must reproduce the plain run trial for trial
        // (seeds are position-based, not worker-based), and a live
        // recorder no longer forces the batch serial: it uses the same
        // worker pool as the plain run.
        assert_eq!(plain.rates, observed.rates);
        assert_eq!(plain.mean_final_replicas, observed.mean_final_replicas);
        let expected_workers = thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .min(5);
        assert_eq!(
            observed.workers, expected_workers,
            "live recorder must use the full worker pool"
        );

        // Tallies cover every trial.
        assert_eq!(rec.counters.get("trials"), 5);
        assert!(
            (rec.counters.get("transmissions") as f64 - observed.mean_transmissions * 5.0).abs()
                < 1e-9
        );
        assert!(
            (rec.counters.get("immediate_hits") as f64 - observed.mean_immediate_hits * 5.0).abs()
                < 1e-9
        );
        assert!(
            (rec.counters.get("unfulfilled") as f64 - observed.mean_unfulfilled * 5.0).abs() < 1e-9
        );
        assert!(rec.delay.count() > 0, "some contact fulfillments expected");
        assert!(rec.inter_contact.count() > 0);
    }

    #[test]
    fn sharded_tallies_match_a_serial_reference() {
        use impatience_obs::TallySink;

        let (config, source) = quick_setup();
        let policy = PolicyKind::qcr_default();

        let mut sharded = Recorder::new(TallySink);
        let _ =
            run_trials_observed_with_workers(&config, &source, &policy, 6, 21, None, &mut sharded);

        // Manual serial reference: one recorder fed trial by trial.
        let mut serial = Recorder::new(TallySink);
        for k in 0..6u64 {
            let _ = run_trial_observed(&config, &source, policy.clone(), 21 + k, &mut serial);
        }

        assert_eq!(sharded.counters, serial.counters);
        assert_eq!(sharded.peaks, serial.peaks);
        // Histograms: bucket counts, totals, and extremes are exact; the
        // running f64 sum may differ in association order by a few ULPs.
        assert_eq!(sharded.delay.count(), serial.delay.count());
        assert_eq!(sharded.delay.min(), serial.delay.min());
        assert_eq!(sharded.delay.max(), serial.delay.max());
        assert_eq!(sharded.delay.quantile(0.5), serial.delay.quantile(0.5));
        assert_eq!(sharded.inter_contact.count(), serial.inter_contact.count());
        assert_eq!(
            sharded.inter_contact.quantile(0.95),
            serial.inter_contact.quantile(0.95)
        );
        let (a, b) = (sharded.delay.mean().unwrap(), serial.delay.mean().unwrap());
        assert!((a - b).abs() <= 1e-12 * b.abs().max(1.0), "{a} vs {b}");
    }

    #[test]
    fn campaign_without_faults_matches_the_separate_trials_bit_for_bit() {
        let (config, source) = quick_setup();
        let policy = PolicyKind::qcr_default();
        let separate: Vec<TrialOutcome> = (50..56)
            .map(|seed| run_trial(&config, &source, policy.clone(), seed))
            .collect();
        let telemetry = BatchTelemetry {
            workers: 1,
            wall_s: 0.0,
            busy_s: 0.0,
            trial_s: 0.0,
            trials: 6,
        };
        let reference = aggregate(policy.label(), &separate, config.warmup_fraction, telemetry);
        let campaign = run_campaign(
            &config,
            &source,
            &policy,
            6,
            50,
            &CampaignOptions::default(),
            &mut Recorder::disabled(),
        )
        .unwrap();
        assert_eq!(campaign.skipped, vec![]);
        assert_eq!(campaign.resumed, 0);
        assert_eq!(campaign.executed, 6);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        assert_eq!(bits(&campaign.aggregate.rates), bits(&reference.rates));
        assert_eq!(
            bits(&campaign.aggregate.mean_final_replicas),
            bits(&reference.mean_final_replicas)
        );
        assert_eq!(
            campaign.aggregate.mean_rate.to_bits(),
            reference.mean_rate.to_bits()
        );
    }

    #[test]
    fn a_plain_batch_re_raises_its_lowest_numbered_panic() {
        let (mut config, source) = quick_setup();
        config.faults = Some(crate::faults::FaultConfig {
            panic_on_seeds: vec![61, 63],
            ..Default::default()
        });
        let policy = PolicyKind::qcr_default();
        let panic = catch_unwind(AssertUnwindSafe(|| {
            run_trials_observed_with_workers(
                &config,
                &source,
                &policy,
                5,
                60,
                Some(2),
                &mut Recorder::disabled(),
            )
        }))
        .expect_err("a panicking trial panics the batch");
        let message = panic_message(panic);
        assert!(
            message.contains("chaos panic for trial seed 61"),
            "{message}"
        );
    }

    #[test]
    fn campaign_skips_and_reports_panicking_trials() {
        let (mut config, source) = quick_setup();
        // Chaos hook: trial seeds 61 and 63 panic at trial start.
        config.faults = Some(crate::faults::FaultConfig {
            panic_on_seeds: vec![61, 63],
            ..Default::default()
        });
        let policy = PolicyKind::qcr_default();
        let campaign = run_campaign(
            &config,
            &source,
            &policy,
            5,
            60,
            &CampaignOptions::default(),
            &mut Recorder::disabled(),
        )
        .unwrap();
        assert_eq!(campaign.aggregate.trials, 3);
        let skipped: Vec<usize> = campaign.skipped.iter().map(|&(k, _)| k).collect();
        assert_eq!(skipped, vec![1, 3]);
        assert!(campaign.skipped[0].1.contains("chaos panic"));

        // All seeds panicking is a campaign-level error.
        config.faults = Some(crate::faults::FaultConfig {
            panic_on_seeds: (60..65).collect(),
            ..Default::default()
        });
        assert!(matches!(
            run_campaign(
                &config,
                &source,
                &policy,
                5,
                60,
                &CampaignOptions::default(),
                &mut Recorder::disabled(),
            ),
            Err(CampaignError::AllTrialsFailed { trials: 5, .. })
        ));
    }

    #[test]
    fn campaign_rejects_invalid_config_with_typed_error() {
        let (mut config, source) = quick_setup();
        config.warmup_fraction = 2.0;
        let result = run_campaign(
            &config,
            &source,
            &PolicyKind::qcr_default(),
            3,
            0,
            &CampaignOptions::default(),
            &mut Recorder::disabled(),
        );
        assert!(matches!(
            result,
            Err(CampaignError::Config(ConfigError::InvalidWarmup { .. }))
        ));
    }

    #[test]
    fn event_sinks_receive_the_serial_stream_in_trial_order() {
        use impatience_obs::{Event, MemorySink};

        let (config, source) = quick_setup();
        let policy = PolicyKind::qcr_default();

        let mut parallel = Recorder::new(MemorySink::new());
        let _ =
            run_trials_observed_with_workers(&config, &source, &policy, 4, 33, None, &mut parallel);

        let mut serial = Recorder::new(MemorySink::new());
        for k in 0..4u64 {
            let _ = run_trial_observed(&config, &source, policy.clone(), 33 + k, &mut serial);
        }

        // Event-for-event identical to the serial stream: per-worker
        // buffers are flushed in trial order after the join. TrialDone
        // carries real wall time, so normalize it before comparing.
        let normalize = |events: &[Event]| -> Vec<Event> {
            events
                .iter()
                .map(|e| match *e {
                    Event::TrialDone { seed, .. } => Event::TrialDone { seed, wall_s: 0.0 },
                    ref other => other.clone(),
                })
                .collect()
        };
        assert_eq!(
            normalize(&parallel.sink().events),
            normalize(&serial.sink().events)
        );
        let seeds: Vec<u64> = parallel
            .sink()
            .events
            .iter()
            .filter_map(|e| match *e {
                Event::TrialDone { seed, .. } => Some(seed),
                _ => None,
            })
            .collect();
        assert_eq!(seeds, vec![33, 34, 35, 36]);
    }

    #[test]
    fn worker_count_shows_in_neither_jsonl_bytes_nor_stream_lines() {
        use impatience_obs::{EventStream, JsonlSink, StreamSink};
        use std::time::Duration;

        /// The batch under test: five trials from seed 70.
        fn batch<S: Sink>(workers: usize, rec: &mut Recorder<S>) {
            let (config, source) = quick_setup();
            let policy = PolicyKind::qcr_default();
            run_trials_observed_with_workers(&config, &source, &policy, 5, 70, Some(workers), rec);
        }
        // `wall_s` is real time and the last field of the lines that
        // carry it: cut it off.
        let masked = |line: &str| line.split("\"wall_s\":").next().unwrap().to_string();
        let observed = |workers: usize| -> (Vec<String>, Vec<String>) {
            let mut jsonl = Recorder::new(JsonlSink::new(Vec::new()));
            batch(workers, &mut jsonl);
            let text = String::from_utf8(jsonl.into_sink().into_inner().unwrap()).unwrap();
            assert!(text.ends_with('\n'));

            let stream = EventStream::new();
            let mut streamed = Recorder::new(StreamSink::new(stream.clone()));
            batch(workers, &mut streamed);
            streamed.into_sink().finish();
            let mut cursor = stream.subscribe(0);
            let mut lines = Vec::new();
            while let Some(tail) = cursor.next_chunk(Duration::ZERO) {
                for (idx, line) in tail.iter() {
                    assert_eq!(idx, lines.len(), "indices are dense");
                    lines.push(masked(line));
                }
            }
            (text.lines().map(masked).collect(), lines)
        };

        // The reference: one sink fed trial by trial on this thread.
        let (config, source) = quick_setup();
        let policy = PolicyKind::qcr_default();
        let mut serial = Recorder::new(JsonlSink::new(Vec::new()));
        for k in 0..5u64 {
            let _ = run_trial_observed(&config, &source, policy.clone(), 70 + k, &mut serial);
        }
        let serial = String::from_utf8(serial.into_sink().into_inner().unwrap()).unwrap();
        let serial: Vec<String> = serial.lines().map(masked).collect();
        // Every trial is several 64 KiB pieces of text.
        assert!(serial.iter().map(String::len).sum::<usize>() > 5 * 64 * 1024);

        for workers in [1, 3] {
            let (jsonl, lines) = observed(workers);
            assert!(jsonl == serial, "JSONL bytes at {workers} workers");
            assert!(lines == serial, "stream lines at {workers} workers");
        }
    }
}
