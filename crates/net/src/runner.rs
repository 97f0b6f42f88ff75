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

use impatience_obs::{MetricsRegistry, Recorder, Sink};
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

impl NetAggregate {
    /// The batch's transport/protocol counters, conservation terms and
    /// degraded-trial count as a Prometheus registry, merged with
    /// whatever `rec` tallied.
    pub fn registry<S: Sink>(&self, rec: &Recorder<S>) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        reg.absorb_recorder(rec);
        let s = &self.stats;
        let counters: [(&str, &str, u64); 17] = [
            (
                "net_msgs_sent",
                "Frames submitted to an open link",
                s.msgs_sent,
            ),
            (
                "net_msgs_delivered",
                "Frames delivered to a live node",
                s.msgs_delivered,
            ),
            (
                "net_msgs_lost",
                "Frames destroyed by injected loss",
                s.msgs_lost,
            ),
            (
                "net_msgs_duplicated",
                "Extra copies from duplication faults",
                s.msgs_duplicated,
            ),
            (
                "net_transport_closed",
                "Sends or deliveries on a dead link",
                s.transport_closed,
            ),
            ("net_retries", "Protocol retransmissions", s.retries),
            (
                "net_ack_timeouts",
                "Transfers parked after the retry budget",
                s.ack_timeouts,
            ),
            (
                "net_handshake_timeouts",
                "Windows closed without an advert exchange",
                s.handshake_timeouts,
            ),
            (
                "net_handoffs_started",
                "Two-phase mandate transfers initiated",
                s.handoffs_started,
            ),
            (
                "net_handoffs_applied",
                "Custody handoffs applied at the receiver",
                s.handoffs_applied,
            ),
            (
                "net_acks_received",
                "Acks received back at the escrow holder",
                s.acks_received,
            ),
            (
                "net_execs_applied",
                "Mandated copies written by execute transfers",
                s.execs_applied,
            ),
            (
                "net_crashes",
                "Node crashes (churn plus chaos kills)",
                s.crashes,
            ),
            ("net_restarts", "Node restarts from checkpoint", s.restarts),
            (
                "net_stalls",
                "Nodes condemned by the heartbeat supervisor",
                s.stalls,
            ),
            (
                "net_requests_expired",
                "Requests abandoned by the deadline budget",
                s.requests_expired,
            ),
            (
                "net_heartbeats",
                "Heartbeats observed by the supervisor",
                s.heartbeats,
            ),
        ];
        for (name, help, v) in counters {
            reg.counter_add(&format!("impatience_{name}_total"), help, &[], v as f64);
        }
        let c = &self.conservation;
        for (term, v) in [
            ("minted", c.minted),
            ("executed", c.executed),
            ("discarded", c.discarded),
            ("pooled", c.pooled),
            ("escrowed", c.escrowed),
        ] {
            reg.gauge_set(
                "impatience_net_mandates",
                "Mandate conservation terms at quiesce (minted = sum of the rest)",
                &[("term", term)],
                v as f64,
            );
        }
        reg.gauge_set(
            "impatience_net_degraded_trials",
            "Trials that finished under a supervisor kill or the event cap",
            &[],
            self.degraded_trials as f64,
        );
        reg
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use impatience_obs::parse_prometheus;

    #[test]
    fn metrics_lint_and_carry_every_counter_and_conservation_term() {
        let config = SimConfig::builder(6, 2).build();
        let source = ContactSource::homogeneous(8, 0.1, 300.0);
        let agg = run_net_trials(&config, &source, &NetConfig::default(), 2, 5).unwrap();
        let reg = agg.registry(&Recorder::disabled());
        let samples = parse_prometheus(&reg.render()).expect("the registry lints");
        let value = |name: &str, labels: &[(&str, &str)]| {
            let found = samples.iter().find(|s| {
                s.name == name
                    && s.labels.len() == labels.len()
                    && s.labels
                        .iter()
                        .zip(labels)
                        .all(|(a, b)| (a.0.as_str(), a.1.as_str()) == *b)
            });
            found
                .unwrap_or_else(|| panic!("no sample {name} {labels:?}"))
                .value
        };
        let s = &agg.stats;
        for (name, v) in [
            ("msgs_sent", s.msgs_sent),
            ("msgs_delivered", s.msgs_delivered),
            ("msgs_lost", s.msgs_lost),
            ("msgs_duplicated", s.msgs_duplicated),
            ("transport_closed", s.transport_closed),
            ("retries", s.retries),
            ("ack_timeouts", s.ack_timeouts),
            ("handshake_timeouts", s.handshake_timeouts),
            ("handoffs_started", s.handoffs_started),
            ("handoffs_applied", s.handoffs_applied),
            ("acks_received", s.acks_received),
            ("execs_applied", s.execs_applied),
            ("crashes", s.crashes),
            ("restarts", s.restarts),
            ("stalls", s.stalls),
            ("requests_expired", s.requests_expired),
            ("heartbeats", s.heartbeats),
        ] {
            assert_eq!(
                value(&format!("impatience_net_{name}_total"), &[]),
                v as f64
            );
        }
        assert!(s.msgs_sent > 0, "the batch sent nothing");
        let c = &agg.conservation;
        for (term, v) in [
            ("minted", c.minted),
            ("executed", c.executed),
            ("discarded", c.discarded),
            ("pooled", c.pooled),
            ("escrowed", c.escrowed),
        ] {
            assert_eq!(
                value("impatience_net_mandates", &[("term", term)]),
                v as f64
            );
        }
        assert_eq!(value("impatience_net_degraded_trials", &[]), 0.0);
        assert_eq!(samples.len(), 17 + 5 + 1);
    }
}
