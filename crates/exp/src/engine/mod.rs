//! The experiment executor: compiles a parsed [`Spec`] into campaign
//! invocations and results files.
//!
//! Every simulated cell goes through
//! [`impatience_sim::runner::run_campaigns`], which gives
//! each `(cell, policy)` panic isolation, optional checkpoint/resume, and
//! fault injection for free — and runs the policies a cell compares on
//! one `(config, source, seed)` as lanes of one contact drain per trial
//! seed; without a checkpoint or faults the campaign path
//! is bit-identical to the plain trial runner, so the declarative
//! pipeline reproduces exactly what the retired per-figure binaries
//! wrote. Per-cell progress streams through the recorder as
//! [`Event::ExperimentDone`](impatience_obs::Event) events.

mod analytic;
mod homogeneous;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

use impatience_obs::{Progress, Recorder, Sink};
use impatience_sim::config::{ContactSource, SimConfig};
use impatience_sim::policy::PolicyKind;
use impatience_sim::runner::{run_campaigns, CampaignOptions, TrialAggregate};

use crate::error::ExpError;
use crate::spec::{Spec, SpecKind};
use crate::suite;

/// Where and how a spec executes.
pub struct ExecContext<'a, S: Sink> {
    /// Results directory.
    pub out_dir: PathBuf,
    /// Checkpoint directory; `None` disables checkpointing.
    pub checkpoint_dir: Option<PathBuf>,
    /// Worker threads per campaign (`None` picks one per core).
    pub workers: Option<usize>,
    /// The CLI invocation, stored in checkpoints for `--resume` replay.
    pub cli_args: Vec<String>,
    /// Suppress per-artifact stdout notes.
    pub quiet: bool,
    /// Event/counter stream for per-cell progress.
    pub rec: &'a mut Recorder<S>,
    /// Live per-cell progress meter (stderr, TTY-gated; ticked at the
    /// same site that emits `ExperimentDone`). Use
    /// [`Progress::disabled`] when no live feedback is wanted.
    pub progress: Progress,
}

/// What a spec execution produced.
#[derive(Debug, Default)]
pub struct ExecReport {
    /// CSV paths written, in order.
    pub artifacts: Vec<PathBuf>,
    /// Cells completed.
    pub cells: usize,
    /// `(cell/policy, panic message)` of trials the campaigns skipped.
    pub skipped: Vec<(String, String)>,
}

fn slug(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect()
}

impl<S: Sink> ExecContext<'_, S> {
    fn note(&self, msg: &str) {
        if !self.quiet {
            println!("{msg}");
        }
    }

    /// Run the campaigns of `lanes` — `(cell, policy)` pairs that share
    /// `(config, source, base_seed)`, hence every contact sequence —
    /// through the campaign runner as one suite call, returning their
    /// aggregates in order. Each pair keeps its own checkpoint file.
    #[allow(clippy::too_many_arguments)]
    fn run_lanes(
        &mut self,
        spec: &Spec,
        lanes: &[(&str, &PolicyKind)],
        config: &SimConfig,
        source: &ContactSource,
        trials: usize,
        base_seed: u64,
        report: &mut ExecReport,
    ) -> Result<Vec<TrialAggregate>, ExpError> {
        let _span = impatience_obs::span!("cell");
        let checkpoints: Vec<Option<PathBuf>> = lanes
            .iter()
            .map(|(cell, policy)| {
                self.checkpoint_dir.as_ref().map(|dir| {
                    dir.join(format!(
                        "{}--{}--{}.ckpt",
                        spec.name,
                        slug(cell),
                        slug(&policy.label())
                    ))
                })
            })
            .collect();
        let options = CampaignOptions {
            workers: self.workers,
            cli_args: self.cli_args.clone(),
            ..CampaignOptions::default()
        };
        let campaigns: Vec<_> = lanes
            .iter()
            .zip(&checkpoints)
            .map(|(&(_, policy), path)| (policy, path.as_deref()))
            .collect();
        let failed = |cell: String| {
            let spec = spec.name.clone();
            move |source| ExpError::Campaign { spec, cell, source }
        };
        let outcomes = run_campaigns(
            config, source, &campaigns, trials, base_seed, &options, self.rec,
        )
        .map_err(failed(lanes[0].0.to_string()))?;
        let mut aggregates = Vec::with_capacity(lanes.len());
        for ((outcome, (cell, policy)), checkpoint) in
            outcomes.into_iter().zip(lanes).zip(checkpoints)
        {
            let label = policy.label();
            let outcome = outcome.map_err(failed(format!("{cell}/{label}")))?;
            for (k, msg) in outcome.skipped {
                report
                    .skipped
                    .push((format!("{cell}/{label} trial {k}"), msg));
            }
            // The checkpoint has served its purpose once the cell completes;
            // removing it keeps `--resume` directories from accumulating.
            if let Some(path) = checkpoint {
                let _ = std::fs::remove_file(path);
            }
            aggregates.push(outcome.aggregate);
        }
        Ok(aggregates)
    }

    /// Run one `(cell, policy)` through the campaign runner.
    #[allow(clippy::too_many_arguments)]
    fn run_one(
        &mut self,
        spec: &Spec,
        cell: &str,
        config: &SimConfig,
        source: &ContactSource,
        policy: &PolicyKind,
        trials: usize,
        base_seed: u64,
        report: &mut ExecReport,
    ) -> Result<TrialAggregate, ExpError> {
        let lanes = [(cell, policy)];
        let mut aggregates =
            self.run_lanes(spec, &lanes, config, source, trials, base_seed, report)?;
        Ok(aggregates.pop().expect("one lane in, one aggregate out"))
    }

    /// Run QCR plus a competitor list, returning `(label, aggregate)`
    /// pairs. All policies share `base_seed` (paired randomness) so
    /// their contact and demand realizations match trial-for-trial.
    #[allow(clippy::too_many_arguments)]
    fn policy_suite(
        &mut self,
        spec: &Spec,
        cell: &str,
        config: &SimConfig,
        source: &ContactSource,
        competitors: Vec<PolicyKind>,
        trials: usize,
        base_seed: u64,
        report: &mut ExecReport,
    ) -> Result<Vec<(String, TrialAggregate)>, ExpError> {
        let mut policies = vec![PolicyKind::qcr_default()];
        policies.extend(competitors);
        let lanes: Vec<(&str, &PolicyKind)> = policies.iter().map(|p| (cell, p)).collect();
        let aggregates = self.run_lanes(spec, &lanes, config, source, trials, base_seed, report)?;
        Ok(policies
            .iter()
            .map(PolicyKind::label)
            .zip(aggregates)
            .collect())
    }

    /// One suite call in which every policy is a cell of its own: run
    /// the `(cell, policy)` pairs together, then close each cell in order
    /// (their `ExperimentDone` wall times all read the shared call).
    #[allow(clippy::too_many_arguments)]
    fn policy_cells(
        &mut self,
        spec: &Spec,
        cells: &[(String, PolicyKind)],
        config: &SimConfig,
        source: &ContactSource,
        trials: usize,
        base_seed: u64,
        report: &mut ExecReport,
    ) -> Result<Vec<TrialAggregate>, ExpError> {
        let started = Instant::now();
        let lanes: Vec<(&str, &PolicyKind)> = cells.iter().map(|(c, p)| (c.as_str(), p)).collect();
        let aggregates = self.run_lanes(spec, &lanes, config, source, trials, base_seed, report)?;
        for (cell, _) in cells {
            self.cell_done(spec, cell, 1, started, report);
        }
        Ok(aggregates)
    }

    /// Close a cell: bump the counter, emit the progress event.
    fn cell_done(
        &mut self,
        spec: &Spec,
        cell: &str,
        rows: u64,
        started: Instant,
        report: &mut ExecReport,
    ) {
        report.cells += 1;
        self.rec
            .experiment_done(&spec.name, cell, rows, started.elapsed().as_secs_f64());
        self.progress.tick(&format!("{}: {cell}", spec.name));
    }
}

impl Spec {
    /// Compile the spec's simulation configurations and validate them
    /// against the simulator's own rules
    /// ([`SimConfig::try_resolved`], as a trial would) without running
    /// anything. Analytic kinds and trace suites (whose node count only
    /// exists once the trace is generated) validate trivially.
    pub fn validate(&self) -> Result<(), ExpError> {
        let check = |config: &SimConfig, nodes: usize| -> Result<(), ExpError> {
            config
                .try_resolved(nodes)
                .map(drop)
                .map_err(|source| ExpError::Config {
                    spec: self.name.clone(),
                    source,
                })
        };
        let need_trials = |trials: usize| {
            if trials == 0 {
                Err(ExpError::spec(&self.name, "trials must be at least 1"))
            } else {
                Ok(())
            }
        };
        match &self.kind {
            SpecKind::LossSweep(s) => {
                need_trials(s.trials)?;
                for sweep in &s.sweeps {
                    let utility =
                        crate::spec::family_utility(&self.name, &sweep.family, sweep.values[0])?;
                    let (config, source, _) = homogeneous::sweep_setting(s, utility);
                    check(&config, source.nodes())?;
                }
                Ok(())
            }
            SpecKind::MandateRouting(s) => {
                need_trials(s.trials)?;
                let utility: std::sync::Arc<dyn impatience_core::utility::DelayUtility> =
                    std::sync::Arc::new(impatience_core::utility::Power::new(s.alpha));
                let (config, source, _) = suite::paper_homogeneous_setting(utility, s.duration);
                check(&config, source.nodes())
            }
            SpecKind::QcrAblation(s) => {
                need_trials(s.trials)?;
                for family in &s.regimes {
                    let utility = crate::spec::utility_of(&self.name, family)?;
                    let (config, source, _) = suite::paper_homogeneous_setting(utility, s.duration);
                    check(&config, source.nodes())?;
                }
                Ok(())
            }
            SpecKind::Eviction(s) => {
                need_trials(s.trials)?;
                for family in &s.regimes {
                    let utility = crate::spec::utility_of(&self.name, family)?;
                    let (config, source, _) = suite::paper_homogeneous_setting(utility, s.duration);
                    check(&config, source.nodes())?;
                }
                Ok(())
            }
            SpecKind::Degraded(s) => {
                need_trials(s.trials)?;
                let utility = crate::spec::utility_of(&self.name, &s.utility)?;
                let (config, source, _) = suite::paper_homogeneous_setting(utility, s.duration);
                check(&config, source.nodes())
            }
            SpecKind::DynamicDemand(s) => {
                need_trials(s.trials)?;
                let utility = crate::spec::utility_of(&self.name, &s.utility)?;
                let config = SimConfig::builder(s.items, s.rho)
                    .demand(suite::pareto_demand(s.items))
                    .utility(utility)
                    .bin(100.0)
                    .warmup_fraction(0.0)
                    .build();
                check(&config, s.nodes)
            }
            SpecKind::TraceSuite(s) => need_trials(s.trials),
            SpecKind::UtilityCurves(_)
            | SpecKind::AllocExponent(_)
            | SpecKind::ClosedForms(_)
            | SpecKind::MixedCatalog(_) => Ok(()),
        }
    }
}

/// Execute one spec, writing its artifacts into `ctx.out_dir`.
pub fn run_spec<S: Sink>(
    spec: &Spec,
    ctx: &mut ExecContext<'_, S>,
) -> Result<ExecReport, ExpError> {
    let _span = impatience_obs::span!("spec");
    let mut report = ExecReport::default();
    match &spec.kind {
        SpecKind::UtilityCurves(s) => analytic::utility_curves(spec, s, ctx, &mut report)?,
        SpecKind::AllocExponent(s) => analytic::alloc_exponent(spec, s, ctx, &mut report)?,
        SpecKind::ClosedForms(s) => analytic::closed_forms(spec, s, ctx, &mut report)?,
        SpecKind::MixedCatalog(s) => analytic::mixed_catalog(spec, s, ctx, &mut report)?,
        SpecKind::LossSweep(s) => homogeneous::loss_sweep(spec, s, ctx, &mut report)?,
        SpecKind::MandateRouting(s) => homogeneous::mandate_routing(spec, s, ctx, &mut report)?,
        SpecKind::QcrAblation(s) => homogeneous::qcr_ablation(spec, s, ctx, &mut report)?,
        SpecKind::DynamicDemand(s) => homogeneous::dynamic_demand(spec, s, ctx, &mut report)?,
        SpecKind::Eviction(s) => homogeneous::eviction(spec, s, ctx, &mut report)?,
        SpecKind::Degraded(s) => homogeneous::degraded(spec, s, ctx, &mut report)?,
        SpecKind::TraceSuite(s) => trace::trace_suite(spec, s, ctx, &mut report)?,
    }
    Ok(report)
}

/// Shared by the engines: write a CSV + manifest and note it.
#[allow(clippy::too_many_arguments)]
fn emit<S: Sink>(
    spec: &Spec,
    ctx: &ExecContext<'_, S>,
    report: &mut ExecReport,
    name: &str,
    header: &str,
    rows: &[String],
    seeds: &[u64],
    trials: usize,
) -> Result<(), ExpError> {
    let meta = crate::artifact::ArtifactMeta {
        spec,
        seeds,
        trials,
    };
    let write_span = impatience_obs::span!("write_csv");
    let path = crate::artifact::write_csv(&ctx.out_dir, name, header, rows, &meta)?;
    write_span.close();
    ctx.note(&format!("wrote {}", path.display()));
    report.artifacts.push(path);
    Ok(())
}
