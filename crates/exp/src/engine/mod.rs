//! The experiment executor: compiles a parsed [`Spec`] into campaign
//! invocations and results files.
//!
//! Each kind is written once, as a `Kind` beside its engine: its
//! output stems and one enumeration of its `Cell`s — label, seed,
//! trials and the `(SimConfig, ContactSource)` pair exactly as it will
//! run. [`Spec::plan`] (hence `--list` and the progress meter) and
//! [`Spec::validate`] fold over that enumeration, and the kind's
//! `Kind::run` iterates it, so what is listed and validated is what
//! runs.
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

use std::fmt::Display;
use std::path::PathBuf;
use std::time::Instant;

use impatience_obs::{Progress, Recorder, Sink};
use impatience_sim::config::{ContactSource, SimConfig};
use impatience_sim::policy::PolicyKind;
use impatience_sim::runner::{campaign_gate, run_campaigns, CampaignOptions, TrialAggregate};

use crate::error::ExpError;
use crate::spec::{Plan, Spec, SpecKind};

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

/// One cell of a spec: what `--list` counts, [`Spec::validate`] resolves,
/// the progress meter ticks and the kind's engine runs, closing it with
/// one `ExperimentDone` event.
struct Cell<T = ()> {
    /// The label of its event, its progress tick and its checkpoints.
    label: String,
    /// Base seed of its trials (`None`: analytic, nothing is simulated).
    seed: Option<u64>,
    /// How many trials it runs from that seed on.
    trials: usize,
    /// The setting exactly as its trials run it — eviction rule, fault
    /// model and demand shift attached. `None` for analytic cells, and
    /// for a trace suite's until its trace has been generated.
    setting: Option<(SimConfig, ContactSource)>,
    /// What the kind's engine needs besides (the policy a cell pins, the
    /// CSV row it fills); `()` where the label, seed and setting say all.
    what: T,
}

impl Cell {
    fn analytic(label: &str) -> Self {
        Cell {
            label: label.to_string(),
            seed: None,
            trials: 0,
            setting: None,
            what: (),
        }
    }
}

impl<T> Cell<T> {
    fn simulated(
        label: String,
        (seed, trials): (u64, usize),
        setting: Option<(SimConfig, ContactSource)>,
        what: T,
    ) -> Self {
        Cell {
            label,
            seed: Some(seed),
            trials,
            setting,
            what,
        }
    }

    /// What a simulated cell hands the campaign runner.
    fn campaign(&self) -> (&SimConfig, &ContactSource, u64) {
        match (&self.setting, self.seed) {
            (Some((config, source)), Some(seed)) => (config, source, seed),
            _ => panic!("`{}` is not a simulated cell with its setting", self.label),
        }
    }
}

/// An experiment kind, written once: each `spec::*Spec` payload
/// implements this beside its engine, and [`Spec::plan`],
/// [`Spec::validate`] and [`run_spec`] are the three readers.
trait Kind {
    /// What [`Cell::what`] carries for this kind.
    type What;

    /// The CSV stems [`Kind::run`] writes, in order.
    fn outputs(&self) -> Vec<String>;

    /// Every cell in execution order, without running anything.
    /// [`Kind::run`] walks this same list: it formats no label and builds
    /// no setting of its own.
    fn cells(&self, spec: &str) -> Result<Vec<Cell<Self::What>>, ExpError>;

    /// Refuse what the core constructors [`Kind::run`] calls would assert
    /// on. An analytic kind has no cell setting for the campaign gate to
    /// judge, so it states its own rules here.
    fn check(&self, _spec: &str) -> Result<(), ExpError> {
        Ok(())
    }

    /// Run the cells and write the outputs.
    fn run<S: Sink>(&self, run: &mut Run<'_, '_, S>) -> Result<(), ExpError>;
}

/// The one place a kind name meets its payload: evaluate `$body` with
/// `$k` bound to the spec's [`Kind`].
macro_rules! each_kind {
    ($kind:expr, $k:ident => $body:expr) => {
        match $kind {
            SpecKind::UtilityCurves($k) => $body,
            SpecKind::AllocExponent($k) => $body,
            SpecKind::ClosedForms($k) => $body,
            SpecKind::MixedCatalog($k) => $body,
            SpecKind::LossSweep($k) => $body,
            SpecKind::MandateRouting($k) => $body,
            SpecKind::TraceSuite($k) => $body,
            SpecKind::QcrAblation($k) => $body,
            SpecKind::DynamicDemand($k) => $body,
            SpecKind::Eviction($k) => $body,
            SpecKind::Degraded($k) => $body,
        }
    };
}

/// The campaign gate ([`campaign_gate`]) as a spec error.
fn accepted(spec: &str, config: &SimConfig, source: &ContactSource) -> Result<(), ExpError> {
    campaign_gate(config, source).map_err(|source| ExpError::Config {
        spec: spec.to_string(),
        source,
    })
}

fn plan_of<K: Kind>(kind: &K, spec: &str) -> Result<Plan, ExpError> {
    let cells = kind.cells(spec)?;
    let mut seeds = Vec::new();
    for seed in cells.iter().filter_map(|cell| cell.seed) {
        if !seeds.contains(&seed) {
            seeds.push(seed);
        }
    }
    Ok(Plan {
        outputs: kind.outputs(),
        seeds,
        trials: cells.iter().map(|cell| cell.trials).max().unwrap_or(0),
        cells: cells.into_iter().map(|cell| cell.label).collect(),
    })
}

fn validate_of<K: Kind>(kind: &K, spec: &str) -> Result<(), ExpError> {
    kind.check(spec)?;
    for cell in kind.cells(spec)? {
        if cell.seed.is_some() && cell.trials == 0 {
            return Err(ExpError::spec(spec, "trials must be at least 1"));
        }
        if let Some((config, source)) = &cell.setting {
            accepted(spec, config, source)?;
        }
    }
    Ok(())
}

impl Spec {
    /// Derive the execution plan — outputs, cell labels, distinct seeds
    /// in first-use order, trials — from the kind's cell enumeration,
    /// without running anything.
    pub fn plan(&self) -> Result<Plan, ExpError> {
        each_kind!(&self.kind, k => plan_of(k, &self.name))
    }

    /// Hold every cell's setting to the simulator's own rules (the
    /// [`campaign_gate`] a campaign applies before its first trial)
    /// without running anything.
    /// Analytic cells have no setting: their kind refuses what the core
    /// constructors would assert on instead. A trace suite's settings only
    /// exist once its trace is generated; it checks its trial count alone.
    pub fn validate(&self) -> Result<(), ExpError> {
        each_kind!(&self.kind, k => validate_of(k, &self.name))
    }
}

/// Execute one spec, writing its artifacts into `ctx.out_dir`.
pub fn run_spec<S: Sink>(
    spec: &Spec,
    ctx: &mut ExecContext<'_, S>,
) -> Result<ExecReport, ExpError> {
    let _span = impatience_obs::span!("spec");
    let mut run = Run {
        spec,
        ctx,
        report: ExecReport::default(),
    };
    each_kind!(&spec.kind, k => k.run(&mut run))?;
    Ok(run.report)
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

/// One spec being executed: the spec, the caller's context, and what the
/// execution has produced so far.
struct Run<'a, 'c, S: Sink> {
    spec: &'a Spec,
    ctx: &'a mut ExecContext<'c, S>,
    report: ExecReport,
}

impl<S: Sink> Run<'_, '_, S> {
    /// Run the campaigns of `lanes` — `(cell label, policy)` pairs that
    /// share `at`'s setting and seed, hence every contact sequence —
    /// through the campaign runner as one suite call, returning their
    /// aggregates in order. Each pair keeps its own checkpoint file.
    fn run_lanes<T>(
        &mut self,
        at: &Cell<T>,
        lanes: &[(&str, &PolicyKind)],
    ) -> Result<Vec<TrialAggregate>, ExpError> {
        let _span = impatience_obs::span!("cell");
        let (config, source, base_seed) = at.campaign();
        let ctx = &mut *self.ctx;
        let checkpoints: Vec<Option<PathBuf>> = lanes
            .iter()
            .map(|(cell, policy)| {
                ctx.checkpoint_dir.as_ref().map(|dir| {
                    dir.join(format!(
                        "{}--{}--{}.ckpt",
                        self.spec.name,
                        slug(cell),
                        slug(&policy.label())
                    ))
                })
            })
            .collect();
        let options = CampaignOptions {
            workers: ctx.workers,
            cli_args: ctx.cli_args.clone(),
            ..CampaignOptions::default()
        };
        let campaigns: Vec<_> = lanes
            .iter()
            .zip(&checkpoints)
            .map(|(&(_, policy), path)| (policy, path.as_deref()))
            .collect();
        let failed = |cell: String| {
            let spec = self.spec.name.clone();
            move |source| ExpError::Campaign { spec, cell, source }
        };
        let outcomes = run_campaigns(
            config, source, &campaigns, at.trials, base_seed, &options, ctx.rec,
        )
        .map_err(failed(lanes[0].0.to_string()))?;
        let mut aggregates = Vec::with_capacity(lanes.len());
        for ((outcome, (cell, policy)), checkpoint) in
            outcomes.into_iter().zip(lanes).zip(checkpoints)
        {
            let label = policy.label();
            let outcome = outcome.map_err(failed(format!("{cell}/{label}")))?;
            for (k, msg) in outcome.skipped {
                self.report
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

    /// One cell that compares policies: run QCR plus the `competitors`
    /// of its config as lanes of one suite call — they share the cell's
    /// seed, so their contact and demand realizations match trial for
    /// trial — close the cell, and return `(label, aggregate)` pairs.
    fn suite<T>(
        &mut self,
        cell: &Cell<T>,
        competitors: impl FnOnce(&SimConfig) -> Vec<PolicyKind>,
    ) -> Result<Vec<(String, TrialAggregate)>, ExpError> {
        let started = Instant::now();
        let mut policies = vec![PolicyKind::qcr_default()];
        policies.extend(competitors(cell.campaign().0));
        let lanes: Vec<_> = policies.iter().map(|p| (cell.label.as_str(), p)).collect();
        let aggregates = self.run_lanes(cell, &lanes)?;
        self.cell_done(&cell.label, policies.len() as u64, started);
        Ok(policies
            .iter()
            .map(PolicyKind::label)
            .zip(aggregates)
            .collect())
    }

    /// Cells that are one policy each, on one setting and seed: run them
    /// together as one suite call, then close each in order (their
    /// `ExperimentDone` wall times all read the shared call).
    fn policy_cells<T>(
        &mut self,
        cells: &[Cell<T>],
        policy: impl Fn(&T) -> &PolicyKind,
    ) -> Result<Vec<TrialAggregate>, ExpError> {
        let started = Instant::now();
        let lanes: Vec<_> = cells
            .iter()
            .map(|cell| (cell.label.as_str(), policy(&cell.what)))
            .collect();
        let aggregates = self.run_lanes(&cells[0], &lanes)?;
        for cell in cells {
            self.cell_done(&cell.label, 1, started);
        }
        Ok(aggregates)
    }

    /// Close a cell: bump the counter, emit the progress event.
    fn cell_done(&mut self, cell: &str, rows: u64, started: Instant) {
        let spec = &self.spec.name;
        self.report.cells += 1;
        let wall_s = started.elapsed().as_secs_f64();
        self.ctx.rec.experiment_done(spec, cell, rows, wall_s);
        self.ctx.progress.tick(&format!("{spec}: {cell}"));
    }

    /// Write `table` as `name.csv` beside its manifest, and note it.
    fn emit(
        &mut self,
        name: &str,
        table: &Table,
        seeds: &[u64],
        trials: usize,
    ) -> Result<(), ExpError> {
        let meta = crate::artifact::ArtifactMeta {
            spec: self.spec,
            seeds,
            trials,
        };
        let write_span = impatience_obs::span!("write_csv");
        let path =
            crate::artifact::write_csv(&self.ctx.out_dir, name, &table.header, &table.rows, &meta)?;
        write_span.close();
        if !self.ctx.quiet {
            println!("wrote {}", path.display());
        }
        self.report.artifacts.push(path);
        Ok(())
    }
}

/// A CSV in the making. The simulated kinds write two shapes, each built
/// here and nowhere else; every number goes through `Display`.
struct Table {
    header: String,
    rows: Vec<String>,
}

impl Table {
    fn new(header: &str, rows: Vec<String>) -> Table {
        Table {
            header: header.to_string(),
            rows,
        }
    }

    /// `time,<label>…`: one row per metrics bin of width `bin`, one
    /// column per `(label, series)`.
    fn series<D: Display>(bin: f64, columns: &[(&str, &[D])]) -> Table {
        let mut header = "time".to_string();
        for (label, _) in columns {
            header.push_str(&format!(",{label}"));
        }
        let bins = columns.first().map_or(0, |(_, series)| series.len());
        let rows = (0..bins)
            .map(|b| {
                let mut row = format!("{}", b as f64 * bin);
                for (_, series) in columns {
                    row.push_str(&format!(",{}", series[b]));
                }
                row
            })
            .collect();
        Table { header, rows }
    }

    /// `<param>,<label>…`: one row per swept value, added by
    /// [`Table::point`]; the first point names the columns.
    fn sweep(param: &str) -> Table {
        Table::new(param, Vec::new())
    }

    /// The row of swept `value`: one `(label, number)` per column.
    fn point(&mut self, value: f64, points: &[(String, f64)]) {
        let mut row = format!("{value}");
        for (label, number) in points {
            if self.rows.is_empty() {
                self.header.push_str(&format!(",{label}"));
            }
            row.push_str(&format!(",{number}"));
        }
        self.rows.push(row);
    }
}
