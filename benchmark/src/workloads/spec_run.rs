//! `paper_sweep` and `trace_replay`: a generated TOML spec, parsed by
//! `exp::toml` and executed by `exp::run_spec`, as `impatience reproduce`
//! does. Both drive the serial `sim.engine`; they differ in where contacts
//! come from (Poisson sampler or trace cursor) and which solver gives OPT.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use impatience_core::demand::DemandProfile;
use impatience_core::rng::Xoshiro256;
use impatience_core::solver::het_greedy::greedy_heterogeneous;
use impatience_core::types::SystemModel;
use impatience_core::welfare::HeterogeneousSystem;
use impatience_exp::spec::{family_utility, SpecKind};
use impatience_exp::suite::{homogeneous_competitors, pareto_demand};
use impatience_exp::{run_spec, ExecContext, Spec};
use impatience_obs::{JsonlSink, Manifest, Progress, Recorder, TallySink};
use impatience_sim::engine::{run_trial, run_trial_observed, run_trial_scratch, TrialScratch};
use impatience_sim::runner::run_trials_observed_with_workers;
use impatience_sim::{ContactSource, PolicyKind, SimConfig};
use impatience_traces::gen::ConferenceConfig;
use impatience_traces::{resynthesize_memoryless, ContactStream, TraceStats};

use super::{Env, Layers, Rep, Workload};
use crate::gen::{self, SpecInputs, COMPETITORS};
use crate::stats::{median, median_time, timed};
use crate::trace::Tracer;

/// QCR may lose this much (percent of OPT's utility) at any sweep point.
const QCR_LOSS_LIMIT: f64 = -25.0;

/// What both spec workloads share: run the spec, check what it wrote.
struct SpecRun {
    inputs: SpecInputs,
    spec: Spec,
    out_dir: PathBuf,
    workers: usize,
    /// CSV bytes of the first run; every later run must write the same.
    reference: Option<Vec<Vec<u8>>>,
}

impl SpecRun {
    fn new(inputs: SpecInputs, env: &Env<'_>) -> Result<SpecRun, String> {
        let spec = parse(&inputs.toml)?;
        Ok(SpecRun {
            inputs,
            spec,
            out_dir: env.scratch.join("results"),
            workers: env.workers,
            reference: None,
        })
    }

    fn repetition(&mut self, tr: &Tracer) -> Result<Rep, String> {
        let (report, wall_s) = timed(|| -> Result<_, String> {
            let spec = tr.span("exp.toml", || parse(&self.inputs.toml))?;
            let mut rec = Recorder::disabled();
            let mut ctx = ExecContext {
                out_dir: self.out_dir.clone(),
                checkpoint_dir: None,
                workers: Some(self.workers),
                cli_args: Vec::new(),
                quiet: true,
                rec: &mut rec,
                progress: Progress::disabled(),
            };
            tr.span("exp.run_spec", || run_spec(&spec, &mut ctx))
                .map_err(|e| format!("run_spec: {e}"))
        });
        let report = report?;

        if !report.skipped.is_empty() {
            return Err(format!("run_spec skipped trials: {:?}", report.skipped));
        }
        if report.artifacts.len() != self.inputs.artifacts || report.cells != self.inputs.points {
            return Err(format!(
                "run_spec wrote {} artifacts over {} cells, expected {} over {}",
                report.artifacts.len(),
                report.cells,
                self.inputs.artifacts,
                self.inputs.points
            ));
        }
        let mut csvs = Vec::new();
        for path in &report.artifacts {
            if !Manifest::sibling_path(path).exists() {
                return Err(format!("{} has no manifest", path.display()));
            }
            let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
            check_qcr_loss(path, &bytes)?;
            csvs.push(bytes);
        }
        match &self.reference {
            None => self.reference = Some(csvs),
            Some(first) if *first != csvs => {
                return Err("CSV bytes differ between repetitions of the same spec".into())
            }
            Some(_) => {}
        }

        let trials = (self.inputs.points * COMPETITORS * self.inputs.trials) as u64;
        Ok(Rep {
            ops: trials,
            failed: 0,
            wall_s,
            latencies_ms: vec![wall_s * 1e3],
        })
    }

    /// Total bytes of the CSVs the spec writes. Manifests are left out:
    /// they carry a timestamp and the process's RSS, so their size is not
    /// a count that repeats.
    fn artifact_bytes(&self) -> f64 {
        let csvs = self.reference.as_ref().expect("a repetition ran in setup");
        csvs.iter().map(Vec::len).sum::<usize>() as f64
    }
}

fn parse(toml: &str) -> Result<Spec, String> {
    Spec::parse(toml, Path::new("spec.toml")).map_err(|e| format!("generated spec: {e}"))
}

/// Every data row's QCR column must stay within the loss limit.
fn check_qcr_loss(path: &Path, csv: &[u8]) -> Result<(), String> {
    let text = std::str::from_utf8(csv).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut lines = text.lines();
    let header = lines.next().unwrap_or_default();
    let column = header
        .split(',')
        .position(|c| c == "QCR")
        .ok_or_else(|| format!("{}: no QCR column in `{header}`", path.display()))?;
    for row in lines {
        let loss: f64 = row
            .split(',')
            .nth(column)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("{}: bad row `{row}`", path.display()))?;
        if loss < QCR_LOSS_LIMIT || loss.is_nan() {
            return Err(format!(
                "{}: QCR loss {loss}% is below {QCR_LOSS_LIMIT}% in `{row}`",
                path.display()
            ));
        }
    }
    Ok(())
}

/// Median wall time in ms of one `run_trial_scratch` over `seeds`.
fn trial_ms(
    config: &SimConfig,
    source: &ContactSource,
    policy: &PolicyKind,
    seeds: &[u64],
    tr: &Tracer,
    mut each: impl FnMut(&impatience_sim::TrialOutcome),
) -> f64 {
    let mut scratch = TrialScratch::new();
    let walls: Vec<f64> = seeds
        .iter()
        .map(|&seed| {
            let (outcome, wall) = timed(|| {
                tr.span("sim.engine", || {
                    run_trial_scratch(config, source, policy.clone(), seed, &mut scratch)
                })
            });
            each(&outcome);
            wall * 1e3
        })
        .collect();
    median(&walls)
}

// ---------------------------------------------------------- paper_sweep

pub struct PaperSweep(SpecRun);

impl Workload for PaperSweep {
    fn setup(env: &Env<'_>) -> Result<Self, String> {
        SpecRun::new(gen::paper_sweep(env.seed, env.size), env).map(PaperSweep)
    }

    fn repetition(&mut self, tr: &Tracer) -> Result<Rep, String> {
        self.0.repetition(tr)
    }

    fn probes(&mut self, tr: &Tracer, out: &mut Layers) -> Result<(), String> {
        let run = &self.0;
        let SpecKind::LossSweep(s) = &run.spec.kind else {
            return Err("generated spec is not a loss_sweep".into());
        };
        let source = ContactSource::homogeneous(s.nodes, s.mu, s.duration);
        let system = SystemModel::pure_p2p(s.nodes, s.rho, s.mu);
        let demand = pareto_demand(s.items);
        // One (config, competitors, trial seeds) triple per sweep point.
        let mut points = Vec::new();
        for sweep in &s.sweeps {
            for &value in &sweep.values {
                let utility = family_utility(&run.spec.name, &sweep.family, value)
                    .map_err(|e| e.to_string())?;
                let config = SimConfig::builder(s.items, s.rho)
                    .demand(demand.clone())
                    .utility(utility.clone())
                    .bin(s.bin)
                    .warmup_fraction(s.warmup_fraction)
                    .build();
                let mut policies = vec![PolicyKind::qcr_default()];
                policies.extend(homogeneous_competitors(&system, &demand, utility.as_ref()));
                let seeds: Vec<u64> = (0..s.trials as u64).map(|k| sweep.seed + k).collect();
                points.push((config, policies, seeds));
            }
        }

        // traces.stream: the sampler alone, on every trial seed.
        let mut contacts = 0u64;
        let ((), drain_s) = timed(|| {
            tr.span("traces.stream", || {
                for (_, _, seeds) in &points {
                    for &seed in seeds {
                        let mut rng = Xoshiro256::seed_from_u64(seed);
                        contacts += source.stream(&mut rng).count() as u64;
                    }
                }
            })
        });
        out.set("traces.stream.drain_s", drain_s);
        out.set("traces.stream.contacts", contacts as f64);
        out.set(
            "traces.stream.mcontacts_per_s",
            contacts as f64 / drain_s * 1e-6,
        );

        // sim.engine / sim.policy: one static (OPT) and one QCR trial per
        // seed of the first point, single-threaded.
        let (config, policies, seeds) = &points[0];
        let (qcr, opt) = (&policies[0], &policies[1]);
        let static_ms = trial_ms(config, &source, opt, seeds, tr, |_| ());
        let (mut requests, mut fulfillments, mut transmissions, mut mandates) = (0, 0, 0, 0);
        let qcr_ms = trial_ms(config, &source, qcr, seeds, tr, |o| {
            requests += o.metrics.requests_created;
            fulfillments += o.metrics.fulfillments();
            transmissions += o.metrics.transmissions;
            mandates += o.metrics.mandates_created;
        });
        let contacts_per_trial = contacts as f64 / (points.len() * seeds.len()) as f64;
        out.set("sim.engine.static_trial_ms", static_ms);
        out.set("sim.engine.qcr_trial_ms", qcr_ms);
        out.set(
            "sim.engine.contacts_per_s",
            contacts_per_trial / (static_ms * 1e-3),
        );
        out.set("sim.policy.qcr_extra_ms", qcr_ms - static_ms);
        out.set("sim.policy.mandates_created", mandates as f64);
        out.set("sim.engine.requests", requests as f64);
        out.set("sim.engine.fulfillments", fulfillments as f64);
        out.set("sim.engine.transmissions", transmissions as f64);

        // sim.runner: the trial batch at the workload's worker count and
        // at one, four cells' worth of trials so the batch outlasts
        // thread start-up.
        let batch = |workers: usize| {
            tr.span("sim.runner", || {
                run_trials_observed_with_workers(
                    config,
                    &source,
                    qcr,
                    4 * s.trials,
                    seeds[0],
                    Some(workers),
                    &mut Recorder::disabled(),
                )
            })
        };
        let wide = batch(run.workers);
        let narrow = batch(1);
        out.set("sim.runner.batch_s", wide.wall_s);
        out.set("sim.runner.batch_w1_s", narrow.wall_s);
        out.set("sim.runner.speedup_w2", narrow.wall_s / wide.wall_s);
        out.set("sim.runner.utilization", wide.worker_utilization);

        // exp: parse cost, and what run_spec adds over the bare batches.
        out.set(
            "exp.toml.parse_us",
            median_time(50, || {
                impatience_exp::toml::parse(&run.inputs.toml).expect("the spec parsed in setup");
            }) * 1e6,
        );
        let direct_s = median_time(3, || {
            for (config, policies, seeds) in &points {
                for policy in policies {
                    tr.span("sim.runner", || {
                        run_trials_observed_with_workers(
                            config,
                            &source,
                            policy,
                            seeds.len(),
                            seeds[0],
                            Some(run.workers),
                            &mut Recorder::disabled(),
                        )
                    });
                }
            }
        });
        let spec_s = median(&tr.durations("exp.run_spec"));
        out.set("exp.run_spec.overhead_share", 1.0 - direct_s / spec_s);
        out.set("exp.artifact.bytes", run.artifact_bytes());

        // obs: what each sink, and armed span probes, cost one trial.
        let seed = seeds[0];
        let plain = median_time(3, || {
            run_trial(config, &source, qcr.clone(), seed);
        });
        let tally = median_time(3, || {
            run_trial_observed(
                config,
                &source,
                qcr.clone(),
                seed,
                &mut Recorder::new(TallySink),
            );
        });
        let jsonl = median_time(3, || {
            let mut rec = Recorder::new(JsonlSink::new(Vec::with_capacity(1 << 20)));
            run_trial_observed(config, &source, qcr.clone(), seed, &mut rec);
        });
        impatience_obs::span::enable();
        let armed = median_time(3, || {
            run_trial(config, &source, qcr.clone(), seed);
        });
        impatience_obs::span::disable();
        // Drain what the armed trials recorded.
        let _ = impatience_obs::span::take_aggregate();
        out.set("obs.sink.tally_ratio", tally / plain);
        out.set("obs.sink.jsonl_ratio", jsonl / plain);
        out.set("obs.span.armed_ratio", armed / plain);
        Ok(())
    }
}

// --------------------------------------------------------- trace_replay

pub struct TraceReplay(SpecRun);

impl Workload for TraceReplay {
    fn setup(env: &Env<'_>) -> Result<Self, String> {
        SpecRun::new(gen::trace_replay(env.seed, env.size), env).map(TraceReplay)
    }

    fn repetition(&mut self, tr: &Tracer) -> Result<Rep, String> {
        self.0.repetition(tr)
    }

    fn probes(&mut self, tr: &Tracer, out: &mut Layers) -> Result<(), String> {
        let run = &self.0;
        let SpecKind::TraceSuite(s) = &run.spec.kind else {
            return Err("generated spec is not a trace_suite".into());
        };
        let axis = &s.sweeps[0].axis;

        // traces.gen: the generator and the memoryless resynthesis, on
        // the spec's own trace seed (the RNG continues, as in run_spec).
        let mut rng = Xoshiro256::seed_from_u64(s.trace_seed);
        let (trace, gen_s) = timed(|| {
            tr.span("traces.gen", || {
                ConferenceConfig::default().generate(&mut rng)
            })
        });
        let (_, resynth_s) =
            timed(|| tr.span("traces.gen", || resynthesize_memoryless(&trace, &mut rng)));
        out.set("traces.gen.conference_s", gen_s);
        out.set("traces.gen.resynth_s", resynth_s);

        // traces.cursor: as many replays as one repetition makes.
        let trace = Arc::new(trace);
        let replays = run.inputs.points * COMPETITORS * run.inputs.trials;
        let ((), drain_s) = timed(|| {
            tr.span("traces.cursor", || {
                for _ in 0..replays {
                    std::hint::black_box(ContactStream::cursor(Arc::clone(&trace)).count());
                }
            })
        });
        out.set("traces.cursor.drain_s", drain_s);

        // core.solver: OPT on the trace's estimated rates, as
        // exp::suite::trace_competitors computes it for a step utility.
        let utility = family_utility(&run.spec.name, &axis.family, axis.values[0])
            .map_err(|e| e.to_string())?;
        let demand = pareto_demand(s.items);
        let profile = DemandProfile::uniform(s.items, trace.nodes());
        let stats = TraceStats::from_trace(&trace);
        let system = HeterogeneousSystem::pure_p2p(stats.rates().clone(), s.rho);
        let (opt, het_s) = timed(|| {
            tr.span("core.solver", || {
                greedy_heterogeneous(&system, &demand, &profile, utility.as_ref())
            })
        });
        out.set("core.solver.het_greedy_ms", het_s * 1e3);

        // sim.engine: a pinned-OPT trial replaying the trace.
        let config = SimConfig::builder(s.items, s.rho)
            .demand(demand)
            .profile(profile)
            .utility(utility)
            .bin(s.bin)
            .warmup_fraction(s.warmup_fraction)
            .build();
        let policy = PolicyKind::Static {
            label: "OPT",
            counts: opt.to_counts(),
        };
        let source = ContactSource::Trace(trace);
        let seeds: Vec<u64> = (0..s.trials.max(3) as u64).map(|k| axis.seed + k).collect();
        out.set(
            "sim.engine.trace_trial_ms",
            trial_ms(&config, &source, &policy, &seeds, tr, |_| ()),
        );
        Ok(())
    }
}
