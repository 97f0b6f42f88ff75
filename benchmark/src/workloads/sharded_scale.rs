//! `sharded_scale`: one QCR trial on the intra-trial sharded engine with
//! demand proportional to the population, so exchange and policy work,
//! not only the lane samplers, are in the measurement.

use std::sync::Arc;

use impatience_core::demand::Popularity;
use impatience_core::solver::fixed::uniform;
use impatience_core::utility::Step;
use impatience_sim::engine::run_trial;
use impatience_sim::sharded::{run_trial_sharded, ShardedOutcome};
use impatience_sim::{ContactSource, PolicyKind, SimConfig};

use super::{Env, Layers, Rep, Workload};
use crate::gen::{self, ShardedInputs, Size};
use crate::stats::timed;
use crate::trace::Tracer;

pub struct ShardedScale {
    inputs: ShardedInputs,
    config: SimConfig,
    source: ContactSource,
    workers: usize,
    size: Size,
    /// (event digest, contacts processed) of the first trial.
    reference: Option<(u64, u64)>,
}

fn config_with_demand(inputs: &ShardedInputs, requests_per_min: f64) -> SimConfig {
    SimConfig::builder(inputs.items, inputs.rho)
        .demand(Popularity::pareto(inputs.items, 1.0).demand_rates(requests_per_min))
        .utility(Arc::new(Step::new(10.0)))
        .bin(100.0)
        .build()
}

impl ShardedScale {
    fn trial(
        &self,
        config: &SimConfig,
        policy: PolicyKind,
        workers: usize,
        tr: &Tracer,
    ) -> Result<(ShardedOutcome, f64), String> {
        let (outcome, wall_s) = timed(|| {
            tr.span("sim.sharded", || {
                run_trial_sharded(
                    config,
                    &self.source,
                    policy,
                    self.inputs.trial_seed,
                    workers,
                )
            })
        });
        let outcome = outcome.map_err(|e| format!("run_trial_sharded: {e}"))?;
        Ok((outcome, wall_s))
    }

    /// The trial is a pure function of its inputs: digest and contact
    /// count must repeat across repetitions and worker counts.
    fn check_identity(&mut self, outcome: &ShardedOutcome, what: &str) -> Result<(), String> {
        let seen = (outcome.event_digest, outcome.contacts_processed);
        match self.reference {
            None => self.reference = Some(seen),
            Some(first) if first != seen => {
                return Err(format!(
                    "{what}: digest/contacts {seen:x?} differ from the first trial's {first:x?}"
                ))
            }
            Some(_) => {}
        }
        Ok(())
    }
}

impl Workload for ShardedScale {
    /// The trial must fit in this much memory, whole process.
    const RSS_LIMIT_MIB: Option<f64> = Some(64.0);

    fn setup(env: &Env<'_>) -> Result<Self, String> {
        let inputs = gen::sharded_scale(env.seed, env.size);
        let config = config_with_demand(&inputs, inputs.demand_per_node * inputs.nodes as f64);
        let source = ContactSource::homogeneous(inputs.nodes, inputs.mu, inputs.duration);
        Ok(ShardedScale {
            inputs,
            config,
            source,
            workers: env.workers,
            size: env.size,
            reference: None,
        })
    }

    fn repetition(&mut self, tr: &Tracer) -> Result<Rep, String> {
        let (outcome, wall_s) =
            self.trial(&self.config, PolicyKind::qcr_default(), self.workers, tr)?;
        self.check_identity(&outcome, "repetition")?;
        Ok(Rep {
            ops: outcome.contacts_processed,
            failed: 0,
            wall_s,
            latencies_ms: vec![wall_s * 1e3],
        })
    }

    fn probes(&mut self, tr: &Tracer, out: &mut Layers) -> Result<(), String> {
        let qcr = PolicyKind::qcr_default;
        let (wide, wide_s) = self.trial(&self.config, qcr(), self.workers, tr)?;
        let (narrow, narrow_s) = self.trial(&self.config, qcr(), 1, tr)?;
        self.check_identity(&wide, "probe trial")?;
        self.check_identity(&narrow, "one-worker trial")?;
        out.set("sim.sharded.trial_s", wide_s);
        out.set("sim.sharded.trial_w1_s", narrow_s);
        out.set("sim.sharded.speedup_w2", narrow_s / wide_s);
        out.set("sim.sharded.contacts", wide.contacts_processed as f64);
        out.set(
            "sim.sharded.transmissions",
            wide.outcome.metrics.transmissions as f64,
        );

        // Split the trial: a pinned allocation leaves sampling + exchange,
        // QCR adds the policy; idle demand (1 request/min system-wide, the
        // regime of the old BENCH rows) leaves the samplers alone.
        let pinned = PolicyKind::Static {
            label: "UNI",
            counts: uniform(self.inputs.items, self.inputs.nodes, self.inputs.rho),
        };
        let (_, static_s) = self.trial(&self.config, pinned, self.workers, tr)?;
        let idle = config_with_demand(&self.inputs, 1.0);
        let (_, idle_s) = self.trial(&idle, qcr(), self.workers, tr)?;
        out.set("sim.sharded.static_trial_s", static_s);
        out.set("sim.sharded.qcr_extra_s", wide_s - static_s);
        out.set("sim.sharded.idle_demand_trial_s", idle_s);

        // Continuity with BENCH_contact_pipeline.json: both engines, one
        // worker, on that file's n = 20 000 system (a tenth of it in smoke).
        let n = match self.size {
            Size::Full => 20_000,
            Size::Smoke => 2_000,
        };
        let config = SimConfig::builder(50, 5)
            .demand(Popularity::pareto(50, 1.0).demand_rates(1.0))
            .utility(Arc::new(Step::new(10.0)))
            .bin(100.0)
            .build();
        let source = ContactSource::homogeneous(n, 0.334 / n as f64, 600.0);
        let (_, serial_s) =
            timed(|| tr.span("sim.engine", || run_trial(&config, &source, qcr(), 1)));
        let (sharded, sharded_s) = timed(|| {
            tr.span("sim.sharded", || {
                run_trial_sharded(&config, &source, qcr(), 1, 1)
            })
        });
        sharded.map_err(|e| format!("run_trial_sharded: {e}"))?;
        out.set("sim.sharded.vs_serial_ratio", serial_s / sharded_s);
        Ok(())
    }
}
