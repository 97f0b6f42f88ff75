//! `solve_batch`: the solver work behind `impatience solve` and `verify`,
//! with no simulator in sight. Six utility families at two sizes, each
//! through greedy, relaxed, the equilibrium residual and the welfare, plus
//! heterogeneous greedy solves on a conference trace's rate matrix.

use std::sync::Arc;

use impatience_core::demand::{DemandProfile, DemandRates, Popularity};
use impatience_core::numeric::tolerances;
use impatience_core::rng::Xoshiro256;
use impatience_core::solver::fixed::apportion;
use impatience_core::solver::greedy::{greedy_homogeneous, greedy_homogeneous_observed};
use impatience_core::solver::het_greedy::greedy_heterogeneous;
use impatience_core::solver::relaxed::{relaxed_optimum, relaxed_optimum_observed};
use impatience_core::types::SystemModel;
use impatience_core::utility::{parse_utility, DelayUtility, Power};
use impatience_core::welfare::{social_welfare_homogeneous, HeterogeneousSystem};
use impatience_obs::{Event, MemorySink, Recorder};
use impatience_traces::gen::ConferenceConfig;
use impatience_traces::TraceStats;

use super::{Env, Layers, Rep, Workload};
use crate::gen;
use crate::stats::{median, median_time, timed};
use crate::trace::Tracer;

/// Property 1's equilibrium condition must hold this tightly.
const RESIDUAL_LIMIT: f64 = 1e-5;

struct Instance {
    system: SystemModel,
    demand: DemandRates,
    utility: Arc<dyn DelayUtility>,
}

pub struct SolveBatch {
    instances: Vec<Instance>,
    het_system: HeterogeneousSystem,
    het_demand: DemandRates,
    het_profile: DemandProfile,
    het_utilities: Vec<Arc<dyn DelayUtility>>,
}

/// Time one solver call as a span, an op and a share of the repetition's
/// busy time.
fn call<R>(tr: &Tracer, name: &'static str, rep: &mut Rep, f: impl FnOnce() -> R) -> R {
    let (result, wall_s) = timed(|| tr.span(name, f));
    rep.ops += 1;
    rep.wall_s += wall_s;
    result
}

impl Workload for SolveBatch {
    fn setup(env: &Env<'_>) -> Result<Self, String> {
        let inputs = gen::solve_batch(env.seed, env.size);
        let utility = |spec: &str| parse_utility(spec).map_err(|e| format!("utility {spec}: {e}"));
        let mut instances = Vec::new();
        for i in inputs.instances {
            instances.push(Instance {
                system: if i.dedicated {
                    SystemModel::dedicated(i.nodes, i.nodes, i.rho, i.mu)
                } else {
                    SystemModel::pure_p2p(i.nodes, i.rho, i.mu)
                },
                demand: DemandRates::new(i.demand),
                utility: utility(i.utility)?,
            });
        }
        let trace =
            ConferenceConfig::default().generate(&mut Xoshiro256::seed_from_u64(inputs.trace_seed));
        let stats = TraceStats::from_trace(&trace);
        Ok(SolveBatch {
            instances,
            het_system: HeterogeneousSystem::pure_p2p(stats.rates().clone(), 5),
            het_demand: Popularity::pareto(inputs.het_items, 1.0).demand_rates(1.0),
            het_profile: DemandProfile::uniform(inputs.het_items, trace.nodes()),
            het_utilities: inputs
                .het_utilities
                .iter()
                .map(|spec| utility(spec))
                .collect::<Result<_, _>>()?,
        })
    }

    fn repetition(&mut self, tr: &Tracer) -> Result<Rep, String> {
        let mut rep = Rep::default();
        for (k, i) in self.instances.iter().enumerate() {
            let (system, demand, utility) = (&i.system, &i.demand, i.utility.as_ref());
            let busy_before = rep.wall_s;
            let counts = call(tr, "core.solver.greedy", &mut rep, || {
                greedy_homogeneous(system, demand, utility)
            });
            let relaxed = call(tr, "core.solver.relaxed", &mut rep, || {
                relaxed_optimum(system, demand, utility)
            });
            let residual = call(tr, "core.solver.residual", &mut rep, || {
                relaxed.equilibrium_residual(system, demand, utility)
            });
            let welfare = call(tr, "core.welfare", &mut rep, || {
                social_welfare_homogeneous(system, demand, utility, &counts.as_f64())
            });
            // The latency-op: everything `impatience solve` does for one
            // instance.
            rep.latencies_ms.push((rep.wall_s - busy_before) * 1e3);

            // Checks, outside the timed calls.
            let what = format!("instance {k} ({})", utility.kind());
            if residual >= RESIDUAL_LIMIT || residual.is_nan() {
                return Err(format!("{what}: equilibrium residual {residual}"));
            }
            if counts.total() != system.total_slots() as u64 {
                return Err(format!(
                    "{what}: greedy placed {} of {} slots",
                    counts.total(),
                    system.total_slots()
                ));
            }
            let rounded: Vec<f64> = apportion(&relaxed.x, system.total_slots(), system.servers())
                .into_iter()
                .map(f64::from)
                .collect();
            let rounded_welfare = social_welfare_homogeneous(system, demand, utility, &rounded);
            let slack = tolerances::WELFARE_REL * welfare.abs().max(tolerances::WELFARE_ABS_FLOOR);
            if welfare < rounded_welfare - slack || welfare.is_nan() {
                return Err(format!(
                    "{what}: greedy welfare {welfare} is below the rounded relaxed allocation's {rounded_welfare}"
                ));
            }
        }
        for utility in &self.het_utilities {
            let alloc = call(tr, "core.solver.het_greedy", &mut rep, || {
                greedy_heterogeneous(
                    &self.het_system,
                    &self.het_demand,
                    &self.het_profile,
                    utility.as_ref(),
                )
            });
            let slots = (self.het_system.rho * self.het_system.servers.len()) as u64;
            if alloc.to_counts().total() != slots {
                return Err(format!(
                    "het_greedy ({}) placed {} of {slots} slots",
                    utility.kind(),
                    alloc.to_counts().total()
                ));
            }
        }
        Ok(rep)
    }

    fn probes(&mut self, tr: &Tracer, out: &mut Layers) -> Result<(), String> {
        // Times come from the traced repetitions' own spans: per pass, the
        // sum over instances; across passes, the median.
        let per_pass = |name: &str, calls: usize| {
            let sums: Vec<f64> = tr
                .durations(name)
                .chunks(calls)
                .map(|pass| pass.iter().sum::<f64>() * 1e3)
                .collect();
            median(&sums)
        };
        out.set(
            "core.solver.greedy_ms",
            per_pass("core.solver.greedy", self.instances.len()),
        );
        out.set(
            "core.solver.relaxed_ms",
            per_pass("core.solver.relaxed", self.instances.len()),
        );
        out.set(
            "core.solver.het_greedy_ms",
            per_pass("core.solver.het_greedy", self.het_utilities.len()),
        );

        // Counts come from the observed solvers' `solver_done` events.
        let mut rec = Recorder::new(MemorySink::new());
        for i in &self.instances {
            greedy_homogeneous_observed(&i.system, &i.demand, i.utility.as_ref(), &mut rec);
            relaxed_optimum_observed(&i.system, &i.demand, i.utility.as_ref(), &mut rec);
        }
        let (mut greedy_evals, mut relaxed_iters, mut relaxed_evals) = (0, 0, 0);
        for event in &rec.sink().events {
            if let Event::SolverDone {
                solver,
                iterations,
                evaluations,
                ..
            } = event
            {
                match *solver {
                    "greedy" => greedy_evals += evaluations,
                    "relaxed" => {
                        relaxed_iters += iterations;
                        relaxed_evals += evaluations;
                    }
                    _ => {}
                }
            }
        }
        out.set("core.solver.greedy_gain_evals", greedy_evals as f64);
        out.set("core.solver.relaxed_iterations", relaxed_iters as f64);
        out.set("core.solver.relaxed_evaluations", relaxed_evals as f64);

        // core.utility: one φ and one ψ of the power family (α = 0.5),
        // averaged over a grid of replica counts.
        let power = Power::new(0.5);
        const CALLS: usize = 2000;
        let grid = |k: usize| 0.5 + (k % 50) as f64;
        let ((), phi_s) = timed(|| {
            for k in 0..CALLS {
                std::hint::black_box(power.phi(std::hint::black_box(grid(k)), 0.05));
            }
        });
        let ((), psi_s) = timed(|| {
            for k in 0..CALLS {
                std::hint::black_box(power.psi(std::hint::black_box(grid(k)), 50.0, 0.05));
            }
        });
        out.set("core.utility.phi_ns", phi_s / CALLS as f64 * 1e9);
        out.set("core.utility.psi_ns", psi_s / CALLS as f64 * 1e9);

        let i = &self.instances[0];
        let counts = greedy_homogeneous(&i.system, &i.demand, i.utility.as_ref()).as_f64();
        out.set(
            "core.welfare.eval_us",
            median_time(20, || {
                std::hint::black_box(social_welfare_homogeneous(
                    &i.system,
                    &i.demand,
                    i.utility.as_ref(),
                    &counts,
                ));
            }) * 1e6,
        );
        Ok(())
    }
}
