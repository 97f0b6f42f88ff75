//! The `delta_vs_scratch` differential: incremental re-optimization
//! ([`impatience_core::solver::incremental`]) against from-scratch
//! solves, anchored on the exhaustive brute forcer.
//!
//! Three layers of evidence, mirroring the discipline the engines get:
//!
//! 1. **Exhaustive tiny instances** — every delta step is checked for
//!    bit-identity against a scratch greedy solve *and* for welfare
//!    optimality against [`crate::brute::brute_force_homogeneous`]
//!    (Theorem 2 says they must coincide exactly).
//! 2. **Sampled instances** — too large to enumerate, still cheap to
//!    re-solve: bit-identity against scratch greedy across random delta
//!    batches of mixed size (demand nudges, withdrawals, budget and
//!    contact-rate changes).
//! 3. **Bounded-staleness soundness** — a twin ε-stale solver replays
//!    the same deltas; every accepted certificate is audited against the
//!    *actual* fresh optimum (`W_fresh − W_stale` must not exceed the
//!    certified gap), and the true staleness across all certified reuses
//!    is summarized with a CLT confidence bound that must sit inside ε.
//!
//! Everything is seeded — the sweep is bit-reproducible from one number.

use std::sync::Arc;

use impatience_core::allocation::ReplicaCounts;
use impatience_core::demand::{DemandRates, Popularity};
use impatience_core::numeric::tolerances;
use impatience_core::rng::Xoshiro256;
use impatience_core::solver::greedy::greedy_homogeneous;
use impatience_core::solver::incremental::{Delta, DeltaOutcome, DeltaSolver};
use impatience_core::types::SystemModel;
use impatience_core::utility::{DelayUtility, Exponential, NegLog, Power, Step};
use impatience_core::welfare::social_welfare_homogeneous;

use crate::brute::brute_force_homogeneous;
use crate::differential::clt_interval;

/// Outcome of one [`delta_vs_scratch`] sweep.
#[derive(Clone, Debug, Default)]
pub struct DeltaSweepReport {
    /// (instance, utility) cases exercised.
    pub cases: u64,
    /// Delta batches applied across all cases and solver variants.
    pub steps: u64,
    /// Bit-identity comparisons of incremental vs scratch allocations.
    pub exact_checks: u64,
    /// Bit-identity comparisons that failed (must be 0).
    pub exact_mismatches: u64,
    /// Welfare checks against the exhaustive brute-force optimum.
    pub brute_checks: u64,
    /// Brute-force welfare checks that failed (must be 0).
    pub brute_mismatches: u64,
    /// Staleness certificates evaluated by the ε-stale twin solvers.
    pub certificates: u64,
    /// Certificates that accepted the stale allocation.
    pub certified_reuses: u64,
    /// Certificate soundness audits that failed (must be 0): an accepted
    /// certificate whose true gap exceeded the certified gap, or a
    /// certified gap above ε·scale.
    pub certificate_violations: u64,
    /// Mean *true* relative staleness over certified reuses, with its
    /// CLT half-width, and the ε it must stay within (`None` until ≥ 2
    /// certified reuses exist).
    pub certified_gap_clt: Option<(f64, f64, f64)>,
    /// Human-readable description of each violation (empty on success).
    pub violations: Vec<String>,
}

impl DeltaSweepReport {
    /// Whether the whole sweep passed.
    pub fn ok(&self) -> bool {
        self.failures() == 0
    }

    /// The number of failed checks: every mismatch and certificate
    /// violation, plus one for a CLT summary over budget.
    pub fn failures(&self) -> u32 {
        (self.exact_mismatches + self.brute_mismatches + self.certificate_violations) as u32
            + u32::from(!self.clt_ok())
    }

    /// Whether the CLT summary of true staleness sits within ε (vacuously
    /// true until enough certified reuses accumulate).
    fn clt_ok(&self) -> bool {
        match self.certified_gap_clt {
            Some((mean, half_width, eps)) => mean + half_width <= eps,
            None => true,
        }
    }

    /// Multi-line human-readable summary.
    pub fn describe(&self) -> String {
        let mut out = format!(
            "delta_vs_scratch: {} cases, {} delta batches\n  exact     : {} checks, {} mismatches\n  brute     : {} checks, {} mismatches\n  stale-ε   : {} certificates, {} reuses, {} violations\n",
            self.cases,
            self.steps,
            self.exact_checks,
            self.exact_mismatches,
            self.brute_checks,
            self.brute_mismatches,
            self.certificates,
            self.certified_reuses,
            self.certificate_violations,
        );
        match self.certified_gap_clt {
            Some((mean, half_width, eps)) => out.push_str(&format!(
                "  true gap  : mean {mean:.3e} ± {half_width:.3e} (CLT) vs ε = {eps} → {}\n",
                if self.clt_ok() {
                    "within budget"
                } else {
                    "OVER BUDGET"
                }
            )),
            None => out.push_str("  true gap  : too few certified reuses for a CLT bound\n"),
        }
        for v in &self.violations {
            out.push_str(&format!("  violation : {v}\n"));
        }
        out
    }
}

fn sweep_utilities() -> Vec<(&'static str, Arc<dyn DelayUtility>)> {
    vec![
        ("step", Arc::new(Step::new(5.0))),
        ("exp", Arc::new(Exponential::new(0.5))),
        ("power", Arc::new(Power::new(0.5))),
        ("neglog", Arc::new(NegLog::new())),
    ]
}

/// A random delta batch: mostly demand nudges (occasionally a withdrawal
/// to rate 0), sometimes a cache-budget or contact-rate change when
/// `structural` is allowed.
fn random_batch(rng: &mut Xoshiro256, items: usize, size: usize, structural: bool) -> Vec<Delta> {
    let mut batch = Vec::with_capacity(size);
    for _ in 0..size {
        let roll = rng.f64();
        if structural && roll < 0.06 {
            batch.push(Delta::CacheBudget(1 + rng.index(4)));
        } else if structural && roll < 0.12 {
            batch.push(Delta::ContactRate(rng.range(0.02, 0.09)));
        } else if roll < 0.22 {
            batch.push(Delta::Demand {
                item: rng.index(items),
                rate: 0.0,
            });
        } else {
            batch.push(Delta::Demand {
                item: rng.index(items),
                rate: rng.range(0.01, 2.0),
            });
        }
    }
    batch
}

/// Audit one exact-mode step: bit-identity vs scratch greedy, plus (for
/// tiny instances, `brute`) welfare equality with the exhaustive optimum.
/// A failure is counted in `report` and described as `{label} step
/// {step}: …`. Returns the scratch allocation: the fresh optimum of the
/// solver's current demand.
pub(crate) fn audit_exact_step(
    report: &mut DeltaSweepReport,
    label: &str,
    step: usize,
    solver: &DeltaSolver,
    utility: &dyn DelayUtility,
    brute: bool,
) -> ReplicaCounts {
    let demand = DemandRates::new(solver.rates().to_vec());
    let scratch = greedy_homogeneous(solver.system(), &demand, utility);
    report.exact_checks += 1;
    if *solver.counts() != scratch {
        report.exact_mismatches += 1;
        report.violations.push(format!(
            "{label} step {step}: incremental {:?} != scratch {:?}",
            solver.counts().counts(),
            scratch.counts()
        ));
    }
    if brute && demand.rates().iter().any(|&d| d > 0.0) {
        let (_, w_best) = brute_force_homogeneous(solver.system(), &demand, utility);
        let w_inc = social_welfare_homogeneous(
            solver.system(),
            &demand,
            utility,
            &solver.counts().as_f64(),
        );
        report.brute_checks += 1;
        let scale = w_best.abs().max(1.0);
        let exact = (w_inc - w_best).abs() <= tolerances::WELFARE_REL * scale
            || (w_inc == f64::NEG_INFINITY && w_best == f64::NEG_INFINITY);
        if !exact {
            report.brute_mismatches += 1;
            report.violations.push(format!(
                "{label} step {step}: incremental welfare {w_inc} != brute optimum {w_best}"
            ));
        }
    }
    scratch
}

/// Audit one bounded-staleness step: on a certified reuse, require the
/// certificate's gap to dominate the true gap to `fresh`, the scratch
/// optimum of the solver's current demand (what [`audit_exact_step`]
/// returns for an exact twin fed the same deltas), and to respect ε.
/// Returns the true relative gap when a reuse was certified, `None` (and
/// checks nothing) otherwise.
pub(crate) fn audit_stale_step(
    report: &mut DeltaSweepReport,
    label: &str,
    step: usize,
    solver: &DeltaSolver,
    utility: &dyn DelayUtility,
    outcome: &DeltaOutcome,
    fresh: &ReplicaCounts,
) -> Option<f64> {
    let DeltaOutcome::CertifiedStale(cert) = outcome else {
        return None;
    };
    report.certified_reuses += 1;
    let demand = DemandRates::new(solver.rates().to_vec());
    let w_fresh = social_welfare_homogeneous(solver.system(), &demand, utility, &fresh.as_f64());
    let slack = tolerances::WELFARE_REL * cert.scale;
    if w_fresh - cert.stale_welfare > cert.gap + slack {
        report.certificate_violations += 1;
        report.violations.push(format!(
            "{label} step {step}: certified gap {} below true gap {} (stale {}, fresh {w_fresh})",
            cert.gap,
            w_fresh - cert.stale_welfare,
            cert.stale_welfare
        ));
    }
    if cert.gap > cert.eps * cert.scale {
        report.certificate_violations += 1;
        report.violations.push(format!(
            "{label} step {step}: accepted certificate with gap {} over ε·scale {}",
            cert.gap,
            cert.eps * cert.scale
        ));
    }
    Some(((w_fresh - cert.stale_welfare) / cert.scale).max(0.0))
}

/// Run the `delta_vs_scratch` differential sweep: 16 delta steps per
/// tiny case, 12 per sampled one. Deterministic given `seed`. See the
/// module docs for what is checked.
pub fn delta_vs_scratch(seed: u64) -> DeltaSweepReport {
    let mut report = DeltaSweepReport::default();
    let mut root = Xoshiro256::seed_from_u64(seed);
    let (steps_tiny, steps_sampled) = (16, 12);
    let eps = 0.05;
    let mut true_gaps: Vec<f64> = Vec::new();

    // Layer 1: exhaustive tiny instances (brute-force anchored).
    let tiny_items = 4;
    let tiny_systems = [
        ("dedicated", SystemModel::dedicated(6, 3, 2, 0.05)),
        ("pure-p2p", SystemModel::pure_p2p(4, 2, 0.05)),
    ];
    for (ulabel, utility) in sweep_utilities() {
        for (plabel, system) in tiny_systems {
            if utility.requires_dedicated() && system.population.is_pure_p2p() {
                continue;
            }
            let label = format!("tiny/{ulabel}/{plabel}");
            let mut rng = root.split(report.cases);
            let demand = Popularity::pareto(tiny_items, 1.0).demand_rates(1.0);
            let mut solver = DeltaSolver::new(system, &demand, Arc::clone(&utility));
            audit_exact_step(&mut report, &label, 0, &solver, utility.as_ref(), true);
            for step in 1..=steps_tiny {
                let size = 1 + rng.index(3);
                let batch = random_batch(&mut rng, tiny_items, size, true);
                solver
                    .apply(&batch)
                    .expect("tiny instances never fail to solve");
                report.steps += 1;
                audit_exact_step(&mut report, &label, step, &solver, utility.as_ref(), true);
            }
            report.cases += 1;
        }
    }

    // Layers 2 + 3: sampled instances — exact twin and ε-stale twin
    // replay the same delta sequence.
    let sampled = [
        ("sampled/pure-p2p", SystemModel::pure_p2p(50, 5, 0.05), 60),
        (
            "sampled/dedicated",
            SystemModel::dedicated(40, 20, 4, 0.05),
            80,
        ),
    ];
    for (ulabel, utility) in sweep_utilities() {
        for (plabel, system, items) in sampled {
            if utility.requires_dedicated() && system.population.is_pure_p2p() {
                continue;
            }
            let label = format!("{plabel}/{ulabel}");
            let mut rng = root.split(1000 + report.cases);
            let demand = Popularity::pareto(items, 1.0).demand_rates(1.0);
            let mut exact = DeltaSolver::new(system, &demand, Arc::clone(&utility));
            let mut stale =
                DeltaSolver::new(system, &demand, Arc::clone(&utility)).with_staleness(eps);
            for step in 1..=steps_sampled {
                // Mixed batch sizes: single-item nudges (the certifiable
                // case), medium bursts, and heavy reshuffles. Structural
                // deltas only on the exact twin's odd steps would fork
                // the sequences, so both twins get demand-only batches.
                let size = [1, 1, 4, 16][rng.index(4)];
                let batch = random_batch(&mut rng, items, size, false);
                exact.apply(&batch).expect("demand deltas cannot fail");
                report.steps += 1;
                let u = utility.as_ref();
                let fresh = audit_exact_step(&mut report, &label, step, &exact, u, false);
                let outcome = stale.apply(&batch).expect("demand deltas cannot fail");
                if let Some(gap) =
                    audit_stale_step(&mut report, &label, step, &stale, u, &outcome, &fresh)
                {
                    true_gaps.push(gap);
                }
            }
            report.certificates += stale.stats().certificates;
            report.cases += 1;
        }
    }

    if true_gaps.len() >= 2 {
        let (mean, half_width) = clt_interval(&true_gaps, 4.0);
        report.certified_gap_clt = Some((mean, half_width, eps));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_passes_and_certifies_some_reuse() {
        let report = delta_vs_scratch(2024);
        assert!(report.ok(), "{}", report.describe());
        assert!(
            report.exact_checks > 50,
            "sweep too small: {}",
            report.exact_checks
        );
        assert!(report.brute_checks > 20);
        assert!(
            report.certified_reuses > 0,
            "ε = 5% should certify at least one single-item nudge\n{}",
            report.describe()
        );
    }

    #[test]
    fn sweep_is_deterministic_given_seed() {
        let a = delta_vs_scratch(7);
        let b = delta_vs_scratch(7);
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.exact_checks, b.exact_checks);
        assert_eq!(a.certified_reuses, b.certified_reuses);
        match (a.certified_gap_clt, b.certified_gap_clt) {
            (Some((m1, h1, e1)), Some((m2, h2, e2))) => {
                assert_eq!(m1.to_bits(), m2.to_bits());
                assert_eq!(h1.to_bits(), h2.to_bits());
                assert_eq!(e1.to_bits(), e2.to_bits());
            }
            (None, None) => {}
            other => panic!("CLT summaries diverged: {other:?}"),
        }
    }
}
