//! Relaxed (fractional) optimal allocation under homogeneous contacts:
//! the water-filling solution of Property 1, and a projected-gradient
//! solver for cross-validation (Theorem 2 mentions gradient descent).
//!
//! Property 1: at the relaxed optimum `x̃`, for all items inside the box
//! `0 < x̃_i < |S|`,
//!
//! ```text
//! d_i·φ(x̃_i) = λ           (a common "water level")
//! ```
//!
//! with `φ(x) = ∫ μ t e^{−μtx} c(t) dt` strictly decreasing. The solver
//! therefore inverts `φ` per item and finds the level `λ` that exhausts
//! the budget `Σ x̃_i = ρ|S|`, both with [`brent_between`] and both in
//! log–log coordinates: the inversion solves `ln(d·φ(eᵘ)) − ln λ = 0`
//! over `u = ln x`, the level search `ln(Σ x̃_i(e^v) / ρ|S|) = 0` over
//! `v = ln λ`. The coordinates are what makes the interpolation pay:
//! `φ` of the power family and of neg-log is a power law, so its
//! inversion is exactly affine in `u` and one secant step solves it
//! (on raw `x ∈ [1e-9, |S|]`, where that power law hugs both axes, the
//! same root finder needs some fifteen evaluations); step, exponential
//! and custom utilities are smooth in `u` and converge superlinearly.
//!
//! For the power family the solution is the closed form
//! `x̃_i ∝ d_i^{1/(2−α)}` (Fig. 2), which the tests verify.

use std::cell::Cell;
use std::time::Instant;

use impatience_obs::{Recorder, Sink};

use super::{check_population, SolverError};
use crate::demand::DemandRates;
use crate::numeric::{brent_between, BracketError};
use crate::types::SystemModel;
use crate::utility::DelayUtility;

/// A fractional allocation together with the equilibrium level that
/// produced it.
#[derive(Clone, Debug, PartialEq)]
pub struct RelaxedAllocation {
    /// Fractional replica counts `x̃_i ∈ [0, |S|]`.
    pub x: Vec<f64>,
    /// The common marginal value `λ = d_i·φ(x̃_i)` on the interior.
    pub level: f64,
}

impl RelaxedAllocation {
    /// Total fractional replicas.
    pub fn total(&self) -> f64 {
        self.x.iter().sum()
    }

    /// Largest violation of Property 1's equilibrium condition over
    /// interior items — a residual for testing (0 at the exact optimum).
    pub fn equilibrium_residual(
        &self,
        system: &SystemModel,
        demand: &DemandRates,
        utility: &dyn DelayUtility,
    ) -> f64 {
        let s = system.servers() as f64;
        let mut worst = 0.0f64;
        for (i, &xi) in self.x.iter().enumerate() {
            if xi > 1e-9 && xi < s - 1e-9 && demand.rate(i) > 0.0 {
                let v = demand.rate(i) * utility.phi(xi, system.contact_rate);
                worst = worst.max((v - self.level).abs() / self.level.max(1e-300));
            }
        }
        worst
    }
}

/// The smallest positive count used when inverting φ (φ may diverge at 0).
const X_FLOOR: f64 = 1e-9;

/// `ln y` for a φ value or an allocation total that is positive in exact
/// arithmetic: one that underflowed to 0 is read as the smallest normal
/// number, so a bracket end stays finite. NaN and negative values pass
/// through to a NaN, which the root finder reports.
fn ln_positive(y: f64) -> f64 {
    if y == 0.0 {
        f64::MIN_POSITIVE.ln()
    } else {
        y.ln()
    }
}

/// Invert `x ↦ d·φ(x)` at value `level` over `[X_FLOOR, s]`, clamping to
/// the box when `level` falls outside `φ`'s range.
///
/// `phi_floor` and `phi_cap` are `φ(X_FLOOR)` and `φ(s)`, which depend
/// only on the utility and system shape — callers evaluate them once per
/// solve and every inversion takes them as its bracket's end values; each
/// φ costs a quadrature under the integral-defined utilities.
fn invert_phi(
    utility: &dyn DelayUtility,
    mu: f64,
    phi_floor: f64,
    phi_cap: f64,
    d: f64,
    level: f64,
    s: f64,
) -> Result<f64, BracketError> {
    debug_assert!(d > 0.0 && level > 0.0);
    let (at_floor, at_cap) = (d * phi_floor, d * phi_cap);
    if at_floor <= level {
        // Even an infinitesimal replica count is not worth the level:
        // boundary solution x = 0 (only possible when φ(0⁺) is finite).
        return Ok(0.0);
    }
    if at_cap >= level {
        return Ok(s); // saturates at |S| replicas
    }
    // A non-finite end (φ(X_FLOOR) = ∞, a NaN quadrature) fails both
    // tests above and is reported by the root finder.
    let ln_level = level.ln();
    let u = brent_between(
        |u| ln_positive(d * utility.phi(u.exp(), mu)) - ln_level,
        (X_FLOOR.ln(), ln_positive(at_floor) - ln_level),
        (s.ln(), ln_positive(at_cap) - ln_level),
        0.0,
    )?;
    Ok(u.exp())
}

/// Water-filling solution of the relaxed welfare maximization
/// (Theorem 2 / Property 1). Budget is `ρ·|S|`; each `x̃_i ≤ |S|`.
///
/// # Panics
/// Panics if the utility requires dedicated nodes but the system is pure
/// P2P, or if no item has positive demand.
pub fn relaxed_optimum(
    system: &SystemModel,
    demand: &DemandRates,
    utility: &dyn DelayUtility,
) -> RelaxedAllocation {
    relaxed_optimum_observed(system, demand, utility, &mut Recorder::disabled())
}

/// [`relaxed_optimum`] returning a typed [`SolverError`] instead of
/// panicking on invalid inputs.
pub fn try_relaxed_optimum(
    system: &SystemModel,
    demand: &DemandRates,
    utility: &dyn DelayUtility,
) -> Result<RelaxedAllocation, SolverError> {
    water_fill_observed(system, demand, utility, &mut Recorder::disabled(), None)
}

/// [`relaxed_optimum`] with instrumentation: `solver_done` reports how
/// many water-level probes the level search needed (iterations) and
/// how many φ-inversions they cost (evaluations); a final `solver_step`
/// carries the budget residual `|Σx̃ − ρ|S|| / ρ|S|` at the solution —
/// the convergence residual of the level search. Trivial instances
/// (zero budget, catalog-saturating budget) emit nothing.
pub fn relaxed_optimum_observed<S: Sink>(
    system: &SystemModel,
    demand: &DemandRates,
    utility: &dyn DelayUtility,
    rec: &mut Recorder<S>,
) -> RelaxedAllocation {
    match water_fill_observed(system, demand, utility, rec, None) {
        Ok(allocation) => allocation,
        Err(e) => panic!("{e}"),
    }
}

/// [`try_relaxed_optimum`] warm-started from a previous solve's water
/// level. The level search brackets around `hint` (`[λ₀/4, 4λ₀]`,
/// expanded geometrically if the level moved further) instead of the
/// cold `[1e-12, 1]` start, so after a small demand delta the level is
/// typically re-bracketed in O(1) probes. The solution satisfies the
/// same budget-residual convergence criterion as the cold solve; the
/// *probe sequence* differs, so results are equal to solver tolerance
/// but not guaranteed bit-identical to a cold solve. A `None` or
/// non-finite/non-positive hint falls back to the cold bracket exactly.
pub fn try_relaxed_optimum_warm(
    system: &SystemModel,
    demand: &DemandRates,
    utility: &dyn DelayUtility,
    hint: Option<f64>,
) -> Result<RelaxedAllocation, SolverError> {
    water_fill_observed(system, demand, utility, &mut Recorder::disabled(), hint)
}

fn water_fill_observed<S: Sink>(
    system: &SystemModel,
    demand: &DemandRates,
    utility: &dyn DelayUtility,
    rec: &mut Recorder<S>,
    hint: Option<f64>,
) -> Result<RelaxedAllocation, SolverError> {
    let _span = impatience_obs::span!("solve.relaxed");
    check_population(system, utility)?;
    let items = demand.items();
    let s = system.servers() as f64;
    let mu = system.contact_rate;
    let budget = system.total_slots() as f64;
    if !demand.rates().iter().any(|&d| d > 0.0) {
        return Err(SolverError::NoDemand);
    }

    if budget == 0.0 || s == 0.0 {
        return Ok(RelaxedAllocation {
            x: vec![0.0; items],
            level: f64::INFINITY,
        });
    }
    // If the budget covers the whole catalog at the cap, saturate.
    let demanded: Vec<usize> = (0..items).filter(|&i| demand.rate(i) > 0.0).collect();
    // φ at the box boundaries is item-independent; evaluate the two
    // quadratures once for the whole solve instead of per φ-inversion.
    let phi_cap = utility.phi(s, mu);
    if budget >= s * demanded.len() as f64 {
        let mut x = vec![0.0; items];
        for &i in &demanded {
            x[i] = s;
        }
        return Ok(RelaxedAllocation {
            x,
            level: demanded
                .iter()
                .map(|&i| demand.rate(i) * phi_cap)
                .fold(f64::INFINITY, f64::min),
        });
    }
    let phi_floor = utility.phi(X_FLOOR, mu);

    let wall_start = rec.is_active().then(Instant::now);
    let probes = Cell::new(0u64);
    let total_at = |level: f64| -> Result<f64, BracketError> {
        probes.set(probes.get() + 1);
        demanded
            .iter()
            .map(|&i| invert_phi(utility, mu, phi_floor, phi_cap, demand.rate(i), level, s))
            .sum()
    };

    // Bracket the level: λ high ⇒ small allocations, λ low ⇒ saturated.
    // A warm hint centers the bracket on the previous solve's level; the
    // expansion loops below recover if the level moved outside it.
    let (mut lo, mut hi) = match hint {
        Some(h) if h.is_finite() && h > 0.0 => ((h / 4.0).max(1e-300), (h * 4.0).min(1e300)),
        _ => (1e-12, 1.0),
    };
    let mut total_hi = total_at(hi)?;
    while total_hi > budget {
        hi *= 4.0;
        if hi >= 1e300 {
            return Err(SolverError::BracketFailed { bound: "above" });
        }
        total_hi = total_at(hi)?;
    }
    let mut total_lo = total_at(lo)?;
    while total_lo < budget {
        lo /= 4.0;
        if lo <= 1e-300 {
            return Err(SolverError::BracketFailed { bound: "below" });
        }
        total_lo = total_at(lo)?;
    }
    // The two totals just computed are the search's end values. A failed
    // inversion reaches the level search as a NaN, which stops it.
    let excess = |total: f64| ln_positive(total / budget);
    let level = brent_between(
        |v| total_at(v.exp()).map_or(f64::NAN, excess),
        (lo.ln(), excess(total_lo)),
        (hi.ln(), excess(total_hi)),
        0.0,
    )?
    .exp();

    let x = (0..items)
        .map(|i| {
            if demand.rate(i) > 0.0 {
                invert_phi(utility, mu, phi_floor, phi_cap, demand.rate(i), level, s)
            } else {
                Ok(0.0)
            }
        })
        .collect::<Result<Vec<f64>, _>>()?;
    if let Some(start) = wall_start {
        let residual = (x.iter().sum::<f64>() - budget).abs() / budget;
        let iterations = probes.get();
        rec.solver_step("relaxed", iterations, 0, residual);
        rec.solver_done(
            "relaxed",
            iterations,
            iterations * demanded.len() as u64,
            start.elapsed().as_secs_f64(),
        );
    }
    Ok(RelaxedAllocation { x, level })
}

/// Projected-gradient ascent on the relaxed problem — the "gradient
/// descent algorithm" of Theorem 2. Slower than water-filling and kept as
/// an independent implementation for cross-validation.
///
/// Maximizes `Σ d_i G_i(x_i)` over the capped simplex
/// `{0 ≤ x_i ≤ |S|, Σ x_i = ρ|S|}` with `∇_i U = d_i·φ(x_i)`.
pub fn relaxed_optimum_gradient(
    system: &SystemModel,
    demand: &DemandRates,
    utility: &dyn DelayUtility,
    iterations: usize,
) -> RelaxedAllocation {
    let items = demand.items();
    let s = system.servers() as f64;
    let mu = system.contact_rate;
    let budget = (system.total_slots() as f64).min(s * items as f64);

    // Feasible start: uniform over demanded items.
    let demanded: Vec<usize> = (0..items).filter(|&i| demand.rate(i) > 0.0).collect();
    let mut x = vec![0.0; items];
    for &i in &demanded {
        x[i] = (budget / demanded.len() as f64).min(s);
    }

    for iter in 0..iterations {
        let grad: Vec<f64> = (0..items)
            .map(|i| {
                if demand.rate(i) > 0.0 {
                    demand.rate(i) * utility.phi(x[i].max(X_FLOOR), mu)
                } else {
                    0.0
                }
            })
            .collect();
        let gnorm = grad.iter().map(|g| g * g).sum::<f64>().sqrt().max(1e-300);
        // Diminishing, normalized steps: η_t = c/√(t+1) with c ~ budget.
        let step = 0.25 * budget / (items as f64).sqrt() / ((iter + 1) as f64).sqrt();
        for i in 0..items {
            x[i] += step * grad[i] / gnorm;
        }
        project_capped_simplex(&mut x, &demanded, budget, s);
    }

    let level = demanded
        .iter()
        .filter(|&&i| x[i] > 1e-6 && x[i] < s - 1e-6)
        .map(|&i| demand.rate(i) * utility.phi(x[i], mu))
        .fold(0.0f64, f64::max);
    RelaxedAllocation { x, level }
}

/// Euclidean projection of `x` (restricted to `active` coordinates) onto
/// `{0 ≤ x_i ≤ cap, Σ_active x_i = budget}` by bisection on the shift.
fn project_capped_simplex(x: &mut [f64], active: &[usize], budget: f64, cap: f64) {
    let total =
        |shift: f64| -> f64 { active.iter().map(|&i| (x[i] - shift).clamp(0.0, cap)).sum() };
    // Bracket the shift.
    let max_x = active.iter().map(|&i| x[i]).fold(0.0f64, f64::max);
    let (mut lo, mut hi) = (-cap - 1.0, max_x + 1.0);
    debug_assert!(total(lo) >= budget - 1e-9 || active.len() as f64 * cap <= budget);
    if active.len() as f64 * cap <= budget {
        for &i in active {
            x[i] = cap;
        }
        return;
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if total(mid) > budget {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo < 1e-13 * cap.max(1.0) {
            break;
        }
    }
    let shift = 0.5 * (lo + hi);
    for (i, xi) in x.iter_mut().enumerate() {
        if active.contains(&i) {
            *xi = (*xi - shift).clamp(0.0, cap);
        } else {
            *xi = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::Popularity;
    use crate::numeric::tolerances;
    use crate::utility::{Custom, Exponential, NegLog, Power, Step, UtilityKind};
    use crate::welfare::social_welfare_homogeneous;

    fn fit_exponent(d: &[f64], x: &[f64]) -> f64 {
        // Least-squares slope of ln x against ln d over interior points.
        let pts: Vec<(f64, f64)> = d
            .iter()
            .zip(x.iter())
            .filter(|&(&di, &xi)| di > 0.0 && xi > 1e-6)
            .map(|(&di, &xi)| (di.ln(), xi.ln()))
            .collect();
        let n = pts.len() as f64;
        let (sx, sy): (f64, f64) = pts
            .iter()
            .fold((0.0, 0.0), |(a, b), &(u, v)| (a + u, b + v));
        let (sxx, sxy): (f64, f64) = pts
            .iter()
            .fold((0.0, 0.0), |(a, b), &(u, v)| (a + u * u, b + u * v));
        (n * sxy - sx * sy) / (n * sxx - sx * sx)
    }

    #[test]
    fn budget_is_exhausted() {
        let system = SystemModel::dedicated(100, 50, 5, 0.05);
        let demand = Popularity::pareto(50, 1.0).demand_rates(1.0);
        for utility in [
            Box::new(Step::new(1.0)) as Box<dyn DelayUtility>,
            Box::new(Exponential::new(0.5)),
            Box::new(Power::new(0.5)),
        ] {
            let r = relaxed_optimum(&system, &demand, utility.as_ref());
            assert!(
                (r.total() - 250.0).abs() < 1e-6,
                "{}: total {}",
                utility.kind(),
                r.total()
            );
            for &xi in &r.x {
                assert!((0.0..=50.0 + 1e-9).contains(&xi));
            }
        }
    }

    #[test]
    fn equilibrium_condition_holds() {
        let system = SystemModel::dedicated(100, 50, 5, 0.05);
        let demand = Popularity::pareto(50, 1.0).demand_rates(1.0);
        for utility in [
            Box::new(Step::new(1.0)) as Box<dyn DelayUtility>,
            Box::new(Exponential::new(0.5)),
            Box::new(Power::new(-1.0)),
            Box::new(Power::new(1.5)),
            Box::new(NegLog::new()),
        ] {
            let r = relaxed_optimum(&system, &demand, utility.as_ref());
            let residual = r.equilibrium_residual(&system, &demand, utility.as_ref());
            assert!(
                residual < tolerances::EQUILIBRIUM_RESIDUAL,
                "{}: equilibrium residual {residual}",
                utility.kind()
            );
        }
    }

    #[test]
    fn power_family_closed_form_exponent() {
        // Fig. 2: x̃_i ∝ d_i^{1/(2−α)}. ρ = 1 keeps even the α = 1.5 head
        // (target ≈ 124 replicas) inside the |S| = 200 cap so no item
        // saturates and the log-log slope is clean.
        let system = SystemModel::dedicated(100, 200, 1, 0.05);
        let demand = Popularity::pareto(30, 1.0).demand_rates(1.0);
        for alpha in [-1.0, 0.0, 0.5, 1.5] {
            let utility = Power::new(alpha);
            let r = relaxed_optimum(&system, &demand, &utility);
            // Skip saturated items (none expected with 200 servers).
            let slope = fit_exponent(demand.rates(), &r.x);
            let expect = 1.0 / (2.0 - alpha);
            assert!(
                (slope - expect).abs() < 0.02,
                "α={alpha}: slope {slope} vs {expect}"
            );
        }
    }

    #[test]
    fn neglog_gives_proportional_allocation() {
        // ρ = 1: the head item's proportional target (≈ 56) stays below
        // the |S| = 200 saturation cap.
        let system = SystemModel::dedicated(100, 200, 1, 0.05);
        let demand = Popularity::pareto(20, 1.0).demand_rates(1.0);
        let r = relaxed_optimum(&system, &demand, &NegLog::new());
        let total = r.total();
        for i in 0..20 {
            let share = r.x[i] / total;
            let expect = demand.rate(i) / demand.total();
            assert!((share - expect).abs() < 1e-6, "item {i}");
        }
    }

    #[test]
    fn step_allows_zero_allocations_for_unpopular_items() {
        // Step utility has finite φ(0⁺) = μτ: sufficiently unpopular items
        // can end with x̃ = 0 when the deadline is tight.
        let system = SystemModel::dedicated(100, 10, 1, 0.05);
        let mut rates = vec![1.0; 3];
        rates.extend(vec![1e-6; 47]);
        let demand = DemandRates::new(rates);
        let r = relaxed_optimum(&system, &demand, &Step::new(0.1));
        assert!(r.x[49] < 1e-6, "tail item got {}", r.x[49]);
        assert!((r.total() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn saturation_when_budget_exceeds_catalog() {
        let system = SystemModel::pure_p2p(4, 10, 0.05);
        let demand = Popularity::uniform(3).demand_rates(1.0);
        let r = relaxed_optimum(&system, &demand, &Step::new(1.0));
        for i in 0..3 {
            assert!((r.x[i] - 4.0).abs() < 1e-9);
        }
    }

    #[test]
    fn gradient_solver_agrees_with_water_filling() {
        let system = SystemModel::dedicated(100, 50, 5, 0.05);
        let demand = Popularity::pareto(10, 1.0).demand_rates(1.0);
        for utility in [
            Box::new(Exponential::new(0.5)) as Box<dyn DelayUtility>,
            Box::new(Power::new(0.0)),
        ] {
            let wf = relaxed_optimum(&system, &demand, utility.as_ref());
            let gd = relaxed_optimum_gradient(&system, &demand, utility.as_ref(), 4000);
            let w_wf = social_welfare_homogeneous(&system, &demand, utility.as_ref(), &wf.x);
            let w_gd = social_welfare_homogeneous(&system, &demand, utility.as_ref(), &gd.x);
            // Welfare agreement is the meaningful criterion (allocations
            // may differ slightly near the boundary).
            assert!(
                (w_wf - w_gd).abs() < 1e-3 * w_wf.abs().max(1.0),
                "{}: wf {w_wf} vs gd {w_gd}",
                utility.kind()
            );
            assert!(
                w_wf >= w_gd - 1e-3 * w_wf.abs().max(1.0),
                "water-filling must win"
            );
        }
    }

    #[test]
    fn relaxed_upper_bounds_integer_greedy() {
        use crate::solver::greedy::greedy_homogeneous;
        let system = SystemModel::dedicated(100, 50, 5, 0.05);
        let demand = Popularity::pareto(50, 1.0).demand_rates(1.0);
        for utility in [
            Box::new(Step::new(1.0)) as Box<dyn DelayUtility>,
            Box::new(Exponential::new(0.5)),
            Box::new(Power::new(0.5)),
        ] {
            let relaxed = relaxed_optimum(&system, &demand, utility.as_ref());
            let integer = greedy_homogeneous(&system, &demand, utility.as_ref());
            let w_rel = social_welfare_homogeneous(&system, &demand, utility.as_ref(), &relaxed.x);
            let w_int =
                social_welfare_homogeneous(&system, &demand, utility.as_ref(), &integer.as_f64());
            assert!(
                w_rel >= w_int - 1e-9,
                "{}: relaxed {w_rel} < integer {w_int}",
                utility.kind()
            );
            // And they should be close for a 250-slot budget.
            assert!(
                (w_rel - w_int).abs() < 0.02 * w_rel.abs().max(1e-9),
                "{}: gap too large ({w_rel} vs {w_int})",
                utility.kind()
            );
        }
    }

    #[test]
    fn observed_relaxed_matches_and_converges() {
        use impatience_obs::{Event, MemorySink, Recorder};
        let system = SystemModel::dedicated(100, 50, 5, 0.05);
        let demand = Popularity::pareto(20, 1.0).demand_rates(1.0);
        let utility = Exponential::new(0.5);
        let plain = relaxed_optimum(&system, &demand, &utility);
        let mut rec = Recorder::new(MemorySink::new());
        let observed = relaxed_optimum_observed(&system, &demand, &utility, &mut rec);
        assert_eq!(
            plain, observed,
            "instrumentation must not change the allocation"
        );

        match &rec.sink().events[..] {
            [Event::SolverStep {
                solver: "relaxed",
                value: residual,
                ..
            }, Event::SolverDone {
                solver: "relaxed",
                iterations,
                evaluations,
                ..
            }] => {
                assert!(*residual < 1e-9, "budget residual {residual} too large");
                assert!(*iterations > 0);
                assert_eq!(*evaluations, iterations * 20);
            }
            other => panic!("expected [SolverStep, SolverDone], got {other:?}"),
        }
    }

    /// A utility that counts the φ evaluations made through it.
    struct CountingPhi<U> {
        inner: U,
        calls: std::sync::atomic::AtomicU64,
    }

    impl<U: DelayUtility> DelayUtility for CountingPhi<U> {
        fn h(&self, t: f64) -> f64 {
            self.inner.h(t)
        }
        fn h_zero(&self) -> f64 {
            self.inner.h_zero()
        }
        fn h_infinity(&self) -> f64 {
            self.inner.h_infinity()
        }
        fn phi(&self, x: f64, mu: f64) -> f64 {
            self.calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.phi(x, mu)
        }
        fn kind(&self) -> UtilityKind {
            self.inner.kind()
        }
    }

    #[test]
    fn phi_evaluations_per_item_stay_small() {
        // The power family is affine in the solver's log–log coordinates:
        // an inversion is a secant step plus its confirmation, and the
        // level search a dozen probes. Bisecting both searches instead
        // would spend some 2500 evaluations per item here.
        let system = SystemModel::pure_p2p(50, 5, 0.05);
        let demand = Popularity::pareto(1000, 1.0).demand_rates(1.0);
        let utility = CountingPhi {
            inner: Power::new(0.5),
            calls: Default::default(),
        };
        let r = relaxed_optimum(&system, &demand, &utility);
        assert!((r.total() - 250.0).abs() < 1e-9);
        let per_item = utility.calls.into_inner() as f64 / 1000.0;
        assert!(per_item <= 60.0, "{per_item} φ evaluations per item");
    }

    #[test]
    fn non_finite_phi_is_a_typed_error() {
        // A fitted utility whose differential breaks down past t = 40:
        // every φ quadrature that reaches that far is NaN.
        let broken = Custom::new(|t| 1.0 / (1.0 + t), 1.0, 0.0).with_derivative(|t| {
            if t > 40.0 {
                f64::NAN
            } else {
                1.0 / ((1.0 + t) * (1.0 + t))
            }
        });
        let system = SystemModel::pure_p2p(8, 2, 0.05);
        let demand = Popularity::pareto(6, 1.0).demand_rates(1.0);
        assert!(broken.phi(1.0, 0.05).is_nan());
        assert_eq!(
            try_relaxed_optimum(&system, &demand, &broken),
            Err(SolverError::NotFinite)
        );
        assert_eq!(
            try_relaxed_optimum_warm(&system, &demand, &broken, Some(0.01)),
            Err(SolverError::NotFinite)
        );
    }

    #[test]
    fn phi_that_turns_nan_mid_search_is_a_typed_error() {
        // φ is fine at both ends of the box (1e-9 and |S| = 8) and NaN on
        // part of the interior, so only the root finder can notice.
        struct Patchy;
        impl DelayUtility for Patchy {
            fn h(&self, t: f64) -> f64 {
                (-t).exp()
            }
            fn h_zero(&self) -> f64 {
                1.0
            }
            fn h_infinity(&self) -> f64 {
                0.0
            }
            fn phi(&self, x: f64, mu: f64) -> f64 {
                if (0.5..4.0).contains(&x) {
                    f64::NAN
                } else {
                    Exponential::new(1.0).phi(x, mu)
                }
            }
            fn kind(&self) -> UtilityKind {
                UtilityKind::Custom
            }
        }
        let system = SystemModel::pure_p2p(8, 2, 0.05);
        let demand = Popularity::pareto(6, 1.0).demand_rates(1.0);
        assert_eq!(
            try_relaxed_optimum(&system, &demand, &Patchy),
            Err(SolverError::NotFinite)
        );
    }

    #[test]
    fn projection_respects_caps_and_budget() {
        let mut x = vec![10.0, 0.0, 3.0];
        let active = vec![0usize, 1, 2];
        project_capped_simplex(&mut x, &active, 6.0, 4.0);
        let total: f64 = x.iter().sum();
        assert!((total - 6.0).abs() < 1e-9, "total {total}");
        for &xi in &x {
            assert!((0.0..=4.0 + 1e-9).contains(&xi));
        }
    }
}
