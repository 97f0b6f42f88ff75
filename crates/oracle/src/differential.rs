//! Differential checks: analytic formulas vs Monte-Carlo estimates, and
//! the continuous engine vs its discrete-time counterpart.
//!
//! Every comparison here is gated by a CLT-derived confidence interval:
//! a disagreement is flagged only when it is *statistically significant*
//! at the chosen `z`, never on a fixed epsilon. Where the simulator has a
//! known deterministic bias (horizon censoring settles still-open
//! requests with their optimistic gain-so-far), the comparison carries an
//! explicit [`Comparison::allowance`] bounding that bias, so the
//! statistical test stays honest instead of being widened ad hoc.

use impatience_core::allocation::ReplicaCounts;
use impatience_core::demand::DemandRates;
use impatience_core::types::SystemModel;
use impatience_core::utility::DelayUtility;
use impatience_core::welfare::{social_welfare_homogeneous, social_welfare_homogeneous_discrete};
use impatience_obs::Recorder;
use impatience_sim::config::{ContactSource, SimConfig};
use impatience_sim::engine::run_trial;
use impatience_sim::engine_discrete::{run_trial_discrete, DiscreteSource};
use impatience_sim::policy::PolicyKind;

/// Outcome of one differential comparison: a reference value (analytic
/// formula or engine A), a stochastic estimate (Monte-Carlo mean or
/// engine B), the CLT half-width of the difference, and a deterministic
/// bias allowance.
#[derive(Clone, Debug)]
pub struct Comparison {
    /// The reference value (analytic formula, or the first engine's mean).
    pub reference: f64,
    /// The stochastic estimate being checked against the reference.
    pub estimate: f64,
    /// CLT half-width of the difference at the chosen `z`.
    pub half_width: f64,
    /// Deterministic bias bound (e.g. horizon censoring), added on top of
    /// the statistical interval.
    pub allowance: f64,
    /// Number of independent samples behind `estimate`.
    pub samples: usize,
}

impl Comparison {
    /// Signed difference `estimate − reference`.
    pub fn difference(&self) -> f64 {
        self.estimate - self.reference
    }

    /// Whether the estimate is statistically compatible with the
    /// reference: `|estimate − reference| ≤ half_width + allowance`.
    pub fn agrees(&self) -> bool {
        self.difference().abs() <= self.half_width + self.allowance
    }

    /// One-line human-readable summary.
    pub fn describe(&self) -> String {
        format!(
            "ref {:.6} vs est {:.6} (Δ {:+.2e}, CI ±{:.2e}, bias ≤ {:.2e}, n={})",
            self.reference,
            self.estimate,
            self.difference(),
            self.half_width,
            self.allowance,
            self.samples
        )
    }
}

/// Sample mean and CLT confidence half-width `z·s/√n` of a set of i.i.d.
/// samples (`s` the sample standard deviation).
///
/// # Panics
/// Panics on an empty sample or a non-positive `z`.
pub fn clt_interval(samples: &[f64], z: f64) -> (f64, f64) {
    assert!(!samples.is_empty(), "CLT interval of an empty sample");
    assert!(z > 0.0, "z must be positive");
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    if samples.len() == 1 {
        return (mean, f64::INFINITY);
    }
    let var = samples.iter().map(|&x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, z * (var / n).sqrt())
}

/// Engine-level differential: the analytic welfare of a pinned allocation
/// vs the mean observed gain rate of the event-driven simulator over
/// independent trials.
///
/// Both sides measure gain per unit time — `U(x)` sums `d_i·E[h]` with
/// `d_i` in requests per minute, and [`impatience_sim::metrics::Metrics::
/// average_observed_rate`] divides accumulated gain by window length —
/// so they are directly comparable. The simulator settles requests still
/// open at the horizon with their optimistic gain-so-far `h(age) ≤
/// h(0⁺)`, an upward bias the analytic value does not share; the
/// comparison therefore carries an allowance of
/// `mean(unfulfilled)·h(0⁺) / window`, a deterministic bound on that
/// censoring, on top of the CLT interval.
///
/// Restricted to *bounded* utilities (`0 ≤ h ≤ h(0⁺) < ∞`): for
/// cost-type families the censored tail is unbounded and no finite
/// allowance exists.
///
/// # Panics
/// Panics if `trials == 0` or the utility is unbounded.
pub fn analytic_vs_simulated(
    config: &SimConfig,
    source: &ContactSource,
    counts: &ReplicaCounts,
    trials: usize,
    base_seed: u64,
    z: f64,
) -> Comparison {
    assert!(trials > 0, "need at least one trial");
    let utility = config.utility.as_ref();
    assert!(
        utility.h_zero().is_finite() && utility.h_infinity() == 0.0,
        "analytic-vs-simulated requires a bounded utility (h(0+) finite, h(∞) = 0)"
    );
    let nodes = source.nodes();
    let mu = source.mean_rate();
    let system = match config.dedicated_servers {
        Some(servers) => SystemModel::dedicated(nodes - servers, servers, config.rho, mu),
        None => SystemModel::pure_p2p(nodes, config.rho, mu),
    };
    let analytic = social_welfare_homogeneous(&system, &config.demand, utility, &counts.as_f64());

    let window = (1.0 - config.warmup_fraction) * source.duration();
    let mut rates = Vec::with_capacity(trials);
    let mut censor = 0.0;
    for k in 0..trials {
        let outcome = run_trial(
            config,
            source,
            PolicyKind::Static {
                label: "ORACLE",
                counts: counts.clone(),
            },
            base_seed.wrapping_add(k as u64),
        );
        rates.push(
            outcome
                .metrics
                .average_observed_rate(config.warmup_fraction),
        );
        censor += outcome.metrics.unfulfilled as f64 * utility.h_zero() / window;
    }
    let (mean, half_width) = clt_interval(&rates, z);
    Comparison {
        reference: analytic,
        estimate: mean,
        half_width,
        allowance: censor / trials as f64,
        samples: trials,
    }
}

/// Cross-engine differential: the event-driven continuous engine vs the
/// slotted discrete engine on the same pure-P2P homogeneous system and
/// pinned allocation.
///
/// As `δ → 0` the slotted contact model converges to the Poisson one
/// (§3.4), so for small `μ·δ` the two engines' mean observed rates must
/// agree. The half-width combines both engines' CLT intervals
/// (`z·√(s_c²/n + s_d²/n)`); the discrete engine's within-slot gain
/// convention (`h(δ)` for same-slot fulfillment) contributes a bias no
/// larger than `(h(0⁺) − h(δ))·d_total/… ` which is folded into the
/// allowance as `analytic rate · μ·δ` — first-order in the slot length.
///
/// # Panics
/// Panics if `trials == 0`, on non-pure-P2P configs (the discrete engine
/// rejects them), or on unbounded utilities.
#[allow(clippy::too_many_arguments)]
pub fn engines_match(
    config: &SimConfig,
    nodes: usize,
    mu: f64,
    duration: f64,
    delta: f64,
    counts: &ReplicaCounts,
    trials: usize,
    base_seed: u64,
    z: f64,
) -> Comparison {
    assert!(trials > 0, "need at least one trial");
    let utility = config.utility.as_ref();
    assert!(
        utility.h_zero().is_finite() && utility.h_infinity() == 0.0,
        "engines_match requires a bounded utility"
    );
    let cont_source = ContactSource::homogeneous(nodes, mu, duration);
    let disc_source = DiscreteSource {
        nodes,
        mu,
        delta,
        slots: (duration / delta).round() as u64,
    };
    let policy = || PolicyKind::Static {
        label: "ORACLE",
        counts: counts.clone(),
    };
    let mut cont = Vec::with_capacity(trials);
    let mut disc = Vec::with_capacity(trials);
    for k in 0..trials {
        let seed = base_seed.wrapping_add(k as u64);
        cont.push(
            run_trial(config, &cont_source, policy(), seed)
                .metrics
                .average_observed_rate(config.warmup_fraction),
        );
        disc.push(
            run_trial_discrete(
                config,
                &disc_source,
                policy(),
                seed ^ 0x5EED_D15C,
                &mut Recorder::disabled(),
            )
            .metrics
            .average_observed_rate(config.warmup_fraction),
        );
    }
    let (mean_c, hw_c) = clt_interval(&cont, z);
    let (mean_d, hw_d) = clt_interval(&disc, z);
    // Discretization bias: the slotted law shifts every wait by O(δ) and
    // rounds gains to h(k·δ); bound its effect on the rate at first order
    // by the rate itself scaled by μ·δ, plus the h(0⁺)−h(δ) rounding of
    // immediate hits.
    let discretization = mean_c.abs() * (mu * delta)
        + (utility.h_zero() - utility.h(delta)).abs() * mean_c.abs().max(1.0) * delta;
    Comparison {
        reference: mean_c,
        estimate: mean_d,
        half_width: (hw_c.powi(2) + hw_d.powi(2)).sqrt(),
        allowance: discretization,
        samples: trials,
    }
}

/// Absolute error of the discrete-time welfare formula against the
/// continuous one at each slot length in `deltas`.
///
/// §3.4 claims the slotted model converges to the continuous one as
/// `δ → 0`; callers assert the returned sequence is (weakly) decreasing
/// and its last element small when `deltas` is sorted descending.
///
/// # Panics
/// Panics if `deltas` is empty or the continuous welfare is not finite.
pub fn slot_refinement_errors(
    system: &SystemModel,
    demand: &DemandRates,
    utility: &dyn DelayUtility,
    counts: &[f64],
    deltas: &[f64],
) -> Vec<f64> {
    assert!(!deltas.is_empty(), "need at least one slot length");
    let continuous = social_welfare_homogeneous(system, demand, utility, counts);
    assert!(
        continuous.is_finite(),
        "continuous welfare is {continuous}; refine only finite instances"
    );
    deltas
        .iter()
        .map(|&delta| {
            let w = social_welfare_homogeneous_discrete(system, demand, utility, counts, delta);
            (w - continuous).abs()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use impatience_core::demand::Popularity;
    use impatience_core::rng::Xoshiro256;
    use impatience_core::utility::{Exponential, Power, Step};
    use impatience_core::welfare::{expected_gain_continuous, expected_gain_pure_p2p};

    /// Monte-Carlo estimate of the per-request expected gain at `replicas`
    /// copies, sampled straight from the paper's delay law, compared with
    /// the quadrature-backed analytic value.
    ///
    /// With `nodes = Some(n)` the pure-P2P law of Eq. 5 is sampled: with
    /// probability `x/n` the requester holds the item (gain `h(0⁺)`),
    /// otherwise it waits `Exp(x·μ)`. With `nodes = None` the dedicated law
    /// of Eq. 3 is sampled: the wait is always `Exp(x·μ)`. The reference is
    /// [`expected_gain_pure_p2p`] / [`expected_gain_continuous`], which
    /// integrate the *same* law by adaptive quadrature — so this check ties
    /// the numeric toolbox to an independent sampling path.
    ///
    /// # Panics
    /// Panics if `samples == 0`, on cost-type utilities with `replicas = 0`
    /// (the analytic value is `−∞`, nothing to estimate), or on a
    /// `requires_dedicated` utility sampled in pure-P2P mode.
    fn mc_gain_estimate(
        utility: &dyn DelayUtility,
        replicas: f64,
        nodes: Option<usize>,
        mu: f64,
        samples: usize,
        seed: u64,
        z: f64,
    ) -> Comparison {
        assert!(samples > 0, "need at least one sample");
        let analytic = match nodes {
            Some(n) => expected_gain_pure_p2p(utility, replicas, n, mu),
            None => expected_gain_continuous(utility, replicas, mu),
        };
        assert!(
            analytic.is_finite(),
            "analytic gain is not finite ({analytic}); choose replicas > 0 for cost-type utilities"
        );
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let rate = replicas * mu;
        let mut draws = Vec::with_capacity(samples);
        for _ in 0..samples {
            let gain = match nodes {
                Some(n) if rng.f64() < replicas / n as f64 => utility.h_zero(),
                _ => utility.h(rng.exp(rate)),
            };
            draws.push(gain);
        }
        let (mean, half_width) = clt_interval(&draws, z);
        Comparison {
            reference: analytic,
            estimate: mean,
            half_width,
            allowance: 0.0,
            samples,
        }
    }

    #[test]
    fn clt_interval_basics() {
        let (mean, hw) = clt_interval(&[1.0, 2.0, 3.0], 2.0);
        assert!((mean - 2.0).abs() < 1e-12);
        // s = 1, n = 3 → hw = 2/√3.
        assert!((hw - 2.0 / 3.0f64.sqrt()).abs() < 1e-12);
        let (_, single) = clt_interval(&[5.0], 2.0);
        assert!(single.is_infinite());
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn clt_interval_rejects_empty() {
        let _ = clt_interval(&[], 2.0);
    }

    #[test]
    fn mc_matches_quadrature_dedicated() {
        for utility in [
            Box::new(Step::new(5.0)) as Box<dyn DelayUtility>,
            Box::new(Exponential::new(0.2)),
            Box::new(Power::new(0.5)),
        ] {
            let cmp = mc_gain_estimate(utility.as_ref(), 3.0, None, 0.05, 40_000, 7, 4.0);
            assert!(cmp.agrees(), "{}", cmp.describe());
        }
    }

    #[test]
    fn mc_matches_quadrature_pure_p2p() {
        let cmp = mc_gain_estimate(&Step::new(5.0), 4.0, Some(20), 0.05, 40_000, 11, 4.0);
        assert!(cmp.agrees(), "{}", cmp.describe());
    }

    #[test]
    fn mc_flags_a_wrong_reference() {
        let mut cmp = mc_gain_estimate(&Step::new(5.0), 3.0, None, 0.05, 40_000, 3, 4.0);
        cmp.reference += 0.2; // a genuinely wrong analytic value
        assert!(!cmp.agrees(), "{}", cmp.describe());
    }

    #[test]
    fn slot_errors_shrink_monotonically() {
        let system = SystemModel::pure_p2p(20, 2, 0.05);
        let demand = Popularity::pareto(4, 1.0).demand_rates(1.0);
        let counts = [5.0, 3.0, 2.0, 1.0];
        let errs = slot_refinement_errors(
            &system,
            &demand,
            &Exponential::new(0.1),
            &counts,
            &[4.0, 2.0, 1.0, 0.5, 0.25],
        );
        for pair in errs.windows(2) {
            assert!(
                pair[1] <= pair[0] + 1e-12,
                "errors not decreasing: {errs:?}"
            );
        }
        assert!(
            errs[errs.len() - 1] < 1e-2,
            "final error too large: {errs:?}"
        );
    }
}
